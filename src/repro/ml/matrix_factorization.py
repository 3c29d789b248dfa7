"""Low-rank matrix factorization (the MF task).

The task factorizes a Zipf-skewed synthetic matrix with SGD (Section 5.1),
adapting the shared-nothing SGD matrix completion setup of Makari et al.: the
learning rate follows the bold-driver heuristic, data points are partitioned
to nodes by row and to workers by column, and each worker visits its points
column by column (random column order, random order within a column) to
create locality in column-parameter accesses. There is no sampling access in
this task; all performance differences come from parameter management.

PS key layout
-------------
* row factor ``i``    -> key ``i``
* column factor ``j`` -> key ``num_rows + j``

Row parameters are only ever accessed by the node owning the row partition,
whereas (frequent) column parameters are accessed by all nodes — they are the
task's hot spots.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.data.matrix import MatrixDataset
from repro.ml.optimizer import BoldDriver, UpdateNormClipper
from repro.ml.task import TrainingTask, sequential_process_round
from repro.ps.base import ParameterServer
from repro.ps.rounds import point_calls
from repro.ps.storage import ParameterStore
from repro.simulation.cluster import WorkerContext


class MatrixFactorizationTask(TrainingTask):
    """The matrix factorization workload (latent factors, SGD, bold driver)."""

    name = "matrix_factorization"
    quality_metric = "test_rmse"
    higher_is_better = False

    def __init__(
        self,
        dataset: MatrixDataset,
        learning_rate: float = 0.25,
        regularization: float = 0.01,
        init_scale: float = 0.2,
        clip_factor: float = 2.0,
        use_bold_driver: bool = True,
    ) -> None:
        self.dataset = dataset
        self.rank = dataset.rank
        self.regularization = float(regularization)
        self.init_scale = float(init_scale)
        self.bold_driver = BoldDriver(learning_rate) if use_bold_driver else None
        self.learning_rate = float(learning_rate)
        self._clipper = UpdateNormClipper(clip_factor) if clip_factor > 0 else None
        self._epoch_squared_error = 0.0
        self._epoch_points = 0
        #: The two PS keys of every training cell: row factor, column factor.
        self._cell_keys = np.column_stack([
            dataset.train_cells[:, 0],
            dataset.num_rows + dataset.train_cells[:, 1],
        ]).astype(np.int64, copy=False)

    # -------------------------------------------------------------- model layout
    def num_keys(self) -> int:
        return self.dataset.num_rows + self.dataset.num_cols

    def value_length(self) -> int:
        return self.rank

    def create_store(self, seed: int = 0) -> ParameterStore:
        return ParameterStore(
            self.num_keys(), self.value_length(), seed=seed,
            init_scale=self.init_scale,
        )

    def access_counts(self) -> np.ndarray:
        counts = np.zeros(self.num_keys(), dtype=np.float64)
        counts[: self.dataset.num_rows] = self.dataset.row_frequencies
        counts[self.dataset.num_rows:] = self.dataset.col_frequencies
        return counts

    def column_key(self, column: int) -> int:
        return self.dataset.num_rows + int(column)

    def key_groups(self) -> List[tuple]:
        """Row and column factors drift independently (see the base class)."""
        return [
            (0, self.dataset.num_rows),
            (self.dataset.num_rows, self.num_keys()),
        ]

    # ------------------------------------------------------------------ training
    def num_data_points(self) -> int:
        return self.dataset.num_train

    def create_shards(self, num_nodes: int, workers_per_node: int,
                      seed: int = 0) -> List[List[np.ndarray]]:
        """Partition by row to nodes, by column to workers, ordered by column."""
        rng = np.random.default_rng(seed)
        rows = self.dataset.train_cells[:, 0]
        cols = self.dataset.train_cells[:, 1]
        node_of_row = rng.integers(0, num_nodes, size=self.dataset.num_rows)
        worker_of_col = rng.integers(0, workers_per_node, size=self.dataset.num_cols)

        shards: List[List[np.ndarray]] = []
        for node in range(num_nodes):
            node_mask = node_of_row[rows] == node
            node_shards: List[np.ndarray] = []
            for worker in range(workers_per_node):
                mask = node_mask & (worker_of_col[cols] == worker)
                indices = np.flatnonzero(mask)
                node_shards.append(self._order_by_column(indices, cols[indices], rng))
            shards.append(node_shards)
        return shards

    def _order_by_column(self, indices: np.ndarray, columns: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
        """Visit columns in random order, points within a column in random order."""
        if len(indices) == 0:
            return indices
        distinct, column_of_point = np.unique(columns, return_inverse=True)
        visit = rng.permutation(distinct)
        jitter = rng.random(len(indices))
        rank = np.empty(len(distinct), dtype=np.int64)
        rank[np.searchsorted(distinct, visit)] = np.arange(len(distinct))
        order = np.lexsort((jitter, rank[column_of_point]))
        return indices[order]

    def prefetch(self, ps: ParameterServer, worker: WorkerContext,
                 data_indices: np.ndarray) -> None:
        if not ps.relocates:
            return  # ``localize`` is the base no-op: skip building the hint
        data_indices = np.asarray(data_indices, dtype=np.int64)
        if len(data_indices) == 0:
            return
        ps.localize(worker, np.unique(self._cell_keys[data_indices]))

    def process_chunk(self, ps: ParameterServer, worker: WorkerContext,
                      data_indices: np.ndarray, rng: np.random.Generator) -> int:
        data_indices = np.asarray(data_indices, dtype=np.int64)
        if len(data_indices) == 0:
            return 0
        compute_cost = ps.network.compute_per_step  # constant per chunk
        for keys, value in zip(self._cell_keys[data_indices],
                               self.dataset.train_values[data_indices].tolist()):
            ps.push(worker, keys, self._step(ps.pull(worker, keys), value))
            worker.charge_compute(compute_cost)
        return len(data_indices)

    def _step(self, factors: np.ndarray, value: float) -> np.ndarray:
        """The SGD update of one cell (shared by every execution path).

        ``factors`` is a ``[2, rank]`` float32 copy of the row factor and
        the column factor. Both rows go through each expression at once:
        row 0 of ``error * factors[::-1] - regularization * factors`` is the
        row gradient ``error * col - regularization * row``, row 1 the column
        gradient, element for element. The stateful clipper sees the row
        delta, then the column delta, in one ``clip_rows`` call.
        """
        error = value - float(factors[0].dot(factors[1]))
        self._epoch_squared_error += error * error
        self._epoch_points += 1
        deltas = self.learning_rate * (
            error * factors[::-1] - self.regularization * factors
        )
        if self._clipper is not None:
            return self._clipper.clip_rows(deltas)
        return deltas

    def process_round(self, ps: ParameterServer, items) -> None:
        """Round execution for MF: one charge replay per chunk, then its points.

        Per worker chunk, in worker order: the unchanged prefetch of the next
        chunk, one replay of all the chunk's ``pull → push → compute``
        charges through the PS's point charger (per cell two direct keys and
        a zero-width sample segment; charging never reads parameter values),
        the chunk's cells in the sequential order — each reads its two
        factors and adds its two deltas through the charger's
        uncharged ``read``/``add``, which route values wherever the
        architecture keeps them (store, node replica, NuPS replica slot) —
        and the clock advance. Every architecture has a charger; the round
        runs through :func:`~repro.ml.task.sequential_process_round` only
        where :meth:`ParameterServer.direct_point_charger
        <repro.ps.base.ParameterServer.direct_point_charger>` answers
        ``None`` (its docstring lists when). There is no conflict plan on
        this path: 1.1 % of a bench round's cells touch keys no other cell of
        the round touches, so batching values across cells serves nothing
        (see :mod:`repro.ps.rounds`).
        """
        charger = ps.direct_point_charger()
        if charger is None:
            sequential_process_round(self, ps, items)
            return

        train_values = self.dataset.train_values
        compute_cost = ps.network.compute_per_step
        read, add, step = charger.read, charger.add, self._step
        for item in items:
            worker = item.worker
            indices = np.asarray(item.chunk, dtype=np.int64)
            if item.next_chunk is not None:
                self.prefetch(ps, worker, item.next_chunk)
            n = len(indices)
            charger.charge_chunk(worker, self._cell_keys[indices].ravel(),
                                 point_calls([2] * n, [0] * n,
                                             [compute_cost] * n))
            lo = 0
            for value in train_values[indices].tolist():
                add(lo, lo + 2, step(read(lo, lo + 2), value))
                lo += 2
            ps.advance_clock(worker)
        charger.finish()

    def on_epoch_end(self, epoch: int) -> None:
        """Bold driver: adapt the learning rate from the epoch's training loss."""
        if self._epoch_points == 0:
            return
        epoch_loss = self._epoch_squared_error / self._epoch_points
        if self.bold_driver is not None:
            self.learning_rate = self.bold_driver.update(epoch_loss)
        self._epoch_squared_error = 0.0
        self._epoch_points = 0

    # ---------------------------------------------------------------- evaluation
    def evaluate(self, store: ParameterStore) -> Dict[str, float]:
        """Root mean squared error on the held-out test cells."""
        cells = self.dataset.test_cells
        if len(cells) == 0:
            return {"test_rmse": float("nan")}
        row_factors = store.get(cells[:, 0])
        col_factors = store.get(self.dataset.num_rows + cells[:, 1])
        predictions = np.einsum("ij,ij->i", row_factors, col_factors)
        errors = self.dataset.test_values - predictions
        return {"test_rmse": float(np.sqrt(np.mean(errors * errors)))}
