"""The recorder: self-time arithmetic, boundary-only spans, wrap and restore."""

import sys
import textwrap

import numpy as np
import pytest

from perfbench import spans
from perfbench.measure import PER_LAYER_UNITS, trace_metrics


def test_self_time_of_a_three_layer_nested_call():
    # A [0, 10] calls B [1, 4] and B [5, 9]; the second B calls C [6, 8].
    # Spans arrive in post-order with their stack depth.
    depths = np.array([2, 3, 2, 1])
    starts = np.array([1.0, 6.0, 5.0, 0.0])
    ends = np.array([4.0, 8.0, 9.0, 10.0])
    parents = spans.parents_from_depths(depths)
    assert parents.tolist() == [3, 2, 3, -1]
    self_s = spans.self_times(parents, starts, ends)
    assert self_s.tolist() == [3.0, 2.0, 2.0, 3.0]
    assert self_s.sum() == 10.0  # self times add up to the root's duration


def test_only_calls_that_cross_a_layer_boundary_are_recorded():
    recorder = spans.Recorder()
    calls = []

    def leaf():
        calls.append("leaf")

    leaf_b = recorder.wrap(leaf, "ml", "leaf")

    def inner():
        calls.append("inner")
        leaf_b()

    inner_a = recorder.wrap(inner, "runner", "inner")

    def outer():
        inner_a()  # same layer: passes straight through

    outer_a = recorder.wrap(outer, "runner", "outer")
    outer_a()
    assert calls == ["inner", "leaf"]
    name_ids, parents, starts, ends = recorder.arrays()
    assert [recorder.names[i] for i in name_ids] == ["ml:leaf", "runner:outer"]
    assert parents.tolist() == [1, -1]
    assert starts[1] <= starts[0] <= ends[0] <= ends[1]


def test_a_raising_call_still_closes_its_span():
    recorder = spans.Recorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.wrap(boom, "ml", "boom")()
    assert len(recorder) == 1
    assert recorder._layers == [None]


def test_module_path_to_layer_mapping():
    found = {layer: {module.__name__ for module in modules}
             for layer, modules in spans.discover().items()}
    assert found["ps.storage"] == {"repro.ps.storage", "repro.ps.chunks"}
    assert "repro.core.sampling.schemes" in found["core.sampling"]
    assert found["core.nups"] == {"repro.core.nups"}
    assert "repro.faults.proxy" in found["faults"]
    traced = set().union(*found.values())
    assert "repro.ps.local" not in traced      # no layer: not traced
    assert "repro.report.claims" not in traced
    assert set(found) == set(spans.LAYERS)


@pytest.fixture
def tiny_program(tmp_path, monkeypatch):
    """A package with a ``runner`` and an ``ml`` layer and nothing else."""
    root = tmp_path / "tinyprog"
    (root / "ml").mkdir(parents=True)
    (root / "__init__.py").write_text("")
    (root / "ml" / "__init__.py").write_text(textwrap.dedent("""
        def step(x):
            return _helper(x) + 1

        def _helper(x):
            return x * 2

        class Model:
            def __init__(self, scale):
                self.scale = scale

            def predict(self, x):
                return step(x) * self.scale

            @staticmethod
            def version():
                return 3

            @property
            def name(self):
                return "model"
    """))
    (root / "runner.py").write_text(textwrap.dedent("""
        from tinyprog.ml import Model, step

        def run(x):
            return Model(2).predict(x) + step(x) + Model.version()
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "tinyprog"
    for name in [n for n in sys.modules if n.split(".")[0] == "tinyprog"]:
        del sys.modules[name]


def test_wrap_and_restore_leave_every_attribute_identical(tiny_program):
    import tinyprog.ml as ml
    import tinyprog.runner as runner

    before = {
        "ml": dict(vars(ml)), "runner": dict(vars(runner)),
        "Model": dict(vars(ml.Model)),
    }
    recorder = spans.Recorder()
    with spans.Tracing(recorder, root=tiny_program):
        assert runner.step is not before["runner"]["step"]  # importer rebound
        assert ml._helper is before["ml"]["_helper"]        # private: untouched
        assert vars(ml.Model)["name"] is before["Model"]["name"]  # property
        assert runner.run(5) == (11 * 2) + 11 + 3
    for namespace, snapshot in (("ml", ml), ("runner", runner),
                                ("Model", ml.Model)):
        after = dict(vars(snapshot))
        assert after.keys() == before[namespace].keys()
        for name, original in before[namespace].items():
            assert after[name] is original, (namespace, name)

    names = [recorder.names[i] for i in recorder.arrays()[0]]
    # run -> Model.__init__, Model.predict (step inside it is intra-layer),
    # step, Model.version; run itself is the root.
    assert names == ["ml:Model.__init__", "ml:Model.predict", "ml:step",
                     "ml:Model.version", "runner:run"]


def test_a_missing_layer_reports_zero_not_an_error(tiny_program):
    found = spans.discover(tiny_program)
    assert [m.__name__ for m in found["ml"]] == ["tinyprog.ml"]
    assert found["obs"] == [] and found["ps.storage"] == []
    recorder = spans.Recorder()
    with spans.Tracing(recorder, root=tiny_program):
        import tinyprog.runner as runner
        recorder.begin_cell("only")
        runner.run(1)
    metrics = trace_metrics(recorder, traced_wall_s=1.0)
    assert metrics["ml.calls"] == 4 and metrics["runner.calls"] == 1
    assert metrics["obs.calls"] == 0 and metrics["obs.self_s"] == 0.0
    assert set(metrics) <= set(PER_LAYER_UNITS)


def test_tracing_the_real_program_restores_it():
    import repro.ps.storage as storage
    import repro.runner.experiment as experiment

    originals = (experiment.run_experiment, vars(storage.ParameterStore)["get"],
                 experiment.sequential_process_round)
    with spans.Tracing(spans.Recorder()):
        assert experiment.run_experiment is not originals[0]
        assert experiment.sequential_process_round is not originals[2]
    assert (experiment.run_experiment, vars(storage.ParameterStore)["get"],
            experiment.sequential_process_round) == originals


def test_trace_file_has_a_header_and_one_line_per_span(tmp_path):
    import json

    recorder = spans.Recorder()
    recorder.begin_cell("c1")
    recorder.wrap(lambda: None, "ml", "f")()
    recorder.begin_cell("c2")
    recorder.wrap(lambda: None, "data", "g")()
    path = tmp_path / "trace.jsonl"
    recorder.write_jsonl(path)
    header, first, second = [json.loads(line) for line in open(path)]
    assert header["names"] == ["ml:f", "data:g"]
    assert header["cells"] == ["c1", "c2"]
    assert first[0] == 0 and first[3] == -1 and first[4] == 0
    assert second[0] == 1 and second[4] == 1
