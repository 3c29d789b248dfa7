"""Row deduplication for the integer tables the generators and tasks build.

``np.unique(rows, axis=0)`` lazily imports ``numpy.ma`` (15–45 ms in a
fresh interpreter, paid by every run, benchmark cell and test process that
builds a dataset). For integer rows one ``np.lexsort`` plus an
adjacent-difference mask gives the same rows in the same lexicographic
order without that import.
"""

from __future__ import annotations

import numpy as np


def unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D integer array, sorted lexicographically.

    Equal to ``np.unique(rows, axis=0)`` for integer dtypes: column 0 is
    the primary sort key, the last column the least significant.
    """
    rows = np.asarray(rows)
    # lexsort's primary key is its last: feed the columns in reverse.
    ordered = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(ordered), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=keep[1:])
    return ordered[keep]
