"""Sampling conformity levels (Section 4.1).

The paper proposes a four-level hierarchy that controls the trade-off between
sample quality and efficiency:

* **L1 CONFORM** — mutually independent samples from the target distribution.
* **L2 BOUNDED** — per-node dependencies limited to the last ``B`` samples;
  first-order inclusion probabilities still match the target.
* **L3 LONG_TERM** — mean first-order inclusion probabilities match the target
  asymptotically at each node.
* **L4 NON_CONFORM** — no guarantees.

The hierarchy is ordered: L1 implies L2 and L2 implies L3 (proved in the
paper). The levels compare by that order (``CONFORM < BOUNDED``), so a
*stronger* scheme is a valid choice for a weaker level (e.g. independent
sampling is a valid BOUNDED scheme).
"""

from __future__ import annotations

import enum
import functools


@functools.total_ordering
class ConformityLevel(enum.Enum):
    """The four sampling conformity levels, L1 (strongest) to L4 (weakest)."""

    CONFORM = 1
    BOUNDED = 2
    LONG_TERM = 3
    NON_CONFORM = 4

    # ---------------------------------------------------------------- ordering
    def __lt__(self, other: "ConformityLevel") -> bool:
        if not isinstance(other, ConformityLevel):
            return NotImplemented
        return self.value < other.value

    def __str__(self) -> str:
        return self.name


#: The conformity level provided by each sampling scheme the paper analyzes
#: (Table 1). ``independent`` is CONFORM, ``sample reuse`` is BOUNDED,
#: ``sample reuse with postponing`` is LONG_TERM, and both ``local sampling``
#: and ``direct-access repurposing`` are NON_CONFORM.
SCHEME_CONFORMITY = {
    "independent": ConformityLevel.CONFORM,
    "sample_reuse": ConformityLevel.BOUNDED,
    "sample_reuse_postponing": ConformityLevel.LONG_TERM,
    "local": ConformityLevel.NON_CONFORM,
    "direct_access_repurposing": ConformityLevel.NON_CONFORM,
}
