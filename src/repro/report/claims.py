"""The paper-claim registry: machine-checkable assertions per figure/table.

Every benchmark script in ``benchmarks/`` reproduces one element of the
paper's evaluation and exposes a structured ``run() -> dict`` entry point.
This module declares, per element, the paper's *headline claims* — "NuPS
beats the classic PS on KGE", "replicating the hot spots costs at most 25%
epoch time", "the scalability curve is monotone" — as :class:`Claim`
records that evaluate mechanically against that dict. A claim never re-runs
an experiment; it only inspects the numbers a benchmark already produced,
so the full registry evaluates in microseconds and the reproduction report
can state, figure by figure, which of the paper's qualitative results hold
on this configuration.

Claim kinds (``Claim.kind`` / ``Claim.spec``):

``ordering``
    ``left op factor * right`` for two dotted paths into the result dict
    (``op`` in ``< <= > >=``, ``factor`` defaults to 1). Expresses both
    strict orderings ("nups beats classic") and ratio bounds ("within
    1.25x of the no-replication baseline").
``threshold``
    ``value op constant`` for one path; ``op`` additionally supports
    ``==`` with an absolute ``tolerance``. A missing or ``None`` value
    fails (the paper's "not reached" outcomes).
``monotonic``
    a sequence at ``path`` is ``nondecreasing`` or ``nonincreasing`` up to
    ``tolerance`` (scalability curves, cumulative skew shares).
``bracket``
    ``lo <= value <= hi`` (strict with ``strict: true``).
``all_true``
    every listed path resolves truthy; a path may also name a dict or list
    whose values must all be truthy ("every system trains the model").

The registered claims mirror the assertions the benchmark pytest tests
make, with paths chosen to resolve in both fast and full mode; the
pipeline (:mod:`repro.report.pipeline`) evaluates them after each
benchmark completes and the renderer (:mod:`repro.report.render`) turns
the verdicts into ``REPRODUCTION.md``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

__all__ = [
    "Claim",
    "ClaimVerdict",
    "CLAIMS",
    "claims_for",
    "evaluate_claim",
    "evaluate_claims",
    "compare_verdicts",
    "resolve_path",
]

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_KINDS = ("ordering", "threshold", "monotonic", "bracket", "all_true")


@dataclass(frozen=True)
class Claim:
    """One machine-checkable paper claim over a benchmark's ``run()`` dict."""

    claim_id: str       #: globally unique, e.g. ``"fig06.kge.nups_beats_classic"``
    benchmark: str      #: registry id of the producing benchmark, e.g. ``"fig06"``
    description: str    #: the claim in words, as the paper states it
    kind: str           #: one of :data:`_KINDS`
    spec: Mapping[str, object] = field(default_factory=dict)
    reference: str = ""  #: paper element, e.g. ``"Figure 6 / Section 5.2"``

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown claim kind {self.kind!r}")


@dataclass
class ClaimVerdict:
    """The outcome of evaluating one claim against benchmark results."""

    claim: Claim
    passed: bool
    observed: str        #: human-readable observed values
    error: Optional[str] = None  #: set when the claim could not evaluate cleanly

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (stored in ``REPRODUCTION.json``)."""
        return {
            "id": self.claim.claim_id,
            "benchmark": self.claim.benchmark,
            "description": self.claim.description,
            "kind": self.claim.kind,
            "reference": self.claim.reference,
            "passed": bool(self.passed),
            "observed": self.observed,
            "error": self.error,
        }


def resolve_path(data: object, path: str) -> object:
    """Resolve a dotted path into nested dicts/sequences.

    Dict keys are matched verbatim; integer segments index into lists.
    Raises ``KeyError`` with the full path when any segment is missing.
    """
    node = data
    for part in path.split("."):
        if isinstance(node, Mapping):
            if part not in node:
                raise KeyError(f"path {path!r}: no key {part!r}")
            node = node[part]
        elif isinstance(node, Sequence) and not isinstance(node, (str, bytes)):
            try:
                node = node[int(part)]
            except (ValueError, IndexError) as exc:
                raise KeyError(f"path {path!r}: bad index {part!r}") from exc
        else:
            raise KeyError(f"path {path!r}: cannot descend into {type(node).__name__}")
    return node


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _require_number(value: object, path: str) -> float:
    if value is None or isinstance(value, bool) or not isinstance(value, (int, float)):
        raise KeyError(f"path {path!r}: expected a number, got {value!r}")
    return float(value)


def _eval_ordering(spec: Mapping[str, object], data: object):
    left_path, right_path = str(spec["left"]), str(spec["right"])
    op = str(spec.get("op", "<"))
    factor = float(spec.get("factor", 1.0))
    left = _require_number(resolve_path(data, left_path), left_path)
    right = _require_number(resolve_path(data, right_path), right_path)
    passed = _OPS[op](left, factor * right)
    bound = f"{factor:g} * {_fmt(right)}" if factor != 1.0 else _fmt(right)
    return passed, f"{left_path} = {_fmt(left)} {op} {bound} ({right_path})"


def _eval_threshold(spec: Mapping[str, object], data: object):
    path = str(spec["path"])
    op = str(spec.get("op", ">"))
    target = spec["value"]
    value = resolve_path(data, path)
    if op == "==":
        tolerance = float(spec.get("tolerance", 0.0))
        number = _require_number(value, path)
        passed = abs(number - float(target)) <= tolerance  # type: ignore[arg-type]
        return passed, f"{path} = {_fmt(number)} == {_fmt(target)} ± {tolerance:g}"
    number = _require_number(value, path)
    passed = _OPS[op](number, float(target))  # type: ignore[arg-type]
    return passed, f"{path} = {_fmt(number)} {op} {_fmt(target)}"


def _eval_monotonic(spec: Mapping[str, object], data: object):
    path = str(spec["path"])
    direction = str(spec.get("direction", "nondecreasing"))
    tolerance = float(spec.get("tolerance", 0.0))
    series = resolve_path(data, path)
    if not isinstance(series, Sequence) or isinstance(series, (str, bytes)):
        raise KeyError(f"path {path!r}: expected a sequence, got {series!r}")
    values = [_require_number(v, path) for v in series]
    if len(values) < 2:
        raise KeyError(f"path {path!r}: need >= 2 points, got {len(values)}")
    if direction == "nondecreasing":
        passed = all(b >= a - tolerance for a, b in zip(values, values[1:]))
    elif direction == "nonincreasing":
        passed = all(b <= a + tolerance for a, b in zip(values, values[1:]))
    else:
        raise KeyError(f"unknown monotonic direction {direction!r}")
    rendered = ", ".join(_fmt(v) for v in values)
    return passed, f"{path} = [{rendered}] is {direction} (tolerance {tolerance:g})"


def _eval_bracket(spec: Mapping[str, object], data: object):
    path = str(spec["path"])
    lo, hi = float(spec["lo"]), float(spec["hi"])
    strict = bool(spec.get("strict", False))
    value = _require_number(resolve_path(data, path), path)
    if strict:
        passed = lo < value < hi
        rel = "<"
    else:
        passed = lo <= value <= hi
        rel = "<="
    return passed, f"{lo:g} {rel} {path} = {_fmt(value)} {rel} {hi:g}"


def _eval_all_true(spec: Mapping[str, object], data: object):
    paths = [str(p) for p in spec["paths"]]  # type: ignore[union-attr]
    failed: List[str] = []
    for path in paths:
        value = resolve_path(data, path)
        if isinstance(value, Mapping):
            flags = {f"{path}.{k}": bool(v) for k, v in value.items()}
        elif isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
            flags = {f"{path}.{i}": bool(v) for i, v in enumerate(value)}
        else:
            flags = {path: bool(value)}
        if not flags:
            raise KeyError(f"path {path!r}: resolved to an empty collection")
        failed.extend(name for name, ok in flags.items() if not ok)
    if failed:
        return False, "false at: " + ", ".join(failed)
    return True, f"all true: {', '.join(paths)}"


_EVALUATORS = {
    "ordering": _eval_ordering,
    "threshold": _eval_threshold,
    "monotonic": _eval_monotonic,
    "bracket": _eval_bracket,
    "all_true": _eval_all_true,
}


def evaluate_claim(claim: Claim, data: Optional[Mapping]) -> ClaimVerdict:
    """Evaluate one claim; never raises — problems become failed verdicts."""
    if data is None:
        return ClaimVerdict(claim, passed=False, observed="",
                            error="benchmark produced no result")
    try:
        passed, observed = _EVALUATORS[claim.kind](claim.spec, data)
    except KeyError as exc:
        return ClaimVerdict(claim, passed=False, observed="",
                            error=str(exc.args[0]) if exc.args else str(exc))
    except Exception as exc:  # defensive: a claim must never kill the report
        return ClaimVerdict(claim, passed=False, observed="",
                            error=f"{type(exc).__name__}: {exc}")
    return ClaimVerdict(claim, passed=bool(passed), observed=observed)


def claims_for(benchmark_id: str) -> List[Claim]:
    """All registered claims for one benchmark, in registration order."""
    return [claim for claim in CLAIMS if claim.benchmark == benchmark_id]


def evaluate_claims(benchmark_id: str,
                    data: Optional[Mapping]) -> List[ClaimVerdict]:
    """Evaluate every claim registered for ``benchmark_id``."""
    return [evaluate_claim(claim, data) for claim in claims_for(benchmark_id)]


def compare_verdicts(committed: Mapping, fresh: Mapping) -> List[str]:
    """Claim-level regressions of a fresh report against a committed one.

    Both arguments are ``REPRODUCTION.json`` payloads. A regression is a
    claim that passed in the committed report but fails (or went missing)
    in the fresh one; claims absent from the committed report are ignored,
    and so are benchmarks the fresh run skipped entirely (``--only``).
    Returns human-readable regression descriptions (empty = no regression).
    """

    def _verdicts(payload: Mapping) -> Dict[str, bool]:
        verdicts: Dict[str, bool] = {}
        for entry in payload.get("benchmarks", ()):  # type: ignore[union-attr]
            for verdict in entry.get("claims", ()):
                verdicts[str(verdict["id"])] = bool(verdict["passed"])
        return verdicts

    committed_verdicts = _verdicts(committed)
    fresh_verdicts = _verdicts(fresh)
    fresh_benchmarks = {str(e.get("id")) for e in fresh.get("benchmarks", ())}
    regressions = []
    for claim_id, passed in sorted(committed_verdicts.items()):
        if not passed:
            continue
        benchmark = claim_id.split(".", 1)[0]
        if benchmark not in fresh_benchmarks:
            continue  # the fresh run skipped this benchmark on purpose
        if claim_id not in fresh_verdicts:
            regressions.append(f"{claim_id}: passed before, missing from the fresh report")
        elif not fresh_verdicts[claim_id]:
            regressions.append(f"{claim_id}: passed before, fails now")
    return regressions


# --------------------------------------------------------------------------
# The registry. Grouped by paper element; ids are ``<benchmark>.<slug>``.
# --------------------------------------------------------------------------

def _claim(benchmark: str, slug: str, description: str, kind: str,
           reference: str, **spec: object) -> Claim:
    return Claim(claim_id=f"{benchmark}.{slug}", benchmark=benchmark,
                 description=description, kind=kind, spec=spec,
                 reference=reference)


def _per_task(benchmark: str, task: str, slug: str, description: str,
              kind: str, reference: str, **spec: object) -> Claim:
    prefixed = {
        key: (f"{task}.{value}" if key in ("left", "right", "path") else value)
        for key, value in spec.items()
    }
    if "paths" in spec:
        prefixed["paths"] = [f"{task}.{p}" for p in spec["paths"]]  # type: ignore[union-attr]
    return _claim(benchmark, f"{task}.{slug}", f"{task}: {description}",
                  kind, reference, **prefixed)


CLAIMS: List[Claim] = []

# --- Figure 1: headline comparison on KGE (Section 1) ---------------------
_REF_FIG1 = "Figure 1 / Section 1"
CLAIMS += [
    _claim("fig01", "nups_beats_single_node",
           "NuPS trains KGE faster per epoch than the single node",
           "ordering", _REF_FIG1,
           left="epoch_time.nups", right="epoch_time.single-node", op="<"),
    _claim("fig01", "classic_behind_single_node",
           "the classic PS falls behind the single node on KGE",
           "ordering", _REF_FIG1,
           left="epoch_time.classic", right="epoch_time.single-node", op=">"),
    _claim("fig01", "nups_beats_lapse",
           "NuPS outperforms the relocation PS (Lapse) on KGE",
           "ordering", _REF_FIG1,
           left="epoch_time.nups", right="epoch_time.lapse", op="<"),
    _claim("fig01", "nups_beats_essp",
           "NuPS outperforms the replication PS (ESSP) on KGE",
           "ordering", _REF_FIG1,
           left="epoch_time.nups", right="epoch_time.essp", op="<"),
]

# --- Figure 3: access skew (Section 2.1) ----------------------------------
_REF_FIG3 = "Figure 3 / Section 2.1"
CLAIMS += [
    _claim("fig03", "kge.top_keys_dominate",
           "KGE access is heavily skewed: the top 0.1% of keys draw far "
           "more than 0.1% of accesses",
           "threshold", _REF_FIG3,
           path="kge.headline.top_share", op=">", value=0.02),
    _claim("fig03", "kge.sampling_present",
           "KGE has both direct and sampling access",
           "bracket", _REF_FIG3,
           path="kge.headline.sampling_share", lo=0.0, hi=1.0, strict=True),
    _claim("fig03", "word_vectors.top_keys_dominate",
           "WV access is heavily skewed: the top 0.1% of keys draw far "
           "more than 0.1% of accesses",
           "threshold", _REF_FIG3,
           path="word_vectors.headline.top_share", op=">", value=0.02),
    _claim("fig03", "word_vectors.sampling_dominant",
           "a large share of WV access is sampling access",
           "threshold", _REF_FIG3,
           path="word_vectors.headline.sampling_share", op=">", value=0.2),
    _claim("fig03", "kge.curve_cumulative_monotone",
           "the sorted access-frequency curve accumulates monotonically",
           "monotonic", _REF_FIG3,
           path="kge.curves.total.cumulative_share", direction="nondecreasing"),
]

# --- Figure 6: end-to-end performance (Section 5.2) -----------------------
_REF_FIG6 = "Figure 6 / Section 5.2"
for _task in ("kge", "word_vectors", "matrix_factorization"):
    CLAIMS += [
        _per_task("fig06", _task, "nups_beats_single_node",
                  "NuPS trains faster per epoch than the single node",
                  "ordering", _REF_FIG6,
                  left="epoch_time.nups", right="epoch_time.single-node", op="<"),
        _per_task("fig06", _task, "nups_beats_classic",
                  "NuPS trains faster per epoch than the classic PS",
                  "ordering", _REF_FIG6,
                  left="epoch_time.nups", right="epoch_time.classic", op="<"),
        _per_task("fig06", _task, "nups_at_least_lapse",
                  "NuPS is at least as fast as Lapse (ties on MF, where "
                  "NuPS reduces to a relocation-only PS)",
                  "ordering", _REF_FIG6,
                  left="epoch_time.nups", right="epoch_time.lapse", op="<="),
        _per_task("fig06", _task, "all_systems_train",
                  "every system improves model quality over the "
                  "initialization",
                  "all_true", _REF_FIG6, paths=["trained"]),
    ]

# --- Figure 7: ablation (Section 5.3) -------------------------------------
_REF_FIG7 = "Figure 7 / Section 5.3"
for _task in ("kge", "word_vectors"):
    CLAIMS += [
        _per_task("fig07", _task, "replication_not_hurting",
                  "adding multi-technique management to relocation does "
                  "not hurt epoch time materially (<= 1.1x Lapse)",
                  "ordering", _REF_FIG7,
                  left="epoch_time.relocation+replication",
                  right="epoch_time.lapse", op="<", factor=1.1),
        _per_task("fig07", _task, "sampling_helps",
                  "sampling integration alone beats Lapse",
                  "ordering", _REF_FIG7,
                  left="epoch_time.relocation+sampling",
                  right="epoch_time.lapse", op="<"),
        _per_task("fig07", _task, "full_nups_helps",
                  "full NuPS beats Lapse",
                  "ordering", _REF_FIG7,
                  left="epoch_time.nups", right="epoch_time.lapse", op="<"),
        _per_task("fig07", _task, "features_compound",
                  "the combination is competitive with the best single "
                  "feature (<= 1.2x)",
                  "ordering", _REF_FIG7,
                  left="epoch_time.nups", right="best_single_feature",
                  op="<=", factor=1.2),
    ]

# --- Figure 8: raw scalability (Section 5.4) ------------------------------
_REF_FIG8 = "Figure 8 / Section 5.4"
CLAIMS += [
    _claim("fig08", "nups_scales",
           "more nodes speed NuPS up (largest node count beats 1 node)",
           "ordering", _REF_FIG8,
           left="at_largest.nups", right="speedup.nups.1", op=">"),
    _claim("fig08", "nups_beats_single_node",
           "NuPS clearly outperforms the single node at the largest "
           "node count (> 2x)",
           "threshold", _REF_FIG8,
           path="at_largest.nups", op=">", value=2.0),
    _claim("fig08", "nups_beats_lapse",
           "NuPS scales past Lapse at the largest node count",
           "ordering", _REF_FIG8,
           left="at_largest.nups", right="at_largest.lapse", op=">"),
    _claim("fig08", "nups_beats_essp",
           "NuPS scales past ESSP at the largest node count",
           "ordering", _REF_FIG8,
           left="at_largest.nups", right="at_largest.essp", op=">"),
    _claim("fig08", "lapse_no_speedup",
           "Lapse does not meaningfully outperform the single node "
           "even at the largest node count",
           "threshold", _REF_FIG8,
           path="at_largest.lapse", op="<", value=1.5),
    _claim("fig08", "essp_no_speedup",
           "ESSP does not meaningfully outperform the single node "
           "even at the largest node count",
           "threshold", _REF_FIG8,
           path="at_largest.essp", op="<", value=1.5),
    _claim("fig08", "nups_curve_monotone",
           "the NuPS scalability curve grows monotonically with the "
           "node count (near-linear scaling)",
           "monotonic", _REF_FIG8,
           path="nups_curve", direction="nondecreasing", tolerance=0.15),
]

# --- Figure 9: effective scalability (Section 5.4) ------------------------
CLAIMS += [
    _claim("fig09", "nups_effective_speedup",
           "NuPS reaches 90% of the best single-node quality, and faster "
           "than the single node does (best node count of the sweep; not "
           "every node count crosses the mark at benchmark scale)",
           "threshold", "Figure 9 / Section 5.4",
           path="best_speedup", op=">", value=1.0),
]

# --- Figure 10: sampling schemes (Section 5.5) ----------------------------
_REF_FIG10 = "Figure 10 / Section 5.5"
for _task in ("kge", "word_vectors"):
    CLAIMS += [
        _per_task("fig10", _task, "reuse_speeds_up",
                  "sample reuse (U=16) reduces epoch time versus "
                  "independent sampling",
                  "ordering", _REF_FIG10,
                  left="epoch_time.reuse16", right="epoch_time.independent",
                  op="<"),
        _per_task("fig10", _task, "local_speeds_up",
                  "local sampling reduces epoch time versus independent "
                  "sampling",
                  "ordering", _REF_FIG10,
                  left="epoch_time.local", right="epoch_time.independent",
                  op="<"),
        _per_task("fig10", _task, "higher_reuse_not_slower",
                  "a higher use frequency (U=64) does not slow epochs "
                  "down (<= 1.05x U=16)",
                  "ordering", _REF_FIG10,
                  left="epoch_time.reuse64", right="epoch_time.reuse16",
                  op="<=", factor=1.05),
        _per_task("fig10", _task, "all_variants_train",
                  "every sampling-scheme variant still trains the model",
                  "all_true", _REF_FIG10, paths=["trained"]),
    ]

# --- Table 3 / Figure 11: management choice (Section 5.6) -----------------
_REF_FIG11 = "Table 3, Figure 11 / Section 5.6"
for _task in ("kge", "matrix_factorization"):
    CLAIMS += [
        _per_task("fig11", _task, "heuristic_cheap",
                  "replicating the heuristic's hot spots costs at most "
                  "25% epoch time over no replication",
                  "ordering", _REF_FIG11,
                  left="per_factor.1.epoch_time",
                  right="per_factor.0.epoch_time", op="<=", factor=1.25),
        _per_task("fig11", _task, "replica_share_grows",
                  "the share of accesses served by replicas grows with "
                  "the replication extent",
                  "ordering", _REF_FIG11,
                  left="per_factor.256.replica_access_share",
                  right="per_factor.1.replica_access_share", op=">"),
        _per_task("fig11", _task, "over_replication_still_trains",
                  "even the largest replication extent still trains the "
                  "model",
                  "all_true", _REF_FIG11, paths=["largest_trained"]),
    ]

# --- Figure 12: replica staleness (Section 5.7) ---------------------------
_REF_FIG12 = "Figure 12 / Section 5.7"
for _task in ("kge", "matrix_factorization"):
    CLAIMS += [
        _per_task("fig12", _task, "frequent_sync_cheap",
                  "frequent replica synchronization does not blow up "
                  "epoch time (< 1.5x the no-sync run)",
                  "ordering", _REF_FIG12,
                  left="per_target.200.epoch_time",
                  right="per_target.0.epoch_time", op="<", factor=1.5),
        _per_task("fig12", _task, "no_sync_means_no_syncs",
                  "with synchronization off, replicas merge only at the "
                  "epoch boundary (at most one forced sync)",
                  "threshold", _REF_FIG12,
                  path="per_target.0.achieved_syncs", op="<=", value=1),
    ]
CLAIMS += [
    _per_task("fig12", "kge", "fresh_replicas_good_quality",
              "frequent synchronization gives at least the quality of "
              "never synchronizing (>= 0.9x)",
              "ordering", _REF_FIG12,
              left="per_target.200.quality", right="per_target.0.quality",
              op=">=", factor=0.9),
]

# --- Table 1: sampling-scheme conformity (Section 4.2) --------------------
_REF_TAB1 = "Table 1 / Section 4.2"
CLAIMS += [
    _claim("table1", "independent_conform",
           "independent sampling matches the target distribution "
           "(CONFORM: tiny TV distance)",
           "threshold", _REF_TAB1,
           path="tv_distance.independent", op="<", value=0.06),
    _claim("table1", "sample_reuse_bounded",
           "sample reuse stays close to the target distribution (BOUNDED)",
           "threshold", _REF_TAB1,
           path="tv_distance.sample_reuse", op="<", value=0.15),
    _claim("table1", "postponing_long_term",
           "sample reuse with postponing stays close to the target "
           "distribution (LONG-TERM)",
           "threshold", _REF_TAB1,
           path="tv_distance.sample_reuse_postponing", op="<", value=0.15),
    _claim("table1", "local_non_conform",
           "local sampling under a static allocation deviates "
           "substantially (NON-CONFORM)",
           "threshold", _REF_TAB1,
           path="tv_distance.local", op=">", value=0.25),
    _claim("table1", "local_worse_than_reuse",
           "local sampling deviates far more than sample reuse "
           "(> 2x the TV distance)",
           "ordering", _REF_TAB1,
           left="tv_distance.local", right="tv_distance.sample_reuse",
           op=">", factor=2.0),
]

# --- Table 2: workloads (Section 5.1) -------------------------------------
_REF_TAB2 = "Table 2 / Section 5.1"
CLAIMS += [
    _claim("table2", "kge_samples",
           "KGE has substantial sampling access",
           "threshold", _REF_TAB2,
           path="kge.sampling_share", op=">", value=0.2),
    _claim("table2", "word_vectors_samples",
           "WV has substantial sampling access",
           "threshold", _REF_TAB2,
           path="word_vectors.sampling_share", op=">", value=0.2),
    _claim("table2", "matrix_factorization_no_sampling",
           "MF has no sampling access at all",
           "threshold", _REF_TAB2,
           path="matrix_factorization.sampling_share", op="==", value=0.0),
]

# --- Section 5.8: task-specific implementations ---------------------------
_REF_SEC58 = "Section 5.8"
CLAIMS += [
    _claim("sec58", "nups_competitive_with_dsgd",
           "NuPS is in the same ballpark as the task-specific DSGD++ "
           "on MF (< 4x its epoch time)",
           "ordering", _REF_SEC58,
           left="mf.nups", right="mf.dsgd++", op="<", factor=4.0),
    _claim("sec58", "overlap_helps_dsgd",
           "overlapping communication makes DSGD++ at least as fast "
           "as DSGD",
           "ordering", _REF_SEC58,
           left="mf.dsgd++", right="mf.dsgd", op="<=", factor=1.01),
]
for _task in ("kge", "word_vectors"):
    CLAIMS += [
        _claim("sec58", f"{_task}.specialized_beats_general",
               f"{_task}: the specialized single-machine implementation "
               "beats the general-purpose PS on one machine",
               "ordering", _REF_SEC58,
               left=f"single_machine.{_task}.specialized",
               right=f"single_machine.{_task}.single_node", op="<="),
        _claim("sec58", f"{_task}.nups_competitive",
               f"{_task}: distributed NuPS stays competitive with the "
               "specialized implementation (< 4x its epoch time)",
               "ordering", _REF_SEC58,
               left=f"single_machine.{_task}.nups",
               right=f"single_machine.{_task}.specialized",
               op="<", factor=4.0),
    ]

# --- Scenario sweep (dynamic workloads; beyond the paper) -----------------
_REF_SCEN = "Scenario engine (extends Section 5; see BENCH_scenarios.json)"
CLAIMS += [
    _claim("scenarios", "lapse_readapts",
           "under hot-set drift the relocation PS dips and re-adapts "
           "(localization recovers)",
           "all_true", _REF_SCEN,
           paths=["drift_checks.lapse.dipped", "drift_checks.lapse.recovered"]),
    _claim("scenarios", "nups_readapts",
           "under hot-set drift NuPS dips and re-adapts (localization "
           "recovers, replication re-targeted)",
           "all_true", _REF_SCEN,
           paths=["drift_checks.nups.dipped", "drift_checks.nups.recovered"]),
    _claim("scenarios", "classic_flat",
           "the statically partitioned classic PS has no locality to "
           "lose: its localization stays flat",
           "all_true", _REF_SCEN,
           paths=["drift_checks.classic.flat"]),
]

# --- Fault tolerance (crash recovery; beyond the paper) -------------------
_REF_FAULTS = "Fault tolerance (beyond the paper; see BENCH_faults.json)"
CLAIMS += [
    _claim("faults", "crash_storm_completes",
           "every architecture completes training under the crash-storm "
           "preset (repeated server crashes and restarts) without deadlock",
           "all_true", _REF_FAULTS,
           paths=["checks.all_complete"]),
    _claim("faults", "crashes_injected",
           "the crash-storm sweep actually injected crashes into every "
           "architecture's run",
           "threshold", _REF_FAULTS,
           path="checks.min_crashes", op=">=", value=1),
    _claim("faults", "recovery_time_positive",
           "recovery is not free: failing over a crashed owner costs "
           "simulated recovery time",
           "threshold", _REF_FAULTS,
           path="checks.recovery_time_total", op=">", value=0.0),
    _claim("faults", "checkpoint_beats_restart",
           "with an identical crash schedule, periodic checkpointing loses "
           "strictly less work than restart-from-scratch recovery",
           "ordering", _REF_FAULTS,
           left="recovery.checkpoint.lost_updates",
           right="recovery.restart.lost_updates", op="<"),
    _claim("faults", "replication_degrades_gracefully",
           "replication-based architectures recover crashed keys from "
           "surviving replicas: less lost work and at most the classic "
           "PS's quality drop",
           "all_true", _REF_FAULTS,
           paths=["graceful.checks.replication_smaller_drop",
                  "graceful.checks.replication_less_lost_work",
                  "graceful.checks.replicas_used"]),
]

# --- Elastic membership (live scaling; beyond the paper) ------------------
_REF_ELASTIC = "Elastic membership (beyond the paper; see BENCH_elastic.json)"
CLAIMS += [
    _claim("elastic", "autoscale_storm_completes",
           "every architecture completes training under the autoscale-storm "
           "preset (sustained node joins and planned leaves) at every swept "
           "churn rate",
           "all_true", _REF_ELASTIC,
           paths=["checks.all_complete_storm"]),
    _claim("elastic", "split_brain_completes",
           "every architecture completes training through a network "
           "partition: the minority degrades, the majority defers, the heal "
           "reconciles",
           "all_true", _REF_ELASTIC,
           paths=["checks.all_complete_split_brain"]),
    _claim("elastic", "planned_scale_in_loses_nothing",
           "a planned scale-in drains buffered state before leaving and "
           "loses exactly zero acknowledged updates",
           "threshold", _REF_ELASTIC,
           path="checks.planned_lost_updates", op="<=", value=0),
    _claim("elastic", "crash_recovery_loses_work",
           "the unplanned baseline: a crash with the same cadence measurably "
           "loses acknowledged updates (the contrast is not vacuous)",
           "threshold", _REF_ELASTIC,
           path="checks.crash_lost_updates", op=">", value=0),
    _claim("elastic", "rebalance_converges",
           "incremental rebalancing converges: after repeated scale-outs no "
           "node owns more than twice the ideal (uniform) key share",
           "threshold", _REF_ELASTIC,
           path="checks.worst_balance_ratio", op="<=", value=2.0),
]
for _system in ("classic", "lapse", "essp", "nups"):
    CLAIMS += [
        _claim("elastic", f"{_system}.degradation_bounded",
               f"{_system}: a minority partition degrades final quality by "
               "at most 0.05 vs the healthy run (bounded-staleness reads + "
               "buffered writes, nothing dropped)",
               "threshold", _REF_ELASTIC,
               path=f"degradation.{_system}.quality_drop",
               op="<=", value=0.05),
    ]

# --- Adaptive management (dynamic switching; the paper's future work) -----
_REF_ADPT = "Adaptive management (extends Section 3.2; see BENCH_adaptive.json)"
CLAIMS += [
    _claim("adaptive", "drift.adaptive_recovers",
           "after hot-set drift with no oracle signal, adaptive NuPS "
           "recovers >= 95% of the oracle-remanaged post-drift performance",
           "threshold", _REF_ADPT,
           path="drift.recovery.adaptive", op=">=", value=0.95),
    _claim("adaptive", "drift.static_does_not_recover",
           "static NuPS with a stale plan stays below 95% of the "
           "oracle-remanaged post-drift performance",
           "threshold", _REF_ADPT,
           path="drift.recovery.static", op="<", value=0.95),
    _claim("adaptive", "drift.quality_recovered",
           "adaptive NuPS reaches >= 95% of the oracle-remanaged final "
           "model quality",
           "threshold", _REF_ADPT,
           path="drift.quality_ratio.adaptive", op=">=", value=0.95),
    _claim("adaptive", "drift.controller_adapted",
           "recovery came from online adaptation: the controller issued "
           "at least one re-management transition",
           "threshold", _REF_ADPT,
           path="drift.adaptations", op=">=", value=1),
    _claim("adaptive", "stationary.time_within_noise",
           "on a stationary workload adaptive NuPS matches static NuPS's "
           "run time within 5%",
           "bracket", _REF_ADPT,
           path="stationary.time_ratio", lo=0.95, hi=1.05),
    _claim("adaptive", "stationary.quality_within_noise",
           "on a stationary workload adaptive NuPS matches static NuPS's "
           "final quality within the workload's seed-level noise (~+-40% "
           "relative MRR at bench scale)",
           "bracket", _REF_ADPT,
           path="stationary.quality_ratio", lo=0.8, hi=1.25),
    _claim("adaptive", "storm.controller_adapts",
           "under the storm preset (drift + stragglers + churn + degrading "
           "network) the controller keeps issuing transitions",
           "threshold", _REF_ADPT,
           path="storm.adaptations", op=">=", value=1),
    _claim("adaptive", "storm.adaptive_beats_static",
           "under the storm preset adaptive NuPS finishes no later than "
           "static NuPS (stale plans cost time even amid compound "
           "perturbations)",
           "threshold", _REF_ADPT,
           path="storm.time_ratio_adaptive_vs_static", op="<=", value=1.0),
]

# --- Sparse storage at scale (beyond the paper) ---------------------------
_REF_SCALE = "Sparse chunked storage (beyond the paper; see BENCH_scale.json)"
CLAIMS += [
    _claim("scale", "dense_sparse_bit_identical",
           "the sparse chunked backend reproduces the dense oracle bit for "
           "bit: simulated clocks, metrics and model quality are identical "
           "for every PS architecture",
           "all_true", _REF_SCALE,
           paths=["checks.equivalence_all_identical"]),
    _claim("scale", "sweep_under_budget",
           "every cell of the keys x nodes x skew sweep completes with "
           "resident per-node state under its stated memory budget",
           "all_true", _REF_SCALE,
           paths=["checks.cells_completed", "checks.cells_under_budget"]),
    _claim("scale", "headline_hundred_million_keys",
           "the sparse backend runs 10^8 logical keys",
           "threshold", _REF_SCALE,
           path="checks.headline_keys", op=">=", value=100_000_000),
    _claim("scale", "headline_eight_nodes",
           "the headline cell runs on at least 8 nodes",
           "threshold", _REF_SCALE,
           path="checks.headline_nodes", op=">=", value=8),
    _claim("scale", "headline_all_architectures_fit",
           "at the headline cell every PS architecture (classic, relocation, "
           "replication, NuPS) stays under the budget",
           "all_true", _REF_SCALE,
           paths=["checks.headline_under_budget"]),
    _claim("scale", "dense_cannot_fit",
           "dense per-node state provably cannot fit: even the leanest "
           "architecture's dense layout needs >= 4x the entire stated budget",
           "threshold", _REF_SCALE,
           path="checks.dense_to_budget_ratio", op=">=", value=4.0),
    _claim("scale", "rss_below_dense_requirement",
           "the whole benchmark process peaked below what the dense layout "
           "alone would require",
           "all_true", _REF_SCALE,
           paths=["checks.rss_below_dense_required"]),
]

# --- Observability layer (engineering appendix) ---------------------------
_REF_OBS = "Observability layer (beyond the paper; see BENCH_obs.json)"
CLAIMS += [
    _claim("obs", "all_architectures_traced",
           "every PS architecture produces a non-empty trace (spans and "
           "periodic samples) when telemetry is on",
           "all_true", _REF_OBS,
           paths=[f"architectures.{system}.{field}"
                  for system in ("single-node", "classic", "lapse",
                                 "essp", "nups")
                  for field in ("trace_spans", "trace_samples")]),
    _claim("obs", "telemetry_bit_identical",
           "telemetry is a pure observer: clocks, per-epoch metric deltas "
           "and quality trajectories are bit-identical with telemetry off, "
           "on, and at detail level (re-checked on every run)",
           "all_true", _REF_OBS,
           paths=["checks.telemetry_bit_identical"]),
    _claim("obs", "overhead_within_ceiling",
           "default-level telemetry (spans, subsystem events, samples; no "
           "per-access events) costs <= 5% wall clock, geomean across "
           "architectures",
           "threshold", _REF_OBS,
           path="overhead.geomean_on", op="<=", value=1.05),
]


_seen = set()
for _c in CLAIMS:
    if _c.claim_id in _seen:  # pragma: no cover - registry sanity
        raise ValueError(f"duplicate claim id {_c.claim_id}")
    _seen.add(_c.claim_id)
del _seen, _c, _task
