"""Documentation audit: public modules and core APIs carry real docstrings.

The repository's convention (see DESIGN.md) is that every public module in
``src/repro/`` opens with a module docstring that situates it in the paper
— which section/figure it implements, or which engineering concern it
serves — and that the two central interfaces (``TrainingTask``,
``ParameterServer``) document every public method. This test keeps the
convention machine-enforced so new modules cannot silently drop it.
"""

import ast
import importlib.util
import inspect
import re
from collections import Counter
from pathlib import Path

import pytest

from repro.ml.task import TrainingTask
from repro.ps.base import ParameterServer

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

#: A docstring shorter than this is a placeholder, not documentation.
MIN_MODULE_DOCSTRING = 40

PUBLIC_MODULES = sorted(
    path for path in SRC_ROOT.rglob("*.py")
    if not any(part.startswith("_") and part not in ("__init__.py", "__main__.py")
               for part in path.relative_to(SRC_ROOT).parts)
)


@pytest.mark.parametrize(
    "path", PUBLIC_MODULES,
    ids=[str(p.relative_to(SRC_ROOT)) for p in PUBLIC_MODULES])
def test_public_module_has_a_real_docstring(path):
    docstring = ast.get_docstring(ast.parse(path.read_text()))
    assert docstring, f"{path} has no module docstring"
    assert len(docstring) >= MIN_MODULE_DOCSTRING, (
        f"{path} has a placeholder docstring ({len(docstring)} chars); "
        "say what paper section/figure or engineering concern it implements"
    )


def public_methods(cls):
    for name, member in sorted(vars(cls).items()):
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            yield name, member.fget
        elif inspect.isfunction(member):
            yield name, member


@pytest.mark.parametrize("cls", [TrainingTask, ParameterServer],
                         ids=lambda cls: cls.__name__)
def test_core_interface_methods_are_documented(cls):
    missing = [name for name, func in public_methods(cls)
               if not inspect.getdoc(func)]
    assert not missing, (
        f"{cls.__name__} public methods without docstrings: {missing}"
    )


def test_interfaces_themselves_are_documented():
    for cls in (TrainingTask, ParameterServer):
        assert inspect.getdoc(cls)


# --------------------------------------------------------- import hygiene
#: ``ruff check .`` (pyflakes F401) is what CI runs; ruff is not installed
#: in every development container, so the same rule is enforced here.
REPO_ROOT = SRC_ROOT.parents[1]
LINTED_FILES = sorted(
    path
    for top in ("src", "tests", "benchmarks", "examples")
    for path in (REPO_ROOT / top).rglob("*.py")
    if path.name != "__init__.py"  # packages re-export through imports
)


def _annotation_strings(tree):
    """String constants in annotation position (``Optional["Scenario"]``)."""
    for node in ast.walk(tree):
        for field in ("annotation", "returns"):  # arguments, x: T, -> T
            annotation = getattr(node, field, None)
            if annotation is not None:
                for child in ast.walk(annotation):
                    if isinstance(child, ast.Constant) \
                            and isinstance(child.value, str):
                        yield child.value


def unused_imports(path):
    """``(line, name)`` of every import binding the module never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for text in _annotation_strings(tree):
        try:
            used |= {node.id for node in ast.walk(ast.parse(text, mode="eval"))
                     if isinstance(node, ast.Name)}
        except SyntaxError:
            pass
    for node in ast.walk(tree):  # names exported through ``__all__``
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*" and bound not in used:
                unused.append((node.lineno, bound))
    return unused


def test_no_unused_imports():
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{line}: {name} imported but unused"
        for path in LINTED_FILES for line, name in unused_imports(path)
    ]
    assert not offenders, "\n".join(offenders)


# ------------------------------------------------------- dead definitions
def _names_used(tree):
    """Every identifier ``tree`` reads, calls, accesses or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def _parsed_trees():
    """``{path: tree}`` of every Python file in src, tests, benchmarks,
    examples and perfbench."""
    return {path: ast.parse(path.read_text())
            for top in ("src", "tests", "benchmarks", "examples", "perfbench")
            for path in (REPO_ROOT / top).rglob("*.py")}


def test_every_definition_is_named_outside_itself():
    """No function, method or class of ``src/repro`` is unreferenced code.

    A definition counts as used when its name occurs anywhere in src, tests,
    benchmarks, examples or perfbench other than inside its own body
    (dunder methods are called by the language).
    """
    trees = _parsed_trees()
    used = Counter(name for tree in trees.values() for name in _names_used(tree))
    dead = [
        f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {node.name}"
        for path, tree in trees.items() if SRC_ROOT in path.parents
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and used[node.name] == sum(n == node.name for n in _names_used(node))
    ]
    assert not dead, "defined but never used:\n" + "\n".join(dead)


def test_no_write_only_attribute():
    """No attribute assigned on ``self`` in ``src/repro`` goes unread.

    A read is an attribute load or a string constant (``getattr``, slots,
    ``vars()`` keys) anywhere in src, tests, benchmarks, examples or
    perfbench; ``+=`` is a store. State that is only ever written is dead
    weight on every object that carries it.
    """
    trees = _parsed_trees()
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    write_only = sorted({
        f"{path.relative_to(REPO_ROOT)}:{node.lineno}: self.{node.attr}"
        for path, tree in trees.items() if SRC_ROOT in path.parents
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
        and node.attr not in read
    })
    assert not write_only, "assigned but never read:\n" + "\n".join(write_only)


# ------------------------------------------------------- delegating wrappers
def test_one_delegating_wrapper():
    """At most one class of ``src/repro`` forwards unknown attributes.

    Everything that sits between the workers and a parameter server is one
    interposer (:mod:`repro.scenarios.interposer`); a second class with a
    ``__getattr__`` is a second hand-written delegating wrapper.
    """
    delegating = sorted(
        f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {node.name}"
        for path, tree in _parsed_trees().items() if SRC_ROOT in path.parents
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        and any(isinstance(member, ast.FunctionDef)
                and member.name == "__getattr__" for member in node.body)
    )
    assert len(delegating) <= 1, \
        "more than one delegating wrapper:\n" + "\n".join(delegating)


# ---------------------------------------------------------- point chargers
CHARGE_CHUNK_ARGS = ["self", "worker", "keys", "calls"]


def test_one_charging_method():
    """Every point charger has one charging method with one signature.

    A chunk is a call list — per call its kind, its key span and the
    compute charge after it — and a single ``pull``/``push`` is a one-call
    chunk, so no class of ``src/repro`` defines a second method for a kind
    of chunk (``charge_sampling_chunk``), and every ``charge_chunk`` takes
    the call list.
    """
    offenders = []
    chargers = 0
    for path, tree in _parsed_trees().items():
        if SRC_ROOT not in path.parents:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                where = f"{path.relative_to(REPO_ROOT)}:{member.lineno}: " \
                    f"{node.name}.{member.name}"
                if member.name == "charge_sampling_chunk":
                    offenders.append(where)
                elif member.name == "charge_chunk":
                    chargers += 1
                    args = [arg.arg for arg in member.args.args]
                    if args != CHARGE_CHUNK_ARGS or member.args.vararg \
                            or member.args.kwarg or member.args.kwonlyargs:
                        offenders.append(f"{where}({', '.join(args)})")
    assert chargers >= 6, "the point chargers were not found"
    assert not offenders, "\n".join(offenders)


def test_only_the_interposer_defines_a_per_call_charger():
    """Every PS charges through its fold; the one charger that issues a
    chunk step's calls one by one through a PS is the scenario
    interposer's, for the rounds in which a gate can fire.

    A per-call charger is a class with a ``charge_chunk`` whose methods call
    a ``pull``, ``pull_sample``, ``push`` or ``push_sample``. Only
    ``scenarios/interposer.py`` defines one, in any tree (the oracle of
    ``tests/scalar_oracle.py`` runs per-call loops, not a charger).
    """
    per_call = {"pull", "pull_sample", "push", "push_sample"}
    found = []
    for path, tree in _parsed_trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or not any(
                    isinstance(member, ast.FunctionDef)
                    and member.name == "charge_chunk" for member in node.body):
                continue
            if any(isinstance(call, ast.Call)
                   and isinstance(call.func, ast.Attribute)
                   and call.func.attr in per_call for call in ast.walk(node)):
                found.append(f"{path.relative_to(REPO_ROOT)}: {node.name}")
    assert found == ["src/repro/scenarios/interposer.py: PerCallCharger"]


def test_tasks_write_one_chunk_step():
    """A task writes its chunk once, as ``step_chunk`` against a charger.

    No ``TrainingTask`` subclass of ``src/repro`` defines ``process_chunk``
    or ``process_round`` (the base class runs the step over the charger the
    PS hands out), and only the runner names ``sequential_process_round``
    (its degraded rounds, item by item).
    """
    trees = {path: tree for path, tree in _parsed_trees().items()
             if SRC_ROOT in path.parents}
    classes = {node.name: node for tree in trees.values()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    tasks = {"TrainingTask"}
    grown = True
    while grown:
        grown = False
        for name, node in classes.items():
            bases = {getattr(base, "id", getattr(base, "attr", None))
                     for base in node.bases}
            if name not in tasks and bases & tasks:
                tasks.add(name)
                grown = True
    offenders = [
        f"{name}.{member.name}"
        for name in sorted(tasks - {"TrainingTask"})
        for member in classes[name].body
        if isinstance(member, ast.FunctionDef)
        and member.name in ("process_chunk", "process_round")
    ]
    assert len(tasks) >= 4, "the tasks were not found"
    offenders += [
        f"{path.relative_to(REPO_ROOT)}: sequential_process_round"
        for path in trees if path != SRC_ROOT / "runner" / "experiment.py"
        and "sequential_process_round" in path.read_text()
    ]
    assert not offenders, "\n".join(offenders)


def test_no_scalar_reference_in_src():
    """The per-key scalar reference lives in ``tests/scalar_oracle.py``:
    no module of ``src/repro`` names ``batch_charging`` or defines a
    ``*_scalar`` function or method."""
    offenders = []
    for path, tree in _parsed_trees().items():
        if SRC_ROOT not in path.parents:
            continue
        if "batch_charging" in path.read_text():
            offenders.append(f"{path.relative_to(REPO_ROOT)}: batch_charging")
        offenders += [
            f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {node.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.endswith("_scalar")
        ]
    assert not offenders, "\n".join(offenders)


def test_schemes_choose_keys_only():
    """A sampling scheme selects keys and charges nothing: ``schemes.py``
    names neither ``pull_keys`` nor ``PullResult``, and no scheme defines
    ``pull`` (the host charges what ``select`` chose)."""
    path = SRC_ROOT / "core" / "sampling" / "schemes.py"
    text = path.read_text()
    offenders = [name for name in ("pull_keys", "PullResult")
                 if re.search(rf"\b{name}\b", text)]
    classes = [node for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.ClassDef)]
    assert any(node.name == "SamplingScheme" for node in classes), \
        "the schemes were not found"
    offenders += [f"{node.name}.pull" for node in classes
                  for member in node.body
                  if isinstance(member, ast.FunctionDef)
                  and member.name == "pull"]
    assert not offenders, "\n".join(offenders)


# ------------------------------------------------------------ metric counters
def test_metric_writers_take_no_node():
    """Every reader wants cluster-wide counts, so a counter has one value:
    no method of ``MetricsRegistry`` and no adder of ``RoundAccounting``
    takes a node."""
    from repro.ps.rounds import RoundAccounting
    from repro.simulation.metrics import MetricsRegistry

    methods = [
        *(member for _, member in inspect.getmembers(
            MetricsRegistry, inspect.isfunction)),
        RoundAccounting.add_access, RoundAccounting.add_counter,
    ]
    assert len(methods) >= 8, "the metric writers were not found"
    offenders = [
        f"{method.__qualname__}{inspect.signature(method)}"
        for method in methods
        if any("node" in name for name in inspect.signature(method).parameters)
    ]
    assert not offenders, "\n".join(offenders)


def test_no_per_node_counters():
    """Neither ``src/repro`` nor the scalar oracle keeps per-node counters
    (``_per_node``) beside the cluster-wide ones."""
    paths = [*sorted(SRC_ROOT.rglob("*.py")),
             REPO_ROOT / "tests" / "scalar_oracle.py"]
    offenders = [str(path.relative_to(REPO_ROOT)) for path in paths
                 if re.search(r"\b_per_node\b", path.read_text())]
    assert not offenders, "\n".join(offenders)


# ------------------------------------------------------ membership transitions
MEMBERSHIP_MODULE = SRC_ROOT / "faults" / "controller.py"
#: The parameter server's membership hooks: all the membership controller
#: asks of an architecture.
MEMBERSHIP_HOOKS = {"keys_owned_by", "_rehome", "recover_values",
                    "on_node_arrived", "release_node"}
OWNERSHIP_TRANSITIONS = {"fail", "leave", "join", "restore"}


def test_one_module_knows_the_transition_order():
    """Outside ``repro/ps``, only the membership controller's module names
    ``partitioner.fail``/``leave``/``join``/``restore`` or ``_rehome``: one
    module orders every crash, restore, join and leave."""
    offenders = sorted(
        f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {node.attr}"
        for path, tree in _parsed_trees().items()
        if SRC_ROOT in path.parents and path != MEMBERSHIP_MODULE
        and SRC_ROOT / "ps" not in path.parents
        for node in ast.walk(tree) if isinstance(node, ast.Attribute)
        and (node.attr == "_rehome"
             or node.attr in OWNERSHIP_TRANSITIONS
             and isinstance(node.value, ast.Attribute)
             and node.value.attr == "partitioner")
    )
    assert not offenders, "\n".join(offenders)


def _is_the_ps(node) -> bool:
    """``ps`` or ``self.ps``."""
    if isinstance(node, ast.Name):
        return node.id == "ps"
    return isinstance(node, ast.Attribute) and node.attr == "ps" \
        and isinstance(node.value, ast.Name) and node.value.id == "self"


def test_membership_hooks_are_pinned():
    """The PS methods the membership controller calls are exactly
    :data:`MEMBERSHIP_HOOKS`, each defined on ``ParameterServer``; a new
    per-architecture hook is a deliberate change of this list."""
    tree = ast.parse(MEMBERSHIP_MODULE.read_text())
    called = {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and _is_the_ps(node.value)}
    assert called - {"store", "partitioner", "cluster"} == MEMBERSHIP_HOOKS
    for hook in MEMBERSHIP_HOOKS:
        assert hook in vars(ParameterServer), hook


# ------------------------------------------------------ configuration surface
#: Every ``*Config`` dataclass of ``src/repro`` and its fields, in order: 27
#: settable values. A new knob is a deliberate change of this table.
CONFIG_FIELDS = {
    "AdaptiveConfig": ("policy", "top_k", "period", "half_life",
                       "warmup_observations"),
    "ClusterConfig": ("num_nodes", "workers_per_node", "network"),
    "ExperimentConfig": ("cluster", "epochs", "chunk_size", "seed",
                         "scenario", "storage", "telemetry"),
    "FaultConfig": ("recovery", "checkpoint_interval"),
    "SamplingConfig": ("scheme_config", "scheme_override"),
    "SchemeConfig": ("pool_size", "use_frequency"),
    "StorageConfig": ("backend", "chunk_rows", "store_budget_bytes",
                      "node_budget_bytes"),
    "TelemetryConfig": ("path", "access_events"),
}
#: Each system builder's keyword-only parameters (its overrides), by system
#: name; ``**nups`` marks a wrapper that forwards the rest to ``build_nups``.
BUILDER_PARAMETERS = {
    "single-node": (),
    "classic": (),
    "ssp": (),
    "essp": (),
    "lapse": (),
    "nups": ("plan", "pool_size", "use_frequency", "scheme_override",
             "sync_interval", "integrate_sampling"),
    "nups-tuned": ("plan", "scheme_override", "**nups"),
    "nups-adaptive": ("adaptive_config", "**nups"),
    "relocation+replication": ("integrate_sampling", "**nups"),
    "relocation+sampling": ("plan", "**nups"),
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any((isinstance(d, ast.Name) and d.id == "dataclass")
               or (isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                   and d.func.id == "dataclass")
               for d in node.decorator_list)


def test_config_fields_are_pinned():
    """The fields of every ``*Config`` dataclass are exactly
    :data:`CONFIG_FIELDS`."""
    found = {
        node.name: tuple(item.target.id for item in node.body
                         if isinstance(item, ast.AnnAssign))
        for path, tree in _parsed_trees().items() if SRC_ROOT in path.parents
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name.endswith("Config")
        and _is_dataclass(node)
    }
    assert found == CONFIG_FIELDS
    assert sum(map(len, found.values())) == 27


def test_builder_parameters_are_pinned():
    """Each system builder takes ``(store, cluster, task)`` positionally and
    exactly the keyword-only parameters of :data:`BUILDER_PARAMETERS`, so
    an override it does not declare raises ``TypeError``."""
    from repro.runner.systems import SYSTEM_BUILDERS

    found = {}
    for name, builder in SYSTEM_BUILDERS.items():
        parameters = list(inspect.signature(builder).parameters.values())
        assert [p.name for p in parameters[:3]] == ["store", "cluster", "task"]
        found[name] = tuple(
            f"**{p.name}" if p.kind is p.VAR_KEYWORD else p.name
            for p in parameters[3:])
        assert all(p.kind in (p.KEYWORD_ONLY, p.VAR_KEYWORD)
                   for p in parameters[3:]), name
    assert found == BUILDER_PARAMETERS
    overrides = {p for names in found.values() for p in names
                 if not p.startswith("**")}
    assert len(overrides) == 7


# ------------------------------------------------------------ perturbations
#: Each perturbation class's parameters: every one is set by a benchmark,
#: an example or a preset; what only tests set is a constant.
PERTURBATION_PARAMETERS = {
    "HotSetDrift": ("at", "oracle_remanage"),
    "Stragglers": ("severity",),
    "WorkerChurn": ("fraction", "pause_at_round"),
    "NetworkDegradation": ("steps",),
    "ServerCrashes": ("crashes_per_epoch", "fault_config", "epochs"),
    "ScaleIn": ("at_epoch",),
    "AutoscaleStorm": ("period_rounds",),
    "NetworkPartition": (),
}
#: Each preset's keywords: the parameters of its one perturbation class
#: (named), or its own.
PRESET_KEYWORDS = {
    "drift": "HotSetDrift",
    "stragglers": "Stragglers",
    "churn": "WorkerChurn",
    "degrading-network": "NetworkDegradation",
    "storm": ("oracle_remanage",),
    "crash-storm": "ServerCrashes",
    "scale-in": "ScaleIn",
    "autoscale-storm": "AutoscaleStorm",
    "split-brain": "NetworkPartition",
}


def test_perturbation_surface_is_pinned():
    """The perturbation classes' parameters and the presets' keywords are
    exactly :data:`PERTURBATION_PARAMETERS` and :data:`PRESET_KEYWORDS`:
    12 settable values."""
    from repro.scenarios import SCENARIO_PRESETS, Perturbation, perturbations

    found = {
        name: tuple(inspect.signature(cls).parameters)
        for name, cls in vars(perturbations).items()
        if isinstance(cls, type) and issubclass(cls, Perturbation)
        and cls is not Perturbation
    }
    assert found == PERTURBATION_PARAMETERS
    presets = {
        name: build.__name__ if isinstance(build, type)
        else tuple(inspect.signature(build).parameters)
        for name, (build, _, _) in SCENARIO_PRESETS.items()
    }
    assert presets == PRESET_KEYWORDS
    own = [keywords for keywords in presets.values()
           if isinstance(keywords, tuple)]
    assert sum(map(len, found.values())) + sum(map(len, own)) == 12


def test_every_perturbation_lives_in_one_module():
    """Every ``Perturbation`` subclass of ``src/repro`` is defined in
    :mod:`repro.scenarios.perturbations`."""
    classes = [(path, node) for path, tree in _parsed_trees().items()
               if SRC_ROOT in path.parents for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    perturbation_classes = {"Perturbation"}
    grew = True
    while grew:
        grew = False
        for _, node in classes:
            bases = {getattr(base, "id", getattr(base, "attr", None))
                     for base in node.bases}
            if node.name not in perturbation_classes \
                    and bases & perturbation_classes:
                perturbation_classes.add(node.name)
                grew = True
    home = SRC_ROOT / "scenarios" / "perturbations.py"
    strays = [f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {node.name}"
              for path, node in classes
              if node.name in perturbation_classes and path != home]
    assert len(perturbation_classes) == len(PERTURBATION_PARAMETERS) + 1
    assert not strays, "perturbations outside their module:\n" + "\n".join(
        strays)


def test_readme_lists_every_preset():
    """The preset table of README.md's scenario section names exactly
    ``SCENARIO_NAMES``, in order."""
    from repro.scenarios import SCENARIO_NAMES

    readme = (REPO_ROOT / "README.md").read_text()
    section = readme.split("\n## Dynamic-workload scenarios\n")[1]
    section = section.split("\n## ")[0]
    listed = re.findall(r"^\| `([a-z-]+)` \|", section, flags=re.MULTILINE)
    assert tuple(listed) == SCENARIO_NAMES


# ------------------------------------------------------------ CHANGES.md
#: Entries of this PR and later ones are capped; older ones predate the cap.
CHANGES_CAP_FROM_PR = 32
CHANGES_MAX_LINES = 10
CHANGES_MAX_BYTES = 2048


def changes_entries(text: str) -> dict:
    """``{pr: entry}`` of CHANGES.md: an entry is a ``- PR <n> ...`` line
    and the indented lines that continue it."""
    entries = {}
    current = None
    for line in text.splitlines():
        match = re.match(r"- PR (\d+)\b", line)
        if match:
            current = int(match.group(1))
            entries[current] = [line]
        elif current is not None and line[:1].isspace() and line.strip():
            entries[current].append(line)
        else:
            current = None
    return {pr: "\n".join(lines) for pr, lines in entries.items()}


def test_changes_entries_are_capped():
    """Every CHANGES.md entry from PR 32 on is at most ten lines and 2 KB."""
    entries = changes_entries((REPO_ROOT / "CHANGES.md").read_text())
    assert len(entries) >= 20, "the CHANGES.md entries were not found"
    capped = {pr: entry for pr, entry in entries.items()
              if pr >= CHANGES_CAP_FROM_PR}
    assert capped, "no entry under the cap"
    too_long = [
        f"PR {pr}: {entry.count(chr(10)) + 1} lines, "
        f"{len(entry.encode())} bytes"
        for pr, entry in capped.items()
        if entry.count("\n") + 1 > CHANGES_MAX_LINES
        or len(entry.encode()) > CHANGES_MAX_BYTES
    ]
    assert not too_long, "\n".join(too_long)


# ------------------------------------------------------- the unclaimed list
#: Why a function no benchmark, claim or CLI path runs may stay in ``src/``.
UNCLAIMED_REASONS = (
    "protocol stub",
    "reference a test compares against",
    "error path",
    "CLI-only",
    "oracle path",
)


def test_unclaimed_list_is_well_formed():
    """Every line of ``tests/data/unclaimed.txt`` is ``module:qualname  #
    reason: detail`` with one of the five reasons, names a function that
    exists in ``src/repro``, and appears once, in sorted order. Whether the
    list is the audit's output is checked in CI, by
    ``benchmarks/audit_unclaimed.py --check`` (minutes, not tier-1)."""
    spec = importlib.util.spec_from_file_location(
        "audit_unclaimed", REPO_ROOT / "benchmarks" / "audit_unclaimed.py")
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    existing = {name for _, _, name in audit.functions()}
    lines = (REPO_ROOT / "tests" / "data" / "unclaimed.txt").read_text() \
        .splitlines()
    names = []
    for line in lines:
        name, _, justification = line.partition("  # ")
        reason = justification.split(":", 1)[0]
        assert reason in UNCLAIMED_REASONS, f"{line!r}: no known reason"
        assert name in existing, f"{name}: not a function of src/repro"
        names.append(name)
    assert names == sorted(set(names)), "entries must be sorted and unique"
    assert len(names) <= 40
