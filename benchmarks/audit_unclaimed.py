"""List the functions of ``src/repro`` that no benchmark, claim or CLI path runs.

Runs the fast reproduction pipeline in this process (one job, sequential
sweeps, so no forked worker loses the calls) and one smoke pass of every
perfbench workload under a profiler that records each code object entered.
Then walks ``src/repro`` with ``ast`` and prints every function and method
that never ran, one ``module:qualname`` a line. The CLI (``cli.py``,
``__main__.py``), the report layer, dunders, ``describe`` and abstract
methods (no body to run) are left out.

Usage::

    PYTHONPATH=src python benchmarks/audit_unclaimed.py
    PYTHONPATH=src python benchmarks/audit_unclaimed.py --check tests/data/unclaimed.txt

``--check FILE`` exits 1 when the uncalled set differs from the names in
``FILE`` (the text before each line's ``#``). Claim verdicts are not gated:
the profiler slows wall-clock claims down. Takes about 8 minutes.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SKIPPED = ("cli.py", "__main__.py", "report")


def run_everything() -> set:
    """Code objects entered by a fast reproduction and a perfbench smoke pass."""
    os.environ["REPRO_BENCH_PARALLEL"] = "0"
    os.environ.pop("REPRO_BENCH_TIMEOUT", None)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)  # before the imports: module bodies call too
    threading.setprofile(profile)
    try:
        from perfbench.workloads import WORKLOADS, run_pass
        from repro.report.pipeline import run_pipeline
        run_pipeline(fast=True, jobs=1)
        for workload in WORKLOADS.values():
            run_pass(workload, seed=0, smoke=True)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return {(os.path.abspath(code.co_filename), code.co_firstlineno)
            for code in seen}


def functions():
    """``(path, first line, "module:qualname")`` of every audited function."""
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE.parent)
        if relative.parts[1] in SKIPPED:
            continue
        module = ".".join(relative.with_suffix("").parts)

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    yield from walk(child, prefix + child.name + ".")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    decorators = child.decorator_list
                    if not any(ast.unparse(decorator).endswith("abstractmethod")
                               for decorator in decorators):
                        first = min([child.lineno]
                                    + [decorator.lineno for decorator in decorators])
                        yield first, prefix + child.name
                    yield from walk(child, prefix + child.name + ".<locals>.")

        for first, qualname in walk(ast.parse(path.read_text()), ""):
            name = qualname.rsplit(".", 1)[-1]
            if not (name.startswith("__") and name.endswith("__")) \
                    and name != "describe":
                yield str(path), first, f"{module}:{qualname}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="FILE",
                        help="exit 1 when the uncalled set differs from FILE")
    args = parser.parse_args(argv)
    called = run_everything()
    uncalled = {name for path, first, name in functions()
                if (path, first) not in called}
    # A function nested in an uncalled one is listed through its parent.
    uncalled = sorted(name for name in uncalled
                      if ".<locals>." not in name
                      or name.rsplit(".<locals>.", 1)[0] not in uncalled)
    print("\n".join(uncalled))
    if args.check is None:
        return 0
    listed = {line.split("#", 1)[0].strip()
              for line in Path(args.check).read_text().splitlines()} - {""}
    for name in sorted(listed - set(uncalled)):
        print(f"listed but called or gone: {name}", file=sys.stderr)
    for name in sorted(set(uncalled) - listed):
        print(f"uncalled but not listed: {name}", file=sys.stderr)
    return int(listed != set(uncalled))


if __name__ == "__main__":
    sys.exit(main())
