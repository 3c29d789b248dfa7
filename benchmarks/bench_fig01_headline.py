"""Figure 1: headline comparison on the knowledge graph embeddings task.

The paper's Figure 1 shows model quality (filtered MRR) over run time for a
single node, a classic PS, a replication PS (Petuum), a relocation PS (Lapse)
and NuPS on 8 nodes: the existing PSs fall behind the single node while NuPS
improves on it by a large factor. This benchmark regenerates that series on
the scaled-down synthetic KGE workload.
"""

from common import print_header, result_summary, run_once, run_systems
from repro.analysis.speedup import raw_speedup_from_results
from repro.runner.reporting import quality_over_time_table, summary_table

SYSTEMS = ["single-node", "classic", "essp", "lapse", "nups"]


def _run():
    results = run_systems("kge", SYSTEMS, seed=1)
    print_header("Figure 1 — KGE: model quality over (simulated) run time, 8 nodes")
    print(quality_over_time_table(results))
    print()
    print(summary_table(results))
    print()
    print("Raw speedup over the single node (epoch time):")
    for system, speedup in raw_speedup_from_results(results).items():
        print(f"  {system:12s} {speedup:6.2f}x")
    return results


def run(figure6: dict | None = None) -> dict:
    """Structured Figure 1 results for the reproduction pipeline.

    ``figure6`` is Figure 6's result when the pipeline ran it: its KGE cells
    are these five (same task, systems, seed and configuration), so they
    are read from it instead of being run a second time.
    """
    if figure6 is not None:
        kge = figure6["kge"]
        print_header("Figure 1 — KGE, 8 nodes: read from Figure 6's cells")
        for system in SYSTEMS:
            print(f"  {system:12s} epoch {kge['epoch_time'][system]:.4f} s")
        return {
            "systems": list(SYSTEMS),
            "epoch_time": {s: kge["epoch_time"][s] for s in SYSTEMS},
            "raw_speedup": {s: kge["raw_speedup"][s] for s in SYSTEMS
                            if s != "single-node"},
            "summary": {s: kge["summary"][s] for s in SYSTEMS},
        }
    results = _run()
    return {
        "systems": list(SYSTEMS),
        "epoch_time": {r.system: r.mean_epoch_time() for r in results},
        "raw_speedup": raw_speedup_from_results(results),
        "summary": {r.system: result_summary(r) for r in results},
    }


def test_fig01_headline_kge(benchmark):
    results = run_once(benchmark, _run)

    # Shape assertions mirroring the paper's qualitative claims.
    by_name = {r.system: r for r in results}
    assert by_name["nups"].mean_epoch_time() < by_name["single-node"].mean_epoch_time()
    assert by_name["classic"].mean_epoch_time() > by_name["single-node"].mean_epoch_time()
    assert by_name["nups"].mean_epoch_time() < by_name["lapse"].mean_epoch_time()
    assert by_name["nups"].mean_epoch_time() < by_name["essp"].mean_epoch_time()
