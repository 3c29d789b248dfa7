"""The repository's benchmark: five workloads, end-to-end and per-layer numbers.

``BENCHMARK.json`` at the root of the repository is the contract (command,
workloads, metric names, bounds); ``README.md`` next to this file explains
the metrics and how they interact. Nothing here imports from ``benchmarks/``,
and the program is reached only through its public entry points.
"""

#: One thread: the reference host has two cores and BLAS threads add noise.
#: Set before NumPy is imported, recorded in the host envelope.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
