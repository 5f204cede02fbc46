"""The repository benchmark: four workloads, end-to-end metrics, per-layer trace.

See ``perf/README.md``.  Everything the contract in ``BENCHMARK.json`` names
lives under this directory and is frozen for later changes; it imports the
program under ``src/`` only through the names listed in
``perf/api_surface.txt``.
"""
