"""The repository benchmark: tuning latency and front quality.

Run it from the repository root::

    python3 perfbench/run.py --workload tune --seed 1 --seconds 24 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the map from
each per-layer metric to the end-to-end metric it should move.
"""
