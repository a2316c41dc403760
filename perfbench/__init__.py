"""The repository's benchmark: end-to-end and per-layer measurements.

Run ``python3 perfbench/run.py --workload <match|serve|storm> --seed N
--seconds S --trace <0|1>`` from the repository root; see
``perfbench/README.md`` for the workloads and metric definitions.
"""
