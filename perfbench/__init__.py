"""Host-time benchmark of the simulator: workloads, pins and a traced pass.

Run it with ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``perfbench/README.md`` describes
the workloads, the metrics and the known failures the benchmark counts.
"""
