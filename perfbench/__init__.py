"""Open-loop, layer-by-layer serving benchmark for the view service.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` drives the real ``python -m repro serve`` / ``route``
servers as subprocesses and prints one JSON result line.  See
``perfbench/README.md`` for the workloads, metrics and how to read them.
"""
