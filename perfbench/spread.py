"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload wire-q6 --seeds 1-10 \\
        [--seconds 30] [--out spread.json]

Runs ``run.py`` once per seed (one after another, never concurrently),
then reports for every metric the median, the quartiles and the
interquartile distance as a share of the median, next to the bound
``BENCHMARK.json`` fixes for it.  A spread under a third of its bound
is steady; ``setup_s`` has no spread bound, only a median bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.stats import spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, sep, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if sep else \
        [int(x) for x in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2].split(" ", 1)[1])
        runs.append({"seed": seed, "result": result,
                     "environment": detail.get("environment")})
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
        ), file=sys.stderr)

    report = {"workload": args.workload, "seconds": seconds,
              "metrics": {}, "runs": runs}
    for name in runs[0]["result"]["metrics"]:
        s = spread([r["result"]["metrics"][name]["value"] for r in runs])
        s["bound"] = bounds.get(name)
        report["metrics"][name] = s
        flag = ""
        if name != "setup_s":
            flag = "steady" if s["iqr_share"] < s["bound"] / 3 else "NOISY"
        print(f"{name:22s} median={s['median']:.4g} "
              f"iqr/median={s['iqr_share']:.3f} bound={s['bound']} {flag}")
    report["all_correct"] = all(r["result"]["correct"] for r in runs)
    print(f"all correct: {report['all_correct']}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
