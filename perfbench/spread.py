"""Run-to-run spread of the end-to-end metrics, as the acceptance rule sees it.

    python3 perfbench/spread.py --workloads train score --seeds 1-10

Runs ``run.py`` once per seed and workload (``--seconds`` from
BENCHMARK.json unless given), then prints for each metric the median of the
runs and the distance between the first and third quartiles as a share of
it, next to the metric's bound.  Results are appended to
``.bench_out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(".bench_out", exist_ok=True)

    worst = 0.0
    for workload in args.workloads:
        values: dict = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT {result}", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            with open(os.path.join(".bench_out", "spread.jsonl"), "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "seconds": args.seconds, **result}) + "\n")
        print(f"{workload} ({len(args.seeds)} seeds)")
        for name, vals in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            bound = bounds.get(name)
            if name != "setup_s":
                worst = max(worst, share / bound if bound else 0.0)
            print(f"  {name:<26} median {med:12.4f}  iqr/median {share:7.4f}"
                  f"  bound {bound}  min {min(vals):.4f}  max {max(vals):.4f}")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
