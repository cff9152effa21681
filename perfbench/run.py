"""motortemp benchmark: one workload, one seed, one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 36 --trace 0

Workloads (see README.md for why each exists):

    train   train_grouped at the paper shape, vanilla/attention/bilstm in turn
    score   build_dataset + evaluate at batch 256, each variant, then
            closed-loop batch-1 predictions of the attention model

Every measurement runs in a fresh worker process (``worker.py``) started
from here, with BLAS threads pinned to the CPUs this process may use.  With
``--trace 0`` WORKERS workers run one after another, each set up on its
own and given an equal share of ``--seconds``; set-up time is their median
and throughput the median over all their rounds.  The line printed last
holds the end-to-end metrics.  With ``--trace 1`` one untraced worker runs
first and a traced one repeats exactly its rounds; the printed metrics are
per layer, plus the tracing overhead (traced minus untraced wall time of
those rounds).

Everything a run writes stays under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train", "score")
VARIANTS = ("vanilla", "attention", "bilstm")
WORKERS = 3
RUN_LIMIT_S = 170  # every worker of one run must have ended by then
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

UNITS = {"setup_s": "s", "peak_rss_mb": "MB"}
UNITS.update({f"windows_per_s.{v}": "1/s" for v in VARIANTS})


class BenchError(RuntimeError):
    pass


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(threads)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, env, out_dir, tag, **flags) -> dict:
    """Run one worker to completion and return its result record.  ``flags``
    are passed on as worker options (``seconds`` defaults to the run's)."""
    result = os.path.join(out_dir, f"{tag}.json")
    log = os.path.join(out_dir, f"{tag}.log")
    if os.path.exists(result):
        os.remove(result)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", os.path.join(out_dir, tag), "--result", result,
           "--spawned-at", repr(time.monotonic())]
    flags.setdefault("seconds", args.seconds)
    for key, value in flags.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    with open(log, "w") as fh:
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, args.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"{tag}: worker timed out; see {log}")
    if code != 0 or not os.path.exists(result):
        with open(log) as fh:
            tail = fh.read()[-3000:]
        raise BenchError(f"{tag}: worker exited {code}; last output:\n{tail}")
    with open(result) as fh:
        return json.load(fh)


def percentiles(seconds):
    """Median and the highest of p90/p99 that has at least ten samples
    beyond it, in milliseconds, with the sample count."""
    ms = sorted(1e3 * s for s in seconds)
    n = len(ms)
    out = {"n": n, "p50": statistics.median(ms)}
    for p in (90, 99):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(ms, n=100)[p - 1]
    return out


def env_differences(env: dict) -> dict:
    with open(os.path.join(HERE, "baseline_env.json")) as fh:
        base = json.load(fh)
    return {k: {"baseline": base.get(k), "this_run": env.get(k)}
            for k in sorted(set(base) | set(env)) if base.get(k) != env.get(k)}


def end_to_end(args, env, out_dir):
    """WORKERS fresh processes, each set up on its own and given an equal
    share of the time.  Worker k starts its rounds with variant k, so no
    variant always runs first."""
    runs = []
    for k in range(WORKERS):
        variants = ",".join(VARIANTS[k:] + VARIANTS[:k])
        runs.append(spawn(args, env, out_dir, f"worker{k}", variants=variants,
                          seconds=args.seconds / WORKERS))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {"setup_s": statistics.median(r["setup_s"] for r in runs),
               "peak_rss_mb": peak_kb / 1024}
    for v in VARIANTS:
        metrics[f"windows_per_s.{v}"] = statistics.median(
            x for r in runs for x in r["samples"][v])
    merged = {
        "environment": runs[-1]["environment"],
        "rounds": sum(r["rounds"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "problems": [p for r in runs for p in r["problems"]],
        "details": merge_details([r["details"] for r in runs]),
    }
    return metrics, {k: UNITS[k] for k in metrics}, merged, {"workers": runs}


def merge_details(details: list) -> dict:
    latency = [x for d in details for x in d.get("online_latency_s", [])]
    return {"online_latency_ms": percentiles(latency)} if latency else {}


def traced(args, env, out_dir):
    base = spawn(args, env, out_dir, "untraced")
    run = spawn(args, env, out_dir, "traced", trace=1, rounds=base["rounds"])
    layer = dict(run["layer"])
    layer["trace.overhead_s"] = (run["measured_s"] - base["measured_s"], "s")
    metrics = {k: v for k, (v, _) in layer.items()}
    units = {k: u for k, (_, u) in layer.items()}
    both = dict(run)
    both["attempted"] = base["attempted"] + run["attempted"]
    both["failed"] = base["failed"] + run["failed"]
    both["problems"] = base["problems"] + run["problems"]
    both["details"] = merge_details([run["details"]])
    record = {"untraced": base, "traced": run}
    return metrics, units, both, record


def report(args, metrics, units, run, record):
    """Human-readable lines; the JSON result line is printed by main()."""
    env = run["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {run['rounds']}  nproc {env['nproc']}  "
          f"BLAS {env['blas']} x{env['blas_threads']}")
    for name in sorted(metrics):
        print(f"  {name:<44} {metrics[name]:>14.6g} {units[name]}")
    details = run.get("details", {})
    if args.workload == "score":
        p = details["online_latency_ms"]
        tail = "  ".join(f"{k} {p[k]:.3f} ms" for k in ("p50", "p90", "p99") if k in p)
        print(f"  online (attention, batch 1) latency {tail}  (n={p['n']})")
    if args.trace:
        print_layer_table(metrics, record["traced"])
    print(f"  operations attempted {run['attempted']}  failed {run['failed']}")
    for problem in run["problems"][:5]:
        print(f"  FAILED: {problem}")


def print_layer_table(m, traced_run):
    print("  per variant (paper shape: batch 256, window 180, 65 channels, hidden 100)")
    print(f"  {'variant':<10} {'predict':>9} {'taped fwd':>10} {'backward':>9} "
          f"{'Adam':>7} {'step':>9} {'tape MB':>8} {'nodes':>6} {'b1 predict':>10}")
    for v in VARIANTS:
        print(f"  {v:<10} {m[f'models.predict_ms.{v}']:7.1f}ms "
              f"{m[f'models.taped_forward_ms.{v}']:8.1f}ms "
              f"{m[f'autodiff.backward_ms.{v}']:7.1f}ms "
              f"{m[f'training.adam_ms.{v}']:5.1f}ms "
              f"{m[f'training.step_ms.{v}']:7.1f}ms "
              f"{m[f'autodiff.tape_mb_per_step.{v}']:8.1f} "
              f"{m[f'autodiff.tape_nodes_per_step.{v}']:6.0f} "
              f"{m[f'models.predict_b1_ms.{v}']:8.2f}ms")
    print("  self time per layer: " + "  ".join(
        f"{k.split('.', 1)[1]} {m[k]:.3f}s" for k in sorted(m) if k.startswith("self_s.")))
    print(f"  taped forward + backward + Adam are "
          f"{100 * traced_run['step_share']:.1f}% of train_grouped wall time")
    if traced_run["probed"]:
        print(f"  from a probe after the workload: {', '.join(traced_run['probed'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time budget of the timed rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    args.deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join("src", "motortemp", "__init__.py")):
        print("perfbench: run from the root of a motortemp checkout "
              "(src/motortemp not found)", file=sys.stderr)
        return 2
    out_dir = os.path.join(os.getcwd(), ".bench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    threads = len(os.sched_getaffinity(0))
    env = worker_env(threads)
    try:
        measure = traced if args.trace else end_to_end
        metrics, units, run, record = measure(args, env, out_dir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    differs = env_differences(run["environment"])
    summary = {
        "correct": run["failed"] == 0 and not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": run["environment"],
                   "environment_differs_from_baseline": differs,
                   "summary": summary, "runs": record}, fh, indent=1, sort_keys=True)
    report(args, metrics, units, run, record)
    if differs:
        print(f"  WARNING: environment differs from perfbench/baseline_env.json: {differs}")
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
