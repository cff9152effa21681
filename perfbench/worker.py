"""One workload process: import, set up, run timed operations, check, report.

Started by ``run.py``; not meant to be run by hand.  Everything the process
measures goes into one JSON file (``--result``).  Timed calls go through the
package's public API, looked up on the module at call time so that a traced
run sees the same calls through its wrappers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time

IMPORT_START = time.perf_counter()
import numpy as np  # noqa: E402
import motortemp as mt  # noqa: E402
IMPORT_END = time.perf_counter()

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402

WINDOW = 180
BATCH = 256
VARIANTS = ("vanilla", "attention", "bilstm")
REFERENCE_REL_TOL = 1e-6  # train: final held-out loss vs. the recorded value
LOSS_REL_TOL = 1e-8       # train: logged held-out loss vs. oracle recomputation
HERE = os.path.dirname(os.path.abspath(__file__))


def _frame_head(frame, n):
    return mt.ProfileFrame(frame.profile_id,
                           {k: v[:n] for k, v in frame.columns.items()},
                           sample_period=frame.sample_period)


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, n, ok, why=""):
        self.attempted += n
        if not ok:
            self.failed += n
            self.problems.append(why)


# ------------------------------------------------------------------ train

class Train:
    """train_grouped at the paper shape: one training profile of 256
    stride-1 windows (one optimizer step per call, batch 256, window 180,
    65 channels, hidden 100) and a held-out profile of 64 windows."""

    def __init__(self, seed, workdir, variants, trace):
        self.seed = seed
        self.variants = variants
        self.split, self.fc, self.cfg = self.inputs(seed)
        stats = mt.features.fit_standardization(self.split.train, self.fc)
        held = mt.features.build_dataset(self.split.test, self.fc, stats=stats)
        self.held_inputs, raw = held.gather(np.arange(held.n_windows))
        self.held_targets = stats.transform_targets(raw.reshape(held.n_windows, -1))
        with open(os.path.join(HERE, "reference_losses.json")) as fh:
            self.reference = json.load(fh)["losses"].get(str(seed))
        self.final_loss: dict = {}
        self.samples = {v: [] for v in variants}
        # Warm-up: one call per variant, bilstm (the largest tape) first.  A
        # process's first steps at batch 256 run up to twice as slow as later
        # ones while the heap grows.
        for v in ("bilstm", "attention", "vanilla"):
            _op(trace, "bench.warmup", mt.training.train_grouped,
                self.split, self.fc, v, self.cfg)

    @staticmethod
    def inputs(seed):
        """(split, feature config, train config) of one train_grouped call."""
        frames = mt.dataio.synthesize(seed, profiles=2, length=WINDOW + BATCH - 1)
        split = mt.DatasetSplit(train=[frames[0]],
                                test=[_frame_head(frames[1], WINDOW + 63)])
        cfg = mt.TrainConfig(batch_size=BATCH, epochs_per_group=1, group_count=1,
                             fine_tune_profiles=0, seed=seed)
        return split, mt.FeatureConfig(), cfg

    def round(self, out: Outcome, trace):
        for v in self.variants:
            started = time.perf_counter()
            params, logs = _op(trace, "bench.train", mt.training.train_grouped,
                               self.split, self.fc, v, self.cfg)
            elapsed = time.perf_counter() - started
            self.samples[v].append(BATCH / elapsed)
            out.add(self.cfg.epochs_per_group, *self.check(v, params, logs))

    def check(self, v, params, logs):
        losses = [r[k] for r in logs for k in ("train_loss", "eval_loss")]
        if not all(isinstance(x, float) and math.isfinite(x) for x in losses):
            return False, f"{v}: non-finite loss in {logs}"
        final = logs[-1]["eval_loss"]
        pred = oracle.forward(params, self.held_inputs)
        recomputed = float(np.mean((pred - self.held_targets) ** 2))
        if not _rel_close(final, recomputed, LOSS_REL_TOL):
            return False, f"{v}: logged held-out loss {final!r}, oracle {recomputed!r}"
        if self.final_loss.setdefault(v, final) != final:
            return False, f"{v}: held-out loss {final!r} differs between rounds"
        if self.reference and not _rel_close(final, self.reference[v],
                                             REFERENCE_REL_TOL):
            return False, (f"{v}: held-out loss {final!r}, recorded "
                           f"{self.reference[v]!r} for seed {self.seed}")
        return True, ""

    def details(self):
        return {"final_heldout_loss": self.final_loss,
                "reference_loss": self.reference,
                "reference_rel_tol": REFERENCE_REL_TOL,
                "windows_per_call": BATCH}


# ------------------------------------------------------------------ score

class PredictRecorder:
    """Keeps (inputs, outputs) of every predict call evaluate makes, so each
    scored batch can be checked against the oracle after the clock stops."""

    def __init__(self):
        self.calls = []
        self.original = mt.evaluation.predict

        def recording(params, batch):
            result = self.original(params, batch)
            self.calls.append((batch, result))
            return result

        mt.evaluation.predict = recording


class Score:
    """build_dataset + evaluate at batch 256 over two held-out profiles of
    256 windows each, statistics fitted on a third profile, for each variant
    with its seeded initial weights.  Then an online phase: one closed-loop
    caller sends the attention model one window at a time (batch 1), the
    next only after the previous answer, as an inverter at 2 Hz would."""

    online_per_round = 40

    def __init__(self, seed, workdir, variants, trace):
        self.variants = variants
        frames = mt.dataio.synthesize(seed, profiles=3, length=WINDOW + BATCH - 1)
        self.fc = mt.FeatureConfig()
        self.stats = mt.features.fit_standardization(frames[:1], self.fc)
        self.held = frames[1:]
        held = mt.features.build_dataset(self.held, self.fc, stats=self.stats)
        self.windows, actual = held.gather(np.arange(held.n_windows))
        self.actual = actual.reshape(held.n_windows, -1)
        self.params = {v: mt.init_params(v, seed) for v in VARIANTS}
        self.samples = {v: [] for v in variants}
        self.latency = []
        self.cursor = 0
        warm = np.zeros((8, WINDOW, self.fc.channel_count()))
        for v in VARIANTS:
            _op(trace, "bench.warmup", mt.predict, self.params[v], warm)
        self.recorder = PredictRecorder()

    def round(self, out: Outcome, trace):
        for v in self.variants:
            params = self.params[v]
            self.recorder.calls.clear()
            started = time.perf_counter()
            dataset, report = _op(trace, "bench.score", self.score, params)
            elapsed = time.perf_counter() - started
            self.samples[v].append(dataset.n_windows / elapsed)
            wants = [oracle.forward(params, batch) for batch, _ in self.recorder.calls]
            expected = mt.compute_metrics(
                self.actual,
                self.stats.untransform_predictions(np.concatenate(wants)))
            report_ok = _rel_close(report.overall_mse, expected.overall_mse, 1e-8)
            for (_, result), want in zip(self.recorder.calls, wants):
                ok = report_ok and oracle.agrees(result, want)
                out.add(1, ok, f"{v}: scored batch or report disagrees with the "
                               f"oracle (report mse {report.overall_mse!r}, "
                               f"oracle {expected.overall_mse!r})")
        self.online(out, trace)

    def online(self, out: Outcome, trace):
        params = self.params["attention"]
        n = len(self.windows)
        picks = [(self.cursor + k) % n for k in range(self.online_per_round)]
        self.cursor = (self.cursor + self.online_per_round) % n
        answers = []
        for k in picks:
            started = time.perf_counter()
            answers.append(_op(trace, "bench.online", mt.predict, params,
                               self.windows[k:k + 1]))
            self.latency.append(time.perf_counter() - started)
        for answer, want in zip(answers, oracle.forward(params, self.windows[picks])):
            out.add(1, oracle.agrees(answer, want),
                    "attention: online answer disagrees with the oracle")

    def score(self, params):
        dataset = mt.features.build_dataset(self.held, self.fc, stats=self.stats)
        return dataset, mt.evaluation.evaluate(params, dataset, self.stats,
                                               batch_size=BATCH)

    def details(self):
        return {"windows_per_pass": 2 * BATCH, "online_latency_s": self.latency}


WORKLOADS = {"train": Train, "score": Score}


def _op(trace, name, fn, *args):
    """A top-level operation: a root span when tracing, a plain call if not."""
    return trace.call(name, fn, *args) if trace else fn(*args)


# ------------------------------------------------------------------ probe

def probe(missing: set, seed: int, workdir: str, trace) -> None:
    """Exercise, under the tracer, the layers a workload never reached, so a
    traced run reports every per-layer figure.  Shapes are the paper's."""
    fc = mt.FeatureConfig()
    frames = mt.dataio.synthesize(seed, profiles=2, length=WINDOW + 3 * BATCH - 1)
    split = mt.DatasetSplit(train=frames[:1],
                            test=[_frame_head(frames[1], WINDOW + BATCH - 1)])
    cfg = mt.TrainConfig(batch_size=BATCH, epochs_per_group=1, group_count=1,
                         fine_tune_profiles=0, seed=seed)
    stats = mt.features.fit_standardization(split.train, fc)
    held = mt.features.build_dataset(split.test, fc, stats=stats)
    batch = held.gather(np.arange(BATCH))[0]

    def wants(*prefixes):
        return any(m.startswith(prefixes) for m in missing)

    stepped = [v for v in VARIANTS if any(
        m.endswith("." + v) and not m.startswith("models.predict") for m in missing)]
    # bilstm first: its tape is the largest, so the heap grows once, during
    # its first step, and the median of three steps is a warm figure.
    for v in ("bilstm", "attention", "vanilla"):
        if v in stepped:  # its held-out pass is one predict at batch 256
            trace.call("bench.probe", mt.training.train_grouped, split, fc, v, cfg)
        params = mt.init_params(v, seed)
        for key, rows, reps in (("predict_ms", BATCH, 3), ("predict_b1_ms", 1, 10)):
            if f"models.{key}.{v}" in missing:
                for k in range(reps):
                    trace.call("bench.probe", mt.predict, params, batch[k:k + rows])
    params = mt.init_params("attention", seed)
    if wants("evaluation."):
        trace.call("bench.probe", mt.evaluation.evaluate, params, held, stats)
        trace.call("bench.probe", mt.evaluation.emit_traces, params, held, stats,
                   os.path.join(workdir, "probe_traces"))
    if wants("checkpoint."):
        path = os.path.join(workdir, "probe.ckpt")
        for _ in range(3):
            trace.call("bench.probe", mt.checkpoint.save_checkpoint, params, stats,
                       path, fc)
            trace.call("bench.probe", mt.checkpoint.load_checkpoint, path)
    if wants("dataio."):
        path = os.path.join(workdir, "probe.csv")
        rec = trace.call("bench.probe", mt.dataio.synthesize, seed, 2, 2000)
        trace.call("bench.probe", mt.dataio.save_csv, rec, path)
        trace.call("bench.probe", mt.dataio.load_csv, path)


# ------------------------------------------------------------------- main

def environment() -> dict:
    try:  # recorded only while scipy is a dependency
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--rounds", type=int, default=0,
                    help="run exactly this many rounds (0: until --seconds)")
    ap.add_argument("--variants", default=",".join(VARIANTS))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)

    trace = None
    if args.trace:
        trace = tracing.Tracer(epoch=IMPORT_START)
        trace.record("cli.import", IMPORT_START, IMPORT_END)
        tracing.instrument(trace, mt)

    work = _op(trace, "bench.setup", WORKLOADS[args.workload], args.seed,
               args.workdir, tuple(args.variants.split(",")), trace)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s, "import_s": IMPORT_END - IMPORT_START,
              "environment": environment()}
    out = Outcome()
    began = time.perf_counter()
    rounds = 0
    while True:
        started = time.perf_counter()
        work.round(out, trace)
        rounds += 1
        now = time.perf_counter()
        # Without --rounds: go on while another round of the same length
        # would end less than half a round past the budget.
        if rounds == args.rounds or (
                not args.rounds and now - began + (now - started) / 2 > args.seconds):
            break
    measured_s = time.perf_counter() - began

    result.update({
        "rounds": rounds,
        "measured_s": measured_s,
        "attempted": out.attempted,
        "failed": out.failed,
        "problems": out.problems[:20],
        "samples": work.samples,
        "details": work.details(),
    })
    if trace:
        work_spans = len(trace.spans)
        layer = tracing.layer_metrics(trace.spans[:work_spans], result["import_s"])
        todo = tracing.missing(layer)
        probe(todo, args.seed, args.workdir, trace)
        everything = tracing.layer_metrics(trace.spans, result["import_s"])
        for name, value in everything.items():
            if name not in layer or name.startswith("self_s."):
                layer[name] = value
        trace.restore()
        trace.dump(os.path.join(args.workdir, "spans.jsonl"))
        result["layer"] = layer
        result["probed"] = sorted(todo)
        result["step_share"] = tracing.step_share(trace.spans)
    _write(args.result, result)
    return 0


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
