"""In-memory spans around the motortemp calls a workload makes.

The tracer replaces public functions in the namespaces where they are
looked up at call time (``motortemp.training.adam_step`` is the name
``train_grouped`` calls, ``motortemp.features.build_dataset`` the one the
CLI and the benchmark call) with wrappers that record a span: name, start,
end, parent and a few attributes (variant, batch size, profile, rows,
bytes).  Nothing inside
the package changes.  Spans stay in a list and are written once, at exit.

``layer_metrics`` turns the spans into the per-layer figures the benchmark
reports; ``missing`` lists which of them a given span set cannot provide,
so the caller can run a probe for exactly those.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time

LAYERS = ("dataio", "features", "autodiff", "models", "training",
          "evaluation", "checkpoint", "cli")
VARIANTS = ("vanilla", "attention", "bilstm")
PAPER_BATCH = 256


class Tracer:
    """Nested spans on one thread, kept in memory."""

    def __init__(self, epoch: float | None = None):
        self.epoch = time.perf_counter() if epoch is None else epoch
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._patched: list[tuple] = []
        self.last_forward: dict = {}

    def now(self) -> float:
        return time.perf_counter() - self.epoch

    def begin(self, name: str, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": self.now(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = self.now()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """Add a finished root span measured elsewhere (e.g. the import)."""
        self.spans.append({"id": len(self.spans), "parent": None, "name": name,
                           "start": start - self.epoch, "end": end - self.epoch,
                           "attrs": attrs})

    def call(self, name: str, fn, *args, **kwargs):
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def wrap(self, name: str, fn, before=None, after=None):
        """A traced stand-in for ``fn``.  ``before(*args, **kw)`` returns
        span attributes and runs before the clock starts; ``after(result,
        *args, **kw)`` returns more and runs after it stops."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            span = tracer.begin(name, **attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if after:
                span["attrs"].update(after(result, *args, **kwargs))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, before=None, after=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, before, after))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True))
                fh.write("\n")


def instrument(tracer: Tracer, mt) -> None:
    """Wrap the package's layer boundaries.  ``mt`` is the imported
    ``motortemp`` package."""
    from motortemp import autodiff, checkpoint, dataio, evaluation, features, training

    def variant_of(params, *_, **__):
        return {"variant": params.variant}

    def predict_attrs(params, batch, *_, **__):
        return {"variant": params.variant, "batch": len(batch)}

    def forward_attrs(params, batch, *_, **__):
        tracer.last_forward = predict_attrs(params, batch)
        return dict(tracer.last_forward)

    def tape_attrs(tape, *_, **__):
        # Counted before the clock starts, so the count costs no span time.
        mb = sum(node.out.values.nbytes for node in tape.nodes) / 1e6
        return {**tracer.last_forward, "nodes": len(tape), "mb": mb}

    def rows_of(frames):
        return sum(len(f) for f in frames)

    def file_size(path):
        return os.path.getsize(path)

    tracer.patch(training, "train_grouped", "training.train_grouped",
                 before=lambda split, fc, variant, *a, **k: {"variant": variant})
    tracer.patch(training, "forward_for_training", "models.forward_for_training",
                 before=forward_attrs)
    tracer.patch(autodiff.Tape, "backward", "autodiff.backward", before=tape_attrs)
    tracer.patch(training, "adam_step", "training.adam_step", before=variant_of)
    for module in (training, features):
        tracer.patch(module, "build_dataset", "features.build_dataset")
        tracer.patch(module, "fit_standardization", "features.fit_standardization")
    tracer.patch(features, "channel_matrix", "features.channel_matrix",
                 before=lambda frame, *a, **k: {"profile": frame.profile_id})
    tracer.patch(features.WindowedDataset, "gather", "features.gather",
                 before=lambda ds, idx: {"batch": len(idx)})
    for module in (training, evaluation):
        tracer.patch(module, "predict", "models.predict", before=predict_attrs)
    tracer.patch(mt, "predict", "models.predict", before=predict_attrs)
    tracer.patch(evaluation, "evaluate", "evaluation.evaluate")
    tracer.patch(evaluation, "emit_traces", "evaluation.emit_traces")
    tracer.patch(checkpoint, "save_checkpoint", "checkpoint.save",
                 before=variant_of,
                 after=lambda _r, p, s, path, *a, **k: {"bytes": file_size(path)})
    tracer.patch(checkpoint, "load_checkpoint", "checkpoint.load",
                 after=lambda r, *a, **k: {"variant": r[0].variant})
    tracer.patch(dataio, "synthesize", "dataio.synthesize",
                 after=lambda frames, *a, **k: {"rows": rows_of(frames)})
    tracer.patch(dataio, "load_csv", "dataio.load_csv",
                 after=lambda frames, *a, **k: {"rows": rows_of(frames)})
    tracer.patch(dataio, "save_csv", "dataio.save_csv",
                 after=lambda _r, frames, path, *a, **k: {
                     "rows": rows_of(frames), "bytes": file_size(path)})


# ---------------------------------------------------------------- metrics

def _dur(span) -> float:
    return span["end"] - span["start"]


def _median(values):
    return statistics.median(values) if values else None


class SpanIndex:
    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s["id"]: s for s in self.spans}
        self.children: dict = {}
        for s in self.spans:
            self.children.setdefault(s["parent"], []).append(s)

    def named(self, name, **attrs):
        return [s for s in self.spans if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in attrs.items())]

    def self_time(self, span) -> float:
        return _dur(span) - sum(_dur(c) for c in self.children.get(span["id"], []))

    def descendants(self, span):
        out, todo = [], list(self.children.get(span["id"], []))
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.children.get(s["id"], []))
        return out

    def roots(self):
        return self.children.get(None, [])

    def under(self, span, name) -> bool:
        while span is not None:
            if span["name"] == name:
                return True
            span = self.by_id.get(span["parent"])
        return False


FEATURIZE = ("features.build_dataset", "features.fit_standardization")


def without_warmup(ix: SpanIndex) -> SpanIndex:
    return SpanIndex(s for s in ix.spans if not ix.under(s, "bench.warmup"))


def layer_metrics(spans, import_s: float) -> dict:
    """Per-layer figures from one traced process: name -> (value, unit).

    A figure the spans cannot give (its layer was never called at the
    stated shape) is left out; see ``missing``.  Per-call figures leave out
    warm-up calls; self times cover the whole process.
    """
    everything = SpanIndex(spans)
    ix = without_warmup(everything)
    out: dict = {"cli.import_s": (import_s, "s")}

    def put(name, value, unit, scale=1.0):
        if value is not None:
            out[name] = (value * scale, unit)

    for v in VARIANTS:
        fwd = [_dur(s) for s in ix.named("models.forward_for_training",
                                         variant=v, batch=PAPER_BATCH)]
        bwd = ix.named("autodiff.backward", variant=v, batch=PAPER_BATCH)
        adam = [_dur(s) for s in ix.named("training.adam_step", variant=v)]
        put(f"models.taped_forward_ms.{v}", _median(fwd), "ms", 1e3)
        put(f"autodiff.backward_ms.{v}", _median([_dur(s) for s in bwd]), "ms", 1e3)
        put(f"training.adam_ms.{v}", _median(adam), "ms", 1e3)
        put(f"autodiff.tape_nodes_per_step.{v}",
            _median([s["attrs"]["nodes"] for s in bwd]), "count")
        put(f"autodiff.tape_mb_per_step.{v}",
            _median([s["attrs"]["mb"] for s in bwd]), "MB")
        if fwd and bwd and adam:
            step = _median(fwd) + _median([_dur(s) for s in bwd]) + _median(adam)
            put(f"training.step_ms.{v}", step, "ms", 1e3)
        for batch, key in ((PAPER_BATCH, "predict_ms"), (1, "predict_b1_ms")):
            put(f"models.{key}.{v}",
                _median([_dur(s) for s in ix.named("models.predict", variant=v,
                                                    batch=batch)]), "ms", 1e3)

    put("features.gather_ms",
        _median([_dur(s) for s in ix.named("features.gather", batch=PAPER_BATCH)]),
        "ms", 1e3)

    # Featurization and channel_matrix calls, per top-level operation.
    featurize, calls = [], []
    for root in ix.roots():
        below = ix.descendants(root) + [root]
        feats = [s for s in below if s["name"] in FEATURIZE]
        outer = [s for s in feats if ix.by_id.get(s["parent"], {}).get("name")
                 not in FEATURIZE]
        if outer:
            featurize.append(sum(_dur(s) for s in outer))
        per_profile: dict = {}
        for s in below:
            if s["name"] == "features.channel_matrix":
                pid = s["attrs"]["profile"]
                per_profile[pid] = per_profile.get(pid, 0) + 1
        if per_profile:
            calls.append(max(per_profile.values()))
    put("features.featurize_s", _median(featurize), "s")
    put("features.channel_matrix_calls_per_profile", max(calls) if calls else None,
        "count")

    grouped = ix.named("training.train_grouped")
    put("training.train_grouped_self_s",
        _median([ix.self_time(s) for s in grouped]), "s")
    heldout = [sum(_dur(d) for d in ix.descendants(s) if d["name"] == "models.predict")
               for s in grouped]
    put("training.heldout_eval_s", _median([h for h in heldout if h > 0]), "s")

    put("evaluation.evaluate_s",
        _median([_dur(s) for s in ix.named("evaluation.evaluate")]), "s")
    put("evaluation.emit_traces_s",
        _median([_dur(s) for s in ix.named("evaluation.emit_traces")]), "s")

    saves = ix.named("checkpoint.save", variant="attention")
    put("checkpoint.save_ms", _median([_dur(s) for s in saves]), "ms", 1e3)
    put("checkpoint.load_ms", _median([_dur(s) for s in ix.named(
        "checkpoint.load", variant="attention")]), "ms", 1e3)
    put("checkpoint.bytes", saves[-1]["attrs"]["bytes"] if saves else None, "bytes")

    for op in ("load_csv", "save_csv"):
        spans_ = ix.named(f"dataio.{op}")
        put(f"dataio.{op}_s", _median([_dur(s) for s in spans_]), "s")
        put(f"dataio.{op}_rows_per_s",
            _median([s["attrs"]["rows"] / _dur(s) for s in spans_]), "rows/s")
    saved = ix.named("dataio.save_csv")
    put("dataio.csv_bytes_written", saved[-1]["attrs"]["bytes"] if saved else None,
        "bytes")
    put("dataio.synthesize_s",
        _median([_dur(s) for s in ix.named("dataio.synthesize")]), "s")

    selfs = {layer: 0.0 for layer in LAYERS}
    for s in everything.spans:
        layer = s["name"].split(".", 1)[0]
        if layer in selfs:
            selfs[layer] += everything.self_time(s)
    for layer, value in selfs.items():
        put(f"self_s.{layer}", value, "s")
    return out


def step_share(spans) -> float:
    """Share of train_grouped wall time spent in the taped forward, the
    backward pass and Adam (the rest is ``training.train_grouped_self_s``,
    featurization, gathers and the held-out eval)."""
    ix = without_warmup(SpanIndex(spans))
    grouped = ix.named("training.train_grouped")
    steps = sum(_dur(d) for s in grouped for d in ix.descendants(s)
                if d["name"] in ("models.forward_for_training", "autodiff.backward",
                                 "training.adam_step"))
    return steps / sum(_dur(s) for s in grouped)


def per_layer_names() -> list[str]:
    """Every name ``layer_metrics`` can produce, plus the tracing overhead."""
    names = []
    for v in VARIANTS:
        names += [f"models.taped_forward_ms.{v}", f"autodiff.backward_ms.{v}",
                  f"training.adam_ms.{v}", f"training.step_ms.{v}",
                  f"autodiff.tape_nodes_per_step.{v}", f"autodiff.tape_mb_per_step.{v}",
                  f"models.predict_ms.{v}", f"models.predict_b1_ms.{v}"]
    names += ["features.gather_ms", "features.featurize_s",
              "features.channel_matrix_calls_per_profile",
              "training.train_grouped_self_s", "training.heldout_eval_s",
              "evaluation.evaluate_s", "evaluation.emit_traces_s",
              "checkpoint.save_ms", "checkpoint.load_ms", "checkpoint.bytes",
              "dataio.load_csv_s", "dataio.load_csv_rows_per_s",
              "dataio.save_csv_s", "dataio.save_csv_rows_per_s",
              "dataio.csv_bytes_written", "dataio.synthesize_s", "cli.import_s"]
    names += [f"self_s.{layer}" for layer in LAYERS]
    names += ["trace.overhead_s"]
    return names


def missing(metrics: dict) -> set:
    return {n for n in per_layer_names() if n not in metrics} - {"trace.overhead_s"}
