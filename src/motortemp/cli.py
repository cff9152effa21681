"""Command line interface.

Subcommands: synth, featurize, train, evaluate, predict, inspect.
featurize, train, evaluate and predict read a recording CSV (--data);
synth writes a stand-in one.  Only synth (the recording) and train (the
weights and the shuffles) take --seed.  Each setting is its flag, else its
key in an optional JSON config file (--config), else the default.  Keys
are flag names with "_" for "-"; a value must be of its flag's kind (one
of its choices, where it has them), and unknown keys are ignored.  FeatureConfig and TrainConfig own their
defaults.  Every run with an output directory writes the resolved
configuration there as config.json.

Exit codes: 0 on success, 2 for usage errors (argparse), 1 for runtime
failures such as unreadable files, schema violations, config files that
are not JSON objects or hold values of the wrong kind (naming the key and
the file) or mismatched checkpoints.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import shutil
import sys

import numpy as np

from . import checkpoint as ckpt
from . import dataio, evaluation, features, models, training

__all__ = ["main", "build_parser"]

# Defaults of the settings only the command line has.
_SEED, _VARIANT, _HIDDEN, _HELD_OUT_ID = 0, "attention", 100, 65
_SYNTH_PROFILES, _SYNTH_LENGTH = 3, 600
_SYNTH_HINT = "motortemp synth --out FILE writes a stand-in"


def _int_list(text: str) -> list[int]:
    """Parse a comma list of integers such as "2,4"; "" is []."""
    with contextlib.suppress(json.JSONDecodeError):
        values = json.loads(f"[{text}]")
        if _KINDS["integers"][0](values):
            return values
    raise argparse.ArgumentTypeError(f"expected a comma list of integers, got {text!r}")


def _add_common(p: argparse.ArgumentParser, seeds: str | None = None):
    """--config, and --seed when the command draws ``seeds``."""
    p.add_argument("--config", help="JSON file with defaults for any flag")
    if seeds:
        p.add_argument("--seed", type=int, default=None,
                       help=f"seed of {seeds} (default {_SEED})")


def _add_feature_flags(p: argparse.ArgumentParser):
    d = features.FeatureConfig
    p.add_argument("--window", type=int, default=None,
                   help=f"input window length in samples (default {d.window})")
    p.add_argument("--stride", type=int, default=None,
                   help=f"window stride in samples (default {d.stride})")
    p.add_argument("--spans", type=_int_list, default=None, help="comma list of "
                   f"smoothing spans (default {','.join(map(str, d.spans))})")
    p.add_argument("--synthetic-set", default=None,
                   choices=sorted(features.SYNTHETIC_SETS), help="derived quantity "
                   f"selection (default {features.DEFAULT_SYNTHETIC_SET})")


def _add_data_flag(p: argparse.ArgumentParser):
    p.add_argument("--data", default=None, help=f"recording CSV to read ({_SYNTH_HINT})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motortemp", allow_abbrev=False,
        description="Temperature estimation for PMSM drives with "
                    "encoder-decoder LSTM models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    p = command("synth", help="generate a stand-in recording CSV")
    _add_common(p, seeds="the recording")
    p.add_argument("--out", required=True, help="CSV file to write")
    p.add_argument("--profiles", type=int, default=None,
                   help=f"default {_SYNTH_PROFILES}")
    p.add_argument("--length", type=int, default=None,
                   help=f"samples per profile (default {_SYNTH_LENGTH})")
    p.set_defaults(func=cmd_synth)

    p = command("featurize", help="write feature tensors and stats")
    _add_common(p)
    _add_data_flag(p)
    _add_feature_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_featurize)

    p = command("train", help="train a model")
    _add_common(p, seeds="the initial weights and the shuffles")
    _add_data_flag(p)
    _add_feature_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--variant", default=None, choices=models.VARIANTS,
                   help=f"architecture (default {_VARIANT})")
    p.add_argument("--test-profiles", type=_int_list, default=None,
                   help=f"comma list of held-out profile ids (default {_HELD_OUT_ID})")
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--epochs-per-group", type=int, default=None)
    p.add_argument("--groups", type=int, default=None, help="contiguous profile "
                   f"groups (default {training.TrainConfig.group_count})")
    p.add_argument("--fine-tune-profiles", type=int, default=None)
    p.add_argument("--fine-tune-epochs", type=int, default=None)
    p.add_argument("--clip-norm", type=float, default=None,
                   help="global gradient norm limit; 0 disables "
                        f"(default {training.TrainConfig.clip_norm:g})")
    p.add_argument("--hidden", type=int, default=None,
                   help=f"LSTM state width (default {_HIDDEN})")
    p.set_defaults(func=cmd_train)

    p = command("evaluate", help="evaluate a checkpoint on held-out profiles")
    _add_common(p)
    _add_data_flag(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--variant", default=None, choices=models.VARIANTS,
                   help="assert the checkpoint holds this architecture")
    p.add_argument("--test-profiles", type=_int_list, default=None,
                   help=f"comma list of profile ids to score (default {_HELD_OUT_ID})")
    p.add_argument("--batch-size", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = command("predict", help="write temperature predictions for a recording")
    _add_common(p)
    _add_data_flag(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="CSV file to write")
    p.set_defaults(func=cmd_predict)

    p = command("inspect", help="describe a checkpoint")
    p.add_argument("checkpoint")
    p.set_defaults(func=cmd_inspect)

    return parser


# The kinds a config value may be declared as: (test, what it must be).
_KINDS = {
    "integer": (features._is_int, "an integer"),
    "number": (lambda v: features._is_int(v) or isinstance(v, float), "a number"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "integers": (lambda v: isinstance(v, list) and all(map(features._is_int, v)),
                 "a list of integers or a comma string of integers"),
    "clip": (lambda v: v in (None, "none") or _KINDS["number"][0](v),
             'a number, "none" or null'),
    # Older config files may still hold the retired standardize_targets.
    "retired": (lambda v: v is True, "true (targets are always standardized "
                                     "for training)"),
}
_UNSET = object()


class _Settings:
    """Reads each setting as its flag, else its --config value, else a
    default; the one place that checks a config value's kind."""

    def __init__(self, args):
        self.args, self.path, self.file = args, getattr(args, "config", None), {}
        if self.path:
            with open(self.path) as fh:
                try:
                    self.file = json.load(fh)
                except ValueError as exc:  # bad JSON or bad UTF-8
                    raise dataio.ConfigError(
                        f"{self.path}: not valid JSON ({exc})") from None
            if not isinstance(self.file, dict):
                raise dataio.ConfigError(
                    f"{self.path}: config file must hold a JSON object")
        self.get("standardize_targets", "retired")

    def get(self, key: str, kind, default=None):
        """The setting ``key``; its file value, used or not, must be ``kind``,
        or one of ``kind`` when that is a tuple of choices."""
        flag = getattr(self.args, key, None)
        if key not in self.file:
            return default if flag is None else flag
        value = self.file[key]
        if kind == "integers" and isinstance(value, str):
            with contextlib.suppress(argparse.ArgumentTypeError):
                value = _int_list(value)
        test, expected = _KINDS[kind] if isinstance(kind, str) else (
            lambda v: v in kind, f"one of {', '.join(kind)}")
        if not test(value):
            raise dataio.ConfigError(
                f"{self.path}: {key} must be {expected}, got {value!r}")
        return value if flag is None else flag

    def pick(self, kinds: dict) -> dict:
        """{key: value} for the keys of ``kinds`` that the user set."""
        values = {key: self.get(key, kind, _UNSET) for key, kind in kinds.items()}
        return {key: v for key, v in values.items() if v is not _UNSET}


def _feature_config(settings: _Settings) -> features.FeatureConfig:
    given = settings.pick({"window": "integer", "stride": "integer",
                           "spans": "integers"})
    name = settings.get("synthetic_set", tuple(sorted(features.SYNTHETIC_SETS)),
                        features.DEFAULT_SYNTHETIC_SET)
    return features.FeatureConfig.with_synthetic_set(name, **given)


def _train_config(settings: _Settings) -> training.TrainConfig:
    given = settings.pick({"batch_size": "integer", "learning_rate": "number",
                           "epochs_per_group": "integer", "groups": "integer",
                           "fine_tune_profiles": "integer",
                           "fine_tune_epochs": "integer", "clip_norm": "clip"})
    if "groups" in given:
        given["group_count"] = given.pop("groups")
    if "clip_norm" in given and given["clip_norm"] in (0, "none", None):
        given["clip_norm"] = None  # 0, "none" and null disable clipping
    return training.TrainConfig(seed=settings.get("seed", "integer", _SEED), **given)


def _data_path(settings, parser_error) -> str:
    """The recording CSV to read; a usage error when none is given, raised
    before any file is opened."""
    path = settings.get("data", "string")
    if not path:
        parser_error(f"--data is required: a recording CSV ({_SYNTH_HINT})")
    return path


def _test_ids(settings, frames) -> list[int]:
    """The held-out profile ids: the user's, else the default id if present."""
    present = {f.profile_id for f in frames}
    default = [_HELD_OUT_ID] if _HELD_OUT_ID in present else []
    return settings.get("test_profiles", "integers", default)


def _load_pipeline(path, expect_variant=None):
    """``load_checkpoint`` for commands that rebuild the input pipeline."""
    params, stats, feature_config = ckpt.load_checkpoint(path, expect_variant)
    if feature_config is None or stats is None:
        raise ckpt.CheckpointError(
            f"{path}: checkpoint lacks feature configuration or "
            "statistics; cannot rebuild the input pipeline")
    return params, stats, feature_config


def _check_out_dir(path):
    """Raise OSError, naming ``path``, unless it is a directory or its
    nearest existing ancestor is a writable directory; makes nothing."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise NotADirectoryError(f"--out {path} exists and is not a directory")
    ancestor = os.path.abspath(path)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not (os.path.isdir(ancestor) and os.access(ancestor, os.W_OK | os.X_OK)):
        raise PermissionError(f"--out {path}: cannot write into {ancestor}")


def _check_out_file(path):
    """Raise OSError, naming ``path``, unless it is not a directory and its
    directory exists and is writable; makes nothing."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"--out {path} is a directory")
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise FileNotFoundError(f"--out {path}: no directory {folder}")
    if not os.access(folder, os.W_OK | os.X_OK):
        raise PermissionError(f"--out {path}: cannot write into {folder}")


def _write_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _windows(frames, config, stats) -> features.WindowedDataset:
    """``build_dataset`` that raises, naming the window and every profile's
    length, when no profile is long enough for one window."""
    dataset = features.build_dataset(frames, config, stats=stats)
    if dataset.n_windows == 0:
        lengths = ", ".join(f"{f.profile_id}: {f.n_samples}" for f in frames)
        raise dataio.ConfigError(
            f"no windows: every profile is shorter than the window of "
            f"{config.window} samples (samples per profile: {lengths})")
    return dataset


def _save_windows(dataset, inputs_path, targets_path) -> None:
    """The whole ``gather`` as .npy files, targets as (windows, 1, targets),
    written as each header and then one appended batch of at most 256
    windows of one profile at a time.  Such a batch is a view of the window
    table, and its windows are written one by one, so no batch is copied.
    Raises OSError before opening either file when the two would not fit in
    the free space of their directory (counting any files they replace)."""
    n = dataset.n_windows
    dtype = dataset.channels.dtype
    shapes = ((n, dataset.window, dataset.channels.shape[1]),
              (n, 1, dataset.targets.shape[1]))
    headers = []
    for shape in shapes:
        buf = io.BytesIO()
        np.lib.format.write_array_header_1_0(buf, {
            "descr": np.lib.format.dtype_to_descr(dtype),
            "fortran_order": False, "shape": shape})
        headers.append(buf.getvalue())
    need = sum(len(h) + math.prod(shape) * dtype.itemsize
               for h, shape in zip(headers, shapes))
    paths = (inputs_path, targets_path)
    out = os.path.dirname(inputs_path) or "."
    free = shutil.disk_usage(out).free + sum(
        os.path.getsize(p) for p in paths if os.path.isfile(p))
    if need > free:
        raise OSError(
            f"{n} windows need {need} bytes ({need / 1e9:.1f} GB) of .npy "
            f"files in {out}, but only {free} bytes are free; a larger "
            f"--stride writes fewer windows")
    with open(inputs_path, "wb") as fi, open(targets_path, "wb") as ft:
        fi.write(headers[0])
        ft.write(headers[1])
        # Batches start every 256 windows and at each profile's first.
        firsts = np.flatnonzero(np.diff(dataset.profile_ids)) + 1
        cuts = np.union1d(np.arange(0, n, 256), firsts)
        for at, end in zip(cuts, [*cuts[1:], n]):
            inputs, targets = dataset.gather(np.arange(at, end))
            # Each window is one contiguous block; tofile would write the
            # view one value at a time.
            fi.writelines(inputs)
            targets.tofile(ft)


def cmd_synth(args, parser) -> int:
    _check_out_file(args.out)
    settings = _Settings(args)
    frames = dataio.synthesize(
        seed=settings.get("seed", "integer", _SEED),
        profiles=settings.get("profiles", "integer", _SYNTH_PROFILES),
        length=settings.get("length", "integer", _SYNTH_LENGTH))
    dataio.save_csv(frames, args.out)
    print(f"wrote {sum(len(f) for f in frames)} rows "
          f"({len(frames)} profiles) to {args.out}")
    return 0


def cmd_featurize(args, parser) -> int:
    settings = _Settings(args)
    config = _feature_config(settings)
    data = _data_path(settings, parser.error)
    _check_out_dir(args.out)
    frames = dataio.load_csv(data)
    stats = features.fit_standardization(frames, config)
    dataset = _windows(frames, config, stats)
    os.makedirs(args.out, exist_ok=True)
    _save_windows(dataset, os.path.join(args.out, "inputs.npy"),
                  os.path.join(args.out, "targets.npy"))
    dataio.write_csv(os.path.join(args.out, "provenance.csv"),
                     ["profile_id", "end_index"], dataset.provenance())
    _write_json(os.path.join(args.out, "stats.json"), stats.to_dict())
    _write_json(os.path.join(args.out, "config.json"), config.to_dict())
    print(f"wrote {dataset.n_windows} windows x {config.channel_count()} "
          f"channels to {args.out}")
    return 0


def cmd_train(args, parser) -> int:
    settings = _Settings(args)
    variant = settings.get("variant", models.VARIANTS, _VARIANT)
    feature_config = _feature_config(settings)
    train_config = _train_config(settings)
    hidden = settings.get("hidden", "integer", _HIDDEN)
    models._check_widths(hidden=hidden)
    data = _data_path(settings, parser.error)
    frames = dataio.load_csv(data)
    test_ids = _test_ids(settings, frames)
    # An --out that cannot be made fails here, and too few profiles for the
    # groups or a group without a window fail in TrainRun before any
    # featurization: both before the run trains.
    _check_out_dir(args.out)
    run = training.TrainRun(dataio.split(frames, test_ids), feature_config,
                            variant, train_config, hidden=hidden)
    params, logs = run.train()

    # --out is made once training has succeeded, so a failed run leaves
    # nothing behind.
    os.makedirs(args.out, exist_ok=True)
    training_block = dataclasses.asdict(train_config)
    del training_block["seed"]
    _write_json(os.path.join(args.out, "config.json"), {
        "command": "train", "variant": variant, "seed": train_config.seed,
        "hidden": hidden, "test_profiles": test_ids, "data": data,
        "features": feature_config.to_dict(), "training": training_block,
    })
    log_path = os.path.join(args.out, "train_log.jsonl")
    with open(log_path, "w") as fh:
        fh.writelines(json.dumps(record, sort_keys=True, allow_nan=False) + "\n"
                      for record in logs)

    ckpt_path = os.path.join(args.out, "checkpoint.bin")
    ckpt.save_checkpoint(params, run.stats, ckpt_path, feature_config=feature_config)
    print(f"checkpoint: {ckpt_path}")
    print(f"training log: {log_path}")
    if run.heldout.n_windows > 0:
        report = evaluation.evaluate(params, run.heldout, run.stats,
                                     batch_size=train_config.batch_size)
        print(report.to_text())
    return 0


def cmd_evaluate(args, parser) -> int:
    settings = _Settings(args)
    data = _data_path(settings, parser.error)
    params, stats, feature_config = _load_pipeline(
        args.checkpoint, settings.get("variant", models.VARIANTS))
    _check_out_dir(args.out)
    frames = dataio.load_csv(data)
    test_ids = _test_ids(settings, frames)
    if not test_ids:
        available = ", ".join(str(f.profile_id) for f in frames)
        raise dataio.ConfigError("no held-out profiles selected; pass "
                                 f"--test-profiles (available: {available})")
    dataset = _windows(dataio.split(frames, test_ids).test, feature_config, stats)
    actual, predicted = evaluation.collect_predictions(
        params, dataset, stats, **settings.pick({"batch_size": "integer"}))
    report = evaluation.compute_metrics(actual, predicted)

    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "report.json"), report.to_dict())
    with open(os.path.join(args.out, "report.txt"), "w") as fh:
        fh.write(report.to_text() + "\n")
    evaluation.write_traces(args.out, dataset.provenance(), actual, predicted)
    print(report.to_text())
    return 0


def cmd_predict(args, parser) -> int:
    settings = _Settings(args)
    data = _data_path(settings, parser.error)
    params, stats, feature_config = _load_pipeline(args.checkpoint)
    _check_out_file(args.out)
    frames = dataio.load_csv(data)
    dataset = _windows(frames, feature_config, stats)
    _, predicted = evaluation.collect_predictions(params, dataset, stats)
    dataio.write_csv(
        args.out, ["profile_id", "end_index", *(f"pred_{t}" for t in features.TARGETS)],
        [*dataset.provenance(), *predicted.T])
    print(f"wrote {dataset.n_windows} predictions to {args.out}")
    return 0


def cmd_inspect(args, parser) -> int:
    params, stats, feature_config = ckpt.load_checkpoint(args.checkpoint)
    window = (feature_config or features.FeatureConfig).window
    print(f"variant: {params.variant}")
    print(f"input channels: {params.input_dim}   hidden width: {params.hidden}   "
          f"outputs: {params.output_dim}")
    rows = models.describe_layers(params, window=window)
    name_w = max(len(r[0]) for r in rows)
    kind_w = max(len(r[1]) for r in rows)
    for name, kind, shape in rows:
        print(f"  {name:<{name_w}}  {kind:<{kind_w}}  {shape}")
    print(f"trainable parameters: {models.count_params(params)}")
    if stats is not None:
        print(f"standardization: {len(stats.channel_names)} channels, "
              f"{len(stats.target_names)} targets")
    if feature_config is not None:
        print(f"features: window {feature_config.window}, stride "
              f"{feature_config.stride}, spans {list(feature_config.spans)}, "
              f"synthetic {list(feature_config.synthetic)}")
    return 0


# Shape, contract, schema, parse and config errors are ValueErrors; training
# and checkpoint errors are RuntimeErrors; numpy reports a table too large
# for memory as a MemoryError ("Unable to allocate ...").
_RUNTIME_ERRORS = (ValueError, RuntimeError, OSError, MemoryError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
