"""Command line interface.

Subcommands: synth, featurize, train, evaluate, predict, inspect.  Flags
override values from an optional JSON config file (--config), which in turn
override the built-in defaults.  Every run that takes an output directory
writes the fully resolved configuration there as config.json.

Exit codes: 0 on success, 2 for usage errors (argparse), 1 for runtime
failures such as unreadable files, schema violations or mismatched
checkpoints.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import dataio, evaluation, features, models, training

__all__ = ["main", "build_parser"]


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON file with defaults for any flag")
    p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")


def _add_feature_flags(p: argparse.ArgumentParser):
    p.add_argument("--window", type=int, default=None,
                   help="input window length in samples (default 180)")
    p.add_argument("--stride", type=int, default=None,
                   help="window stride in samples (default 1)")
    p.add_argument("--spans", default=None,
                   help="comma list of smoothing spans (default 1320,3360,6360,9480)")
    p.add_argument("--synthetic-set", default=None,
                   choices=sorted(features.SYNTHETIC_SETS),
                   help="derived quantity selection (default imc-smc)")


def _add_data_flags(p: argparse.ArgumentParser):
    p.add_argument("--data", default=None, help="recording CSV to load")
    p.add_argument("--synth", action="store_true", default=None,
                   help="use a generated stand-in recording instead of --data")
    p.add_argument("--synth-profiles", type=int, default=None,
                   help="profiles to generate with --synth (default 3)")
    p.add_argument("--synth-length", type=int, default=None,
                   help="samples per generated profile (default 600)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motortemp",
        description="Temperature estimation for PMSM drives with "
                    "encoder-decoder LSTM models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a stand-in recording CSV")
    _add_common(p)
    p.add_argument("--out", required=True, help="CSV file to write")
    p.add_argument("--profiles", type=int, default=None, help="default 3")
    p.add_argument("--length", type=int, default=None,
                   help="samples per profile (default 600)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("featurize", help="write feature tensors and stats")
    _add_common(p)
    _add_data_flags(p)
    _add_feature_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train a model")
    _add_common(p)
    _add_data_flags(p)
    _add_feature_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--variant", default=None, choices=models.VARIANTS,
                   help="architecture (default attention)")
    p.add_argument("--test-profiles", default=None,
                   help="comma list of held-out profile ids (default 65)")
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--epochs-per-group", type=int, default=None)
    p.add_argument("--groups", type=int, default=None,
                   help="contiguous profile groups (default 4)")
    p.add_argument("--fine-tune-profiles", type=int, default=None)
    p.add_argument("--fine-tune-epochs", type=int, default=None)
    p.add_argument("--clip-norm", type=float, default=None,
                   help="global gradient norm limit; 0 disables (default 5)")
    p.add_argument("--hidden", type=int, default=None,
                   help="LSTM state width (default 100)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on held-out profiles")
    _add_common(p)
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--variant", default=None, choices=models.VARIANTS,
                   help="assert the checkpoint holds this architecture")
    p.add_argument("--test-profiles", default=None,
                   help="comma list of profile ids to score (default 65)")
    p.add_argument("--batch-size", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="write temperature predictions for a recording")
    _add_common(p)
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="CSV file to write")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("inspect", help="describe a checkpoint")
    p.add_argument("checkpoint")
    p.set_defaults(func=cmd_inspect)

    return parser


def _load_file_config(args) -> dict:
    path = getattr(args, "config", None)
    if not path:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise dataio.ConfigError(f"{path}: config file must hold a JSON object")
    return cfg


def _merged(args, file_cfg: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in file_cfg:
        return file_cfg[key]
    return default


def _parse_int_list(value) -> list[int]:
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    text = str(value).strip()
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def _feature_config(args, file_cfg) -> features.FeatureConfig:
    spans = _merged(args, file_cfg, "spans", features.DEFAULT_SPANS)
    return features.FeatureConfig.with_synthetic_set(
        _merged(args, file_cfg, "synthetic_set", "imc-smc"),
        window=_merged(args, file_cfg, "window", 180),
        stride=_merged(args, file_cfg, "stride", 1),
        spans=tuple(_parse_int_list(spans)),
        standardize_targets=bool(
            _merged(args, file_cfg, "standardize_targets", True)
        ),
    )


def _load_frames(args, file_cfg, parser_error, seed) -> list[dataio.ProfileFrame]:
    data = _merged(args, file_cfg, "data", None)
    use_synth = bool(_merged(args, file_cfg, "synth", False))
    if data and use_synth:
        parser_error("--data and --synth are mutually exclusive")
    if data:
        return dataio.load_csv(data)
    if use_synth:
        return dataio.synthesize(
            seed=seed,
            profiles=int(_merged(args, file_cfg, "synth_profiles", 3)),
            length=int(_merged(args, file_cfg, "synth_length", 600)),
        )
    parser_error("one of --data or --synth is required")


def _resolve_test_ids(args, file_cfg, frames) -> tuple[list[int], bool]:
    """Held-out profile ids and whether the user picked them explicitly."""
    raw = _merged(args, file_cfg, "test_profiles", None)
    if raw is None:
        present = {f.profile_id for f in frames}
        return ([65] if 65 in present else []), False
    return _parse_int_list(raw), True


def _write_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _windows(frames, config, stats) -> features.WindowedDataset:
    """``build_dataset`` that raises, naming the window and every profile's
    length, when no profile is long enough for one window."""
    dataset = features.build_dataset(frames, config, stats=stats)
    if dataset.n_windows == 0:
        lengths = ", ".join(f"{f.profile_id}: {f.n_samples}" for f in frames)
        raise dataio.ConfigError(
            f"no windows: every profile is shorter than the window of "
            f"{config.window} samples (samples per profile: {lengths})"
        )
    return dataset


def cmd_synth(args, parser) -> int:
    file_cfg = _load_file_config(args)
    seed = int(_merged(args, file_cfg, "seed", 0))
    frames = dataio.synthesize(
        seed=seed,
        profiles=int(_merged(args, file_cfg, "profiles", 3)),
        length=int(_merged(args, file_cfg, "length", 600)),
    )
    dataio.save_csv(frames, args.out)
    print(f"wrote {sum(len(f) for f in frames)} rows "
          f"({len(frames)} profiles) to {args.out}")
    return 0


def cmd_featurize(args, parser) -> int:
    file_cfg = _load_file_config(args)
    seed = int(_merged(args, file_cfg, "seed", 0))
    config = _feature_config(args, file_cfg)
    frames = _load_frames(args, file_cfg, parser.error, seed)
    stats = features.fit_standardization(frames, config)
    dataset = _windows(frames, config, stats)
    inputs, targets = dataset.gather(np.arange(dataset.n_windows))
    os.makedirs(args.out, exist_ok=True)
    np.save(os.path.join(args.out, "inputs.npy"), inputs)
    np.save(os.path.join(args.out, "targets.npy"), targets)
    with open(os.path.join(args.out, "provenance.csv"), "w") as fh:
        fh.write("profile_id,end_index\n")
        for pid, end in dataset.provenance():
            fh.write(f"{pid},{end}\n")
    _write_json(os.path.join(args.out, "stats.json"), stats.to_dict())
    _write_json(os.path.join(args.out, "config.json"), config.to_dict())
    print(f"wrote {dataset.n_windows} windows x {config.channel_count()} "
          f"channels to {args.out}")
    return 0


def cmd_train(args, parser) -> int:
    file_cfg = _load_file_config(args)
    seed = int(_merged(args, file_cfg, "seed", 0))
    variant = _merged(args, file_cfg, "variant", "attention")
    feature_config = _feature_config(args, file_cfg)
    frames = _load_frames(args, file_cfg, parser.error, seed)
    test_ids, explicit = _resolve_test_ids(args, file_cfg, frames)
    split = dataio.split(frames, test_ids) if (test_ids or explicit) \
        else dataio.DatasetSplit(train=list(frames))

    clip = _merged(args, file_cfg, "clip_norm", 5.0)
    clip = None if clip in (0, 0.0, "none", None) else float(clip)
    train_config = training.TrainConfig(
        batch_size=int(_merged(args, file_cfg, "batch_size", 256)),
        learning_rate=float(_merged(args, file_cfg, "learning_rate", 5e-4)),
        epochs_per_group=int(_merged(args, file_cfg, "epochs_per_group", 25)),
        group_count=int(_merged(args, file_cfg, "groups", 4)),
        fine_tune_profiles=int(_merged(args, file_cfg, "fine_tune_profiles", 8)),
        fine_tune_epochs=_merged(args, file_cfg, "fine_tune_epochs", None),
        seed=seed,
        clip_norm=clip,
    )
    hidden = int(_merged(args, file_cfg, "hidden", 100))

    os.makedirs(args.out, exist_ok=True)
    effective = {
        "command": "train",
        "variant": variant,
        "seed": seed,
        "hidden": hidden,
        "test_profiles": test_ids,
        "data": _merged(args, file_cfg, "data", None),
        "synth": bool(_merged(args, file_cfg, "synth", False)),
        "synth_profiles": int(_merged(args, file_cfg, "synth_profiles", 3)),
        "synth_length": int(_merged(args, file_cfg, "synth_length", 600)),
        "features": feature_config.to_dict(),
        "training": {
            "batch_size": train_config.batch_size,
            "learning_rate": train_config.learning_rate,
            "beta1": train_config.beta1,
            "beta2": train_config.beta2,
            "eps": train_config.eps,
            "epochs_per_group": train_config.epochs_per_group,
            "group_count": train_config.group_count,
            "fine_tune_profiles": train_config.fine_tune_profiles,
            "fine_tune_epochs": train_config.fine_tune_epochs,
            "clip_norm": train_config.clip_norm,
        },
    }
    _write_json(os.path.join(args.out, "config.json"), effective)

    params, logs = training.train_grouped(
        split, feature_config, variant, train_config, hidden=hidden
    )

    log_path = os.path.join(args.out, "train_log.jsonl")
    with open(log_path, "w") as fh:
        for record in logs:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")

    stats = features.fit_standardization(split.train, feature_config)
    ckpt_path = os.path.join(args.out, "checkpoint.bin")
    ckpt.save_checkpoint(params, stats, ckpt_path, feature_config=feature_config)
    print(f"checkpoint: {ckpt_path}")
    print(f"training log: {log_path}")

    if split.test:
        dataset = features.build_dataset(split.test, feature_config, stats=stats)
        if dataset.n_windows > 0:
            report = evaluation.evaluate(params, dataset, stats,
                                         batch_size=train_config.batch_size)
            print(report.to_text())
    return 0


def cmd_evaluate(args, parser) -> int:
    file_cfg = _load_file_config(args)
    seed = int(_merged(args, file_cfg, "seed", 0))
    expect = _merged(args, file_cfg, "variant", None)
    params, stats, feature_config = ckpt.load_checkpoint(
        args.checkpoint, expect_variant=expect
    )
    if feature_config is None or stats is None:
        raise ckpt.CheckpointError(
            f"{args.checkpoint}: checkpoint lacks feature configuration or "
            "statistics; cannot rebuild the input pipeline"
        )
    frames = _load_frames(args, file_cfg, parser.error, seed)
    test_ids, _ = _resolve_test_ids(args, file_cfg, frames)
    if not test_ids:
        available = ", ".join(str(f.profile_id) for f in frames)
        raise dataio.ConfigError(
            f"no held-out profiles selected; pass --test-profiles "
            f"(available: {available})"
        )
    chosen = dataio.split(frames, test_ids).test
    dataset = _windows(chosen, feature_config, stats)
    batch_size = int(_merged(args, file_cfg, "batch_size", 256))
    actual, predicted = evaluation.collect_predictions(
        params, dataset, stats, batch_size=batch_size
    )
    report = evaluation.compute_metrics(actual, predicted)

    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "report.json"), report.to_dict())
    with open(os.path.join(args.out, "report.txt"), "w") as fh:
        fh.write(report.to_text())
        fh.write("\n")
    evaluation.write_traces(args.out, dataset.provenance(), actual, predicted)
    print(report.to_text())
    return 0


def cmd_predict(args, parser) -> int:
    file_cfg = _load_file_config(args)
    seed = int(_merged(args, file_cfg, "seed", 0))
    params, stats, feature_config = ckpt.load_checkpoint(args.checkpoint)
    if feature_config is None or stats is None:
        raise ckpt.CheckpointError(
            f"{args.checkpoint}: checkpoint lacks feature configuration or "
            "statistics; cannot rebuild the input pipeline"
        )
    frames = _load_frames(args, file_cfg, parser.error, seed)
    dataset = _windows(frames, feature_config, stats)
    _, predicted = evaluation.collect_predictions(params, dataset, stats)
    prov = dataset.provenance()
    with open(args.out, "w") as fh:
        fh.write("profile_id,end_index,"
                 + ",".join(f"pred_{t}" for t in features.TARGETS) + "\n")
        for k, (pid, end) in enumerate(prov):
            vals = ",".join(repr(float(v)) for v in predicted[k])
            fh.write(f"{pid},{end},{vals}\n")
    print(f"wrote {len(prov)} predictions to {args.out}")
    return 0


def cmd_inspect(args, parser) -> int:
    params, stats, feature_config = ckpt.load_checkpoint(args.checkpoint)
    window = feature_config.window if feature_config else 180
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
        print(f"standardization: {len(stats.channel_names)} channels, targets "
              + ("scaled" if stats.standardize_targets else "raw"))
    if feature_config is not None:
        print(f"features: window {feature_config.window}, stride "
              f"{feature_config.stride}, spans {list(feature_config.spans)}, "
              f"synthetic {list(feature_config.synthetic)}")
    return 0


_RUNTIME_ERRORS = (
    ValueError,          # shape/contract/schema/parse/config errors
    RuntimeError,        # training and checkpoint errors
    OSError,
)


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
