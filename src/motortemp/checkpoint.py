"""Deterministic binary checkpoints.

Layout: a magic line, one JSON header line, then the raw parameter blocks as
little-endian float64 in the order params.items() yields them.  The header
carries the variant tag, the shape table, the feature configuration and
standardization statistics, and a CRC-32 of the blob.  Writing the same
model twice produces byte-identical files (json.dumps of round-trippable
floats is stable, and there are no timestamps anywhere).
"""

from __future__ import annotations

import json
import zlib

import numpy as np

from .autodiff import Matrix
from .features import TARGETS, FeatureConfig, Standardization
from .models import VARIANTS, ModelParams, params_from_items

__all__ = ["CheckpointError", "VariantMismatchError", "save_checkpoint", "load_checkpoint"]

MAGIC = b"MOTORTEMP-CKPT 1\n"


class CheckpointError(RuntimeError):
    """The file is not a readable checkpoint."""


class VariantMismatchError(CheckpointError):
    """The checkpoint holds a different architecture than requested."""


def save_checkpoint(params: ModelParams, stats: Standardization | None,
                    path, feature_config: FeatureConfig | None = None) -> None:
    items = params.items()
    blob = b"".join(
        np.ascontiguousarray(m.values, dtype="<f8").tobytes() for _, m in items
    )
    header = {
        "variant": params.variant,
        "input_dim": params.input_dim,
        "hidden": params.hidden,
        "output_dim": params.output_dim,
        "shapes": [[name, m.rows, m.cols] for name, m in items],
        "n_values": sum(m.rows * m.cols for _, m in items),
        "stats": stats.to_dict() if stats is not None else None,
        "feature_config": feature_config.to_dict() if feature_config else None,
        "crc32": zlib.crc32(blob),
    }
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(json.dumps(header, sort_keys=True, allow_nan=False).encode("ascii"))
        fh.write(b"\n")
        fh.write(blob)


def _parse_block(path, key: str, block, parse):
    try:
        return parse(block)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{path}: {key} block is malformed ({type(exc).__name__}: {exc})"
        ) from exc


def _is_shape_entry(entry) -> bool:
    """Whether ``entry`` is [name, rows, cols] with counts that are ints >= 0."""
    return (isinstance(entry, list) and len(entry) == 3
            and isinstance(entry[0], str)
            and all(type(n) is int and n >= 0 for n in entry[1:]))


def load_checkpoint(path, expect_variant: str | None = None):
    """Read a checkpoint back.

    Returns (params, stats, feature_config); the latter two are None when
    the file was saved without them.  Raises CheckpointError for anything
    that is not a well-formed checkpoint, including shape table entries
    that are not [name, rows, cols] (named), parameter blocks whose
    shapes do not fit the variant, non-finite parameter values, header
    dimensions or channel counts that disagree with the parameters, a
    ``stats`` or ``feature_config`` block that does not parse (named),
    ``stats`` targets other than ``TARGETS``, and ``stats`` channel names
    that differ from those of ``feature_config`` (the first one named), and
    VariantMismatchError when ``expect_variant`` disagrees with the stored
    tag.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(MAGIC):
        raise CheckpointError(f"{path}: not a model checkpoint")
    rest = raw[len(MAGIC):]
    nl = rest.find(b"\n")
    if nl < 0:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(rest[:nl])
    except (ValueError, UnicodeDecodeError):
        raise CheckpointError(f"{path}: corrupt header")
    blob = rest[nl + 1:]

    try:
        variant = header["variant"]
        shapes = header["shapes"]
        n_values = int(header["n_values"])
        crc = int(header["crc32"])
        dims = {key: int(header[key])
                for key in ("input_dim", "hidden", "output_dim")}
    except (KeyError, TypeError, ValueError):
        raise CheckpointError(f"{path}: header is missing required fields")
    if variant not in VARIANTS:
        raise CheckpointError(f"{path}: unknown variant {variant!r}")
    if expect_variant is not None and variant != expect_variant:
        raise VariantMismatchError(
            f"{path}: checkpoint holds {variant!r}, expected {expect_variant!r}"
        )
    if len(blob) != n_values * 8:
        raise CheckpointError(
            f"{path}: parameter blob is {len(blob)} bytes, expected {n_values * 8}"
        )
    if zlib.crc32(blob) != crc:
        raise CheckpointError(f"{path}: checksum mismatch")

    if not isinstance(shapes, list):
        raise CheckpointError(f"{path}: shape table is {shapes!r}, not a list")
    mapping = {}
    offset = 0
    for entry in shapes:
        if not _is_shape_entry(entry):
            raise CheckpointError(
                f"{path}: shape table entry {entry!r} is not "
                "[name, rows, cols] with non-negative integer rows and cols")
        name, rows, cols = entry
        count = rows * cols
        if offset + count > n_values:
            raise CheckpointError(
                f"{path}: shape table entry {entry!r} runs past the "
                f"{n_values} stored values")
        arr = np.frombuffer(
            blob, dtype="<f8", count=count, offset=offset * 8
        ).astype(np.float64).reshape(rows, cols)
        if not np.isfinite(arr).all():
            raise CheckpointError(
                f"{path}: parameter block {name} holds non-finite values"
            )
        mapping[name] = Matrix._wrap(np.ascontiguousarray(arr))
        offset += count
    if offset != n_values:
        raise CheckpointError(f"{path}: shape table disagrees with blob size")
    try:
        params = params_from_items(variant, mapping)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}")
    for key, want in dims.items():
        got = getattr(params, key)
        if got != want:
            raise CheckpointError(
                f"{path}: header gives {key} {want}, the parameters {got}"
            )

    def channels_fit(key, count):
        if count != params.input_dim:
            raise CheckpointError(
                f"{path}: {key} gives {count} channels, the model expects "
                f"{params.input_dim}"
            )

    stats = feature_config = None
    if header.get("stats"):
        # The names are held against the model before the statistics are
        # held against the names, so a lost name is reported as such.
        channels_fit("stats", _parse_block(path, "stats", header["stats"],
                                           lambda d: len(d["channel_names"])))
        stats = _parse_block(path, "stats", header["stats"],
                             Standardization.from_dict)
    if header.get("feature_config"):
        feature_config = _parse_block(path, "feature_config",
                                      header["feature_config"],
                                      FeatureConfig.from_dict)
        channels_fit("feature_config", feature_config.channel_count())
    if stats is not None and stats.target_names != TARGETS:
        raise CheckpointError(
            f"{path}: stats gives targets {list(stats.target_names)}, the model "
            f"predicts {list(TARGETS)}")
    if stats is not None and feature_config is not None:
        names = zip(stats.channel_names, feature_config.channel_names())
        for i, (got, want) in enumerate(names):
            if got != want:
                raise CheckpointError(
                    f"{path}: stats channel {i} is {got!r}, feature_config "
                    f"channel {i} is {want!r}")
    return params, stats, feature_config
