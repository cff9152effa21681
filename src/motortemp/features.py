"""Feature engineering: derived electrical quantities, EWMA banks, windows.

The model never sees raw sensor columns directly.  Each profile is expanded
into a fixed channel layout: the predictor attributes plus six derived
electrical quantities, each as the raw series and as exponentially weighted
moving averages at four spans.  With the defaults that is (7 + 6) * (1 + 4)
= 65 channels.  Channels are standardized with statistics fitted on training
profiles only; targets stay in degrees Celsius until the training loop.
"""

from __future__ import annotations

import numbers
import sys
import warnings
from collections import Counter
from dataclasses import dataclass, fields, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataio import ConfigError, ProfileFrame, SchemaError, one_pole

__all__ = [
    "PREDICTORS",
    "TARGETS",
    "SYNTHETIC_SETS",
    "DEFAULT_SPANS",
    "FeatureConfig",
    "Standardization",
    "WindowedDataset",
    "UndefinedCorrelationError",
    "derive_synthetic",
    "ewma",
    "avg_abs_correlation",
    "channel_matrix",
    "target_matrix",
    "fit_standardization",
    "build_dataset",
]

# Input attributes fed to the models, in channel order.
PREDICTORS = ("ambient", "coolant", "u_d", "u_q", "i_d", "i_q", "motor_speed")

# Temperatures the models predict, in output order.
TARGETS = ("stator_winding", "stator_tooth", "stator_yoke", "pm")

# Named selections of derived electrical quantities.
SYNTHETIC_SETS = {
    "imc-smc": ("U", "I", "S", "P", "IMC", "SMC"),
    "imm-smm": ("U", "I", "S", "P", "IMM", "SMM"),
    "all": ("U", "I", "S", "P", "IMM", "SMM", "IMC", "SMC"),
}

DEFAULT_SYNTHETIC_SET = "imc-smc"
DEFAULT_SYNTHETIC = SYNTHETIC_SETS[DEFAULT_SYNTHETIC_SET]

# Smoothing spans in samples (11, 28, 53 and 79 minutes at 2 Hz).
DEFAULT_SPANS = (1320, 3360, 6360, 9480)

_SYNTHETIC_SOURCES = ("u_d", "u_q", "i_d", "i_q", "motor_speed", "coolant")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class UndefinedCorrelationError(ValueError):
    """Correlation against a zero-variance series is undefined."""


@dataclass(frozen=True)
class FeatureConfig:
    """Channel layout and windowing choices, hashable and serializable."""

    predictors: tuple = PREDICTORS
    synthetic: tuple = DEFAULT_SYNTHETIC
    spans: tuple = DEFAULT_SPANS
    window: int = 180
    stride: int = 1

    def __post_init__(self):
        object.__setattr__(self, "predictors", tuple(self.predictors))
        if not all(isinstance(p, str) for p in self.predictors):
            raise ValueError(
                f"predictors must be attribute names, got {self.predictors!r}")
        object.__setattr__(self, "synthetic", tuple(self.synthetic))
        if not all(_is_int(s) for s in self.spans):
            raise ValueError(
                f"spans must be integer numbers of samples, got {self.spans!r}")
        object.__setattr__(self, "spans", tuple(int(s) for s in self.spans))
        unknown = [s for s in self.synthetic if s not in SYNTHETIC_SETS["all"]]
        if unknown:
            raise ValueError(f"unknown synthetic quantities: {unknown}")
        # Sample counts index int64 arrays, so each must fit one.
        if not all(1 <= s < 2 ** 63 for s in self.spans):
            raise ValueError(f"spans must be positive and below 2**63, got {self.spans}")
        if list(self.spans) != sorted(set(self.spans)):
            raise ValueError(f"spans must be strictly increasing, got {self.spans}")
        for name in ("window", "stride"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(
                    f"{name} must be an integer number of samples, got {value!r}"
                )
            if not 1 <= value < 2 ** 63:
                raise ValueError(f"{name} must be at least 1 and below 2**63, got {value}")
            object.__setattr__(self, name, int(value))

    @classmethod
    def with_synthetic_set(cls, name: str, **kwargs) -> "FeatureConfig":
        if name not in SYNTHETIC_SETS:
            raise ValueError(
                f"unknown synthetic set {name!r}; choose from {sorted(SYNTHETIC_SETS)}"
            )
        return cls(synthetic=SYNTHETIC_SETS[name], **kwargs)

    def attribute_names(self) -> tuple:
        return self.predictors + self.synthetic

    def channel_count(self) -> int:
        return len(self.attribute_names()) * (1 + len(self.spans))

    def channel_names(self) -> list[str]:
        attrs = self.attribute_names()
        names = list(attrs)
        for span in self.spans:
            names.extend(f"{a}_ewma{span}" for a in attrs)
        return names

    def to_dict(self) -> dict:
        return {
            "predictors": list(self.predictors),
            "synthetic": list(self.synthetic),
            "spans": list(self.spans),
            "window": self.window,
            "stride": self.stride,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureConfig":
        """Rebuild from ``to_dict`` output, older files' keys included;
        raises ValueError naming any key ``to_dict`` writes that is missing."""
        d = _drop_retired(d)
        missing = [f.name for f in fields(cls) if f.name not in d]
        if missing:
            raise ValueError(f"missing keys: {', '.join(missing)}")
        return cls(**d)


# Keys that older files may carry, with why ``true`` is their only value.
_RETIRED_KEYS = {
    "include_raw": "the raw attributes are always the first channel block",
    "standardize_targets": "targets are always standardized for training "
                           "and reported in degrees Celsius",
}


def _drop_retired(d: dict) -> dict:
    """A copy of ``d`` without its retired keys; raises ValueError, naming
    the key, when one holds anything but ``true``."""
    d = dict(d)
    for key, reason in _RETIRED_KEYS.items():
        value = d.pop(key, True)
        if value is not True:
            raise ValueError(f"{key} {value!r} is not supported: {reason}")
    return d


def derive_synthetic(frame: ProfileFrame, selection=DEFAULT_SYNTHETIC) -> ProfileFrame:
    """Add derived electrical quantities as new columns on a copied frame.

    U, I are the dq-frame voltage and current magnitudes, S = U*I the
    apparent power, P = u_d*i_d + u_q*i_q the active power; IMM/SMM multiply
    current and apparent power with motor speed, IMC/SMC with the coolant
    temperature.
    """
    frame.require(_SYNTHETIC_SOURCES)
    c = frame.columns
    voltage = np.hypot(c["u_d"], c["u_q"])
    current = np.hypot(c["i_d"], c["i_q"])
    apparent = voltage * current
    formulas = {
        "U": voltage,
        "I": current,
        "S": apparent,
        "P": c["u_d"] * c["i_d"] + c["u_q"] * c["i_q"],
        "IMM": current * c["motor_speed"],
        "SMM": apparent * c["motor_speed"],
        "IMC": current * c["coolant"],
        "SMC": apparent * c["coolant"],
    }
    unknown = [s for s in selection if s not in formulas]
    if unknown:
        raise ValueError(f"unknown synthetic quantities: {unknown}")
    cols = dict(frame.columns)
    for name in selection:
        cols[name] = formulas[name]
    return ProfileFrame(frame.profile_id, cols, sample_period=frame.sample_period)


def ewma(series, span: int) -> np.ndarray:
    """Exponentially weighted moving average with finite-history weights.

    With alpha = 2 / (span + 1), entry t is

        sum_{i=0..t} (1-alpha)^i x[t-i]  /  sum_{i=0..t} (1-alpha)^i

    i.e. the weights are renormalized over the samples actually seen, so
    early entries are unbiased instead of damped toward zero.  Numerator and
    denominator are each a one-pole scan ``y[t] = (1-alpha) y[t-1] + x[t]``
    (``dataio.one_pole``), the denominator over a series of ones, so entry 0
    is exactly x[0] and span 1 returns the series unchanged.
    """
    if span < 1:
        raise ValueError(f"span must be a positive sample count, got {span}")
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"ewma expects a 1-D series, got shape {x.shape}")
    return _ewma_columns(x[:, None], span)[:, 0]


def _ewma_columns(columns: np.ndarray, span: int, out=None) -> np.ndarray:
    """``ewma`` of every column of an (n, k) block, scanned together."""
    decay = 1.0 - 2.0 / (span + 1.0)
    num = one_pole(columns, decay)
    den = one_pole(np.ones(len(columns)), decay)
    return np.divide(num, den[:, None], out=out)


def avg_abs_correlation(frames, candidate: str, targets=TARGETS) -> float:
    """Mean absolute Pearson correlation of one attribute against the targets.

    Series are concatenated across the given frames before correlating.
    """
    frames = list(frames)
    if not frames:
        raise ValueError("avg_abs_correlation: no frames given")
    for f in frames:
        f.require((candidate, *targets))
    cand = np.concatenate([f.columns[candidate] for f in frames])
    if np.std(cand) == 0.0:
        raise UndefinedCorrelationError(
            f"attribute {candidate!r} has zero variance"
        )
    total = 0.0
    for tname in targets:
        tgt = np.concatenate([f.columns[tname] for f in frames])
        if np.std(tgt) == 0.0:
            raise UndefinedCorrelationError(
                f"attribute {tname!r} has zero variance"
            )
        r = np.corrcoef(cand, tgt)[0, 1]
        total += abs(r)
    return total / len(targets)


def channel_matrix(frame: ProfileFrame, config: FeatureConfig) -> np.ndarray:
    """The (n_samples, channel_count) feature block for one profile.

    Columns follow ``config.channel_names()``: the raw attributes first,
    then one EWMA block per span.  Smoothing never crosses the profile
    boundary because it only ever sees this frame's series.
    """
    names = config.attribute_names()
    augmented = derive_synthetic(frame, config.synthetic)
    augmented.require(names)
    n, k = frame.n_samples, len(names)
    out = np.empty((n, config.channel_count()))
    attrs = out[:, :k]
    for j, name in enumerate(names):
        attrs[:, j] = augmented.columns[name]
    for i, span in enumerate(config.spans):
        start = (i + 1) * k
        _ewma_columns(attrs, span, out=out[:, start:start + k])
    return out


def target_matrix(frame: ProfileFrame) -> np.ndarray:
    """The (n_samples, 4) temperature block in output order."""
    frame.require(TARGETS)
    return np.column_stack([frame.columns[t] for t in TARGETS])


@dataclass
class Standardization:
    """Affine per-channel transform fitted on training profiles."""

    channel_names: tuple
    channel_mean: np.ndarray
    channel_std: np.ndarray
    target_names: tuple
    target_mean: np.ndarray
    target_std: np.ndarray

    def transform_targets(self, t: np.ndarray) -> np.ndarray:
        return (t - self.target_mean) / self.target_std

    def untransform_predictions(self, p: np.ndarray) -> np.ndarray:
        return p * self.target_std + self.target_mean

    def to_dict(self) -> dict:
        return {
            "channel_names": list(self.channel_names),
            "channel_mean": self.channel_mean.tolist(),
            "channel_std": self.channel_std.tolist(),
            "target_names": list(self.target_names),
            "target_mean": self.target_mean.tolist(),
            "target_std": self.target_std.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Standardization":
        """Rebuild from ``to_dict`` output; raises ValueError, naming the
        field, when a mean or std is not one finite number per name (a std
        at least ``STD_FLOOR``) or a retired key is not ``true``."""
        d = _drop_retired(d)
        arrays = {}
        for kind in ("channel", "target"):
            count = len(d[f"{kind}_names"])
            for name, least in ((f"{kind}_mean", ""),
                                (f"{kind}_std", f" of at least {STD_FLOOR:g}")):
                shape = np.shape(d[name])
                if shape != (count,):
                    raise ValueError(
                        f"{name} has shape {shape}, expected one "
                        f"entry for each of the {count} {kind}_names"
                    )
                # Checked before asarray, which reads null as nan, true as 1,
                # "2" as 2 and raises OverflowError for a 400-digit integer.
                for i, value in enumerate(d[name]):
                    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                            or not abs(value) <= sys.float_info.max
                            or (least and value < STD_FLOOR)):
                        raise ValueError(
                            f"{name}[{i}] is {value!r}, not a finite number{least}")
                arrays[name] = np.asarray(d[name], dtype=np.float64)
        return cls(channel_names=tuple(d["channel_names"]),
                   target_names=tuple(d["target_names"]), **arrays)


# Constant channels would otherwise divide by zero; anything below this
# floor is treated as degenerate and left unscaled in practice.
STD_FLOOR = 1e-8


def _tables(frames, config: FeatureConfig):
    """(channels, targets, offsets): each frame's rows in turn in one channel
    and one target table; frame i holds rows ``offsets[i]:offsets[i + 1]``."""
    offsets = np.cumsum([0, *(f.n_samples for f in frames)])
    channels = np.empty((offsets[-1], config.channel_count()))
    targets = np.empty((offsets[-1], len(TARGETS)))
    for frame, at, end in zip(frames, offsets, offsets[1:]):
        channels[at:end] = channel_matrix(frame, config)
        targets[at:end] = target_matrix(frame)
    return channels, targets, offsets


def fit_standardization(frames, config: FeatureConfig) -> Standardization:
    """Fit per-channel and per-target statistics over the given frames."""
    frames = list(frames)
    if not frames:
        raise ValueError("fit_standardization: no frames given")
    chans, tgts, _ = _tables(frames, config)
    channel_mean, channel_std = _mean_std(chans)
    target_mean, target_std = _mean_std(tgts)
    return Standardization(
        channel_names=tuple(config.channel_names()),
        channel_mean=channel_mean,
        channel_std=np.maximum(channel_std, STD_FLOOR),
        target_names=TARGETS,
        target_mean=target_mean,
        target_std=np.maximum(target_std, STD_FLOOR),
    )


def _mean_std(table):
    """``table.mean(axis=0)`` and ``table.std(axis=0)``, bit for bit, without
    the std's temporary of the table's size: the squared deviations are
    summed 8,192 rows at a time onto a running row, in the row order
    numpy's axis-0 sum adds them."""
    mean = table.mean(axis=0)
    acc = np.zeros((1, table.shape[1]))
    for at in range(0, len(table), 8192):
        d = table[at:at + 8192] - mean
        d *= d
        acc = np.add.reduce(np.concatenate([acc, d]), axis=0, keepdims=True)
    return mean, np.sqrt(acc[0] / len(table))


@dataclass
class WindowedDataset:
    """Each kept profile's rows in turn in one table, and per-window arrays:
    window k is the ``window`` rows from ``starts[k]`` and ends at sample
    ``end_index[k]`` of profile ``profile_ids[k]``.  Windows are gathered
    on demand, so no (window, channels) slice is held before it is asked for.
    """

    channels: np.ndarray     # (samples, channels), standardized
    targets: np.ndarray      # (samples, len(TARGETS)), degrees Celsius
    window: int
    starts: np.ndarray       # (windows,) first table row of each window
    profile_ids: np.ndarray  # (windows,)
    end_index: np.ndarray    # (windows,) last sample, counted in its profile

    @property
    def n_windows(self) -> int:
        return len(self.starts)

    def gather(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """Materialize the requested windows as (inputs, targets) arrays."""
        starts = self.starts[np.asarray(idx, dtype=np.intp)]
        # A read-only view whose entry s is table rows s:s + window; each
        # window is one contiguous block of the table, copied as such.
        windows = sliding_window_view(self.channels, (self.window, self.channels.shape[1]))
        inputs = windows[starts, 0]
        targets = self.targets[starts + (self.window - 1)]
        return inputs, targets[:, None, :]

    def provenance(self) -> tuple[np.ndarray, np.ndarray]:
        """(profile_ids, end_index) of every window, in window order."""
        return self.profile_ids, self.end_index

    def select(self, profile_ids) -> "WindowedDataset":
        """The windows of the given profiles, in window order, over the
        same tables."""
        keep = np.isin(self.profile_ids, list(profile_ids))
        return replace(self, starts=self.starts[keep],
                       profile_ids=self.profile_ids[keep],
                       end_index=self.end_index[keep])


def build_dataset(frames, config: FeatureConfig,
                  stats: Standardization) -> WindowedDataset:
    """Featurize frames into one window table, channels standardized with
    ``stats`` and targets in degrees Celsius.  Frames shorter than the window
    are skipped with a warning; a profile id given twice is a ConfigError.
    """
    frames = list(frames)
    repeated = [pid for pid, n in Counter(f.profile_id for f in frames).items() if n > 1]
    if repeated:
        raise ConfigError(f"profile ids given more than once: {repeated}")
    kept = []
    for frame in frames:
        if frame.n_samples >= config.window:
            kept.append(frame)
        else:
            warnings.warn(f"profile {frame.profile_id}: {frame.n_samples} samples is "
                          f"shorter than window {config.window}; skipped", stacklevel=2)
    channels, targets, offsets = _tables(kept, config)
    channels -= stats.channel_mean
    channels /= stats.channel_std
    # Window start offsets within each profile, then for the whole table.
    local = [np.arange(0, n - config.window + 1, config.stride) for n in np.diff(offsets)]
    counts = [len(s) for s in local]
    local = np.concatenate([np.empty(0, dtype=np.intp), *local])
    return WindowedDataset(
        channels, targets, config.window,
        starts=local + np.repeat(offsets[:-1], counts),
        profile_ids=np.repeat([f.profile_id for f in kept], counts),
        end_index=local + (config.window - 1),
    )
