"""Mini-batch training with Adam and the grouped profile curriculum.

Long recordings do not fit one giant shuffled epoch comfortably, so training
walks the profiles in a few contiguous groups, runs a fixed number of epochs
on each, and finishes with a fine-tuning phase over a random sample of
profiles.  All shuffling and sampling comes from one seeded generator, so a
(config, seed) pair fully determines the run: repeated runs produce
bit-identical parameters and log records.

Losses are reported in standardized target units (the units the optimizer
sees).  Timing information is deliberately kept out of the returned log so
the record stays reproducible; callers that want wall-time print it to
stderr themselves.
"""

from __future__ import annotations

import math
import numbers
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Matrix, ShapeError, Tape, mse
from .dataio import ConfigError, DatasetSplit
from .features import (
    FeatureConfig,
    WindowedDataset,
    build_dataset,
    fit_standardization,
)
from .models import ModelParams, count_params, forward_for_training, init_params, predict

__all__ = [
    "TrainConfig",
    "AdamState",
    "TrainingError",
    "mse_loss",
    "adam_step",
    "epoch_batches",
    "partition_groups",
    "train_grouped",
]


class TrainingError(RuntimeError):
    """The optimizer was fed something it cannot recover from."""


@dataclass
class TrainConfig:
    """Optimizer and curriculum knobs; defaults match the reference setup."""

    batch_size: int = 256
    learning_rate: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs_per_group: int = 25
    group_count: int = 4
    fine_tune_profiles: int = 8
    fine_tune_epochs: int | None = None  # None: same as epochs_per_group
    seed: int = 0
    clip_norm: float | None = 5.0

    def __post_init__(self):
        for name in ("batch_size", "epochs_per_group", "group_count",
                     "fine_tune_profiles", "fine_tune_epochs", "seed"):
            value = getattr(self, name)
            if value is None and name == "fine_tune_epochs":
                continue
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
        for name in ("learning_rate", "beta1", "beta2", "eps", "clip_norm"):
            value = getattr(self, name)
            if value is None and name == "clip_norm":
                continue
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            setattr(self, name, float(value))
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate!r}"
            )
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("beta1 and beta2 must lie in [0, 1)")
        # eps guards Adam's division; at 0 a block with zero gradient
        # computes 0/0 and turns its parameters into NaN.
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ConfigError(f"eps must be positive and finite, got {self.eps!r}")
        if self.epochs_per_group < 1:
            raise ConfigError("epochs_per_group must be at least 1")
        if self.group_count < 1:
            raise ConfigError("group_count must be at least 1")
        if self.fine_tune_profiles < 0:
            raise ConfigError("fine_tune_profiles must be non-negative")
        if self.fine_tune_epochs is not None and self.fine_tune_epochs < 0:
            raise ConfigError("fine_tune_epochs must be non-negative when set")
        # A NaN bound would switch clipping off: `norm > nan` is never true.
        if self.clip_norm is not None and not (
            math.isfinite(self.clip_norm) and self.clip_norm > 0
        ):
            raise ConfigError(
                f"clip_norm must be positive and finite when set, got {self.clip_norm!r}"
            )


@dataclass
class AdamState:
    """First and second moment accumulators, one of each per block of
    ``params.matrices()``, in that order."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        shapes = [mat.shape for mat in params.matrices()]
        return cls([np.zeros(s) for s in shapes], [np.zeros(s) for s in shapes])


def mse_loss(predictions, targets) -> float:
    """Mean of squared errors over every entry of two equal-shape arrays."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise ShapeError(f"mse_loss: shapes {p.shape} and {t.shape} differ")
    if p.size == 0:
        raise ShapeError("mse_loss: empty arrays")
    d = p - t
    return float(np.mean(d * d))


def adam_step(params: ModelParams, grads, state: AdamState,
              config: TrainConfig) -> None:
    """One bias-corrected Adam update, in place.

    With t the incremented step count and g the (possibly clipped) gradient:

        m <- beta1 m + (1-beta1) g        m_hat = m / (1 - beta1^t)
        v <- beta2 v + (1-beta2) g^2      v_hat = v / (1 - beta2^t)
        theta <- theta - lr * m_hat / (sqrt(v_hat) + eps)

    ``grads`` holds one block per block of ``params.matrices()``, in that
    order and of the same shapes; any non-finite gradient aborts the step
    and names its gate block.  When ``clip_norm`` is set the whole gradient
    is rescaled so its global L2 norm, summed over the gate blocks of
    ``params.items()`` in order, does not exceed it.
    """
    mats = params.matrices()
    names = params.block_names()
    gs = [g.values if isinstance(g, Matrix) else np.asarray(g, dtype=np.float64)
          for g in grads]
    if len(gs) != len(names):
        raise TrainingError(
            f"gradient blocks misaligned: {len(gs)} given for the "
            f"{len(names)} parameter blocks; "
            + (f"missing {names[len(gs):]}" if len(gs) < len(names)
               else f"unexpected blocks past {names[-1]}")
        )
    for name, mat, arr in zip(names, mats, gs):
        if arr.shape != mat.shape:
            raise TrainingError(
                f"gradient block {name!r} has shape {arr.shape}, its "
                f"parameter {mat.shape}"
            )
    if [a.shape for a in state.m + state.v] != [m.shape for m in mats] * 2:
        raise TrainingError(
            "Adam moments do not fit the parameter blocks; build the state "
            "with AdamState.for_params"
        )
    gate_grads = params.per_gate(Matrix._wrap(a) for a in gs)
    if not all(np.isfinite(a).all() for a in gs):
        name = next(name for name, g in gate_grads
                    if not np.isfinite(g.values).all())
        raise TrainingError(f"non-finite gradient in block {name!r}")

    if config.clip_norm is not None:
        total = np.sqrt(sum(float((g.values * g.values).sum())
                            for _, g in gate_grads))
        if total > config.clip_norm:
            factor = config.clip_norm / total
            gs = [a * factor for a in gs]

    state.step += 1
    t = state.step
    correct1 = 1.0 - config.beta1 ** t
    correct2 = 1.0 - config.beta2 ** t
    for mat, grad, m_all, v_all in zip(mats, gs, state.m, state.v):
        # Rows of about 32k entries at a time keep the temporaries in cache.
        chunk = max(1, 32768 // mat.cols)
        for at in range(0, mat.rows, chunk):
            rows = slice(at, at + chunk)
            g, m, v, theta = grad[rows], m_all[rows], v_all[rows], mat.values[rows]
            m *= config.beta1
            m += (1.0 - config.beta1) * g
            v *= config.beta2
            v += (1.0 - config.beta2) * (g * g)
            update = (m / correct1) / (np.sqrt(v / correct2) + config.eps)
            theta -= config.learning_rate * update


def epoch_batches(n_windows: int, batch_size: int, rng: np.random.Generator):
    """Seeded random batches covering every window index exactly once."""
    perm = rng.permutation(n_windows)
    return [perm[i:i + batch_size] for i in range(0, n_windows, batch_size)]


def partition_groups(frames: list, group_count: int) -> list[list]:
    """Split profiles into contiguous groups of near-equal size."""
    n = len(frames)
    if n < group_count:
        raise ConfigError(
            f"cannot split {n} profiles into {group_count} non-empty groups"
        )
    base, extra = divmod(n, group_count)
    groups, at = [], 0
    for k in range(group_count):
        size = base + (1 if k < extra else 0)
        groups.append(frames[at:at + size])
        at += size
    return groups


def _train_step(params, state, cfg, stats, inputs, raw_targets):
    targets = stats.transform_targets(raw_targets.reshape(len(inputs), -1))
    with Tape() as tape:
        pred = forward_for_training(params, inputs)
        loss = mse(pred, Matrix._wrap(targets))
    leaves = params.matrices()
    gradmap = tape.backward(loss, wrt=leaves)
    adam_step(params, [gradmap[tape.node_id(m)] for m in leaves], state, cfg)
    return float(loss.values[0, 0])


def _dataset_loss(params, dataset: WindowedDataset, stats, batch_size: int) -> float:
    total, count = 0.0, 0
    for at in range(0, dataset.n_windows, batch_size):
        idx = np.arange(at, min(at + batch_size, dataset.n_windows))
        inputs, raw = dataset.gather(idx)
        pred = predict(params, inputs).reshape(len(idx), -1)
        targets = stats.transform_targets(raw.reshape(len(idx), -1))
        d = pred - targets
        total += float((d * d).sum())
        count += d.size
    return total / count


def _run_phase(params, state, cfg, stats, dataset, heldout, label, epochs,
               rng, logs, stop_below=None):
    for _ in range(epochs):
        epoch = len(logs) + 1
        started = time.perf_counter()
        total, count = 0.0, 0
        for idx in epoch_batches(dataset.n_windows, cfg.batch_size, rng):
            inputs, raw = dataset.gather(idx)
            loss = _train_step(params, state, cfg, stats, inputs, raw)
            total += loss * len(idx)
            count += len(idx)
        train_loss = total / count
        eval_loss = (
            _dataset_loss(params, heldout, stats, cfg.batch_size)
            if heldout.n_windows > 0 else None
        )
        logs.append({
            "epoch": epoch,
            "group": label,
            "train_loss": train_loss,
            "eval_loss": eval_loss,
        })
        print(
            f"[{label}] epoch {epoch}: train {train_loss:.6f}"
            + (f" eval {eval_loss:.6f}" if eval_loss is not None else "")
            + f" ({time.perf_counter() - started:.1f}s)",
            file=sys.stderr,
        )
        if stop_below is not None and train_loss < stop_below:
            break


def train_grouped(split: DatasetSplit, feature_config: FeatureConfig,
                  variant: str, config: TrainConfig, hidden: int = 100,
                  stop_below: float | None = None):
    """Train a fresh model over grouped profiles, then fine-tune.

    The training profiles are walked in ``group_count`` contiguous groups
    for ``epochs_per_group`` epochs each, followed by a fine-tuning phase on
    a seeded random sample of ``fine_tune_profiles`` training profiles.
    Standardization statistics and one window table are built once from all
    training profiles; each group and the fine-tuning sample select their
    windows from that table, and the held-out evaluation after each epoch
    reuses the statistics.

    ``stop_below`` optionally ends a phase early once its epoch training
    loss falls under the threshold (useful for smoke runs); the default is
    to run every epoch.

    Returns (params, logs) where logs is a list of per-epoch records with
    keys epoch, group, train_loss and eval_loss.
    """
    if not split.train:
        raise ConfigError("train_grouped: no training profiles")
    groups = partition_groups(split.train, config.group_count)

    stats = fit_standardization(split.train, feature_config)
    heldout = build_dataset(split.test, feature_config, stats=stats)
    table = build_dataset(split.train, feature_config, stats=stats)

    params = init_params(
        variant, config.seed,
        input_dim=feature_config.channel_count(), hidden=hidden,
    )
    state = AdamState.for_params(params)
    rng = np.random.default_rng(config.seed)
    logs: list[dict] = []

    for gi, group in enumerate(groups, start=1):
        dataset = table.select(f.profile_id for f in group)
        if dataset.n_windows == 0:
            raise ConfigError(
                f"group {gi} has no windows; profiles shorter than the "
                f"window {feature_config.window}?"
            )
        _run_phase(params, state, config, stats, dataset, heldout,
                   f"group-{gi}", config.epochs_per_group, rng, logs,
                   stop_below=stop_below)

    ft_epochs = (
        config.fine_tune_epochs
        if config.fine_tune_epochs is not None else config.epochs_per_group
    )
    n_sample = min(config.fine_tune_profiles, len(split.train))
    if n_sample > 0 and ft_epochs > 0:
        picked = rng.choice(len(split.train), size=n_sample, replace=False)
        dataset = table.select(split.train[i].profile_id for i in picked)
        if dataset.n_windows > 0:
            _run_phase(params, state, config, stats, dataset, heldout,
                       "finetune", ft_epochs, rng, logs, stop_below=stop_below)

    print(
        f"trained {variant}: {count_params(params)} parameters, "
        f"{state.step} optimizer steps",
        file=sys.stderr,
    )
    return params, logs
