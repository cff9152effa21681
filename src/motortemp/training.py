"""Mini-batch training with Adam and the grouped profile curriculum.

Long recordings do not fit one giant shuffled epoch comfortably, so training
walks the profiles in a few contiguous groups, runs a fixed number of epochs
on each, and finishes with a fine-tuning phase over a random sample of
profiles.  All shuffling and sampling comes from one seeded generator, so a
(config, seed) pair fully determines the run: repeated runs produce
bit-identical parameters and log records.

Losses are reported in standardized target units (the units the optimizer
sees).  Timing information is deliberately kept out of the returned log so
the record stays reproducible; each epoch's wall time goes to stderr with
its losses instead.
"""

from __future__ import annotations

import math
import numbers
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Matrix, Tape, mse
from .dataio import ConfigError, DatasetSplit
from .features import (
    FeatureConfig,
    WindowedDataset,
    _is_int,
    build_dataset,
    fit_standardization,
)
from .models import ModelParams, count_params, forward_for_training, init_params, predict

__all__ = [
    "TrainConfig",
    "AdamState",
    "TrainingError",
    "adam_step",
    "epoch_batches",
    "partition_groups",
    "TrainRun",
    "train_grouped",
]


# Adam's moment decay rates, and the ε that keeps its division finite for a
# block whose gradient is zero.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class TrainingError(RuntimeError):
    """The optimizer was fed something it cannot recover from."""


@dataclass
class TrainConfig:
    """Optimizer and curriculum knobs; defaults match the reference setup."""

    batch_size: int = 256
    learning_rate: float = 5e-4
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
            if not _is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
        for name in ("learning_rate", "clip_norm"):
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
        if self.epochs_per_group < 1:
            raise ConfigError("epochs_per_group must be at least 1")
        if self.group_count < 1:
            raise ConfigError("group_count must be at least 1")
        for name in ("fine_tune_profiles", "seed"):
            if (value := getattr(self, name)) < 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")
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


def adam_step(params: ModelParams, grads, state: AdamState,
              config: TrainConfig) -> None:
    """One bias-corrected Adam update, in place.

    With t the incremented step count and g the (possibly clipped) gradient:

        m <- BETA1 m + (1-BETA1) g        m_hat = m / (1 - BETA1^t)
        v <- BETA2 v + (1-BETA2) g^2      v_hat = v / (1 - BETA2^t)
        theta <- theta - lr * m_hat / (sqrt(v_hat) + EPS)

    ``grads`` holds one array per block of ``params.matrices()``, in that
    order and of the same shapes, as ``Tape.backward`` returns them for
    ``wrt=params.matrices()``; any non-finite gradient aborts the step
    and names its gate block.  When ``clip_norm`` is set the whole gradient
    is rescaled so its global L2 norm, summed over the gate blocks of
    ``params.items()`` in order, does not exceed it.
    """
    mats = params.matrices()
    names = params.block_names()
    gs = [np.asarray(g, dtype=np.float64) for g in grads]
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
    correct1 = 1.0 - BETA1 ** t
    correct2 = 1.0 - BETA2 ** t
    for mat, grad, m_all, v_all in zip(mats, gs, state.m, state.v):
        # Rows of about 32k entries at a time keep the temporaries in cache.
        chunk = max(1, 32768 // mat.cols)
        for at in range(0, mat.rows, chunk):
            rows = slice(at, at + chunk)
            g, m, v, theta = grad[rows], m_all[rows], v_all[rows], mat.values[rows]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            update = (m / correct1) / (np.sqrt(v / correct2) + EPS)
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
    targets = stats.transform_targets(raw_targets)
    # A diverging model overflows in the taped step; adam_step refuses the
    # non-finite gradient that results, naming its block.
    with np.errstate(over="ignore", invalid="ignore"), Tape() as tape:
        pred = forward_for_training(params, inputs)
        loss = mse(pred, Matrix._wrap(targets))
        grads = tape.backward(loss, wrt=params.matrices())
    adam_step(params, grads, state, cfg)
    return float(loss.values[0, 0])


def _dataset_loss(params, dataset: WindowedDataset, stats, batch_size: int) -> float:
    total, count = 0.0, 0
    # A diverged model may overflow in the forward pass, or its errors may
    # square past the float range; the caller refuses the non-finite loss.
    with np.errstate(over="ignore", invalid="ignore"):
        for at in range(0, dataset.n_windows, batch_size):
            idx = np.arange(at, min(at + batch_size, dataset.n_windows))
            inputs, raw = dataset.gather(idx)
            d = predict(params, inputs) - stats.transform_targets(raw)
            total += float((d * d).sum())
            count += d.size
    return total / count


class TrainRun:
    """One training run's state: the statistics fitted on the training
    profiles, the held-out windows, the one training table that each group
    and the fine-tuning sample select from, the parameters, the Adam state,
    the seeded generator and the per-epoch logs.  The constructor refuses
    too few profiles for the groups, or a group in which no profile is long
    enough for one window, before it featurizes any profile."""

    def __init__(self, split: DatasetSplit, feature_config: FeatureConfig,
                 variant: str, config: TrainConfig, hidden: int = 100):
        if not split.train:
            held = ", ".join(str(f.profile_id) for f in split.test)
            raise ConfigError(f"every profile is held out ({held}); none is "
                              "left to train on")
        self.groups = partition_groups(split.train, config.group_count)
        for gi, group in enumerate(self.groups, start=1):
            if all(f.n_samples < feature_config.window for f in group):
                raise ConfigError(
                    f"group {gi} has no windows; profiles shorter than the "
                    f"window {feature_config.window}?"
                )
        self.split, self.variant, self.config = split, variant, config
        self.stats = fit_standardization(split.train, feature_config)
        self.heldout = build_dataset(split.test, feature_config, stats=self.stats)
        self.table = build_dataset(split.train, feature_config, stats=self.stats)
        self.params = init_params(variant, config.seed, hidden=hidden,
                                  input_dim=feature_config.channel_count())
        self.state = AdamState.for_params(self.params)
        self.rng = np.random.default_rng(config.seed)
        self.logs: list[dict] = []

    def run_epoch(self, dataset: WindowedDataset, label: str) -> float:
        """One epoch over ``dataset`` in seeded batches, then the held-out
        loss; appends the epoch's log record and returns its training loss."""
        cfg, epoch = self.config, len(self.logs) + 1
        started = time.perf_counter()
        total, count = 0.0, 0
        batches = epoch_batches(dataset.n_windows, cfg.batch_size, self.rng)
        for b, idx in enumerate(batches, start=1):
            inputs, raw = dataset.gather(idx)
            try:
                loss = _train_step(self.params, self.state, cfg, self.stats,
                                   inputs, raw)
            except TrainingError as exc:
                raise TrainingError(
                    f"{label} epoch {epoch} batch {b} of {len(batches)}: {exc}; "
                    "the run diverged, a lower learning rate may help") from exc
            total += loss * len(idx)
            count += len(idx)
        train_loss = total / count
        eval_loss = (
            _dataset_loss(self.params, self.heldout, self.stats, cfg.batch_size)
            if self.heldout.n_windows > 0 else None
        )
        for kind, value in (("train", train_loss), ("held-out", eval_loss)):
            if value is not None and not math.isfinite(value):
                raise TrainingError(
                    f"{label} epoch {epoch}: {kind} loss is {value}; the run "
                    "diverged, a lower learning rate may help")
        self.logs.append({"epoch": epoch, "group": label,
                          "train_loss": train_loss, "eval_loss": eval_loss})
        print(
            f"[{label}] epoch {epoch}: train {train_loss:.6f}"
            + (f" eval {eval_loss:.6f}" if eval_loss is not None else "")
            + f" ({time.perf_counter() - started:.1f}s)",
            file=sys.stderr,
        )
        return train_loss

    def train(self, stop_below: float | None = None):
        """The groups' epochs, then those of the fine-tuning sample, which is
        drawn once the groups are done; see ``train_grouped``."""
        cfg, frames = self.config, self.split.train
        for gi, group in enumerate(self.groups, start=1):
            self._phase(f"group-{gi}", (f.profile_id for f in group),
                        cfg.epochs_per_group, stop_below)
        ft_epochs = (cfg.epochs_per_group if cfg.fine_tune_epochs is None
                     else cfg.fine_tune_epochs)
        n_sample = min(cfg.fine_tune_profiles, len(frames))
        if n_sample > 0 and ft_epochs > 0:
            picked = self.rng.choice(len(frames), size=n_sample, replace=False)
            self._phase("finetune", (frames[i].profile_id for i in picked),
                        ft_epochs, stop_below)
        print(f"trained {self.variant}: {count_params(self.params)} parameters, "
              f"{self.state.step} optimizer steps", file=sys.stderr)
        return self.params, self.logs

    def _phase(self, label, profile_ids, epochs, stop_below):
        dataset = self.table.select(profile_ids)
        if dataset.n_windows == 0:  # a fine-tuning sample of short profiles
            return
        for _ in range(epochs):
            train_loss = self.run_epoch(dataset, label)
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
    reuses the statistics.  ``TrainRun`` keeps them for callers that need
    them once training is done.

    ``stop_below`` optionally ends a phase early once its epoch training
    loss falls under the threshold (useful for smoke runs); the default is
    to run every epoch.

    Returns (params, logs) where logs is a list of per-epoch records with
    keys epoch, group, train_loss and eval_loss.
    """
    return TrainRun(split, feature_config, variant, config, hidden).train(stop_below)
