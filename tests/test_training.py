"""Optimizer arithmetic, curriculum mechanics, and checkpoint persistence."""

import json
import math
import re
import zlib
from pathlib import Path

import numpy as np
import pytest

from helpers import reference_adam_step
from motortemp import features
from motortemp.autodiff import Matrix
from motortemp.checkpoint import (
    CheckpointError,
    VariantMismatchError,
    load_checkpoint,
    save_checkpoint,
)
from motortemp.dataio import ConfigError, split, synthesize
from motortemp.features import FeatureConfig, fit_standardization, build_dataset
from motortemp.models import VARIANTS, count_params, init_params, predict
from motortemp.training import (
    AdamState,
    TrainConfig,
    TrainingError,
    _train_step,
    adam_step,
    epoch_batches,
    partition_groups,
    train_grouped,
)

SMALL_FEATURES = FeatureConfig(spans=(2, 4), window=16)


def small_split(profiles=4, length=60, seed=9, test=()):
    frames = synthesize(seed=seed, profiles=profiles, length=length)
    return split(frames, test_ids=set(test))


def tiny_params(seed=0):
    return init_params("vanilla", seed=seed, input_dim=2, hidden=2)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 256
        assert cfg.learning_rate == 5e-4
        assert cfg.epochs_per_group == 25
        assert cfg.group_count == 4
        assert cfg.clip_norm == 5.0

    @pytest.mark.parametrize("kwargs", [
        {"batch_size": 0},
        {"learning_rate": 0.0},
        {"learning_rate": -1e-3},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"epochs_per_group": 0},
        {"group_count": 0},
        {"fine_tune_profiles": -1},
        {"clip_norm": 0.0},
        {"clip_norm": float("nan")},
        {"clip_norm": float("inf")},
        {"fine_tune_epochs": -1},
        {"batch_size": 1.5},
        {"batch_size": True},
        {"epochs_per_group": 2.5},
        {"group_count": "4"},
        {"fine_tune_profiles": 1.0},
        {"fine_tune_epochs": "2"},
        {"seed": 1.5},
        {"seed": -1},
        {"learning_rate": "0.1"},
        {"clip_norm": True},
        {"learning_rate": None},
        {"clip_norm": -1.0},
        {"batch_size": -4},
        {"group_count": True},
        {"seed": "0"},
        {"fine_tune_epochs": 1.5},
    ])
    def test_rejects_bad_values(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**kwargs)

    def test_fine_tune_epochs_zero_allowed(self):
        assert TrainConfig(fine_tune_epochs=0).fine_tune_epochs == 0

    def test_stores_numbers_as_float_and_integers_as_int(self):
        cfg = TrainConfig(learning_rate=1, clip_norm=5, batch_size=np.int64(8))
        assert type(cfg.learning_rate) is float and cfg.learning_rate == 1.0
        assert type(cfg.clip_norm) is float and cfg.clip_norm == 5.0
        assert type(cfg.batch_size) is int and cfg.batch_size == 8


class TestAdam:
    def cfg(self, **kwargs):
        kwargs.setdefault("clip_norm", None)
        return TrainConfig(**kwargs)

    def grads_like(self, params, fill):
        return [np.full(mat.shape, fill) for mat in params.matrices()]

    def test_zero_gradient_keeps_params(self):
        params = tiny_params()
        before = {n: m.values.copy() for n, m in params.items()}
        state = AdamState.for_params(params)
        adam_step(params, self.grads_like(params, 0.0), state, self.cfg())
        assert state.step == 1
        for name, mat in params.items():
            np.testing.assert_array_equal(mat.values, before[name])

    def test_first_step_moves_by_learning_rate(self):
        # with a constant gradient the bias-corrected ratio m_hat/sqrt(v_hat)
        # is g/|g|, so every entry moves by almost exactly lr
        params = tiny_params()
        before = {n: m.values.copy() for n, m in params.items()}
        state = AdamState.for_params(params)
        cfg = self.cfg(learning_rate=1e-3)
        adam_step(params, self.grads_like(params, 3.7), state, cfg)
        for name, mat in params.items():
            delta = before[name] - mat.values
            np.testing.assert_allclose(delta, 1e-3, rtol=1e-2)
            assert (delta > 0).all()

    def test_two_steps_match_hand_trace(self):
        params = tiny_params()
        mat0 = params.matrices()[0]
        theta = float(mat0.values[0, 0])
        state = AdamState.for_params(params)
        cfg = self.cfg(learning_rate=0.01)
        g1, g2 = 0.3, -1.1

        m = v = 0.0
        for t, g in ((1, g1), (2, g2)):
            m = 0.9 * m + (1 - 0.9) * g
            v = 0.999 * v + (1 - 0.999) * g * g
            m_hat = m / (1 - 0.9 ** t)
            v_hat = v / (1 - 0.999 ** t)
            theta -= cfg.learning_rate * m_hat / (math.sqrt(v_hat) + 1e-8)

        for g in (g1, g2):
            grads = self.grads_like(params, 0.0)
            grads[0][0, 0] = g
            adam_step(params, grads, state, cfg)
        assert mat0.values[0, 0] == pytest.approx(theta, abs=1e-12)

    def test_clipping_equals_prescaled_gradient(self):
        grads_a = self.grads_like(tiny_params(), 2.0)
        total = math.sqrt(sum((a * a).sum() for a in grads_a))
        clip = total / 4.0

        pa = tiny_params()
        sa = AdamState.for_params(pa)
        adam_step(pa, grads_a, sa, self.cfg(clip_norm=clip))

        pb = tiny_params()
        sb = AdamState.for_params(pb)
        scaled = [a * (clip / total) for a in grads_a]
        adam_step(pb, scaled, sb, self.cfg())

        for (na, ma), (nb, mb) in zip(pa.items(), pb.items()):
            np.testing.assert_allclose(ma.values, mb.values, rtol=0, atol=1e-15)

    def test_small_gradient_not_clipped(self):
        pa, pb = tiny_params(), tiny_params()
        grads = self.grads_like(pa, 1e-3)
        adam_step(pa, grads, AdamState.for_params(pa), self.cfg(clip_norm=1e9))
        adam_step(pb, grads, AdamState.for_params(pb), self.cfg())
        for (_, ma), (_, mb) in zip(pa.items(), pb.items()):
            np.testing.assert_array_equal(ma.values, mb.values)

    def test_moments_one_per_stacked_block(self):
        for variant, blocks in (("vanilla", 8), ("attention", 8), ("bilstm", 11)):
            params = init_params(variant, seed=0, input_dim=2, hidden=3)
            state = AdamState.for_params(params)
            assert len(state.m) == len(state.v) == blocks
            for m, v, mat in zip(state.m, state.v, params.matrices()):
                assert m.shape == v.shape == mat.shape

    def test_state_of_another_model_rejected(self):
        params = init_params("bilstm", seed=0, input_dim=2, hidden=2)
        before = [m.values.copy() for m in params.matrices()]
        state = AdamState.for_params(tiny_params())
        with pytest.raises(TrainingError, match="moments do not fit"):
            adam_step(params, self.grads_like(params, 1.0), state, self.cfg())
        for was, m in zip(before, params.matrices()):
            np.testing.assert_array_equal(m.values, was)

    @pytest.mark.parametrize("clip_norm", [None, 1e-3])
    def test_matches_the_per_gate_reference_bitwise(self, clip_norm):
        cfg = self.cfg(clip_norm=clip_norm, learning_rate=1e-2)
        rng = np.random.default_rng(31)
        # At hidden 100 the decoder's 200x800 blocks update in row chunks.
        params = init_params("bilstm", seed=4, input_dim=3, hidden=100)
        ref = init_params("bilstm", seed=4, input_dim=3, hidden=100)
        state = AdamState.for_params(params)
        ref_state = {"m": {}, "v": {}, "step": 0}
        for _ in range(3):
            grads = [rng.standard_normal(m.shape) for m in params.matrices()]
            norm = math.sqrt(sum((g * g).sum() for g in grads))
            assert clip_norm is None or norm > clip_norm  # clipping fires
            per_gate = {name: g.values.copy() for name, g in
                        params.per_gate(Matrix(g) for g in grads)}
            adam_step(params, grads, state, cfg)
            reference_adam_step(ref, per_gate, ref_state, cfg)
        assert state.step == ref_state["step"] == 3
        for (name, got), (_, want) in zip(params.items(), ref.items()):
            np.testing.assert_array_equal(got.values, want.values, err_msg=name)
        for moments, want in ((state.m, ref_state["m"]),
                              (state.v, ref_state["v"])):
            for name, got in params.per_gate(Matrix(a) for a in moments):
                np.testing.assert_array_equal(got.values, want[name],
                                              err_msg=name)

    def test_non_finite_gradient_names_block(self):
        params = tiny_params()
        grads = self.grads_like(params, 0.0)
        gates = dict(params.per_gate(Matrix._wrap(g) for g in grads))
        gates["decoder.w_hf"].values[0, 0] = np.nan  # a view into grads[4]
        with pytest.raises(TrainingError, match=r"block 'decoder\.w_hf'"):
            adam_step(params, grads, AdamState.for_params(params), self.cfg())

    @pytest.mark.parametrize("name,shape", [
        ("encoder.wx", (1, 8)), ("output.b", (1, 1)), ("output.w", (4, 2))])
    def test_misshapen_gradient_block_named(self, name, shape):
        # The first two would broadcast into every row or column of their
        # (2, 8) and (1, 4) parameters; the transposed one would not fit.
        params = tiny_params()
        before = [m.values.copy() for m in params.matrices()]
        grads = self.grads_like(params, 0.0)
        grads[params.block_names().index(name)] = np.ones(shape)
        with pytest.raises(TrainingError,
                           match=rf"{re.escape(name)}' has shape "
                           rf"{re.escape(str(shape))}"):
            adam_step(params, grads, AdamState.for_params(params), self.cfg())
        for was, m in zip(before, params.matrices()):
            np.testing.assert_array_equal(m.values, was)

    def test_misaligned_keys_rejected(self):
        params = tiny_params()
        grads = self.grads_like(params, 0.0)
        with pytest.raises(TrainingError,
                           match=r"misaligned.*missing \['output\.b'\]"):
            adam_step(params, grads[:-1], AdamState.for_params(params),
                      self.cfg())
        with pytest.raises(TrainingError,
                           match="misaligned.*unexpected blocks past output.b"):
            adam_step(params, grads + [np.zeros((1, 4))],
                      AdamState.for_params(params), self.cfg())



class TestBatchesAndGroups:
    def test_every_index_exactly_once(self):
        batches = epoch_batches(103, 20, np.random.default_rng(0))
        assert [len(b) for b in batches] == [20, 20, 20, 20, 20, 3]
        seen = np.sort(np.concatenate(batches))
        np.testing.assert_array_equal(seen, np.arange(103))

    def test_seeded_determinism(self):
        a = epoch_batches(50, 8, np.random.default_rng(4))
        b = epoch_batches(50, 8, np.random.default_rng(4))
        for ba, bb in zip(a, b):
            np.testing.assert_array_equal(ba, bb)

    def test_shuffles(self):
        batches = epoch_batches(64, 64, np.random.default_rng(5))
        assert not np.array_equal(batches[0], np.arange(64))

    def test_even_partition(self):
        groups = partition_groups(list(range(8)), 4)
        assert [len(g) for g in groups] == [2, 2, 2, 2]
        assert groups[0] == [0, 1] and groups[3] == [6, 7]

    def test_remainder_goes_to_leading_groups(self):
        groups = partition_groups(list(range(10)), 4)
        assert [len(g) for g in groups] == [3, 3, 2, 2]
        assert sum(groups, []) == list(range(10))

    def test_too_few_profiles(self):
        with pytest.raises(ConfigError):
            partition_groups([1, 2, 3], 4)


def quick_config(**kwargs):
    base = dict(batch_size=32, learning_rate=2e-3, epochs_per_group=2,
                group_count=2, fine_tune_profiles=2, fine_tune_epochs=1,
                seed=3)
    base.update(kwargs)
    return TrainConfig(**base)


class TestTrainGrouped:
    def test_deterministic_across_runs(self):
        ds = small_split(test=(4,))
        runs = []
        for _ in range(2):
            params, logs = train_grouped(ds, SMALL_FEATURES, "vanilla",
                                         quick_config(), hidden=6)
            runs.append((params, logs))
        (pa, la), (pb, lb) = runs
        assert la == lb
        for (_, ma), (_, mb) in zip(pa.items(), pb.items()):
            np.testing.assert_array_equal(ma.values, mb.values)

    def test_phase_labels_and_epoch_numbering(self):
        ds = small_split(test=(4,))
        _, logs = train_grouped(ds, SMALL_FEATURES, "vanilla",
                                quick_config(), hidden=6)
        assert [r["epoch"] for r in logs] == list(range(1, len(logs) + 1))
        labels = [r["group"] for r in logs]
        assert labels == ["group-1", "group-1", "group-2", "group-2",
                          "finetune"]
        assert all(r["eval_loss"] is not None for r in logs)

    def test_eval_loss_none_without_test_profiles(self):
        ds = small_split(test=())
        _, logs = train_grouped(ds, SMALL_FEATURES, "vanilla",
                                quick_config(), hidden=6)
        assert all(r["eval_loss"] is None for r in logs)

    def test_stop_below_cuts_phases_short(self):
        ds = small_split(test=())
        _, logs = train_grouped(ds, SMALL_FEATURES, "vanilla",
                                quick_config(), hidden=6, stop_below=1e9)
        # every phase bails after its first epoch
        assert [r["group"] for r in logs] == ["group-1", "group-2", "finetune"]

    def test_loss_descends_on_fixed_batch(self):
        ds = small_split(profiles=2, length=80)
        stats = fit_standardization(ds.train, SMALL_FEATURES)
        dataset = build_dataset(ds.train, SMALL_FEATURES, stats=stats)
        inputs, raw = dataset.gather(np.arange(min(64, dataset.n_windows)))
        params = init_params("vanilla", seed=1,
                             input_dim=SMALL_FEATURES.channel_count(), hidden=8)
        state = AdamState.for_params(params)
        cfg = quick_config()
        losses = [_train_step(params, state, cfg, stats, inputs, raw)
                  for _ in range(6)]
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    def test_each_training_profile_featurized_twice(self, monkeypatch):
        # once for the statistics and once for the one training table that
        # every group and the fine-tuning sample select from
        calls = []
        real = features.channel_matrix

        def counting(frame, config):
            calls.append(frame.profile_id)
            return real(frame, config)

        monkeypatch.setattr(features, "channel_matrix", counting)
        ds = small_split(test=(4,))
        train_grouped(ds, SMALL_FEATURES, "vanilla",
                      quick_config(group_count=2, fine_tune_profiles=3), hidden=3)
        assert sorted(calls) == [1, 1, 2, 2, 3, 3, 4]

    def test_no_training_profiles(self):
        ds = small_split(profiles=2)
        ds = type(ds)(train=[], test=ds.train)
        with pytest.raises(ConfigError):
            train_grouped(ds, SMALL_FEATURES, "vanilla", quick_config())


class TestCheckpoint:
    # A bilstm checkpoint written by an earlier release, whose LSTM cells
    # held one matrix per gate, with the CLI quick-start settings (window
    # 16, spans [2, 4], hidden 4, seed 0).
    V1_FIXTURE = Path(__file__).parent / "data" / "quickstart_bilstm_v1.ckpt"

    def test_v1_fixture_loads_and_saves_byte_identically(self, tmp_path):
        params, stats, feature_config = load_checkpoint(self.V1_FIXTURE)
        assert (params.variant, params.input_dim, params.hidden) == (
            "bilstm", 39, 4)
        assert feature_config == SMALL_FEATURES
        path = tmp_path / "again.ckpt"
        save_checkpoint(params, stats, path, feature_config=feature_config)
        assert path.read_bytes() == self.V1_FIXTURE.read_bytes()

    def roundtrip(self, tmp_path, variant):
        ds = small_split(profiles=2, length=40)
        stats = fit_standardization(ds.train, SMALL_FEATURES)
        params = init_params(variant, seed=11,
                             input_dim=SMALL_FEATURES.channel_count(), hidden=5)
        path = tmp_path / f"{variant}.bin"
        save_checkpoint(params, stats, path, feature_config=SMALL_FEATURES)
        return params, stats, path

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_roundtrip_preserves_predictions(self, tmp_path, variant):
        params, stats, path = self.roundtrip(tmp_path, variant)
        loaded, stats2, features2 = load_checkpoint(path)
        assert loaded.variant == variant
        assert count_params(loaded) == count_params(params)
        for (na, ma), (nb, mb) in zip(params.items(), loaded.items()):
            assert na == nb
            np.testing.assert_array_equal(ma.values, mb.values)
        assert features2 == SMALL_FEATURES
        np.testing.assert_array_equal(stats2.channel_mean, stats.channel_mean)

        batch = np.random.default_rng(0).standard_normal(
            (3, 16, SMALL_FEATURES.channel_count())
        )
        np.testing.assert_array_equal(predict(params, batch),
                                      predict(loaded, batch))

    def test_save_twice_byte_identical(self, tmp_path):
        params, stats, path = self.roundtrip(tmp_path, "vanilla")
        other = tmp_path / "again.bin"
        save_checkpoint(params, stats, other, feature_config=SMALL_FEATURES)
        assert path.read_bytes() == other.read_bytes()

    def test_without_stats_or_features(self, tmp_path):
        params = init_params("vanilla", seed=0, input_dim=3, hidden=2)
        path = tmp_path / "bare.bin"
        save_checkpoint(params, None, path)
        _, stats, features = load_checkpoint(path)
        assert stats is None and features is None

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "nonsense.bin"
        path.write_bytes(b"PNG\x0d\x0a\x1a\x0a not a checkpoint")
        with pytest.raises(CheckpointError, match="not a model checkpoint"):
            load_checkpoint(path)

    def test_rejects_truncated_blob(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path, "vanilla")
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError, match="bytes"):
            load_checkpoint(path)

    def test_rejects_flipped_payload_byte(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path, "vanilla")
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_variant_guard(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path, "vanilla")
        with pytest.raises(VariantMismatchError):
            load_checkpoint(path, expect_variant="bilstm")
        loaded, _, _ = load_checkpoint(path, expect_variant="vanilla")
        assert loaded.variant == "vanilla"

    @staticmethod
    def rewrite(path, edit, values=None):
        """Apply ``edit`` to the header of the checkpoint at ``path``; with
        ``values``, also replace the parameter blob and its checksum."""
        magic, header, blob = path.read_bytes().split(b"\n", 2)
        header = json.loads(header)
        if values is not None:
            blob = np.asarray(values, dtype="<f8").tobytes()
            header["crc32"] = zlib.crc32(blob)
        edit(header)
        path.write_bytes(magic + b"\n" + json.dumps(header).encode("ascii")
                         + b"\n" + blob)

    def test_rejects_transposed_shape_table(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path, "vanilla")

        def transpose_w_xi(header):
            entry = header["shapes"][0]
            assert entry == ["encoder.w_xi", 39, 5]
            entry[1:] = [5, 39]

        self.rewrite(path, transpose_w_xi)
        with pytest.raises(CheckpointError,
                           match=r"encoder\.w_xi is 5x39, expected 39x5"):
            load_checkpoint(path)

    def test_rejects_header_dims_that_disagree(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path, "bilstm")
        self.rewrite(path, lambda h: h.update(hidden=10))
        with pytest.raises(CheckpointError,
                           match="header gives hidden 10, the parameters 5"):
            load_checkpoint(path)

    def test_rejects_channel_count_mismatch(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path, "vanilla")
        self.rewrite(path, lambda h: h["feature_config"].update(spans=[2, 4, 8]))
        with pytest.raises(CheckpointError,
                           match="feature_config gives 52 channels, the model "
                                 "expects 39"):
            load_checkpoint(path)
        _, _, path = self.roundtrip(tmp_path, "attention")
        self.rewrite(path, lambda h: h["stats"]["channel_names"].pop())
        with pytest.raises(CheckpointError,
                           match="stats gives 38 channels, the model expects 39"):
            load_checkpoint(path)

    @pytest.mark.parametrize("block,edit,message", [
        ("feature_config", lambda b: b.update(spans=[4, 2]),
         r"feature_config block is malformed \(ValueError: spans must be "
         r"strictly increasing"),
        ("stats", lambda b: b.pop("target_std"),
         r"stats block is malformed \(KeyError: 'target_std'\)"),
        ("stats", lambda b: b["channel_mean"].pop(),
         r"stats block is malformed \(ValueError: channel_mean has shape "
         r"\(38,\), expected one entry for each of the 39 channel_names\)"),
        ("stats", lambda b: b["target_std"].append(1.0),
         r"stats block is malformed \(ValueError: target_std has shape "
         r"\(5,\), expected one entry for each of the 4 target_names\)"),
        ("feature_config", lambda b: b.update(include_raw=False),
         r"feature_config block is malformed \(ValueError: include_raw False "
         r"is not supported"),
        ("feature_config", lambda b: b.update(window=16.5),
         r"feature_config block is malformed \(ValueError: window must be an "
         r"integer number of samples, got 16\.5\)"),
        ("feature_config", lambda b: b.update(stride="2"),
         r"feature_config block is malformed \(ValueError: stride must be an "
         r"integer number of samples, got '2'\)"),
        ("feature_config", lambda b: b.update(spans=[2.5, 4]),
         r"feature_config block is malformed \(ValueError: spans must be "
         r"integer numbers of samples, got \[2\.5, 4\]\)"),
        ("feature_config", lambda b: b.update(standardize_targets="false"),
         r"feature_config block is malformed \(ValueError: standardize_targets "
         r"'false' is not supported"),
        ("feature_config", lambda b: b.update(standardize_targets=False),
         r"feature_config block is malformed \(ValueError: standardize_targets "
         r"False is not supported"),
        ("stats", lambda b: b.update(standardize_targets=False),
         r"stats block is malformed \(ValueError: standardize_targets "
         r"False is not supported"),
        ("stats", lambda b: b["target_mean"].__setitem__(0, None),
         r"stats block is malformed \(ValueError: target_mean\[0\] is None, "
         r"not a finite number\)"),
        ("stats", lambda b: b["channel_mean"].__setitem__(3, None),
         r"stats block is malformed \(ValueError: channel_mean\[3\] is None, "
         r"not a finite number\)"),
        ("stats", lambda b: b["channel_mean"].__setitem__(0, True),
         r"stats block is malformed \(ValueError: channel_mean\[0\] is True, "
         r"not a finite number\)"),
        ("stats", lambda b: b["target_mean"].__setitem__(1, "2.5"),
         r"stats block is malformed \(ValueError: target_mean\[1\] is '2\.5', "
         r"not a finite number\)"),
        ("stats", lambda b: b["channel_std"].__setitem__(0, 0),
         r"stats block is malformed \(ValueError: channel_std\[0\] is 0, "
         r"not a finite number of at least 1e-08\)"),
        ("stats", lambda b: b["channel_std"].__setitem__(5, -1),
         r"stats block is malformed \(ValueError: channel_std\[5\] is -1, "
         r"not a finite number of at least 1e-08\)"),
        ("stats", lambda b: b["target_std"].__setitem__(2, 0.0),
         r"stats block is malformed \(ValueError: target_std\[2\] is 0\.0, "
         r"not a finite number of at least 1e-08\)"),
        ("stats", lambda b: b["channel_mean"].__setitem__(0, 10 ** 400),
         r"stats block is malformed \(ValueError: channel_mean\[0\] is 1000+, "
         r"not a finite number\)"),
        ("stats", lambda b: b["target_std"].__setitem__(0, float("inf")),
         r"stats block is malformed \(ValueError: target_std\[0\] is inf, "
         r"not a finite number of at least 1e-08\)"),
        ("feature_config", lambda b: b.update(spans=[2, 10 ** 400]),
         r"feature_config block is malformed \(ValueError: spans must be "
         r"positive and below 2\*\*63"),
        ("feature_config", lambda b: b.update(stride=2 ** 63),
         r"feature_config block is malformed \(ValueError: stride must be at "
         r"least 1 and below 2\*\*63, got 9223372036854775808\)"),
        ("feature_config", lambda b: b.pop("window"),
         r"feature_config block is malformed \(ValueError: missing keys: "
         r"window\)"),
        ("feature_config", lambda b: b.pop("predictors"),
         r"feature_config block is malformed \(ValueError: missing keys: "
         r"predictors\)"),
        ("feature_config", lambda b: b["predictors"].__setitem__(0, 7),
         r"feature_config block is malformed \(ValueError: predictors must be "
         r"attribute names, got \(7, "),
        ("feature_config", lambda b: b["synthetic"].__setitem__(
            slice(4, None), ["IMM", "SMM"]),
         r"stats channel 11 is 'IMC', feature_config channel 11 is 'IMM'"),
        ("stats", lambda b: [b[k].pop() for k in
                             ("target_names", "target_mean", "target_std")],
         r"stats gives targets \['stator_winding', 'stator_tooth', "
         r"'stator_yoke'\], the model predicts \[.*'pm'\]"),
    ], ids=["spans", "no_target_std", "short_mean", "long_target_std",
            "include_raw_false", "float_window", "string_stride", "float_span",
            "string_standardize_targets", "false_standardize_targets",
            "stats_false_standardize_targets", "null_target_mean",
            "null_channel_mean", "true_channel_mean", "string_target_mean",
            "zero_channel_std", "negative_channel_std", "zero_target_std",
            "huge_integer_channel_mean", "infinite_target_std", "huge_span",
            "huge_stride",
            "no_window", "no_predictors", "integer_predictor",
            "synthetic_other_than_stats", "three_targets"])
    def test_rejects_malformed_header_block(self, tmp_path, block, edit,
                                            message):
        _, _, path = self.roundtrip(tmp_path, "vanilla")
        self.rewrite(path, lambda h: edit(h[block]))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,message", [
        (lambda h: h.update(shapes=None), r"shape table is None, not a list"),
        (lambda h: h["shapes"][0].__setitem__(1, "x"),
         r"shape table entry \['encoder\.w_xi', 'x', 5\] is not \[name, rows, "
         r"cols\] with non-negative integer rows and cols"),
        (lambda h: h["shapes"][0].pop(),
         r"shape table entry \['encoder\.w_xi', 39\] is not \[name, rows, cols\]"),
        (lambda h: h["shapes"][0].__setitem__(1, -39),
         r"shape table entry \['encoder\.w_xi', -39, 5\] is not \[name, rows, "
         r"cols\] with non-negative"),
        (lambda h: h["shapes"][0].__setitem__(1, 10 ** 6),
         r"shape table entry \['encoder\.w_xi', 1000000, 5\] runs past the "
         r"\d+ stored values"),
    ], ids=["null_table", "string_rows", "two_fields", "negative_rows",
            "past_blob"])
    def test_rejects_malformed_shape_table_naming_entry(self, tmp_path, edit,
                                                        message):
        _, _, path = self.roundtrip(tmp_path, "vanilla")
        self.rewrite(path, edit)
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: {message}"):
            load_checkpoint(path)

    def test_loads_legacy_include_raw_key(self, tmp_path):
        params, _, path = self.roundtrip(tmp_path, "attention")
        self.rewrite(path, lambda h: h["feature_config"].update(include_raw=True))
        loaded, _, features = load_checkpoint(path)
        assert features == SMALL_FEATURES
        batch = np.random.default_rng(3).standard_normal(
            (4, 12, SMALL_FEATURES.channel_count()))
        np.testing.assert_array_equal(predict(loaded, batch),
                                      predict(params, batch))

    def test_loads_legacy_standardize_targets_key(self, tmp_path):
        params, stats, path = self.roundtrip(tmp_path, "attention")

        def legacy(header):
            header["feature_config"]["standardize_targets"] = True
            header["stats"]["standardize_targets"] = True

        self.rewrite(path, legacy)
        loaded, stats2, features = load_checkpoint(path)
        assert features == SMALL_FEATURES
        assert stats2.to_dict() == stats.to_dict()
        batch = np.random.default_rng(3).standard_normal(
            (4, 12, SMALL_FEATURES.channel_count()))
        np.testing.assert_array_equal(predict(loaded, batch),
                                      predict(params, batch))

    def test_rejects_non_finite_parameters(self, tmp_path):
        params, _, path = self.roundtrip(tmp_path, "attention")
        blocks = [m for _, m in params.items()]
        values = np.concatenate([m.values.ravel() for m in blocks])
        start = sum(m.values.size for m in blocks[:-2])
        values[start + 3] = np.inf  # inside output.w
        self.rewrite(path, lambda h: None, values)
        with pytest.raises(CheckpointError,
                           match=r"output\.w holds non-finite values"):
            load_checkpoint(path)
