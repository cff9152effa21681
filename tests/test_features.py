"""Feature pipeline: derived quantities, EWMA, standardization, windows."""

import warnings

import numpy as np
import pytest

from helpers import make_frame
from motortemp.dataio import ConfigError, ProfileFrame, SchemaError, synthesize
from motortemp.features import (
    DEFAULT_SPANS,
    PREDICTORS,
    SYNTHETIC_SETS,
    TARGETS,
    FeatureConfig,
    UndefinedCorrelationError,
    avg_abs_correlation,
    build_dataset,
    channel_matrix,
    derive_synthetic,
    ewma,
    fit_standardization,
    target_matrix,
)


def ewma_direct(x, span):
    """Literal finite-history weighted sum, the independent oracle."""
    alpha = 2.0 / (span + 1.0)
    w = 1.0 - alpha
    out = np.empty_like(x)
    for t in range(len(x)):
        weights = w ** np.arange(t + 1)
        out[t] = np.dot(weights, x[t::-1]) / weights.sum()
    return out


def ewma_loop(x, span):
    """The numerator and denominator recurrences, one sample at a time."""
    decay = 1.0 - 2.0 / (span + 1.0)
    out = np.empty(len(x))
    num = den = 0.0
    for t, v in enumerate(x):
        num = decay * num + v
        den = decay * den + 1.0
        out[t] = num / den
    return out


# Around the scan's 512-row block: one row, a block edge either side, two
# blocks and a bit, and many blocks.
SCAN_LENGTHS = (1, 511, 512, 513, 1025, 4999)


class TestDeriveSynthetic:
    def test_formulas(self):
        frame = make_frame(
            n=1, u_d=[3.0], u_q=[4.0], i_d=[6.0], i_q=[8.0],
            motor_speed=[100.0], coolant=[20.0],
        )
        out = derive_synthetic(frame, SYNTHETIC_SETS["all"])
        c = out.columns
        assert c["U"][0] == pytest.approx(5.0)
        assert c["I"][0] == pytest.approx(10.0)
        assert c["S"][0] == pytest.approx(50.0)
        assert c["P"][0] == pytest.approx(3.0 * 6.0 + 4.0 * 8.0)
        assert c["IMM"][0] == pytest.approx(10.0 * 100.0)
        assert c["SMM"][0] == pytest.approx(50.0 * 100.0)
        assert c["IMC"][0] == pytest.approx(10.0 * 20.0)
        assert c["SMC"][0] == pytest.approx(50.0 * 20.0)

    def test_source_frame_not_mutated(self):
        frame = make_frame(n=4)
        derive_synthetic(frame)
        assert "U" not in frame.columns

    def test_missing_source_is_schema_error(self):
        frame = make_frame(n=3)
        del frame.columns["i_q"]
        with pytest.raises(SchemaError, match="i_q"):
            derive_synthetic(frame)

    def test_unknown_selection_rejected(self):
        with pytest.raises(ValueError, match="XYZ"):
            derive_synthetic(make_frame(n=2), ("U", "XYZ"))


class TestEwma:
    def test_hand_example_span_3(self):
        # alpha = 0.5: y0 = 1, y1 = (2 + .5)/(1.5), y2 = (3 + 1 + .25)/(1.75)
        y = ewma(np.array([1.0, 2.0, 3.0]), span=3)
        np.testing.assert_allclose(
            y, [1.0, 2.5 / 1.5, 4.25 / 1.75], rtol=0, atol=1e-15
        )

    def test_span_one_is_identity(self):
        x = np.random.default_rng(0).standard_normal(1300)
        np.testing.assert_array_equal(ewma(x, 1), x)

    def test_constant_series_unchanged(self):
        y = ewma(np.full(50, 3.7), span=17)
        np.testing.assert_allclose(y, 3.7, rtol=1e-12)

    def test_first_output_equals_first_input(self):
        x = np.array([5.5, 1.0, 2.0])
        assert ewma(x, 9)[0] == 5.5

    def test_bounded_by_prefix_extremes(self):
        rng = np.random.default_rng(21)
        for span in (2, 7, 40):
            x = rng.standard_normal(120)
            y = ewma(x, span)
            lo = np.minimum.accumulate(x)
            hi = np.maximum.accumulate(x)
            assert (y >= lo - 1e-12).all() and (y <= hi + 1e-12).all()

    def test_huge_span_approaches_prefix_mean(self):
        x = np.random.default_rng(2).standard_normal(100)
        y = ewma(x, span=1_000_000)
        prefix_mean = np.cumsum(x) / np.arange(1, 101)
        assert np.abs(y - prefix_mean).max() < 1e-3

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(8)
        for span in (2, 5, 33, 1320):
            x = rng.standard_normal(150)
            np.testing.assert_allclose(
                ewma(x, span), ewma_direct(x, span), rtol=0, atol=1e-10
            )

    @pytest.mark.parametrize("n", SCAN_LENGTHS)
    def test_matches_recurrence_loop_across_blocks(self, n):
        rng = np.random.default_rng(n)
        for scale in (1.0, 80.0):
            x = scale * (rng.standard_normal(n) + 0.5)
            for span in (1, 2, 3, *DEFAULT_SPANS):
                y = ewma(x, span)
                np.testing.assert_allclose(
                    y, ewma_loop(x, span), rtol=0, atol=1e-10
                )
                assert y[0] == x[0]

    def test_smoothing_reduces_total_variation(self):
        rng = np.random.default_rng(4)
        x = np.linspace(0.0, 1.0, 400) + 0.05 * rng.standard_normal(400)

        def tv(series):
            return np.abs(np.diff(series)).sum()

        smoothed = [ewma(x, s) for s in (5, 20, 100)]
        assert tv(smoothed[1]) <= tv(smoothed[0]) + 1e-9
        assert tv(smoothed[2]) <= tv(smoothed[1]) + 1e-9

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ewma(np.zeros(5), span=0)
        with pytest.raises(ValueError):
            ewma(np.zeros((2, 2)), span=3)

    def test_empty_series(self):
        assert len(ewma(np.empty(0), span=5)) == 0


class TestAvgAbsCorrelation:
    def test_perfect_and_noise_mix(self):
        rng = np.random.default_rng(12)
        n = 20_000
        main = rng.standard_normal(n)
        frame = make_frame(
            n=n,
            stator_winding=main,
            stator_tooth=rng.standard_normal(n),
            stator_yoke=rng.standard_normal(n),
            pm=rng.standard_normal(n),
            torque=main.copy(),
        )
        val = avg_abs_correlation([frame], "torque")
        assert abs(val - 0.25) < 0.03

    def test_zero_variance_names_attribute(self):
        frame = make_frame(n=100, torque=np.full(100, 2.0))
        with pytest.raises(UndefinedCorrelationError, match="torque"):
            avg_abs_correlation([frame], "torque")

    def test_concatenates_across_frames(self):
        frames = [make_frame(pid=i, n=500) for i in (1, 2)]
        joint = avg_abs_correlation(frames, "coolant")
        assert 0.0 <= joint <= 1.0


class TestFeatureConfig:
    def test_default_channel_count_is_65(self):
        config = FeatureConfig()
        assert config.channel_count() == 65
        assert len(config.channel_names()) == 65

    def test_channel_name_layout(self):
        config = FeatureConfig(spans=(4, 9))
        names = config.channel_names()
        attrs = PREDICTORS + config.synthetic
        assert tuple(names[: len(attrs)]) == attrs
        assert names[len(attrs)] == "ambient_ewma4"
        assert names[-1].endswith("_ewma9")

    def test_synthetic_set_sizes(self):
        assert FeatureConfig.with_synthetic_set("imm-smm").channel_count() == 65
        assert FeatureConfig.with_synthetic_set("all").channel_count() == 75

    def test_validation(self):
        with pytest.raises(ValueError):
            FeatureConfig(spans=(10, 5))
        with pytest.raises(ValueError):
            FeatureConfig(spans=(0,))
        with pytest.raises(ValueError):
            FeatureConfig(window=0)
        with pytest.raises(ValueError):
            FeatureConfig(stride=0)
        with pytest.raises(ValueError):
            FeatureConfig(synthetic=("U", "nope"))
        with pytest.raises(ValueError):
            FeatureConfig.with_synthetic_set("bogus")

    @pytest.mark.parametrize("field", ["window", "stride", "spans"])
    @pytest.mark.parametrize("value", ["16", 16.5, 16.0, True, None])
    def test_rejects_non_integer_window_and_stride(self, field, value):
        # A span is checked the same way, as one entry of the spans tuple.
        if field == "spans":
            value = (2, value)
        with pytest.raises(ValueError, match=f"{field} must be (an )?integer"):
            FeatureConfig(**{field: value})

    def test_rejects_non_boolean_standardize_targets(self):
        # The key is retired: older files still load with it as true, and
        # any other value, "false" included, is refused by name.
        d = FeatureConfig().to_dict()
        assert "standardize_targets" not in d
        assert FeatureConfig.from_dict(
            {**d, "standardize_targets": True}) == FeatureConfig()
        for value in (False, "false", "true", 1):
            with pytest.raises(ValueError, match=f"standardize_targets "
                                                 f"{value!r} is not supported"):
                FeatureConfig.from_dict({**d, "standardize_targets": value})

    def test_integer_like_window_is_stored_as_int(self):
        config = FeatureConfig(window=np.int64(16), stride=np.int32(2))
        assert type(config.window) is int and type(config.stride) is int

    def test_dict_roundtrip(self):
        config = FeatureConfig(window=64, stride=3, spans=(5, 10))
        assert FeatureConfig.from_dict(config.to_dict()) == config


class TestChannelMatrix:
    def test_layout_matches_names(self):
        frame = make_frame(n=50)
        config = FeatureConfig(spans=(4, 16))
        mat = channel_matrix(frame, config)
        names = config.channel_names()
        assert mat.shape == (50, len(names))
        np.testing.assert_array_equal(mat[:, 0], frame.columns["ambient"])
        idx = names.index("coolant_ewma16")
        np.testing.assert_array_equal(
            mat[:, idx], ewma(frame.columns["coolant"], 16)
        )

    def test_each_column_is_the_1d_ewma_of_its_attribute(self):
        frame = synthesize(seed=2, profiles=1, length=1100)[0]
        config = FeatureConfig()
        mat = channel_matrix(frame, config)
        augmented = derive_synthetic(frame, config.synthetic)
        attrs = config.attribute_names()
        for j, name in enumerate(config.channel_names()):
            series = augmented.columns[attrs[j % len(attrs)]]
            block = j // len(attrs)
            want = series if block == 0 else ewma(series, config.spans[block - 1])
            np.testing.assert_array_equal(mat[:, j], want, err_msg=name)

    def test_target_matrix_order(self):
        frame = make_frame(n=10)
        tm = target_matrix(frame)
        assert tm.shape == (10, 4)
        for i, name in enumerate(TARGETS):
            np.testing.assert_array_equal(tm[:, i], frame.columns[name])


# The ambient column alone, raw and through the identity EWMA of span 1.
AMBIENT_ONLY = FeatureConfig(predictors=("ambient",), synthetic=(), spans=(1,),
                             window=1)


def _standardized(stats, x):
    """The reference affine map of the fitted channel statistics."""
    return (x - stats.channel_mean) / stats.channel_std


class TestStandardize:
    def test_two_point_column(self):
        frame = make_frame(n=2, ambient=[0.0, 2.0])
        stats = fit_standardization([frame], AMBIENT_ONLY)
        out = _standardized(stats, channel_matrix(frame, AMBIENT_ONLY))
        np.testing.assert_array_equal(out, [[-1.0, -1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(stats.channel_mean, [1.0, 1.0])
        np.testing.assert_array_equal(stats.channel_std, [1.0, 1.0])

    def test_constant_channel_uses_floor(self):
        frame = make_frame(n=10, ambient=np.full(10, 4.0))
        stats = fit_standardization([frame], AMBIENT_ONLY)
        np.testing.assert_array_equal(stats.channel_std, [1e-8, 1e-8])
        out = _standardized(stats, channel_matrix(frame, AMBIENT_ONLY))
        assert np.isfinite(out).all()

    def test_fit_on_standardized_is_identity(self):
        rng = np.random.default_rng(5)
        frame = make_frame(n=200, ambient=rng.standard_normal(200) * 7 + 2)
        stats = fit_standardization([frame], AMBIENT_ONLY)
        once = _standardized(stats, channel_matrix(frame, AMBIENT_ONLY))
        again = make_frame(n=200, ambient=once[:, 0])
        stats2 = fit_standardization([again], AMBIENT_ONLY)
        twice = _standardized(stats2, channel_matrix(again, AMBIENT_ONLY))
        assert np.abs(stats2.channel_mean).max() < 1e-9
        assert np.abs(stats2.channel_std - 1.0).max() < 1e-9
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-9)

    def test_reusing_stats_is_pure(self):
        rng = np.random.default_rng(6)
        train = make_frame(n=50, ambient=rng.standard_normal(50))
        test = [make_frame(pid=2, n=30, ambient=rng.standard_normal(30))]
        stats = fit_standardization([train], AMBIENT_ONLY)
        mean_before = stats.channel_mean.copy()
        first, second = (build_dataset(test, AMBIENT_ONLY, stats=stats)
                         .gather(np.arange(30))[0] for _ in range(2))
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(
            first[:, 0], _standardized(stats, channel_matrix(test[0], AMBIENT_ONLY)))
        np.testing.assert_array_equal(stats.channel_mean, mean_before)

    def test_fit_standardization_floors_target_std(self):
        frame = make_frame(n=30, pm=np.full(30, 60.0))
        stats = fit_standardization([frame], FeatureConfig(window=5, spans=(2,)))
        assert stats.target_std[TARGETS.index("pm")] == 1e-8

    def test_fit_equals_numpy_mean_and_std_bitwise(self):
        # 3 x 9,000 rows span four of the fit's 8,192-row blocks, the last
        # one partial; the blockwise sum must add the rows in numpy's order.
        frames = synthesize(seed=2, profiles=3, length=9000)
        config = FeatureConfig(window=10, spans=(4, 64))
        stats = fit_standardization(frames, config)
        for table, mean, std in (
                (np.concatenate([channel_matrix(f, config) for f in frames]),
                 stats.channel_mean, stats.channel_std),
                (np.concatenate([target_matrix(f) for f in frames]),
                 stats.target_mean, stats.target_std)):
            np.testing.assert_array_equal(mean, table.mean(axis=0))
            np.testing.assert_array_equal(
                std, np.maximum(table.std(axis=0), 1e-8))

    def test_stats_dict_roundtrip(self):
        frames = synthesize(seed=1, profiles=1, length=60)
        stats = fit_standardization(frames, FeatureConfig(window=10, spans=(4,)))
        from motortemp.features import Standardization
        back = Standardization.from_dict(stats.to_dict())
        np.testing.assert_array_equal(back.channel_mean, stats.channel_mean)
        np.testing.assert_array_equal(back.target_std, stats.target_std)
        assert back.channel_names == stats.channel_names

    def test_stats_dict_retired_standardize_targets(self):
        frames = synthesize(seed=1, profiles=1, length=60)
        d = fit_standardization(frames, FeatureConfig(window=10, spans=(4,))).to_dict()
        assert "standardize_targets" not in d
        from motortemp.features import Standardization
        old = Standardization.from_dict({**d, "standardize_targets": True})
        np.testing.assert_array_equal(old.target_std, d["target_std"])
        # bool("false") is True; the string must not pass for true.
        for value in (False, "false"):
            with pytest.raises(ValueError, match="standardize_targets"):
                Standardization.from_dict({**d, "standardize_targets": value})


class TestWindowize:
    """Sliding windows from ``build_dataset``, read with ``gather``."""

    @staticmethod
    def gather_all(dataset):
        return dataset.gather(np.arange(dataset.n_windows))

    @staticmethod
    def fitted(frames, config):
        return build_dataset(frames, config, fit_standardization(frames, config))

    def test_window_count_stride_one(self):
        frames = synthesize(seed=2, profiles=1, length=200)
        ds = self.fitted(frames, FeatureConfig(window=180, spans=(4,)))
        assert ds.n_windows == 21
        inputs, targets = self.gather_all(ds)
        assert inputs.shape == (21, 180, 26)
        assert targets.shape == (21, 1, 4)

    def test_window_count_with_stride(self):
        frames = synthesize(seed=2, profiles=1, length=200)
        ds = self.fitted(frames, FeatureConfig(window=180, stride=5, spans=(4,)))
        assert ds.n_windows == 5
        _, ends = ds.provenance()
        assert ends.tolist() == [179, 184, 189, 194, 199]

    def test_short_profile_skipped_with_warning(self):
        short = synthesize(seed=2, profiles=1, length=100)[0]
        config = FeatureConfig(window=150, spans=(4,))
        long_frame = ProfileFrame(2, synthesize(seed=5, profiles=1, length=200)[0].columns)
        stats = fit_standardization([short, long_frame], config)
        with pytest.warns(UserWarning, match="profile 1: 100 samples is shorter than window"):
            ds = build_dataset([short, long_frame], config, stats)
        pids, _ = ds.provenance()
        assert (pids == 2).all()
        assert ds.n_windows == 51

    def test_targets_stay_in_degrees(self):
        frames = synthesize(seed=3, profiles=1, length=80)
        config = FeatureConfig(window=20, spans=(4,))
        stats = fit_standardization(frames, config)
        ds = build_dataset(frames, config, stats=stats)
        inputs, targets = self.gather_all(ds)
        # raw degC magnitudes, not standardized ones
        assert targets.mean() > 5.0
        # while the inputs are the standardized channel slices
        _, ends = ds.provenance()
        end = ends[-1]
        raw = channel_matrix(frames[0], config)[end - config.window + 1:end + 1]
        np.testing.assert_array_equal(inputs[-1], _standardized(stats, raw))

    def test_gather_equals_slices_of_each_standardized_profile(self):
        frames = [ProfileFrame(pid, synthesize(seed=pid, profiles=1, length=n)[0].columns)
                  for pid, n in ((4, 61), (5, 40), (6, 75))]
        config = FeatureConfig(window=12, stride=4, spans=(3, 9))
        stats = fit_standardization(frames, config)
        ds = build_dataset(frames, config, stats=stats)
        pids, ends = ds.provenance()
        last = [np.flatnonzero(pids == f.profile_id)[-1] for f in frames]
        idx = np.concatenate([
            np.random.default_rng(0).integers(0, ds.n_windows, 40), last])
        inputs, targets = ds.gather(idx)
        blocks = {f.profile_id: (_standardized(stats, channel_matrix(f, config)),
                                 target_matrix(f)) for f in frames}
        for k, row in enumerate(idx):
            chans, tgts = blocks[pids[row]]
            end = ends[row]
            np.testing.assert_array_equal(
                inputs[k], chans[end - config.window + 1:end + 1])
            np.testing.assert_array_equal(targets[k, 0], tgts[end])
        assert [ends[i] for i in last] == [59, 39, 71]

    def test_gather_subset_matches_full_gather(self):
        frames = synthesize(seed=9, profiles=2, length=70)
        config = FeatureConfig(window=25, stride=3, spans=(4,))
        ds = self.fitted(frames, config)
        all_inputs, all_targets = self.gather_all(ds)
        idx = np.array([0, 5, ds.n_windows - 1])
        inputs, targets = ds.gather(idx)
        np.testing.assert_array_equal(inputs, all_inputs[idx])
        np.testing.assert_array_equal(targets, all_targets[idx])

    @pytest.mark.parametrize("picked", [(0, 1), (0, 2, 3)])
    def test_select_equals_dataset_of_the_subset(self, picked):
        # (0, 1) is a group holding a profile too short for one window;
        # (0, 2, 3) is a fine-tuning sample that skips a profile.
        frames = [ProfileFrame(pid, synthesize(seed=pid, profiles=1, length=n)[0].columns)
                  for pid, n in ((4, 61), (5, 10), (6, 75), (7, 40))]
        config = FeatureConfig(window=12, stride=4, spans=(3, 9))
        stats = fit_standardization(frames, config)
        subset = [frames[i] for i in picked]
        with pytest.warns(UserWarning, match="profile 5"):
            table = build_dataset(frames, config, stats)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = build_dataset(subset, config, stats)
        got = table.select(f.profile_id for f in subset)
        assert got.n_windows == want.n_windows > 0
        for a, b in zip((*self.gather_all(got), *got.provenance()),
                        (*self.gather_all(want), *want.provenance())):
            np.testing.assert_array_equal(a, b)

    def test_repeated_profile_id_is_config_error(self):
        frames = synthesize(seed=1, profiles=2, length=40)
        twin = ProfileFrame(2, frames[0].columns)
        config = FeatureConfig(window=8, spans=(3,))
        stats = fit_standardization(frames, config)
        with pytest.raises(ConfigError, match=r"given more than once: \[2\]"):
            build_dataset([*frames, twin], config, stats)

    def test_default_spans_are_documented_values(self):
        assert DEFAULT_SPANS == (1320, 3360, 6360, 9480)
