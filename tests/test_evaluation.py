"""Metric arithmetic, report plumbing, trace files, and timing."""

import csv
import json

import numpy as np
import pytest

from motortemp.dataio import split, synthesize
from motortemp.evaluation import (
    EvaluationError,
    collect_predictions,
    compute_metrics,
    emit_traces,
    evaluate,
    time_inference,
    write_traces,
)
from motortemp.features import (
    TARGETS,
    FeatureConfig,
    build_dataset,
    fit_standardization,
)
from motortemp.models import init_params, predict

FEATURES = FeatureConfig(spans=(2, 4), window=16)


def fitted_setup(seed=5, profiles=2, length=50):
    frames = synthesize(seed=seed, profiles=profiles, length=length)
    ds = split(frames, test_ids=set())
    stats = fit_standardization(ds.train, FEATURES)
    dataset = build_dataset(ds.train, FEATURES, stats=stats)
    params = init_params("vanilla", seed=2,
                         input_dim=FEATURES.channel_count(), hidden=5)
    return params, dataset, stats


class TestComputeMetrics:
    def test_perfect_predictions_are_zero(self):
        a = np.random.default_rng(0).standard_normal((10, 4))
        report = compute_metrics(a, a.copy())
        assert report.overall_mse == 0.0
        assert report.overall_max_abs_error == 0.0
        assert all(v == 0.0 for v in report.mse.values())
        assert report.n_windows == 10

    def test_unit_bias_on_one_target(self):
        a = np.zeros((8, 4))
        p = a.copy()
        p[:, 2] += 1.0
        report = compute_metrics(a, p)
        assert report.mse[TARGETS[2]] == 1.0
        assert report.max_abs_error[TARGETS[2]] == 1.0
        assert all(report.mse[t] == 0.0 for i, t in enumerate(TARGETS) if i != 2)
        # pooled mean over all entries: one of four targets is off by 1
        assert report.overall_mse == pytest.approx(0.25, abs=1e-15)
        assert report.overall_max_abs_error == 1.0

    def test_matches_elementwise_loop(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((30, 4)) * 10
        p = rng.standard_normal((30, 4)) * 10
        report = compute_metrics(a, p)
        for i, t in enumerate(TARGETS):
            mse = 0.0
            worst = 0.0
            for k in range(30):
                e = p[k, i] - a[k, i]
                mse += e * e
                worst = max(worst, abs(e))
            assert report.mse[t] == pytest.approx(mse / 30, abs=1e-12)
            assert report.max_abs_error[t] == pytest.approx(worst, abs=1e-12)

    def test_overall_is_mean_of_per_target(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((25, 4))
        p = rng.standard_normal((25, 4))
        report = compute_metrics(a, p)
        assert report.overall_mse == pytest.approx(
            np.mean(list(report.mse.values())), abs=1e-9
        )
        assert report.overall_max_abs_error == max(report.max_abs_error.values())

    def test_max_abs_bounds_rmse(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((40, 4))
        p = rng.standard_normal((40, 4))
        report = compute_metrics(a, p)
        for t in TARGETS:
            assert report.max_abs_error[t] >= np.sqrt(report.mse[t])

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((20, 4))
        p = rng.standard_normal((20, 4))
        perm = rng.permutation(20)
        r1 = compute_metrics(a, p)
        r2 = compute_metrics(a[perm], p[perm])
        for t in TARGETS:
            assert r1.mse[t] == pytest.approx(r2.mse[t], abs=1e-12)
            assert r1.max_abs_error[t] == r2.max_abs_error[t]

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(EvaluationError):
            compute_metrics(np.zeros((0, 4)), np.zeros((0, 4)))
        with pytest.raises(EvaluationError):
            compute_metrics(np.zeros((5, 4)), np.zeros((5, 3)))
        with pytest.raises(EvaluationError):
            compute_metrics(np.zeros((5, 3)), np.zeros((5, 3)))

    def test_overflowing_squared_error_names_its_target(self):
        a = np.zeros((3, 4))
        p = np.zeros((3, 4))
        p[1, 2] = 1e200
        with pytest.raises(EvaluationError,
                           match="squared error of target 'stator_yoke' overflows"):
            compute_metrics(a, p)
        # Each target's squared errors sum to 1e308, all four past the range.
        p = np.full((1, 4), 1e154)
        with pytest.raises(EvaluationError,
                           match="squared error of all targets pooled overflows"):
            compute_metrics(np.zeros((1, 4)), p)

    def test_report_serializes(self):
        a = np.random.default_rng(5).standard_normal((6, 4))
        report = compute_metrics(a, a + 0.5)
        blob = json.dumps(report.to_dict(), sort_keys=True)
        back = json.loads(blob)
        assert back["n_windows"] == 6
        assert set(back["mse"]) == set(TARGETS)
        text = report.to_text()
        assert "overall" in text and "degC" in text


class TestEvaluate:
    def test_reports_in_degrees(self):
        params, dataset, stats = fitted_setup()
        report = evaluate(params, dataset, stats)
        assert report.n_windows == dataset.n_windows
        assert "(degC)" in report.to_text()
        assert all(np.isfinite(v) for v in report.mse.values())
        inputs, raw = dataset.gather(np.arange(dataset.n_windows))
        degc = stats.untransform_predictions(
            predict(params, inputs).reshape(dataset.n_windows, -1))
        expected = compute_metrics(raw.reshape(dataset.n_windows, -1), degc)
        assert report.to_dict() == expected.to_dict()

    def test_standardized_units_round_trip(self):
        # The target statistics map degrees to the model's units and back;
        # per target, mse_std = mse_degc / sigma^2.
        params, dataset, stats = fitted_setup()
        actual, predicted = collect_predictions(params, dataset, stats)
        np.testing.assert_allclose(
            stats.untransform_predictions(stats.transform_targets(actual)),
            actual, rtol=1e-12)
        degc = compute_metrics(actual, predicted)
        std = compute_metrics(stats.transform_targets(actual),
                              stats.transform_targets(predicted))
        for i, t in enumerate(TARGETS):
            sigma = stats.target_std[i]
            assert std.mse[t] == pytest.approx(degc.mse[t] / sigma ** 2,
                                               rel=1e-9)

    def test_zero_error_when_targets_equal_predictions(self):
        params, dataset, stats = fitted_setup()
        _, predicted = collect_predictions(params, dataset, stats)
        dataset.targets[dataset.starts + dataset.window - 1] = predicted
        report = evaluate(params, dataset, stats)
        assert report.overall_mse == 0.0
        assert report.overall_max_abs_error == 0.0

    @pytest.mark.parametrize("batch_size", [0, -3, 2.5, True, "8"])
    def test_rejects_batch_size_that_is_not_a_positive_integer(self,
                                                               batch_size):
        params, dataset, stats = fitted_setup()
        with pytest.raises(EvaluationError,
                           match=f"batch_size must be a positive integer, "
                                 f"got {batch_size!r}"):
            collect_predictions(params, dataset, stats, batch_size=batch_size)

    @pytest.mark.parametrize("given", ["none", "dict"])
    def test_rejects_missing_statistics_before_predicting(self, monkeypatch,
                                                          given):
        params, dataset, stats = fitted_setup()
        bad = None if given == "none" else stats.to_dict()
        monkeypatch.setattr("motortemp.evaluation.predict",
                            lambda *a: pytest.fail("predicted without stats"))
        with pytest.raises(EvaluationError,
                           match="stats must be the fitted Standardization .* "
                                 f"got {type(bad).__name__}"):
            evaluate(params, dataset, bad)

    def test_collect_shapes_align(self):
        params, dataset, stats = fitted_setup()
        actual, predicted = collect_predictions(params, dataset, stats,
                                                batch_size=7)
        assert actual.shape == predicted.shape == (dataset.n_windows, 4)

    def test_batch_size_does_not_change_result(self):
        params, dataset, stats = fitted_setup()
        a1, p1 = collect_predictions(params, dataset, stats, batch_size=5)
        a2, p2 = collect_predictions(params, dataset, stats, batch_size=1000)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_allclose(p1, p2, rtol=0, atol=1e-12)


class TestTraces:
    def read_csv(self, path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        return rows[0], rows[1:]

    def test_files_and_contents(self, tmp_path):
        params, dataset, stats = fitted_setup()
        paths = emit_traces(params, dataset, stats, tmp_path)
        assert len(paths) == 8
        actual, predicted = collect_predictions(params, dataset, stats)
        for i, target in enumerate(TARGETS):
            header, rows = self.read_csv(tmp_path / f"{target}_trace.csv")
            assert header == ["sample_id", "actual_c", "predicted_c"]
            assert len(rows) == dataset.n_windows
            got_a = np.array([float(r[1]) for r in rows])
            got_p = np.array([float(r[2]) for r in rows])
            np.testing.assert_array_equal(got_a, actual[:, i])
            np.testing.assert_array_equal(got_p, predicted[:, i])

            header, rows = self.read_csv(tmp_path / f"{target}_error.csv")
            assert header == ["sample_id", "error_c"]
            got_e = np.array([float(r[1]) for r in rows])
            np.testing.assert_array_equal(got_e, actual[:, i] - predicted[:, i])

    def test_sample_ids_carry_provenance(self, tmp_path):
        params, dataset, stats = fitted_setup()
        emit_traces(params, dataset, stats, tmp_path)
        _, rows = self.read_csv(tmp_path / f"{TARGETS[0]}_trace.csv")
        pids, ends = dataset.provenance()
        assert rows[0][0] == f"{pids[0]}:{ends[0]}"
        assert rows[-1][0] == f"{pids[-1]}:{ends[-1]}"

    def test_rejects_provenance_of_another_length(self, tmp_path):
        rows = np.zeros((3, len(TARGETS)))
        with pytest.raises(ValueError):
            write_traces(tmp_path, (np.array([1, 1]), np.array([9, 10])),
                         rows, rows)


class TestTiming:
    def test_rejects_too_few_repetitions(self):
        params = init_params("vanilla", seed=0, input_dim=3, hidden=4)
        batch = np.zeros((2, 8, 3))
        with pytest.raises(ValueError):
            time_inference(params, batch, repetitions=3)

    def test_repeatable_within_band(self):
        params = init_params("vanilla", seed=0, input_dim=6, hidden=32)
        batch = np.random.default_rng(0).standard_normal((16, 64, 6))
        t1 = time_inference(params, batch)
        t2 = time_inference(params, batch)
        assert t1 > 0 and t2 > 0
        assert abs(t1 - t2) / max(t1, t2) < 0.5
