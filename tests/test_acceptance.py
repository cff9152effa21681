"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
The model-quality ordering check needs the real benchmark recording and
only runs when MOTORTEMP_BENCHMARK_CSV points at it; everything else is
self-contained and finishes in about a minute.
"""

import os
import time

import numpy as np
import pytest

from helpers import check_model_gradients, taped_attention
from motortemp import cli
from motortemp.autodiff import Matrix, attend
from motortemp.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from motortemp.dataio import load_csv, split, synthesize
from motortemp.evaluation import compute_metrics, evaluate, time_inference
from motortemp.features import (
    DEFAULT_SPANS,
    TARGETS,
    FeatureConfig,
    build_dataset,
    ewma,
    fit_standardization,
)
from motortemp.models import (
    VARIANTS,
    count_params,
    init_params,
    predict,
)
from motortemp.training import (
    AdamState,
    TrainConfig,
    _train_step,
    epoch_batches,
    train_grouped,
)

SMOKE_FEATURES = FeatureConfig(window=180, stride=4)
SMOKE_TRAIN = TrainConfig(
    batch_size=256, learning_rate=2e-3, epochs_per_group=200,
    group_count=1, fine_tune_profiles=0, seed=1, clip_norm=5.0,
)


def ok(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}", flush=True)


def test_01_parameter_counts():
    started = time.perf_counter()
    want = {"vanilla": 147_204, "bilstm": 454_404, "attention": 147_604}
    got = {v: count_params(init_params(v, seed=0)) for v in VARIANTS}
    assert got == want
    assert time.perf_counter() - started < 1.0
    ok(1, "parameter counts 147204 / 454404 / 147604 exact at "
          "input 65, hidden 100, output 4")


def test_02_gradients_match_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    for variant in VARIANTS:
        params = init_params(variant, seed=7, input_dim=3, hidden=5)
        batch = rng.standard_normal((2, 8, 3))
        targets = rng.standard_normal((2, 4))
        check_model_gradients(params, batch, targets)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    ok(2, "analytic gradients match central finite differences "
          f"(rel err < 1e-4 where |g| > 1e-6) for all variants in {elapsed:.1f}s")


def test_03_ewma_matches_direct_weighted_sum():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    must_use = list(DEFAULT_SPANS)
    checked = 0
    for trial in range(1000):
        n = int(rng.integers(3, 160))
        x = rng.standard_normal(n) * rng.uniform(0.5, 80)
        if trial < len(must_use) * 25 and trial % 25 == 0:
            span = must_use[trial // 25]
        else:
            span = int(rng.integers(1, 2000))
        alpha = 2.0 / (span + 1.0)
        decay = 1.0 - alpha
        # triangular weight matrix: row t weights x[0..t] by decay^(t-k)
        t_idx = np.arange(n)
        powers = t_idx[:, None] - t_idx[None, :]
        w = np.where(powers >= 0, decay ** np.clip(powers, 0, None), 0.0)
        want = (w @ x) / w.sum(axis=1)
        got = ewma(x, span)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 1000 and elapsed < 30.0
    ok(3, f"smoothing matches direct weighted sums on 1000 random "
          f"(series, span) pairs incl spans {must_use} in {elapsed:.1f}s")


def test_04_alignment_invariants():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(100):
        batch_n = int(rng.integers(1, 5))
        window = int(rng.integers(2, 60))
        params = init_params("attention", seed=int(rng.integers(1000)),
                             input_dim=4, hidden=6)
        batch = rng.standard_normal((batch_n, window, 4))
        node, _ = taped_attention(params, batch)
        a = node.out.values[:, :window]
        assert (a >= 0.0).all()
        np.testing.assert_allclose(a.sum(axis=1), 1.0, rtol=0, atol=1e-6)

    # identical encoder states at every step: weights must be exactly uniform
    state = np.tile(rng.standard_normal(6), (3, 1))
    seq = Matrix(np.tile(state, (1, 180)))
    h_de = Matrix(rng.standard_normal((3, 6)))
    alignment = attend(h_de, seq).values[:, :180]
    np.testing.assert_array_equal(alignment, np.full((3, 180), 1.0 / 180.0))
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    ok(4, "alignment rows non-negative and sum to 1 over 100 random passes; "
          "constant encoder states give exactly uniform 1/180 weights")


def test_05_overfit_smoke():
    started = time.perf_counter()
    frames = synthesize(seed=21, profiles=3, length=600)
    ds = split(frames, test_ids=set())

    # the first five optimizer steps on a fixed batch must strictly descend
    stats = fit_standardization(ds.train, SMOKE_FEATURES)
    dataset = build_dataset(ds.train, SMOKE_FEATURES, stats=stats)
    first = epoch_batches(dataset.n_windows, SMOKE_TRAIN.batch_size,
                          np.random.default_rng(SMOKE_TRAIN.seed))[0]
    inputs, raw = dataset.gather(first)
    params = init_params("attention", SMOKE_TRAIN.seed,
                         input_dim=SMOKE_FEATURES.channel_count(), hidden=100)
    state = AdamState.for_params(params)
    losses = [_train_step(params, state, SMOKE_TRAIN, stats, inputs, raw)
              for _ in range(6)]
    assert all(b < a for a, b in zip(losses, losses[1:])), losses

    params, logs = train_grouped(ds, SMOKE_FEATURES, "attention", SMOKE_TRAIN,
                                 stop_below=1e-2)
    elapsed = time.perf_counter() - started
    final = logs[-1]["train_loss"]
    assert final < 1e-2, f"train MSE stuck at {final}"
    assert len(logs) <= 200
    assert elapsed < 600.0
    ok(5, f"attention model overfits the generated set to train MSE "
          f"{final:.5f} < 1e-2 in {len(logs)} epochs ({elapsed:.0f}s); "
          f"first five steps strictly descend")


def test_06_training_runs_are_byte_identical(tmp_path):
    data = tmp_path / "recording.csv"
    assert cli.main(["synth", "--out", str(data), "--profiles", "2",
                     "--length", "80", "--seed", "13"]) == 0
    argv_for = lambda out: [
        "train", "--out", str(out), "--data", str(data), "--seed", "13",
        "--window", "16", "--spans", "2,4", "--hidden", "4", "--batch-size", "64",
        "--epochs-per-group", "2", "--groups", "1",
        "--fine-tune-profiles", "0", "--test-profiles", "2",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(argv_for(a)) == 0
    assert cli.main(argv_for(b)) == 0
    for name in ("checkpoint.bin", "train_log.jsonl", "config.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    ok(6, "two identical train invocations write byte-identical "
          "checkpoint, training log, and resolved config")


def test_07_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(707)
    for variant in VARIANTS:
        params = init_params(variant, seed=3, input_dim=6, hidden=7)
        batch = rng.standard_normal((4, 12, 6))
        before = predict(params, batch)
        path = tmp_path / f"{variant}.bin"
        save_checkpoint(params, None, path)
        loaded, _, _ = load_checkpoint(path)
        after = predict(loaded, batch)
        np.testing.assert_array_equal(before, after)

    broken = tmp_path / "vanilla.bin"
    raw = bytearray(broken.read_bytes())
    raw[-3] ^= 0x01
    broken.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(broken)
    ok(7, "save-then-load reproduces predictions bit-exactly for all "
          "variants; corrupted files are rejected")


@pytest.mark.skipif(
    not os.environ.get("MOTORTEMP_BENCHMARK_CSV"),
    reason="set MOTORTEMP_BENCHMARK_CSV to the benchmark recording to run "
           "the model-quality ordering check (takes hours)",
)
def test_08_model_ordering_on_benchmark():
    frames = load_csv(os.environ["MOTORTEMP_BENCHMARK_CSV"])
    ds = split(frames, test_ids={65})
    assert ds.test, "benchmark recording lacks profile 65"
    config = FeatureConfig()
    reports = {}
    for variant in VARIANTS:
        params, _ = train_grouped(ds, config, variant, TrainConfig())
        stats = fit_standardization(ds.train, config)
        dataset = build_dataset(ds.test, config, stats=stats)
        reports[variant] = evaluate(params, dataset, stats)
    m1 = reports["vanilla"].overall_mse
    m2 = reports["bilstm"].overall_mse
    m3 = reports["attention"].overall_mse
    assert m3 <= m1 <= m2, (m1, m2, m3)
    assert 1.72 / 3.0 <= m3 <= 1.72 * 3.0, m3
    ok(8, f"held-out profile 65 overall MSE ordering attention {m3:.2f} <= "
          f"vanilla {m1:.2f} <= bidirectional {m2:.2f}, attention within "
          f"3x of 1.72")


def test_09_bidirectional_inference_costs_more():
    rng = np.random.default_rng(909)
    batch = rng.standard_normal((256, 180, 65))
    t_vanilla = time_inference(init_params("vanilla", seed=0), batch)
    t_bilstm = time_inference(init_params("bilstm", seed=0), batch)
    assert t_bilstm > t_vanilla, (t_vanilla, t_bilstm)
    ok(9, f"per-batch inference at batch 256: bidirectional "
          f"{t_bilstm:.1f} ms > vanilla {t_vanilla:.1f} ms")


def test_10_metrics_match_brute_force():
    rng = np.random.default_rng(1010)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        actual = rng.standard_normal((n, 4)) * rng.uniform(0.1, 50)
        predicted = actual + rng.standard_normal((n, 4)) * rng.uniform(0.1, 10)
        report = compute_metrics(actual, predicted)

        all_sq, all_abs = [], []
        for i, t in enumerate(TARGETS):
            sq, ab = [], []
            for k in range(n):
                e = predicted[k, i] - actual[k, i]
                sq.append(e * e)
                ab.append(abs(e))
            assert abs(report.mse[t] - sum(sq) / n) < 1e-12
            assert abs(report.max_abs_error[t] - max(ab)) < 1e-12
            all_sq.extend(sq)
            all_abs.extend(ab)
        assert abs(report.overall_mse - sum(all_sq) / len(all_sq)) < 1e-12
        assert abs(report.overall_max_abs_error - max(all_abs)) < 1e-12
    ok(10, "mean squared error and max absolute error match brute-force "
           "loops to 1e-12 on 100 random prediction/target pairs")
