"""Checks on the benchmark's own correctness oracle and tracer.

Run with the package on the path:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import numpy as np
import pytest

import motortemp as mt
import oracle
import run
import tracer as tracing


@pytest.fixture(params=mt.VARIANTS)
def small(request):
    params = mt.init_params(request.param, seed=3, input_dim=5, hidden=4)
    batch = np.random.default_rng(0).standard_normal((3, 6, 5))
    return params, batch


def test_oracle_agrees_with_package(small):
    params, batch = small
    assert oracle.matches(params, batch, mt.predict(params, batch))


@pytest.mark.parametrize("block", ["encoder.w_hf", "decoder.b_o", "output.w"])
def test_perturbed_parameter_trips_the_check(small, block):
    params, batch = small
    answer = mt.predict(params, batch)
    dict(params.items())[block].values[0, 0] += 1e-6
    assert not oracle.matches(params, batch, answer)


def test_non_finite_answer_trips_the_check(small):
    params, batch = small
    answer = mt.predict(params, batch).copy()
    answer.flat[0] = np.nan
    assert not oracle.matches(params, batch, answer)


def test_percentiles_need_ten_samples_beyond():
    assert set(run.percentiles([0.001] * 99)) == {"n", "p50"}
    assert set(run.percentiles([0.001] * 100)) == {"n", "p50", "p90"}
    assert set(run.percentiles([0.001] * 1000)) == {"n", "p50", "p90", "p99"}


def test_traced_training_call_reports_its_layers():
    frames = mt.synthesize(seed=1, profiles=2, length=40)
    fc = mt.FeatureConfig(window=8, stride=4, spans=(3, 6))
    cfg = mt.TrainConfig(batch_size=4, epochs_per_group=1, group_count=1,
                         fine_tune_profiles=0)
    split = mt.split(frames, [2])
    trace = tracing.Tracer()
    tracing.instrument(trace, mt)
    try:
        trace.call("bench.train", mt.training.train_grouped, split, fc, "vanilla",
                   cfg, hidden=3)
    finally:
        trace.restore()
    assert mt.training.train_grouped.__module__ == "motortemp.training"
    names = {s["name"] for s in trace.spans}
    assert {"training.train_grouped", "models.forward_for_training",
            "autodiff.backward", "training.adam_step", "features.channel_matrix",
            "features.gather", "models.predict"} <= names
    metrics = tracing.layer_metrics(trace.spans, import_s=1.0)
    # profile 1 is featurized for the statistics and again for its windows
    assert metrics["features.channel_matrix_calls_per_profile"] == (2, "count")
    grouped = [s for s in trace.spans if s["name"] == "training.train_grouped"]
    spent = sum(v for k, (v, _) in metrics.items() if k.startswith("self_s."))
    wall = sum(s["end"] - s["start"] for s in grouped)
    assert spent == pytest.approx(wall)
