"""The package names that the benchmark in perfbench/ patches or relies on.

perfbench/tracer.py wraps package functions by name, and a renamed or
removed name otherwise fails only a traced benchmark run.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

import motortemp as mt
from motortemp import evaluation
from motortemp.dataio import synthesize
from motortemp.features import FeatureConfig, build_dataset, fit_standardization
from motortemp.models import init_params

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_existing_names_and_restore_puts_them_back():
    tracing = load_tracer()
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer, mt)
        patched = list(tracer._patched)
        wrapped = [getattr(owner, attr) for owner, attr, _ in patched]
    finally:
        tracer.restore()
    assert len(patched) == 20
    for (owner, attr, original), stand_in in zip(patched, wrapped):
        where = f"{owner.__name__}.{attr}"
        assert attr in vars(owner), where
        assert stand_in.__wrapped__ is original, where
        assert getattr(owner, attr) is original, where


def test_evaluate_scores_every_batch_through_evaluation_predict(monkeypatch):
    # perfbench/worker.py's PredictRecorder checks each batch that
    # evaluation.predict scores against its oracle, and the report against
    # those batches.
    features = FeatureConfig(spans=(2, 4), window=16)
    frames = synthesize(seed=5, profiles=2, length=50)
    stats = fit_standardization(frames, features)
    dataset = build_dataset(frames, features, stats=stats)
    params = init_params("attention", seed=2,
                         input_dim=features.channel_count(), hidden=4)
    calls = []
    original = evaluation.predict

    def recording(params, batch):
        result = original(params, batch)
        calls.append((batch, result))
        return result

    monkeypatch.setattr(evaluation, "predict", recording)
    report = evaluation.evaluate(params, dataset, stats, batch_size=8)

    n = dataset.n_windows
    assert len(calls) == math.ceil(n / 8)
    inputs, raw = dataset.gather(np.arange(n))
    np.testing.assert_array_equal(np.concatenate([b for b, _ in calls]), inputs)
    predicted = np.concatenate([r for _, r in calls]).reshape(n, -1)
    assert report == evaluation.compute_metrics(
        raw.reshape(n, -1), stats.untransform_predictions(predicted))
