"""Shared test utilities: finite differences and tiny data builders."""

import numpy as np

from motortemp.autodiff import Matrix, Tape, mse
from motortemp.dataio import ProfileFrame
from motortemp.models import forward_for_training, predict


def numeric_grad(f, arr, h=1e-4):
    """Central finite differences of a scalar function of one array."""
    arr = np.asarray(arr, dtype=np.float64)
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        ij = it.multi_index
        saved = arr[ij]
        arr[ij] = saved + h
        hi = f(arr)
        arr[ij] = saved - h
        lo = f(arr)
        arr[ij] = saved
        grad[ij] = (hi - lo) / (2.0 * h)
        it.iternext()
    return grad


def extrapolated_grad(f, arr, h=1e-4):
    """Richardson extrapolation of ``numeric_grad`` at h and h/2.

    A central difference errs by c h**2 + O(h**4); (4 D(h/2) - D(h)) / 3
    cancels the h**2 term.
    """
    coarse = numeric_grad(f, arr, h)
    fine = numeric_grad(f, arr, h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def assert_grads_close(analytic, numeric, rel_tol=1e-4, floor=1e-6):
    """Relative agreement wherever either gradient is meaningfully nonzero."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    assert analytic.shape == numeric.shape
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    mask = scale > floor
    if not mask.any():
        return
    rel = np.abs(analytic - numeric)[mask] / scale[mask]
    assert rel.max() < rel_tol, f"max relative gradient error {rel.max():.3e}"


def model_loss(params, batch, targets):
    """Training-path MSE as a plain float (no tape needed)."""
    d = predict(params, batch).reshape(len(batch), -1) - targets
    return float(np.mean(d * d))


def analytic_param_grads(params, batch, targets):
    """Gradient of the taped MSE loss for every (per-gate) parameter block."""
    with Tape() as tape:
        pred = forward_for_training(params, batch)
        loss = mse(pred, Matrix(targets))
    grads = tape.backward(loss, wrt=params.matrices())
    return {name: g.values for name, g in
            params.per_gate(Matrix._wrap(g) for g in grads)}


def check_model_gradients(params, batch, targets, rel_tol=1e-4, floor=1e-6):
    """Finite-difference check of every parameter entry of a model."""
    analytic = analytic_param_grads(params, batch, targets)
    for name, mat in params.items():
        def f(_arr, _m=mat):
            return model_loss(params, batch, targets)
        numeric = numeric_grad(f, mat.values)
        assert_grads_close(analytic[name], numeric, rel_tol, floor)


def taped_attention(params, batch):
    """The nodes of a taped attention forward: the ``attend`` node, whose
    output is [alignment | context], and the attentional state that feeds
    the output map's ``affine`` node as its first input."""
    with Tape() as tape:
        forward_for_training(params, batch)
    (node,) = [nd for nd in tape.nodes if nd.op == "attend"]
    (head,) = [nd for nd in tape.nodes if nd.op == "affine"]
    (feed, _) = head.inputs[0]
    return node, tape.nodes[feed]


def einsum_attend(q, keys):
    """``autodiff.attend`` in plain numpy: [alignment | context] of the
    (B, H) queries over the (B, T*H) keys, with every product an einsum."""
    rows, n = q.shape
    k3 = keys.reshape(rows, -1, n)
    scores = np.einsum("bth,bh->bt", k3, q)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    align = e / e.sum(axis=1, keepdims=True)
    return np.concatenate([align, np.einsum("bt,bth->bh", align, k3)], axis=1)


def einsum_attend_backward(q, keys, g):
    """The gradients (dq, dkeys) of ``einsum_attend`` for the upstream
    gradient ``g`` of its output, by the chain rule in plain numpy."""
    rows, n = q.shape
    k3 = keys.reshape(rows, -1, n)
    steps = k3.shape[1]
    align = einsum_attend(q, keys)[:, :steps]
    g_align, g_ctx = g[:, :steps], g[:, steps:]
    da = g_align + np.einsum("bth,bh->bt", k3, g_ctx)
    ds = align * (da - (align * da).sum(axis=1, keepdims=True))
    dk = (np.einsum("bt,bh->bth", align, g_ctx)
          + np.einsum("bt,bh->bth", ds, q))
    return np.einsum("bt,bth->bh", ds, k3), dk.reshape(rows, steps * n)


def reference_adam_step(params, grads, state, config):
    """Adam as it runs on the per-gate blocks of ``params.items()``: the
    reference that ``training.adam_step`` must match bit for bit.

    ``grads`` maps each gate block name to its gradient; ``state`` is a
    dict of per-gate ``m`` and ``v`` dicts (filled on first use) and the
    ``step`` count.
    """
    items = params.items()
    gs = dict(grads)
    if config.clip_norm is not None:
        total = np.sqrt(sum(float((a * a).sum()) for a in gs.values()))
        if total > config.clip_norm:
            factor = config.clip_norm / total
            gs = {name: a * factor for name, a in gs.items()}
    state["step"] += 1
    t = state["step"]
    correct1 = 1.0 - 0.9 ** t
    correct2 = 1.0 - 0.999 ** t
    for name, mat in items:
        g = gs[name]
        m = state["m"].setdefault(name, np.zeros(mat.shape))
        v = state["v"].setdefault(name, np.zeros(mat.shape))
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * (g * g)
        update = (m / correct1) / (np.sqrt(v / correct2) + 1e-8)
        mat.values -= config.learning_rate * update


def make_frame(pid=1, n=8, **overrides):
    """A tiny ProfileFrame with every standard attribute present."""
    rng = np.random.default_rng(pid * 1000 + n)
    cols = {
        name: rng.standard_normal(n)
        for name in (
            "ambient", "coolant", "u_d", "u_q", "motor_speed", "torque",
            "i_d", "i_q", "pm", "stator_yoke", "stator_tooth",
            "stator_winding",
        )
    }
    cols.update({k: np.asarray(v, dtype=np.float64) for k, v in overrides.items()})
    return ProfileFrame(pid, cols)


def zero_params(params):
    """Zero every weight in place; returns the same object."""
    for _, m in params.items():
        m.values[:] = 0.0
    return params
