"""Independent forward pass for the three motortemp variants, plain numpy.

Written from the equations in the ``motortemp.models`` docstrings, not from
its code, and organised differently on purpose: each encoder multiplies the
whole window by its input weights in one product before the recurrence,
where the package builds two products per timestep.  Agreement between the
two is therefore evidence that both compute the documented model.

    gates   z = x W_x + h W_h + b              (gate order i, f, o, c)
            i, f, o = clip(0.2 z + 0.5, 0, 1)  (hard sigmoid)
    cell    c_t = f * c_prev + i * tanh(z_c)
    hidden  h_t = o * tanh(c_t)

vanilla: zero-initialised encoder over the window; its final h is the
decoder input and (h, c) seed the decoder; one decoder step; linear head.
bilstm: a second encoder reads the window back to front; [h_f | h_b] is
decoder input and initial h, [c_f | c_b] the initial c.
attention: vanilla wiring; scores <h_de, h_t> over the encoder sequence,
softmax over the window, context = sum_t a_t h_t, head on [context | h_de].
"""

from __future__ import annotations

import numpy as np

GATES = "ifoc"

# Outputs are O(1) in standardized units; summation order alone moves them
# by ~1e-13 over a 180-step window.  A parameter perturbed by 1e-6 moves
# them by orders of magnitude more than this.
RTOL = 1e-8
ATOL = 1e-8


def _cell(blocks: dict, prefix: str):
    wx = np.hstack([blocks[f"{prefix}.w_x{g}"] for g in GATES])
    wh = np.hstack([blocks[f"{prefix}.w_h{g}"] for g in GATES])
    b = np.hstack([blocks[f"{prefix}.b_{g}"] for g in GATES])
    return wx, wh, b


def _step(z, c_prev):
    n = z.shape[1] // 4
    gates = np.clip(0.2 * z[:, :3 * n] + 0.5, 0.0, 1.0)
    i, f, o = gates[:, :n], gates[:, n:2 * n], gates[:, 2 * n:]
    c = f * c_prev + i * np.tanh(z[:, 3 * n:])
    return o * np.tanh(c), c


def _encode(cell, x, reverse=False):
    wx, wh, b = cell
    batch, steps, dim = x.shape
    hidden = wh.shape[0]
    xw = (x.reshape(batch * steps, dim) @ wx).reshape(batch, steps, -1) + b
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    seq = np.empty((batch, steps, hidden))
    for t in (range(steps - 1, -1, -1) if reverse else range(steps)):
        h, c = _step(xw[:, t] + h @ wh, c)
        seq[:, t] = h
    return h, c, seq


def _decode(cell, h, c):
    wx, wh, b = cell
    return _step(h @ wx + h @ wh + b, c)[0]


def forward(params, batch) -> np.ndarray:
    """(batch, output_dim) predictions of ``params`` for a (batch, window,
    channels) array, using only the named parameter blocks."""
    blocks = {name: m.values for name, m in params.items()}
    x = np.asarray(batch, dtype=np.float64)
    w_out, b_out = blocks["output.w"], blocks["output.b"]
    h, c, seq = _encode(_cell(blocks, "encoder"), x)
    if params.variant == "bilstm":
        h_b, c_b, _ = _encode(_cell(blocks, "encoder_back"), x, reverse=True)
        h, c = np.hstack([h, h_b]), np.hstack([c, c_b])
    h_de = _decode(_cell(blocks, "decoder"), h, c)
    if params.variant != "attention":
        return h_de @ w_out + b_out
    scores = np.einsum("bh,bth->bt", h_de, seq)
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    context = np.einsum("bt,bth->bh", weights, seq)
    return np.hstack([context, h_de]) @ w_out + b_out


def agrees(predicted, want) -> bool:
    """True when ``predicted`` (any shape holding the same values) is within
    RTOL/ATOL of the oracle's ``want``."""
    got = np.asarray(predicted, dtype=np.float64).reshape(np.shape(want))
    return bool(np.allclose(got, want, rtol=RTOL, atol=ATOL))


def matches(params, batch, predicted) -> bool:
    """True when ``predicted`` agrees with the oracle for ``batch``."""
    return agrees(predicted, forward(params, batch))
