"""Forward oracles and gradient checks for the matrix tape."""

import threading
import tracemalloc
import zlib

import numpy as np
import pytest

from helpers import (
    assert_grads_close,
    einsum_attend,
    einsum_attend_backward,
    extrapolated_grad,
    numeric_grad,
)
from motortemp import models
from motortemp.autodiff import (
    ContractError,
    Matrix,
    ShapeError,
    Tape,
    affine,
    attend,
    concat_cols,
    lstm_sequence,
    mse,
    slice_cols,
    _folded_weight,
)


class TestMatrix:
    def test_rejects_one_dimensional(self):
        with pytest.raises(ShapeError):
            Matrix([1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Matrix([[1.0, np.nan]])
        with pytest.raises(ValueError):
            Matrix([[np.inf]])

    def test_data_is_row_major(self):
        m = Matrix(np.asfortranarray([[1.0, 2.0], [3.0, 4.0]]))
        assert m.values.flags.c_contiguous
        assert m.values.ravel(order="K").tolist() == [1.0, 2.0, 3.0, 4.0]
        assert m.shape == (2, 2)

    def test_constructor_copies(self):
        src = np.zeros((2, 2))
        m = Matrix(src)
        src[0, 0] = 9.0
        assert m.values[0, 0] == 0.0


class TestForward:
    def test_affine_identity(self):
        a = Matrix(np.arange(6, dtype=float).reshape(2, 3))
        out = affine(a, Matrix(np.eye(3)), Matrix.zeros(1, 3))
        np.testing.assert_array_equal(out.values, a.values)

    def test_affine_hand_value(self):
        out = affine(Matrix([[1.0, 2.0]]), Matrix([[3.0], [4.0]]),
                     Matrix([[0.5]]))
        assert out.values.tolist() == [[11.5]]

    def test_affine_against_triple_loop(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 5))
        b = rng.standard_normal((1, 5))
        want = np.zeros((3, 5))
        for i in range(3):
            for j in range(5):
                for k in range(4):
                    want[i, j] += x[i, k] * w[k, j]
                want[i, j] += b[0, j]
        got = affine(Matrix(x), Matrix(w), Matrix(b)).values
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_affine_adds_the_bias_to_every_row(self):
        x = Matrix([[1.0, 2.0], [3.0, 4.0]])
        b = Matrix([[10.0, 20.0]])
        np.testing.assert_array_equal(
            affine(x, Matrix(np.eye(2)), b).values, [[11.0, 22.0], [13.0, 24.0]]
        )

    def test_affine_shape_error_names_all_three_shapes(self):
        # x's columns miss w's rows; b has two rows; b misses w's columns.
        for x, w, b in [((2, 3), (4, 5), (1, 5)), ((2, 4), (4, 5), (2, 5)),
                        ((2, 4), (4, 5), (1, 4))]:
            with pytest.raises(ShapeError) as exc:
                affine(Matrix.zeros(*x), Matrix.zeros(*w), Matrix.zeros(*b))
            for shape in (x, w, b):
                assert "{}x{}".format(*shape) in str(exc.value)

    @pytest.mark.parametrize("rows", [1, 6])
    def test_affine_forward_and_gradients_bitwise(self, rows):
        # x @ w + b forward; g @ w.T, x.T @ g and g's column sums back.
        rng = np.random.default_rng(43)
        x, w, b, target = (_r(rng, rows, 7), _r(rng, 7, 4), _r(rng, 1, 4),
                           _r(rng, rows, 4))
        with Tape() as tape:
            out = affine(x, w, b)
            loss = mse(out, target)
        g_x, g_w, g_b = tape.backward(loss, wrt=[x, w, b])
        np.testing.assert_array_equal(out.values, x.values @ w.values + b.values)
        half = (1.0 / out.values.size) * (out.values - target.values)
        g = half + half
        np.testing.assert_array_equal(g_x, g @ w.values.T)
        np.testing.assert_array_equal(g_w, x.values.T @ g)
        np.testing.assert_array_equal(g_b, g.sum(axis=0, keepdims=True))

    def test_concat_slice_roundtrip(self):
        rng = np.random.default_rng(13)
        parts = [Matrix(rng.standard_normal((3, w))) for w in (2, 4, 1)]
        cat = concat_cols(parts)
        assert cat.shape == (3, 7)
        np.testing.assert_array_equal(
            slice_cols(cat, 2, 6).values, parts[1].values
        )
        with pytest.raises(ShapeError):
            concat_cols([parts[0], Matrix.zeros(4, 2)])
        with pytest.raises(ShapeError):
            concat_cols([])

    def test_slice_bounds_checked(self):
        m = Matrix.zeros(2, 5)
        for start, stop in [(-1, 3), (3, 3), (2, 6), (4, 2)]:
            with pytest.raises(ShapeError):
                slice_cols(m, start, stop)

    def test_finiteness_closed_over_ops(self):
        rng = np.random.default_rng(14)
        a = Matrix(rng.standard_normal((5, 5)) * 100)
        b = Matrix(rng.standard_normal((5, 5)) * 100)
        big = Matrix(100.0 * np.eye(5))
        keys = affine(big, concat_cols([a, b]), _r(rng, 1, 10, 100.0))
        state = _whole(lstm_sequence(a, _r(rng, 5, 20, 100.0),
                                     _r(rng, 5, 20, 100.0), _r(rng, 1, 20, 100.0),
                                     h0=b, c0=affine(a, big, _r(rng, 1, 5, 100.0))))
        out = attend(affine(slice_cols(state, 0, 5), b, _r(rng, 1, 5, 100.0)),
                     keys)
        assert np.isfinite(state.values).all()
        assert np.isfinite(out.values).all()
        assert np.isfinite(mse(out, Matrix.zeros(*out.shape)).values).all()


class TestMse:
    def test_value(self):
        loss = mse(Matrix([[1.0, 2.0], [3.0, 5.0]]),
                   Matrix([[0.0, 2.0], [1.0, 2.0]]))
        assert loss.values.tolist() == [[(1.0 + 0.0 + 4.0 + 9.0) / 4.0]]

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match="2x3 and 3x2"):
            mse(Matrix.zeros(2, 3), Matrix.zeros(3, 2))

    def test_empty_matrices_are_a_shape_error(self):
        with pytest.raises(ShapeError, match="0x4 and 0x4 are empty"):
            mse(Matrix.zeros(0, 4), Matrix.zeros(0, 4))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        pred, target = _r(rng, 3, 4), _r(rng, 3, 4)
        with Tape() as tape:
            loss = mse(pred, target)
        (analytic,) = tape.backward(loss, wrt=[pred])
        numeric = numeric_grad(
            lambda _: float(mse(pred, target).values[0, 0]), pred.values)
        assert_grads_close(analytic, numeric)

    @pytest.mark.parametrize("rows,cols", [(5, 4), (3, 7), (6, 3), (2, 9)])
    def test_equals_the_graph_of_elementwise_ops_bitwise(self, rows, cols):
        # The loss and its gradient as a graph of elementwise ops gave them:
        # diff = pred + (-1 * target), the sum of diff * diff scaled by 1/n,
        # and on the way back (1/n) * diff from each factor of diff * diff,
        # added.  The target gets no gradient.
        rng = np.random.default_rng(32)
        w, x, target = _r(rng, rows, 3), _r(rng, 3, cols), _r(rng, rows, cols)
        with Tape() as tape:
            loss = mse(affine(w, x, Matrix.zeros(1, cols)), target)
        g_w, g_target = tape.backward(loss, wrt=[w, target])
        diff = w.values @ x.values + (-1.0 * target.values)
        k = 1.0 / float(rows * cols)
        seed = np.full(diff.shape, k)
        g_diff = seed * diff
        g_diff += seed * diff
        np.testing.assert_array_equal(
            loss.values, k * np.array([[(diff * diff).sum()]]))
        np.testing.assert_array_equal(g_w, g_diff @ x.values.T)
        np.testing.assert_array_equal(g_target, np.zeros((rows, cols)))


class TestTape:
    def test_nothing_recorded_without_tape(self):
        tape = Tape()
        y = affine(Matrix(np.ones((2, 2))), Matrix(np.ones((2, 2))),
                   Matrix(np.ones((1, 2))))
        assert tape.node_id(y) is None
        assert len(tape) == 0

    def test_inputs_recorded_before_consumers(self):
        with Tape() as tape:
            a = Matrix(np.ones((2, 3)))
            b = affine(a, Matrix(np.ones((3, 3))), Matrix(np.ones((1, 3))))
            c = affine(b, Matrix(np.ones((3, 3))),
                       slice_cols(Matrix(np.ones((1, 5))), 1, 4))
            out = _whole(lstm_sequence(
                c, Matrix(np.ones((3, 4))), Matrix(np.ones((1, 4))),
                Matrix(np.ones((1, 4))), h0=slice_cols(b, 0, 1),
                c0=Matrix.zeros(2, 1)))
            mse(out, Matrix.zeros(*out.shape))
        for i, node in enumerate(tape.nodes):
            assert all(j < i for j, _ in node.inputs)

    def test_least_squares_closed_form(self):
        rng = np.random.default_rng(5)
        w = Matrix(rng.standard_normal((4, 3)))
        x = Matrix(rng.standard_normal((3, 2)))
        y = Matrix(rng.standard_normal((4, 2)))
        with Tape() as tape:
            loss = mse(affine(w, x, Matrix.zeros(1, 2)), y)
        (g,) = tape.backward(loss, wrt=[w])
        want = (2.0 / 8.0) * (w.values @ x.values - y.values) @ x.values.T
        np.testing.assert_allclose(g, want, rtol=0, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        w = Matrix(np.ones((2, 2)))
        with Tape() as tape:
            y = affine(w, w, Matrix(np.ones((1, 2))))
        with pytest.raises(ContractError):
            tape.backward(y, wrt=[w])

    def test_off_tape_loss_rejected(self):
        with Tape() as tape:
            pass
        loss = mse(Matrix(np.ones((1, 1))), Matrix.zeros(1, 1))
        with pytest.raises(ContractError):
            tape.backward(loss, wrt=[])

    def test_unused_leaf_gets_zero_gradient(self):
        w = Matrix(np.ones((2, 2)))
        unused = Matrix(np.ones((3, 3)))
        with Tape() as tape:
            loss = mse(w, Matrix.zeros(2, 2))
        (g,) = tape.backward(loss, wrt=[unused])
        np.testing.assert_array_equal(g, np.zeros((3, 3)))

    def test_gradients_come_back_by_position(self):
        # One array per wrt entry, in order: a repeated entry twice, a
        # recorded leaf with no path to the loss and a matrix the tape
        # never saw as zeros of their shapes.
        rng = np.random.default_rng(9)
        x, w, b = _r(rng, 3, 4), _r(rng, 4, 2), _r(rng, 1, 2)
        stray, unseen = _r(rng, 2, 5), _r(rng, 5, 3)
        with Tape() as tape:
            slice_cols(stray, 0, 2)
            loss = mse(affine(x, w, b), _r(rng, 3, 2))
        grads = tape.backward(loss, wrt=[b, unseen, w, stray, b, x])
        assert [type(g) for g in grads] == [np.ndarray] * 6
        assert [g.shape for g in grads] == [(1, 2), (5, 3), (4, 2), (2, 5),
                                            (1, 2), (3, 4)]
        alone = [tape.backward(loss, wrt=[m])[0] for m in (b, w, x)]
        for got, want in zip([grads[0], grads[2], grads[4], grads[5]],
                             [alone[0], alone[1], alone[0], alone[2]]):
            np.testing.assert_array_equal(got, want)
            assert np.abs(got).max() > 0.0
        np.testing.assert_array_equal(grads[1], np.zeros((5, 3)))
        np.testing.assert_array_equal(grads[3], np.zeros((2, 5)))

    def test_fanout_accumulates(self):
        x = Matrix([[3.0]])
        with Tape() as tape:
            y = affine(x, x, Matrix([[0.0]]))
            loss = mse(y, Matrix([[0.0]]))
        # d loss / d y = 2 * 9, reaching x as the input (times w = 3) and
        # as the weight (times x = 3).
        (g,) = tape.backward(loss, wrt=[x])
        assert g.tolist() == [[108.0]]

    def test_hard_sigmoid_saturated_gradient_is_zero(self):
        # The gates' hard sigmoid inside a one-step lstm_sequence.  With
        # zero weights every i/f/o gate of hidden unit j sees exactly its
        # bias: -3 and -2.5 clip to 0, 2.5 and 3 to 1, kinks included.
        rng = np.random.default_rng(6)
        bias = np.tile([-3.0, -2.5, 2.5, 3.0], 4)[None]
        bias[0, 12:] = 0.3  # candidate
        b = Matrix(bias)
        x, h0, c0 = _r(rng, 3, 2), _r(rng, 3, 4), _r(rng, 3, 4)
        target = _r(rng, 3, 8)
        with Tape() as tape:
            out = _whole(lstm_sequence(x, Matrix.zeros(2, 16),
                                       Matrix.zeros(4, 16), b, h0=h0, c0=c0))
            loss = mse(out, target)
        g = tape.backward(loss, wrt=[b])[0][0]
        np.testing.assert_array_equal(g[:12], np.zeros(12))
        # Units 2 and 3 write the candidate, so its gradient is not blocked.
        assert (g[14:] != 0.0).all()

    def test_tapes_are_per_thread(self):
        # Both threads hold an open tape while both record; each must find
        # its own ops on its own tape.
        barrier = threading.Barrier(2, timeout=10)
        results = {}

        def work(k):
            try:
                w = Matrix(np.full((2, 2), k))
                with Tape() as tape:
                    barrier.wait()
                    loss = mse(w, Matrix.zeros(2, 2))
                    barrier.wait()
                (results[k],) = tape.backward(loss, wrt=[w])
            except Exception as exc:  # reported below, not lost in the thread
                results[k] = exc

        threads = [threading.Thread(target=work, args=(k,)) for k in (1.0, 2.0)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        for k in (1.0, 2.0):
            assert isinstance(results[k], np.ndarray), results[k]
            # 2 * w / 4 for a loss over four entries.
            np.testing.assert_array_equal(results[k],
                                          np.full((2, 2), k / 2.0))


def _r(rng, rows, cols, spread=1.0):
    return Matrix(rng.standard_normal((rows, cols)) * spread)


def _whole(parts):
    """lstm_sequence's (h, c, seq) side by side, [h | c] without a kept
    sequence."""
    return concat_cols([m for m in parts if m is not None])


def _lstm_inputs(rng, steps=4):
    # Two windows of ``steps`` 3-wide steps, hidden width 2.  Small weights
    # keep every gate pre-activation well inside the hard sigmoid's kinks,
    # where the subgradient and the difference quotient legitimately
    # disagree.
    return [_r(rng, 2, 3 * steps, 0.5), _r(rng, 3, 8, 0.4), _r(rng, 2, 8, 0.4),
            _r(rng, 1, 8, 0.4)]


def _lstm_state_inputs(rng, steps=4):
    # The same, plus initial states h0 and c0.
    return _lstm_inputs(rng, steps) + [_r(rng, 2, 2, 0.5), _r(rng, 2, 2)]


def _decoder_inputs(rng):
    # One step whose input is also its initial hidden state (D == H), as in
    # the models' decoder: the gradients of both uses must add up.
    return [_r(rng, 2, 2, 0.5), _r(rng, 2, 8, 0.4), _r(rng, 2, 8, 0.4),
            _r(rng, 1, 8, 0.4), _r(rng, 2, 2)]


# One entry per primitive (plus one-row and state variants): input builders
# and the op under test.
PRIMITIVES = [
    ("affine", lambda rng: [_r(rng, 3, 4), _r(rng, 4, 5), _r(rng, 1, 5)],
     lambda x, w, b: affine(x, w, b)),
    ("affine_one_row", lambda rng: [_r(rng, 1, 4), _r(rng, 4, 5), _r(rng, 1, 5)],
     lambda x, w, b: affine(x, w, b)),
    ("concat_cols", lambda rng: [_r(rng, 3, 2), _r(rng, 3, 3), _r(rng, 3, 1)],
     lambda *ps: concat_cols(ps)),
    ("slice_cols", lambda rng: [_r(rng, 3, 6)],
     lambda a: slice_cols(a, 1, 4)),
    ("lstm_sequence", _lstm_inputs,
     lambda x, wx, wh, b: _whole(lstm_sequence(x, wx, wh, b))),
    ("lstm_sequence_reverse", _lstm_inputs,
     lambda x, wx, wh, b: _whole(lstm_sequence(x, wx, wh, b, reverse=True))),
    ("lstm_sequence_kept", _lstm_inputs,
     lambda x, wx, wh, b: _whole(lstm_sequence(x, wx, wh, b,
                                               keep_sequence=True))),
    ("lstm_sequence_reverse_kept", _lstm_inputs,
     lambda x, wx, wh, b: _whole(lstm_sequence(x, wx, wh, b, reverse=True,
                                               keep_sequence=True))),
    ("lstm_sequence_states", _lstm_state_inputs,
     lambda x, wx, wh, b, h0, c0: _whole(lstm_sequence(x, wx, wh, b, h0=h0,
                                                       c0=c0))),
    ("lstm_sequence_reverse_states", _lstm_state_inputs,
     lambda x, wx, wh, b, h0, c0: _whole(lstm_sequence(
         x, wx, wh, b, reverse=True, h0=h0, c0=c0))),
    ("lstm_sequence_decoder_step", _decoder_inputs,
     lambda x, wx, wh, b, c0: _whole(lstm_sequence(x, wx, wh, b, h0=x, c0=c0))),
    # One part read alone: the backward takes no gradient for the others.
    ("lstm_sequence_part_h", _lstm_state_inputs,
     lambda x, wx, wh, b, h0, c0: lstm_sequence(x, wx, wh, b, h0=h0, c0=c0)[0]),
    ("lstm_sequence_part_c", _lstm_state_inputs,
     lambda x, wx, wh, b, h0, c0: lstm_sequence(x, wx, wh, b, reverse=True,
                                                h0=h0, c0=c0)[1]),
    ("lstm_sequence_part_seq", _lstm_state_inputs,
     lambda x, wx, wh, b, h0, c0: lstm_sequence(
         x, wx, wh, b, keep_sequence=True, h0=h0, c0=c0)[2]),
    # The backward re-runs the steps span by span, isqrt(T) steps each:
    # 4 steps split into two whole spans, while 5 and 10 steps end on a
    # partial span of one step.
    *[case for steps in (5, 10) for case in (
        (f"lstm_sequence_{steps}_steps",
         lambda rng, _s=steps: _lstm_inputs(rng, _s),
         lambda x, wx, wh, b: _whole(lstm_sequence(x, wx, wh, b))),
        (f"lstm_sequence_reverse_kept_{steps}_steps",
         lambda rng, _s=steps: _lstm_inputs(rng, _s),
         lambda x, wx, wh, b: _whole(lstm_sequence(x, wx, wh, b, reverse=True,
                                                   keep_sequence=True))),
        (f"lstm_sequence_kept_states_{steps}_steps",
         lambda rng, _s=steps: _lstm_state_inputs(rng, _s),
         lambda x, wx, wh, b, h0, c0: _whole(lstm_sequence(
             x, wx, wh, b, keep_sequence=True, h0=h0, c0=c0))),
        (f"lstm_sequence_reverse_states_{steps}_steps",
         lambda rng, _s=steps: _lstm_state_inputs(rng, _s),
         lambda x, wx, wh, b, h0, c0: _whole(lstm_sequence(
             x, wx, wh, b, reverse=True, h0=h0, c0=c0))),
    )],
    ("attend", lambda rng: [_r(rng, 3, 4), _r(rng, 3, 20)],
     lambda q, k: attend(q, k)),
]


@pytest.mark.parametrize("name,build,op", PRIMITIVES, ids=[p[0] for p in PRIMITIVES])
def test_primitive_gradients_match_finite_differences(name, build, op):
    # crc32, unlike hash(), gives every process the same inputs.
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    inputs = build(rng)
    out_probe = op(*inputs)
    target = Matrix(np.random.default_rng(99).standard_normal(out_probe.shape))

    with Tape() as tape:
        loss = mse(op(*inputs), target)
    grads = tape.backward(loss, wrt=inputs)

    for pos, inp in enumerate(inputs):
        def f(_arr, _pos=pos):
            return float(mse(op(*inputs), target).values[0, 0])
        numeric = extrapolated_grad(f, inp.values)
        assert_grads_close(grads[pos], numeric)


def test_composite_graph_gradient():
    rng = np.random.default_rng(77)
    a = Matrix(rng.standard_normal((3, 4)) * 0.5)
    b = Matrix(rng.standard_normal((4, 4)) * 0.5)
    wx, wh, bias = _r(rng, 4, 8, 0.3), _r(rng, 2, 8, 0.3), _r(rng, 1, 8, 0.3)
    row, row2 = _r(rng, 1, 4, 0.5), _r(rng, 1, 4, 0.5)
    target = _r(rng, 3, 4)

    def graph(a_m, b_m):
        h = affine(a_m, b_m, row2)
        sq = affine(h, b_m, row)
        split = concat_cols([slice_cols(sq, 2, 4), slice_cols(h, 0, 2)])
        state = _whole(lstm_sequence(split, wx, wh, bias, h0=slice_cols(h, 0, 2),
                                     c0=slice_cols(sq, 2, 4)))
        out = attend(slice_cols(state, 0, 2),
                     concat_cols([slice_cols(h, 2, 4), slice_cols(state, 2, 4)]))
        return mse(out, target)

    with Tape() as tape:
        loss = graph(a, b)
    grads = tape.backward(loss, wrt=[a, b])

    for m, analytic in zip((a, b), grads):
        numeric = numeric_grad(lambda _: float(graph(a, b).values[0, 0]), m.values)
        assert np.abs(analytic).max() > 1e-3
        assert_grads_close(analytic, numeric)


def test_two_slices_of_one_matrix_accumulate():
    rng = np.random.default_rng(78)
    x = _r(rng, 3, 6)
    t1, t2 = _r(rng, 3, 4), _r(rng, 3, 4)
    with Tape() as tape:
        loss = mse(concat_cols([slice_cols(x, 0, 4), slice_cols(x, 2, 6)]),
                   concat_cols([t1, t2]))
    (got,) = tape.backward(loss, wrt=[x])

    def grad(diff):  # of an mse over 24 entries, as mse's backward adds it
        half = (1.0 / 24.0) * diff
        return half + half

    want = np.zeros((3, 6))
    want[:, 0:4] += grad(x.values[:, 0:4] - t1.values)
    want[:, 2:6] += grad(x.values[:, 2:6] - t2.values)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("keep_sequence", [False, True])
def test_lstm_sequence_taped_and_untaped_agree_bitwise(reverse, keep_sequence):
    # Off tape the layer reuses one slot per state instead of a history;
    # the arithmetic must be the same.  Spread 3 clips some gates.
    rng = np.random.default_rng(80)
    inputs = [_r(rng, 3, 20, 3.0), _r(rng, 4, 12), _r(rng, 3, 12),
              _r(rng, 1, 12)]
    off = _whole(lstm_sequence(*inputs, reverse=reverse,
                               keep_sequence=keep_sequence))
    with Tape():
        on = _whole(lstm_sequence(*inputs, reverse=reverse,
                                  keep_sequence=keep_sequence))
    np.testing.assert_array_equal(on.values, off.values)


def test_lstm_sequence_shape_errors():
    wx, wh, b = Matrix.zeros(3, 8), Matrix.zeros(2, 8), Matrix.zeros(1, 8)
    with pytest.raises(ShapeError):
        lstm_sequence(Matrix.zeros(2, 10), wx, wh, b)  # not whole steps
    with pytest.raises(ShapeError):
        lstm_sequence(Matrix.zeros(2, 6), Matrix.zeros(3, 6), wh, b)
    with pytest.raises(ShapeError):
        lstm_sequence(Matrix.zeros(2, 6), wx, Matrix.zeros(3, 8), b)
    x, state = Matrix.zeros(2, 6), Matrix.zeros(2, 2)
    with pytest.raises(ShapeError, match="h0 is 3x2"):
        lstm_sequence(x, wx, wh, b, h0=Matrix.zeros(3, 2), c0=state)
    with pytest.raises(ShapeError, match="c0 is 2x4"):
        lstm_sequence(x, wx, wh, b, h0=state, c0=Matrix.zeros(2, 4))
    with pytest.raises(ContractError, match="together"):
        lstm_sequence(x, wx, wh, b, h0=state)
    with pytest.raises(ShapeError):
        attend(Matrix.zeros(2, 4), Matrix.zeros(2, 10))
    with pytest.raises(ShapeError):
        attend(Matrix.zeros(2, 4), Matrix.zeros(3, 8))




def _taped_lstm(reverse, keep_sequence, steps=5):
    """``steps`` 4-wide steps, hidden width 3, seven windows, recorded with
    an mse loss against a random target; spread 3 clips some gates.  Returns the inputs, the
    loss, the tape and the lstm_sequence node."""
    rng = np.random.default_rng(81)
    inputs = [_r(rng, 7, 4 * steps, 3.0), _r(rng, 4, 12), _r(rng, 3, 12),
              _r(rng, 1, 12)]
    with Tape() as tape:
        parts = lstm_sequence(*inputs, reverse=reverse,
                              keep_sequence=keep_sequence)
        out = _whole(parts)
        loss = mse(out, _r(rng, *out.shape))
    return inputs, loss, tape, tape.nodes[tape.node_id(parts[0])]


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("keep_sequence", [False, True])
def test_lstm_sequence_keeps_span_starts_only(reverse, keep_sequence):
    # Of the states the node keeps only the [cell; hidden] pair that starts
    # each span of isqrt(T) steps after the first, beside the folded weight
    # and the initial states: every gate, cell and hidden state is re-run
    # on the way back.  Five steps make spans of 2, 2 and 1 steps.
    *_, node = _taped_lstm(reverse, keep_sequence)
    d, n, rows = 4, 3, 7
    kept = sum(a.nbytes for a in node.ctx if isinstance(a, np.ndarray))
    span_starts = 2 * (3 - 1) * n * rows
    weight = 4 * n * (d + n + 1)
    initial_states = 2 * n * rows
    assert kept == 8 * (span_starts + weight + initial_states)


@pytest.mark.parametrize("reverse", [False, True])
def test_hidden_states_rebuild_bitwise_from_kept_span_starts(reverse):
    # Each span re-run from its kept [cell; hidden] pair (span 0 from zero)
    # with the whole folded product z = W @ [x_t; h_{s-1}; 1], then
    # i, f, o = clip(z), g = tanh(z_c), c_s = f * c_{s-1} + i * g and
    # h_s = tanh(c_s) * o, gives the kept hidden sequence bit for bit.
    inputs, *_, node = _taped_lstm(reverse, keep_sequence=True)
    starts, w = [a for a in node.ctx if isinstance(a, np.ndarray)][:2]
    n, rows = starts.shape[2], starts.shape[3]
    d = w.shape[1] - n - 1
    steps = inputs[0].cols // d
    xs = inputs[0].values.reshape(rows, steps, d)
    span = 2
    assert starts.shape == (2, 2, n, rows)
    hidden = np.empty((steps, n, rows))
    c_prev, h_prev = np.zeros((n, rows)), np.zeros((n, rows))
    for s in range(steps):
        if s and s % span == 0:
            c_prev, h_prev = starts[s // span - 1]
        t = steps - 1 - s if reverse else s
        operand = np.concatenate([xs[:, t].T, h_prev, np.ones((1, rows))])
        z = w @ operand
        i, f, o = np.clip(z[:3 * n], 0.0, 1.0).reshape(3, n, rows)
        g = np.tanh(z[3 * n:])
        c_prev = f * c_prev + i * g
        h_prev = hidden[s] = np.tanh(c_prev) * o
    out = node.out.values
    seq = out[:, 2 * n:].reshape(out.shape[0], -1, n).transpose(1, 2, 0)
    np.testing.assert_array_equal(hidden, seq)


def _bptt_keeping_every_gate(x, wx, wh, b, g, reverse, g_seq=None):
    """The weight gradients of one LSTM layer from zero states, with the
    node's folded weight and op order but every gate of the forward kept:
    the reference for the re-run spans.  ``g`` is the upstream
    gradient of [h | c] after the last step, and ``g_seq``, if given, that
    of the kept hidden sequence, B x TH in processing order."""
    n = wh.shape[0]
    rows, d = x.shape[0], wx.shape[0]
    steps = x.shape[1] // d
    xs = x.reshape(rows, steps, d)
    w = _folded_weight(wx, wh, b)
    h, c = np.zeros((n, rows)), np.zeros((n, rows))
    kept = []
    for s in range(steps):
        t = steps - 1 - s if reverse else s
        operand = np.concatenate([xs[:, t].T, h, np.ones((1, rows))])
        z = w @ operand
        z[:3 * n] = np.clip(z[:3 * n], 0.0, 1.0)
        z[3 * n:] = np.tanh(z[3 * n:])
        c_prev, c = c, z[n:2 * n] * c + z[:n] * z[3 * n:]
        tc = np.tanh(c)
        h = tc * z[2 * n:3 * n]
        kept.append((z, c_prev, tc, operand))
    wh_t = np.ascontiguousarray(w[:, d:d + n].T)
    dh, dc = g[:, :n].T.copy(), g[:, n:].T.copy()
    dw = np.zeros(w.shape)
    for s in range(steps - 1, -1, -1):
        z, c_prev, tc, operand = kept[s]
        if g_seq is not None:
            dh += g_seq[:, s * n:(s + 1) * n].T
        i, f, o, gc = z[:n], z[n:2 * n], z[2 * n:3 * n], z[3 * n:]
        dz = np.empty_like(z)
        dz[2 * n:3 * n] = dh * tc
        dc += (1.0 - tc * tc) * o * dh
        dz[:n], dz[n:2 * n] = dc * gc, dc * c_prev
        dz[3 * n:] = dc * i * (1.0 - gc * gc)
        dz[:3 * n] *= (z[:3 * n] > 0.0) & (z[:3 * n] < 1.0)
        dc *= f
        dw += dz @ operand.T
        dh = wh_t @ dz
    dw[:3 * n] *= 0.2
    return dw[:, :d].T, dw[:, d:d + n].T, dw[:, d + n:].T


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("rows", [17, 44, 200, 256])
def test_backward_equals_bptt_keeping_every_gate_bitwise(reverse, rows):
    # At the paper encoder's widths, over ten steps (spans of 3, 3, 3 and
    # 1), at batch widths where OpenBLAS gives a product of some of the
    # weight's rows other bits than the stacked product (17, 44) and where
    # it does not (200, 256), at one and at two BLAS threads.
    calls = models._openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy has no bundled OpenBLAS with thread controls")
    get, put = calls
    rng = np.random.default_rng(83)
    x, wx, wh, b = (_r(rng, rows, 10 * 65), _r(rng, 65, 400, 0.3),
                    _r(rng, 100, 400, 0.3), _r(rng, 1, 400))
    target = _r(rng, rows, 200)
    before = get()
    for threads in (1, 2):
        put(threads)
        try:
            with Tape() as tape:
                out = _whole(lstm_sequence(x, wx, wh, b, reverse=reverse))
                loss = mse(out, target)
            got = tape.backward(loss, wrt=[wx, wh, b])
            half = (1.0 / out.values.size) * (out.values - target.values)
            want = _bptt_keeping_every_gate(x.values, wx.values, wh.values,
                                            b.values, half + half, reverse)
        finally:
            put(before)
        for a, e in zip(got, want):
            np.testing.assert_array_equal(a, e, err_msg=f"{threads} threads")


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("keep_sequence", [False, True])
def test_backward_twice_on_one_tape_gives_identical_gradients(
        reverse, keep_sequence):
    # The backward pass must leave the kept context as it found it.
    inputs, loss, tape, _ = _taped_lstm(reverse, keep_sequence)
    first = tape.backward(loss, wrt=inputs)
    second = tape.backward(loss, wrt=inputs)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("reverse", [False, True])
def test_backward_twice_over_a_partial_last_span(reverse):
    # Ten steps make spans of 3, 3, 3 and 1: the re-run buffer is reused
    # across spans of two lengths, and must never write into the kept
    # span starts.
    inputs, loss, tape, node = _taped_lstm(reverse, keep_sequence=True,
                                           steps=10)
    kept = [a.copy() for a in node.ctx if isinstance(a, np.ndarray)]
    first = tape.backward(loss, wrt=inputs)
    second = tape.backward(loss, wrt=inputs)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)
    for was, now in zip(kept, [a for a in node.ctx if isinstance(a, np.ndarray)]):
        np.testing.assert_array_equal(was, now)


def test_tape_memory_grows_with_the_root_of_the_window():
    # The node keeps one [cell; hidden] pair per span of isqrt(T) steps and
    # the backward one span of scratch, so the traced peak of a taped
    # forward and backward grows like sqrt(T): 4x the steps, about 2x the
    # peak.  Kept per-step state would make it grow like T.
    rng = np.random.default_rng(84)
    wx, wh, b = _r(rng, 8, 64, 0.3), _r(rng, 16, 64, 0.3), _r(rng, 1, 64)
    peaks = {}
    for steps in (100, 400):
        x = _r(rng, 32, 8 * steps)
        target = _r(rng, 32, 32)
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = mse(_whole(lstm_sequence(x, wx, wh, b)), target)
            tape.backward(loss, wrt=[wx, wh, b])
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del tape, loss
    assert peaks[400] < 2.5 * peaks[100], peaks


def _mse_grad(diff, count):
    """The gradient of an mse over ``count`` entries at ``diff``, formed as
    mse's backward forms it."""
    half = (1.0 / count) * diff
    return half + half


def _lstm_slice_inputs(rng, rows):
    return [_r(rng, rows, 20, 3.0), _r(rng, 4, 12), _r(rng, 3, 12),
            _r(rng, 1, 12)]


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("unused", ["c", "h", "seq"])
def test_lstm_sequence_read_through_slices(reverse, unused):
    # A 5-step layer of hidden width 3 reaches the loss through its h, c
    # and kept sequence, one of them unused, whose gradient never arrives.
    # Each part's own gradient must come back as the loss gave it, the
    # unused one as zeros, and the weight gradients must be those of the
    # whole upstream gradient, zeros for the unused part, bit for bit.
    rng = np.random.default_rng(85)
    x, wx, wh, b = _lstm_slice_inputs(rng, 7)
    with Tape() as tape:
        parts = dict(zip(("h", "c", "seq"), lstm_sequence(
            x, wx, wh, b, reverse=reverse, keep_sequence=True)))
        targets = {name: _r(rng, *m.shape) for name, m in parts.items()
                   if name != unused}
        loss = mse(concat_cols([parts[name] for name in targets]),
                   concat_cols(list(targets.values())))
    got = tape.backward(loss, wrt=[wx, wh, b, *parts.values()])
    count = sum(t.values.size for t in targets.values())
    want = {name: np.zeros(m.shape) for name, m in parts.items()}
    for name, t in targets.items():
        want[name] = _mse_grad(parts[name].values - t.values, count)
    for g, e in zip(got[3:], want.values()):
        np.testing.assert_array_equal(g, e)
    ref = _bptt_keeping_every_gate(x.values, wx.values, wh.values, b.values,
                                   np.hstack([want["h"], want["c"]]), reverse,
                                   want["seq"])
    for a, e in zip(got[:3], ref):
        np.testing.assert_array_equal(a, e)


def test_sliced_matrix_in_wrt_comes_back_whole():
    # Two slices of one range add up, a third lies apart, and the columns
    # between them get zeros; each slice's own gradient comes back as the
    # loss gave it.
    rng = np.random.default_rng(87)
    x, t = _r(rng, 3, 8), _r(rng, 3, 7)
    with Tape() as tape:
        parts = [slice_cols(x, 0, 2), slice_cols(x, 0, 2), slice_cols(x, 5, 8)]
        loss = mse(concat_cols(parts), t)
    got_x, *got_parts = tape.backward(loss, wrt=[x, *parts])
    g = [_mse_grad(x.values[:, 0:2] - t.values[:, 0:2], 21),
         _mse_grad(x.values[:, 0:2] - t.values[:, 2:4], 21),
         _mse_grad(x.values[:, 5:8] - t.values[:, 4:7], 21)]
    want = np.zeros((3, 8))
    want[:, 0:2] += g[0]
    want[:, 0:2] += g[1]
    want[:, 5:8] += g[2]
    np.testing.assert_array_equal(got_x, want)
    for got, own in zip(got_parts, g):
        np.testing.assert_array_equal(got, own)


@pytest.mark.parametrize("keep_sequence", [False, True])
@pytest.mark.parametrize("whole", [False, True])
def test_one_row_gradients_survive_the_lstm_backward(keep_sequence, whole):
    # At one row the transpose of a (1, H) gradient is already contiguous,
    # and the backward walks dh and dc back in place: it must do so on
    # copies, so the gradients of the parts read side by side, or of h and
    # c read on their own, come back as the loss gave them.
    rng = np.random.default_rng(88)
    x, wx, wh, b = _lstm_slice_inputs(rng, 1)
    with Tape() as tape:
        parts = lstm_sequence(x, wx, wh, b, keep_sequence=keep_sequence)
        read = [_whole(parts)] if whole else list(parts[:2])
        targets = [_r(rng, *m.shape) for m in read]
        loss = mse(concat_cols(read), concat_cols(targets))
    *got, got_wx = tape.backward(loss, wrt=[*read, wx])
    count = sum(m.cols for m in read)
    for g, m, t in zip(got, read, targets):
        np.testing.assert_array_equal(g, _mse_grad(m.values - t.values, count))
    assert np.abs(got_wx).max() > 0.0


def test_inf_gradient_through_a_clipped_input_gate_stays_non_finite():
    # The input gate is clipped at every step (bias -10), so the states
    # start from given ones, and an overflowing output map sends an
    # infinite gradient back.  The clip
    # mask multiplies, so inf * 0 gives NaN and the input gate's blocks
    # are non-finite: a diverging step is located by its first non-finite
    # gradient block, and a mask that wrote zeros there would hide it.
    rng = np.random.default_rng(90)
    bias = np.zeros((1, 8))
    bias[0, :2] = -10.0
    x, wx, wh, b = (_r(rng, 2, 6, 0.1), _r(rng, 3, 8, 0.1), _r(rng, 2, 8, 0.1),
                    Matrix(bias))
    h0, c0 = _r(rng, 2, 2), _r(rng, 2, 2)
    big = Matrix(np.full((4, 1), 1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        with Tape() as tape:
            out = _whole(lstm_sequence(x, wx, wh, b, h0=h0, c0=c0))
            loss = mse(affine(out, big, Matrix.zeros(1, 1)), Matrix.zeros(2, 1))
        grads = tape.backward(loss, wrt=[out, wx, wh, b])
    assert np.isinf(grads[0]).all()
    for g in grads[1:]:
        assert not np.isfinite(g[:, :2]).any()


@pytest.mark.parametrize("context_only", [False, True])
def test_attend_matches_einsum_reference_at_paper_shape(context_only):
    # Batch 256, window 180, hidden 100: the batched products must agree
    # with the plain einsum forms to rounding, whether the loss reads the
    # whole output or, as the attention model does, only the context.
    rng = np.random.default_rng(89)
    rows, steps, n = 256, 180, 100
    q = Matrix(np.tanh(rng.standard_normal((rows, n))))
    keys = Matrix(np.tanh(rng.standard_normal((rows, steps * n))))
    width = n if context_only else steps + n
    target = _r(rng, rows, width)
    with Tape() as tape:
        out = attend(q, keys)
        read = slice_cols(out, steps, steps + n) if context_only else out
        loss = mse(read, target)
    dq, dk = tape.backward(loss, wrt=[q, keys])

    def rel(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    want = einsum_attend(q.values, keys.values)
    assert rel(out.values, want) <= 1e-13
    assert np.abs(out.values[:, :steps].sum(axis=1) - 1.0).max() <= 1e-13
    g = np.zeros(out.shape)
    g[:, steps + n - width:] = _mse_grad(read.values - target.values,
                                         rows * width)
    want_dq, want_dk = einsum_attend_backward(q.values, keys.values, g)
    assert rel(dq, want_dq) <= 1e-13
    assert rel(dk, want_dk) <= 1e-13
