"""Forward oracles and gradient checks for the matrix tape."""

import threading

import numpy as np
import pytest

from helpers import assert_grads_close, numeric_grad
from motortemp.autodiff import (
    ContractError,
    Matrix,
    ShapeError,
    Tape,
    add,
    attend,
    backward,
    concat_cols,
    lstm_sequence,
    matmul,
    mse,
    slice_cols,
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
    def test_matmul_identity(self):
        a = Matrix(np.arange(6, dtype=float).reshape(2, 3))
        out = matmul(a, Matrix(np.eye(3)))
        np.testing.assert_array_equal(out.values, a.values)

    def test_matmul_hand_value(self):
        out = matmul(Matrix([[1.0, 2.0]]), Matrix([[3.0], [4.0]]))
        assert out.values.tolist() == [[11.0]]

    def test_matmul_against_triple_loop(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        want = np.zeros((3, 5))
        for i in range(3):
            for j in range(5):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        got = matmul(Matrix(a), Matrix(b)).values
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            matmul(Matrix.zeros(2, 3), Matrix.zeros(4, 5))
        assert "2x3" in str(exc.value) and "4x5" in str(exc.value)

    def test_matmul_associativity(self):
        rng = np.random.default_rng(7)
        a, b, c = (Matrix(rng.standard_normal((4, 4))) for _ in range(3))
        left = matmul(matmul(a, b), c).values
        right = matmul(a, matmul(b, c)).values
        np.testing.assert_allclose(left, right, rtol=1e-9)

    def test_add_and_row_broadcast(self):
        a = Matrix([[1.0, 2.0], [3.0, 4.0]])
        b = Matrix([[10.0, 20.0]])
        np.testing.assert_array_equal(
            add(a, b).values, [[11.0, 22.0], [13.0, 24.0]]
        )
        np.testing.assert_array_equal(
            add(b, a).values, [[11.0, 22.0], [13.0, 24.0]]
        )
        with pytest.raises(ShapeError):
            add(a, Matrix.zeros(3, 2))

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
        keys = matmul(big, concat_cols([a, b]))
        state = lstm_sequence(a, _r(rng, 5, 20, 100.0), _r(rng, 5, 20, 100.0),
                              _r(rng, 1, 20, 100.0), h0=b, c0=matmul(a, big))
        out = attend(matmul(slice_cols(state, 0, 5), b), keys)
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
        analytic = tape.backward(loss, wrt=[pred])[tape.node_id(pred)].values
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
            loss = mse(matmul(w, x), target)
        grads = tape.backward(loss, wrt=[w, target])
        diff = w.values @ x.values + (-1.0 * target.values)
        k = 1.0 / float(rows * cols)
        seed = np.full(diff.shape, k)
        g_diff = seed * diff
        g_diff += seed * diff
        np.testing.assert_array_equal(
            loss.values, k * np.array([[(diff * diff).sum()]]))
        np.testing.assert_array_equal(grads[tape.node_id(w)].values,
                                      g_diff @ x.values.T)
        np.testing.assert_array_equal(grads[tape.node_id(target)].values,
                                      np.zeros((rows, cols)))


class TestTape:
    def test_nothing_recorded_without_tape(self):
        tape = Tape()
        y = matmul(Matrix.ones(2, 2), Matrix.ones(2, 2))
        assert tape.node_id(y) is None
        assert len(tape) == 0

    def test_inputs_recorded_before_consumers(self):
        with Tape() as tape:
            a = Matrix.ones(2, 3)
            b = add(a, a)
            c = add(b, b)
            out = lstm_sequence(c, Matrix.ones(3, 4), Matrix.ones(1, 4),
                                Matrix.ones(1, 4), h0=slice_cols(b, 0, 1),
                                c0=Matrix.zeros(2, 1))
            mse(out, Matrix.zeros(*out.shape))
        for i, node in enumerate(tape.nodes):
            assert all(j < i for j in node.inputs)

    def test_least_squares_closed_form(self):
        rng = np.random.default_rng(5)
        w = Matrix(rng.standard_normal((4, 3)))
        x = Matrix(rng.standard_normal((3, 2)))
        y = Matrix(rng.standard_normal((4, 2)))
        with Tape() as tape:
            loss = mse(matmul(w, x), y)
        g = tape.backward(loss, wrt=[w])[tape.node_id(w)].values
        want = (2.0 / 8.0) * (w.values @ x.values - y.values) @ x.values.T
        np.testing.assert_allclose(g, want, rtol=0, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        w = Matrix.ones(2, 2)
        with Tape() as tape:
            y = matmul(w, w)
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_off_tape_loss_rejected(self):
        with Tape() as tape:
            pass
        loss = mse(Matrix.ones(1, 1), Matrix.zeros(1, 1))
        with pytest.raises(ContractError):
            backward(tape, loss)

    def test_unused_leaf_gets_zero_gradient(self):
        w = Matrix.ones(2, 2)
        unused = Matrix.ones(3, 3)
        with Tape() as tape:
            loss = mse(w, Matrix.zeros(2, 2))
        g = tape.backward(loss, wrt=[unused])[tape.node_id(unused)]
        np.testing.assert_array_equal(g.values, np.zeros((3, 3)))

    def test_fanout_accumulates(self):
        x = Matrix([[3.0]])
        with Tape() as tape:
            y = add(x, x)
            loss = mse(y, Matrix([[0.0]]))
        # d loss / d y = 2 * 6, reaching x along both edges.
        g = tape.backward(loss, wrt=[x])[tape.node_id(x)]
        assert g.values.tolist() == [[24.0]]

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
            out = lstm_sequence(x, Matrix.zeros(2, 16), Matrix.zeros(4, 16),
                                b, h0=h0, c0=c0)
            loss = mse(out, target)
        g = tape.backward(loss, wrt=[b])[tape.node_id(b)].values[0]
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
                results[k] = tape.backward(loss, wrt=[w])[tape.node_id(w)]
            except Exception as exc:  # reported below, not lost in the thread
                results[k] = exc

        threads = [threading.Thread(target=work, args=(k,)) for k in (1.0, 2.0)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        for k in (1.0, 2.0):
            assert isinstance(results[k], Matrix), results[k]
            # 2 * w / 4 for a loss over four entries.
            np.testing.assert_array_equal(results[k].values,
                                          np.full((2, 2), k / 2.0))


def _r(rng, rows, cols, spread=1.0):
    return Matrix(rng.standard_normal((rows, cols)) * spread)


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


# One entry per primitive (plus broadcast and state variants): input
# builders and the op under test.
PRIMITIVES = [
    ("matmul", lambda rng: [_r(rng, 3, 4), _r(rng, 4, 5)],
     lambda a, b: matmul(a, b)),
    ("add", lambda rng: [_r(rng, 3, 4), _r(rng, 3, 4)],
     lambda a, b: add(a, b)),
    ("add_row_broadcast", lambda rng: [_r(rng, 1, 4), _r(rng, 3, 4)],
     lambda a, b: add(a, b)),
    ("concat_cols", lambda rng: [_r(rng, 3, 2), _r(rng, 3, 3), _r(rng, 3, 1)],
     lambda *ps: concat_cols(ps)),
    ("slice_cols", lambda rng: [_r(rng, 3, 6)],
     lambda a: slice_cols(a, 1, 4)),
    ("lstm_sequence", _lstm_inputs,
     lambda x, wx, wh, b: lstm_sequence(x, wx, wh, b)),
    ("lstm_sequence_reverse", _lstm_inputs,
     lambda x, wx, wh, b: lstm_sequence(x, wx, wh, b, reverse=True)),
    ("lstm_sequence_kept", _lstm_inputs,
     lambda x, wx, wh, b: lstm_sequence(x, wx, wh, b, keep_sequence=True)),
    ("lstm_sequence_reverse_kept", _lstm_inputs,
     lambda x, wx, wh, b: lstm_sequence(x, wx, wh, b, reverse=True,
                                        keep_sequence=True)),
    ("lstm_sequence_states", _lstm_state_inputs,
     lambda x, wx, wh, b, h0, c0: lstm_sequence(x, wx, wh, b, h0=h0, c0=c0)),
    ("lstm_sequence_reverse_states", _lstm_state_inputs,
     lambda x, wx, wh, b, h0, c0: lstm_sequence(x, wx, wh, b, reverse=True,
                                                h0=h0, c0=c0)),
    ("lstm_sequence_decoder_step", _decoder_inputs,
     lambda x, wx, wh, b, c0: lstm_sequence(x, wx, wh, b, h0=x, c0=c0)),
    # The backward rebuilds the cells span by span, isqrt(T) steps each:
    # 4 steps split into two whole spans, while 5 and 10 steps end on a
    # partial span of one step.
    *[case for steps in (5, 10) for case in (
        (f"lstm_sequence_{steps}_steps",
         lambda rng, _s=steps: _lstm_inputs(rng, _s),
         lambda x, wx, wh, b: lstm_sequence(x, wx, wh, b)),
        (f"lstm_sequence_reverse_kept_{steps}_steps",
         lambda rng, _s=steps: _lstm_inputs(rng, _s),
         lambda x, wx, wh, b: lstm_sequence(x, wx, wh, b, reverse=True,
                                            keep_sequence=True)),
        (f"lstm_sequence_kept_states_{steps}_steps",
         lambda rng, _s=steps: _lstm_state_inputs(rng, _s),
         lambda x, wx, wh, b, h0, c0: lstm_sequence(
             x, wx, wh, b, keep_sequence=True, h0=h0, c0=c0)),
        (f"lstm_sequence_reverse_states_{steps}_steps",
         lambda rng, _s=steps: _lstm_state_inputs(rng, _s),
         lambda x, wx, wh, b, h0, c0: lstm_sequence(
             x, wx, wh, b, reverse=True, h0=h0, c0=c0)),
    )],
    ("attend", lambda rng: [_r(rng, 3, 4), _r(rng, 3, 20)],
     lambda q, k: attend(q, k)),
]


@pytest.mark.parametrize("name,build,op", PRIMITIVES, ids=[p[0] for p in PRIMITIVES])
def test_primitive_gradients_match_finite_differences(name, build, op):
    rng = np.random.default_rng(hash(name) % (2**32))
    inputs = build(rng)
    out_probe = op(*inputs)
    target = Matrix(np.random.default_rng(99).standard_normal(out_probe.shape))

    with Tape() as tape:
        loss = mse(op(*inputs), target)
    grads = tape.backward(loss, wrt=inputs)

    for pos, inp in enumerate(inputs):
        def f(_arr, _pos=pos):
            return float(mse(op(*inputs), target).values[0, 0])
        numeric = numeric_grad(f, inp.values)
        analytic = grads[tape.node_id(inp)].values
        assert_grads_close(analytic, numeric)


def test_composite_graph_gradient():
    rng = np.random.default_rng(77)
    a = Matrix(rng.standard_normal((3, 4)) * 0.5)
    b = Matrix(rng.standard_normal((4, 4)) * 0.5)
    wx, wh, bias = _r(rng, 4, 8, 0.3), _r(rng, 2, 8, 0.3), _r(rng, 1, 8, 0.3)
    row = _r(rng, 1, 4, 0.5)
    target = _r(rng, 3, 4)

    def graph(a_m, b_m):
        h = matmul(a_m, b_m)
        sq = add(matmul(h, b_m), row)
        split = concat_cols([slice_cols(sq, 2, 4), slice_cols(h, 0, 2)])
        state = lstm_sequence(split, wx, wh, bias, h0=slice_cols(h, 0, 2),
                              c0=slice_cols(sq, 2, 4))
        out = attend(slice_cols(state, 0, 2),
                     concat_cols([slice_cols(h, 2, 4), slice_cols(state, 2, 4)]))
        return mse(out, target)

    with Tape() as tape:
        loss = graph(a, b)
    grads = tape.backward(loss, wrt=[a, b])

    for m in (a, b):
        numeric = numeric_grad(lambda _: float(graph(a, b).values[0, 0]), m.values)
        analytic = grads[tape.node_id(m)].values
        assert np.abs(analytic).max() > 1e-3
        assert_grads_close(analytic, numeric)


def test_two_slices_of_one_matrix_accumulate():
    rng = np.random.default_rng(78)
    x = _r(rng, 3, 6)
    t1, t2 = _r(rng, 3, 4), _r(rng, 3, 4)
    with Tape() as tape:
        loss = add(mse(slice_cols(x, 0, 4), t1), mse(slice_cols(x, 2, 6), t2))
    got = tape.backward(loss, wrt=[x])[tape.node_id(x)].values

    def grad(diff):  # of an mse over 12 entries, as mse's backward adds it
        half = (1.0 / 12.0) * diff
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
    off = lstm_sequence(*inputs, reverse=reverse, keep_sequence=keep_sequence)
    with Tape():
        on = lstm_sequence(*inputs, reverse=reverse, keep_sequence=keep_sequence)
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
        out = lstm_sequence(*inputs, reverse=reverse, keep_sequence=keep_sequence)
        loss = mse(out, _r(rng, *out.shape))
    return inputs, loss, tape, tape.nodes[tape.node_id(out)]


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("keep_sequence", [False, True])
def test_lstm_sequence_keeps_gates_and_span_starts_only(reverse, keep_sequence):
    # Per step the node keeps the 4H gates; of the cells only the state
    # that starts each span of isqrt(T) steps after the first, nothing
    # else: the other cells and the hidden states are rebuilt on the way
    # back.  Five steps make spans of 2, 2 and 1 steps.
    *_, node = _taped_lstm(reverse, keep_sequence)
    steps, d, n, rows = 5, 4, 3, 7
    kept = sum(a.nbytes for a in node.ctx if isinstance(a, np.ndarray))
    gates = steps * 4 * n * rows
    span_starts = (3 - 1) * n * rows
    weight = 4 * n * (d + n + 1)
    initial_states = 2 * n * rows
    assert kept == 8 * (gates + span_starts + weight + initial_states)


@pytest.mark.parametrize("reverse", [False, True])
def test_hidden_states_rebuild_bitwise_from_kept_gates_and_cells(reverse):
    # c_s = f_s * c_{s-1} + i_s * g_s from the kept gates, starting each
    # span from its kept state (span 0 from zero), gives cells whose
    # o * tanh(c) is the kept hidden sequence bit for bit.
    *_, node = _taped_lstm(reverse, keep_sequence=True)
    gates, starts = [a for a in node.ctx
                     if isinstance(a, np.ndarray) and a.ndim == 3]
    steps, n, rows = gates.shape[0], starts.shape[1], starts.shape[2]
    span = 2
    assert len(starts) == 2
    cells = np.empty((steps, n, rows))
    c_prev = np.zeros((n, rows))
    for s in range(steps):
        if s and s % span == 0:
            c_prev = starts[s // span - 1]
        i, f, g = gates[s, :n], gates[s, n:2 * n], gates[s, 3 * n:]
        cells[s] = f * c_prev + i * g
        c_prev = cells[s]
    rebuilt = gates[:, 2 * n:3 * n] * np.tanh(cells)
    out = node.out.values
    seq = out[:, 2 * n:].reshape(out.shape[0], -1, n).transpose(1, 2, 0)
    np.testing.assert_array_equal(rebuilt, seq)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("keep_sequence", [False, True])
def test_backward_twice_on_one_tape_gives_identical_gradients(
        reverse, keep_sequence):
    # The backward pass must leave the kept context as it found it.
    inputs, loss, tape, _ = _taped_lstm(reverse, keep_sequence)
    first = tape.backward(loss, wrt=inputs)
    second = tape.backward(loss, wrt=inputs)
    for m in inputs:
        np.testing.assert_array_equal(first[tape.node_id(m)].values,
                                      second[tape.node_id(m)].values)


@pytest.mark.parametrize("reverse", [False, True])
def test_backward_twice_over_a_partial_last_span(reverse):
    # Ten steps make spans of 3, 3, 3 and 1: the rebuild buffer is reused
    # across spans of two lengths, and must never write into the kept
    # span starts.
    inputs, loss, tape, node = _taped_lstm(reverse, keep_sequence=True,
                                           steps=10)
    kept = [a.copy() for a in node.ctx if isinstance(a, np.ndarray)]
    first = tape.backward(loss, wrt=inputs)
    second = tape.backward(loss, wrt=inputs)
    for m in inputs:
        np.testing.assert_array_equal(first[tape.node_id(m)].values,
                                      second[tape.node_id(m)].values)
    for was, now in zip(kept, [a for a in node.ctx if isinstance(a, np.ndarray)]):
        np.testing.assert_array_equal(was, now)
