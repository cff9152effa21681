"""Cell semantics, architecture wiring, and end-to-end gradients."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import check_model_gradients, taped_attention, zero_params
from motortemp import models
from motortemp.autodiff import (
    ContractError,
    Matrix,
    ShapeError,
    Tape,
    attend,
    concat_cols,
    lstm_sequence,
    mse,
)
from motortemp.models import (
    VARIANTS,
    ModelParams,
    _attend,
    _encode,
    count_params,
    describe_layers,
    forward_for_training,
    init_params,
    params_from_items,
    predict,
)


class TestParameterCounts:
    def test_reference_totals_exact(self):
        want = {"vanilla": 147_204, "bilstm": 454_404, "attention": 147_604}
        for variant, total in want.items():
            params = init_params(variant, seed=0)
            assert count_params(params) == total

    def test_attention_head_is_only_difference(self):
        vanilla = init_params("vanilla", seed=0)
        attention = init_params("attention", seed=0)
        assert (count_params(attention) - count_params(vanilla)
                == 100 * 4)  # doubled head input width


class TestInit:
    @pytest.mark.parametrize("widths,name", [
        ({"hidden": 0}, "hidden"), ({"hidden": -1}, "hidden"),
        ({"input_dim": 0}, "input_dim")])
    def test_refuses_widths_below_one(self, widths, name):
        with pytest.raises(ContractError,
                           match=f"{name} must be at least 1, got "
                                 f"{widths[name]}"):
            init_params("vanilla", seed=0, **widths)

    def test_deterministic(self):
        a = init_params("bilstm", seed=42, input_dim=7, hidden=6)
        b = init_params("bilstm", seed=42, input_dim=7, hidden=6)
        for (na, ma), (nb, mb) in zip(a.items(), b.items()):
            assert na == nb
            np.testing.assert_array_equal(ma.values, mb.values)

    def test_seed_changes_weights(self):
        a = init_params("vanilla", seed=1, input_dim=4, hidden=3)
        b = init_params("vanilla", seed=2, input_dim=4, hidden=3)
        assert not np.array_equal(a.encoder.wx.values, b.encoder.wx.values)

    def test_forget_bias_ones_other_biases_zero(self):
        params = init_params("vanilla", seed=3, input_dim=4, hidden=5)
        blocks = dict(params.items())
        for cell in ("encoder", "decoder"):
            np.testing.assert_array_equal(blocks[f"{cell}.b_f"].values,
                                          np.ones((1, 5)))
            for gate in "ioc":
                np.testing.assert_array_equal(blocks[f"{cell}.b_{gate}"].values,
                                              np.zeros((1, 5)))
        np.testing.assert_array_equal(params.output_b.values, np.zeros((1, 4)))

    def test_gate_blocks_take_the_draws_in_order(self):
        # Glorot draws for w_xi, w_xf, w_xo and w_xc, then orthogonal draws
        # for w_hi ... w_hc, each written into its column block.
        params = init_params("vanilla", seed=7, input_dim=3, hidden=2)
        blocks = dict(params.items())
        rng = np.random.default_rng(7)
        for gate in "ifoc":
            np.testing.assert_array_equal(blocks[f"encoder.w_x{gate}"].values,
                                          models._glorot(rng, 3, 2))
        for gate in "ifoc":
            np.testing.assert_array_equal(blocks[f"encoder.w_h{gate}"].values,
                                          models._orthogonal(rng, 2))

    def test_recurrent_matrices_orthogonal(self):
        params = init_params("vanilla", seed=4, input_dim=4, hidden=16)
        w = dict(params.items())["encoder.w_hi"].values
        np.testing.assert_allclose(w.T @ w, np.eye(16), rtol=0, atol=1e-10)

    def test_orthogonal_draw_runs_blas_at_one_thread_and_restores_it(
            self, monkeypatch):
        calls = models._openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy has no bundled OpenBLAS with thread controls")
        get, _ = calls
        before = get()
        seen = []
        real_qr = np.linalg.qr

        def spy(a):
            seen.append(get())
            return real_qr(a)

        monkeypatch.setattr(np.linalg, "qr", spy)
        init_params("vanilla", seed=0, input_dim=4, hidden=3)
        assert seen == [1] * 8  # four gates in the encoder and the decoder
        assert get() == before
        with pytest.raises(RuntimeError):
            with models._one_blas_thread():
                raise RuntimeError
        assert get() == before

    def test_glorot_limits(self):
        params = init_params("vanilla", seed=5, input_dim=30, hidden=20)
        limit = math.sqrt(6.0 / (30 + 20))
        w = params.encoder.wx.values
        assert np.abs(w).max() <= limit

    def test_unknown_variant_rejected(self):
        with pytest.raises(ContractError, match="unknown variant"):
            init_params("gru", seed=0)
        van = init_params("vanilla", seed=0, input_dim=3, hidden=2)
        with pytest.raises(ContractError, match="unknown variant 'gru'"):
            ModelParams("gru", van.encoder, van.decoder, van.output_w,
                        van.output_b)


def _items_with(params, name, block):
    """params.items() as a mapping, with the block ``name`` replaced."""
    return {**dict(params.items()), name: block}


class TestParamShapes:
    def test_transposed_block_is_named(self):
        params = init_params("vanilla", seed=0, input_dim=39, hidden=5)
        w_xi = dict(params.items())["encoder.w_xi"]
        mapping = _items_with(params, "encoder.w_xi", Matrix(w_xi.values.T))
        with pytest.raises(ContractError,
                           match=r"encoder\.w_xi is 5x39, expected 39x5"):
            params_from_items("vanilla", mapping)

    @pytest.mark.parametrize("block,kind,shape,want", [
        ("w_xo", "encoder", (4, 6), "3x6"),
        ("w_hf", "encoder", (6, 5), "6x6"),
        ("b_c", "encoder", (6, 1), "1x6"),
        ("w_xc", "decoder", (5, 6), "6x6"),
        ("b_i", "decoder", (1, 7), "1x6"),
    ])
    def test_cell_block_shapes(self, block, kind, shape, want):
        params = init_params("attention", seed=0, input_dim=3, hidden=6)
        mapping = _items_with(params, f"{kind}.{block}", Matrix.zeros(*shape))
        with pytest.raises(ContractError, match=rf"{kind}\.{block} is "
                           rf"{shape[0]}x{shape[1]}, expected {want}"):
            params_from_items("attention", mapping)

    def test_stacked_block_must_hold_four_gate_blocks(self):
        van = init_params("vanilla", seed=0, input_dim=3, hidden=2)
        cell = van.encoder._replace(wx=Matrix.zeros(3, 10))
        with pytest.raises(ContractError, match=r"encoder\.wx is 3x10, not "
                           "four gate blocks"):
            replace(van, encoder=cell)
        with pytest.raises(ContractError, match=r"encoder\.w_xi is 3x3, "
                           "expected 3x2"):
            replace(van, encoder=van.encoder._replace(wx=Matrix.zeros(3, 12)))

    def test_encoder_back_only_for_bilstm(self):
        bil = init_params("bilstm", seed=0, input_dim=3, hidden=2)
        with pytest.raises(ContractError, match="encoder_back is missing"):
            replace(bil, encoder_back=None)
        van = init_params("vanilla", seed=0, input_dim=3, hidden=2)
        with pytest.raises(ContractError, match="encoder_back is present"):
            replace(van, encoder_back=bil.encoder_back)
        mapping = _items_with(bil, "encoder_back.w_xi", Matrix.zeros(4, 2))
        with pytest.raises(ContractError, match=r"encoder_back\.w_xi is 4x2"):
            params_from_items("bilstm", mapping)

    def test_decoder_width_follows_variant(self):
        bil = init_params("bilstm", seed=0, input_dim=3, hidden=2)
        van = init_params("vanilla", seed=0, input_dim=3, hidden=2)
        with pytest.raises(ContractError, match=r"decoder\.w_xi is 2x2, "
                           "expected 4x4"):
            replace(bil, decoder=van.decoder)
        with pytest.raises(ContractError, match=r"decoder\.w_xi is 4x4, "
                           "expected 2x2"):
            replace(van, decoder=bil.decoder)

    def test_output_map_shapes(self):
        van = init_params("vanilla", seed=0, input_dim=3, hidden=2)
        att = init_params("attention", seed=0, input_dim=3, hidden=2)
        with pytest.raises(ContractError, match=r"output\.w is 4x4, "
                           "expected 2x4"):
            replace(van, output_w=att.output_w)
        with pytest.raises(ContractError, match=r"output\.w is 2x4, "
                           "expected 4x4"):
            replace(att, output_w=van.output_w)
        with pytest.raises(ContractError, match=r"output\.b is 1x3, "
                           "expected 1x4"):
            replace(van, output_b=Matrix.zeros(1, 3))


def _step(cell, x, h0, c0):
    """One LSTM step from (h0, c0), a one-step lstm_sequence; (h, c) arrays."""
    h, c, _ = lstm_sequence(x, *cell, h0=h0, c0=c0)
    return h.values, c.values


class TestLstmStep:
    def test_zero_weights_halve_cell_state(self):
        cell = zero_params(init_params("vanilla", seed=0, input_dim=3,
                                       hidden=4)).encoder
        x = Matrix(np.random.default_rng(1).standard_normal((2, 3)))
        c_prev = Matrix(np.random.default_rng(2).standard_normal((2, 4)))
        h, c = _step(cell, x, Matrix.zeros(2, 4), c_prev)
        # all gates sit at hard_sigmoid(0) = 0.5 and the candidate is tanh(0)
        np.testing.assert_array_equal(c, 0.5 * c_prev.values)
        np.testing.assert_array_equal(h, 0.5 * np.tanh(0.5 * c_prev.values))

    def test_saturated_input_gate_blocks_writes(self):
        params = zero_params(init_params("vanilla", seed=0, input_dim=3, hidden=4))
        cell = params.encoder
        cell.b.values[:, :4] = -1000.0  # b_i, far beyond the lower kink
        rng = np.random.default_rng(3)
        x = Matrix(rng.standard_normal((2, 3)))
        c_prev = Matrix(rng.standard_normal((2, 4)))
        h, c = _step(cell, x, Matrix.zeros(2, 4), c_prev)
        np.testing.assert_array_equal(c, 0.5 * c_prev.values)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(17)
        cell = init_params("vanilla", seed=6, input_dim=4, hidden=5).encoder
        wx, wh, bias = (m.values for m in cell)
        x = rng.standard_normal((3, 4))
        h0 = rng.standard_normal((3, 5))
        c0 = rng.standard_normal((3, 5))

        def hs(v):
            return max(0.0, min(1.0, 0.2 * v + 0.5))

        h_ref = np.zeros((3, 5))
        c_ref = np.zeros((3, 5))
        for b in range(3):
            for j in range(5):
                # z[0..3] are the i, f, o, c pre-activations of unit j
                z = [0.0] * 4
                for gate in range(4):
                    col = 5 * gate + j
                    for k in range(4):
                        z[gate] += x[b, k] * wx[k, col]
                    for k in range(5):
                        z[gate] += h0[b, k] * wh[k, col]
                    z[gate] += bias[0, col]
                c_ref[b, j] = hs(z[1]) * c0[b, j] + hs(z[0]) * math.tanh(z[3])
                h_ref[b, j] = hs(z[2]) * math.tanh(c_ref[b, j])

        h, c = _step(cell, Matrix(x), Matrix(h0), Matrix(c0))
        np.testing.assert_allclose(c, c_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(h, h_ref, rtol=0, atol=1e-12)

    def test_shape_errors(self):
        cell = init_params("vanilla", seed=0, input_dim=3, hidden=4).encoder
        with pytest.raises(ShapeError):
            _step(cell, Matrix.zeros(2, 5), Matrix.zeros(2, 4),
                  Matrix.zeros(2, 4))
        with pytest.raises(ShapeError):
            _step(cell, Matrix.zeros(2, 3), Matrix.zeros(2, 3),
                  Matrix.zeros(2, 4))


def _numpy_encode(cell, batch, reverse):
    """The lstm_sequence docstring equations in plain numpy, one step at a
    time; returns ([h, c, sequence], every i/f/o gate value)."""
    wx, wh, b = (m.values for m in cell)
    n = cell.hidden
    h = c = np.zeros((batch.shape[0], n))
    seq, gates = [], []
    for t in (range(batch.shape[1] - 1, -1, -1) if reverse
              else range(batch.shape[1])):
        z = batch[:, t] @ wx + h @ wh + b
        ifo = np.clip(0.2 * z[:, :3 * n] + 0.5, 0.0, 1.0)
        c = ifo[:, n:2 * n] * c + ifo[:, :n] * np.tanh(z[:, 3 * n:])
        h = ifo[:, 2 * n:] * np.tanh(c)
        seq.append(h)
        gates.append(ifo)
    return [h, c, np.hstack(seq)], np.concatenate(gates)


def _unrolled_encode(cell, batch, reverse):
    # A chain of one-step lstm_sequence calls, each from the last states.
    n, steps, _ = batch.shape
    width = cell.hidden
    h = Matrix.zeros(n, width)
    c = Matrix.zeros(n, width)
    seq = []
    for t in (range(steps - 1, -1, -1) if reverse else range(steps)):
        h, c, _ = lstm_sequence(Matrix(batch[:, t, :]), *cell, h0=h, c0=c)
        seq.append(h)
    return h, c, concat_cols(seq)


class TestFusedEncoder:
    @pytest.mark.parametrize("steps", [1, 2, 7])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_unrolled_lstm_steps(self, steps, reverse):
        # Outputs are checked against plain numpy, gradients against a chain
        # of one-step calls.  Inputs at spread 10 drive a good share of the
        # gates into the hard sigmoid's clipped ends, where no gradient may
        # pass.
        for spread in (1.0, 10.0):
            rng = np.random.default_rng(20 + steps)
            cell = init_params("vanilla", seed=steps, input_dim=4,
                               hidden=5).encoder
            batch = rng.standard_normal((3, steps, 4)) * spread
            target = Matrix(rng.standard_normal((3, 5 * (2 + steps))))

            want_out, gates = _numpy_encode(cell, batch, reverse)
            if spread > 1.0:
                assert ((gates == 0.0) | (gates == 1.0)).mean() > 0.25
            results = []
            for encode in (
                    lambda: _encode(cell, batch, reverse, keep_sequence=True),
                    lambda: _unrolled_encode(cell, batch, reverse)):
                with Tape() as tape:
                    outs = encode()
                    loss = mse(concat_cols(outs), target)
                results.append(([m.values for m in outs],
                                tape.backward(loss, wrt=cell)))
            (fused_out, fused_grad), (step_out, step_grad) = results
            for a, b, want in zip(fused_out, step_out, want_out):
                np.testing.assert_allclose(a, want, rtol=0, atol=1e-12)
                np.testing.assert_allclose(b, want, rtol=0, atol=1e-12)
            for a, b in zip(fused_grad, step_grad):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_tape_size_does_not_grow_with_window(self):
        rng = np.random.default_rng(21)
        sizes = {}
        for variant in VARIANTS:
            params = init_params(variant, seed=0, input_dim=3, hidden=4)
            for steps in (2, 40):
                with Tape() as tape:
                    forward_for_training(params, rng.standard_normal((2, steps, 3)))
                sizes[variant, steps] = len(tape)
            assert sizes[variant, 2] == sizes[variant, 40], variant

    @pytest.mark.parametrize("variant,nodes,leaves", [
        ("vanilla", 14, 10), ("attention", 17, 10), ("bilstm", 21, 14)])
    def test_training_step_tape_size(self, variant, nodes, leaves):
        # Leaves: wx, wh and b of each cell, the output map's two blocks,
        # the batch and the target.
        rng = np.random.default_rng(22)
        params = init_params(variant, seed=0, input_dim=3, hidden=4)
        with Tape() as tape:
            pred = forward_for_training(params, rng.standard_normal((2, 5, 3)))
            mse(pred, Matrix(rng.standard_normal((2, 4))))
        assert len(tape) == nodes
        assert sum(node.op == "leaf" for node in tape.nodes) == leaves


class TestForwardShapes:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_default_dims_output_shape(self, variant):
        params = init_params(variant, seed=1)
        batch = np.random.default_rng(0).standard_normal((8, 180, 65))
        out = predict(params, batch)
        assert out.shape == (8, 4)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_predict_is_the_training_forward_values(self, variant):
        params = init_params(variant, seed=2, input_dim=3, hidden=4)
        batch = np.random.default_rng(1).standard_normal((5, 7, 3))
        out = predict(params, batch)
        assert out.shape == (5, 4)
        np.testing.assert_array_equal(
            out, forward_for_training(params, batch).values)

    def test_batch_validation(self):
        params = init_params("vanilla", seed=1, input_dim=3, hidden=4)
        with pytest.raises(ShapeError):
            predict(params, np.zeros((2, 5)))
        with pytest.raises(ShapeError):
            predict(params, np.zeros((2, 5, 7)))
        with pytest.raises(ValueError):
            predict(params, np.full((2, 5, 3), np.nan))

    @pytest.mark.parametrize("entry", [predict, forward_for_training])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_located(self, entry, bad):
        # The first non-finite entry in row-major order is named, with its
        # window, step, channel and value.
        params = init_params("vanilla", seed=1, input_dim=5, hidden=4)
        batch = np.zeros((2, 6, 5))
        batch[1, 1, 2] = bad
        batch[1, 4, 0] = np.nan
        with pytest.raises(ValueError, match=(
                f"must be finite: window 1, step 1, channel 2 is {bad}$")):
            entry(params, batch)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_entry_points_agree_bitwise(self, variant):
        params = init_params(variant, seed=2, input_dim=4, hidden=5)
        batch = np.random.default_rng(3).standard_normal((6, 9, 4))
        want = predict(params, batch).reshape(6, -1)
        np.testing.assert_array_equal(
            forward_for_training(params, batch).values, want)
        with Tape():
            taped = forward_for_training(params, batch)
        np.testing.assert_array_equal(taped.values, want)


class TestWiring:
    def test_zeroed_model_outputs_its_bias(self):
        batch = np.random.default_rng(5).standard_normal((3, 12, 6))
        for variant in VARIANTS:
            params = zero_params(init_params(variant, seed=0, input_dim=6,
                                             hidden=5))
            params.output_b.values[:] = [[1.0, -2.0, 3.0, 0.25]]
            out = predict(params, batch)
            np.testing.assert_array_equal(
                out.reshape(3, 4), np.tile([1.0, -2.0, 3.0, 0.25], (3, 1))
            )

    def test_outputs_sensitive_to_window_order(self):
        rng = np.random.default_rng(6)
        batch = rng.standard_normal((2, 10, 5))
        shuffled = batch[:, ::-1, :].copy()
        for variant in VARIANTS:
            params = init_params(variant, seed=2, input_dim=5, hidden=6)
            a = predict(params, batch)
            b = predict(params, shuffled)
            assert np.abs(a - b).max() > 1e-8, variant

    def test_palindrome_ties_forward_and_backward_encoders(self):
        rng = np.random.default_rng(7)
        half = rng.standard_normal((3, 5, 4))
        batch = np.concatenate([half, half[:, ::-1, :]], axis=1)
        cell = init_params("vanilla", seed=3, input_dim=4, hidden=6).encoder
        h_f, c_f, _ = _encode(cell, batch)
        h_b, c_b, _ = _encode(cell, batch, reverse=True)
        np.testing.assert_array_equal(h_f.values, h_b.values)
        np.testing.assert_array_equal(c_f.values, c_b.values)

    def test_bilstm_uses_both_directions(self):
        rng = np.random.default_rng(8)
        params = init_params("bilstm", seed=4, input_dim=5, hidden=6)
        batch = rng.standard_normal((2, 9, 5))
        base = predict(params, batch)
        # perturb only the reverse encoder: output must move
        dict(params.items())["encoder_back.w_xc"].values[:] += 0.5
        assert np.abs(predict(params, batch) - base).max() > 1e-9

    def test_attention_reduces_to_vanilla_when_context_rows_zeroed(self):
        rng = np.random.default_rng(9)
        hidden = 8
        van = init_params("vanilla", seed=5, input_dim=6, hidden=hidden)
        att = init_params("attention", seed=6, input_dim=6, hidden=hidden)
        for src, dst in zip(van.matrices()[:6], att.matrices()[:6]):
            dst.values[:] = src.values  # the encoder's and decoder's blocks
        # [context | decoder] feeds the head: rows 0..hidden multiply the
        # context, so zeroing them must recover the vanilla output exactly
        att.output_w.values[:hidden] = 0.0
        att.output_w.values[hidden:] = van.output_w.values
        att.output_b.values[:] = van.output_b.values

        batch = rng.standard_normal((4, 11, 6))
        out_v = predict(van, batch)
        out_a = predict(att, batch)
        np.testing.assert_allclose(out_a, out_v, rtol=0, atol=1e-12)


class TestAttention:
    def test_zeroed_encoder_gives_uniform_alignment(self):
        params = zero_params(init_params("attention", seed=0, input_dim=4,
                                         hidden=5))
        batch = np.random.default_rng(10).standard_normal((3, 180, 4))
        node, _ = taped_attention(params, batch)
        np.testing.assert_array_equal(
            node.out.values[:, :180], np.full((3, 180), 1.0 / 180.0)
        )
        np.testing.assert_array_equal(node.out.values[:, 180:], np.zeros((3, 5)))

    def test_alignment_rows_on_simplex(self):
        rng = np.random.default_rng(11)
        params = init_params("attention", seed=7, input_dim=4, hidden=5)
        batch = rng.standard_normal((4, 30, 4))
        node, _ = taped_attention(params, batch)
        a = node.out.values[:, :30]
        assert node.out.shape == (4, 35)
        assert (a >= 0.0).all()
        np.testing.assert_allclose(a.sum(axis=1), 1.0, rtol=0, atol=1e-6)

    def test_dominating_score_saturates_alignment(self):
        hidden, steps, batch = 4, 6, 2
        h_de = Matrix(np.tile([1.0, 0.0, 0.0, 0.0], (batch, 1)))
        seq = [Matrix.zeros(batch, hidden) for _ in range(steps)]
        strong = np.zeros((batch, hidden))
        strong[:, 0] = 20.0  # dot with h_de: score 20 vs 0 elsewhere
        seq[3] = Matrix(strong)
        keys = concat_cols(seq)
        alignment = attend(h_de, keys).values[:, :steps]
        context = _attend(h_de, keys)
        assert alignment[:, 3].min() > 0.999
        assert np.abs(context.values - strong).max() < 1e-3

    def test_attentional_state_is_context_then_decoder(self):
        rng = np.random.default_rng(12)
        params = init_params("attention", seed=8, input_dim=3, hidden=4)
        batch = rng.standard_normal((2, 7, 3))
        node, attentional = taped_attention(params, batch)
        got = attentional.out.values
        assert attentional.op == "concat_cols"
        assert got.shape == (2, 8)
        np.testing.assert_array_equal(got[:, :4], node.out.values[:, 7:])


class TestGradients:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_finite_differences_scaled_instance(self, variant):
        rng = np.random.default_rng(13)
        params = init_params(variant, seed=9, input_dim=3, hidden=5)
        batch = rng.standard_normal((2, 8, 3))
        targets = rng.standard_normal((2, 4))
        check_model_gradients(params, batch, targets)


class TestTapeMemory:
    # The traced peak of one paper-shape Tape.backward (batch 256, window
    # 180, 65 channels, hidden 100), counted from the taped forward on, so
    # that the tape is in it.  The attention step hands the encoder its key
    # gradient as four small factors, which the encoder's backward adds one
    # step at a time, never as a 37 MB array (73 MB measured, 108 MB with
    # the array): attention's 110 MB row bounds the step as a whole, its
    # 80 MB row fails if the array comes back.  The vanilla and bilstm
    # bounds catch a path that copies gradients without need.
    @pytest.mark.parametrize("variant,bound_mb", [
        ("vanilla", 34), ("attention", 110), ("bilstm", 46),
        ("attention", 80)])
    def test_paper_shape_backward_peak(self, variant, bound_mb):
        params = init_params(variant, seed=0)
        rng = np.random.default_rng(14)
        batch = rng.standard_normal((256, 180, 65))
        target = Matrix(rng.standard_normal((256, 4)))
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = mse(forward_for_training(params, batch), target)
            tracemalloc.reset_peak()
            tape.backward(loss, wrt=params.matrices())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 1e6, f"{variant}: {peak / 1e6:.1f} MB"


class TestDescribeAndRebuild:
    def test_layer_rows_per_variant(self):
        bil = describe_layers(init_params("bilstm", seed=0), window=180)
        names = [r[0] for r in bil]
        assert "Concat-1" in names and "Concat-2" in names
        van = describe_layers(init_params("vanilla", seed=0), window=180)
        assert any("(β, 180, 65)" in r[2] for r in van)
        att = describe_layers(init_params("attention", seed=0), window=180)
        assert any("Softmax" == r[0] for r in att)

    def test_params_from_items_roundtrip(self):
        for variant in VARIANTS:
            params = init_params(variant, seed=10, input_dim=4, hidden=3)
            rebuilt = params_from_items(variant, dict(params.items()))
            for (na, ma), (nb, mb) in zip(params.items(), rebuilt.items()):
                assert na == nb
                np.testing.assert_array_equal(ma.values, mb.values)

    def test_items_are_gate_views_of_the_stacked_blocks(self):
        params = init_params("bilstm", seed=1, input_dim=3, hidden=2)
        blocks = dict(params.items())
        for prefix in ("encoder", "encoder_back", "decoder"):
            for kind, stacked in zip(("w_x", "w_h", "b_"),
                                     getattr(params, prefix)):
                np.testing.assert_array_equal(
                    np.hstack([blocks[f"{prefix}.{kind}{g}"].values
                               for g in "ifoc"]), stacked.values)
        # The decoder is 4 wide, so its output gate's bias starts at column 8.
        blocks["decoder.b_o"].values[0, 1] = 7.0
        assert params.decoder.b.values[0, 9] == 7.0

    def test_params_from_items_missing_block(self):
        params = init_params("vanilla", seed=0, input_dim=3, hidden=2)
        mapping = dict(params.items())
        del mapping["decoder.w_hc"]
        with pytest.raises(ValueError, match="decoder.w_hc"):
            params_from_items("vanilla", mapping)
