"""The LSTM cell and the three encoder-decoder temperature estimators.

All three variants read a (batch, window, channels) block and emit one
(batch, 1, 4) temperature vector for the final timestamp:

* ``vanilla``     - single encoder; its final hidden state is repeated once
                    as the decoder input and, with the final cell state,
                    seeds the decoder.  A linear map produces the outputs.
* ``bilstm``      - a second encoder consumes the window back to front.  The
                    concatenated final hidden states feed a double-width
                    decoder (and are also its initial hidden state); the
                    concatenated cell states are the initial cell state.
* ``attention``   - vanilla wiring, but the encoder's full hidden sequence
                    is kept.  Dot-product scores between the decoder state
                    and each encoder step are softmax-normalized, the
                    weighted sum of encoder states forms a context vector,
                    and [context | decoder state] feeds the output map.

Gates use the piecewise-linear hard sigmoid; cell candidates and outputs use
tanh.  The gate order everywhere is input, forget, output, candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ContractError,
    Matrix,
    ShapeError,
    add,
    attend,
    concat_cols,
    hadamard,
    hard_sigmoid,
    lstm_sequence,
    matmul,
    slice_cols,
    tanh,
)

__all__ = [
    "VARIANTS",
    "LstmCellParams",
    "ModelParams",
    "AttentionTrace",
    "lstm_step",
    "forward_vanilla",
    "forward_bidirectional",
    "forward_attention",
    "forward_for_training",
    "predict",
    "init_params",
    "count_params",
    "params_from_items",
    "describe_layers",
]

VARIANTS = ("vanilla", "bilstm", "attention")

GATES = ("i", "f", "o", "c")


@dataclass
class LstmCellParams:
    """Weights of one LSTM cell, one matrix per gate.

    ``w_x*`` are input-to-gate (input_dim x hidden), ``w_h*`` are
    hidden-to-hidden (hidden x hidden), ``b_*`` are 1 x hidden biases.
    """

    w_xi: Matrix
    w_xf: Matrix
    w_xo: Matrix
    w_xc: Matrix
    w_hi: Matrix
    w_hf: Matrix
    w_ho: Matrix
    w_hc: Matrix
    b_i: Matrix
    b_f: Matrix
    b_o: Matrix
    b_c: Matrix

    @property
    def input_dim(self) -> int:
        return self.w_xi.rows

    @property
    def hidden(self) -> int:
        return self.w_xi.cols

    def items(self, prefix: str):
        for kind in ("w_x", "w_h", "b_"):
            for gate in GATES:
                name = f"{kind}{gate}"
                yield f"{prefix}.{name}", getattr(self, name)

    def param_count(self) -> int:
        return sum(m.rows * m.cols for _, m in self.items("cell"))


@dataclass
class AttentionTrace:
    """Per-window attention internals kept for inspection.

    ``alignment`` is (batch, window) with rows on the simplex, ``context``
    the (batch, hidden) weighted encoder state, ``attentional`` the
    (batch, 2*hidden) concatenation [context | decoder hidden] that feeds
    the output map.
    """

    alignment: Matrix
    context: Matrix
    attentional: Matrix


@dataclass
class ModelParams:
    """All weights of one architecture variant plus the linear output map."""

    variant: str
    encoder: LstmCellParams
    decoder: LstmCellParams
    output_w: Matrix
    output_b: Matrix
    encoder_back: LstmCellParams | None = None

    @property
    def input_dim(self) -> int:
        return self.encoder.input_dim

    @property
    def hidden(self) -> int:
        return self.encoder.hidden

    @property
    def output_dim(self) -> int:
        return self.output_w.cols

    def items(self):
        """(name, Matrix) pairs in a fixed serialization order."""
        out = list(self.encoder.items("encoder"))
        if self.encoder_back is not None:
            out.extend(self.encoder_back.items("encoder_back"))
        out.extend(self.decoder.items("decoder"))
        out.append(("output.w", self.output_w))
        out.append(("output.b", self.output_b))
        return out

    def matrices(self):
        return [m for _, m in self.items()]


def count_params(params: ModelParams) -> int:
    """Total number of trainable scalars."""
    return sum(m.rows * m.cols for m in params.matrices())


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> Matrix:
    limit = np.sqrt(6.0 / (rows + cols))
    return Matrix._wrap(rng.uniform(-limit, limit, size=(rows, cols)))


def _orthogonal(rng: np.random.Generator, n: int) -> Matrix:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    # Fix the sign ambiguity of the factorization so the draw is unique.
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return Matrix._wrap(np.ascontiguousarray(q * signs))


def _init_cell(rng: np.random.Generator, input_dim: int, hidden: int) -> LstmCellParams:
    w_x = [_glorot(rng, input_dim, hidden) for _ in GATES]
    w_h = [_orthogonal(rng, hidden) for _ in GATES]
    biases = {
        "b_i": Matrix.zeros(1, hidden),
        # Forget bias starts at one so early training does not flush the cell.
        "b_f": Matrix.ones(1, hidden),
        "b_o": Matrix.zeros(1, hidden),
        "b_c": Matrix.zeros(1, hidden),
    }
    return LstmCellParams(*w_x, *w_h, biases["b_i"], biases["b_f"],
                          biases["b_o"], biases["b_c"])


def init_params(variant: str, seed: int, input_dim: int = 65,
                hidden: int = 100, output_dim: int = 4) -> ModelParams:
    """Seeded initialization: Glorot-uniform input and output maps,
    orthogonal recurrent matrices, zero biases except the forget gate's.

    The draw order is fixed (encoder, reverse encoder, decoder, output map),
    so identical arguments always produce identical weights.
    """
    if variant not in VARIANTS:
        raise ContractError(
            f"unknown variant {variant!r}; choose from {VARIANTS}"
        )
    rng = np.random.default_rng(seed)
    encoder = _init_cell(rng, input_dim, hidden)
    encoder_back = None
    if variant == "bilstm":
        encoder_back = _init_cell(rng, input_dim, hidden)
        decoder = _init_cell(rng, 2 * hidden, 2 * hidden)
        head_in = 2 * hidden
    elif variant == "attention":
        decoder = _init_cell(rng, hidden, hidden)
        head_in = 2 * hidden
    else:
        decoder = _init_cell(rng, hidden, hidden)
        head_in = hidden
    output_w = _glorot(rng, head_in, output_dim)
    output_b = Matrix.zeros(1, output_dim)
    return ModelParams(variant, encoder, decoder, output_w, output_b,
                       encoder_back=encoder_back)


def params_from_items(variant: str, mapping: dict) -> ModelParams:
    """Rebuild ModelParams from the (name -> Matrix) map items() produces."""
    def cell(prefix):
        names = [f"{prefix}.{k}{g}" for k in ("w_x", "w_h", "b_") for g in GATES]
        missing = [n for n in names if n not in mapping]
        if missing:
            raise ValueError(f"missing parameter blocks: {missing}")
        return LstmCellParams(*[mapping[n] for n in names])

    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    encoder_back = cell("encoder_back") if variant == "bilstm" else None
    for name in ("output.w", "output.b"):
        if name not in mapping:
            raise ValueError(f"missing parameter blocks: ['{name}']")
    return ModelParams(
        variant,
        cell("encoder"),
        cell("decoder"),
        mapping["output.w"],
        mapping["output.b"],
        encoder_back=encoder_back,
    )


def _fuse(cell: LstmCellParams):
    # One wide matrix per operand kind, gate blocks side by side, so each
    # step runs two matmuls instead of eight.  Column blocks of a product
    # are independent, so this matches the per-gate formulation.
    wx = concat_cols([cell.w_xi, cell.w_xf, cell.w_xo, cell.w_xc])
    wh = concat_cols([cell.w_hi, cell.w_hf, cell.w_ho, cell.w_hc])
    b = concat_cols([cell.b_i, cell.b_f, cell.b_o, cell.b_c])
    return wx, wh, b, cell.hidden


def _cell_step(fused, x: Matrix, h: Matrix, c: Matrix):
    wx, wh, b, n = fused
    z = add(add(matmul(x, wx), matmul(h, wh)), b)
    gate_i = hard_sigmoid(slice_cols(z, 0, n))
    gate_f = hard_sigmoid(slice_cols(z, n, 2 * n))
    gate_o = hard_sigmoid(slice_cols(z, 2 * n, 3 * n))
    cand = tanh(slice_cols(z, 3 * n, 4 * n))
    c_t = add(hadamard(gate_f, c), hadamard(gate_i, cand))
    h_t = hadamard(gate_o, tanh(c_t))
    return h_t, c_t


def lstm_step(cell: LstmCellParams, x_t: Matrix, h_prev: Matrix,
              c_prev: Matrix) -> tuple[Matrix, Matrix]:
    """One LSTM update.

    i, f, o = hard_sigmoid(x W_x. + h W_h. + b.)   for the three gates
    c_t     = f * c_prev + i * tanh(x W_xc + h W_hc + b_c)
    h_t     = o * tanh(c_t)

    Returns (h_t, c_t), each (batch, hidden).
    """
    if x_t.cols != cell.input_dim:
        raise ShapeError(
            f"lstm_step: input has {x_t.cols} columns, cell expects {cell.input_dim}"
        )
    expected = (x_t.rows, cell.hidden)
    for name, m in (("h_prev", h_prev), ("c_prev", c_prev)):
        if m.shape != expected:
            raise ShapeError(
                f"lstm_step: {name} is {m.rows}x{m.cols}, expected "
                f"{expected[0]}x{expected[1]}"
            )
    return _cell_step(_fuse(cell), x_t, h_prev, c_prev)


def _check_batch(params: ModelParams, batch) -> np.ndarray:
    arr = np.asarray(batch, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeError(
            f"batch must be (batch, window, channels), got shape {arr.shape}"
        )
    if arr.shape[2] != params.input_dim:
        raise ShapeError(
            f"batch has {arr.shape[2]} channels, model expects {params.input_dim}"
        )
    if arr.shape[1] < 1:
        raise ShapeError("batch window must have at least one step")
    if not np.isfinite(arr).all():
        raise ValueError("batch entries must be finite")
    return arr


def _encode(cell: LstmCellParams, batch: np.ndarray, reverse: bool = False,
            keep_sequence: bool = False):
    """Run a cell over the whole window; zero initial states.

    Returns (h_final, c_final, sequence) where sequence is the
    (batch, window * hidden) matrix of hidden states side by side in
    processing order, or None.
    """
    n, steps, dim = batch.shape
    wx, wh, b, hidden = _fuse(cell)
    x = Matrix._wrap(batch.reshape(n, steps * dim))
    out = lstm_sequence(x, wx, wh, b, reverse=reverse,
                        keep_sequence=keep_sequence)
    h = slice_cols(out, 0, hidden)
    c = slice_cols(out, hidden, 2 * hidden)
    seq = slice_cols(out, 2 * hidden, out.cols) if keep_sequence else None
    return h, c, seq


def _head(params: ModelParams, h: Matrix) -> Matrix:
    return add(matmul(h, params.output_w), params.output_b)


def _require_variant(params: ModelParams, expected: str):
    if params.variant != expected:
        raise ContractError(
            f"model variant is {params.variant!r}, expected {expected!r}"
        )


def _vanilla_graph(params: ModelParams, batch: np.ndarray) -> Matrix:
    h_en, c_en, _ = _encode(params.encoder, batch)
    # The encoder's final hidden state, repeated once, is the decoder input;
    # the final (h, c) pair seeds the decoder state.
    h_de, _ = _cell_step(_fuse(params.decoder), h_en, h_en, c_en)
    return _head(params, h_de)


def _bilstm_graph(params: ModelParams, batch: np.ndarray) -> Matrix:
    h_f, c_f, _ = _encode(params.encoder, batch)
    h_b, c_b, _ = _encode(params.encoder_back, batch, reverse=True)
    h_cat = concat_cols([h_f, h_b])
    c_cat = concat_cols([c_f, c_b])
    h_de, _ = _cell_step(_fuse(params.decoder), h_cat, h_cat, c_cat)
    return _head(params, h_de)


def _attend(h_de: Matrix, sequence):
    """Dot-product alignment of one decoder state against encoder states.

    score_t = <h_de, h_t> per batch row; weights = softmax over the window;
    context = sum_t weight_t * h_t.  ``sequence`` is the (batch,
    window * hidden) matrix ``_encode`` keeps, or a list of (batch, hidden)
    states.  Returns (alignment, context).
    """
    if not isinstance(sequence, Matrix):
        sequence = concat_cols(sequence)
    steps = sequence.cols // h_de.cols
    out = attend(h_de, sequence)
    return slice_cols(out, 0, steps), slice_cols(out, steps, out.cols)


def _attention_graph(params: ModelParams, batch: np.ndarray):
    h_en, c_en, seq = _encode(params.encoder, batch, keep_sequence=True)
    h_de, _ = _cell_step(_fuse(params.decoder), h_en, h_en, c_en)
    alignment, context = _attend(h_de, seq)
    attentional = concat_cols([context, h_de])
    y = add(matmul(attentional, params.output_w), params.output_b)
    return y, AttentionTrace(alignment, context, attentional)


def forward_vanilla(params: ModelParams, batch) -> np.ndarray:
    """Plain encoder-decoder pass; returns (batch, 1, output_dim)."""
    _require_variant(params, "vanilla")
    arr = _check_batch(params, batch)
    y = _vanilla_graph(params, arr)
    return y.values.reshape(arr.shape[0], 1, params.output_dim)


def forward_bidirectional(params: ModelParams, batch) -> np.ndarray:
    """Two-direction encoder pass; returns (batch, 1, output_dim)."""
    _require_variant(params, "bilstm")
    arr = _check_batch(params, batch)
    y = _bilstm_graph(params, arr)
    return y.values.reshape(arr.shape[0], 1, params.output_dim)


def forward_attention(params: ModelParams, batch):
    """Attention pass; returns ((batch, 1, output_dim), AttentionTrace)."""
    _require_variant(params, "attention")
    arr = _check_batch(params, batch)
    y, trace = _attention_graph(params, arr)
    return y.values.reshape(arr.shape[0], 1, params.output_dim), trace


def forward_for_training(params: ModelParams, batch) -> Matrix:
    """Variant dispatch that keeps the (batch, output_dim) Matrix on tape."""
    arr = _check_batch(params, batch)
    if params.variant == "vanilla":
        return _vanilla_graph(params, arr)
    if params.variant == "bilstm":
        return _bilstm_graph(params, arr)
    if params.variant == "attention":
        return _attention_graph(params, arr)[0]
    raise ContractError(f"unknown variant {params.variant!r}")


def predict(params: ModelParams, batch) -> np.ndarray:
    """Forward pass for any variant; returns (batch, 1, output_dim)."""
    if params.variant == "attention":
        return forward_attention(params, batch)[0]
    if params.variant == "bilstm":
        return forward_bidirectional(params, batch)
    return forward_vanilla(params, batch)


def describe_layers(params: ModelParams, window: int = 180) -> list[tuple[str, str, str]]:
    """Rows of (layer, kind, output shape) describing the wiring."""
    b = "β"  # batch placeholder
    d, h, o = params.input_dim, params.hidden, params.output_dim
    rows = [("Input", "source", f"({b}, {window}, {d})")]
    if params.variant == "bilstm":
        rows += [
            ("Encoder-fwd", "lstm", f"({b}, {h})"),
            ("Encoder-bwd", "lstm", f"({b}, {h})"),
            ("Concat-1", "hidden states", f"({b}, {2 * h})"),
            ("Concat-2", "cell states", f"({b}, {2 * h})"),
            ("RepeatVector", "decoder input", f"({b}, 1, {2 * h})"),
            ("Decoder", "lstm", f"({b}, {2 * h})"),
            ("Output", "linear", f"({b}, 1, {o})"),
        ]
    elif params.variant == "attention":
        rows += [
            ("Encoder", "lstm, full sequence", f"({b}, {window}, {h})"),
            ("RepeatVector", "decoder input", f"({b}, 1, {h})"),
            ("Decoder", "lstm", f"({b}, {h})"),
            ("Dot-1", "alignment scores", f"({b}, {window})"),
            ("Softmax", "alignment weights", f"({b}, {window})"),
            ("Dot-2", "context", f"({b}, {h})"),
            ("Concat", "[context | decoder]", f"({b}, {2 * h})"),
            ("Output", "linear", f"({b}, 1, {o})"),
        ]
    else:
        rows += [
            ("Encoder", "lstm", f"({b}, {h})"),
            ("RepeatVector", "decoder input", f"({b}, 1, {h})"),
            ("Decoder", "lstm", f"({b}, {h})"),
            ("Output", "linear", f"({b}, 1, {o})"),
        ]
    return rows
