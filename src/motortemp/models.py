"""The LSTM cell and the three encoder-decoder temperature estimators.

One graph reads a (batch, window, channels) block and emits one (batch, 1,
4) temperature vector for the final timestamp, for every variant:

1. An encoder runs over the window from zero states.  ``bilstm`` adds a
   second encoder that reads the window back to front and concatenates the
   two final hidden states and the two final cell states.
2. The final hidden state, repeated once, is the decoder input and, with
   the final cell state, seeds the one decoder step.
3. A linear map turns the decoder state into the outputs.  ``attention``
   first scores the decoder state against each kept encoder state by dot
   product, softmax-normalizes the scores, and feeds [context | decoder
   state] to the map, the context being the weighted sum of encoder states.

``ModelParams`` checks the variant and every block's shape when it is
built.  Encoders and the decoder step all run on ``autodiff.lstm_sequence``.
Gates use the piecewise-linear hard sigmoid; cell candidates and outputs
use tanh.  The gate order everywhere is input, forget, output, candidate.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ContractError,
    Matrix,
    ShapeError,
    add,
    attend,
    concat_cols,
    lstm_sequence,
    matmul,
    slice_cols,
)

__all__ = [
    "VARIANTS",
    "LstmCellParams",
    "ModelParams",
    "AttentionTrace",
    "lstm_step",
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


def _widths(variant: str, hidden: int) -> tuple[int, int]:
    """(decoder width, output map rows) for an encoder ``hidden`` wide."""
    return (2 * hidden if variant == "bilstm" else hidden,
            hidden if variant == "vanilla" else 2 * hidden)


def _expect_shape(name: str, m: Matrix, rows: int, cols: int) -> None:
    if m.shape != (rows, cols):
        raise ContractError(
            f"parameter block {name} is {m.rows}x{m.cols}, expected {rows}x{cols}"
        )


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

    def check(self, prefix: str, input_dim: int, hidden: int) -> None:
        """Raise ContractError naming the first block that is not
        input_dim x hidden (``w_x*``), hidden x hidden (``w_h*``) or
        1 x hidden (``b_*``)."""
        for kind, rows in (("w_x", input_dim), ("w_h", hidden), ("b_", 1)):
            for gate in GATES:
                _expect_shape(f"{prefix}.{kind}{gate}",
                              getattr(self, f"{kind}{gate}"), rows, hidden)


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

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ContractError(
                f"unknown variant {self.variant!r}; choose from {VARIANTS}"
            )
        if (self.encoder_back is None) == (self.variant == "bilstm"):
            state = "missing" if self.encoder_back is None else "present"
            raise ContractError(
                f"encoder_back is {state} for variant {self.variant!r}; "
                "only 'bilstm' has one"
            )
        # Read the encoder's widths from what most of its blocks agree on,
        # so that a single malformed block is the one the error names.
        dim = Counter(getattr(self.encoder, f"w_x{g}").rows
                      for g in GATES).most_common(1)[0][0]
        hidden = Counter(m.cols for _, m in self.encoder.items("")
                         ).most_common(1)[0][0]
        self.encoder.check("encoder", dim, hidden)
        if self.encoder_back is not None:
            self.encoder_back.check("encoder_back", dim, hidden)
        wide, head_in = _widths(self.variant, hidden)
        self.decoder.check("decoder", wide, wide)
        _expect_shape("output.w", self.output_w, head_in, self.output_w.cols)
        _expect_shape("output.b", self.output_b, 1, self.output_w.cols)

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


@functools.cache
def _openblas_thread_calls():
    """The (get, set) thread-count entry points of the OpenBLAS bundled with
    numpy, or None when there is no such library or entry point."""
    root = os.path.dirname(np.__file__)
    paths = (glob.glob(os.path.join(root + ".libs", "*openblas*"))
             + glob.glob(os.path.join(root, ".dylibs", "*openblas*")))
    for path in sorted(paths):
        try:
            # Opening a loaded library again returns the loaded instance.
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS at one thread, then restore its count.

    In some processes every small LAPACK call stalls while OpenBLAS runs
    more than one thread: a 100x100 QR then takes 0.14 s instead of 1 ms.
    One thread gives the same factors.  Without OpenBLAS this does nothing.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _orthogonal(rng: np.random.Generator, n: int) -> Matrix:
    with _one_blas_thread():
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
    rng = np.random.default_rng(seed)
    wide, head_in = _widths(variant, hidden)
    encoder = _init_cell(rng, input_dim, hidden)
    encoder_back = (_init_cell(rng, input_dim, hidden)
                    if variant == "bilstm" else None)
    decoder = _init_cell(rng, wide, wide)
    output_w = _glorot(rng, head_in, output_dim)
    output_b = Matrix.zeros(1, output_dim)
    return ModelParams(variant, encoder, decoder, output_w, output_b,
                       encoder_back=encoder_back)


def params_from_items(variant: str, mapping: dict) -> ModelParams:
    """Rebuild ModelParams from the (name -> Matrix) map items() produces."""
    def block(name):
        if name not in mapping:
            raise ValueError(f"missing parameter block {name}")
        return mapping[name]

    def cell(prefix):
        return LstmCellParams(*[block(f"{prefix}.{k}{g}")
                                for k in ("w_x", "w_h", "b_") for g in GATES])

    encoder_back = cell("encoder_back") if variant == "bilstm" else None
    return ModelParams(variant, cell("encoder"), cell("decoder"),
                       block("output.w"), block("output.b"),
                       encoder_back=encoder_back)


def _fuse(cell: LstmCellParams):
    # One wide matrix per operand kind, gate blocks side by side, as
    # lstm_sequence takes them.  Column blocks of a product are independent,
    # so this matches the per-gate formulation.
    wx = concat_cols([cell.w_xi, cell.w_xf, cell.w_xo, cell.w_xc])
    wh = concat_cols([cell.w_hi, cell.w_hf, cell.w_ho, cell.w_hc])
    b = concat_cols([cell.b_i, cell.b_f, cell.b_o, cell.b_c])
    return wx, wh, b


def lstm_step(cell: LstmCellParams, x_t: Matrix, h_prev: Matrix,
              c_prev: Matrix) -> tuple[Matrix, Matrix]:
    """One LSTM update, a one-step ``lstm_sequence`` from (h_prev, c_prev).

    i, f, o = clip(0.2 (x W_x. + h W_h. + b.) + 0.5, 0, 1)   three gates
    c_t     = f * c_prev + i * tanh(x W_xc + h W_hc + b_c)
    h_t     = o * tanh(c_t)

    Returns (h_t, c_t), each (batch, hidden).
    """
    if x_t.cols != cell.input_dim:
        raise ShapeError(
            f"lstm_step: input has {x_t.cols} columns, cell expects {cell.input_dim}"
        )
    n = cell.hidden
    out = lstm_sequence(x_t, *_fuse(cell), h0=h_prev, c0=c_prev)
    return slice_cols(out, 0, n), slice_cols(out, n, 2 * n)


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
    hidden = cell.hidden
    x = Matrix._wrap(batch.reshape(n, steps * dim))
    out = lstm_sequence(x, *_fuse(cell), reverse=reverse,
                        keep_sequence=keep_sequence)
    h = slice_cols(out, 0, hidden)
    c = slice_cols(out, hidden, 2 * hidden)
    seq = slice_cols(out, 2 * hidden, out.cols) if keep_sequence else None
    return h, c, seq


def _head(params: ModelParams, h: Matrix) -> Matrix:
    return add(matmul(h, params.output_w), params.output_b)


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


def _graph(params: ModelParams, batch: np.ndarray):
    """The encoder-decoder graph of every variant.

    Returns the (batch, output_dim) Matrix and, for ``attention``, the
    AttentionTrace (None otherwise).
    """
    attention = params.variant == "attention"
    h, c, seq = _encode(params.encoder, batch, keep_sequence=attention)
    if params.encoder_back is not None:
        h_b, c_b, _ = _encode(params.encoder_back, batch, reverse=True)
        h, c = concat_cols([h, h_b]), concat_cols([c, c_b])
    # The final hidden state, repeated once, is the decoder input; the final
    # (h, c) pair seeds the decoder state.
    h_de = slice_cols(lstm_sequence(h, *_fuse(params.decoder), h0=h, c0=c),
                      0, h.cols)
    if not attention:
        return _head(params, h_de), None
    alignment, context = _attend(h_de, seq)
    attentional = concat_cols([context, h_de])
    return (_head(params, attentional),
            AttentionTrace(alignment, context, attentional))


def forward_attention(params: ModelParams, batch):
    """Attention pass; returns ((batch, 1, output_dim), AttentionTrace)."""
    if params.variant != "attention":
        raise ContractError(
            f"model variant is {params.variant!r}, expected 'attention'"
        )
    arr = _check_batch(params, batch)
    y, trace = _graph(params, arr)
    return y.values.reshape(arr.shape[0], 1, params.output_dim), trace


def forward_for_training(params: ModelParams, batch) -> Matrix:
    """Forward pass for any variant; returns the (batch, output_dim) Matrix,
    recorded on the open tape if there is one."""
    return _graph(params, _check_batch(params, batch))[0]


def predict(params: ModelParams, batch) -> np.ndarray:
    """Forward pass for any variant; returns (batch, 1, output_dim)."""
    arr = _check_batch(params, batch)
    y, _ = _graph(params, arr)
    return y.values.reshape(arr.shape[0], 1, params.output_dim)


def describe_layers(params: ModelParams, window: int = 180) -> list[tuple[str, str, str]]:
    """Rows of (layer, kind, output shape) describing the wiring."""
    b = "β"  # batch placeholder
    d, h, o = params.input_dim, params.hidden, params.output_dim
    w = params.decoder.hidden
    rows = [("Input", "source", f"({b}, {window}, {d})")]
    if params.variant == "bilstm":
        rows += [
            ("Encoder-fwd", "lstm", f"({b}, {h})"),
            ("Encoder-bwd", "lstm", f"({b}, {h})"),
            ("Concat-1", "hidden states", f"({b}, {w})"),
            ("Concat-2", "cell states", f"({b}, {w})"),
        ]
    elif params.variant == "attention":
        rows.append(("Encoder", "lstm, full sequence", f"({b}, {window}, {h})"))
    else:
        rows.append(("Encoder", "lstm", f"({b}, {h})"))
    rows += [
        ("RepeatVector", "decoder input", f"({b}, 1, {w})"),
        ("Decoder", "lstm", f"({b}, {w})"),
    ]
    if params.variant == "attention":
        rows += [
            ("Dot-1", "alignment scores", f"({b}, {window})"),
            ("Softmax", "alignment weights", f"({b}, {window})"),
            ("Dot-2", "context", f"({b}, {h})"),
            ("Concat", "[context | decoder]", f"({b}, {2 * h})"),
        ]
    return rows + [("Output", "linear", f"({b}, 1, {o})")]
