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
from typing import NamedTuple

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
    "forward_for_training",
    "predict",
    "init_params",
    "count_params",
    "params_from_items",
    "describe_layers",
]

VARIANTS = ("vanilla", "bilstm", "attention")

GATES = ("i", "f", "o", "c")
# Per-gate block names are {cell}.{kind}{gate}, e.g. encoder.w_xi or decoder.b_f.
KINDS = ("w_x", "w_h", "b_")
# The four target temperatures.
OUTPUTS = 4


def _widths(variant: str, hidden: int) -> tuple[int, int]:
    """(decoder width, output map rows) for an encoder ``hidden`` wide."""
    return (2 * hidden if variant == "bilstm" else hidden,
            hidden if variant == "vanilla" else 2 * hidden)


def _cell_names(variant: str) -> tuple[str, ...]:
    """The LSTM cells of ``variant``, in serialization order."""
    if variant not in VARIANTS:
        raise ContractError(
            f"unknown variant {variant!r}; choose from {VARIANTS}"
        )
    return (("encoder", "encoder_back", "decoder") if variant == "bilstm"
            else ("encoder", "decoder"))


def _check_blocks(variant: str, blocks: list) -> None:
    """Raise ContractError naming the first of the per-gate ``blocks``
    ((name, Matrix) pairs in ``ModelParams.items()`` order) whose shape
    does not fit: ``w_x*`` input_dim x hidden, ``w_h*`` hidden x hidden,
    ``b_*`` 1 x hidden (the decoder's at its width), and the output map."""
    shapes = dict((name, m.shape) for name, m in blocks)
    # Read the encoder's widths from what most of its blocks agree on,
    # so that a single malformed block is the one the error names.
    dim = Counter(shapes[f"encoder.w_x{g}"][0]
                  for g in GATES).most_common(1)[0][0]
    hidden = Counter(cols for name, (_, cols) in shapes.items()
                     if name.startswith("encoder.")).most_common(1)[0][0]
    wide, head_in = _widths(variant, hidden)
    outputs = shapes["output.w"][1]
    want = {"output.w": (head_in, outputs), "output.b": (1, outputs)}
    for prefix, rows, cols in (("encoder", dim, hidden),
                               ("encoder_back", dim, hidden),
                               ("decoder", wide, wide)):
        for kind, r in zip(KINDS, (rows, cols, 1)):
            want.update((f"{prefix}.{kind}{g}", (r, cols)) for g in GATES)
    for name, shape in shapes.items():
        if shape != want[name]:
            raise ContractError(
                f"parameter block {name} is {shape[0]}x{shape[1]}, "
                f"expected {want[name][0]}x{want[name][1]}"
            )


class LstmCellParams(NamedTuple):
    """Weights of one LSTM cell, in the three blocks ``lstm_sequence`` takes.

    ``wx`` is input-to-gate (input_dim x 4 hidden), ``wh`` hidden-to-gate
    (hidden x 4 hidden) and ``b`` the 1 x 4 hidden bias; each holds its
    gate blocks side by side in the order i, f, o, c.  Checkpoints and
    ``ModelParams.items()`` name each gate block on its own (``w_xi`` ...
    ``w_hc``, ``b_i`` ... ``b_c``).
    """

    wx: Matrix
    wh: Matrix
    b: Matrix

    @property
    def input_dim(self) -> int:
        return self.wx.rows

    @property
    def hidden(self) -> int:
        return self.wh.rows


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
        bilstm = "encoder_back" in _cell_names(self.variant)
        if (self.encoder_back is None) == bilstm:
            state = "missing" if self.encoder_back is None else "present"
            raise ContractError(
                f"encoder_back is {state} for variant {self.variant!r}; "
                "only 'bilstm' has one"
            )
        _check_blocks(self.variant, self.items())

    @property
    def input_dim(self) -> int:
        return self.encoder.input_dim

    @property
    def hidden(self) -> int:
        return self.encoder.hidden

    @property
    def output_dim(self) -> int:
        return self.output_w.cols

    def matrices(self) -> list[Matrix]:
        """The blocks the tape differentiates: each cell's ``wx``, ``wh``
        and ``b`` (encoder, reverse encoder, decoder), then ``output_w``
        and ``output_b``."""
        return ([m for name in _cell_names(self.variant)
                 for m in getattr(self, name)]
                + [self.output_w, self.output_b])

    def block_names(self) -> list[str]:
        """Names of the ``matrices()`` blocks: ``encoder.wx`` ...
        ``output.b``."""
        return ([f"{prefix}.{field}" for prefix in _cell_names(self.variant)
                 for field in LstmCellParams._fields]
                + ["output.w", "output.b"])

    def per_gate(self, blocks) -> list[tuple[str, Matrix]]:
        """Name ``blocks`` that align with ``matrices()`` (the parameters,
        or their gradients) block by block in serialization order: each
        cell block splits into its four gate blocks, as column views."""
        blocks = list(blocks)
        out = []
        for i, prefix in enumerate(_cell_names(self.variant)):
            for field, kind, m in zip(LstmCellParams._fields, KINDS,
                                      blocks[3 * i:3 * i + 3]):
                n, extra = divmod(m.cols, 4)
                if extra:
                    raise ContractError(
                        f"parameter block {prefix}.{field} is "
                        f"{m.rows}x{m.cols}, not four gate blocks side by side"
                    )
                out.extend((f"{prefix}.{kind}{g}",
                            Matrix._wrap(m.values[:, k * n:(k + 1) * n]))
                           for k, g in enumerate(GATES))
        return out + [("output.w", blocks[-2]), ("output.b", blocks[-1])]

    def items(self) -> list[tuple[str, Matrix]]:
        """(name, Matrix) pairs in a fixed serialization order, one per gate
        block; the cells' blocks are views into their stacked weights."""
        return self.per_gate(self.matrices())


def count_params(params: ModelParams) -> int:
    """Total number of trainable scalars."""
    return sum(m.rows * m.cols for m in params.matrices())


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


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


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    with _one_blas_thread():
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
    # Fix the sign ambiguity of the factorization so the draw is unique.
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return q * signs


def _init_cell(rng: np.random.Generator, input_dim: int, hidden: int) -> LstmCellParams:
    wx = np.hstack([_glorot(rng, input_dim, hidden) for _ in GATES])
    wh = np.hstack([_orthogonal(rng, hidden) for _ in GATES])
    b = np.zeros((1, 4 * hidden))
    # Forget bias starts at one so early training does not flush the cell.
    b[:, hidden:2 * hidden] = 1.0
    return LstmCellParams(Matrix._wrap(wx), Matrix._wrap(wh), Matrix._wrap(b))


def _check_widths(**widths) -> None:
    """Raise ContractError naming the first of ``widths`` below 1."""
    for name, value in widths.items():
        if value < 1:
            raise ContractError(f"{name} must be at least 1, got {value}")


def init_params(variant: str, seed: int, input_dim: int = 65,
                hidden: int = 100) -> ModelParams:
    """Seeded initialization: Glorot-uniform input and output maps,
    orthogonal recurrent matrices, zero biases except the forget gate's.

    The draw order is fixed (encoder, reverse encoder, decoder, output map),
    so identical arguments always produce identical weights.  The output map
    gives the four target temperatures.
    """
    _check_widths(input_dim=input_dim, hidden=hidden)
    rng = np.random.default_rng(seed)
    wide, head_in = _widths(variant, hidden)
    encoder = _init_cell(rng, input_dim, hidden)
    encoder_back = (_init_cell(rng, input_dim, hidden)
                    if variant == "bilstm" else None)
    decoder = _init_cell(rng, wide, wide)
    output_w = Matrix._wrap(_glorot(rng, head_in, OUTPUTS))
    output_b = Matrix.zeros(1, OUTPUTS)
    return ModelParams(variant, encoder, decoder, output_w, output_b,
                       encoder_back=encoder_back)


def params_from_items(variant: str, mapping: dict) -> ModelParams:
    """Rebuild ModelParams from the (name -> Matrix) map items() produces.

    Every per-gate block is checked, and a bad one named, before each
    cell's blocks are stacked."""
    def block(name):
        if name not in mapping:
            raise ValueError(f"missing parameter block {name}")
        return mapping[name]

    names = [f"{prefix}.{kind}{g}" for prefix in _cell_names(variant)
             for kind in KINDS for g in GATES] + ["output.w", "output.b"]
    blocks = [(name, block(name)) for name in names]
    _check_blocks(variant, blocks)
    stacked = [Matrix._wrap(np.hstack([m.values for _, m in blocks[at:at + 4]]))
               for at in range(0, len(blocks) - 2, 4)]
    cells = dict(zip(_cell_names(variant),
                     (LstmCellParams(*stacked[at:at + 3])
                      for at in range(0, len(stacked), 3))))
    return ModelParams(variant, cells["encoder"], cells["decoder"],
                       mapping["output.w"], mapping["output.b"],
                       encoder_back=cells.get("encoder_back"))


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
    out = lstm_sequence(x, *cell, reverse=reverse,
                        keep_sequence=keep_sequence)
    h = slice_cols(out, 0, hidden)
    c = slice_cols(out, hidden, 2 * hidden)
    seq = slice_cols(out, 2 * hidden, out.cols) if keep_sequence else None
    return h, c, seq


def _head(params: ModelParams, h: Matrix) -> Matrix:
    return add(matmul(h, params.output_w), params.output_b)


def _attend(h_de: Matrix, sequence: Matrix) -> Matrix:
    """The context of one decoder state over the encoder states.

    score_t = <h_de, h_t> per batch row; weights = softmax over the window;
    context = sum_t weight_t * h_t.  ``sequence`` is the (batch,
    window * hidden) matrix ``_encode`` keeps.  The weights stay in the
    ``attend`` node's output, beside the context.
    """
    out = attend(h_de, sequence)
    return slice_cols(out, sequence.cols // h_de.cols, out.cols)


def _graph(params: ModelParams, batch: np.ndarray) -> Matrix:
    """The encoder-decoder graph of every variant; returns the
    (batch, output_dim) Matrix."""
    attention = params.variant == "attention"
    h, c, seq = _encode(params.encoder, batch, keep_sequence=attention)
    if params.encoder_back is not None:
        h_b, c_b, _ = _encode(params.encoder_back, batch, reverse=True)
        h, c = concat_cols([h, h_b]), concat_cols([c, c_b])
    # The final hidden state, repeated once, is the decoder input; the final
    # (h, c) pair seeds the decoder state.
    h_de = slice_cols(lstm_sequence(h, *params.decoder, h0=h, c0=c),
                      0, h.cols)
    if not attention:
        return _head(params, h_de)
    # The attentional state [context | decoder state] feeds the output map.
    return _head(params, concat_cols([_attend(h_de, seq), h_de]))


def forward_for_training(params: ModelParams, batch) -> Matrix:
    """Forward pass for any variant; returns the (batch, output_dim) Matrix,
    recorded on the open tape if there is one."""
    return _graph(params, _check_batch(params, batch))


def predict(params: ModelParams, batch) -> np.ndarray:
    """Forward pass for any variant; returns (batch, 1, output_dim)."""
    arr = _check_batch(params, batch)
    return _graph(params, arr).values.reshape(arr.shape[0], 1, params.output_dim)


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
