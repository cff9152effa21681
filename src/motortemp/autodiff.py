"""Dense 64-bit matrices and a minimal reverse-mode differentiation tape.

Everything the recurrent models need is expressed through a small, closed set
of primitives: matmul, add, concat_cols and slice_cols, two fused layers,
lstm_sequence (one LSTM over a whole window, from zero or from given initial
states) and attend (dot-product attention: scores, softmax and context in one
node), and the training loss mse (the mean of squared errors, one node).
Each primitive evaluates eagerly with numpy and, while a tape is open,
records its inputs so the exact (sub)gradient can be replayed later.  Tapes
are define-by-run and rebuilt per batch; there is no graph reuse and no
graph optimizer.  Each thread has its own stack of open tapes, so threads
that record at the same time never share one.

The fused nodes keep what their hand-written backward rules need beside
their output: lstm_sequence keeps the activated gates of every step,
time-major as (steps, width, batch), and of the cell states only the one
that starts each span of isqrt(steps) steps after the first.  On the way
back it rebuilds one span's cells at a time from those, c = f * c + i * g
with the forward's own ops, and each hidden state h = o * tanh(c) with the
one tanh per step it needs anyway, all bit for bit; attend keeps nothing
beyond its output, which already holds the alignment.

lstm_sequence runs each step as one matrix product.  Its weights and bias
are stacked into W = [wx; wh; b]^T, shape (4H, D + H + 1), and each step
writes [x_t; h; 1] into one (D + H + 1, batch) operand, so z = W @ operand.
The hard sigmoid's affine part 0.2*z + 0.5 is folded into the input, forget
and output rows of W, which leaves only a clip for those gates.  The
backward pass works with the same folded W: clipped gates pass no gradient,
the others slope 1, and the factor 0.2 is applied once to the gate rows of
the finished weight gradient.

Backward pass conventions:

* gradients are accumulated per node, visiting nodes in reverse recording
  order exactly once;
* interior gradients are freed as soon as they have been consumed, which
  keeps peak memory close to the forward activations alone;
* leaves that were not requested (e.g. the input windows) never receive a
  gradient, so the corresponding matrix products are skipped.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = [
    "Matrix",
    "Tape",
    "ShapeError",
    "ContractError",
    "active_tape",
    "matmul",
    "add",
    "concat_cols",
    "slice_cols",
    "lstm_sequence",
    "attend",
    "mse",
    "backward",
]


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class ContractError(ValueError):
    """An operation was invoked outside its documented contract."""


class Matrix:
    """A dense 2-D float64 matrix, row-major, immutable by convention.

    Rows are the batch dimension throughout the package.  Ops never mutate
    operands; the only sanctioned in-place writes are the optimizer's
    parameter updates, which own their arrays.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, order="C")
        if arr.ndim == 1:
            raise ShapeError(
                f"Matrix must be 2-D, got 1-D data of length {arr.shape[0]}"
            )
        if arr.ndim != 2:
            raise ShapeError(f"Matrix must be 2-D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("Matrix entries must be finite")
        self.values = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Matrix":
        # Internal fast path: wrap a freshly computed float64 array we own.
        m = object.__new__(cls)
        m.values = arr
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._wrap(np.zeros((rows, cols)))

    @classmethod
    def ones(cls, rows: int, cols: int) -> "Matrix":
        return cls._wrap(np.ones((rows, cols)))

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def copy(self) -> "Matrix":
        return Matrix._wrap(self.values.copy())

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


class _TapeStack(threading.local):
    def __init__(self):
        self.tapes: list[Tape] = []


_STACK = _TapeStack()


def active_tape() -> "Tape | None":
    """The calling thread's innermost open tape, or None outside any
    ``with Tape()`` block."""
    tapes = _STACK.tapes
    return tapes[-1] if tapes else None


class TapeNode:
    """One recorded primitive: op kind, input node ids, output matrix."""

    __slots__ = ("op", "inputs", "out", "ctx")

    def __init__(self, op: str, inputs: tuple[int, ...], out: Matrix, ctx=()):
        self.op = op
        self.inputs = inputs
        self.out = out
        self.ctx = ctx


class Tape:
    """An append-only record of primitives, replayed in reverse by backward().

    Usage::

        with Tape() as tape:
            y = matmul(w, x)
            loss = mse(y, target)
        grads = tape.backward(loss, wrt=[w])

    Node ids increase with recording order, so every node's inputs appear
    strictly before it.  Run backward before reusing the same Matrix objects
    on a different tape; ids are looked up by object identity.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self._ids: dict[int, int] = {}

    def __enter__(self) -> "Tape":
        _STACK.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _STACK.tapes.pop()
        if popped is not self:
            raise ContractError("tapes must unwind in LIFO order")
        return False

    def __len__(self) -> int:
        return len(self.nodes)

    def node_id(self, m: Matrix) -> int | None:
        """The node id of ``m`` on this tape, or None if never recorded."""
        return self._ids.get(id(m))

    def watch(self, m: Matrix) -> int:
        """Register ``m`` as a leaf (if new) and return its node id."""
        nid = self._ids.get(id(m))
        if nid is None:
            nid = len(self.nodes)
            self.nodes.append(TapeNode("leaf", (), m))
            self._ids[id(m)] = nid
        return nid

    def _record(self, op: str, inputs: tuple[Matrix, ...], out: Matrix, ctx=()):
        ids = tuple(self.watch(x) for x in inputs)
        nid = len(self.nodes)
        self.nodes.append(TapeNode(op, ids, out, ctx))
        self._ids[id(out)] = nid

    def backward(self, loss: Matrix, wrt=None) -> dict[int, Matrix]:
        return backward(self, loss, wrt)


def _maybe_record(op: str, inputs: tuple[Matrix, ...], out: Matrix, ctx=()):
    tape = active_tape()
    if tape is not None:
        tape._record(op, inputs, out, ctx)
    return out


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product a @ b."""
    if a.cols != b.rows:
        raise ShapeError(
            f"matmul: cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    out = Matrix._wrap(a.values @ b.values)
    return _maybe_record("matmul", (a, b), out)


def add(a: Matrix, b: Matrix) -> Matrix:
    """Elementwise sum; a 1xC operand broadcasts across the rows of an RxC one."""
    if a.shape != b.shape:
        row_a = a.rows == 1 and a.cols == b.cols
        row_b = b.rows == 1 and b.cols == a.cols
        if not (row_a or row_b):
            raise ShapeError(
                f"add: shapes {a.rows}x{a.cols} and {b.rows}x{b.cols} do not conform"
            )
    out = Matrix._wrap(a.values + b.values)
    return _maybe_record("add", (a, b), out)


def concat_cols(parts) -> Matrix:
    """Concatenate matrices with equal row counts side by side."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat_cols: need at least one matrix")
    rows = parts[0].rows
    for p in parts[1:]:
        if p.rows != rows:
            raise ShapeError(
                f"concat_cols: row counts differ ({rows} vs {p.rows})"
            )
    out = Matrix._wrap(np.concatenate([p.values for p in parts], axis=1))
    widths = tuple(p.cols for p in parts)
    return _maybe_record("concat_cols", tuple(parts), out, widths)


def slice_cols(x: Matrix, start: int, stop: int) -> Matrix:
    """The contiguous column block x[:, start:stop], sharing x's memory.

    Ops never write into their operands, so the view is as good as a copy
    and costs nothing for wide blocks such as a kept hidden sequence.
    """
    if not (0 <= start < stop <= x.cols):
        raise ShapeError(
            f"slice_cols: bounds [{start}, {stop}) invalid for {x.rows}x{x.cols}"
        )
    out = Matrix._wrap(x.values[:, start:stop])
    return _maybe_record("slice_cols", (x,), out, (start, stop))


def _folded_weight(wx: np.ndarray, wh: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The stacked gate weight [wx; wh; b]^T, shape (4H, D + H + 1), with the
    hard sigmoid's affine part 0.2*z + 0.5 folded into the i/f/o rows, so
    that clip(W @ [x_t; h; 1], 0, 1) is those three gates."""
    d, width = wx.shape
    n = width // 4
    w = np.empty((width, d + n + 1))
    w[:, :d] = wx.T
    w[:, d:d + n] = wh.T
    w[:, d + n] = b[0]
    w[:3 * n] *= 0.2
    w[:3 * n, d + n] += 0.5
    return w


def lstm_sequence(x: Matrix, wx: Matrix, wh: Matrix, b: Matrix,
                  reverse: bool = False, keep_sequence: bool = False,
                  h0: Matrix | None = None, c0: Matrix | None = None) -> Matrix:
    """One LSTM layer over a whole window.

    ``x`` holds one window per row, time-major: row r is [x_0 | ... | x_{T-1}]
    with each x_t as wide as ``wx`` has rows.  ``wx`` (D x 4H), ``wh``
    (H x 4H) and ``b`` (1 x 4H) hold the gate blocks side by side in the
    order input, forget, output, candidate.  Each step computes

        z = x_t wx + h wh + b
        i, f, o = clip(0.2 z + 0.5, 0, 1)  (the hard sigmoid);  g = tanh(z_c)
        c = f * c + i * g;  h = o * tanh(c)

    walking t backwards when ``reverse`` is set.  The states start at
    ``h0`` and ``c0`` (B x H each, given together, and differentiated like
    any other input), or at zero when neither is given; a one-column-block
    ``x`` makes this a single LSTM step from those states.  Returns [h | c]
    after the last step processed (B x 2H); with ``keep_sequence`` the
    hidden state after each step follows in processing order
    (B x (2 + T)H).  The backward rule gives the hard sigmoid slope 0.2
    where the gate lies strictly inside (0, 1) and 0 where it is clipped.

    Each step is one matrix product of the folded weight (see
    ``_folded_weight``) with the stacked operand [x_t; h; 1] (D + H + 1 x B),
    followed by the clip, the two tanh and the cell and hidden products.

    On a tape the node keeps the gates of every step and, of the cell
    states, only the one that starts each span of isqrt(T) steps after the
    first: 13 (H x B) states instead of 180 at T = 180.  The backward pass
    rebuilds the rest one span at a time.
    """
    d, width = wx.shape
    n = width // 4
    if width != 4 * n or n < 1:
        raise ShapeError(f"lstm_sequence: wx is {d}x{width}, need 4*hidden columns")
    if wh.shape != (n, width) or b.shape != (1, width):
        raise ShapeError(
            f"lstm_sequence: wh {wh.rows}x{wh.cols} and b {b.rows}x{b.cols} "
            f"do not match wx {d}x{width} (want {n}x{width} and 1x{width})"
        )
    if x.cols < d or x.cols % d:
        raise ShapeError(
            f"lstm_sequence: input has {x.cols} columns, not a whole number "
            f"of {d}-wide steps"
        )
    if (h0 is None) != (c0 is None):
        raise ContractError("lstm_sequence: give h0 and c0 together, or neither")
    states = () if h0 is None else (h0, c0)
    for name, m in zip(("h0", "c0"), states):
        if m.shape != (x.rows, n):
            raise ShapeError(
                f"lstm_sequence: {name} is {m.rows}x{m.cols}, expected "
                f"{x.rows}x{n}"
            )
    rows, steps = x.rows, x.cols // d
    xs = x.values.reshape(rows, steps, d)
    taped = active_tape() is not None
    w = _folded_weight(wx.values, wh.values, b.values)
    # States are kept feature-major, (width, batch) per step, so each gate
    # block is one contiguous run for the elementwise updates.  Off tape
    # only the latest step is needed (plus the hidden sequence when kept),
    # so one slot is reused in place of a per-step history.  The cell state
    # has one slot in either case; on tape a copy is kept of the state that
    # starts each span of isqrt(T) steps after the first.  The hidden state
    # lives only in the operand.  The backward pass rebuilds each span's
    # cells from the kept gates and the span's starting state, and the
    # hidden states from those.
    slots = steps if taped else 1
    span = math.isqrt(steps)
    gates = np.empty((slots, width, rows))
    starts = np.empty((-(-steps // span) - 1 if taped else 0, n, rows))
    c = np.empty((n, rows))
    out = np.empty((rows, (2 + (steps if keep_sequence else 0)) * n))
    # Splitting the trailing axis of a row-major block is always a view.
    seq = out[:, 2 * n:].reshape(rows, steps, n) if keep_sequence else None
    # The initial states, feature-major; the backward pass reads the same
    # arrays at step 0.
    h_init, c_init = ((h0.values.T, c0.values.T) if states
                      else (np.zeros((n, rows)),) * 2)
    operand = np.empty((d + n + 1, rows))
    x_in, h = operand[:d], operand[d:d + n]
    h[...] = h_init
    operand[d + n] = 1.0
    prod = np.empty((n, rows))
    c_prev = c_init
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    for s, t in enumerate(order):
        z = gates[s % slots]
        x_in[...] = xs[:, t].T
        np.matmul(w, operand, out=z)
        ifo = z[:3 * n]
        np.clip(ifo, 0.0, 1.0, out=ifo)
        np.tanh(z[3 * n:], out=z[3 * n:])
        np.multiply(z[n:2 * n], c_prev, out=c)
        np.multiply(z[:n], z[3 * n:], out=prod)
        c += prod
        # h_{t-1} has been read; the new state overwrites it in place.
        np.tanh(c, out=h)
        h *= z[2 * n:3 * n]
        if seq is not None:
            seq[:, s] = h.T
        c_prev = c
        if taped and s + 1 < steps and (s + 1) % span == 0:
            starts[(s + 1) // span - 1] = c

    out[:, :n] = h.T
    out[:, n:2 * n] = c.T
    ctx = (gates, starts, w, reverse, h_init, c_init) if taped else ()
    return _maybe_record("lstm_sequence", (x, wx, wh, b) + states,
                         Matrix._wrap(out), ctx)


def attend(query: Matrix, keys: Matrix) -> Matrix:
    """Dot-product attention of one query per row over a sequence of keys.

    ``query`` is B x H and ``keys`` is B x TH, rows [k_0 | ... | k_{T-1}].
    With score_t = <query, k_t>, the alignment is the softmax of the scores
    over t and the context is sum_t alignment_t k_t.  Returns
    [alignment | context] (B x (T + H)).
    """
    rows, n = query.shape
    if keys.rows != rows or keys.cols < n or keys.cols % n:
        raise ShapeError(
            f"attend: keys {keys.rows}x{keys.cols} are not a sequence of "
            f"{rows}x{n} states"
        )
    steps = keys.cols // n
    k3 = keys.values.reshape(rows, steps, n)
    scores = np.einsum("bth,bh->bt", k3, query.values)
    scores -= scores.max(axis=1, keepdims=True)
    e = np.exp(scores)
    out = np.empty((rows, steps + n))
    np.divide(e, e.sum(axis=1, keepdims=True), out=out[:, :steps])
    np.einsum("bt,bth->bh", out[:, :steps], k3, out=out[:, steps:])
    return _maybe_record("attend", (query, keys), Matrix._wrap(out))


def mse(pred: Matrix, target: Matrix) -> Matrix:
    """Mean of the squared differences over every entry, as a 1x1 matrix.

    ``target`` is data: it gets no gradient.
    """
    if pred.shape != target.shape:
        raise ShapeError(
            f"mse: shapes {pred.rows}x{pred.cols} and "
            f"{target.rows}x{target.cols} differ"
        )
    if pred.values.size == 0:
        raise ShapeError(
            f"mse: shapes {pred.rows}x{pred.cols} and "
            f"{target.rows}x{target.cols} are empty"
        )
    diff = pred.values - target.values
    k = 1.0 / diff.size
    out = Matrix._wrap(np.array([[k * (diff * diff).sum()]]))
    return _maybe_record("mse", (pred, target), out, (diff, k))


def _acc(grads: dict, need, nid: int, val: np.ndarray):
    # Backward rules hand over freshly allocated arrays, so accumulating
    # in place here never aliases another node's stored gradient.
    if not need[nid]:
        return
    cur = grads.get(nid)
    if cur is None:
        grads[nid] = val
    else:
        cur += val


def _bw_matmul(nd, nodes, g, grads, need):
    ia, ib = nd.inputs
    if need[ia]:
        _acc(grads, need, ia, g @ nodes[ib].out.values.T)
    if need[ib]:
        _acc(grads, need, ib, nodes[ia].out.values.T @ g)


def _bw_add(nd, nodes, g, grads, need):
    for j in nd.inputs:
        if not need[j]:
            continue
        if nodes[j].out.shape == g.shape:
            _acc(grads, need, j, g.copy())
        else:
            _acc(grads, need, j, g.sum(axis=0, keepdims=True))


def _bw_concat_cols(nd, nodes, g, grads, need):
    offset = 0
    for j, width in zip(nd.inputs, nd.ctx):
        if need[j]:
            _acc(grads, need, j, g[:, offset:offset + width].copy())
        offset += width


def _bw_slice_cols(nd, nodes, g, grads, need):
    # Adds into the input's gradient in place: only the first slice of a
    # matrix to be reached allocates its full-size gradient.
    j = nd.inputs[0]
    if need[j]:
        start, stop = nd.ctx
        cur = grads.get(j)
        if cur is None:
            cur = grads[j] = np.zeros(nodes[j].out.shape)
        cur[:, start:stop] += g


def _rebuild_cells(gates, c_prev, cells, prod):
    """Write into ``cells`` the cell states of the steps whose kept gates
    ``gates`` holds, from the state ``c_prev`` before the first of them,
    with the forward's ops in the forward's order, so bit for bit.  ``prod``
    is (H, B) scratch."""
    n = cells.shape[1]
    for z, c in zip(gates, cells):
        np.multiply(z[n:2 * n], c_prev, out=c)
        np.multiply(z[:n], z[3 * n:], out=prod)
        c += prod
        c_prev = c


def _bw_lstm_sequence(nd, nodes, g, grads, need):
    # Works in the folded parameterisation of the forward: with z' = W op,
    # the i/f/o gates are clip(z') and have slope 1 strictly inside (0, 1),
    # and the factor 0.2 between z' and the unfolded z is applied once to
    # the gate rows of the finished weight gradient.
    ix, iwx, iwh, ib = nd.inputs[:4]
    gates, starts, w, reverse, h_init, c_init = nd.ctx
    steps, width, rows = gates.shape
    n = width // 4
    span = math.isqrt(steps)
    d = w.shape[1] - n - 1
    xs = nodes[ix].out.values.reshape(rows, steps, d)
    seq_g = g[:, 2 * n:].reshape(rows, steps, n) if g.shape[1] > 2 * n else None

    dw = np.zeros(w.shape) if need[iwx] or need[iwh] or need[ib] else None
    dx = np.zeros((rows, steps, d)) if need[ix] else None
    if dw is not None:
        # The operand [x_t; h_{t-1}; 1] of each step, rebuilt from the
        # input and, for h_{t-1} = o_{t-1} * tanh(c_{t-1}), the kept gates
        # and the rebuilt cells.
        operand = np.empty((d + n + 1, rows))
        operand[d + n] = 1.0
        dw_step = np.empty(w.shape)
    if dx is not None:
        wx_t = np.ascontiguousarray(w[:, :d].T)
        dx_step = np.empty((d, rows))
    wh_t = np.ascontiguousarray(w[:, d:d + n].T)
    dz = np.empty((width, rows))
    dh = np.ascontiguousarray(g[:, :n].T)
    dc = np.ascontiguousarray(g[:, n:2 * n].T)
    # The cells of the span being walked; cells[j] is c_{k*span+j} in span k.
    cells = np.empty((span, n, rows))
    # tanh of the cells runs one step ahead: step s computes tanh(c_{s-1})
    # for h_{s-1} and hands it on as step s-1's tanh(c).
    tc = np.empty((n, rows))
    tc_prev = np.empty((n, rows))
    tmp = np.empty((n, rows))
    inside = np.empty((3 * n, rows), dtype=bool)
    below = np.empty((3 * n, rows), dtype=bool)

    # Walk processing steps s from last to first; step s read input x_t
    # with t = s, or t = T-1-s when the layer ran in reverse.
    for s in range(steps - 1, -1, -1):
        t = steps - 1 - s if reverse else s
        if seq_g is not None:
            dh += seq_g[:, s].T
        # Step s is entry j of span k, which starts from c_{k*span-1}.
        k, j = divmod(s, span)
        c_start = starts[k - 1] if k else c_init
        if j == span - 1 or s == steps - 1:
            _rebuild_cells(gates[k * span:s + 1], c_start, cells[:j + 1], tmp)
            if s == steps - 1:
                np.tanh(cells[j], out=tc)
        c_prev = cells[j - 1] if j else c_start
        z = gates[s]
        gi, gf, go, gc = z[:n], z[n:2 * n], z[2 * n:3 * n], z[3 * n:]
        if s:
            np.tanh(c_prev, out=tc_prev)
        np.multiply(dh, tc, out=dz[2 * n:3 * n])
        # dc += dh * o * (1 - tanh(c)^2)
        np.multiply(tc, tc, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        tmp *= go
        tmp *= dh
        dc += tmp
        np.multiply(dc, gc, out=dz[:n])
        np.multiply(dc, c_prev, out=dz[n:2 * n])
        np.multiply(dc, gi, out=dz[3 * n:])
        np.multiply(gc, gc, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        dz[3 * n:] *= tmp
        # Clipped gates pass no gradient.
        ifo = z[:3 * n]
        np.greater(ifo, 0.0, out=inside)
        np.less(ifo, 1.0, out=below)
        np.logical_and(inside, below, out=inside)
        np.multiply(dz[:3 * n], inside, out=dz[:3 * n])
        dc *= gf
        if dw is not None:
            operand[:d] = xs[:, t].T
            if s:
                # Bit-identical to the forward's tanh(c) * o: IEEE
                # multiplication commutes.
                np.multiply(gates[s - 1, 2 * n:3 * n], tc_prev,
                            out=operand[d:d + n])
            else:
                operand[d:d + n] = h_init
            np.matmul(dz, operand.T, out=dw_step)
            dw += dw_step
        if dx is not None:
            np.matmul(wx_t, dz, out=dx_step)
            dx[:, t] = dx_step.T
        np.matmul(wh_t, dz, out=dh)
        tc, tc_prev = tc_prev, tc

    if dx is not None:
        _acc(grads, need, ix, dx.reshape(rows, steps * d))
    if dw is not None:
        dw[:3 * n] *= 0.2
        for j, val in ((iwx, dw[:, :d].T), (iwh, dw[:, d:d + n].T),
                       (ib, dw[:, d + n:].T)):
            _acc(grads, need, j, np.ascontiguousarray(val))
    # Past step 0, dh and dc are the gradients of the initial states.
    for j, val in zip(nd.inputs[4:], (dh, dc)):
        _acc(grads, need, j, val.T.copy())


def _bw_attend(nd, nodes, g, grads, need):
    iq, ik = nd.inputs
    q = nodes[iq].out.values
    rows, n = q.shape
    steps = nd.out.cols - n
    k3 = nodes[ik].out.values.reshape(rows, steps, n)
    align = nd.out.values[:, :steps]
    g_ctx = g[:, steps:]
    # context = sum_t a_t k_t, then the softmax and score rules.
    da = g[:, :steps] + np.einsum("bth,bh->bt", k3, g_ctx)
    ds = align * (da - (align * da).sum(axis=1, keepdims=True))
    if need[iq]:
        _acc(grads, need, iq, np.einsum("bt,bth->bh", ds, k3))
    if need[ik]:
        dk = align[:, :, None] * g_ctx[:, None, :]
        dk += ds[:, :, None] * q[:, None, :]
        _acc(grads, need, ik, dk.reshape(rows, steps * n))


def _bw_mse(nd, nodes, g, grads, need):
    # The gradient 2 k diff, as k diff + k diff.
    j = nd.inputs[0]
    if need[j]:
        diff, k = nd.ctx
        half = (g[0, 0] * k) * diff
        _acc(grads, need, j, half + half)


_BACKWARD = {
    "matmul": _bw_matmul,
    "add": _bw_add,
    "concat_cols": _bw_concat_cols,
    "slice_cols": _bw_slice_cols,
    "lstm_sequence": _bw_lstm_sequence,
    "attend": _bw_attend,
    "mse": _bw_mse,
}


def backward(tape: Tape, loss: Matrix, wrt=None) -> dict[int, Matrix]:
    """Gradients of a scalar loss with respect to leaves of the tape.

    Parameters
    ----------
    tape : the tape on which ``loss`` was recorded.
    loss : a 1x1 matrix produced by ops on that tape.
    wrt : optional sequence of matrices to differentiate against.  Defaults
        to every leaf.  Requested matrices with no path to the loss get a
        zero gradient.

    Returns
    -------
    dict mapping node id -> gradient Matrix (same shape as the leaf).  Look
    ids up with ``tape.node_id``.
    """
    loss_id = tape.node_id(loss)
    if loss_id is None:
        raise ContractError("loss was not recorded on this tape")
    if loss.shape != (1, 1):
        raise ContractError(
            f"loss must be a 1x1 matrix, got {loss.rows}x{loss.cols}"
        )
    nodes = tape.nodes
    if wrt is None:
        wrt_ids = [i for i, nd in enumerate(nodes) if nd.op == "leaf"]
    else:
        wrt_ids = [tape.watch(m) for m in wrt]
    keep = set(wrt_ids)

    # Forward sweep: a node needs a gradient iff it can reach a requested
    # leaf.  Inputs are always recorded before their consumers, so one pass
    # in id order suffices.
    need = np.zeros(len(nodes), dtype=bool)
    for i in wrt_ids:
        need[i] = True
    for i, nd in enumerate(nodes):
        if nd.op != "leaf" and not need[i]:
            for j in nd.inputs:
                if need[j]:
                    need[i] = True
                    break

    grads: dict[int, np.ndarray] = {loss_id: np.ones((1, 1))}
    for i in range(loss_id, -1, -1):
        nd = nodes[i]
        if nd.op == "leaf":
            continue
        g = grads.get(i)
        if g is None:
            continue
        _BACKWARD[nd.op](nd, nodes, g, grads, need)
        if i not in keep:
            del grads[i]

    result: dict[int, Matrix] = {}
    for i in wrt_ids:
        g = grads.get(i)
        if g is None:
            g = np.zeros(nodes[i].out.shape)
        result[i] = Matrix._wrap(g)
    return result
