"""Dense 64-bit matrices and a minimal reverse-mode differentiation tape.

Everything the recurrent models need is expressed through a small, closed set
of six primitives: affine (the dense layer x @ w + b, one node), concat_cols
and slice_cols, two fused layers, lstm_sequence (one LSTM over a whole
window, from zero or from given initial states) and attend (dot-product
attention: scores, softmax and context in one node), and the training loss
mse (the mean of squared errors, one node).
Each primitive evaluates eagerly with numpy and, while a tape is open,
records its inputs so the exact (sub)gradient can be replayed later.  Tapes
are define-by-run and rebuilt per batch; there is no graph reuse and no
graph optimizer.  Each thread has its own stack of open tapes, so threads
that record at the same time never share one.

The fused nodes keep what their hand-written backward rules need beside
their output: lstm_sequence keeps, of its states, only the [cell; hidden]
pair that starts each span of isqrt(steps) steps after the first.  On the
way back it re-runs one span at a time from its kept start, with the very
step function of the forward, so every gate, cell and hidden state comes
back bit for bit, and then walks that span back.  attend keeps nothing
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

* ``Tape.backward(loss, wrt)`` returns one gradient array per entry of
  ``wrt``, in order; an entry with no path to the loss gets zeros;
* gradients are accumulated per node, visiting nodes in reverse recording
  order exactly once;
* interior gradients are freed as soon as they have been consumed, which
  keeps peak memory close to the forward activations alone;
* a fused op may hand out several matrices, each a view of its node's one
  output: lstm_sequence's h, c and kept sequence.  Each has its own
  gradient, one array, and the node's rule receives them together, None
  for one that never arrived;
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
    "affine",
    "concat_cols",
    "slice_cols",
    "lstm_sequence",
    "attend",
    "mse",
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

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

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
    """One recorded primitive: op kind, the (node id, part) keys of its
    inputs, its whole output and the matrices it handed out: ``(out,)``, or
    lstm_sequence's (h, c, seq), views of ``out``."""

    __slots__ = ("op", "inputs", "out", "ctx", "parts")

    def __init__(self, op: str, inputs: tuple[tuple[int, int], ...],
                 out: Matrix, ctx=(), parts=None):
        self.op = op
        self.inputs = inputs
        self.out = out
        self.ctx = ctx
        self.parts = (out,) if parts is None else parts


class Tape:
    """An append-only record of primitives, replayed in reverse by backward().

    Usage::

        with Tape() as tape:
            y = affine(x, w, b)
            loss = mse(y, target)
        dw, db = tape.backward(loss, wrt=[w, b])

    Node ids increase with recording order, so every node's inputs appear
    strictly before it.  Run backward before reusing the same Matrix objects
    on a different tape; matrices are looked up by object identity, each
    under the (node id, part) key of the node that made it.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self._ids: dict[int, tuple[int, int]] = {}

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
        """The id of the node that made ``m`` on this tape, or None."""
        key = self._ids.get(id(m))
        return None if key is None else key[0]

    def watch(self, m: Matrix) -> tuple[int, int]:
        """Register ``m`` as a leaf (if new); return its (node, part) key."""
        key = self._ids.get(id(m))
        if key is None:
            key = self._ids[id(m)] = (len(self.nodes), 0)
            self.nodes.append(TapeNode("leaf", (), m))
        return key

    def _record(self, op: str, inputs: tuple[Matrix, ...], out: Matrix, ctx=(),
                parts=None):
        keys = tuple(self.watch(x) for x in inputs)
        nd = TapeNode(op, keys, out, ctx, parts)
        self._ids.update((id(m), (len(self.nodes), k))
                         for k, m in enumerate(nd.parts) if m is not None)
        self.nodes.append(nd)

    def backward(self, loss: Matrix, wrt) -> list[np.ndarray]:
        """Gradients of the 1x1 ``loss`` recorded on this tape, one array per
        matrix of ``wrt``, in order and of that matrix's shape.

        A matrix with no path to the loss, or never recorded, gets zeros; a
        matrix given twice gets its gradient twice.
        """
        loss_key = self._ids.get(id(loss))
        if loss_key is None:
            raise ContractError("loss was not recorded on this tape")
        if loss.shape != (1, 1):
            raise ContractError(
                f"loss must be a 1x1 matrix, got {loss.rows}x{loss.cols}"
            )
        wrt = list(wrt)
        nodes = self.nodes
        wrt_keys = [self._ids.get(id(m)) for m in wrt]
        keep = set(wrt_keys)

        # Forward sweep: a matrix needs a gradient iff it is requested or
        # its node can reach a requested matrix.  Inputs are always recorded
        # before their consumers, so one pass in id order suffices.
        need = {}
        for i, nd in enumerate(nodes):
            reach = nd.op != "leaf" and any(need[j] for j in nd.inputs)
            for k in range(len(nd.parts)):
                need[i, k] = reach or (i, k) in keep

        grads: dict[tuple[int, int], np.ndarray] = {loss_key: np.ones((1, 1))}
        for i in range(loss_key[0], -1, -1):
            nd = nodes[i]
            keys = [(i, k) for k in range(len(nd.parts))]
            g = [grads.get(key) for key in keys]
            if nd.op == "leaf" or all(part is None for part in g):
                continue
            _BACKWARD[nd.op](nd, nodes, grads, need, *g)
            for key in keys:
                if key not in keep:
                    grads.pop(key, None)
        return [grads[key] if key in grads else np.zeros(m.shape)
                for key, m in zip(wrt_keys, wrt)]


def _maybe_record(op: str, inputs: tuple[Matrix, ...], out: Matrix, ctx=(),
                  parts=None):
    tape = active_tape()
    if tape is not None:
        tape._record(op, inputs, out, ctx, parts)
    return out


def affine(x: Matrix, w: Matrix, b: Matrix) -> Matrix:
    """The dense layer x @ w + b, the 1 x w.cols bias ``b`` added to every
    row."""
    if x.cols != w.rows or b.shape != (1, w.cols):
        raise ShapeError(
            f"affine: x {x.rows}x{x.cols}, w {w.rows}x{w.cols} and b "
            f"{b.rows}x{b.cols} do not conform (want w {x.cols}xN, b 1xN)"
        )
    out = x.values @ w.values
    out += b.values
    return _maybe_record("affine", (x, w, b), Matrix._wrap(out))


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

    Ops never write into their operands, so the view is as good as a copy.
    On the way back the block's gradient is written into zeros of x's shape.
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


def _lstm_step(w, operand, z, c_prev, c, tc, h):
    """One LSTM step, the forward's and the backward's re-run alike.

    Writes the product W @ operand into ``z`` (4H x B) and activates it
    there in place, gate order i, f, o, c; then the new cell
    f * c_prev + i * g into ``c``, its tanh into ``tc`` and the new hidden
    state tanh(c) * o into ``h``.  ``tc`` doubles as scratch before it is
    written, and may be ``h`` itself.
    """
    n = c.shape[0]
    np.matmul(w, operand, out=z)
    np.clip(z[:3 * n], 0.0, 1.0, out=z[:3 * n])
    np.tanh(z[3 * n:], out=z[3 * n:])
    np.multiply(z[n:2 * n], c_prev, out=c)
    np.multiply(z[:n], z[3 * n:], out=tc)
    c += tc
    np.tanh(c, out=tc)
    np.multiply(tc, z[2 * n:3 * n], out=h)


def lstm_sequence(x: Matrix, wx: Matrix, wh: Matrix, b: Matrix,
                  reverse: bool = False, keep_sequence: bool = False,
                  h0: Matrix | None = None, c0: Matrix | None = None) -> tuple:
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
    ``x`` makes this a single LSTM step from those states.  Returns
    (h, c, seq): the hidden and cell states after the last step processed
    (B x H each) and, with ``keep_sequence``, the hidden state after each
    step side by side in processing order (B x TH), else None.  The three
    are views of one allocation, and on a tape each has its own gradient.
    The backward rule gives the hard sigmoid slope 0.2 where the gate lies
    strictly inside (0, 1) and 0 where it is clipped.

    Each step is one matrix product of the folded weight (see
    ``_folded_weight``) with the stacked operand [x_t; h; 1] (D + H + 1 x B),
    followed by the clip, the two tanh and the cell and hidden products.

    On a tape the node keeps, of the states, only the [cell; hidden] pair
    that starts each span of isqrt(T) steps after the first: 13 pairs at
    T = 180, 5.3 MB per layer at the paper shape (B 256, H 100).  The
    backward pass re-runs one span at a time from its start, which takes
    one span of scratch, about 23 MB at that shape.
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
    # block is one contiguous run for the elementwise updates.  The cell
    # state has one slot, and the hidden state lives only in the operand;
    # on tape a copy is kept of the [cell; hidden] pair that starts each
    # span of isqrt(T) steps after the first.
    span = math.isqrt(steps)
    starts = np.empty((-(-steps // span) - 1, 2, n, rows)) if taped else None
    z = np.empty((width, rows))
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
    c_prev = c_init
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    for s, t in enumerate(order):
        x_in[...] = xs[:, t].T
        # h_{t-1} has been read once the product is formed; the new state
        # overwrites it in place.
        _lstm_step(w, operand, z, c_prev, c, h, h)
        if seq is not None:
            seq[:, s] = h.T
        c_prev = c
        if taped and s + 1 < steps and (s + 1) % span == 0:
            starts[(s + 1) // span - 1] = c, h

    out[:, :n] = h.T
    out[:, n:2 * n] = c.T
    ctx = (starts, w, reverse, h_init, c_init) if taped else ()
    parts = (Matrix._wrap(out[:, :n]), Matrix._wrap(out[:, n:2 * n]),
             Matrix._wrap(out[:, 2 * n:]) if keep_sequence else None)
    _maybe_record("lstm_sequence", (x, wx, wh, b) + states, Matrix._wrap(out),
                  ctx, parts)
    return parts


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
    scores = np.matmul(k3, query.values[:, :, None])[:, :, 0]
    scores -= scores.max(axis=1, keepdims=True)
    e = np.exp(scores)
    out = np.empty((rows, steps + n))
    np.divide(e, e.sum(axis=1, keepdims=True), out=out[:, :steps])
    out[:, steps:] = np.matmul(out[:, None, :steps], k3)[:, 0]
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


def _value(nodes, key) -> np.ndarray:
    """The values of the matrix recorded under the (node, part) ``key``."""
    j, k = key
    return nodes[j].parts[k].values


def _acc(grads: dict, need: dict, key, val: np.ndarray):
    # Backward rules hand over freshly allocated arrays, so accumulating
    # in place here never aliases another matrix's stored gradient.
    if not need[key]:
        return
    cur = grads.get(key)
    if cur is None:
        grads[key] = val
    else:
        cur += val


def _bw_affine(nd, nodes, grads, need, g):
    ix, iw, ib = nd.inputs
    if need[ix]:
        _acc(grads, need, ix, g @ _value(nodes, iw).T)
    if need[iw]:
        _acc(grads, need, iw, _value(nodes, ix).T @ g)
    if need[ib]:
        _acc(grads, need, ib, g.sum(axis=0, keepdims=True))


def _bw_concat_cols(nd, nodes, grads, need, g):
    offset = 0
    for j, width in zip(nd.inputs, nd.ctx):
        if need[j]:
            _acc(grads, need, j, g[:, offset:offset + width].copy())
        offset += width


def _bw_slice_cols(nd, nodes, grads, need, g):
    j = nd.inputs[0]
    if need[j]:
        start, stop = nd.ctx
        whole = np.zeros(_value(nodes, j).shape)
        whole[:, start:stop] = g
        _acc(grads, need, j, whole)


def _bw_lstm_sequence(nd, nodes, grads, need, g_h, g_c, g_seq):
    # Works in the folded parameterisation of the forward: with z' = W op,
    # the i/f/o gates are clip(z') and have slope 1 strictly inside (0, 1),
    # and the factor 0.2 between z' and the unfolded z is applied once to
    # the gate rows of the finished weight gradient.
    ix, iwx, iwh, ib = nd.inputs[:4]
    starts, w, reverse, h_init, c_init = nd.ctx
    rows, width = nd.out.rows, w.shape[0]
    n = width // 4
    d = w.shape[1] - n - 1
    x = _value(nodes, ix)
    steps = x.shape[1] // d
    span = math.isqrt(steps)
    xs = x.reshape(rows, steps, d)
    seq_g = None if g_seq is None else g_seq.reshape(rows, steps, n)

    dw = np.zeros(w.shape) if need[iwx] or need[iwh] or need[ib] else None
    dx = np.zeros((rows, steps, d)) if need[ix] else None
    if dw is not None:
        dw_step = np.empty(w.shape)
    if dx is not None:
        wx_t = np.ascontiguousarray(w[:, :d].T)
        dx_step = np.empty((d, rows))
    wh_t = np.ascontiguousarray(w[:, d:d + n].T)
    dz = np.empty((width, rows))
    # Copies, never views: dh and dc are written in place below.
    dh, dc = (np.zeros((n, rows)) if blk is None else blk.T.copy()
              for blk in (g_h, g_c))
    # The span being walked, re-run from its start: entry j holds, for step
    # k*span+j of span k, the activated gates, the cell, its tanh and the
    # operand [x_t; h_{t-1}; 1] of the step; each step writes its hidden
    # state into the next operand.  All four live in one allocation, which
    # the allocator takes back whole: as separate arrays they left pieces
    # in its heap that raised a later step's peak RSS by up to 40 MB.
    at = np.cumsum([span * width, span * n, span * n])
    block = np.empty((at[-1] + (span + 1) * (d + n + 1), rows))
    gates = block[:at[0]].reshape(span, width, rows)
    cells = block[at[0]:at[1]].reshape(span, n, rows)
    tcs = block[at[1]:at[2]].reshape(span, n, rows)
    operands = block[at[2]:].reshape(span + 1, d + n + 1, rows)
    operands[:, d + n] = 1.0
    tmp = np.empty((n, rows))
    inside = np.empty((3 * n, rows), dtype=bool)
    below = np.empty((3 * n, rows), dtype=bool)

    # Walk the spans from last to first; step s read input x_t with t = s,
    # or t = T-1-s when the layer ran in reverse.
    for lo in range((steps - 1) // span * span, -1, -span):
        m = min(span, steps - lo)
        c_start, h_start = starts[lo // span - 1] if lo else (c_init, h_init)
        operands[0, d:d + n] = h_start
        c_prev = c_start
        for j in range(m):
            s = lo + j
            operands[j, :d] = xs[:, steps - 1 - s if reverse else s].T
            _lstm_step(w, operands[j], gates[j], c_prev, cells[j], tcs[j],
                       operands[j + 1, d:d + n])
            c_prev = cells[j]
        for j in range(m - 1, -1, -1):
            s = lo + j
            t = steps - 1 - s if reverse else s
            if seq_g is not None:
                dh += seq_g[:, s].T
            z, tc = gates[j], tcs[j]
            gi, gf, go, gc = z[:n], z[n:2 * n], z[2 * n:3 * n], z[3 * n:]
            c_prev = cells[j - 1] if j else c_start
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
            np.greater(z[:3 * n], 0.0, out=inside)
            np.less(z[:3 * n], 1.0, out=below)
            np.logical_and(inside, below, out=inside)
            np.multiply(dz[:3 * n], inside, out=dz[:3 * n])
            dc *= gf
            if dw is not None:
                np.matmul(dz, operands[j].T, out=dw_step)
                dw += dw_step
            if dx is not None:
                np.matmul(wx_t, dz, out=dx_step)
                dx[:, t] = dx_step.T
            np.matmul(wh_t, dz, out=dh)

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


def _bw_attend(nd, nodes, grads, need, g):
    iq, ik = nd.inputs
    q = _value(nodes, iq)
    rows, n = q.shape
    steps = nd.out.cols - n
    k3 = _value(nodes, ik).reshape(rows, steps, n)
    align = nd.out.values[:, :steps]
    g_ctx = g[:, steps:]
    # context = sum_t a_t k_t, then the softmax and score rules.
    da = np.matmul(k3, g_ctx[:, :, None])[:, :, 0]
    da += g[:, :steps]
    ds = align * (da - (align * da).sum(axis=1, keepdims=True))
    if need[iq]:
        _acc(grads, need, iq, np.matmul(ds[:, None, :], k3)[:, 0])
    if need[ik]:
        # dk_t = a_t g_ctx + ds_t q, as one batched product.
        dk = np.matmul(np.stack([align, ds], axis=2),
                       np.stack([g_ctx, q], axis=1))
        _acc(grads, need, ik, dk.reshape(rows, steps * n))


def _bw_mse(nd, nodes, grads, need, g):
    # The gradient 2 k diff, as k diff + k diff.
    j = nd.inputs[0]
    if need[j]:
        diff, k = nd.ctx
        half = (g[0, 0] * k) * diff
        _acc(grads, need, j, half + half)


_BACKWARD = {
    "affine": _bw_affine,
    "concat_cols": _bw_concat_cols,
    "slice_cols": _bw_slice_cols,
    "lstm_sequence": _bw_lstm_sequence,
    "attend": _bw_attend,
    "mse": _bw_mse,
}
