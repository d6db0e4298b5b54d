"""Reverse-mode automatic differentiation over dense numpy arrays.

The graph is built eagerly: every operation returns a fresh :class:`Tensor`
holding its forward value plus an op record (operation name, parent tensors,
and a closure mapping the output adjoint to parent adjoints).  Leaves carry
no record.  :func:`backward` walks the graph once in reverse topological
order and sums the adjoint of each leaf it is asked for into that leaf's
own array; every other leaf is a constant, and its adjoint is dropped.

Conventions that the rest of the package relies on:

* float64 values by default; float32 works but leaves less headroom for
  gradient checks.
* Graphs are rebuilt from scratch every step.  ``backward`` overwrites the
  arrays it sums into (fresh ones unless the caller passes its own) and
  consumes the graph as it goes: once a node's VJP has run, the node drops
  its closure and its parents and keeps only its values.  So nothing
  accumulates across calls, a step holds only the saved arrays of the VJPs
  still to run, and a second ``backward`` through the same graph raises.
* Elementwise operations follow numpy broadcasting; the adjoint of a
  broadcast input is summed back down to its original shape.
* ``minimum`` routes the full adjoint to its first argument on exact ties.
* ``log`` clamps its input to ``LOG_FLOOR`` (1e-12) so probabilities that
  underflow to exact zero stay finite; at or below the floor the local
  derivative uses the clamped value.
* ``softmax`` subtracts the running maximum before exponentiating, so large
  negative mask penalties underflow to exact zeros instead of producing NaN.

Every op returns through ``_record``, the one place a tape node is built.
Inside :func:`no_grad` it drops the op's adjoint closure and returns a plain
leaf, so the finite-difference probe loop builds no graph.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

LOG_FLOOR = 1e-12
# Elements of [B, t, S, a] attention working memory per run of target steps
# (4 MiB of float64; see `attention`).  Every call at the gate sizes (emb
# 16, hidden 32, sources and targets up to 16 tokens) is one run: 8 training
# rows, 32 held-out rows, a 128-row beam step.
ATTENTION_BLOCK = 1 << 19

# Module-level mode switches.  Training is single-threaded per step, so a
# plain global (not thread-local) is deliberate.
_grad_enabled = True
_tie_log: list["TieEvent"] | None = None


class Tensor:
    """A dense array plus an optional record of how it was computed."""

    __slots__ = ("values", "op", "parents", "_vjp")

    def __init__(
        self,
        values,
        *,
        op: str | None = None,
        parents: tuple["Tensor", ...] = (),
        vjp: Callable[[np.ndarray], tuple] | None = None,
    ):
        self.values = values if type(values) is np.ndarray else np.asarray(values)
        self.op = op
        self.parents = parents
        self._vjp = vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    @property
    def is_leaf(self) -> bool:
        return self.op is None

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() needs a single element, got shape {self.shape}")
        return float(self.values)

    def __repr__(self) -> str:
        tag = self.op or "leaf"
        return f"Tensor({tag}, shape={self.shape}, dtype={self.dtype})"


@dataclass(frozen=True)
class TieEvent:
    """Record of an exact tie seen by `minimum` while gradients were on."""

    left: Tensor
    right: Tensor
    mask: np.ndarray  # broadcast-shaped boolean array, True where tied


def tensor(values, dtype=None) -> Tensor:
    """Wrap `values` as a leaf tensor (copies when a dtype change is needed)."""
    arr = np.asarray(values, dtype=dtype)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    return Tensor(arr)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (forward values only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


@contextlib.contextmanager
def record_ties():
    """Collect `minimum` tie events raised inside the block."""
    global _tie_log
    prev = _tie_log
    _tie_log = []
    try:
        yield _tie_log
    finally:
        _tie_log = prev


def _record(
    out: np.ndarray, op: str, parents: tuple[Tensor, ...], vjp: Callable[[np.ndarray], tuple]
) -> Tensor:
    """The one place a tape node is built: under `no_grad`, a plain leaf."""
    if not _grad_enabled:
        return Tensor(out)
    return Tensor(out, op=op, parents=parents, vjp=vjp)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# Elementwise arithmetic
#
# Shape compatibility is checked by numpy itself: a failed broadcast raises
# ValueError, which we rewrap with the operator name.


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.values + b.values
    except ValueError:
        raise DimensionError("add", a.shape, b.shape) from None

    def vjp(g):
        return _unbroadcast(g, a.values.shape), _unbroadcast(g, b.values.shape)

    return _record(out, "add", (a, b), vjp)


def subtract(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.values - b.values
    except ValueError:
        raise DimensionError("subtract", a.shape, b.shape) from None

    def vjp(g):
        return _unbroadcast(g, a.values.shape), _unbroadcast(-g, b.values.shape)

    return _record(out, "subtract", (a, b), vjp)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    try:
        out = av * bv
    except ValueError:
        raise DimensionError("multiply", a.shape, b.shape) from None

    def vjp(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return _record(out, "multiply", (a, b), vjp)


def scale(a: Tensor, scalar: float) -> Tensor:
    s = float(scalar)
    out = a.values * s

    def vjp(g):
        return (g * s,)

    return _record(out, "scale", (a,), vjp)


# ---------------------------------------------------------------------------
# Linear algebra and shape plumbing


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` with numpy's rules.  A stack of matrices times one matrix,
    [..., K] @ [K, N], runs as a single [rows, K] @ [K, N] product, forward
    and backward, rather than one product per matrix of the stack."""
    av, bv = a.values, b.values
    rows = av.ndim > 2 and bv.ndim == 2
    try:
        if rows:
            out = (av.reshape(-1, av.shape[-1]) @ bv).reshape(av.shape[:-1] + bv.shape[1:])
        else:
            out = np.matmul(av, bv)
    except ValueError:
        raise DimensionError("matmul", a.shape, b.shape) from None

    def vjp(g):
        if rows:
            a2, g2 = av.reshape(-1, av.shape[-1]), g.reshape(-1, g.shape[-1])
            return (g2 @ bv.T).reshape(av.shape), a2.T @ g2
        # Promote 1-D operands to matrices, apply the matrix rule, then sum
        # away any batch dims numpy broadcast in.
        a2 = av[np.newaxis, :] if av.ndim == 1 else av
        b2 = bv[:, np.newaxis] if bv.ndim == 1 else bv
        g2 = g.reshape(
            np.broadcast_shapes(a2.shape[:-2], b2.shape[:-2])
            + (a2.shape[-2], b2.shape[-1])
        )
        da = np.matmul(g2, np.swapaxes(b2, -1, -2))
        db = np.matmul(np.swapaxes(a2, -1, -2), g2)
        da = _unbroadcast(da, a2.shape).reshape(av.shape)
        db = _unbroadcast(db, b2.shape).reshape(bv.shape)
        return da, db

    return _record(out, "matmul", (a, b), vjp)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    if not parts:
        raise ContractError("concat: need at least one part")
    try:
        out = np.concatenate([p.values for p in parts], axis=-1)
    except ValueError:
        raise DimensionError("concat", *(p.shape for p in parts)) from None
    parts = tuple(parts)

    def vjp(g):
        splits = np.cumsum([p.values.shape[-1] for p in parts])[:-1]
        return tuple(np.split(g, splits, axis=-1))

    return _record(out, "concat", parts, vjp)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    try:
        out = a.values.reshape(shape)  # numpy handles a single -1 wildcard
    except ValueError:
        raise DimensionError("reshape", a.shape, shape) from None

    def vjp(g):
        return (g.reshape(a.values.shape),)

    return _record(out, "reshape", (a,), vjp)


def getitem(a: Tensor, key) -> Tensor:
    """Basic slicing ``a[key]``: integers, slices and ``...`` only."""
    parts = key if isinstance(key, tuple) else (key,)
    for k in parts:
        integer = isinstance(k, (int, np.integer)) and not isinstance(k, bool)
        if not (integer or isinstance(k, slice) or k is Ellipsis):
            raise ContractError(f"getitem: only integers, slices and ... may index, got {k!r}")
    try:
        out = a.values[key]
    except IndexError:
        raise DimensionError("getitem", a.shape) from None

    def vjp(g):
        da = np.zeros(a.values.shape, dtype=g.dtype)
        da[key] = g
        return (da,)

    return _record(out, "getitem", (a,), vjp)


# ---------------------------------------------------------------------------
# Nonlinearities


def sigmoid(a: Tensor) -> Tensor:
    x = a.values
    # exp of a non-positive number never overflows, so branch on the sign.
    ex = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _record(out, "sigmoid", (a,), vjp)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.values)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return _record(out, "tanh", (a,), vjp)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, max-shifted for stability."""
    x = a.values
    if x.ndim == 0:
        raise DimensionError("softmax", x.shape)
    ex = np.exp(x - x.max(axis=-1, keepdims=True))
    out = ex / ex.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return ((g - inner) * out,)

    return _record(out, "softmax", (a,), vjp)


def log(a: Tensor) -> Tensor:
    """Natural log with the input clamped to at least LOG_FLOOR."""
    x = a.values
    clamped = np.maximum(x, LOG_FLOOR)
    out = np.log(clamped)

    def vjp(g):
        return (np.where(x >= LOG_FLOOR, g / clamped, 0.0),)

    return _record(out, "log", (a,), vjp)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; exact ties send the whole adjoint to `a`."""
    av, bv = a.values, b.values
    try:
        take_a = av <= bv
    except ValueError:
        raise DimensionError("minimum", a.shape, b.shape) from None
    out = np.where(take_a, av, bv)
    if _grad_enabled and _tie_log is not None:
        tied = av == bv
        if np.any(tied):
            _tie_log.append(TieEvent(a, b, np.broadcast_to(tied, out.shape).copy()))

    def vjp(g):
        return (
            _unbroadcast(np.where(take_a, g, 0.0), av.shape),
            _unbroadcast(np.where(take_a, 0.0, g), bv.shape),
        )

    return _record(out, "minimum", (a, b), vjp)


# ---------------------------------------------------------------------------
# Reductions and indexed access


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    out = np.asarray(a.values.sum(axis=axis))

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.values.shape),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.values.shape),)

    return _record(out, "reduce_sum", (a,), vjp)


def gather(a: Tensor, indices) -> Tensor:
    """Select rows of `a` along its first axis: out[k] = a[indices[k]]."""
    idx = indices if type(indices) is np.ndarray else np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise ContractError(f"gather: indices must be integers, got {idx.dtype}")
    n = a.values.shape[0] if a.values.ndim else 0
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ContractError(
            f"gather: index out of range for first axis of size {n} "
            f"(saw min {idx.min()}, max {idx.max()})"
        )
    out = a.values[idx]

    def vjp(g):
        da = np.zeros(a.values.shape, dtype=g.dtype)
        np.add.at(da, idx, g)
        return (da,)

    return _record(out, "gather", (a,), vjp)


def scatter_add(a: Tensor, indices, size: int) -> Tensor:
    """Sum entries of `a` into buckets along a new last axis of `size`.

    `indices` has the same shape as `a`; out[..., j] collects every
    a[..., t] with indices[..., t] == j.  Duplicate targets accumulate.
    """
    idx = indices if type(indices) is np.ndarray else np.asarray(indices)
    if idx.shape != a.values.shape:
        raise DimensionError("scatter_add", a.shape, idx.shape)
    if idx.dtype.kind not in "iu":
        raise ContractError(f"scatter_add: indices must be integers, got {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise ContractError(
            f"scatter_add: bucket id out of range for size {size} "
            f"(saw min {idx.min()}, max {idx.max()})"
        )
    width = a.values.shape[-1] if a.values.ndim else 1
    flat = a.values.reshape(-1, width)
    flat_idx = idx.reshape(-1, width)
    rows = np.arange(flat.shape[0])[:, None]
    out = np.zeros((flat.shape[0], size), dtype=a.values.dtype)
    np.add.at(out, (rows, flat_idx), flat)
    out = out.reshape(a.values.shape[:-1] + (size,))

    def vjp(g):
        g_flat = g.reshape(-1, size)
        da = np.take_along_axis(g_flat, flat_idx, axis=1)
        return (da.reshape(a.values.shape),)

    return _record(out, "scatter_add", (a,), vjp)


# ---------------------------------------------------------------------------
# Recurrence


_Index = np.ndarray | slice


class _Packing(NamedTuple):
    """Where `lstm` keeps each (row, step) pair; see `_packing`."""

    order: _Index            # [B] the rows, longest first
    entries: int
    # Per run step: its entries [lo, hi), the state block it reads from and
    # the one it writes to, and how many of its rows are still running.
    spans: tuple[tuple[int, int, int, int, int], ...]
    src: tuple[_Index, ...]  # per direction, [entries] the x[b, t] (as b*T + t) each reads
    reads: tuple[_Index, ...]  # per direction, [B, T] the state entry each output reads
    prev: _Index             # [entries] the state entry each entry starts from
    spares: np.ndarray       # [entries] True where no output reads the entry


@functools.lru_cache(maxsize=32)
def _packing(
    lengths: tuple[int, ...] | None, bsz: int, steps: int, flips: tuple[bool, ...]
) -> _Packing:
    """The packed layout of an `lstm` call whose rows have `lengths` real
    steps (all `steps` when None); `flips` marks the directions that run
    backwards in time.  It depends on these alone, and the layers of one
    batch, or a decoder stepping one token at a time, ask for the same few
    layouts again and again, so the last few are kept (a beam search over
    128 sources asks 168 times for 13 layouts); their arrays are read-only.

    The rows are sorted longest first (stable), and run step s covers the
    sorted rows [0, n): the rows still running plus, when only one is, the
    next as a spare whose state no output reads, so no step is a one-row
    product while the batch has two rows.  The packed entries are those
    (step, sorted row) pairs in step order.  The state array holds the
    start states (sorted rows) and then every entry's state.
    """
    lengths = np.full(bsz, steps) if lengths is None else np.array(lengths)
    order = np.argsort(-lengths, kind="stable")
    ranked = lengths[order]
    t_run = np.arange(ranked[0] if bsz else 0)[:, None]
    running = ranked > t_run
    grid = running.copy()
    grid[:, :2] = True
    offs = np.concatenate([[0], np.cumsum(grid.sum(axis=1))])
    blocks = np.concatenate([[0], bsz + offs])
    # A reversed direction reads a row's real steps last to first; a
    # spare reads its row at a padded position, so no two entries of a
    # direction read the same one.
    base = order * steps
    src = tuple(
        (base + (np.where(running, ranked - 1 - t_run, t_run) if flip else t_run))[grid]
        for flip in flips
    )
    # A real output position reads its own entry; a padded one the state
    # it holds: forward, the row's last entry, reversed, its start state
    # (block 0), as for a row with no real step.
    rank = np.argsort(order)[:, None]
    last = lengths[:, None] - 1
    t = np.arange(steps)
    reads = tuple(
        blocks[(np.maximum(last - t, -1) if flip else np.minimum(t, last)) + 1] + rank
        for flip in flips
    )
    prev = (blocks[:-2, None] + np.arange(bsz))[grid]
    spares = ~running[grid]
    spares.flags.writeable = False
    spans = list(zip(offs[:-1], offs[1:], blocks[:-2], blocks[1:-1], running.sum(axis=1)))
    return _Packing(
        _index(order),
        int(offs[-1]),
        tuple(tuple(map(int, span)) for span in spans),
        tuple(map(_index, src)),
        tuple(map(_index, reads)),
        _index(prev),
        spares,
    )


def _index(idx: np.ndarray) -> _Index:
    """`idx` made read-only, or the slice it equals when it counts up by
    one (as without padding, at one step), which indexes without a copy."""
    flat = idx.ravel()
    if flat.size and np.array_equal(flat, np.arange(flat[0], flat[0] + flat.size)):
        return slice(int(flat[0]), int(flat[0]) + flat.size)
    idx.flags.writeable = False
    return idx


def lstm(
    x: Tensor,
    w: Tensor,
    u: Tensor,
    b: Tensor,
    h0: Tensor,
    c0: Tensor,
    keep: np.ndarray | None = None,
    reverse: bool = False,
    back: tuple[Tensor, Tensor, Tensor] | None = None,
) -> Tensor:
    """Run an LSTM over every step of `x` [B, T, in] as one tape node.

    `w` [in, 4h], `u` [h, 4h] and `b` [4h] hold the four gates side by side
    in (input, forget, cell, output) order; `h0` and `c0` [B, h] are the
    start states.  Each step computes

        z = x_t w + b + h u,  i, f, o = sigmoid(z_i, z_f, z_o),  g = tanh(z_g),
        c = f * c + i * g,    h = o * tanh(c)

    The constant 0/1 mask `keep` [B, T] marks each row's real steps, which
    must come first in the row (a row may have none); without it every step
    is real.  Only real steps are run.  `reverse` runs each row's real steps
    from its last down to step 0.  At a padded position the output holds a
    state: forward, the one after the row's last real step; reversed, the
    start state.

    `back`, a second cell's (w, u, b), adds a second direction that runs the
    opposite way over the same inputs and mask: with `reverse` False, the
    two directions of a bidirectional layer.  `h0` and `c0` are then
    [B, 2h], the first direction's start state followed by the second's.

    Returns the state after each step, [B, T, 2h] for one direction and
    [B, T, 4h] for two: every direction's h side by side in the first half
    of the last axis, and their c in the same order in the second.

    The work is packed over real steps (see `_packing`): with the rows
    sorted longest first, the rows still running at run step s are a prefix
    in every direction, and each step is one stacked [D, n, h] @ [D, h, 4h]
    recurrent product over those n rows.  The input projection is one
    matmul per direction over the real steps.  The backward pass is one
    reverse sweep that keeps each step's gate adjoints, then forms the
    gradients of `x`, `w`, `u` and `b` with one product each over the real
    steps; `keep` gets no adjoint.
    """
    cells = ((w, u, b),) if back is None else ((w, u, b), tuple(back))
    flips = (reverse, not reverse)[: len(cells)]  # directions that run backwards in time
    dirs = len(cells)
    xv, h0v, c0v = x.values, h0.values, c0.values
    if xv.ndim != 3:
        raise DimensionError("lstm", xv.shape)
    bsz, steps, in_dim = xv.shape
    hid = u.values.shape[0]
    shapes = tuple(t.values.shape for cell in cells for t in cell) + (h0v.shape, c0v.shape)
    expected = ((in_dim, 4 * hid), (hid, 4 * hid), (4 * hid,)) * dirs + ((bsz, dirs * hid),) * 2
    if shapes != expected:
        raise DimensionError("lstm", xv.shape, *shapes)
    lengths = None
    if keep is not None:
        if keep.shape != (bsz, steps):
            raise DimensionError("lstm", xv.shape, keep.shape)
        real = keep != 0
        counts = real.sum(axis=1)
        if not np.array_equal(real, np.arange(steps) < counts[:, None]):
            raise ContractError("lstm: the real steps of every row must come first")
        lengths = tuple(counts.tolist())
    pack = _packing(lengths, bsz, steps, flips)
    order, packed, src = pack.order, pack.entries, pack.src
    run = np.empty((dirs, bsz + packed, 2 * hid), dtype=np.result_type(xv, w.values))
    h_all, c_all = run[..., :hid], run[..., hid:]
    h_all[:, :bsz] = h0v[order].reshape(bsz, dirs, hid).swapaxes(0, 1)
    c_all[:, :bsz] = c0v[order].reshape(bsz, dirs, hid).swapaxes(0, 1)

    # sigmoid(z) = (1 + tanh(z / 2)) / 2, so one tanh serves all four gates:
    # halve the i, f, o pre-activations (exact in binary floating point),
    # then map those gates from [-1, 1] onto [0, 1].
    half = np.full(4 * hid, 0.5, dtype=run.dtype)
    half[2 * hid : 3 * hid] = 1.0
    shift = half.copy()
    shift[2 * hid : 3 * hid] = 0.0
    x_flat = xv.reshape(bsz * steps, in_dim)
    x_run = [x_flat[idx] for idx in src]  # each direction's inputs, packed
    # Gate activations i, f, g, o of every entry, first holding the input
    # projections.
    acts = np.empty((dirs, packed, 4 * hid), dtype=run.dtype)
    for d, ((wd, _, bd), xd) in enumerate(zip(cells, x_run)):
        np.matmul(xd, wd.values, out=acts[d])
        acts[d] += bd.values
        acts[d] *= half
    u_half = np.stack([ud.values * half for _, ud, _ in cells])
    i, f, cell, o = (acts[..., k * hid : (k + 1) * hid] for k in range(4))
    for lo, hi, prev, at, _ in pack.spans:
        n = hi - lo
        a = acts[:, lo:hi]
        a += h_all[:, prev : prev + n] @ u_half
        np.tanh(a, out=a)
        a *= half
        a += shift
        h_new, c_new = h_all[:, at : at + n], c_all[:, at : at + n]
        np.multiply(f[:, lo:hi], c_all[:, prev : prev + n], out=c_new)
        c_new += i[:, lo:hi] * cell[:, lo:hi]
        np.tanh(c_new, out=h_new)
        h_new *= o[:, lo:hi]

    out = np.empty((bsz, steps, 2, dirs, hid), dtype=run.dtype)
    for d, idx in enumerate(pack.reads):
        out[:, :, :, d] = run[d, idx].reshape(bsz, steps, 2, hid)
    out = out.reshape(bsz, steps, 2 * dirs * hid)

    def vjp(g):
        g5 = g.reshape(bsz, steps, 2, dirs, hid)
        # Each entry's output adjoint (a spare's is never read) ...
        g_run = np.stack(
            [g5[:, :, :, d].reshape(bsz * steps, 2 * hid)[idx] for d, idx in enumerate(src)]
        )
        # ... and, per row, the summed adjoint of its padded positions.
        if keep is None:
            tail = np.zeros((dirs, bsz, 2 * hid), dtype=g.dtype)
        else:
            held = (~real).astype(g.dtype)[:, None, :]
            tail = (held @ g.reshape(bsz, steps, -1))[:, 0].reshape(bsz, 2, dirs, hid)
            tail = tail.transpose(2, 0, 1, 3).reshape(dirs, bsz, 2 * hid)[:, order]
        # The state each entry started from.
        h_in = run[:, pack.prev]
        c_in = h_in[..., hid:]
        tanh_c = np.tanh(c_all[:, bsz:])
        dc_per_dh = o * (1.0 - tanh_c * tanh_c)
        # Pre-activation adjoints of the i, f, g gates per unit adjoint of
        # the entry's cell, and of the o gate per unit adjoint of its h.
        per_dc = np.stack(
            [cell * i * (1.0 - i), c_in * f * (1.0 - f), i * (1.0 - cell * cell)], axis=-2
        )
        per_dh = tanh_c * o * (1.0 - o)
        dz = np.empty((dirs, packed, 4, hid), dtype=g.dtype)
        dz[:, pack.spares] = 0.0
        # A forward direction's padded positions hold its last state, so
        # their adjoint joins that state's; a reversed one's joins h0, c0.
        flipped = np.asarray(flips)[:, None, None]
        carry = np.where(flipped, 0.0, tail)
        dh, dc = carry[..., :hid], carry[..., hid:]
        ut = np.stack([ud.values.T for _, ud, _ in cells])
        g_h, g_c = g_run[..., :hid], g_run[..., hid:]
        dz_cell, dz_h = dz[..., :3, :], dz[..., 3, :]
        for lo, _, _, _, n in reversed(pack.spans):
            hi = lo + n
            dh_n, dc_n = dh[:, :n], dc[:, :n]
            dh_n += g_h[:, lo:hi]
            dc_n += g_c[:, lo:hi]
            dc_n += dh_n * dc_per_dh[:, lo:hi]
            np.multiply(per_dc[:, lo:hi], dc_n[..., None, :], out=dz_cell[:, lo:hi])
            np.multiply(per_dh[:, lo:hi], dh_n, out=dz_h[:, lo:hi])
            np.matmul(dz[:, lo:hi].reshape(dirs, n, 4 * hid), ut, out=dh_n)
            dc_n *= f[:, lo:hi]
        start_grad = np.empty_like(carry)
        start_grad[:, order] = carry + np.where(flipped, tail, 0.0)
        start_grad = start_grad.reshape(dirs, bsz, 2, hid).transpose(1, 2, 0, 3)
        start_grad = start_grad.reshape(bsz, 2, dirs * hid)
        dx = np.zeros((bsz * steps, in_dim), dtype=g.dtype)
        grads = []
        for d, ((wd, _, _), xd, idx) in enumerate(zip(cells, x_run, src)):
            dz2 = dz[d].reshape(packed, 4 * hid)
            dx[idx] += dz2 @ wd.values.T
            grads.append((xd.T @ dz2, h_in[d, :, :hid].T @ dz2, dz2.sum(axis=0)))
        return (
            dx.reshape(xv.shape), *grads[0], start_grad[:, 0], start_grad[:, 1],
            *(grads[1] if back is not None else ()),
        )

    return _record(out, "lstm", (x, w, u, b, h0, c0, *(back or ())), vjp)


def _step_blocks(bsz: int, steps: int, src: int, dim: int) -> list[slice]:
    """Runs of target steps, first to last, whose [B, t, S, a] features
    fit in `ATTENTION_BLOCK` elements; each run has at least one step, and
    a call that fits whole is one run."""
    span = max(1, ATTENTION_BLOCK // max(1, bsz * src * dim))
    return [slice(t, min(t + span, steps)) for t in range(0, max(steps, 1), span)]


def attention(
    enc_feat: Tensor,
    query: Tensor,
    states: Tensor,
    cov_w: Tensor,
    score_v: Tensor,
    penalty: Tensor,
    coverage: Tensor | None = None,
) -> Tensor:
    """Additive attention for every step of `query` [B, T, a] as one tape node.

    `states` [B, S, D] are the memory and `enc_feat` [B, S, a] their
    attention projection; `penalty` [B, S] is added to every step's scores
    (0 on real positions, a large negative number on padding), and `cov_w`
    and `score_v` are [a].  Step t computes

        e = tanh(enc_feat + query_t + cov_t * cov_w) score_v,
        alpha_t = softmax(e + penalty),    context_t = alpha_t states,

    where the coverage starts from `coverage` [B, S] and each step adds its
    own attention: cov_{t+1} = cov_t + alpha_t.  Without `coverage` the
    coverage feature is dropped, every step is independent, and `cov_w`
    gets no adjoint.

    Returns [B, T, S + D]: alpha, then the context; with coverage, S more
    columns hold the coverage each step started from.  Only the coverage
    recurs over T: with it the forward steps through T, and the backward
    carries just the coverage adjoint back through one reverse sweep of
    [B, S] arrays.

    The tanh features are [B, T, S, a], the one array of that size the op
    keeps: with gradients on, the forward builds them for all T steps at
    once and the VJP reads them.  Everything else of that size runs over
    runs of target steps of at most `ATTENTION_BLOCK` elements: the VJP's
    feature adjoints, and, under `no_grad`, the features themselves, which
    are then not kept.
    """
    fv, qv, sv = enc_feat.values, query.values, states.values
    cwv, vv, pv = cov_w.values, score_v.values, penalty.values
    cov0 = None if coverage is None else coverage.values
    if fv.ndim != 3 or qv.ndim != 3 or sv.ndim != 3:
        raise DimensionError("attention", fv.shape, qv.shape, sv.shape)
    bsz, src, dim = fv.shape
    steps, width = qv.shape[1], sv.shape[-1]
    shapes = (qv.shape, sv.shape[:2], cwv.shape, vv.shape, pv.shape)
    if shapes != ((bsz, steps, dim), (bsz, src), (dim,), (dim,), (bsz, src)) or (
        cov0 is not None and cov0.shape != (bsz, src)
    ):
        shown = (fv.shape, qv.shape, sv.shape, cwv.shape, vv.shape, pv.shape)
        raise DimensionError("attention", *shown, *(() if cov0 is None else (cov0.shape,)))
    cols = src + width + (0 if cov0 is None else src)
    out = np.empty((bsz, steps, cols), dtype=np.result_type(fv, qv))
    alpha = out[..., :src]
    started = None if cov0 is None else out[..., src + width :]
    cov = cov0
    blocks = [slice(0, steps)] if _grad_enabled else _step_blocks(bsz, steps, src, dim)
    for blk in blocks:
        feats = fv[:, None] + qv[:, blk, None]  # [B, t, S, a]; tanh is taken in place
        if cov0 is None:
            np.tanh(feats, out=feats)
            x = feats @ vv + pv[:, None]
            ex = np.exp(x - x.max(axis=-1, keepdims=True))
            np.divide(ex, ex.sum(axis=-1, keepdims=True), out=alpha[:, blk])
            continue
        for k, t in enumerate(range(blk.start, blk.stop)):
            started[:, t] = cov
            f = feats[:, k]
            f += cov[:, :, None] * cwv
            np.tanh(f, out=f)
            x = f @ vv + pv
            ex = np.exp(x - x.max(axis=-1, keepdims=True))
            np.divide(ex, ex.sum(axis=-1, keepdims=True), out=alpha[:, t])
            cov = cov + alpha[:, t]
    np.matmul(alpha, sv, out=out[..., src : src + width])

    def vjp(g):
        g_ctx = g[..., src : src + width]
        d_alpha = g[..., :src] + g_ctx @ sv.transpose(0, 2, 1)
        d_states = alpha.transpose(0, 2, 1) @ g_ctx
        if cov0 is None:
            d_scores = (d_alpha - (d_alpha * alpha).sum(axis=-1, keepdims=True)) * alpha
        else:
            g_started = g[..., src + width :]
            d_scores = np.empty_like(d_alpha)
            carry = np.zeros((bsz, src), dtype=g.dtype)  # adjoint of cov_{t+1}
        d_query = np.empty((bsz, steps, dim), dtype=np.result_type(d_scores, vv, feats))
        d_enc = d_cov_w = None
        # Last run first, so the coverage sweep goes back through T once.
        for blk in reversed(_step_blocks(bsz, steps, src, dim)):
            f = feats[:, blk]
            d_tanh = f * f
            np.subtract(1.0, d_tanh, out=d_tanh)
            if cov0 is not None:
                # How much a unit of coverage moves each score: the coverage
                # feature's path through tanh, summed over the attention width.
                slope = d_tanh @ (vv * cwv)  # [B, t, S]
                for k in range(blk.stop - blk.start - 1, -1, -1):
                    t = blk.start + k
                    a = alpha[:, t]
                    da = d_alpha[:, t] + carry
                    ds = (da - (da * a).sum(axis=-1, keepdims=True)) * a
                    d_scores[:, t] = ds
                    carry = carry + g_started[:, t] + ds * slope[:, k]
            d_feats = d_scores[:, blk, :, None] * vv
            d_feats *= d_tanh
            del d_tanh
            if cov0 is not None:
                d_cov_w = _plus(d_cov_w, d_feats.reshape(-1, dim).T @ started[:, blk].reshape(-1))
            d_enc = _plus(d_enc, d_feats.sum(axis=1))
            np.sum(d_feats, axis=2, out=d_query[:, blk])
        d_v = feats.reshape(-1, dim).T @ d_scores.reshape(-1)
        d_cov0 = None if cov0 is None else carry
        return d_enc, d_query, d_states, d_cov_w, d_v, d_scores.sum(axis=1), d_cov0

    parents = (enc_feat, query, states, cov_w, score_v, penalty)
    if coverage is not None:
        parents += (coverage,)
    return _record(out, "attention", parents, vjp)


def _plus(total: np.ndarray | None, part: np.ndarray) -> np.ndarray:
    """`part` added to a running sum (`part` itself when there is none yet)."""
    return part if total is None else total + part


# ---------------------------------------------------------------------------
# Backward pass


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node.op is not None and node._vjp is None:
            raise ContractError(
                f"backward: this graph's {node.op} node was consumed by an earlier "
                "backward; build the graph again"
            )
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order  # parents precede children; root is last


def backward(
    root: Tensor,
    wrt: Iterable[Tensor],
    into: Iterable[np.ndarray] | None = None,
) -> dict[Tensor, np.ndarray]:
    """Run reverse-mode accumulation from a scalar `root`.

    Returns a map from each `wrt` leaf, in `wrt` order, to its total
    adjoint.  Each adjoint is summed in its own array as the VJPs hand it
    over: the first contribution is copied in, later ones are added in
    place.  The arrays are `into`, one per `wrt` leaf and of its shape, or
    fresh arrays of each leaf's shape and dtype.  A `wrt` leaf the graph
    never reaches gets zeros, and a root that is itself a `wrt` leaf gets
    ones.  Leaves not in `wrt` are constants: their adjoints are dropped.
    Only leaves have adjoints here: a `wrt` entry with an op raises
    `ContractError`.

    The pass consumes the graph as it goes.  Once a node's VJP has run,
    the node drops its VJP and its parents, and the pass drops the node,
    so the arrays that VJP saved are freed before the next VJP runs (if
    nothing else holds them).  Every node keeps its values.  A second
    `backward` through a consumed node raises `ContractError`: rebuild the
    graph to differentiate it again.
    """
    if root.values.size != 1:
        raise ContractError(f"backward: root must be scalar, got shape {root.shape}")
    wrt = list(wrt)
    into = [np.empty(t.shape, t.values.dtype) for t in wrt] if into is None else list(into)
    if len(into) != len(wrt):
        raise ContractError(f"backward: {len(into)} arrays in `into` for {len(wrt)} leaves")
    slots: dict[int, np.ndarray] = {}
    for i, (leaf, out) in enumerate(zip(wrt, into)):
        if leaf.op is not None:
            raise ContractError(f"backward: wrt[{i}] is a {leaf.op} node, not a leaf")
        if id(leaf) in slots:
            j = next(j for j, t in enumerate(wrt) if t is leaf)
            raise ContractError(f"backward: wrt[{i}] repeats the leaf of wrt[{j}]")
        if out.shape != leaf.shape:
            raise ContractError(f"backward: into[{i}] has shape {out.shape}, its leaf {leaf.shape}")
        slots[id(leaf)] = out
    written: set[int] = set()

    def deposit(leaf: Tensor, g) -> None:
        # Add a leaf's adjoint to its array: the first one is copied.
        out = slots.get(id(leaf))
        if out is None:
            return
        if id(leaf) in written:
            out += g
        else:
            np.copyto(out, g)
            written.add(id(leaf))

    order = _toposort(root)
    adjoint: dict[int, np.ndarray] = {id(root): np.ones_like(root.values)}
    while order:
        node = order.pop()
        g = adjoint.pop(id(node), None)
        if node.op is None:  # only a root leaf: other leaves take no entry
            if g is not None:
                deposit(node, g)
            continue
        parents, vjp = node.parents, node._vjp
        node.parents, node._vjp = (), None
        if g is None:
            continue
        for parent, pg in zip(parents, vjp(g)):
            if pg is None:
                continue
            if parent.op is None:
                deposit(parent, pg)
                continue
            have = adjoint.get(id(parent))
            adjoint[id(parent)] = pg if have is None else have + pg
        pg = None  # a deposited adjoint is not kept through the next VJP
    for leaf, out in zip(wrt, into):
        if id(leaf) not in written:
            out.fill(0)
    return dict(zip(wrt, into))


# ---------------------------------------------------------------------------
# Finite-difference gradient checking


@dataclass
class GradCheckReport:
    """Outcome of comparing analytic gradients against central differences."""

    per_group: dict[str, float]
    max_rel_error: float
    worst: tuple[str, int] | None
    ties: tuple[str, ...] = ()
    excluded: dict[str, tuple[int, ...]] = field(default_factory=dict)
    step: float = 1e-5
    tolerance: float = 1e-4

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance

    def summary(self) -> str:
        lines = [
            f"gradient check: max rel error {self.max_rel_error:.3e} "
            f"(tolerance {self.tolerance:.1e}) -> {'PASS' if self.passed else 'FAIL'}"
        ]
        for name in sorted(self.per_group):
            mark = ""
            if name in self.excluded:
                mark = f"  [skipped {len(self.excluded[name])} tied coords]"
            lines.append(f"  {name}: {self.per_group[name]:.3e}{mark}")
        for note in self.ties:
            lines.append(f"  tie: {note}")
        return "\n".join(lines)


def _rel_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)


def gradient_check(
    build_loss: Callable[[Mapping[str, Tensor]], Tensor],
    params: Mapping[str, np.ndarray],
    step: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Compare backward() on a graph against central finite differences.

    `build_loss` receives a dict of float64 leaf tensors (one per entry of
    `params`, same keys) and must return a scalar loss tensor built from
    them.  The builder is re-run for every probe, so it must be
    deterministic.
    """
    leaves = {k: Tensor(np.array(v, dtype=np.float64)) for k, v in params.items()}
    grads = {k: np.empty(t.shape) for k, t in leaves.items()}

    def fill() -> float:
        root = build_loss(leaves)
        if np.isfinite(root.values).all():
            backward(root, wrt=leaves.values(), into=grads.values())
        return float(root.values)

    def loss_at() -> float:
        with no_grad():
            return float(build_loss(leaves).values)

    probes = {k: t.values for k, t in leaves.items()}
    return central_differences(fill, grads, leaves, loss_at, probes, step, tolerance)


def central_differences(
    fill: Callable[[], float],
    grads: Mapping[str, np.ndarray],
    leaves: Mapping[str, Tensor],
    loss_at: Callable[[], float],
    probes: Mapping[str, np.ndarray],
    step: float,
    tolerance: float,
) -> GradCheckReport:
    """The finite-difference loop of every gradient check.

    `fill()` returns the loss at the base point, reading the tensors
    `leaves`, and writes its gradient into `grads`.  `loss_at()` returns
    the loss, without a graph, at the point the float64 arrays `probes`
    hold; each of their coordinates is moved by +-`step` and restored.

    Exact ties inside `minimum` make the loss locally non-differentiable;
    tied coordinates that belong to checked leaves are excluded from the
    comparison and reported, ties elsewhere are reported only.
    """
    if not (0.0 < step <= 1e-2):
        raise ContractError(f"gradient_check: step must be in (0, 1e-2], got {step}")
    with record_ties() as tie_events:
        base = fill()
    if not math.isfinite(base):
        raise NumericError("gradient_check: loss is not finite at the base point")

    by_id = {id(t): k for k, t in leaves.items()}
    ties: list[str] = []
    excluded: dict[str, set[int]] = {}
    for ev in tie_events:
        sides = []
        for side in (ev.left, ev.right):
            name = by_id.get(id(side))
            sides.append(name or "<internal>")
            if name is not None and side.shape == ev.mask.shape:
                excluded.setdefault(name, set()).update(np.flatnonzero(ev.mask).tolist())
        ties.append(f"minimum tie between {sides[0]} and {sides[1]} at {int(ev.mask.sum())} coords")

    per_group: dict[str, float] = {}
    worst: tuple[str, int] | None = None
    worst_err = 0.0
    for name, arr in probes.items():
        skip = excluded.get(name, set())
        group_max = 0.0
        flat = arr.reshape(-1)  # a view: the probes move in place
        for i in range(flat.size):
            if i in skip:
                continue
            keep = flat[i]
            flat[i] = keep + step
            f_plus = loss_at()
            flat[i] = keep - step
            f_minus = loss_at()
            flat[i] = keep
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise NumericError(
                    f"gradient_check: loss not finite when perturbing {name}[{i}]"
                )
            numeric = (f_plus - f_minus) / (2.0 * step)
            err = _rel_error(float(grads[name].flat[i]), numeric)
            if err > group_max:
                group_max = err
            if err > worst_err:
                worst_err = err
                worst = (name, i)
        per_group[name] = group_max

    return GradCheckReport(
        per_group=per_group,
        max_rel_error=worst_err,
        worst=worst,
        ties=tuple(ties),
        excluded={k: tuple(sorted(v)) for k, v in excluded.items()},
        step=step,
        tolerance=tolerance,
    )
