"""Reverse-mode automatic differentiation over dense numpy arrays.

The graph is built eagerly: every operation returns a fresh :class:`Tensor`
holding its forward value plus an op record (operation name, parent tensors,
and a closure mapping the output adjoint to parent adjoints).  Leaves carry
no record.  :func:`backward` walks the graph once in reverse topological
order and returns the total adjoint of every leaf it reaches.

Conventions that the rest of the package relies on:

* float64 values by default; float32 works but leaves less headroom for
  gradient checks.
* Graphs are rebuilt from scratch every step.  ``backward`` returns fresh
  adjoints and stores nothing on the tensors, so nothing accumulates.
* Elementwise operations follow numpy broadcasting; the adjoint of a
  broadcast input is summed back down to its original shape.
* ``minimum`` routes the full adjoint to its first argument on exact ties.
* ``log`` clamps its input to ``LOG_FLOOR`` (1e-12) so probabilities that
  underflow to exact zero stay finite; at or below the floor the local
  derivative uses the clamped value.
* ``softmax`` subtracts the running maximum before exponentiating, so large
  negative mask penalties underflow to exact zeros instead of producing NaN.

Inside :func:`no_grad` the operators return plain leaves and skip building
adjoint closures entirely; the finite-difference probe loop leans on that.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

LOG_FLOOR = 1e-12

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

    # Operator sugar.  Scalars multiply through `scale`; everything else
    # requires an explicit Tensor so shapes stay visible at call sites.
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return subtract(self, other)

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return multiply(self, other)
        return scale(self, float(other))

    def __rmul__(self, other) -> "Tensor":
        return scale(self, float(other))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __neg__(self) -> "Tensor":
        return scale(self, -1.0)


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
    if not _grad_enabled:
        return Tensor(out)

    def vjp(g):
        return _unbroadcast(g, a.values.shape), _unbroadcast(g, b.values.shape)

    return Tensor(out, op="add", parents=(a, b), vjp=vjp)


def subtract(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.values - b.values
    except ValueError:
        raise DimensionError("subtract", a.shape, b.shape) from None
    if not _grad_enabled:
        return Tensor(out)

    def vjp(g):
        return _unbroadcast(g, a.values.shape), _unbroadcast(-g, b.values.shape)

    return Tensor(out, op="subtract", parents=(a, b), vjp=vjp)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    try:
        out = av * bv
    except ValueError:
        raise DimensionError("multiply", a.shape, b.shape) from None
    if not _grad_enabled:
        return Tensor(out)

    def vjp(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return Tensor(out, op="multiply", parents=(a, b), vjp=vjp)


def scale(a: Tensor, scalar: float) -> Tensor:
    s = float(scalar)
    out = a.values * s
    if not _grad_enabled:
        return Tensor(out)

    def vjp(g):
        return (g * s,)

    return Tensor(out, op="scale", parents=(a,), vjp=vjp)


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
    if not _grad_enabled:
        return Tensor(out)

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

    return Tensor(out, op="matmul", parents=(a, b), vjp=vjp)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    if not parts:
        raise ContractError("concat: need at least one part")
    try:
        out = np.concatenate([p.values for p in parts], axis=-1)
    except ValueError:
        raise DimensionError("concat", *(p.shape for p in parts)) from None
    if not _grad_enabled:
        return Tensor(out)
    splits = np.cumsum([p.values.shape[-1] for p in parts])[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=-1))

    return Tensor(out, op="concat", parents=tuple(parts), vjp=vjp)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    try:
        out = a.values.reshape(shape)  # numpy handles a single -1 wildcard
    except ValueError:
        raise DimensionError("reshape", a.shape, shape) from None
    if not _grad_enabled:
        return Tensor(out)
    src_shape = a.values.shape

    def vjp(g):
        return (g.reshape(src_shape),)

    return Tensor(out, op="reshape", parents=(a,), vjp=vjp)


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
    if not _grad_enabled:
        return Tensor(out)
    src_shape = a.values.shape

    def vjp(g):
        da = np.zeros(src_shape, dtype=g.dtype)
        da[key] = g
        return (da,)

    return Tensor(out, op="getitem", parents=(a,), vjp=vjp)


# ---------------------------------------------------------------------------
# Nonlinearities


def sigmoid(a: Tensor) -> Tensor:
    x = a.values
    # exp of a non-positive number never overflows, so branch on the sign.
    ex = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
    if not _grad_enabled:
        return Tensor(out)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return Tensor(out, op="sigmoid", parents=(a,), vjp=vjp)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.values)
    if not _grad_enabled:
        return Tensor(out)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return Tensor(out, op="tanh", parents=(a,), vjp=vjp)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, max-shifted for stability."""
    x = a.values
    if x.ndim == 0:
        raise DimensionError("softmax", x.shape)
    ex = np.exp(x - x.max(axis=-1, keepdims=True))
    out = ex / ex.sum(axis=-1, keepdims=True)
    if not _grad_enabled:
        return Tensor(out)

    def vjp(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return ((g - inner) * out,)

    return Tensor(out, op="softmax", parents=(a,), vjp=vjp)


def log(a: Tensor) -> Tensor:
    """Natural log with the input clamped to at least LOG_FLOOR."""
    x = a.values
    clamped = np.maximum(x, LOG_FLOOR)
    out = np.log(clamped)
    if not _grad_enabled:
        return Tensor(out)
    above = x >= LOG_FLOOR

    def vjp(g):
        return (np.where(above, g / clamped, 0.0),)

    return Tensor(out, op="log", parents=(a,), vjp=vjp)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; exact ties send the whole adjoint to `a`."""
    av, bv = a.values, b.values
    try:
        take_a = av <= bv
    except ValueError:
        raise DimensionError("minimum", a.shape, b.shape) from None
    out = np.where(take_a, av, bv)
    if not _grad_enabled:
        return Tensor(out)
    if _tie_log is not None:
        tied = av == bv
        if np.any(tied):
            _tie_log.append(TieEvent(a, b, np.broadcast_to(tied, out.shape).copy()))

    def vjp(g):
        return (
            _unbroadcast(np.where(take_a, g, 0.0), av.shape),
            _unbroadcast(np.where(take_a, 0.0, g), bv.shape),
        )

    return Tensor(out, op="minimum", parents=(a, b), vjp=vjp)


# ---------------------------------------------------------------------------
# Reductions and indexed access


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    out = np.asarray(a.values.sum(axis=axis))
    if not _grad_enabled:
        return Tensor(out)
    shape = a.values.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape),)

    return Tensor(out, op="reduce_sum", parents=(a,), vjp=vjp)


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
    if not _grad_enabled:
        return Tensor(out)
    src_shape = a.values.shape

    def vjp(g):
        da = np.zeros(src_shape, dtype=g.dtype)
        np.add.at(da, idx, g)
        return (da,)

    return Tensor(out, op="gather", parents=(a,), vjp=vjp)


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
    if not _grad_enabled:
        return Tensor(out)
    src_shape = a.values.shape

    def vjp(g):
        g_flat = g.reshape(-1, size)
        da = np.take_along_axis(g_flat, flat_idx, axis=1)
        return (da.reshape(src_shape),)

    return Tensor(out, op="scatter_add", parents=(a,), vjp=vjp)


# ---------------------------------------------------------------------------
# Recurrence


def lstm(
    x: Tensor,
    w: Tensor,
    u: Tensor,
    b: Tensor,
    h0: Tensor,
    c0: Tensor,
    keep: np.ndarray | None = None,
    reverse: bool = False,
) -> Tensor:
    """Run an LSTM over every step of `x` [B, T, in] as one tape node.

    `w` [in, 4h], `u` [h, 4h] and `b` [4h] hold the four gates side by side
    in (input, forget, cell, output) order; `h0` and `c0` [B, h] are the
    start states.  Each step computes

        z = x_t w + b + h u,  i, f, o = sigmoid(z_i, z_f, z_o),  g = tanh(z_g),
        c = f * c + i * g,    h = o * tanh(c)

    and where the constant 0/1 mask `keep` [B, T] is 0 the row's h and c
    stay exactly as they were, so a row's last state belongs to its last
    real step.  `reverse` runs t from T-1 down to 0.

    Returns [B, T, 2h]: the state after each step, h in the first half of
    the last axis and c in the second.  The input projection of all steps
    is one matmul.  The backward pass is one reverse sweep that keeps each
    step's gate adjoints, then forms the gradients of `x`, `w`, `u` and `b`
    with one product each over all B*T rows; `keep` gets no adjoint.
    """
    xv, wv, uv, bv = x.values, w.values, u.values, b.values
    h0v, c0v = h0.values, c0.values
    if xv.ndim != 3:
        raise DimensionError("lstm", xv.shape)
    bsz, steps, in_dim = xv.shape
    hid = uv.shape[0]
    expected = ((in_dim, 4 * hid), (hid, 4 * hid), (4 * hid,), (bsz, hid), (bsz, hid))
    if (wv.shape, uv.shape, bv.shape, h0v.shape, c0v.shape) != expected:
        raise DimensionError("lstm", xv.shape, wv.shape, uv.shape, bv.shape, h0v.shape, c0v.shape)
    frozen = [False] * steps  # steps where some row holds its state
    if keep is not None:
        if keep.shape != (bsz, steps):
            raise DimensionError("lstm", xv.shape, keep.shape)
        hold = keep == 0
        frozen = hold.any(axis=0).tolist()
    rows = bsz * steps
    proj = xv.reshape(rows, in_dim) @ wv + bv
    # sigmoid(z) = (1 + tanh(z / 2)) / 2, so one tanh serves all four gates:
    # halve the i, f, o pre-activations (exact in binary floating point),
    # then map those gates from [-1, 1] onto [0, 1].
    half = np.full(4 * hid, 0.5, dtype=proj.dtype)
    half[2 * hid : 3 * hid] = 1.0
    shift = half.copy()
    shift[2 * hid : 3 * hid] = 0.0
    proj = (proj * half).reshape(bsz, steps, 4 * hid)
    u_half = uv * half
    acts = np.empty_like(proj)  # gate activations i, f, g, o of every step
    out = np.empty((bsz, steps, 2 * hid), dtype=proj.dtype)
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    h, c = h0v, c0v
    for t in order:
        a = acts[:, t]
        np.tanh(proj[:, t] + h @ u_half, out=a)
        a *= half
        a += shift
        h_new, c_new = out[:, t, :hid], out[:, t, hid:]
        np.multiply(a[:, hid : 2 * hid], c, out=c_new)
        c_new += a[:, :hid] * a[:, 2 * hid : 3 * hid]
        np.tanh(c_new, out=h_new)
        h_new *= a[:, 3 * hid :]
        if frozen[t]:
            np.copyto(h_new, h, where=hold[:, t, None])
            np.copyto(c_new, c, where=hold[:, t, None])
        h, c = h_new, c_new
    if not _grad_enabled:
        return Tensor(out)

    def vjp(g):
        gates = acts.reshape(bsz, steps, 4, hid)
        i, f, cell, o = (gates[:, :, k] for k in range(4))
        h_out, c_out = out[..., :hid], out[..., hid:]
        # The state each step started from, in the same [B, T, h] layout.
        if reverse:
            h_in = np.concatenate([h_out[:, 1:], h0v[:, None]], axis=1)
            c_in = np.concatenate([c_out[:, 1:], c0v[:, None]], axis=1)
        else:
            h_in = np.concatenate([h0v[:, None], h_out[:, :-1]], axis=1)
            c_in = np.concatenate([c0v[:, None], c_out[:, :-1]], axis=1)
        # On a frozen step c_out is the old state, not the step's own cell,
        # but that step's adjoints are zero, so the value never counts.
        tanh_c = np.tanh(c_out)
        dc_per_dh = o * (1.0 - tanh_c * tanh_c)
        # Pre-activation adjoints of the i, f, g gates per unit adjoint of
        # the step's cell, and of the o gate per unit adjoint of its h.
        per_dc = np.stack(
            [cell * i * (1.0 - i), c_in * f * (1.0 - f), i * (1.0 - cell * cell)], axis=2
        )
        per_dh = tanh_c * o * (1.0 - o)
        dz = np.empty((bsz, steps, 4, hid), dtype=g.dtype)
        dh = np.zeros((bsz, hid), dtype=g.dtype)
        dc = np.zeros((bsz, hid), dtype=g.dtype)
        ut = uv.T
        for t in reversed(order):
            dh = dh + g[:, t, :hid]
            dc = dc + g[:, t, hid:]
            if frozen[t]:
                k = hold[:, t, None]
                dh_held, dc_held = np.where(k, dh, 0.0), np.where(k, dc, 0.0)
                dh, dc = np.where(k, 0.0, dh), np.where(k, 0.0, dc)
            dc = dc + dh * dc_per_dh[:, t]
            np.multiply(per_dc[:, t], dc[:, None], out=dz[:, t, :3])
            np.multiply(per_dh[:, t], dh, out=dz[:, t, 3])
            dh = dz[:, t].reshape(bsz, 4 * hid) @ ut
            dc = dc * f[:, t]
            if frozen[t]:
                dh = dh + dh_held
                dc = dc + dc_held
        dz2 = dz.reshape(rows, 4 * hid)
        dx = (dz2 @ wv.T).reshape(xv.shape)
        dw = xv.reshape(rows, in_dim).T @ dz2
        du = h_in.reshape(rows, hid).T @ dz2
        return dx, dw, du, dz2.sum(axis=0), dh, dc

    return Tensor(out, op="lstm", parents=(x, w, u, b, h0, c0), vjp=vjp)


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
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order  # parents precede children; root is last


def backward(root: Tensor, wrt: Iterable[Tensor] | None = None) -> dict[Tensor, np.ndarray]:
    """Run reverse-mode accumulation from a scalar `root`.

    Returns a map from every reachable leaf to its total adjoint.  Leaves
    listed in `wrt` that the graph never touches come back as zeros.
    """
    if root.values.size != 1:
        raise ContractError(f"backward: root must be scalar, got shape {root.shape}")
    order = _toposort(root)
    adjoint: dict[int, np.ndarray] = {id(root): np.ones_like(root.values)}
    leaves: dict[Tensor, np.ndarray] = {}
    for node in reversed(order):
        g = adjoint.pop(id(node), None)
        if g is None:
            continue
        if node.op is None:
            g = np.asarray(g)
            prev = leaves.get(node)
            leaves[node] = g if prev is None else prev + g
            continue
        for parent, pg in zip(node.parents, node._vjp(g)):
            if pg is None:
                continue
            have = adjoint.get(id(parent))
            adjoint[id(parent)] = pg if have is None else have + pg
    if wrt is not None:
        for leaf in wrt:
            if leaf not in leaves:
                leaves[leaf] = np.zeros_like(leaf.values)
    return leaves


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
    dtype=np.float64,
) -> GradCheckReport:
    """Compare backward() against central finite differences.

    `build_loss` receives a dict of leaf tensors (one per entry of `params`,
    same keys) and must return a scalar loss tensor built from them.  The
    builder is re-run for every probe, so it must be deterministic.

    `dtype` sets the precision of the forward/backward pass under test; the
    finite-difference probes always run in float64, because a float32 loss
    value cannot resolve the small differences central differences need.
    A float32 backward pass therefore measures what reduced precision costs
    relative to the float64 oracle — expect roughly 1e-3 relative error
    instead of 1e-6, and relax the tolerance accordingly.

    Exact ties inside `minimum` make the loss locally non-differentiable;
    tied coordinates that belong to checked parameters are excluded from the
    comparison and reported, ties elsewhere are reported only.
    """
    if not (0.0 < step <= 1e-2):
        raise ContractError(f"gradient_check: step must be in (0, 1e-2], got {step}")
    arrays = {k: np.array(v, dtype=np.float64) for k, v in params.items()}

    leaves = {k: Tensor(v.astype(dtype)) for k, v in arrays.items()}
    with record_ties() as tie_events:
        root = build_loss(leaves)
    if not np.isfinite(root.values).all():
        raise NumericError("gradient_check: loss is not finite at the base point")
    grads = backward(root, wrt=leaves.values())
    analytic = {k: grads[t] for k, t in leaves.items()}

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

    def loss_at() -> float:
        with no_grad():
            probe = {k: Tensor(v) for k, v in arrays.items()}
            return float(build_loss(probe).values)

    per_group: dict[str, float] = {}
    worst: tuple[str, int] | None = None
    worst_err = 0.0
    for name, arr in arrays.items():
        skip = excluded.get(name, set())
        group_max = 0.0
        flat = arr.ravel()
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
            err = _rel_error(float(analytic[name].ravel()[i]), numeric)
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
