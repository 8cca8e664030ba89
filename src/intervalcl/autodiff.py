"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float64 ndarray and records the operation that produced
it; ``Tensor(value)`` makes a leaf, and every Tensor takes a gradient.
Calling :meth:`Tensor.backward` on a scalar output walks the graph once in
reverse topological order and accumulates gradients into every leaf.

Constants stay plain ndarrays (or Python scalars) and never enter the tape.
Every op computes its value from its operands' payloads and hands it to
``_node(value, operands, *forms)``, one form per operand: ``forms[i](grad)``
is the gradient for ``operands[i]``. ``_node`` is the one place that decides
what comes out: with no Tensor among the operands, the value itself; else a
node whose parents are the Tensor operands, each with its form. So the
helpers (``relu``, ``sigmoid``, ``sqrt``, ``absolute``, ``mean``,
``linear``, ...) take either kind and return the same kind, and layer math
written against them runs on the tape during training and on raw arrays
during evaluation without a second implementation.

The op set is deliberately small: exactly what dense/conv interval
networks, their losses, and gradient-based attacks need, and nothing else:

- arithmetic: ``+``, ``-``, ``*``, ``/`` and the dense node ``linear``;
- elementwise: ``absolute``, ``relu``, ``sigmoid``, ``sqrt``;
- reductions: ``sum`` and ``mean``;
- shape: ``reshape``, the parameter-slot read ``slot``, the row stack
  ``append_row``, and the sliding-window gather ``sliding_windows`` that
  average pooling reads;
- convolution: ``conv2d``, one node over a C-contiguous window gather, a
  patch matmul and an optional bias;
- pooling: ``window_max``, max pooling as one running maximum over
  strided views, with first-tie routing in its backward;
- loss: ``softmax_cross_entropy``, the batch mean against (B, K) target
  rows that ``onehot`` builds from labels (``softmax`` itself takes arrays
  only: no loss differentiates through it).
"""

from __future__ import annotations

import functools
import math

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _add_into_zeros(shape, key, grad) -> np.ndarray:
    """Zeros of ``shape`` with ``grad`` added at the slice ``key`` of their
    C-order ravel."""
    gx = np.zeros(shape)
    gx.reshape(-1)[key] += grad
    return gx


def payload(x):
    """The array under ``x``: a Tensor's value, else ``x`` itself."""
    return x.value if isinstance(x, Tensor) else x


def _node(value, operands, *forms):
    """``value`` as a tape node over the Tensor ``operands``, or as itself.

    ``forms[i](grad)`` is the gradient for ``operands[i]``. With no Tensor
    operand the op is untaped and ``value`` comes back as it is; otherwise
    the node's parents are the Tensor operands, each with its form, and
    every other operand is a constant the tape never sees. Forms read arrays
    captured at the forward pass (leaf arrays by reference): run backward
    before an optimizer step.
    """
    for op in operands:
        if isinstance(op, Tensor):
            break
    else:
        return value
    parents, taped_forms = [], []
    for op, form in zip(operands, forms):
        if isinstance(op, Tensor):
            parents.append(op)
            taped_forms.append(form)
    out = Tensor(value)
    out._parents, out._forms = tuple(parents), tuple(taped_forms)
    return out


def _add(x, y):
    a, b = payload(x), payload(y)
    return _node(a + b, (x, y),
                 lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(g, b.shape))


def _mul(x, y):
    a, b = payload(x), payload(y)
    return _node(a * b, (x, y),
                 lambda g: _unbroadcast(g * b, a.shape),
                 lambda g: _unbroadcast(g * a, b.shape))


def _sub(x, y):
    # Bitwise ``x + (-y)``: negation commutes with rounded sums.
    a, b = payload(x), payload(y)
    return _node(a - b, (x, y),
                 lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(-g, b.shape))


def _div(x, y):
    a, b = payload(x), payload(y)
    return _node(a / b, (x, y),
                 lambda g: _unbroadcast(g / b, a.shape),
                 lambda g: _unbroadcast(-g * a / (b * b), b.shape))


# ---- elementwise helpers (Tensor or ndarray in, same kind out) ----------


def absolute(x):
    v = payload(x)
    # Subgradient 0 at the kink: np.sign(0) == 0.
    return _node(np.abs(v), (x,), lambda g: g * np.sign(v))


def relu(x):
    v = payload(x)
    # Subgradient 0 at the kink.
    return _node(np.maximum(v, 0.0), (x,), lambda g: g * (v > 0.0))


def sigmoid(x):
    s = 1.0 / (1.0 + np.exp(-payload(x)))
    return _node(s, (x,), lambda g: g * s * (1.0 - s))


def sqrt(x):
    r = np.sqrt(payload(x))
    return _node(r, (x,), lambda g: g / (2.0 * r))


class Tensor:
    """Node in the differentiation graph: ``Tensor(value)`` makes a leaf.

    Attributes:
        value: the float64 ndarray payload.
        grad: accumulated gradient, same shape as ``value``; ``None`` until a
            backward pass reaches this leaf.
    """

    # Keep numpy from intercepting mixed ndarray/Tensor arithmetic so that
    # ``ndarray + Tensor`` dispatches to Tensor.__radd__.
    __array_ufunc__ = None
    __slots__ = ("value", "grad", "_parents", "_forms")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = ()
        self._forms = ()

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        flag = "node" if self._parents else "leaf"
        return f"Tensor({flag}, shape={self.value.shape})"

    # ---- arithmetic ------------------------------------------------------

    __add__ = __radd__ = _add
    __mul__ = __rmul__ = _mul
    __sub__ = _sub
    __truediv__ = _div

    def __rsub__(self, other):
        return _sub(other, self)

    def __rtruediv__(self, other):
        return _div(other, self)

    # ---- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        shape = self.value.shape
        expand = axis is not None and not keepdims
        return _node(self.value.sum(axis=axis, keepdims=keepdims), (self,),
                     lambda g: np.broadcast_to(
                         np.expand_dims(g, axis) if expand else g, shape).copy())

    # ---- shape ops -------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.value.shape
        return _node(self.value.reshape(shape), (self,), lambda g: g.reshape(orig))

    # ---- backward --------------------------------------------------------

    def backward(self):
        """Accumulate gradients of this scalar into every reachable leaf.

        Raises:
            ValueError: if the output is not a scalar (size 1).
        """
        if self.value.size != 1:
            raise ValueError(
                f"backward requires a scalar output, got shape {self.value.shape}")
        order = topological_order(self)
        grads = {id(self): np.ones_like(self.value)}
        # Reverse topological order: every child has passed its gradient
        # on before a node is reached.
        for node in reversed(order):
            grad = grads.pop(id(node))
            if not node._parents:
                node.grad = grad if node.grad is None else node.grad + grad
                continue
            for parent, form in zip(node._parents, node._forms):
                pgrad = form(grad)
                seen = grads.get(id(parent))
                grads[id(parent)] = pgrad if seen is None else seen + pgrad


def topological_order(root: Tensor) -> list[Tensor]:
    """Parents-before-children ordering of the graph below ``root``.

    Iterative DFS; traversal follows the stored parent tuples, so the order
    (and with it the floating-point accumulation order in backward) is
    reproducible run to run. Constants are not on the tape, so every node
    the walk meets takes a gradient.
    """
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def slot(flat, offset: int, shape):
    """``flat.reshape(-1)[offset:offset + size].reshape(shape)`` in one op.

    Reads one parameter slot out of a flat vector, or a run of elements out
    of a block read in C order (one or more whole rows of a generated
    weight block): on a contiguous ndarray a view (no copy), on a Tensor one
    node whose backward writes the gradient into zeros of ``flat``'s shape.
    """
    vec = payload(flat)
    key = slice(offset, offset + math.prod(shape))
    return _node(vec.reshape(-1)[key].reshape(shape), (flat,),
                 lambda g: _add_into_zeros(vec.shape, key, g.reshape(-1)))


def append_row(block, row):
    """``block`` (k, n) with ``row`` (n,) stacked under it as row k, in one op.

    On the tape each operand's gradient is its own rows of the output's:
    a constant block (frozen task embeddings) stays off the tape while a
    Tensor row (the live one) takes the last row's gradient.
    """
    rows, vec = payload(block), payload(row)
    if np.ndim(rows) != 2 or np.shape(vec) != (np.shape(rows)[1],):
        raise ValueError(f"cannot append a row of shape {np.shape(vec)} "
                         f"to a block of shape {np.shape(rows)}")
    return _node(np.concatenate((rows, vec[None])), (block, row),
                 lambda g: g[:-1], lambda g: g[-1])


def zero_grads(leaves) -> None:
    for leaf in leaves:
        leaf.grad = None


def mean(x, axis=None, keepdims=False):
    """Mean over ``axis`` (None, an int or a tuple) as ``sum * (1 / n)``.

    Taped and untaped passes round the same way, so a Tensor and an ndarray
    of the same numbers give bitwise equal means (``np.mean`` divides by
    ``n`` instead, which can differ in the last bit).
    """
    shape = np.shape(x)
    axes = (range(len(shape)) if axis is None
            else axis if isinstance(axis, tuple) else (axis,))
    n = int(np.prod([shape[a] for a in axes]))
    if n == 0:
        raise ValueError(f"mean over zero elements of shape {shape}")
    return x.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def linear(x, w, b=None):
    """Dense layer ``x @ w.T (+ b)``: one tape node, or plain numpy on arrays.

    ``x`` is (B, in), ``w`` is (out, in), the optional ``b`` is (out,). If
    any operand is a Tensor the result is one node over the Tensor operands.
    The weight gradient ``grad.T @ x`` is C-ordered; it matched the
    ``(x.T @ grad).T`` of a matmul -> transpose chain bitwise on 3000 random
    shapes (B from 1 to 64, widths up to 128; OpenBLAS 0.3.31).
    """
    xv, wv = payload(x), payload(w)
    out = xv @ wv.T
    if b is None:
        return _node(out, (x, w), lambda g: g @ wv, lambda g: g.T @ xv)
    out += payload(b)
    return _node(out, (x, w, b),
                 lambda g: g @ wv, lambda g: g.T @ xv, lambda g: g.sum(axis=0))


def _window_grid(shape, kh, kw, sh, sw) -> tuple[int, int]:
    """Output height and width of (kh, kw) windows at stride (sh, sw) over
    an NHWC ``shape`` with valid padding; refuses what does not fit."""
    if len(shape) != 4:
        raise ValueError(f"expected NHWC input, got shape {shape}")
    if kh < 1 or kw < 1 or sh < 1 or sw < 1:
        raise ValueError(f"window {kh}x{kw} and stride {sh}x{sw} must be positive")
    height, width = shape[1:3]
    if kh > height or kw > width:
        raise ValueError(
            f"window {kh}x{kw} does not fit input {height}x{width}")
    return (height - kh) // sh + 1, (width - kw) // sw + 1


def _scatter_windows(grad, shape, sh, sw) -> np.ndarray:
    """Sum (B, OH, OW, kh, kw, C) window gradients onto an input of ``shape``.

    One strided add per kernel position, batch-inner: the gradient is laid
    out once as (kh, kw, OH, OW, C, B) and added into an (H, W, C, B)
    buffer, so each add's inner loop runs over C * B contiguous entries.
    Descending (i, j) adds each input position's contributions in ascending
    window order, the order a per-element scatter (np.add.at) sums them in.
    """
    _, oh, ow, kh, kw, _ = grad.shape
    per_position = np.ascontiguousarray(grad.transpose(3, 4, 1, 2, 5, 0))
    gx = np.zeros(shape[1:] + shape[:1])
    row_end, col_end = sh * (oh - 1) + 1, sw * (ow - 1) + 1
    for i in range(kh - 1, -1, -1):
        for j in range(kw - 1, -1, -1):
            gx[i:i + row_end:sh, j:j + col_end:sw] += per_position[i, j]
    return gx.transpose(3, 0, 1, 2)


@functools.lru_cache(maxsize=64)
def _window_index(width, oh, ow, kh, kw, sh, sw) -> np.ndarray:
    """Read-only (OH, OW, kh, kw) index of every window entry into an input
    plane flattened row-major to H * W positions."""
    rows = (np.arange(oh) * sh)[:, None, None, None] + np.arange(kh)[None, None, :, None]
    cols = (np.arange(ow) * sw)[None, :, None, None] + np.arange(kw)[None, None, None, :]
    index = rows * width + cols
    index.setflags(write=False)
    return index


def _gather_windows(val, kh, kw, sh, sw) -> np.ndarray:
    """The (kh, kw) windows of an NHWC array at stride (sh, sw), valid padding,
    as a C-contiguous (B, OH, OW, kh, kw, C) array.

    One ``np.take`` over the flattened H * W axis: a fancy index on the H and
    W axes gives the same values laid out batch-innermost, so folding them
    into im2col rows would copy them all a second time.
    """
    oh, ow = _window_grid(np.shape(val), kh, kw, sh, sw)
    batch, height, width, channels = val.shape
    index = _window_index(width, oh, ow, kh, kw, sh, sw)
    return np.take(val.reshape(batch, height * width, channels), index, axis=1)


def sliding_windows(x, kh, kw, sh, sw):
    """Gather the (kh, kw) windows of an NHWC batch with valid padding.

    Input (B, H, W, C) becomes (B, OH, OW, kh*kw, C): axis 3 runs over the
    kernel positions row-major. Average pooling reads it; convolution
    gathers inside :func:`conv2d`. On the tape, backward scatters each
    window's gradient back onto the input positions it read, summing where
    windows overlap.
    """
    val = payload(x)
    windows = _gather_windows(val, kh, kw, sh, sw)
    batch, oh, ow, _, _, channels = windows.shape
    return _node(windows.reshape(batch, oh, ow, kh * kw, channels), (x,),
                 lambda g: _scatter_windows(g.reshape(windows.shape), val.shape, sh, sw))


def conv2d(x, kernel, stride: int, bias=None):
    """Valid-padding NHWC convolution (plus ``bias``) as one patch matmul: one
    tape node, or plain numpy on arrays.

    ``x`` is (B, H, W, c_in), ``kernel`` (kh, kw, c_in, c_out), the optional
    ``bias`` (c_out,). The gathered windows fold into im2col rows (kernel
    position major, channel minor) without a copy. The gradients are those
    of the gather -> reshape -> matmul -> reshape (-> add) chain, bitwise:
    the input's is the window scatter of ``g @ Kᵀ``, the kernel's ``rowsᵀ @
    g``, the bias's ``g`` summed over batch, height and width.
    """
    xv, kv = payload(x), payload(kernel)
    kh, kw, c_in, c_out = np.shape(kv)
    windows = _gather_windows(xv, kh, kw, stride, stride)
    if windows.shape[-1] != c_in:
        raise ValueError(f"input {xv.shape} does not match kernel channels {c_in}")
    batch, oh, ow = windows.shape[:3]
    rows = windows.reshape(batch * oh * ow, kh * kw * c_in)
    kflat = kv.reshape(kh * kw * c_in, c_out)
    out = (rows @ kflat).reshape(batch, oh, ow, c_out)

    def input_form(g):
        patches = g.reshape(len(rows), c_out) @ kflat.T
        return _scatter_windows(patches.reshape(windows.shape), xv.shape, stride, stride)

    def kernel_form(g):
        return (rows.T @ g.reshape(len(rows), c_out)).reshape(kv.shape)

    if bias is None:
        return _node(out, (x, kernel), input_form, kernel_form)
    out += payload(bias)
    return _node(out, (x, kernel, bias), input_form, kernel_form,
                 lambda g: g.sum(axis=(0, 1, 2)))


def _route_window_max(grad, val, out, keys, disjoint) -> np.ndarray:
    """Input gradient of :func:`window_max`: each output's gradient goes to
    the first kernel position, row-major, whose input equals the output (a
    NaN output routes nowhere). Overlapping windows add their parts in the
    descending (i, j) order of :func:`_scatter_windows`, so they sum alike;
    ``disjoint`` windows (stride at least the window) write each part once
    as ``part + 0.0``, the bits an add onto zeros gives (-0.0 turns +0.0)."""
    unrouted = np.ones(out.shape, dtype=bool)
    hits = []
    for key in keys:
        hit = val[key] == out
        hit &= unrouted
        unrouted ^= hit
        hits.append(hit)
    gx = np.zeros(val.shape)
    if disjoint:
        for key, hit in zip(keys, hits):
            np.add(np.where(hit, grad, 0.0), 0.0, out=gx[key])
        return gx
    for key, hit in zip(reversed(keys), reversed(hits)):
        gx[key] += np.where(hit, grad, 0.0)
    return gx


def window_max(x, window: int, stride: int):
    """Max over each (window, window) patch of an NHWC batch, per channel.

    Input (B, H, W, C) becomes (B, OH, OW, C) with valid padding, refused
    where ``sliding_windows`` refuses it. The value is a running maximum
    over one strided view per kernel position, row-major, that keeps the
    earlier entry on a tie; backward routes each gradient to that entry.
    """
    val = payload(x)
    oh, ow = _window_grid(np.shape(val), window, window, stride, stride)
    row_end, col_end = stride * (oh - 1) + 1, stride * (ow - 1) + 1
    keys = [(slice(None), slice(i, i + row_end, stride), slice(j, j + col_end, stride))
            for i in range(window) for j in range(window)]
    views = [val[key] for key in keys]
    # maximum(a, b) returns b when a == b: the earlier entry wins ties.
    out = np.maximum(views[1], views[0]) if window > 1 else views[0].copy()
    for view in views[2:]:
        np.maximum(view, out, out=out)
    return _node(out, (x,),
                 lambda g: _route_window_max(g, val, out, keys, stride >= window))


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax of an ndarray along its last axis; it has no tape node."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def check_labels(labels, batch: int, classes: int) -> np.ndarray:
    """``labels`` as an array, refused unless it is (batch,) integers in
    [0, classes)."""
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got {labels.dtype}")
    if labels.shape != (batch,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {batch}")
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        bad = labels[(labels < 0) | (labels >= classes)][0]
        raise ValueError(f"label out of range for logit width: label {bad} "
                         f"outside [0, {classes})")
    return labels


def onehot(labels, classes: int) -> np.ndarray:
    """(B, classes) float64 rows with a 1.0 at each label, refused unless
    ``labels`` is a 1-d integer array of values in [0, classes)."""
    labels = check_labels(labels, np.size(labels), classes)
    rows = np.zeros((labels.size, classes))
    rows[np.arange(labels.size), labels] = 1.0
    return rows


def softmax_cross_entropy(logits, targets):
    """Batch mean of the cross-entropy of softmax(logits) against target rows.

    ``logits`` is a (B, K) Tensor or ndarray, ``targets`` a non-negative
    (B, K) array. With ``mass_i`` the row sum, sample i scores
    ``mass_i * logsumexp(z_i) - t_i . z_i``: a one-hot row gives the
    hard-label loss, a row ``lam * a + (1 - lam) * b`` MixUp's loss. The
    gradient is ``(mass * softmax - t) / B``.
    """
    val = payload(logits)
    targets = np.asarray(targets, dtype=np.float64)
    if val.ndim != 2 or targets.shape != val.shape:
        raise ValueError(f"targets shaped {targets.shape} for logits shaped "
                         f"{val.shape}; need equal (batch, classes) shapes")
    batch = val.shape[0]
    if batch == 0:
        raise ValueError("mean cross-entropy over an empty batch")
    # Written so that NaN fails the check.
    if not targets.min() >= 0.0:
        raise ValueError("cross-entropy targets must be non-negative")
    # The max over a class-major copy runs along contiguous rows.
    top = np.ascontiguousarray(val.T).max(axis=0)[:, None]
    exp = np.exp(val - top)
    total = exp.sum(axis=1, keepdims=True)
    # einsum: a third of sum(axis=1)'s time on narrow rows. One-hot rows add exact zeros.
    mass = np.einsum("ij->i", targets)
    per_sample = mass * (np.log(total) + top)[:, 0] - np.einsum("ij,ij->i", targets, val)
    return _node(per_sample.mean(), (logits,),
                 lambda g: g * (mass[:, None] * (exp / total) - targets) / batch)


def grad_check(build, leaves, *, step=1e-6, rng=None, max_coords=None):
    """Compare reverse-mode gradients against central finite differences.

    Args:
        build: zero-argument callable that runs a fresh forward pass reading
            the current ``leaf.value`` contents and returns a scalar Tensor.
        leaves: parameters to check.
        step: finite-difference step.
        rng: optional ``numpy.random.Generator``; with ``max_coords`` set,
            checks a random subset of coordinates per leaf instead of all.
        max_coords: cap on checked coordinates per leaf.

    Returns:
        The worst relative error max(|ad - fd|) / max(|ad|, |fd|, 1).
    """
    zero_grads(leaves)
    out = build()
    out.backward()
    analytic = [np.array(leaf.grad, copy=True) for leaf in leaves]
    worst = 0.0
    for leaf, grad in zip(leaves, analytic):
        flat = leaf.value.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            if rng is None:
                raise ValueError("max_coords requires an rng")
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        gflat = grad.reshape(-1)
        for idx in coords:
            saved = flat[idx]
            flat[idx] = saved + step
            plus = float(build().value)
            flat[idx] = saved - step
            minus = float(build().value)
            flat[idx] = saved
            fd = (plus - minus) / (2.0 * step)
            ad = gflat[idx]
            err = abs(ad - fd) / max(abs(ad), abs(fd), 1.0)
            worst = max(worst, err)
    return worst
