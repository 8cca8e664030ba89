"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float64 ndarray and records the operation that produced
it. Calling :meth:`Tensor.backward` on a scalar output walks the graph once in
reverse topological order and accumulates gradients into every node that
requires them.

Every op builds its output with one ``_node(value, parents, *forms)`` call,
one form per parent: ``forms[i](grad)`` is the gradient for ``parents[i]``.
Backward alone decides which gradients to form: it runs a form only for a
parent that takes a gradient, and the walk skips subgraphs that take none.

The op set is deliberately small: exactly what dense/conv interval
networks, their losses, and gradient-based attacks need, and nothing else:

- arithmetic: ``+``, ``-``, ``*``, ``/``, ``@`` and the dense node ``linear``;
- elementwise: ``abs``, ``relu``, ``sigmoid``, ``sqrt``;
- reductions: ``sum``, ``mean`` and a one-axis ``max``;
- shape: ``reshape``, indexing, and the sliding-window
  gathers ``extract_patches`` (convolution) and ``pool_windows`` (pooling);
- loss: ``softmax_cross_entropy``, averaged or per sample (``softmax``
  itself takes arrays only: no loss differentiates through it).

The module-level helpers (``relu``, ``sigmoid``, ``sqrt``, ``mean``,
``linear``, ...) accept either a ``Tensor`` or a plain ndarray and return
the same kind. Layer math written against these helpers runs on the tape
during training and on raw arrays during evaluation without a second
implementation.
"""

from __future__ import annotations

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
    """Zeros of ``shape`` with ``grad`` added at the basic index ``key``."""
    gx = np.zeros(shape)
    gx[key] += grad
    return gx


def _put_into_zeros(shape, idx, grad, axis) -> np.ndarray:
    """Zeros of ``shape`` with ``grad`` put at ``idx`` along ``axis``."""
    gx = np.zeros(shape)
    np.put_along_axis(gx, idx, grad, axis)
    return gx


class Tensor:
    """Node in the differentiation graph: ``Tensor(...)`` makes a leaf.

    Attributes:
        value: the float64 ndarray payload.
        grad: accumulated gradient, same shape as ``value``; ``None`` until a
            backward pass reaches this node.
        requires_grad: whether backward should propagate into this node.
    """

    # Keep numpy from intercepting mixed ndarray/Tensor arithmetic so that
    # ``ndarray + Tensor`` dispatches to Tensor.__radd__.
    __array_ufunc__ = None
    __slots__ = ("value", "grad", "requires_grad", "_parents", "_forms")

    def __init__(self, value, parents=(), requires_grad=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = tuple(parents)
        self._forms = ()
        if requires_grad is None:
            requires_grad = any(p.requires_grad for p in self._parents)
        self.requires_grad = requires_grad

    # ---- construction helpers -------------------------------------------

    @staticmethod
    def parameter(value) -> "Tensor":
        """Leaf that accumulates gradient."""
        return Tensor(value, requires_grad=True)

    @staticmethod
    def constant(value) -> "Tensor":
        """Leaf that backward never propagates into."""
        return Tensor(value, requires_grad=False)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        flag = "param" if self.requires_grad and not self._parents else "node"
        return f"Tensor({flag}, shape={self.value.shape})"

    # ---- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor.constant(other)

    def __add__(self, other):
        other = self._coerce(other)
        sa, sb = self.value.shape, other.value.shape
        return _node(self.value + other.value, (self, other),
                     lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(g, sb))

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self.value, other.value
        return _node(a * b, (self, other),
                     lambda g: _unbroadcast(g * b, a.shape),
                     lambda g: _unbroadcast(g * a, b.shape))

    __rmul__ = __mul__

    def __neg__(self):
        return _node(-self.value, (self,), lambda g: -g)

    def __sub__(self, other):
        # Bitwise ``self + (-other)``: negation commutes with rounded sums.
        other = self._coerce(other)
        sa, sb = self.value.shape, other.value.shape
        return _node(self.value - other.value, (self, other),
                     lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(-g, sb))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __truediv__(self, other):
        other = self._coerce(other)
        a, b = self.value, other.value
        return _node(a / b, (self, other),
                     lambda g: _unbroadcast(g / b, a.shape),
                     lambda g: _unbroadcast(-g * a / (b * b), b.shape))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __matmul__(self, other):
        other = self._coerce(other)
        a, b = self.value, other.value
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
        return _node(a @ b, (self, other), lambda g: g @ b.T, lambda g: a.T @ g)

    def __rmatmul__(self, other):
        return self._coerce(other) @ self

    # ---- elementwise nonlinearities -------------------------------------

    def __abs__(self):
        # Subgradient 0 at the kink: np.sign(0) == 0.
        sign = np.sign(self.value)
        return _node(np.abs(self.value), (self,), lambda g: g * sign)

    def relu(self):
        # Subgradient 0 at the kink.
        mask = (self.value > 0.0).astype(np.float64)
        return _node(np.maximum(self.value, 0.0), (self,), lambda g: g * mask)

    def sigmoid(self):
        s = 1.0 / (1.0 + np.exp(-self.value))
        return _node(s, (self,), lambda g: g * s * (1.0 - s))

    def sqrt(self):
        r = np.sqrt(self.value)
        return _node(r, (self,), lambda g: g / (2.0 * r))

    # ---- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        shape = self.value.shape
        expand = axis is not None and not keepdims
        return _node(self.value.sum(axis=axis, keepdims=keepdims), (self,),
                     lambda g: np.broadcast_to(
                         np.expand_dims(g, axis) if expand else g, shape).copy())

    def max(self, axis, keepdims=False):
        """Max along one axis; ties route gradient to the first maximum."""
        idx = np.expand_dims(np.argmax(self.value, axis=axis), axis)
        out = np.take_along_axis(self.value, idx, axis)
        shape = self.value.shape
        return _node(out if keepdims else np.squeeze(out, axis), (self,),
                     lambda g: _put_into_zeros(shape, idx, g.reshape(idx.shape), axis))

    # ---- shape ops -------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.value.shape
        return _node(self.value.reshape(shape), (self,), lambda g: g.reshape(orig))

    def __getitem__(self, key):
        """Basic indexing only: slices, ints, or a tuple of them.

        A basic index never selects one element twice, so backward writes
        the gradient into its view of a zero array. Any other key (arrays,
        booleans, ``None``, ``Ellipsis``) raises ``TypeError``.
        """
        for part in key if isinstance(key, tuple) else (key,):
            if isinstance(part, bool) or not isinstance(part, (slice, int, np.integer)):
                raise TypeError(
                    f"Tensor indexing takes slices and ints, got {type(part).__name__}")
        shape = self.value.shape
        return _node(self.value[key], (self,),
                     lambda g: _add_into_zeros(shape, key, g))

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
        for node in reversed(order):
            grad = grads.pop(id(node), None)
            if grad is None:
                continue
            if not node._parents:
                if node.requires_grad:
                    node.grad = grad if node.grad is None else node.grad + grad
                continue
            for parent, form in zip(node._parents, node._forms):
                if parent.requires_grad:
                    pgrad = form(grad)
                    seen = grads.get(id(parent))
                    grads[id(parent)] = pgrad if seen is None else seen + pgrad


def _node(value, parents, *forms) -> Tensor:
    """The one constructor of a non-leaf Tensor; ``forms[i](grad)`` is the
    gradient for ``parents[i]``. Forms read arrays captured at the forward
    pass (leaf arrays by reference): run backward before an optimizer step."""
    out = Tensor(value, parents)
    out._forms = forms
    return out


def topological_order(root: Tensor) -> list[Tensor]:
    """Parents-before-children ordering of the grad-taking graph below ``root``.

    Iterative DFS; traversal follows the stored parent tuples, so the order
    (and with it the floating-point accumulation order in backward) is
    reproducible run to run. The walk does not descend into a parent with
    ``requires_grad=False``: every ancestor of such a node takes no
    gradient either, so backward would form nothing there, and the nodes
    that remain keep the order a full walk gives them.
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
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return order


def zero_grads(leaves) -> None:
    for leaf in leaves:
        leaf.grad = None


# ---- dual-mode helpers (Tensor or ndarray in, same kind out) -------------


def relu(x):
    return x.relu() if isinstance(x, Tensor) else np.maximum(x, 0.0)


def sigmoid(x):
    if isinstance(x, Tensor):
        return x.sigmoid()
    return 1.0 / (1.0 + np.exp(-x))


def sqrt(x):
    return x.sqrt() if isinstance(x, Tensor) else np.sqrt(x)


def absolute(x):
    return abs(x) if isinstance(x, Tensor) else np.abs(x)


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
    return x.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def linear(x, w, b=None):
    """Dense layer ``x @ w.T (+ b)``: one tape node, or plain numpy on arrays.

    ``x`` is (B, in), ``w`` is (out, in), the optional ``b`` is (out,). If
    any operand is a Tensor the result is one node, with every ndarray
    operand a constant. The weight gradient ``grad.T @ x`` is C-ordered; it
    matched the ``(x.T @ grad).T`` of a matmul -> transpose chain bitwise on
    3000 random shapes (B from 1 to 64, widths up to 128; OpenBLAS 0.3.31).
    """
    if not (isinstance(x, Tensor) or isinstance(w, Tensor)
            or isinstance(b, Tensor)):
        return x @ w.T if b is None else x @ w.T + b
    ops = tuple(t if isinstance(t, Tensor) else Tensor.constant(t)
                for t in ((x, w) if b is None else (x, w, b)))
    xv, wv = ops[0].value, ops[1].value
    forms = (lambda g: g @ wv, lambda g: g.T @ xv, lambda g: g.sum(axis=0))
    return _node(xv @ wv.T if b is None else xv @ wv.T + ops[2].value, ops,
                 *forms[:len(ops)])


def _scatter_windows(grad, shape, sh, sw) -> np.ndarray:
    """Sum (B, OH, OW, kh, kw, C) window gradients onto an input of ``shape``.

    One strided add per kernel position. Descending (i, j) adds each input
    position's contributions in ascending window order, the order a
    per-element scatter (np.add.at) sums them in.
    """
    _, oh, ow, kh, kw, _ = grad.shape
    gx = np.zeros(shape)
    row_end, col_end = sh * (oh - 1) + 1, sw * (ow - 1) + 1
    for i in range(kh - 1, -1, -1):
        for j in range(kw - 1, -1, -1):
            gx[:, i:i + row_end:sh, j:j + col_end:sw, :] += grad[:, :, :, i, j, :]
    return gx


def _sliding_windows(x, kh, kw, sh, sw, per_channel):
    """Gather the (kh, kw) windows of an NHWC batch with valid padding.

    The windows come out (B, OH, OW, kh*kw, C) with ``per_channel``, else
    flattened to (B, OH, OW, kh*kw*C), kernel-position major, channel
    minor. On the tape, backward scatters each window's gradient back onto
    the input positions it read, summing where windows overlap.
    """
    val = x.value if isinstance(x, Tensor) else x
    if val.ndim != 4:
        raise ValueError(f"expected NHWC input, got shape {val.shape}")
    if kh < 1 or kw < 1 or sh < 1 or sw < 1:
        raise ValueError(f"window {kh}x{kw} and stride {sh}x{sw} must be positive")
    batch, height, width, channels = val.shape
    if kh > height or kw > width:
        raise ValueError(
            f"window {kh}x{kw} does not fit input {height}x{width}")
    oh = (height - kh) // sh + 1
    ow = (width - kw) // sw + 1
    rows = (np.arange(oh) * sh)[:, None, None, None] + np.arange(kh)[None, None, :, None]
    cols = (np.arange(ow) * sw)[None, :, None, None] + np.arange(kw)[None, None, None, :]
    gathered = val[:, rows, cols, :]  # (B, OH, OW, kh, kw, C)
    tail = (kh * kw, channels) if per_channel else (kh * kw * channels,)
    windows = gathered.reshape((batch, oh, ow) + tail)
    if not isinstance(x, Tensor):
        return windows
    return _node(windows, (x,), lambda g: _scatter_windows(
        g.reshape(gathered.shape), val.shape, sh, sw))


def extract_patches(x, kh, kw, sh, sw):
    """im2col over an NHWC batch.

    Input (B, H, W, C) becomes (B, OH, OW, kh*kw*C) with valid padding; each
    output row is the flattened window, kernel-position major, channel minor.
    """
    return _sliding_windows(x, kh, kw, sh, sw, per_channel=False)


def pool_windows(x, window, stride):
    """Sliding windows kept per channel: (B, H, W, C) -> (B, OH, OW, w*w, C)."""
    return _sliding_windows(x, window, window, stride, stride, per_channel=True)


def softmax(x: np.ndarray, axis=-1) -> np.ndarray:
    """Softmax of an ndarray along ``axis``; it has no tape node."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_cross_entropy(logits, labels, reduction="mean"):
    """Cross-entropy between softmax(logits) and integer labels.

    Args:
        logits: (B, K) Tensor or ndarray.
        labels: (B,) integer array.
        reduction: "mean" or "none" (per-sample vector).
    """
    if reduction not in ("mean", "none"):
        raise ValueError(f"unknown reduction {reduction!r}")
    labels = np.asarray(labels)
    val = logits.value if isinstance(logits, Tensor) else logits
    if val.ndim != 2:
        raise ValueError(f"expected (batch, classes) logits, got {val.shape}")
    batch = val.shape[0]
    if labels.shape != (batch,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {batch}")
    if labels.min() < 0 or labels.max() >= val.shape[1]:
        raise ValueError("label out of range for logit width")
    shifted = val - val.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + val.max(axis=1)
    per_sample = lse - val[np.arange(batch), labels]
    result = per_sample.mean() if reduction == "mean" else per_sample
    if not isinstance(logits, Tensor):
        return result
    # probs - onehot in place (bitwise: p - 0.0 is p).
    diff = np.exp(shifted)
    diff /= diff.sum(axis=1, keepdims=True)
    diff[np.arange(batch), labels] -= 1.0
    if reduction == "mean":
        return _node(result, (logits,), lambda g: g * diff / batch)
    return _node(result, (logits,), lambda g: g[:, None] * diff)


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
