"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float64 ndarray and records the operation that produced
it. Calling :meth:`Tensor.backward` on a scalar output walks the graph once in
reverse topological order and accumulates gradients into every node that
requires them. Backward walks and forms only the gradients that take part:
the walk skips subgraphs that take no gradient, and an op's backward
returns ``None`` instead of a gradient for a constant operand.

The op set is deliberately small: exactly what dense/conv interval
networks, their losses, and gradient-based attacks need, and nothing else:

- arithmetic: ``+``, ``-``, ``*``, ``/``, ``@`` and the dense node ``linear``;
- elementwise: ``abs``, ``relu``, ``sigmoid``, ``sqrt``;
- reductions: ``sum`` and a one-axis ``max``;
- shape: ``reshape``, ``transpose``, indexing, and the sliding-window
  gathers ``extract_patches`` (convolution) and ``pool_windows`` (pooling);
- loss: ``softmax_cross_entropy``, averaged or per sample (``softmax``
  itself takes arrays only: no loss differentiates through it).

The module-level helpers (``relu``, ``sigmoid``, ``sqrt``, ``linear``, ...)
accept either a ``Tensor`` or a plain ndarray and return the same kind.
Layer math written against these helpers runs on the tape during training
and on raw arrays during evaluation without a second implementation.
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


class Tensor:
    """Node in the differentiation graph.

    Attributes:
        value: the float64 ndarray payload.
        grad: accumulated gradient, same shape as ``value``; ``None`` until a
            backward pass reaches this node.
        requires_grad: whether backward should propagate into this node.
    """

    # Keep numpy from intercepting mixed ndarray/Tensor arithmetic so that
    # ``ndarray + Tensor`` dispatches to Tensor.__radd__.
    __array_ufunc__ = None
    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, parents=(), backward=None, requires_grad=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward
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
        out = Tensor(self.value + other.value, (self, other))

        def backward(grad):
            return (_unbroadcast(grad, self.value.shape)
                    if self.requires_grad else None,
                    _unbroadcast(grad, other.value.shape)
                    if other.requires_grad else None)

        out._backward = backward
        return out

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        out = Tensor(self.value * other.value, (self, other))
        a, b = self.value, other.value

        def backward(grad):
            return (_unbroadcast(grad * b, a.shape)
                    if self.requires_grad else None,
                    _unbroadcast(grad * a, b.shape)
                    if other.requires_grad else None)

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __neg__(self):
        out = Tensor(-self.value, (self,))
        out._backward = lambda grad: (-grad,)
        return out

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __truediv__(self, other):
        other = self._coerce(other)
        out = Tensor(self.value / other.value, (self, other))
        a, b = self.value, other.value

        def backward(grad):
            return (_unbroadcast(grad / b, a.shape)
                    if self.requires_grad else None,
                    _unbroadcast(-grad * a / (b * b), b.shape)
                    if other.requires_grad else None)

        out._backward = backward
        return out

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __matmul__(self, other):
        other = self._coerce(other)
        if self.value.ndim != 2 or other.value.ndim != 2:
            raise ValueError(
                f"matmul expects 2-d operands, got {self.value.shape} @ {other.value.shape}")
        out = Tensor(self.value @ other.value, (self, other))
        a, b = self.value, other.value

        def backward(grad):
            # A constant operand's gradient would be discarded: skip its gemm.
            return (grad @ b.T if self.requires_grad else None,
                    a.T @ grad if other.requires_grad else None)

        out._backward = backward
        return out

    def __rmatmul__(self, other):
        return self._coerce(other) @ self

    # ---- elementwise nonlinearities -------------------------------------

    def __abs__(self):
        out = Tensor(np.abs(self.value), (self,))
        # Subgradient 0 at the kink: np.sign(0) == 0.
        sign = np.sign(self.value)
        out._backward = lambda grad: (grad * sign,)
        return out

    def relu(self):
        out = Tensor(np.maximum(self.value, 0.0), (self,))
        # Subgradient 0 at the kink.
        mask = (self.value > 0.0).astype(np.float64)
        out._backward = lambda grad: (grad * mask,)
        return out

    def sigmoid(self):
        s = 1.0 / (1.0 + np.exp(-self.value))
        out = Tensor(s, (self,))
        out._backward = lambda grad: (grad * s * (1.0 - s),)
        return out

    def sqrt(self):
        r = np.sqrt(self.value)
        out = Tensor(r, (self,))
        out._backward = lambda grad: (grad / (2.0 * r),)
        return out

    # ---- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.value.sum(axis=axis, keepdims=keepdims), (self,))
        shape = self.value.shape

        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        out._backward = backward
        return out

    def max(self, axis, keepdims=False):
        """Max along one axis; ties route gradient to the first maximum."""
        idx = np.argmax(self.value, axis=axis)
        out_val = np.take_along_axis(self.value, np.expand_dims(idx, axis), axis)
        if not keepdims:
            out_val = np.squeeze(out_val, axis)
        out = Tensor(out_val, (self,))
        shape = self.value.shape

        def backward(grad):
            g = grad if keepdims else np.expand_dims(grad, axis)
            gx = np.zeros(shape)
            np.put_along_axis(gx, np.expand_dims(idx, axis), g, axis)
            return (gx,)

        out._backward = backward
        return out

    # ---- shape ops -------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.value.reshape(shape), (self,))
        orig = self.value.shape
        out._backward = lambda grad: (grad.reshape(orig),)
        return out

    def transpose(self, axes):
        out = Tensor(self.value.transpose(axes), (self,))
        inverse = tuple(np.argsort(axes))
        out._backward = lambda grad: (grad.transpose(inverse),)
        return out

    def __getitem__(self, key):
        """Basic indexing only: slices, ints, or a tuple of them.

        A basic index never selects one element twice, so backward writes
        the gradient into its view of a zero array. Any other key (arrays,
        booleans, ``None``, ``Ellipsis``) raises ``TypeError``.
        """
        parts = key if isinstance(key, tuple) else (key,)
        for part in parts:
            if isinstance(part, bool) or not isinstance(
                    part, (slice, int, np.integer)):
                raise TypeError(
                    f"Tensor indexing takes slices and ints, got {type(part).__name__}")
        out = Tensor(self.value[key], (self,))
        shape = self.value.shape

        def backward(grad):
            gx = np.zeros(shape)
            gx[key] += grad
            return (gx,)

        out._backward = backward
        return out

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
            for parent, pgrad in zip(node._parents, node._backward(grad)):
                if not parent.requires_grad:
                    continue
                seen = grads.get(id(parent))
                grads[id(parent)] = pgrad if seen is None else seen + pgrad


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


def linear(x, w, b):
    """Dense layer ``x @ w.T + b``: one tape node, or plain numpy on arrays.

    ``x`` is (B, in), ``w`` is (out, in) and ``b`` is (out,). The value is
    computed exactly as the matmul -> transpose -> add chain computes it,
    but the weight gradient ``grad.T @ x`` comes out C-ordered instead of as
    a transposed view. For B = 1 every weight-gradient entry is a single
    product, so all three gradients are bitwise those of the chain; for
    B > 1 the gemm orientation changes the summation order.
    """
    if not isinstance(x, Tensor):
        return x @ w.T + b
    out = Tensor(x.value @ w.value.T + b.value, (x, w, b))

    def backward(grad):
        return (grad @ w.value if x.requires_grad else None,
                grad.T @ x.value if w.requires_grad else None,
                grad.sum(axis=0) if b.requires_grad else None)

    out._backward = backward
    return out


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
    out = Tensor(windows, (x,))

    def backward(grad):
        # One strided add per kernel position. Descending (i, j) adds each
        # input position's contributions in ascending window order, the
        # order a per-element scatter (np.add.at) sums them in.
        g = grad.reshape(gathered.shape)
        gx = np.zeros(val.shape)
        row_end, col_end = sh * (oh - 1) + 1, sw * (ow - 1) + 1
        for i in range(kh - 1, -1, -1):
            for j in range(kw - 1, -1, -1):
                gx[:, i:i + row_end:sh, j:j + col_end:sw, :] += g[:, :, :, i, j, :]
        return (gx,)

    out._backward = backward
    return out


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
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    onehot = np.zeros_like(val)
    onehot[np.arange(batch), labels] = 1.0
    out = Tensor(result, (logits,))

    if reduction == "mean":
        out._backward = lambda grad: (grad * (probs - onehot) / batch,)
    else:
        out._backward = lambda grad: (grad[:, None] * (probs - onehot),)
    return out


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
