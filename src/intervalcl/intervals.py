"""Layer kernels, interval tensors, and sound propagation rules.

Each layer kind has one kernel that point batches and boxes share: dense
layers use :func:`intervalcl.autodiff.linear` (``x @ W.T``), and this module
holds ``conv2d`` (bias-free, valid padding), ``activation`` (the monotone
nonlinearities) and ``pool`` (average or max). The point forward pass calls
a kernel directly; the interval rule for the same layer wraps it.

An ``IntervalTensor`` carries elementwise lower and upper bounds. Each rule
maps an input box to an output box that contains every image of a point from
the input box. Dense, conv and batchnorm share one affine rule that sends
the midpoint through the map and the radius through it with absolute
weights. Batch normalization is the per-feature affine map ``weight * x +
bias`` with ``weight = gamma / sqrt(var + eps)`` and ``bias = shift -
weight * mean``: a point batch applies it directly, a box goes through the
affine rule unmodified. Its moments are taken over both bounds jointly (or
frozen), so a zero-radius input reproduces the point computation exactly.
Monotone activations and pooling apply the kernel to both bounds.

Payloads may be ndarrays or autodiff Tensors; the kernels are written
against the dual-mode helpers in :mod:`intervalcl.autodiff` and work
identically in both modes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from intervalcl import autodiff as ad

@dataclass
class IntervalTensor:
    """Elementwise box: ``lower[i] <= x[i] <= upper[i]``."""

    lower: object
    upper: object

    def __post_init__(self):
        lo, hi = np.asarray(ad.payload(self.lower)), np.asarray(ad.payload(self.upper))
        if lo.shape != hi.shape:
            raise ValueError(f"bound shapes differ: {lo.shape} vs {hi.shape}")
        if np.any(lo > hi):
            worst = float(np.max(lo - hi))
            raise ValueError(f"lower exceeds upper by up to {worst:.3g}")

    @property
    def shape(self):
        return np.shape(self.lower)

    @classmethod
    def from_ball(cls, x, eps) -> "IntervalTensor":
        """Box of radius ``eps`` (scalar or broadcastable) around ``x``."""
        radius = np.asarray(eps)
        # Written so that NaN fails the range check.
        if not ((0.0 <= radius) & (radius < np.inf)).all():
            raise ValueError("radius must be finite and non-negative")
        return cls(x - eps, x + eps)


# ---- kernels shared by points and boxes ----------------------------------


def conv2d(x, kernel, stride=1):
    """Bias-free valid-padding NHWC convolution as one patch matmul.

    ``kernel`` has shape (kh, kw, c_in, c_out).
    """
    kh, kw, c_in, c_out = np.shape(kernel)
    windows = ad.sliding_windows(x, kh, kw, stride, stride)
    batch, oh, ow = np.shape(windows)[:3]
    flat = windows.reshape(batch * oh * ow, kh * kw * c_in)
    kflat = kernel.reshape(kh * kw * c_in, c_out)
    return (flat @ kflat).reshape(batch, oh, ow, c_out)


_MONOTONE = {"relu": ad.relu, "sigmoid": ad.sigmoid}


def activation(x, kind: str):
    """Monotone nonlinearity ``kind`` applied elementwise."""
    try:
        fn = _MONOTONE[kind]
    except KeyError:
        raise ValueError(f"unknown activation {kind!r}") from None
    return fn(x)


def pool(x, kind: str, window: int, stride: int):
    """Average or max over each (window, window) patch, per channel."""
    windows = ad.sliding_windows(x, window, window, stride, stride)
    if kind == "avg":
        return ad.mean(windows, axis=3)
    if kind == "max":
        return windows.max(axis=3)
    raise ValueError(f"unknown pooling kind {kind!r}")


# ---- interval rules ------------------------------------------------------


def _affine_box(lower, upper, apply, weight, bias) -> IntervalTensor:
    """Box image of ``x -> apply(x, weight) + bias`` for ``apply`` linear in x.

    The centre is finished before the radius is formed, so an untaped pass
    holds one midpoint-sized temporary at a time.
    """
    centre = apply((lower + upper) * 0.5, weight) + bias
    halfwidth = apply((upper - lower) * 0.5, ad.absolute(weight))
    return IntervalTensor(centre - halfwidth, centre + halfwidth)


def interval_affine(iv: IntervalTensor, weight, bias) -> IntervalTensor:
    """Dense layer ``y = x W^T + b`` on boxes: W is (out, in), x is (B, in)."""
    w_shape = np.shape(weight)
    if iv.shape[-1] != w_shape[1]:
        raise ValueError(f"input width {iv.shape[-1]} does not match weight {w_shape}")
    if np.shape(bias) != (w_shape[0],):
        raise ValueError(f"bias shape {np.shape(bias)} does not match out width")
    return _affine_box(iv.lower, iv.upper, ad.linear, weight, bias)


def interval_conv2d(iv: IntervalTensor, kernel, bias, stride=1) -> IntervalTensor:
    """Valid-padding NHWC convolution on boxes; kernel is (kh, kw, c_in, c_out)."""
    k_shape = np.shape(kernel)
    if len(k_shape) != 4:
        raise ValueError(f"kernel must be (kh, kw, c_in, c_out), got {k_shape}")
    c_in, c_out = k_shape[2:]
    if len(iv.shape) != 4 or iv.shape[3] != c_in:
        raise ValueError(f"input {iv.shape} does not match kernel channels {c_in}")
    if np.shape(bias) != (c_out,):
        raise ValueError(f"bias shape {np.shape(bias)} does not match {c_out} channels")
    return _affine_box(iv.lower, iv.upper,
                       lambda x, k: conv2d(x, k, stride), kernel, bias)


def interval_activation(iv: IntervalTensor, kind: str) -> IntervalTensor:
    """Monotone nonlinearity applied to both bounds."""
    return IntervalTensor(activation(iv.lower, kind), activation(iv.upper, kind))


def batch_moments(lower, upper, axes):
    """Per-feature mean and population variance over both bounds jointly.

    Equivalent to concatenating the lower and upper batches and taking the
    moments of the result, but computed in a decomposed form so that a
    degenerate box (lower == upper) yields the moments of the point batch
    bit for bit.
    """
    mean = (ad.mean(lower, axes, keepdims=True)
            + ad.mean(upper, axes, keepdims=True)) * 0.5
    dev_l = lower - mean
    dev_u = upper - mean
    var = (ad.mean(dev_l * dev_l, axes, keepdims=True)
           + ad.mean(dev_u * dev_u, axes, keepdims=True)) * 0.5
    return mean, var


def _bn_axes(shape) -> tuple:
    if len(shape) == 2:
        return (0,)
    if len(shape) == 4:
        return (0, 1, 2)
    raise ValueError(f"batchnorm expects (B, F) or NHWC input, got {shape}")


def _bn_fold(lower, upper, gamma, shift, eps, stats, capture):
    """``(weight, bias)`` of batchnorm as the map ``x -> weight * x + bias``;
    see :func:`interval_batchnorm` for ``stats`` and ``capture``."""
    shape = np.shape(lower)
    axes = _bn_axes(shape)
    feat = shape[-1]
    if np.shape(gamma) != (feat,) or np.shape(shift) != (feat,):
        raise ValueError(f"gamma/shift must have shape ({feat},), got "
                         f"{np.shape(gamma)} and {np.shape(shift)}")
    if stats is None:
        mean, var = batch_moments(lower, upper, axes)
    else:
        mean, var = stats
    if capture is not None:
        capture.append((mean, var))
    weight = gamma / ad.sqrt(var + eps)
    return weight, shift - weight * mean


def interval_batchnorm(iv: IntervalTensor, gamma, shift, *, eps=1e-5,
                       stats=None, capture=None) -> IntervalTensor:
    """Batch normalization over boxes, as the affine map ``weight * x + bias``.

    With ``weight = gamma / sqrt(var + eps)`` and ``bias = shift - weight *
    mean``, the box goes through the shared affine rule unmodified. Without
    ``stats``, moments are taken over the current batch of bounds (both
    bounds pooled); pass ``stats=(mean, var)`` to normalize with frozen
    moments instead. ``capture``, if given, receives the ``(mean, var)``
    actually used. A negative ``gamma`` makes ``weight`` negative, which
    flips which bound is which; the centre/half-width form keeps the output
    ordered.
    """
    weight, bias = _bn_fold(iv.lower, iv.upper, gamma, shift, eps, stats, capture)
    return _affine_box(iv.lower, iv.upper, operator.mul, weight, bias)


def point_batchnorm(x, gamma, shift, *, eps=1e-5, stats=None, capture=None):
    """Batch normalization of a point batch: ``weight * x + bias`` with the
    folded map of :func:`interval_batchnorm`.

    Live moments come from ``batch_moments(x, x)``, the formula the interval
    rule uses, so a zero-radius box gives this result bit for bit.
    """
    weight, bias = _bn_fold(x, x, gamma, shift, eps, stats, capture)
    return x * weight + bias


def interval_pool(iv: IntervalTensor, kind: str, window: int, stride=None) -> IntervalTensor:
    """Average or max pooling applied to each bound separately.

    Both reductions are monotone in every input coordinate, so pooling the
    lower and upper bounds independently is sound and exact per window.
    """
    if stride is None:
        stride = window
    return IntervalTensor(pool(iv.lower, kind, window, stride),
                          pool(iv.upper, kind, window, stride))


@dataclass
class SoundnessReport:
    """Outcome of Monte Carlo containment checking."""

    samples: int
    max_violation: float
    violations: int

    @property
    def sound(self) -> bool:
        return self.violations == 0


def soundness_oracle(net_spec, params, input_box: IntervalTensor,
                     samples: int, seed: int, tol: float = 1e-9) -> SoundnessReport:
    """Sample points from the input box and check containment at every layer.

    For each box in the batch, ``samples`` uniform points are drawn, pushed
    through the plain point forward pass (batch statistics frozen to the
    ones the interval pass used), and every intermediate and final
    activation is compared with the propagated bounds. Violations are
    measured relative to ``max(1, |bound|)``; a sample counts as violating
    if it escapes anywhere by more than ``tol``.
    """
    from intervalcl import nets

    lo = np.asarray(ad.payload(input_box.lower), dtype=np.float64)
    hi = np.asarray(ad.payload(input_box.upper), dtype=np.float64)
    rng = np.random.default_rng(seed)
    batch = lo.shape[0]

    bn_capture: list = []
    bound_trace: list = []
    nets.forward_interval(net_spec, params, input_box, record=bound_trace,
                          bn_capture=bn_capture)
    bn_stats = [(ad.payload(m), ad.payload(v)) for m, v in bn_capture] or None

    # One point forward over all boxes and draws at once: (B*S, features).
    draw = rng.uniform(0.0, 1.0, size=(samples,) + lo.shape)
    points = lo[None] + draw * (hi - lo)[None]
    flat = points.swapaxes(0, 1).reshape((batch * samples,) + lo.shape[1:])
    act_trace: list = []
    nets.forward_point(net_spec, params, flat, record=act_trace, bn_stats=bn_stats)

    worst_per_sample = np.zeros((batch, samples))
    for box, act in zip(bound_trace, act_trace):
        bl, bu = ad.payload(box.lower), ad.payload(box.upper)
        a = ad.payload(act).reshape((batch, samples) + bl.shape[1:])
        scale = np.maximum(1.0, np.maximum(np.abs(bl), np.abs(bu)))
        escape = np.maximum(bl[:, None] - a, a - bu[:, None]) / scale[:, None]
        reduce_axes = tuple(range(2, escape.ndim))
        if reduce_axes:
            escape = escape.max(axis=reduce_axes)
        worst_per_sample = np.maximum(worst_per_sample, escape)
    return SoundnessReport(samples=batch * samples,
                           max_violation=float(worst_per_sample.max()),
                           violations=int((worst_per_sample > tol).sum()))
