"""Layer kernels, interval tensors, and sound propagation rules.

Each layer kind has one kernel that point batches and boxes share: dense
layers use :func:`intervalcl.autodiff.linear` (``x @ W.T``), conv layers
:func:`intervalcl.autodiff.conv2d` (valid padding), and this module holds
``activation`` (the monotone nonlinearities) and ``pool`` (average or max).
The point forward pass calls a kernel directly; the interval rule for the
same layer wraps it.

An ``IntervalTensor`` carries elementwise lower and upper bounds. Each rule
maps an input box to an output box that contains every image of a point from
the input box, up to float64 rounding, which ``rounding_budget`` bounds per
sample and layer for certificates and ``soundness_oracle`` alike. Dense,
conv and batchnorm share one affine rule that sends the midpoint through the
map and the radius through it with absolute weights. Batch normalization is
the per-feature affine map ``weight * x + bias`` with ``weight = gamma /
sqrt(var + BN_EPS)`` and ``bias = shift - weight * mean``: a point batch
applies it directly, a box goes through the affine rule unmodified. Only a
point batch may take live moments from itself; a box is always normalized
with moments given to it (frozen, or captured from the point pass over the
same step), so its bounds hold for the one network the point pass ran.
Monotone activations and pooling apply the kernel to both bounds.

Payloads may be ndarrays or autodiff Tensors; the kernels are written
against the dual-mode helpers in :mod:`intervalcl.autodiff` and work
identically in both modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from intervalcl import autodiff as ad

# Added to the variance before its square root in every batchnorm layer.
BN_EPS = 1e-5


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
    if kind == "avg":
        return ad.mean(ad.sliding_windows(x, window, window, stride, stride), axis=3)
    if kind == "max":
        return ad.window_max(x, window, stride)
    raise ValueError(f"unknown pooling kind {kind!r}")


# ---- interval rules ------------------------------------------------------


def _affine_box(lower, upper, centre_of, radius_of) -> IntervalTensor:
    """Box image of an affine map ``x -> W x + b``: ``centre_of(m)`` is ``W m
    + b`` at the midpoint, ``radius_of(r)`` is ``|W| r`` at the radius.

    The centre is finished before the radius is formed, so an untaped pass
    holds one midpoint-sized temporary at a time.
    """
    centre = centre_of((lower + upper) * 0.5)
    halfwidth = radius_of((upper - lower) * 0.5)
    return IntervalTensor(centre - halfwidth, centre + halfwidth)


def interval_affine(iv: IntervalTensor, weight, bias) -> IntervalTensor:
    """Dense layer ``y = x W^T + b`` on boxes: W is (out, in), x is (B, in)."""
    w_shape = np.shape(weight)
    if iv.shape[-1] != w_shape[1]:
        raise ValueError(f"input width {iv.shape[-1]} does not match weight {w_shape}")
    if np.shape(bias) != (w_shape[0],):
        raise ValueError(f"bias shape {np.shape(bias)} does not match out width")
    return _affine_box(iv.lower, iv.upper, lambda m: ad.linear(m, weight) + bias,
                       lambda r: ad.linear(r, ad.absolute(weight)))


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
                       lambda m: ad.conv2d(m, kernel, stride, bias),
                       lambda r: ad.conv2d(r, ad.absolute(kernel), stride))


def interval_activation(iv: IntervalTensor, kind: str) -> IntervalTensor:
    """Monotone nonlinearity applied to both bounds."""
    return IntervalTensor(activation(iv.lower, kind), activation(iv.upper, kind))


def batch_moments(x, axes):
    """Per-feature mean and population variance of the batch ``x``."""
    mean = ad.mean(x, axes, keepdims=True)
    dev = x - mean
    return mean, ad.mean(dev * dev, axes, keepdims=True)


def _bn_axes(shape) -> tuple:
    if len(shape) == 2:
        return (0,)
    if len(shape) == 4:
        return (0, 1, 2)
    raise ValueError(f"batchnorm expects (B, F) or NHWC input, got {shape}")


def _bn_fold(shape, gamma, shift, stats):
    """``(weight, bias)`` of batchnorm over inputs of ``shape`` with moments
    ``stats = (mean, var)``, as the map ``x -> weight * x + bias``."""
    _bn_axes(shape)
    feat = shape[-1]
    if np.shape(gamma) != (feat,) or np.shape(shift) != (feat,):
        raise ValueError(f"gamma/shift must have shape ({feat},), got "
                         f"{np.shape(gamma)} and {np.shape(shift)}")
    mean, var = stats
    weight = gamma / ad.sqrt(var + BN_EPS)
    return weight, shift - weight * mean


def interval_batchnorm(iv: IntervalTensor, gamma, shift, *, stats) -> IntervalTensor:
    """Batch normalization over boxes, as the affine map ``weight * x + bias``.

    With ``weight = gamma / sqrt(var + BN_EPS)`` and ``bias = shift - weight *
    mean`` for the given moments ``stats = (mean, var)``, the box goes
    through the shared affine rule unmodified. A negative ``gamma`` makes
    ``weight`` negative, which flips which bound is which; the
    centre/half-width form keeps the output ordered.
    """
    weight, bias = _bn_fold(iv.shape, gamma, shift, stats)
    return _affine_box(iv.lower, iv.upper, lambda m: m * weight + bias,
                       lambda r: r * ad.absolute(weight))


def point_batchnorm(x, gamma, shift, *, stats=None, capture=None):
    """Batch normalization of a point batch: ``weight * x + bias`` with the
    folded map of :func:`interval_batchnorm`.

    Without ``stats`` the moments are the batch's own
    (:func:`batch_moments`). ``capture``, if given, receives the ``(mean,
    var)`` used, ready to hand to :func:`interval_batchnorm`.
    """
    if stats is None:
        stats = batch_moments(x, _bn_axes(np.shape(x)))
    if capture is not None:
        capture.append(stats)
    weight, bias = _bn_fold(np.shape(x), gamma, shift, stats)
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


# ---- float64 rounding budget and soundness oracle -------------------------

# Unit roundoff of float64.
_U = 2.0 ** -53
# Each budget update below is a chain of fewer than 30 roundings of
# non-negative floats, each at most a factor (1 - u) low; scaling its result
# by this keeps it an upper bound, since (1 - u)**30 * (1 + 2**-48) > 1.
_ROUND_UP = 1.0 + 2.0 ** -48
# Added at each layer that rounds. Below 2**-1022 a product can err by up to
# 2**-1075 in absolute terms, which no relative bound covers; a layer with
# fan-in and weight norm under 2**50 makes fewer than 2**54 such errors. It
# also keeps ``e`` a normal number, on which arithmetic stays fast.
_FLOOR = 2.0 ** -1021


def _gamma(k: int) -> float:
    """Higham's ``γ_k = k u / (1 - k u)``: the relative error bound of a
    float sum of ``k`` rounded terms, in any order."""
    return k * _U / (1.0 - k * _U)


def _affine_norms(params, magnitudes, index, layer, moments):
    """``(‖W‖∞ rounded up, max |b|, n)`` of an affine layer: ``n`` terms per
    output (1 for batchnorm, whose ``W`` is diagonal), and ``‖W‖∞`` the
    largest sum of |W| over one output's terms. ``magnitudes`` is ``params``
    with every parameter replaced by its absolute value."""
    if layer.kind == "batchnorm":
        weight, bias = _bn_fold((1,) + params.spec.shapes[index],
                                params.get(index, "gamma"),
                                params.get(index, "shift"), moments)
        return float(np.abs(weight).max()), float(np.abs(bias).max()), 1
    if layer.kind == "dense":
        weight = magnitudes.get(index, "weight")
        n = weight.shape[1]
        sums = weight.sum(axis=1)
    else:
        kernel = magnitudes.get(index, "kernel")
        n = math.prod(kernel.shape[:3])
        sums = kernel.reshape(n, -1).sum(axis=0)
    # The float sum is at most a factor (1 - γ_{n-1}) low.
    return (float(sums.max()) * (1.0 + _gamma(n)),
            float(magnitudes.get(index, "bias").max()), n)


def rounding_budget(spec, params, box: IntervalTensor, bn_stats=None) -> np.ndarray:
    """Per-sample float64 rounding budget of the interval pass, per layer.

    Row ``k`` of the ``(len(spec.layers) + 1, B)`` result is ``e`` for the
    ``k``-th box ``nets.forward_interval`` records from these arguments
    (row 0 the input). Each sample's ``[lower - e, upper + e]`` contains
    (a) the exact image of the float box, or of the real ball it rounds
    (``from_ball``), in real arithmetic on the float64 weights, batchnorm
    being ``weight * h + bias`` in the doubles ``_bn_fold`` gives, and (b)
    the value ``nets.forward_point`` computes at any point of the float
    box, in a batch of any size.

    Proof, after Higham (*Accuracy and Stability of Numerical Algorithms*,
    §3.1) in the midpoint-radius setting of Rump (BIT 39, 1999). ``u =
    2^-53``; a float sum of ``k`` rounded terms is within ``γ_k`` of the
    exact sum, relative to the sum of their magnitudes, in any order and
    with or without fused multiply-adds. The invariant after every layer,
    for its float box ``[lo, hi]`` and point value ``p``: the exact image
    and ``p`` lie in ``[lo - e, hi + e]``, and ``|lo|, |hi| <= big``.

    - Input: ``big``, the float sum of ``max(-lo_i, hi_i) = max(|lo_i|,
      |hi_i|)`` over the features, is at least each term. A rounded ball
      ``lo, hi = fl(x -+ eps)`` is within ``u big`` of the real one, so
      ``e = u big`` covers it, a float box, and any point ``p`` of the box.
    - Affine ``W h + b`` with ``n`` terms per output, ``N = ‖W‖∞``, ``β =
      max |b|`` and ``T = N big + β``. The rule forms ``m = fl((lo + hi)
      / 2)`` and ``r = fl((hi - lo) / 2)``, each within ``u big`` of exact,
      then ``c = fl(W m + b)``, ``h = fl(|W| r)`` and ``fl(c -+ h)``. The
      exact image of the widened box is ``W m* + b -+ |W| (r* + e)``. It
      differs from ``c -+ h`` by ``N e`` plus ``γ_{n+1} (T + N big)`` from
      ``c`` and ``h``, ``u N big`` from ``m``, and ``2u (1 + γ_{n+2}) T``
      from the last rounding. The point pass at any ``p`` in ``[lo - e,
      hi + e]`` adds ``γ_{n+1} (T + N e)``, as ``|p| <= big + e``. The
      update ``e' = N e + γ_{n+2} (N e + 4T) + 4u T`` covers the sum with
      ``γ_{n+2} T`` to spare for second-order terms, and ``|fl(c -+ h)| <=
      (1 + γ_{n+3}) T <= T + e' = big'``. Dense layers have ``n`` inputs,
      conv ``kh kw c_in``, and batchnorm ``n = 1``, its ``W`` being diagonal.
    - Average pooling over ``n`` entries as ``sum * (1 / n)``: each pass is
      within ``γ_{n+1} max |v|`` of the exact mean, so ``e' = e + γ_{n+1}
      (2 big + e)`` and ``big' = big + e'``.
    - Sigmoid is 1/4-Lipschitz, and ``1 / (1 + exp(-x))`` in float is
      within ``|δ_exp| / 4 + 2u`` of it, which is below ``8u`` for an
      ``exp`` good to 10 ulps; so ``e' = e / 4 + 16u`` (one ``8u`` per
      pass) and ``big' = 1``.
    - ReLU, max pooling and flatten are exact and 1-Lipschitz: ``e`` and
      ``big`` carry over.

    Every update is rounded up (``_ROUND_UP``) and floored (``_FLOOR``).
    Each is affine in ``(e, big)`` with non-negative coefficients, so ``e``
    and ``big`` stay affine in the input's ``big``. The loop carries their
    slopes and intercepts as floats, from the weight norms of this call
    (applying each update with ``one = 0`` to the slopes and ``one = 1`` to
    the intercepts), and one outer product over the batch gives the rows:
    no reduction over any layer's bounds.
    """
    from intervalcl.nets import ParamSet

    spec.check_bn_stats(bn_stats, boxed=True)
    magnitudes = ParamSet(spec, np.abs(params.flat))
    moments = iter(bn_stats or ())
    slope, intercept = (_U, 1.0), (0.0, 0.0)  # of (e, big)
    rows = [(slope[0], intercept[0])]
    for index, layer in enumerate(spec.layers):
        kind = layer.kind
        update = None
        if kind in ("dense", "conv", "batchnorm"):
            stats = next(moments) if kind == "batchnorm" else None
            norm, shift, n = _affine_norms(params, magnitudes, index, layer, stats)
            g = _gamma(n + 2)

            def update(e, big, one):
                total = norm * big + shift * one
                e = _ROUND_UP * (norm * e + g * (norm * e + 4.0 * total)
                                 + 4.0 * _U * total) + _FLOOR * one
                return e, _ROUND_UP * (total + e)
        elif kind == "pool" and layer.pool == "avg":
            g = _gamma(layer.window ** 2 + 1)

            def update(e, big, one):
                e = _ROUND_UP * (e + g * (2.0 * big + e)) + _FLOOR * one
                return e, _ROUND_UP * (big + e)
        elif kind == "activation" and layer.activation == "sigmoid":
            def update(e, big, one):
                return _ROUND_UP * (0.25 * e + 16.0 * _U * one), one
        if update is not None:
            slope, intercept = update(*slope, 0.0), update(*intercept, 1.0)
        rows.append((slope[0], intercept[0]))
    rows = _ROUND_UP * np.array(rows)
    # numpy sums each row on its own, so a sample's ``e`` is the same bits
    # whatever its batch-mates; a BLAS product would not promise that.
    big = np.negative(box.lower)
    np.maximum(big, box.upper, out=big)
    big = big.reshape(len(big), math.prod(big.shape[1:])).sum(axis=1)
    return np.multiply.outer(rows[:, 0], big) + rows[:, 1:]


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
                     samples: int, seed: int) -> SoundnessReport:
    """Sample points from the input box and check containment at every layer.

    For each box in the batch, ``samples`` uniform points are drawn and
    pushed through one point forward pass, which records every intermediate
    and final activation. Batchnorm layers there take the moments of the
    sampled points, and the interval pass over the boxes is handed those
    moments, so bounds and points go through the same network (a lone point
    has variance 0, so it needs two or more). A sample violates if at some
    layer ``k`` it escapes ``[lower - e_k, upper + e_k]``, ``e_k`` being the
    box's :func:`rounding_budget`; ``max_violation`` is the largest absolute
    escape from ``[lower, upper]`` itself.
    """
    from intervalcl import nets

    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    lo = np.asarray(ad.payload(input_box.lower), dtype=np.float64)
    hi = np.asarray(ad.payload(input_box.upper), dtype=np.float64)
    batch = lo.shape[0]
    if net_spec.batchnorm_layers and batch * samples < 2:
        raise ValueError(f"batchnorm moments need 2 or more sampled points, got {batch * samples}")

    # One point forward over all boxes and draws at once: (B*S, features).
    draw = np.random.default_rng(seed).uniform(0.0, 1.0, size=(samples,) + lo.shape)
    points = lo[None] + draw * (hi - lo)[None]
    flat = points.swapaxes(0, 1).reshape((batch * samples,) + lo.shape[1:])
    act_trace, bn_stats, bound_trace = [], [], []
    nets.forward_point(net_spec, params, flat, record=act_trace, bn_capture=bn_stats)
    nets.forward_interval(net_spec, params, input_box, record=bound_trace,
                          bn_stats=bn_stats)
    budget = rounding_budget(net_spec, params, input_box, bn_stats)

    worst = np.zeros((batch, samples))
    violating = np.zeros((batch, samples), dtype=bool)
    for bounds, act, e in zip(bound_trace, act_trace, budget):
        bl, bu = (ad.payload(b).reshape(batch, 1, -1) for b in (bounds.lower, bounds.upper))
        a = ad.payload(act).reshape(batch, samples, -1)
        escape = np.maximum(bl - a, a - bu).max(axis=2)
        worst = np.maximum(worst, escape)
        violating |= escape > e[:, None]
    return SoundnessReport(samples=batch * samples, max_violation=float(worst.max()),
                           violations=int(violating.sum()))
