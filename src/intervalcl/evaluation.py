"""Attacks, certification, and continual-learning metrics.

Attack gradients go through the plain point forward pass; certification
goes through the interval pass. The two never substitute for each other:
an attack failing is evidence, a certificate is proof, and tests hold the
certificate to the stronger standard. The one attack is ``pgd``: it takes
inputs in the [0, 1] box and projects onto the eps-ball within that box;
FGSM is its single full step of size eps from the clean input.

A certificate holds in float64, not only in real arithmetic. Next to the
logit bounds ``[lower, upper]`` of the interval pass, ``rounding_budget``
gives each sample a bound ``e`` on float64 rounding: the exact image of
the real eps-ball lies in ``[lower - e, upper + e]``, and so do the logits
of the point pass at the ball's centre. ``certified_margin`` is ``own_lower
- max rival_upper - 2e``, and ``certify`` asks it to be positive, so a
certified sample is also classified correctly at its centre.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from intervalcl import autodiff as ad
from intervalcl import intervals as iv
from intervalcl import nets
from intervalcl.autodiff import Tensor


@dataclass
class AttackConfig:
    """Gradient attack settings.

    kind: "fgsm" or "pgd"; ``pgd`` runs "fgsm" as one step of size eps from
        the clean input, ignoring step, iters and random_start. To run no
        attack, pass no config (``None``) where one is optional.
    eps: attack radius in the input box.
    step: PGD ascent step; defaults to eps / 4 when unset.
    iters: PGD iteration count.
    random_start: start PGD from a uniform point inside the ball.
    seed: seed for the random start.
    """

    kind: str = "pgd"
    eps: float = 0.0
    step: float | None = None
    iters: int = 100
    random_start: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("fgsm", "pgd"):
            raise ValueError(f"unknown attack kind {self.kind!r}")
        # Written so that NaN fails each range check.
        if not 0.0 <= self.eps < np.inf:
            raise ValueError(f"attack eps must be finite and non-negative, got {self.eps}")
        if self.step is not None and not 0.0 < self.step < np.inf:
            raise ValueError(f"attack step must be finite and positive, got {self.step}")
        if isinstance(self.iters, bool) or not isinstance(self.iters, (int, np.integer)):
            raise ValueError(f"attack iters must be an integer, got {self.iters!r}")
        if self.iters < 1:
            raise ValueError(f"attack needs at least one iteration, got {self.iters}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise ValueError(
                f"attack seed must be a non-negative integer, got {self.seed!r}")


def _share(hits) -> float:
    """Fraction of true entries; refused for an empty batch."""
    if hits.size == 0:
        raise ValueError("accuracy over an empty batch is undefined")
    return float(np.mean(hits))


def clean_accuracy(spec, params, inputs, labels, bn_stats=None) -> float:
    logits = nets.forward_point(spec, params, inputs, bn_stats=bn_stats)
    labels = ad.check_labels(labels, logits.shape[0], logits.shape[1])
    return _share(np.argmax(logits, axis=1) == labels)


def pgd(spec, params, inputs, labels, cfg: AttackConfig, bn_stats=None) -> np.ndarray:
    """Signed cross-entropy ascent from ``inputs``, which must lie in [0, 1],
    projected onto the eps-ball intersected with the [0, 1] box.

    An empty batch or eps 0 comes back unchanged. ``kind="fgsm"`` is FGSM:
    one signed gradient step of size eps from the clean input.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    # Written so that NaN fails the range check.
    if inputs.size and not (inputs.min() >= 0.0 and inputs.max() <= 1.0):
        raise ValueError("attack inputs must lie in [0, 1]")
    labels = ad.check_labels(labels, len(inputs), spec.classes)
    if len(inputs) == 0 or cfg.eps == 0.0:
        return inputs
    fgsm = cfg.kind == "fgsm"
    step = cfg.eps if fgsm else cfg.step if cfg.step is not None else cfg.eps / 4.0
    targets = ad.onehot(labels, spec.classes)
    # The ball meets the box at ``inputs``, so one clip onto the intersection
    # is bitwise a clip onto the ball followed by one onto the box.
    low, high = np.maximum(inputs - cfg.eps, 0.0), np.minimum(inputs + cfg.eps, 1.0)
    x = inputs
    if cfg.random_start and not fgsm:
        rng = np.random.default_rng(cfg.seed)
        x = np.clip(inputs + rng.uniform(-cfg.eps, cfg.eps, inputs.shape), low, high)
    for _ in range(1 if fgsm else cfg.iters):
        point = Tensor(x)
        logits = nets.forward_point(spec, params, point, bn_stats=bn_stats)
        ad.softmax_cross_entropy(logits, targets).backward()
        x = np.clip(x + step * np.sign(point.grad), low, high)
    return x


def attacked_accuracy(spec, params, inputs, labels, cfg: AttackConfig,
                      bn_stats=None) -> float:
    adv = pgd(spec, params, inputs, labels, cfg, bn_stats=bn_stats)
    return clean_accuracy(spec, params, adv, labels, bn_stats=bn_stats)


# ---- certificates --------------------------------------------------------

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


def _affine_norms(spec, params, magnitudes, index, layer, moments):
    """``(‖W‖∞ rounded up, max |b|, n)`` of an affine layer: ``n`` terms per
    output (1 for batchnorm, whose ``W`` is diagonal), and ``‖W‖∞`` the
    largest sum of |W| over one output's terms. ``magnitudes`` maps each
    (layer index, name) slot to the absolute values of its parameters."""
    if layer.kind == "batchnorm":
        if moments is None:
            raise ValueError(f"layer {index}: batchnorm on boxes needs "
                             "moments (bn_stats)")
        weight, bias = iv._bn_fold(np.empty((0,) + spec.shapes[index]),
                                   params.get(index, "gamma"),
                                   params.get(index, "shift"), iv.BN_EPS, moments)
        return float(np.abs(weight).max()), float(np.abs(bias).max()), 1
    if layer.kind == "dense":
        weight = magnitudes[index, "weight"]
        n = weight.shape[1]
        sums = weight.sum(axis=1)
    else:
        kernel = magnitudes[index, "kernel"]
        n = math.prod(kernel.shape[:3])
        sums = kernel.reshape(n, -1).sum(axis=0)
    # The float sum is at most a factor (1 - γ_{n-1}) low.
    return (float(sums.max()) * (1.0 + _gamma(n)),
            float(magnitudes[index, "bias"].max()), n)


def rounding_budget(spec, params, inputs, eps, bn_stats=None) -> np.ndarray:
    """Per-sample float64 rounding budget ``e`` of the interval pass.

    Let ``[lower, upper]`` be the logit bounds ``nets.forward_interval``
    computes from these arguments (which it must accept). Each sample's
    ``[lower - e, upper + e]`` then contains (a) the exact image of the real
    ball ``|z - x| <= eps`` through the network in real arithmetic on its
    float64 weights, with batchnorm the folded map ``weight * h + bias`` in
    the doubles ``intervals._bn_fold`` gives, and (b) the logits that
    ``nets.forward_point`` computes at ``x``, in a batch of any size.

    Proof, after Higham (*Accuracy and Stability of Numerical Algorithms*,
    §3.1) in the midpoint-radius setting of Rump (BIT 39, 1999). ``u =
    2^-53``; a float sum of ``k`` rounded terms is within ``γ_k`` of the
    exact sum, relative to the sum of their magnitudes, in any order and
    with or without fused multiply-adds. The invariant after every layer,
    for its float box ``[lo, hi]`` and point value ``p``: the exact image
    and ``p`` lie in ``[lo - e, hi + e]``, and ``|lo|, |hi| <= big``.

    - Input: ``lo, hi = fl(x -+ eps)`` and ``|fl(a) - a| <= u |fl(a)|``.
      ``big`` is the float sum of ``|x_i| + eps`` over the sample's
      features. A float sum of non-negative terms is at least its largest
      term, so ``big >= fl(|x_i| + eps) >= |lo_i|, |hi_i|`` and ``e = u
      big`` covers the real ball; ``p = x`` is in the box.
    - Affine ``W h + b`` with ``n`` terms per output, ``N = ‖W‖∞``, ``β =
      max |b|`` and ``T = N big + β``. The rule forms ``m = fl((lo + hi)
      / 2)`` and ``r = fl((hi - lo) / 2)``, each within ``u big`` of exact,
      then ``c = fl(W m + b)``, ``h = fl(|W| r)`` and ``fl(c -+ h)``. The
      exact image of the widened box is ``W m* + b -+ |W| (r* + e)``. It
      differs from ``c -+ h`` by ``N e`` plus ``γ_{n+1} (T + N big)`` from
      ``c`` and ``h``, ``u N big`` from ``m``, and ``2u (1 + γ_{n+2}) T``
      from the last rounding. The point pass adds ``γ_{n+1} (T + N e)``,
      since ``|p| <= big + e``. The update ``e' = N e + γ_{n+2} (N e + 4T)
      + 4u T`` covers the sum with ``γ_{n+2} T`` to spare for second-order
      terms, and ``|fl(c -+ h)| <= (1 + γ_{n+3}) T <= T + e' = big'``.
      Dense layers have ``n`` inputs, conv ``kh kw c_in``, and batchnorm
      ``n = 1``, its ``W`` being diagonal.
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
    the intercepts), and one multiply-add over the batch gives ``e``: no
    reduction over any layer's bounds.
    """
    x = np.asarray(inputs, dtype=np.float64)
    flat = np.abs(params.flat)
    magnitudes = {(index, name): flat[offset:offset + size].reshape(shape)
                  for index, name, shape, offset, size in spec.slots}
    moments = iter(bn_stats if bn_stats is not None else ())
    slope, intercept = (_U, 1.0), (0.0, 0.0)  # of (e, big)
    for index, layer in enumerate(spec.layers):
        kind = layer.kind
        if kind in ("dense", "conv", "batchnorm"):
            stats = next(moments, None) if kind == "batchnorm" else None
            norm, shift, n = _affine_norms(spec, params, magnitudes, index,
                                           layer, stats)
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
        else:
            continue
        slope, intercept = update(*slope, 0.0), update(*intercept, 1.0)
    # numpy sums each row on its own, so a sample's ``e`` is the same bits
    # whatever its batch-mates; a BLAS product would not promise that.
    big = (np.abs(x) + eps).reshape(len(x), math.prod(x.shape[1:])).sum(axis=1)
    return (_ROUND_UP * slope[0]) * big + _ROUND_UP * intercept[0]


def certified_margin(spec, params, inputs, labels, eps, bn_stats=None) -> np.ndarray:
    """Per-sample margin ``own_lower - max rival_upper - 2e`` at radius ``eps``.

    ``lower`` and ``upper`` are the logit bounds of ``nets.forward_interval``
    and ``e`` is :func:`rounding_budget`. A positive margin is a proof, in
    float64 as in real arithmetic: the true class's logit exceeds every
    rival's at every point of the real ball of radius ``eps``, and
    ``nets.forward_point`` classifies the centre as its label. ``2e`` is
    taken a little larger, so that a positive float margin implies a
    positive exact one.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    bounds = nets.forward_interval(spec, params, inputs, eps=eps, bn_stats=bn_stats)
    lower = np.asarray(bounds.lower)
    upper = np.asarray(bounds.upper)
    batch = lower.shape[0]
    labels = ad.check_labels(labels, batch, lower.shape[1])
    rows = np.arange(batch)
    own_lower = lower[rows, labels]
    # Class-major, so that the max over classes runs along contiguous rows.
    rivals = upper.T.copy()
    rivals[labels, rows] = -np.inf
    budget = rounding_budget(spec, params, inputs, eps, bn_stats)
    return own_lower - rivals.max(axis=0) - (2.0 * _ROUND_UP) * budget


def certify(spec, params, inputs, labels, eps, bn_stats=None) -> np.ndarray:
    """Per-sample certificates at radius ``eps``: a positive
    :func:`certified_margin`.

    The exact logits over the real ball lie in ``[lower - e, upper + e]``,
    so a certified sample keeps its label at every point of the ball, and
    the float64 point pass classifies its centre correctly.
    """
    return certified_margin(spec, params, inputs, labels, eps, bn_stats) > 0.0


def verified_accuracy(spec, params, inputs, labels, eps, bn_stats=None) -> float:
    """Fraction both correctly classified and certified at radius ``eps``,
    which is the fraction certified: a certificate proves that the point
    pass classifies the centre correctly, so no point pass runs."""
    return _share(certify(spec, params, inputs, labels, eps, bn_stats=bn_stats))


# ---- continual-learning bookkeeping --------------------------------------


class ResultMatrix:
    """Lower-triangular accuracy table R[t, s]: task s evaluated after
    training task t. Entries above the diagonal stay NaN."""

    def __init__(self, task_count: int):
        if task_count < 1:
            raise ValueError("need at least one task")
        self.values = np.full((task_count, task_count), np.nan)

    @property
    def task_count(self) -> int:
        return self.values.shape[0]

    def record(self, after_task: int, eval_task: int, accuracy: float):
        if not 0 <= eval_task <= after_task < self.task_count:
            raise ValueError(
                f"({after_task}, {eval_task}) outside the lower triangle")
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy {accuracy} outside [0, 1]")
        self.values[after_task, eval_task] = accuracy

    def accuracy(self, after_task: int, eval_task: int) -> float:
        val = self.values[after_task, eval_task]
        if np.isnan(val):
            raise ValueError(f"({after_task}, {eval_task}) was never recorded")
        return float(val)


class Metrics(NamedTuple):
    average_accuracy: float
    backward_transfer: float | None


def metrics(result) -> Metrics:
    """Average accuracy over the final row and backward transfer.

    Backward transfer compares each task's final accuracy with its accuracy
    right after it was learned; it is undefined (None) for a single task.
    """
    values = result.values if isinstance(result, ResultMatrix) else np.asarray(result)
    tasks = values.shape[0]
    if values.shape != (tasks, tasks):
        raise ValueError(f"result matrix must be square, got {values.shape}")
    final = values[tasks - 1, :]
    if np.isnan(final).any():
        raise ValueError("final row is incomplete")
    aa = float(np.mean(final))
    if tasks < 2:
        return Metrics(aa, None)
    diag = np.diag(values)[:-1]
    bwt = float(np.mean(final[:-1] - diag))
    return Metrics(aa, bwt)


# ---- class-incremental inference -----------------------------------------


def prediction_entropy(probs) -> np.ndarray:
    """Shannon entropy per row, with 0 log 0 read as 0."""
    p = np.asarray(probs)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
    return -terms.sum(axis=-1)


def cil_infer(h, spec, inputs):
    """Task and class prediction without task identity.

    Every trained task's network scores the batch; the task whose softmax
    is most confident (lowest entropy) wins, ties to the lowest index, and
    that task's argmax class is the prediction.

    Returns:
        (task_indices, class_indices) as integer arrays.
    """
    if h.trained_tasks < 1:
        raise ValueError("no trained tasks to infer over")
    inputs = np.asarray(inputs, dtype=np.float64)
    batch = inputs.shape[0]
    entropies = np.empty((batch, h.trained_tasks))
    classes = np.empty((batch, h.trained_tasks), dtype=np.int64)
    for t in range(h.trained_tasks):
        params = nets.generate_params(h, spec, t)
        logits = nets.forward_point(spec, params, inputs,
                                    bn_stats=h.bn_stats.get(t))
        probs = ad.softmax(logits)
        entropies[:, t] = prediction_entropy(probs)
        classes[:, t] = np.argmax(logits, axis=1)
    task_pred = np.argmin(entropies, axis=1)
    class_pred = classes[np.arange(batch), task_pred]
    return task_pred, class_pred


def cil_evaluate(h, spec, test_sets, attack_cfg: AttackConfig | None = None) -> dict:
    """Class-incremental accuracy over one test set per trained task.

    A sample counts as correct only when both the inferred task and the
    predicted class are right. With an attack configured, ``pgd`` first
    perturbs the inputs (which must lie in [0, 1]) against the true task's
    network, then task inference runs on the perturbed inputs.
    """
    if len(test_sets) != h.trained_tasks:
        raise ValueError(
            f"{len(test_sets)} test sets for {h.trained_tasks} trained tasks")
    task_hits = 0
    full_hits = 0
    total = 0
    per_task = []
    for t, data in enumerate(test_sets):
        inputs = np.asarray(data.inputs, dtype=np.float64)
        labels = np.asarray(data.labels)
        if attack_cfg is not None:
            params = nets.generate_params(h, spec, t)
            inputs = pgd(spec, params, inputs, labels, attack_cfg,
                         bn_stats=h.bn_stats.get(t))
        task_pred, class_pred = cil_infer(h, spec, inputs)
        right_task = task_pred == t
        right_full = right_task & (class_pred == labels)
        task_hits += int(right_task.sum())
        full_hits += int(right_full.sum())
        total += labels.size
        per_task.append({
            "task": t,
            "task_inference_accuracy": _share(right_task),
            "accuracy": _share(right_full),
        })
    return {
        "task_inference_accuracy": task_hits / total,
        "accuracy": full_hits / total,
        "per_task": per_task,
    }
