"""Attacks, certification, and continual-learning metrics.

Attack gradients go through the plain point forward pass; certification
goes through the interval pass. The two never substitute for each other:
an attack failing is evidence, a certificate is proof, and tests hold the
certificate to the stronger standard. The one attack is ``pgd``: it takes
inputs in the [0, 1] box and projects onto the eps-ball within that box;
FGSM is its single full step of size eps from the clean input.

A certificate holds in float64, not only in real arithmetic. Next to the
logit bounds ``[lower, upper]`` of the interval pass, the last row of
``intervals.rounding_budget`` gives each sample a bound ``e`` on float64
rounding: the exact image of the real eps-ball lies in ``[lower - e, upper
+ e]``, and so do the logits of the point pass at the ball's centre.
``certified_margin`` is ``own_lower - max rival_upper - 2e``, and
``certify`` asks it to be positive, so a certified sample is also
classified correctly at its centre.
"""

from __future__ import annotations

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
        the clean input, ignoring step, iters and random_start.
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


def _logit_accuracy(logits, labels) -> float:
    """Fraction of rows of ``logits`` whose argmax is the label."""
    labels = ad.check_labels(labels, logits.shape[0], logits.shape[1])
    return _share(np.argmax(logits, axis=1) == labels)


def clean_accuracy(spec, params, inputs, labels, bn_stats=None) -> float:
    return _logit_accuracy(
        nets.forward_point(spec, params, inputs, bn_stats=bn_stats), labels)


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
        x = _signed_step(x, point.grad, step, low, high)
    return x


def _signed_step(x, grad, step, low, high) -> np.ndarray:
    """``np.clip(x + step * np.sign(grad), low, high)`` bitwise, in one new
    array: ``np.clip`` with array bounds costs about three times the
    ``np.maximum``/``np.minimum`` pair."""
    moved = np.sign(grad)
    moved *= step
    moved += x
    np.maximum(moved, low, out=moved)
    return np.minimum(moved, high, out=moved)


def attacked_accuracy(spec, params, inputs, labels, cfg: AttackConfig,
                      bn_stats=None) -> float:
    adv = pgd(spec, params, inputs, labels, cfg, bn_stats=bn_stats)
    return clean_accuracy(spec, params, adv, labels, bn_stats=bn_stats)


# ---- certificates --------------------------------------------------------

def certified_margin(spec, params, inputs, labels, eps, bn_stats=None) -> np.ndarray:
    """Per-sample margin ``own_lower - max rival_upper - 2e`` at radius ``eps``.

    ``lower`` and ``upper`` are the logit bounds of ``nets.forward_interval``
    over the ball and ``e`` the last row of ``intervals.rounding_budget``
    for it. A positive margin is a proof, in float64 as in real arithmetic:
    the true class's logit exceeds every rival's at every point of the real
    ball of radius ``eps``, and ``nets.forward_point`` classifies the centre
    as its label. ``2e`` is taken a little larger (by ``1 + 2^-48``), so
    that a positive float margin implies a positive exact one.
    """
    box = iv.IntervalTensor.from_ball(np.asarray(inputs, dtype=np.float64), eps)
    bounds = nets.forward_interval(spec, params, box, bn_stats=bn_stats)
    lower, upper = bounds.lower, bounds.upper
    batch = lower.shape[0]
    labels = ad.check_labels(labels, batch, lower.shape[1])
    rows = np.arange(batch)
    own_lower = lower[rows, labels]
    # Class-major, so that the max over classes runs along contiguous rows.
    rivals = upper.T.copy()
    rivals[labels, rows] = -np.inf
    budget = iv.rounding_budget(spec, params, box, bn_stats)[-1]
    return own_lower - rivals.max(axis=0) - (2.0 + 2.0 ** -47) * budget


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


def cil_evaluate(h, spec, test_sets) -> dict:
    """Class-incremental accuracy over one test set per trained task.

    A sample counts as correct only when both the inferred task and the
    predicted class are right.
    """
    if len(test_sets) != h.trained_tasks:
        raise ValueError(
            f"{len(test_sets)} test sets for {h.trained_tasks} trained tasks")
    task_hits = 0
    full_hits = 0
    total = 0
    per_task = []
    for t, data in enumerate(test_sets):
        labels = np.asarray(data.labels)
        task_pred, class_pred = cil_infer(h, spec, data.inputs)
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
