"""Attacks, certification, and continual-learning metrics.

Attack gradients go through the plain point forward pass; certification
goes through the interval pass. The two never substitute for each other:
an attack failing is evidence, a certificate is proof, and tests hold the
certificate to the stronger standard. The one attack loop is ``pgd``;
FGSM is its single full step of size eps from the clean input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from intervalcl import autodiff as ad
from intervalcl import nets
from intervalcl.autodiff import Tensor


@dataclass
class AttackConfig:
    """Gradient attack settings.

    kind: "fgsm" or "pgd"; "fgsm" is one PGD step of size eps from the
        clean input, so it ignores step, iters and random_start. To run no
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
        if self.iters < 1:
            raise ValueError(f"attack needs at least one iteration, got {self.iters}")


def clean_accuracy(spec, params, inputs, labels, bn_stats=None) -> float:
    logits = nets.forward_point(spec, params, inputs, bn_stats=bn_stats)
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


def _input_gradient(spec, params, inputs, labels, bn_stats):
    x = Tensor(inputs)
    logits = nets.forward_point(spec, params, x, bn_stats=bn_stats)
    ad.softmax_cross_entropy(logits, labels).backward()
    return x.grad


def pgd(spec, params, inputs, labels, cfg: AttackConfig, bn_stats=None) -> np.ndarray:
    """Iterated signed ascent projected to the eps-ball and the [0, 1] box.

    With one iteration, no random start and a step of eps, this is FGSM:
    one signed gradient step of size eps, clipped to the [0, 1] box.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    step = cfg.step if cfg.step is not None else cfg.eps / 4.0
    rng = np.random.default_rng(cfg.seed)
    if cfg.random_start:
        x = inputs + rng.uniform(-cfg.eps, cfg.eps, size=inputs.shape)
    else:
        x = inputs.copy()
    x = np.clip(x, 0.0, 1.0)
    for _ in range(cfg.iters):
        grad = _input_gradient(spec, params, x, labels, bn_stats)
        x = x + step * np.sign(grad)
        x = np.clip(x, inputs - cfg.eps, inputs + cfg.eps)
        x = np.clip(x, 0.0, 1.0)
    return x


def attack(spec, params, inputs, labels, cfg: AttackConfig, bn_stats=None) -> np.ndarray:
    """Adversarial version of ``inputs`` under the configured attack."""
    if cfg.eps == 0.0:
        return np.asarray(inputs, dtype=np.float64)
    if cfg.kind == "fgsm":
        cfg = replace(cfg, step=cfg.eps, iters=1, random_start=False)
    return pgd(spec, params, inputs, labels, cfg, bn_stats=bn_stats)


def attacked_accuracy(spec, params, inputs, labels, cfg: AttackConfig,
                      bn_stats=None) -> float:
    adv = attack(spec, params, inputs, labels, cfg, bn_stats=bn_stats)
    return clean_accuracy(spec, params, adv, labels, bn_stats=bn_stats)


def certify(spec, params, inputs, labels, eps, bn_stats=None) -> np.ndarray:
    """Per-sample certificates at radius ``eps``.

    Certified means the true class's lower logit bound strictly exceeds
    every other class's upper bound, so no perturbation in the box can flip
    the prediction.
    """
    bounds = nets.forward_interval(spec, params, np.asarray(inputs, dtype=np.float64),
                                   eps=eps, bn_stats=bn_stats)
    lower = np.asarray(bounds.lower)
    upper = np.asarray(bounds.upper)
    batch = lower.shape[0]
    labels = ad.check_labels(labels, batch, lower.shape[1])
    rows = np.arange(batch)
    own_lower = lower[rows, labels]
    masked = upper.copy()
    masked[rows, labels] = -np.inf
    return own_lower > masked.max(axis=1)


def verified_accuracy(spec, params, inputs, labels, eps, bn_stats=None) -> float:
    """Fraction both correctly classified and certified at radius ``eps``."""
    logits = nets.forward_point(spec, params, inputs, bn_stats=bn_stats)
    correct = np.argmax(logits, axis=1) == np.asarray(labels)
    certified = certify(spec, params, inputs, labels, eps, bn_stats=bn_stats)
    return float(np.mean(correct & certified))


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
    predicted class are right. With an attack configured, inputs are
    perturbed against the true task's network first, then task inference
    runs on the perturbed inputs.
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
            inputs = attack(spec, params, inputs, labels, attack_cfg,
                            bn_stats=h.bn_stats.get(t))
        task_pred, class_pred = cil_infer(h, spec, inputs)
        right_task = task_pred == t
        right_full = right_task & (class_pred == labels)
        task_hits += int(right_task.sum())
        full_hits += int(right_full.sum())
        total += labels.size
        per_task.append({
            "task": t,
            "task_inference_accuracy": float(np.mean(right_task)),
            "accuracy": float(np.mean(right_full)),
        })
    return {
        "task_inference_accuracy": task_hits / total,
        "accuracy": full_hits / total,
        "per_task": per_task,
    }
