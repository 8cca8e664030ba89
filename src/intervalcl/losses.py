"""Training losses, MixUp interpolation, and the warmup schedules.

All losses return scalars and run on the tape or on plain arrays. The
fence-sitting constant ``kappa`` blends the clean cross-entropy with the
worst-case (bound-based) cross-entropy; MixUp variants weight per-sample
cross-entropies by the mixing coefficient, which may be a scalar or a
per-sample vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from intervalcl import autodiff as ad
from intervalcl.intervals import IntervalTensor
from intervalcl.nets import worst_case_logits

DECAY_KINDS = ("linear", "quadratic", "log", "cos")


@dataclass
class LossConfig:
    """Loss hyperparameters shared across tasks.

    beta: weight of the hypernetwork output regularizer.
    eps: target input radius.
    alpha: Beta(alpha, alpha) parameter for MixUp coefficients.
    decay: radius decay kind for virtual samples.
    """

    beta: float = 0.0
    eps: float = 0.0
    alpha: float = 0.1
    decay: str = "linear"

    def __post_init__(self):
        if self.beta < 0.0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        if self.eps < 0.0:
            raise ValueError(f"eps must be non-negative, got {self.eps}")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.decay not in DECAY_KINDS:
            raise ValueError(f"decay must be one of {DECAY_KINDS}, got {self.decay!r}")


def _check_kappa(kappa):
    if not 0.0 <= float(kappa) <= 1.0:
        raise ValueError(f"kappa must lie in [0, 1], got {kappa}")


def ibp_loss(bounds: IntervalTensor, logits, labels, kappa):
    """Blend of clean cross-entropy and worst-case cross-entropy.

    ``kappa`` weights the loss on the actual logits, ``1 - kappa`` the loss
    on the adversarial logit vector read off the bounds.
    """
    _check_kappa(kappa)
    labels = np.asarray(labels)
    clean = ad.softmax_cross_entropy(logits, labels)
    worst = ad.softmax_cross_entropy(worst_case_logits(bounds, labels), labels)
    return kappa * clean + (1.0 - kappa) * worst


def output_reg_loss(snapshots, current):
    """Mean squared drift of generated weight vectors for earlier tasks.

    ``snapshots`` holds the flat target vectors produced before the current
    task started (no gradient); ``current`` the vectors the live generator
    produces for the same embeddings. Each pair contributes the sum of
    squared differences; pairs are averaged.
    """
    if len(snapshots) == 0:
        raise ValueError("no earlier tasks to regularize")
    if len(snapshots) != len(current):
        raise ValueError(f"{len(snapshots)} snapshots vs {len(current)} current vectors")
    total = None
    for snap, cur in zip(snapshots, current):
        diff = cur - np.asarray(snap)
        term = (diff * diff).sum()
        total = term if total is None else total + term
    return total * (1.0 / len(snapshots))


def _mixing_coefficient(lam) -> np.ndarray:
    """``lam`` as a float64 array, refused unless every entry is in [0, 1]."""
    lam = np.asarray(lam, dtype=np.float64)
    if np.any(lam < 0.0) or np.any(lam > 1.0):
        raise ValueError("mixing coefficient must lie in [0, 1]")
    return lam


def mixup_interpolate(xa, xb, lam):
    """Convex combination ``lam * xa + (1 - lam) * xb``."""
    sa, sb = np.shape(xa), np.shape(xb)
    if sa != sb:
        raise ValueError(f"cannot mix shapes {sa} and {sb}")
    lam = _mixing_coefficient(lam)
    if lam.ndim == 1:
        # per-sample coefficients against batched inputs
        lam = lam.reshape((-1,) + (1,) * (len(sa) - 1))
    return lam * xa + (1.0 - lam) * xb


def scaled_radius(lam, eps, kind: str = "linear"):
    """Certified radius of a virtual sample at mixing coefficient ``lam``.

    The radius shrinks toward the midpoint: with ``s = |2 lam - 1|`` the
    kinds map ``s`` through ``s``, ``s**2``, ``log2(1 + s)``, or
    ``(1 - cos(pi s)) / 2``. Every kind is 0 at the midpoint, ``eps`` at
    the endpoints, and monotone in ``s``.
    """
    lam = _mixing_coefficient(lam)
    if np.any(np.asarray(eps) < 0.0):
        raise ValueError("eps must be non-negative")
    s = np.abs(2.0 * lam - 1.0)
    if kind == "linear":
        shrink = s
    elif kind == "quadratic":
        shrink = s * s
    elif kind == "log":
        shrink = np.log2(1.0 + s)
    elif kind == "cos":
        shrink = (1.0 - np.cos(np.pi * s)) / 2.0
    else:
        raise ValueError(f"decay must be one of {DECAY_KINDS}, got {kind!r}")
    return eps * shrink


def _weighted_pair_ce(logits_a, logits_b, labels_a, labels_b, lam):
    """Batch mean of ``lam * CE(logits_a, a) + (1 - lam) * CE(logits_b, b)``."""
    ce_a = ad.softmax_cross_entropy(logits_a, labels_a, reduction="none")
    ce_b = ad.softmax_cross_entropy(logits_b, labels_b, reduction="none")
    return ad.mean(lam * ce_a + (1.0 - lam) * ce_b)


def mixup_loss(logits, labels_a, labels_b, lam):
    """Cross-entropy of mixed virtual samples against both source labels.

    ``lam`` may be one scalar for the whole batch or a per-sample vector.
    """
    return _weighted_pair_ce(logits, logits, labels_a, labels_b,
                             _mixing_coefficient(lam))


def interval_mixup_loss(bounds: IntervalTensor, logits, labels_a, labels_b,
                        lam, kappa):
    """MixUp loss fused with its worst-case counterpart.

    The clean part scores the point logits of the virtual sample against
    both source labels; the worst-case part scores the adversarial logit
    vectors taken under each label in turn, with the same weights.
    """
    _check_kappa(kappa)
    lam = _mixing_coefficient(lam)
    clean = _weighted_pair_ce(logits, logits, labels_a, labels_b, lam)
    worst = _weighted_pair_ce(worst_case_logits(bounds, labels_a),
                              worst_case_logits(bounds, labels_b),
                              labels_a, labels_b, lam)
    return kappa * clean + (1.0 - kappa) * worst


# ---- schedules -----------------------------------------------------------


def schedule_step(step: int, total: int, eps_target: float):
    """Warmup values at training step ``step`` of ``total``.

    The blend weight falls linearly from 1 toward 1/2 and is clamped there;
    the radius ramps linearly to the target over the first half of the run,
    then stays flat. Restarting per task is the caller's job: pass the
    step index within the current task.

    Returns:
        (kappa, eps) for this step.
    """
    if total < 1:
        raise ValueError(f"total steps must be positive, got {total}")
    if not 1 <= step <= total:
        raise ValueError(f"step {step} outside 1..{total}")
    if eps_target < 0.0:
        raise ValueError(f"eps must be non-negative, got {eps_target}")
    kappa = max(0.5, 1.0 - step / (2.0 * total))
    if step <= total // 2:
        eps = eps_target * (2.0 * step / total)
    else:
        eps = eps_target
    return kappa, eps


def virtual_samples(points, labels, pairs, lam_grid):
    """Interpolated samples for every (pair, coefficient) combination.

    ``pairs`` holds index pairs into ``points``; each pair is expanded once
    per coefficient in ``lam_grid``, grouped by coefficient in grid order.

    Returns:
        (inputs, labels_a, labels_b, lam) where row i mixes its pair's
        endpoints with weight lam[i] on the first endpoint.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    pairs = np.asarray(pairs)
    lam_grid = np.asarray(lam_grid, dtype=np.float64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"pairs must be shaped (P, 2), got {pairs.shape}")
    if lam_grid.ndim != 1 or lam_grid.size == 0:
        raise ValueError("need a non-empty coefficient grid")
    xa = points[pairs[:, 0]]
    xb = points[pairs[:, 1]]
    ya = labels[pairs[:, 0]]
    yb = labels[pairs[:, 1]]
    blocks = [mixup_interpolate(xa, xb, float(lam)) for lam in lam_grid]
    count = pairs.shape[0]
    return (np.concatenate(blocks, axis=0),
            np.tile(ya, lam_grid.size),
            np.tile(yb, lam_grid.size),
            np.repeat(lam_grid, count))
