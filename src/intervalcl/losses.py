"""Training losses, MixUp interpolation, and the warmup schedules.

All losses return scalars and run on the tape or on plain arrays. Each one
is a sum of batch-mean cross-entropies against target rows: one-hot rows
for hard labels, and for MixUp the rows ``lam * onehot(a)`` and
``(1 - lam) * onehot(b)``, with ``lam`` a scalar or one value per sample.
IBP and Interval MixUp share one head: the fence-sitting constant ``kappa``
blends the clean cross-entropy with the worst-case (bound-based) one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from intervalcl import autodiff as ad
from intervalcl.intervals import IntervalTensor

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
        # Written so that NaN fails each range check.
        if not 0.0 <= self.beta < np.inf:
            raise ValueError(f"beta must be finite and non-negative, got {self.beta}")
        if not 0.0 <= self.eps < np.inf:
            raise ValueError(f"eps must be finite and non-negative, got {self.eps}")
        if not 0.0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if self.decay not in DECAY_KINDS:
            raise ValueError(f"decay must be one of {DECAY_KINDS}, got {self.decay!r}")


def worst_case_logits(bounds: IntervalTensor, mask):
    """Adversarial logit vector: the lower bound where the one-hot rows
    ``mask`` hold 1 (the own class), the upper bound elsewhere."""
    if np.shape(mask) != bounds.shape:
        raise ValueError(f"mask shaped {np.shape(mask)} for bounds shaped {bounds.shape}")
    return mask * bounds.lower + (1.0 - mask) * bounds.upper


def _worst_case_head(bounds: IntervalTensor, logits, masks, targets, kappa):
    """``kappa * CE(logits, sum(targets)) + (1 - kappa) * sum over i of
    CE(worst_case_logits(bounds, masks[i]), targets[i])``: each label set's
    one-hot rows are its mask, and its target is those rows, scaled by
    ``lam`` or ``1 - lam`` for MixUp."""
    if not 0.0 <= float(kappa) <= 1.0:
        raise ValueError(f"kappa must lie in [0, 1], got {kappa}")
    clean = ad.softmax_cross_entropy(logits, sum(targets[1:], targets[0]))
    worst = [ad.softmax_cross_entropy(worst_case_logits(bounds, mask), rows)
             for mask, rows in zip(masks, targets)]
    return kappa * clean + (1.0 - kappa) * sum(worst[1:], worst[0])


def ibp_loss(bounds: IntervalTensor, logits, labels, kappa):
    """Blend of clean cross-entropy and worst-case cross-entropy.

    ``kappa`` weights the loss on the actual logits, ``1 - kappa`` the loss
    on the adversarial logit vector read off the bounds.
    """
    rows = ad.onehot(labels, bounds.shape[-1])
    return _worst_case_head(bounds, logits, [rows], [rows], kappa)


def output_reg_loss(snapshots, current):
    """Mean squared drift of the generated weight vectors of earlier tasks.

    ``snapshots`` holds the flat target vectors produced before the current
    task started, one row per earlier task (no gradient); ``current`` is the
    ``(tasks, P)`` block the live generator produces for the same
    embeddings, a Tensor slice of the training step's generated block or an
    array. Each row contributes its sum of squared differences; rows are
    averaged.
    """
    snapshots = np.asarray(snapshots, dtype=np.float64)
    if not isinstance(current, ad.Tensor):
        current = np.asarray(current, dtype=np.float64)
    if len(snapshots) == 0:
        raise ValueError("no earlier tasks to regularize")
    if snapshots.ndim != 2:
        raise ValueError(f"snapshots must hold one row per earlier task, "
                         f"got shape {snapshots.shape}")
    if snapshots.shape != current.shape:
        raise ValueError(f"snapshots shaped {snapshots.shape} vs current "
                         f"vectors shaped {current.shape}")
    diff = current - snapshots
    return (diff * diff).sum() * (1.0 / len(snapshots))


def _mixing_coefficient(lam) -> np.ndarray:
    """``lam`` as a float64 array, refused unless every entry is in [0, 1]."""
    lam = np.asarray(lam, dtype=np.float64)
    # Written so that NaN fails the range check.
    if not ((0.0 <= lam) & (lam <= 1.0)).all():
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
        if not sa or lam.size != sa[0]:
            raise ValueError(f"{lam.size} mixing coefficients for inputs "
                             f"shaped {sa}")
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
    radius = np.asarray(eps)
    if not ((0.0 <= radius) & (radius < np.inf)).all():
        raise ValueError("eps must be finite and non-negative")
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


def _mixed_targets(labels_a, labels_b, lam, classes):
    """One-hot rows ``(onehot(a), onehot(b))`` and the target rows ``(lam *
    onehot(a), (1 - lam) * onehot(b))``."""
    lam = _mixing_coefficient(lam)
    rows_a, rows_b = ad.onehot(labels_a, classes), ad.onehot(labels_b, classes)
    if rows_a.shape != rows_b.shape:
        raise ValueError(f"cannot mix labels shaped {np.shape(labels_a)} and {np.shape(labels_b)}")
    if lam.ndim:
        if lam.shape != (len(rows_a),):
            raise ValueError(f"mixing coefficients shaped {lam.shape} for "
                             f"labels shaped {np.shape(labels_a)}")
        lam = lam[:, None]
    return (rows_a, rows_b), (lam * rows_a, (1.0 - lam) * rows_b)


def interval_mixup_loss(bounds: IntervalTensor, logits, labels_a, labels_b,
                        lam, kappa):
    """MixUp loss fused with its worst-case counterpart.

    The clean part scores the point logits of the virtual sample against
    the mixed label; the worst-case part scores the adversarial logit
    vector taken under each label against that label's weighted row.
    """
    masks, targets = _mixed_targets(labels_a, labels_b, lam, bounds.shape[-1])
    return _worst_case_head(bounds, logits, masks, targets, kappa)


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
    if not 0.0 <= eps_target < np.inf:
        raise ValueError(f"eps must be finite and non-negative, got {eps_target}")
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
    if not np.issubdtype(pairs.dtype, np.integer):
        raise ValueError(f"pair indices must be integers, got {pairs.dtype}")
    count = len(points)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= count):
        raise ValueError(f"pair indices must lie in [0, {count}), got "
                         f"{pairs.min()}..{pairs.max()}")
    if lam_grid.ndim != 1 or lam_grid.size == 0:
        raise ValueError("need a non-empty coefficient grid")
    xa = points[pairs[:, 0]]
    xb = points[pairs[:, 1]]
    ya = labels[pairs[:, 0]]
    yb = labels[pairs[:, 1]]
    blocks = [mixup_interpolate(xa, xb, float(lam)) for lam in lam_grid]
    return (np.concatenate(blocks, axis=0),
            np.tile(ya, lam_grid.size),
            np.tile(yb, lam_grid.size),
            np.repeat(lam_grid, pairs.shape[0]))
