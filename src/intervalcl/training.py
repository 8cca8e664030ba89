"""Task-sequential training of the hypernetwork.

One optimizer loop trains every task: generate the current task's target
weights on the tape, propagate the point and the interval forward passes
over the step's input box, blend the losses under the warmup schedule, add
the output regularizer against weight vectors snapshotted before this task
started, and update only the generator weights and the current task's
embedding. Earlier embeddings are frozen and must come out of a task
bitwise unchanged. ``train_task`` feeds the loop mixed (or plain IBP)
minibatches, ``train_virtual`` a fixed set of interpolated samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from intervalcl import autodiff as ad
from intervalcl import evaluation
from intervalcl import losses as L
from intervalcl import nets
from intervalcl.nets import Hypernetwork, NetworkSpec, ParamSet


class NumericalDivergenceError(RuntimeError):
    """Loss or parameters stopped being finite."""


class Adam:
    """Adam with bias-corrected first and second moment estimates.

    Moment state is kept per parameter name; updates happen in place so
    aliased views (task embedding rows) stay live.

    The moments and two scratch buffers per parameter are allocated once
    and every step runs in place, allocating nothing. The in-place sequence
    performs exactly the operations, in exactly the order, of the textbook
    expressions

        m = b1 * m + (1 - b1) * g
        v = b2 * v + ((1 - b2) * g) * g
        param -= (lr * (m / (1 - b1**t))) / (sqrt(v / (1 - b2**t)) + eps)

    so each step is bitwise identical to evaluating them with temporaries.
    """

    def __init__(self, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        if lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        # name -> [m, v, scratch, scratch, step count]
        self.state: dict[str, list] = {}

    def update(self, name: str, param: np.ndarray, grad: np.ndarray):
        state = self.state.get(name)
        if state is None:
            state = [np.zeros(param.shape) for _ in range(4)] + [0]
            self.state[name] = state
        m, v, num, den, t = state
        t += 1
        state[4] = t
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=num)
        m += num
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=num)
        num *= grad
        v += num
        np.divide(m, 1.0 - self.beta1 ** t, out=num)
        num *= self.lr
        np.divide(v, 1.0 - self.beta2 ** t, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        num /= den
        param -= num


class SGD:
    """Plain gradient descent, for comparisons."""

    def __init__(self, lr=0.01):
        if lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def update(self, name: str, param: np.ndarray, grad: np.ndarray):
        param -= self.lr * grad


def make_optimizer(kind: str, lr: float):
    if kind == "adam":
        return Adam(lr=lr)
    if kind == "sgd":
        return SGD(lr=lr)
    raise ValueError(f"unknown optimizer {kind!r}")


@dataclass
class TrainerConfig:
    steps: int = 1000
    batch_size: int = 32
    lr: float = 0.001
    optimizer: str = "adam"
    loss: L.LossConfig = field(default_factory=L.LossConfig)
    use_interval_mixup: bool = True
    seed: int = 0
    val_every: int = 50
    model_selection: bool = True

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be positive, got {self.steps}")
        # Building one refuses an unknown optimizer kind and lr <= 0.
        make_optimizer(self.optimizer, self.lr)
        if self.batch_size < 1:
            raise ValueError(f"batch size must be positive, got {self.batch_size}")
        if self.use_interval_mixup and self.batch_size < 2:
            raise ValueError("mixup pairing needs a batch of at least 2")
        if self.val_every < 1:
            raise ValueError(f"val_every must be positive, got {self.val_every}")


@dataclass
class LogRow:
    step: int
    task: int
    loss_total: float
    loss_task: float
    loss_reg: float
    kappa: float
    eps: float
    eps_virtual: float
    lam: float | None
    val_loss: float | None = None


def _validation_criterion(h, spec, task, val_data, cfg, snapshots) -> float:
    """Selection score: half-blend loss at the target radius, plus the
    regularizer, all in plain numpy."""
    params = nets.generate_params(h, spec, task)
    bn_capture: list = []
    bounds = nets.forward_interval(spec, params, val_data.inputs,
                                   eps=cfg.loss.eps, bn_capture=bn_capture)
    stats = [(np.asarray(m), np.asarray(v)) for m, v in bn_capture] or None
    logits = nets.forward_point(spec, params, val_data.inputs, bn_stats=stats)
    score = float(L.ibp_loss(bounds, logits, val_data.labels, 0.5))
    if snapshots and cfg.loss.beta > 0.0:
        current = [h.generate_flat(j) for j in range(task)]
        score += cfg.loss.beta * float(L.output_reg_loss(snapshots, current))
    return score


def _freeze_batch_stats(h, spec, task, inputs, cfg):
    """One deterministic full pass at the target radius fixes the batchnorm
    moments this task will use at evaluation time."""
    if not any(layer.kind == "batchnorm" for layer in spec.layers):
        return
    params = nets.generate_params(h, spec, task)
    capture: list = []
    nets.forward_interval(spec, params, inputs, eps=cfg.loss.eps,
                          bn_capture=capture)
    h.bn_stats[task] = [(np.array(m), np.array(v)) for m, v in capture]


def _train(h: Hypernetwork, spec: NetworkSpec, task: int, cfg: TrainerConfig,
           batch, fit_inputs, val_data=None) -> list[LogRow]:
    """The optimizer loop behind :func:`train_task` and :func:`train_virtual`.

    ``batch(eps_step)`` gives one step's ``(x, labels_a, labels_b, lam,
    radius)``: the input box is ``x`` widened by ``radius`` (scalar or
    per-sample column), and ``lam`` (scalar or per sample) mixes the two
    labels, or is ``None`` for the plain IBP loss on ``labels_a``. The
    batchnorm moments are fixed from ``fit_inputs`` at the end.
    """
    if task != h.trained_tasks:
        raise ValueError(
            f"tasks must be trained in order: expected task {h.trained_tasks}, "
            f"got {task}")
    snapshots = [h.generate_flat(j) for j in range(task)]
    frozen_before = h.embeddings[:task].copy()

    leaves: dict = {}
    optimizer = make_optimizer(cfg.optimizer, cfg.lr)
    log: list[LogRow] = []
    best: tuple[float, np.ndarray, list] | None = None

    for step in range(1, cfg.steps + 1):
        kappa, eps_step = L.schedule_step(step, cfg.steps, cfg.loss.eps)
        x, labels_a, labels_b, lam, radius = batch(eps_step)

        flat, _ = h.tape_generate(task, leaves=leaves)
        params = ParamSet(spec, flat)
        logits = nets.forward_point(spec, params, x)
        bounds = nets.forward_interval(spec, params, x, eps=radius)
        if lam is None:
            task_loss = L.ibp_loss(bounds, logits, labels_a, kappa)
        else:
            task_loss = L.interval_mixup_loss(bounds, logits, labels_a,
                                              labels_b, lam, kappa)

        total, reg_value = task_loss, 0.0
        if task > 0 and cfg.loss.beta > 0.0:
            current = [h.tape_generate(j, train_embedding=False, leaves=leaves)[0]
                       for j in range(task)]
            reg = L.output_reg_loss(snapshots, current)
            total = task_loss + cfg.loss.beta * reg
            reg_value = float(reg.value)

        if not np.isfinite(total.value):
            raise NumericalDivergenceError(
                f"non-finite loss at task {task} step {step}")

        ad.zero_grads(leaves.values())
        total.backward()
        for name, leaf in leaves.items():
            if leaf.grad is not None:
                optimizer.update(name, leaf.value, leaf.grad)

        row = LogRow(step=step, task=task, loss_total=float(total.value),
                     loss_task=float(task_loss.value), loss_reg=reg_value,
                     kappa=kappa, eps=eps_step,
                     eps_virtual=float(np.mean(radius)),
                     lam=None if lam is None else float(np.mean(lam)))

        if (cfg.model_selection and val_data is not None
                and (step % cfg.val_every == 0 or step == cfg.steps)):
            score = _validation_criterion(h, spec, task, val_data, cfg, snapshots)
            row.val_loss = score
            if best is None or score < best[0]:
                best = (score, h.embeddings[task].copy(),
                        [(w.copy(), b.copy()) for w, b in h.weights])
        log.append(row)

    if best is not None:
        h.embeddings[task][:] = best[1]
        for (w, b), (bw, bb) in zip(h.weights, best[2]):
            w[:] = bw
            b[:] = bb

    if task > 0 and not np.array_equal(h.embeddings[:task], frozen_before):
        raise AssertionError("frozen embeddings changed during training")

    _freeze_batch_stats(h, spec, task, fit_inputs, cfg)
    h.trained_tasks = task + 1
    return log


def train_task(h: Hypernetwork, spec: NetworkSpec, task: int, train_data,
               cfg: TrainerConfig, val_data=None) -> list[LogRow]:
    """Train one task; returns the per-step log.

    Tasks must arrive in order. For a later task, the weight vectors the
    generator produced for all earlier tasks are snapshotted first and the
    regularizer pulls the live generator back toward them; earlier
    embeddings take no gradient at all.
    """
    inputs = np.asarray(train_data.inputs, dtype=np.float64)
    labels = np.asarray(train_data.labels)
    if inputs.shape[0] == 0:
        raise ValueError("empty training set")
    if inputs.shape[0] != labels.shape[0]:
        raise ValueError(
            f"{inputs.shape[0]} inputs vs {labels.shape[0]} labels")
    if (cfg.model_selection and val_data is not None
            and len(val_data.labels) == 0):
        raise ValueError("empty validation set: model selection has "
                         "nothing to score")

    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed,
                                                       spawn_key=(task,)))
    count, size = inputs.shape[0], cfg.batch_size

    def batch(eps_step):
        idx = rng.choice(count, size=size, replace=count < size)
        xb = inputs[idx]
        yb = labels[idx]
        if not cfg.use_interval_mixup:
            return xb, yb, None, None, eps_step
        lam = float(rng.beta(cfg.loss.alpha, cfg.loss.alpha))
        shift = rng.integers(1, size, size=size)
        partner = (np.arange(size) + shift) % size
        x_mix = L.mixup_interpolate(xb, xb[partner], lam)
        radius = float(L.scaled_radius(lam, eps_step, cfg.loss.decay))
        return x_mix, yb, yb[partner], lam, radius

    return _train(h, spec, task, cfg, batch, inputs, val_data)


def train_virtual(h: Hypernetwork, spec: NetworkSpec, task: int, inputs,
                  labels_a, labels_b, lam, cfg: TrainerConfig) -> list[LogRow]:
    """Train one task on a fixed set of interpolated samples only.

    Every step uses the whole virtual set. Each sample carries its own
    mixing coefficient, so its box radius follows the decay law at the
    scheduled radius: midpoints (lam = 0.5) train with radius zero. A later
    task is regularized and its predecessors frozen as in :func:`train_task`.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    lam = np.asarray(lam, dtype=np.float64)
    if inputs.shape[0] == 0:
        raise ValueError("empty virtual set")
    if not (inputs.shape[0] == labels_a.shape[0] == labels_b.shape[0]
            == lam.shape[0]):
        raise ValueError("virtual inputs, labels, and coefficients must "
                         "share one length")

    def batch(eps_step):
        radius = np.asarray(L.scaled_radius(lam, eps_step, cfg.loss.decay))
        return inputs, labels_a, labels_b, lam, radius[:, None]

    return _train(h, spec, task, cfg, batch, inputs)


def train_sequence(h: Hypernetwork, spec: NetworkSpec, tasks,
                   cfg: TrainerConfig, after_task=None):
    """Train all tasks in order, evaluating the clean accuracy matrix.

    After each task, every already-seen task's test split is scored with
    its own generated weights. ``after_task``, if given, is called as
    ``after_task(t, result, log)`` once task ``t`` is trained and scored.

    Returns:
        (ResultMatrix, list of per-task logs)
    """
    if len(tasks) != h.layout.task_count:
        raise ValueError(f"{len(tasks)} tasks for a hypernetwork sized for "
                         f"{h.layout.task_count}")
    for t, task_data in enumerate(tasks):
        if len(task_data.test.labels) == 0:
            raise ValueError(f"task {t} has an empty test split")
    result = evaluation.ResultMatrix(len(tasks))
    logs = []
    for t, task_data in enumerate(tasks):
        val = getattr(task_data, "val", None)
        logs.append(train_task(h, spec, t, task_data.train, cfg, val_data=val))
        for s in range(t + 1):
            params = nets.generate_params(h, spec, s)
            acc = evaluation.clean_accuracy(spec, params,
                                            tasks[s].test.inputs,
                                            tasks[s].test.labels,
                                            bn_stats=h.bn_stats.get(s))
            result.record(t, s, acc)
        if after_task is not None:
            after_task(t, result, logs[-1])
    return result, logs
