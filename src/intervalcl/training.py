"""Task-sequential training of the hypernetwork.

One optimizer loop trains every task. Each step makes one generator pass
on the tape over the current task's embedding stacked under every earlier
task's, giving one row of target weights per task. The current task's row
feeds the point forward pass and then the interval pass (with the point
pass's batchnorm moments) over the step's input box, and the losses are
blended under the warmup schedule. The earlier rows feed the output
regularizer, against the weight vectors snapshotted before this task
started. Only the generator weights and the current task's embedding are
updated: earlier embeddings enter the pass as constants and must come out
of a task bitwise unchanged.
``train_task`` feeds the loop mixed (or plain IBP) minibatches,
``train_virtual`` a fixed set of interpolated samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from intervalcl import autodiff as ad
from intervalcl import evaluation
from intervalcl import losses as L
from intervalcl import nets
from intervalcl.nets import Hypernetwork, NetworkSpec


class NumericalDivergenceError(RuntimeError):
    """Loss, validation score or test logits stopped being finite."""


class Adam:
    """Adam with bias-corrected first and second moment estimates.

    Only the learning rate is set. ``b1``, ``b2`` and ``eps`` below are the
    class constants ``BETA1``, ``BETA2`` and ``EPS``, the defaults of Kingma
    & Ba (arXiv:1412.6980). Moment state is kept per parameter name as two
    flat arrays; updates happen in place so aliased views (task embedding
    rows) stay live.

    Each step is the folded form from the end of the paper's §2, which puts
    both bias corrections into the step size and epsilon:

        m = b1 * m + (1 - b1) * g
        v = b2 * v + ((1 - b2) * g) * g
        param -= (m / (sqrt(v) + eps_t)) * lr_t

    with ``lr_t = lr * sqrt(1 - b2**t) / (1 - b1**t)`` and ``eps_t = eps *
    sqrt(1 - b2**t)`` computed once per call as Python floats. It equals
    the textbook step in real arithmetic; in float64 only the rounding
    differs (within 1e-11 relative after 12 steps).

    The step sweeps the flattened parameter in chunks of ``CHUNK`` elements,
    so each chunk's six operands (``m``, ``v``, ``param``, ``g`` and two
    scratch buffers: 6 x 128 KiB at ``1 << 14`` float64) stay in a 2 MiB
    per-core L2 cache across the twelve passes. On the digits_mlp leaves
    (the 3610 x 64 generator output layer among them), chunks of 8k to 64k
    elements measured within about 15% of each other on a 2-core x86-64
    host, and one unchunked sweep was about 40% slower. The scratch pair is
    one chunk-sized buffer owned by the optimizer, so after a name's first
    update (which allocates its moments) a step with a C-contiguous
    gradient allocates nothing.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
    CHUNK = 1 << 14

    def __init__(self, lr=0.001):
        if not 0.0 < lr < np.inf:  # NaN fails too
            raise ValueError(f"learning rate must be finite and positive, got {lr}")
        self.lr = lr
        # name -> [m, v, step count], the moments flat
        self.state: dict[str, list] = {}
        self._scratch = np.empty((2, self.CHUNK))

    def update(self, name: str, param: np.ndarray, grad: np.ndarray):
        # reshape(-1) of a non-contiguous array is a copy: the update
        # would land in it and be lost.
        if not param.flags.c_contiguous:
            raise ValueError(f"parameter {name!r} is not C-contiguous")
        if grad.shape != param.shape:
            raise ValueError(f"gradient shaped {grad.shape} for parameter "
                             f"{name!r} shaped {param.shape}")
        flat, g = param.reshape(-1), grad.reshape(-1)
        size = flat.size
        state = self.state.get(name)
        if state is None:
            state = self.state[name] = [np.zeros(size), np.zeros(size), 0]
        m, v, t = state
        if m.size != size:
            raise ValueError(f"parameter {name!r} has {size} elements, "
                             f"its moments {m.size}")
        t = state[2] = t + 1
        b1, b2 = self.BETA1, self.BETA2
        root = math.sqrt(1.0 - b2 ** t)
        lr_t = self.lr * root / (1.0 - b1 ** t)
        eps_t = self.EPS * root
        scratch_a, scratch_b = self._scratch
        for lo in range(0, size, self.CHUNK):
            hi = min(lo + self.CHUNK, size)
            mc, vc, gc = m[lo:hi], v[lo:hi], g[lo:hi]
            a, b = scratch_a[:hi - lo], scratch_b[:hi - lo]
            mc *= b1
            np.multiply(gc, 1.0 - b1, out=a)
            mc += a
            vc *= b2
            np.multiply(gc, 1.0 - b2, out=a)
            a *= gc
            vc += a
            np.sqrt(vc, out=b)
            b += eps_t
            np.divide(mc, b, out=a)
            a *= lr_t
            flat[lo:hi] -= a


class SGD:
    """Plain gradient descent, for comparisons."""

    def __init__(self, lr=0.01):
        if not 0.0 < lr < np.inf:  # NaN fails too
            raise ValueError(f"learning rate must be finite and positive, got {lr}")
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
        for name in ("steps", "batch_size", "val_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


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


def _finish_task(h, spec, task, inputs):
    """One point pass over the training split with the final weights.

    It refuses weights whose logits are not finite (a diverged last step
    can leave a finite loss) and fixes the batchnorm moments this task
    will use at evaluation time.
    """
    capture: list = []
    logits = nets.forward_point(spec, nets.generate_params(h, spec, task), inputs,
                                bn_capture=capture)
    if not np.isfinite(logits).all():
        raise NumericalDivergenceError(
            f"non-finite training logits after task {task}")
    if spec.batchnorm_layers:
        h.bn_stats[task] = capture


def _train(h: Hypernetwork, spec: NetworkSpec, task: int, cfg: TrainerConfig,
           batch, fit_inputs, val_data=None) -> list[LogRow]:
    """The optimizer loop behind :func:`train_task` and :func:`train_virtual`.

    ``batch(eps_step)`` gives one step's ``(x, labels_a, labels_b, lam,
    radius)``: the input box is ``x`` widened by ``radius`` (scalar or
    per-sample column), and ``lam`` (scalar or per sample) mixes the two
    labels, or is ``None`` for the plain IBP loss on ``labels_a``. At the
    end one point pass over ``fit_inputs`` refuses non-finite logits and
    fixes the batchnorm moments. Model selection scores the step's
    objective over ``val_data`` at ``kappa = 0.5``, radius ``cfg.loss.eps``
    and no mixing.
    """
    if task != h.trained_tasks:
        raise ValueError(
            f"tasks must be trained in order: expected task {h.trained_tasks}, "
            f"got {task}")
    size = h.layout.target_size
    snapshots = np.array([h.generate_flat(j) for j in range(task)])
    frozen_before = h.embeddings[:task].copy()
    regularized = task > 0 and cfg.loss.beta > 0.0

    def objective(flat, earlier, kappa, x, labels_a, labels_b, lam, radius):
        """``(total, task loss, regularizer)``, on the tape or on arrays;
        ``earlier`` (the earlier tasks' rows) is read only if regularized."""
        stats: list = []
        logits = nets.forward_point(spec, flat, x, bn_capture=stats)
        bounds = nets.forward_interval(spec, flat, x, eps=radius, bn_stats=stats)
        task_loss = (L.ibp_loss(bounds, logits, labels_a, kappa) if lam is None else
                     L.interval_mixup_loss(bounds, logits, labels_a, labels_b, lam, kappa))
        if not regularized:  # the task loss itself: no extra tape node
            return task_loss, task_loss, 0.0
        reg = L.output_reg_loss(snapshots, earlier)
        return task_loss + cfg.loss.beta * reg, task_loss, reg

    leaves: dict = {}
    optimizer = make_optimizer(cfg.optimizer, cfg.lr)
    log: list[LogRow] = []
    best: tuple[float, np.ndarray, list] | None = None

    for step in range(1, cfg.steps + 1):
        kappa, eps_step = L.schedule_step(step, cfg.steps, cfg.loss.eps)
        x, labels_a, labels_b, lam, radius = batch(eps_step)

        block, _ = h.tape_generate(task, leaves=leaves)
        total, task_loss, reg = objective(
            ad.slot(block, task * size, (size,)),
            ad.slot(block, 0, (task, size)) if regularized else None,
            kappa, x, labels_a, labels_b, lam, radius)
        if not np.isfinite(total.value):
            raise NumericalDivergenceError(
                f"non-finite loss at task {task} step {step}")

        ad.zero_grads(leaves.values())
        total.backward()
        for name, leaf in leaves.items():
            if leaf.grad is not None:
                optimizer.update(name, leaf.value, leaf.grad)

        row = LogRow(step=step, task=task, loss_total=float(total.value),
                     loss_task=float(task_loss.value), loss_reg=float(ad.payload(reg)),
                     kappa=kappa, eps=eps_step,
                     eps_virtual=float(np.mean(radius)),
                     lam=None if lam is None else float(np.mean(lam)))

        if (cfg.model_selection and val_data is not None
                and (step % cfg.val_every == 0 or step == cfg.steps)):
            earlier = [h.generate_flat(j) for j in range(task)] if regularized else None
            score = row.val_loss = float(objective(
                nets.generate_params(h, spec, task), earlier, 0.5,
                val_data.inputs, val_data.labels, None, None, cfg.loss.eps)[0])
            # A NaN first score would become ``best`` and never be beaten.
            if not np.isfinite(score):
                raise NumericalDivergenceError(
                    f"non-finite validation loss at task {task} step {step}")
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

    _finish_task(h, spec, task, fit_inputs)
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
    if cfg.model_selection and val_data is not None:
        if len(val_data.labels) == 0:
            raise ValueError("empty validation set: model selection has "
                             "nothing to score")
        # Refused here, not at step val_every after the generator has moved.
        try:
            ad.check_labels(val_data.labels, len(val_data.inputs), spec.classes)
        except ValueError as err:
            raise ValueError(f"validation split: {err}") from None
        if np.shape(val_data.inputs)[1:] != spec.input_shape:
            raise ValueError(
                f"validation inputs shaped {np.shape(val_data.inputs)[1:]} per "
                f"sample, network reads {spec.input_shape}")

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
            test = tasks[s].test
            logits = nets.forward_point(spec, nets.generate_params(h, spec, s),
                                        test.inputs, bn_stats=h.bn_stats.get(s))
            # A diverged last step leaves finite loss but inf/NaN logits,
            # whose argmax would read as an accuracy.
            if s == t and not np.isfinite(logits).all():
                raise NumericalDivergenceError(
                    f"non-finite test logits after training task {t}")
            result.record(t, s, evaluation._logit_accuracy(logits, test.labels))
        if after_task is not None:
            after_task(t, result, logs[-1])
    return result, logs
