"""Optimizer oracle, the training loop's contracts, and task sequencing."""

import tracemalloc

import numpy as np
import pytest

from intervalcl import autodiff as ad
from intervalcl import evaluation as ev
from intervalcl import losses as L
from intervalcl import nets
from intervalcl import training


class Data:
    def __init__(self, inputs, labels):
        self.inputs = inputs
        self.labels = labels


def make_blobs(seed, count, centers, spread=0.04):
    """Balanced isotropic clusters inside the unit square."""
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers)
    labels = np.arange(count) % len(centers)
    rng.shuffle(labels)
    inputs = np.clip(centers[labels] + spread * rng.normal(size=(count, centers.shape[1])),
                     0.0, 1.0)
    return Data(inputs, labels)


def small_setup(task_count=1, seed=7):
    spec = nets.NetworkSpec((2,), nets.mlp_layers([12], 2), classes=2)
    h = nets.Hypernetwork(spec.total_params, 5, [16], task_count,
                          np.random.default_rng(seed))
    return spec, h


# ---- optimizers ----------------------------------------------------------


CHUNK = training.Adam.CHUNK
# 2-d shapes whose sizes straddle the chunk edges: 1, CHUNK - 1, CHUNK,
# CHUNK + 1 and 2 * CHUNK + 3 (a prime) elements.
CHUNK_SHAPES = [(1, 1), (127, 129), (128, 128), (113, 145), (1, 2 * CHUNK + 3)]


def adam_steps(shape, steps, seed=3):
    """Two parameters, one ``shape``d and one small, stepped by ``Adam(lr=0.1)``
    with interleaved names and non-contiguous gradients: every other
    element of a transposed array, so a ``(1, n)`` parameter gets one too.

    Returns the starting values, the stepped parameters and every gradient fed.
    """
    rng = np.random.default_rng(seed)
    params = {"a": rng.normal(size=shape), "b": rng.normal(size=(3, 5))}
    start = {name: p.copy() for name, p in params.items()}
    opt = training.Adam(lr=0.1)
    grads = []
    for _ in range(steps):
        for name, p in params.items():
            g = rng.normal(size=p.shape[::-1] + (2,))[..., 0].T
            assert p.size == 1 or not g.flags.c_contiguous
            opt.update(name, p, g)
            grads.append((name, g))
    return start, params, grads


def test_adam_matches_hand_stepped_reference():
    # Bitwise against the folded expressions with temporaries, in the order
    # of the chunked in-place sweep.
    b1, b2, lr, eps = 0.9, 0.999, 0.1, 1e-8
    for shape in CHUNK_SHAPES:
        start, params, grads = adam_steps(shape, 12)
        ref = {name: p.copy() for name, p in start.items()}
        moments = {name: (np.zeros(p.shape), np.zeros(p.shape), 0)
                   for name, p in start.items()}
        for name, g in grads:
            m, v, t = moments[name]
            t += 1
            m = b1 * m + g * (1.0 - b1)
            v = b2 * v + g * (1.0 - b2) * g
            moments[name] = (m, v, t)
            root = np.sqrt(1.0 - b2 ** t)
            ref[name] -= m / (np.sqrt(v) + eps * root) * (lr * root / (1.0 - b1 ** t))
        for name in params:
            assert np.array_equal(params[name], ref[name]), (shape, name)


def test_adam_is_close_to_the_textbook_form():
    # Folding the bias corrections moves rounding only: within 1e-11 of
    # the textbook step after 12 steps, relative to the largest parameter.
    for shape in CHUNK_SHAPES:
        start, params, grads = adam_steps(shape, 12)
        ref = {name: p.copy() for name, p in start.items()}
        moments = {name: (np.zeros(p.shape), np.zeros(p.shape), 0)
                   for name, p in start.items()}
        for name, g in grads:
            m, v, t = moments[name]
            t += 1
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            moments[name] = (m, v, t)
            m_hat = m / (1.0 - 0.9 ** t)
            v_hat = v / (1.0 - 0.999 ** t)
            ref[name] -= 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        for name in params:
            error = np.max(np.abs(params[name] - ref[name]))
            assert error <= 1e-11 * np.max(np.abs(ref[name])), (shape, name)
            assert not np.array_equal(params[name], start[name])


def test_adam_first_step_has_unit_scale():
    # Bias correction makes the first update lr * g / (|g| + eps).
    param = np.array([0.0])
    training.Adam(lr=0.001).update("p", param, np.array([123.0]))
    assert param[0] == pytest.approx(-0.001, rel=1e-6)


def test_adam_updates_views_in_place():
    base = np.zeros((3, 4))
    row = base[1]
    training.Adam(lr=0.5).update("row", row, np.ones(4))
    assert np.all(base[1] != 0.0)
    assert np.all(base[0] == 0.0)


def test_adam_refuses_a_strided_parameter_and_a_resized_name():
    opt = training.Adam(lr=0.1)
    column = np.zeros((4, 3))[:, 1]
    with pytest.raises(ValueError, match="C-contiguous"):
        opt.update("col", column, np.ones(4))
    opt.update("p", np.zeros(6), np.ones(6))
    with pytest.raises(ValueError, match="6"):
        opt.update("p", np.zeros(7), np.ones(7))
    with pytest.raises(ValueError, match="gradient shaped"):
        opt.update("p", np.zeros(6), np.ones((2, 3)))


def test_adam_allocates_only_its_moments():
    # After a name's first update, which allocates its two moment arrays,
    # a step allocates no array; the optimizer's scratch is one chunk pair
    # whatever the parameter size.
    sizes = (5, CHUNK - 1, 3 * CHUNK + 7)
    params = [np.zeros(n) for n in sizes]
    grads = [np.ones(n) for n in sizes]
    slack = 16 * 1024  # far below one chunk of float64 (128 KiB)
    tracemalloc.start()
    try:
        opt = training.Adam(lr=0.1)
        built = tracemalloc.get_traced_memory()[0]
        assert built <= 2 * CHUNK * 8 + slack
        for i, (p, g) in enumerate(zip(params, grads)):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            opt.update(str(i), p, g)
            current, peak = tracemalloc.get_traced_memory()
            assert peak - before <= 2 * p.nbytes + slack
            assert current - before >= 2 * p.nbytes
        for _ in range(3):
            for i, (p, g) in enumerate(zip(params, grads)):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                opt.update(str(i), p, g)
                assert tracemalloc.get_traced_memory()[1] - before <= slack
    finally:
        tracemalloc.stop()
    assert all(np.all(p < 0.0) for p in params)


def test_sgd_update():
    param = np.array([1.0])
    training.SGD(lr=0.1).update("p", param, np.array([2.0]))
    assert param[0] == pytest.approx(0.8)


def test_make_optimizer_validation():
    with pytest.raises(ValueError):
        training.make_optimizer("rmsprop", 0.1)
    with pytest.raises(ValueError):
        training.Adam(lr=0.0)


@pytest.mark.parametrize("build", [training.Adam, training.SGD,
                                   lambda lr: training.TrainerConfig(lr=lr)],
                         ids=["Adam", "SGD", "TrainerConfig"])
@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_optimizers_refuse_non_finite_learning_rate(build, lr):
    with pytest.raises(ValueError, match="learning rate"):
        build(lr)


def test_trainer_config_validation():
    training.TrainerConfig()
    with pytest.raises(ValueError):
        training.TrainerConfig(steps=0)
    with pytest.raises(ValueError):
        training.TrainerConfig(lr=0.0)
    with pytest.raises(ValueError):
        training.TrainerConfig(batch_size=1, use_interval_mixup=True)
    with pytest.raises(ValueError):
        training.TrainerConfig(val_every=0)
    with pytest.raises(ValueError, match="rmsprop"):
        training.TrainerConfig(optimizer="rmsprop")


@pytest.mark.parametrize("name,value", [
    ("steps", 2.5), ("batch_size", 4.0), ("val_every", 1.5), ("steps", True)])
def test_trainer_config_refuses_non_integer_counts(name, value):
    # Each used to construct, then fail mid-training or (val_every) not at all.
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        training.TrainerConfig(**{name: value})
    training.TrainerConfig(**{name: np.int64(4)})


@pytest.mark.parametrize("make", [
    lambda seed: training.TrainerConfig(seed=seed),
    lambda seed: ev.AttackConfig(seed=seed)], ids=["trainer", "attack"])
@pytest.mark.parametrize("value", [-1, 1.5, True])
def test_configs_refuse_bad_seeds(make, value):
    # Each used to construct, then fail at first use or (True) not at all.
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        make(value)
    assert make(np.int64(4)).seed == 4


# ---- single-task training ------------------------------------------------


def quick_cfg(**over):
    base = dict(steps=40, batch_size=16, seed=3,
                loss=L.LossConfig(eps=0.03), model_selection=False)
    base.update(over)
    return training.TrainerConfig(**base)


def test_training_is_bitwise_deterministic():
    data = make_blobs(0, 80, [[0.25, 0.25], [0.75, 0.75]])
    logs = []
    embeds = []
    for _ in range(2):
        spec, h = small_setup()
        logs.append(training.train_task(h, spec, 0, data, quick_cfg()))
        embeds.append(h.embeddings.copy())
    assert np.array_equal(embeds[0], embeds[1])
    for a, b in zip(*logs):
        assert a == b  # dataclass equality covers every float exactly


def test_training_enforces_task_order():
    data = make_blobs(1, 40, [[0.3, 0.3], [0.7, 0.7]])
    spec, h = small_setup(task_count=2)
    with pytest.raises(ValueError):
        training.train_task(h, spec, 1, data, quick_cfg())


def test_training_rejects_empty_and_mismatched_data():
    spec, h = small_setup()
    with pytest.raises(ValueError):
        training.train_task(h, spec, 0, Data(np.zeros((0, 2)), np.zeros(0, dtype=int)),
                            quick_cfg())
    spec, h = small_setup()
    with pytest.raises(ValueError):
        training.train_task(h, spec, 0, Data(np.zeros((4, 2)), np.zeros(3, dtype=int)),
                            quick_cfg())


def test_empty_validation_set_is_refused_before_training():
    data = make_blobs(2, 40, [[0.3, 0.3], [0.7, 0.7]])
    empty = Data(np.zeros((0, 2)), np.zeros(0, dtype=int))
    spec, h = small_setup()
    before = [w.copy() for w, _ in h.weights]
    with pytest.raises(ValueError, match="empty validation set"):
        training.train_task(h, spec, 0, data, quick_cfg(model_selection=True),
                            val_data=empty)
    assert all(np.array_equal(w, b) for (w, _), b in zip(h.weights, before))
    # Without model selection nothing reads the split.
    training.train_task(h, spec, 0, data, quick_cfg(steps=2), val_data=empty)


@pytest.mark.parametrize("fault", ["label", "shape"])
def test_bad_validation_split_is_refused_before_any_step(fault):
    # Used to fail only at step val_every, after Adam had moved the generator.
    data = make_blobs(2, 40, [[0.3, 0.3], [0.7, 0.7]])
    val = make_blobs(3, 20, [[0.3, 0.3], [0.7, 0.7]])
    if fault == "label":
        val.labels = val.labels.copy()
        val.labels[5] = 2  # two classes
        match = r"^validation split: .*label 2 outside \[0, 2\)"
    else:
        val.inputs = np.concatenate([val.inputs, val.inputs[:, :1]], axis=1)
        match = r"validation inputs shaped \(3,\)"
    spec, h = small_setup(task_count=2)
    embeddings = h.embeddings.copy()
    weights = [(w.copy(), b.copy()) for w, b in h.weights]
    with pytest.raises(ValueError, match=match):
        training.train_task(h, spec, 0, data,
                            quick_cfg(steps=120, val_every=100,
                                      model_selection=True),
                            val_data=val)
    assert np.array_equal(h.embeddings, embeddings)
    for (w, b), (w0, b0) in zip(h.weights, weights):
        assert np.array_equal(w, w0) and np.array_equal(b, b0)
    assert h.trained_tasks == 0


def test_first_task_log_shape_and_schedule():
    data = make_blobs(2, 60, [[0.25, 0.3], [0.7, 0.75]])
    spec, h = small_setup()
    cfg = quick_cfg()
    log = training.train_task(h, spec, 0, data, cfg)
    assert len(log) == cfg.steps
    for row in log:
        kappa, eps = L.schedule_step(row.step, cfg.steps, cfg.loss.eps)
        assert row.kappa == kappa
        assert row.eps == eps
        assert row.loss_reg == 0.0
        assert row.task == 0
        assert 0.0 <= row.lam <= 1.0
        assert row.eps_virtual == L.scaled_radius(row.lam, eps, cfg.loss.decay)
        assert np.isfinite(row.loss_total)


def test_plain_ibp_path_first_step_recomputable():
    # With mixup off, the first logged loss must equal the loss computed by
    # hand from an identical fresh model and a replayed batch draw.
    data = make_blobs(3, 50, [[0.2, 0.4], [0.8, 0.6]])
    cfg = quick_cfg(use_interval_mixup=False)

    spec, h = small_setup(seed=21)
    log = training.train_task(h, spec, 0, data, cfg)
    assert log[0].lam is None
    assert log[0].eps_virtual == log[0].eps

    _, h2 = small_setup(seed=21)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed,
                                                       spawn_key=(0,)))
    idx = rng.choice(50, size=cfg.batch_size, replace=False)
    kappa, eps = L.schedule_step(1, cfg.steps, cfg.loss.eps)
    params = nets.generate_params(h2, spec, 0)
    logits = nets.forward_point(spec, params, data.inputs[idx])
    bounds = nets.forward_interval(spec, params, data.inputs[idx], eps=eps)
    expected = float(L.ibp_loss(bounds, logits, data.labels[idx], kappa))
    assert log[0].loss_task == pytest.approx(expected, rel=1e-12)


def test_divergence_raises():
    data = Data(np.full((8, 2), np.nan), np.zeros(8, dtype=int))
    spec, h = small_setup()
    with pytest.raises(training.NumericalDivergenceError):
        training.train_task(h, spec, 0, data, quick_cfg())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("selection, message", [(False, "training logits"),
                                                (True, "validation loss")])
def test_diverged_last_step_raises(selection, message):
    # One SGD step at lr 1e300 is taken from a finite loss, and leaves
    # weights whose logits overflow to inf and NaN. Without model selection
    # the point pass after the last step sees them first; with it, a NaN
    # first score would become the best one, since no later score compares
    # below NaN.
    spec, h = small_setup()
    task = make_blobs(14, 90, [[0.25, 0.25], [0.75, 0.75]])
    task.train = Data(task.inputs[:60], task.labels[:60])
    task.val = Data(task.inputs[60:75], task.labels[60:75])
    task.test = Data(task.inputs[75:], task.labels[75:])
    cfg = quick_cfg(steps=1, optimizer="sgd", lr=1e300, model_selection=selection)
    with pytest.raises(training.NumericalDivergenceError, match=message):
        training.train_sequence(h, spec, [task], cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_test_logits_raise_after_a_finite_training_pass():
    # Weights that are finite on the training split can still give inf or
    # NaN logits on a test split; the accuracy matrix must not score them.
    spec, h = small_setup()
    task = make_blobs(14, 90, [[0.25, 0.25], [0.75, 0.75]])
    task.train = Data(task.inputs[:60], task.labels[:60])
    task.test = Data(np.full((30, 2), np.inf), task.labels[60:])
    with pytest.raises(training.NumericalDivergenceError, match="test logits"):
        training.train_sequence(h, spec, [task], quick_cfg(steps=2))


def ibp_selection_score(h, spec, task, val, eps):
    """The IBP loss at kappa = 1/2 and radius eps over the validation split,
    recomputed by hand from the generated weights."""
    params = nets.generate_params(h, spec, task)
    logits = nets.forward_point(spec, params, val.inputs)
    bounds = nets.forward_interval(spec, params, val.inputs, eps=eps)
    return float(L.ibp_loss(bounds, logits, val.labels, 0.5))


def test_model_selection_restores_best_validation_score():
    train = make_blobs(4, 120, [[0.25, 0.25], [0.75, 0.75]])
    val = make_blobs(5, 40, [[0.25, 0.25], [0.75, 0.75]])
    spec, h = small_setup()
    cfg = quick_cfg(steps=60, model_selection=True, val_every=10)
    log = training.train_task(h, spec, 0, train, cfg, val_data=val)
    scores = [row.val_loss for row in log if row.val_loss is not None]
    assert scores
    restored = ibp_selection_score(h, spec, 0, val, cfg.loss.eps)
    assert restored == pytest.approx(min(scores), abs=1e-9)


def test_model_selection_scores_the_regularizer_on_later_tasks():
    # Task 1's score adds beta times the drift of task 0's generated
    # weights from their snapshot taken before task 1 started.
    val = make_blobs(13, 40, [[0.2, 0.8], [0.8, 0.2]])
    spec, h = small_setup(task_count=2)
    cfg = quick_cfg(steps=60, val_every=10)
    training.train_task(h, spec, 0, make_blobs(4, 120, [[0.2, 0.2], [0.8, 0.8]]), cfg)
    snapshot = h.generate_flat(0)
    cfg = quick_cfg(steps=60, model_selection=True, val_every=10,
                    loss=L.LossConfig(eps=0.03, beta=0.5))
    log = training.train_task(h, spec, 1, make_blobs(12, 120, [[0.2, 0.8], [0.8, 0.2]]),
                              cfg, val_data=val)
    scores = [row.val_loss for row in log if row.val_loss is not None]
    assert len(scores) == 6
    drift = float(L.output_reg_loss([snapshot], [h.generate_flat(0)]))
    assert drift > 0.0
    restored = ibp_selection_score(h, spec, 1, val, cfg.loss.eps) + 0.5 * drift
    assert restored == pytest.approx(min(scores), abs=1e-9)


def test_no_validation_rows_without_val_data():
    data = make_blobs(6, 40, [[0.3, 0.3], [0.7, 0.7]])
    spec, h = small_setup()
    log = training.train_task(h, spec, 0, data, quick_cfg(model_selection=True))
    assert all(row.val_loss is None for row in log)


# ---- multi-task behavior -------------------------------------------------


def two_task_setup(beta, seed=9, steps=80):
    spec = nets.NetworkSpec((2,), nets.mlp_layers([12], 2), classes=2)
    h = nets.Hypernetwork(spec.total_params, 5, [16], 2, np.random.default_rng(seed))
    cfg = training.TrainerConfig(
        steps=steps, batch_size=16, seed=11,
        loss=L.LossConfig(eps=0.02, beta=beta), model_selection=False)
    task_a = make_blobs(10, 80, [[0.2, 0.2], [0.8, 0.8]])
    task_b = make_blobs(11, 80, [[0.2, 0.8], [0.8, 0.2]])
    return spec, h, cfg, task_a, task_b


def test_earlier_embeddings_are_bitwise_frozen():
    spec, h, cfg, task_a, task_b = two_task_setup(beta=0.01)
    training.train_task(h, spec, 0, task_a, cfg)
    before = h.embeddings[0].copy()
    training.train_task(h, spec, 1, task_b, cfg)
    assert np.array_equal(h.embeddings[0], before)


def test_second_task_logs_regularizer():
    spec, h, cfg, task_a, task_b = two_task_setup(beta=0.5)
    training.train_task(h, spec, 0, task_a, cfg)
    log = training.train_task(h, spec, 1, task_b, cfg)
    assert any(row.loss_reg > 0.0 for row in log)
    assert all(row.loss_total >= row.loss_task for row in log)


def test_large_beta_pins_earlier_task_outputs():
    drifts = {}
    for beta in (0.0, 1000.0):
        spec, h, cfg, task_a, task_b = two_task_setup(beta=beta)
        training.train_task(h, spec, 0, task_a, cfg)
        snapshot = h.generate_flat(0)
        training.train_task(h, spec, 1, task_b, cfg)
        drifts[beta] = np.max(np.abs(h.generate_flat(0) - snapshot))
    assert drifts[1000.0] < drifts[0.0] / 10.0
    assert drifts[1000.0] < 1e-2


def test_batchnorm_stats_are_frozen_per_task():
    spec = nets.NetworkSpec(
        (4, 4, 1),
        [nets.conv(2, 2), nets.batchnorm(), nets.act("relu"), nets.flatten(),
         nets.dense(2)],
        classes=2)
    h = nets.Hypernetwork(spec.total_params, 4, [12], 1, np.random.default_rng(12))
    rng = np.random.default_rng(13)
    data = Data(rng.uniform(size=(30, 4, 4, 1)), rng.integers(0, 2, size=30))
    cfg = quick_cfg(steps=5, batch_size=8)
    training.train_task(h, spec, 0, data, cfg)
    assert 0 in h.bn_stats
    assert len(h.bn_stats[0]) == 1
    mean, var = h.bn_stats[0][0]
    assert np.all(np.isfinite(mean)) and np.all(np.isfinite(var))
    params = nets.generate_params(h, spec, 0)
    acc1 = ev.clean_accuracy(spec, params, data.inputs, data.labels,
                             bn_stats=h.bn_stats[0])
    acc2 = ev.clean_accuracy(spec, params, data.inputs, data.labels,
                             bn_stats=h.bn_stats[0])
    assert acc1 == acc2


@pytest.mark.parametrize("eps", [0.1, 0.3])
def test_training_step_bounds_enclose_its_own_point_logits(monkeypatch, eps):
    # A step's bounds hold only for the network its point pass ran, so the
    # interval pass must normalize with the point pass's batchnorm moments.
    # The generator is one bias-only layer, which makes the target weights
    # exactly an N(0, 0.5^2) draw; one plain-IBP step at the full radius
    # hands its bounds and point logits to ibp_loss.
    spec = nets.NetworkSpec(
        (8, 8, 1),
        [nets.flatten(), nets.dense(16), nets.batchnorm(), nets.act("relu"),
         nets.dense(10)],
        classes=10)
    seen = []
    ibp_loss = L.ibp_loss

    def recording(bounds, logits, labels, kappa):
        seen.append((bounds.lower.value, logits.value, bounds.upper.value))
        return ibp_loss(bounds, logits, labels, kappa)

    monkeypatch.setattr(L, "ibp_loss", recording)
    cfg = training.TrainerConfig(steps=1, batch_size=32, use_interval_mixup=False,
                                 model_selection=False, loss=L.LossConfig(eps=eps))
    escaped = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        flat = rng.normal(scale=0.5, size=spec.total_params)
        data = Data(rng.uniform(size=(32, 8, 8, 1)), rng.integers(0, 10, size=32))
        h = nets.Hypernetwork(spec.total_params, 1, [], 1, rng)
        weight, bias = h.weights[0]
        weight[:] = 0.0
        bias[:] = flat
        training.train_task(h, spec, 0, data, cfg)
        lower, logits, upper = seen[-1]
        escaped += int(((logits < lower) | (logits > upper)).any(axis=1).sum())
    assert len(seen) == 50
    assert escaped == 0


def test_train_sequence_single_task_matrix():
    spec, h = small_setup()
    task = make_blobs(14, 90, [[0.25, 0.25], [0.75, 0.75]])
    task.train = Data(task.inputs[:60], task.labels[:60])
    task.test = Data(task.inputs[60:], task.labels[60:])
    task.val = None
    result, logs = training.train_sequence(h, spec, [task],
                                           quick_cfg(steps=120))
    assert result.values.shape == (1, 1)
    assert not np.isnan(result.values[0, 0])
    aa, bwt = ev.metrics(result)
    assert aa == result.values[0, 0]
    assert bwt is None
    assert len(logs) == 1


def test_train_sequence_repeated_task_keeps_both_accuracies_close():
    spec = nets.NetworkSpec((2,), nets.mlp_layers([12], 2), classes=2)
    h = nets.Hypernetwork(spec.total_params, 5, [16], 2, np.random.default_rng(15))
    base = make_blobs(16, 140, [[0.25, 0.25], [0.75, 0.75]])

    class T:
        pass

    tasks = []
    for _ in range(2):
        t = T()
        t.train = Data(base.inputs[:100], base.labels[:100])
        t.test = Data(base.inputs[100:], base.labels[100:])
        t.val = None
        tasks.append(t)
    cfg = training.TrainerConfig(steps=150, batch_size=20, seed=17,
                                 loss=L.LossConfig(eps=0.02, beta=0.01),
                                 model_selection=False)
    result, _ = training.train_sequence(h, spec, tasks, cfg)
    assert abs(result.values[1, 1] - result.values[1, 0]) <= 0.1


def test_train_sequence_refuses_empty_test_split_before_training():
    spec, h = small_setup(task_count=2)
    base = make_blobs(18, 60, [[0.25, 0.25], [0.75, 0.75]])

    class T:
        pass

    tasks = []
    for test_size in (20, 0):
        t = T()
        t.train = Data(base.inputs[:40], base.labels[:40])
        t.test = Data(base.inputs[40:40 + test_size],
                      base.labels[40:40 + test_size])
        t.val = None
        tasks.append(t)
    with pytest.raises(ValueError, match="task 1 has an empty test split"):
        training.train_sequence(h, spec, tasks, quick_cfg(steps=5))
    assert h.trained_tasks == 0


def test_train_sequence_task_count_mismatch():
    spec, h = small_setup(task_count=2)
    with pytest.raises(ValueError):
        training.train_sequence(h, spec, [], quick_cfg())


# ---- the tape of one step ------------------------------------------------


def second_task_step_loss():
    """The loss of one step on task 1, built the way ``training._train``
    builds it from one generated block: mixup task loss on row 1 plus the
    output regularizer on row 0, whose frozen embedding enters as a
    constant. Returns the loss and the generator's trainable leaves."""
    spec = nets.NetworkSpec((2,), nets.mlp_layers([6], 2), classes=2)
    size = spec.total_params
    h = nets.Hypernetwork(size, 3, [5], 2, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(4, 2))
    labels = np.array([0, 1, 1, 0])
    snapshots = [h.generate_flat(0)]
    leaves = {}
    block, _ = h.tape_generate(1, leaves=leaves)
    params = nets.ParamSet(spec, ad.slot(block, size, (size,)))
    logits = nets.forward_point(spec, params, x)
    bounds = nets.forward_interval(spec, params, x, eps=0.05)
    task_loss = L.interval_mixup_loss(bounds, logits, labels, labels[::-1],
                                      0.3, 0.75)
    reg = L.output_reg_loss(snapshots, ad.slot(block, 0, (1, size)))
    return task_loss + 0.5 * reg, leaves


def unpruned_order(root):
    """Parents-first DFS over every node, with no pruning."""
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if id(p) not in visited)
    return order


def test_step_tape_walk_visits_only_grad_taking_nodes_in_full_walk_order():
    loss, leaves = second_task_step_loss()
    order = ad.topological_order(loss)
    assert [id(n) for n in order] == [id(n) for n in unpruned_order(loss)]
    # The step's constants (inputs, labels, the frozen embedding) stay off
    # the tape: its only leaves are the generator's trainable ones, and
    # backward reaches each of them.
    tape_leaves = [n for n in order if not n._parents]
    assert {id(n) for n in tape_leaves} == {id(n) for n in leaves.values()}
    loss.backward()
    assert all(leaf.grad is not None for leaf in tape_leaves)


def test_later_task_step_leaves_earlier_embeddings_off_the_tape(monkeypatch):
    # One step on task 2 makes one generation, whose leaves are the
    # generator's and task 2's embedding: embeddings 0 and 1 take no
    # gradient and come out bitwise unchanged.
    spec, h = small_setup(task_count=3)
    train = make_blobs(0, 40, [[0.3, 0.3], [0.7, 0.7]])
    cfg = quick_cfg(steps=1, loss=L.LossConfig(eps=0.05, beta=0.5))
    for task in range(2):
        training.train_task(h, spec, task, train, cfg)
    frozen = h.embeddings[:2].copy()
    calls = []
    generate = nets.Hypernetwork.tape_generate

    def recording(self, task, **kwargs):
        block, leaves = generate(self, task, **kwargs)
        calls.append((task, block.shape, leaves))
        return block, leaves

    monkeypatch.setattr(nets.Hypernetwork, "tape_generate", recording)
    training.train_task(h, spec, 2, train, cfg)
    assert [(task, shape) for task, shape, _ in calls] == [
        (2, (3, spec.total_params))]
    leaves = calls[0][2]
    assert np.may_share_memory(leaves["embedding"].value, h.embeddings[2])
    assert not any(np.may_share_memory(leaf.value, h.embeddings[:2])
                   for leaf in leaves.values())
    assert all(leaf.grad is not None for leaf in leaves.values())
    assert np.array_equal(h.embeddings[:2], frozen)


@pytest.mark.parametrize("input_shape,layers,classes,embedding,hidden,pins", [
    ((2,), nets.mlp_layers([16], 3), 3, 8, [32], (52, 59, 59)),
    ((64,), nets.mlp_layers([48], 10), 10, 24, [64, 64], (56, 63, 63)),
    ((8, 8, 1), [nets.conv(8, 3), nets.batchnorm(), nets.act("relu"), nets.maxpool(2),
                 nets.flatten(), nets.dense(10)], 10, 24, [64, 64], (93, 100, 100)),
], ids=["blobs_mlp", "digits_mlp", "digits_conv"])
def test_training_backward_tape_size_is_pinned(monkeypatch, input_shape, layers,
                                               classes, embedding, hidden, pins):
    # Nodes per training backward for tasks 0/1/2 of the benchmark's three
    # architectures and trainer settings. The count depends only on the
    # architecture, so tiny random data will do. One generator pass serves
    # every task, so from task 1 on the count no longer grows with the task
    # index; the MixUp head is one cross-entropy per target-row set. A
    # change to the tape size updates these pins.
    counts = []
    walk = ad.topological_order

    def counting(root):
        order = walk(root)
        counts.append(len(order))
        return order

    monkeypatch.setattr(ad, "topological_order", counting)
    rng = np.random.default_rng(0)

    def split():
        return Data(rng.uniform(size=(6,) + input_shape),
                    rng.integers(0, classes, size=6))

    class T:
        pass

    tasks = []
    for _ in range(3):
        t = T()
        t.train, t.val, t.test = split(), split(), split()
        tasks.append(t)
    spec = nets.NetworkSpec(input_shape, layers, classes)
    h = nets.Hypernetwork(spec.total_params, embedding, hidden, 3, rng)
    cfg = training.TrainerConfig(steps=2, batch_size=4, seed=1,
                                 loss=L.LossConfig(beta=0.01, eps=0.03, alpha=0.1),
                                 use_interval_mixup=True, model_selection=False)
    training.train_sequence(h, spec, tasks, cfg)
    assert counts == [n for n in pins for _ in range(2)]


# ---- training on interpolated samples only -------------------------------


class TestTrainVirtual:
    def _virtual_set(self):
        # two endpoints per class, mixed over a fixed coefficient grid
        points = np.array([[0.25, 0.25], [0.75, 0.75],
                           [0.2, 0.3], [0.8, 0.7]])
        labels = np.array([0, 1, 0, 1])
        pairs = np.array([[0, 1], [2, 3]])
        grid = np.linspace(0.0, 1.0, 11)
        x, ya, yb, lam = L.virtual_samples(points, labels, pairs, grid)
        return points, labels, (x, ya, yb, lam)

    def test_learns_endpoints_from_virtual_only(self):
        spec, h = small_setup()
        points, labels, (x, ya, yb, lam) = self._virtual_set()
        cfg = quick_cfg(steps=150, loss=L.LossConfig(eps=0.05, decay="linear"))
        log = training.train_virtual(h, spec, 0, x, ya, yb, lam, cfg)
        assert len(log) == 150
        assert h.trained_tasks == 1
        params = nets.generate_params(h, spec, 0)
        acc = ev.clean_accuracy(spec, params, points, labels)
        assert acc == 1.0

    def test_order_enforced(self):
        spec, h = small_setup()
        _, _, (x, ya, yb, lam) = self._virtual_set()
        with pytest.raises(ValueError, match="expected task 0"):
            training.train_virtual(h, spec, 1, x, ya, yb, lam, quick_cfg())

    def test_length_mismatch_rejected(self):
        spec, h = small_setup()
        _, _, (x, ya, yb, lam) = self._virtual_set()
        with pytest.raises(ValueError, match="share one length"):
            training.train_virtual(h, spec, 0, x, ya, yb, lam[:-1], quick_cfg())

    def test_later_task_is_regularized_and_keeps_earlier_embedding(self):
        spec, h = small_setup(task_count=2)
        _, _, (x, ya, yb, lam) = self._virtual_set()
        cfg = quick_cfg(steps=20, loss=L.LossConfig(eps=0.05, beta=0.5))
        training.train_virtual(h, spec, 0, x, ya, yb, lam, cfg)
        before = h.embeddings[0].copy()
        log = training.train_virtual(h, spec, 1, x, ya, yb, lam, cfg)
        assert any(row.loss_reg > 0.0 for row in log)
        assert all(row.loss_total >= row.loss_task for row in log)
        assert np.array_equal(h.embeddings[0], before)

    def test_deterministic(self):
        _, _, (x, ya, yb, lam) = self._virtual_set()
        flats = []
        for _ in range(2):
            spec, h = small_setup()
            training.train_virtual(h, spec, 0, x, ya, yb, lam,
                                   quick_cfg(steps=25))
            flats.append(h.generate_flat(0))
        assert np.array_equal(flats[0], flats[1])


def test_train_sequence_after_task_callback():
    spec, h = small_setup(task_count=2)
    tasks = []
    for seed in (0, 1):
        train = make_blobs(seed, 40, [[0.3, 0.3], [0.7, 0.7]])
        test = make_blobs(seed + 50, 20, [[0.3, 0.3], [0.7, 0.7]])
        tasks.append(type("T", (), {"train": train, "val": None, "test": test})())
    seen = []
    training.train_sequence(h, spec, tasks, quick_cfg(steps=20),
                            after_task=lambda t, result, log: seen.append(
                                (t, np.isnan(result.values[t, t]), len(log))))
    assert [s[0] for s in seen] == [0, 1]
    assert not any(s[1] for s in seen)  # diagonal recorded before the call
    assert all(s[2] == 20 for s in seen)


def test_train_sequence_scores_each_seen_test_split_from_one_point_pass(monkeypatch):
    # After task t the t + 1 seen test splits each take one forward pass,
    # which both checks the logits are finite and scores them: 1 + 2 + 3.
    spec, h = small_setup(task_count=3)
    tasks = []
    for seed in (0, 1, 2):
        train = make_blobs(seed, 40, [[0.3, 0.3], [0.7, 0.7]])
        test = make_blobs(seed + 50, 20, [[0.3, 0.3], [0.7, 0.7]])
        tasks.append(type("T", (), {"train": train, "val": None, "test": test})())
    forward_point = nets.forward_point
    passes = []

    def counted(spec, params, x, **kwargs):
        passes.extend(s for s, task in enumerate(tasks) if x is task.test.inputs)
        return forward_point(spec, params, x, **kwargs)

    monkeypatch.setattr(nets, "forward_point", counted)
    result, _ = training.train_sequence(h, spec, tasks, quick_cfg(steps=10))
    assert sorted(passes) == [0, 0, 0, 1, 1, 2]
    monkeypatch.undo()
    for s, task in enumerate(tasks):
        assert result.values[2, s] == ev.clean_accuracy(
            spec, nets.generate_params(h, spec, s), task.test.inputs,
            task.test.labels, bn_stats=h.bn_stats.get(s))
