"""End-to-end acceptance checks, one test per criterion.

Each test covers one of the nine headline guarantees (A1-A9), so a verbose
run reports exactly one pass/fail line per criterion:

    A1  bound soundness over random architectures; exact single-layer hulls
    A2  gradients of every loss match finite differences
    A3  certified samples never flip under a strong attack at the same radius
    A4  verified accuracy ordering, monotonicity, and the mixed-sample gain
    A5  training on virtual samples alone solves and certifies the toy set
    A6  the output regularizer controls forgetting
    A7  permuted-digits sequence: accuracy, attack robustness, retention
    A8  schedule, radius, and metric formulas match closed forms
    A9  entropy-based task inference recovers task identity end to end

Trained fixtures are deterministic (seeded data, seeded init, full-batch
evaluation), so every numeric threshold below was verified against the
exact run it gates before being frozen. Printed lines document the
measured values behind each verdict.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from intervalcl.autodiff import Tensor, grad_check, slot
from intervalcl.data import (
    build_permuted_tasks,
    gen_blobs_tasks,
    gen_digits,
    gen_toy2d,
    ring_task_means,
)
from intervalcl.evaluation import (
    AttackConfig,
    ResultMatrix,
    attacked_accuracy,
    certify,
    cil_evaluate,
    cil_infer,
    clean_accuracy,
    metrics,
    pgd,
    prediction_entropy,
    verified_accuracy,
)
from intervalcl.intervals import IntervalTensor, soundness_oracle
from intervalcl.losses import (
    LossConfig,
    ibp_loss,
    interval_mixup_loss,
    mixup_interpolate,
    output_reg_loss,
    scaled_radius,
    schedule_step,
    virtual_samples,
)
from intervalcl.nets import (
    Hypernetwork,
    NetworkSpec,
    act,
    avgpool,
    batchnorm,
    conv,
    dense,
    flatten,
    forward_interval,
    forward_point,
    generate_params,
    maxpool,
    mlp_layers,
)
from intervalcl.training import TrainerConfig, train_sequence, train_virtual

INIT_KEY = 104729  # hypernetwork init stream, distinct from data/training


def fresh_hypernet(spec, task_count, embedding, hidden, seed):
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(INIT_KEY,)))
    return Hypernetwork(spec.total_params, embedding, hidden, task_count,
                        rng=rng)


@dataclass
class TrainedRun:
    name: str
    h: Hypernetwork
    spec: NetworkSpec
    tasks: list
    result: ResultMatrix
    eps: float


# ---- trained fixtures (module-scoped, deterministic) ---------------------


BLOBS_EPS = 0.1


def train_blobs(name, *, mixup, beta):
    tasks = gen_blobs_tasks(3, classes=3, dims=2, separation=0.3, spread=0.07,
                            train_size=300, val_size=60, test_size=150, seed=5)
    spec = NetworkSpec((2,), mlp_layers([16], 3), 3)
    h = fresh_hypernet(spec, 3, 8, [32], 0)
    cfg = TrainerConfig(steps=500, batch_size=32, lr=1e-3,
                        loss=LossConfig(beta=beta, eps=BLOBS_EPS, alpha=0.1),
                        use_interval_mixup=mixup, seed=0)
    result, _ = train_sequence(h, spec, tasks, cfg)
    return TrainedRun(name, h, spec, tasks, result, BLOBS_EPS)


@pytest.fixture(scope="module")
def blobs_im():
    return train_blobs("blobs+mix", mixup=True, beta=0.01)


@pytest.fixture(scope="module")
def blobs_plain():
    return train_blobs("blobs-mix", mixup=False, beta=0.01)


@pytest.fixture(scope="module")
def blobs_beta0():
    return train_blobs("blobs-reg", mixup=True, beta=0.0)


@pytest.fixture(scope="module")
def ring_run():
    means = ring_task_means(3, classes=3, radius=0.3, center=0.5,
                            task_step_degrees=40.0)
    tasks = gen_blobs_tasks(3, classes=3, dims=2, spread=0.04, train_size=300,
                            val_size=60, test_size=150, seed=11, means=means)
    spec = NetworkSpec((2,), mlp_layers([16], 3), 3)
    h = fresh_hypernet(spec, 3, 8, [32], 0)
    cfg = TrainerConfig(steps=500, batch_size=32, lr=1e-3,
                        loss=LossConfig(beta=0.01, eps=0.05, alpha=0.1),
                        use_interval_mixup=True, seed=0)
    result, _ = train_sequence(h, spec, tasks, cfg)
    return TrainedRun("ring", h, spec, tasks, result, 0.05)


@pytest.fixture(scope="module")
def digits_run():
    base = gen_digits(3000, seed=7)
    tasks = build_permuted_tasks(base.inputs, base.labels, 3, seed=7,
                                 train_size=2000, val_size=400, test_size=600)
    spec = NetworkSpec((64,), mlp_layers([48], 10), 10)
    h = fresh_hypernet(spec, 3, 24, [64, 64], 0)
    cfg = TrainerConfig(steps=1000, batch_size=64, lr=1e-3,
                        loss=LossConfig(beta=0.01, eps=0.03, alpha=0.1),
                        use_interval_mixup=True, seed=0)
    result, _ = train_sequence(h, spec, tasks, cfg)
    return TrainedRun("digits", h, spec, tasks, result, 0.03)


@dataclass
class ToyRun:
    h: Hypernetwork
    spec: NetworkSpec
    points: object
    eps: float


@pytest.fixture(scope="module")
def toy_run():
    points, pairs = gen_toy2d(12, 1, spread=0.08)
    lam_grid = np.linspace(0.0, 1.0, 11)
    xv, la, lb, lam = virtual_samples(points.inputs, points.labels, pairs,
                                      lam_grid)
    spec = NetworkSpec((2,), mlp_layers([16], 2), 2)
    h = fresh_hypernet(spec, 1, 8, [32], 0)
    cfg = TrainerConfig(steps=300, batch_size=32, lr=1e-3,
                        loss=LossConfig(beta=0.0, eps=0.05, alpha=0.1),
                        use_interval_mixup=True, seed=0)
    train_virtual(h, spec, 0, xv, la, lb, lam, cfg)
    return ToyRun(h, spec, points, 0.05)


def iter_test_splits(run: TrainedRun):
    """(task index, inputs, labels, frozen batch stats) per task."""
    for t, task in enumerate(run.tasks):
        yield t, task.test.inputs, task.test.labels, run.h.bn_stats.get(t)


# ---- A1 ------------------------------------------------------------------


def _arch_cycle():
    return [
        lambda: NetworkSpec((6,), mlp_layers([8], 4, "relu"), 4),
        lambda: NetworkSpec((5,), [dense(7), act("sigmoid"), dense(3)], 3),
        lambda: NetworkSpec((6, 6, 2), [conv(3, 3), act("relu"), avgpool(2),
                                        flatten(), dense(3)], 3),
        lambda: NetworkSpec((6, 6, 1), [conv(4, 3), batchnorm(), act("relu"),
                                        maxpool(2), flatten(), dense(3)], 3),
        lambda: NetworkSpec((6,), [dense(8), batchnorm(), act("relu"),
                                   dense(3)], 3),
    ]


def test_a1_interval_soundness():
    """Propagated bounds contain every sampled activation; affine hulls exact."""
    archs = _arch_cycle()
    draws = 50
    samples = 10_000
    worst = 0.0
    for i in range(draws):
        rng = np.random.default_rng(1000 + i)
        spec = archs[i % len(archs)]()
        params = rng.normal(scale=0.6, size=spec.total_params)
        center = rng.uniform(0.2, 0.8, size=(1,) + spec.input_shape)
        radius = rng.uniform(0.0, 0.15, size=(1,) + spec.input_shape)
        box = IntervalTensor.from_ball(center, radius)
        report = soundness_oracle(spec, params, box, samples, seed=2000 + i)
        worst = max(worst, report.max_violation)
        assert report.violations == 0, (
            f"draw {i} ({spec.layers}): {report.violations} of "
            f"{report.samples} samples escaped the bounds "
            f"(worst {report.max_violation:.3e})")

    # One affine layer admits exact hulls: with dyadic-rational weights and
    # boxes every product is exact in binary floating point, so propagated
    # bounds must equal the min/max over all input-box corners bit for bit.
    spec1 = NetworkSpec((3,), [dense(2)], 2)
    corners_sign = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    irng = np.random.default_rng(77)
    for _ in range(20):
        w = irng.integers(-24, 25, size=(2, 3)) / 16.0
        b = irng.integers(-16, 17, size=2) / 16.0
        center = irng.integers(4, 13, size=(1, 3)) / 16.0
        radius = irng.integers(0, 4, size=(1, 3)) / 16.0
        params = np.concatenate([w.reshape(-1), b])
        bounds = forward_interval(spec1, params,
                                  IntervalTensor.from_ball(center, radius))
        outs = (center + radius * corners_sign) @ w.T + b
        assert np.array_equal(np.asarray(bounds.lower)[0], outs.min(axis=0))
        assert np.array_equal(np.asarray(bounds.upper)[0], outs.max(axis=0))
    print(f"\nA1: {draws} draws x {samples} points, worst relative escape "
          f"{worst:.3e} (tolerance 1e-9); 20 affine hulls exact")


# ---- A2 ------------------------------------------------------------------


def _loss_net(rng):
    spec = NetworkSpec((3,), [dense(6), act("sigmoid"), dense(3)], 3)
    flat = Tensor(rng.normal(scale=0.8, size=spec.total_params))
    x = rng.uniform(0.1, 0.9, size=(4, 3))
    y = rng.integers(0, 3, size=4)
    return spec, flat, x, y


def test_a2_gradient_correctness():
    """Reverse-mode gradients of every loss agree with finite differences."""
    tol = 1e-4
    seeds = range(20)
    worst = {"ibp": 0.0, "mixup": 0.0, "interval_mixup": 0.0, "total": 0.0}

    for seed in seeds:
        rng = np.random.default_rng(3000 + seed)
        spec, flat, x, y = _loss_net(rng)

        def build_ibp():
            logits = forward_point(spec, flat, x)
            bounds = forward_interval(spec, flat, x, eps=0.05)
            return ibp_loss(bounds, logits, y, 0.7)

        err = grad_check(build_ibp, [flat], rng=rng, max_coords=6)
        worst["ibp"] = max(worst["ibp"], err)
        assert err <= tol, f"ibp seed {seed}: {err:.2e}"

    for seed in seeds:
        rng = np.random.default_rng(4000 + seed)
        spec, flat, x, ya = _loss_net(rng)
        yb = rng.integers(0, 3, size=4)
        lam = rng.uniform(0.0, 1.0, size=4)
        x_mix = mixup_interpolate(x, x[::-1], 0.6)

        def build_mixup():
            logits = forward_point(spec, flat, x_mix)
            # At kappa = 1 only the clean MixUp cross-entropy counts.
            box = IntervalTensor.from_ball(logits, 0.1)
            return interval_mixup_loss(box, logits, ya, yb, lam, 1.0)

        err = grad_check(build_mixup, [flat], rng=rng, max_coords=6)
        worst["mixup"] = max(worst["mixup"], err)
        assert err <= tol, f"mixup seed {seed}: {err:.2e}"

    for seed in seeds:
        rng = np.random.default_rng(5000 + seed)
        spec, flat, x, ya = _loss_net(rng)
        yb = rng.integers(0, 3, size=4)
        lam = rng.uniform(0.0, 1.0, size=4)
        radius = scaled_radius(lam, 0.05)[:, None]

        def build_imix():
            logits = forward_point(spec, flat, x)
            bounds = forward_interval(spec, flat,
                                      IntervalTensor.from_ball(x, radius))
            return interval_mixup_loss(bounds, logits, ya, yb, lam, 0.7)

        err = grad_check(build_imix, [flat], rng=rng, max_coords=6)
        worst["interval_mixup"] = max(worst["interval_mixup"], err)
        assert err <= tol, f"interval mixup seed {seed}: {err:.2e}"

    # Full training objective through the generator, built from one
    # generated block as training builds it: mixed-sample interval loss for
    # the live task's row plus the drift penalty on two earlier tasks' rows.
    for seed in seeds:
        rng = np.random.default_rng(6000 + seed)
        spec = NetworkSpec((3,), [dense(5), act("sigmoid"), dense(3)], 3)
        size = spec.total_params
        h = fresh_hypernet(spec, 3, 4, [8], seed)
        snapshots = [h.generate_flat(0), h.generate_flat(1)]
        h.trained_tasks = 2
        x = rng.uniform(0.1, 0.9, size=(4, 3))
        ya = rng.integers(0, 3, size=4)
        yb = rng.integers(0, 3, size=4)
        lam = rng.uniform(0.0, 1.0, size=4)
        radius = scaled_radius(lam, 0.05)[:, None]
        leaves: dict = {}

        def build_total():
            block, _ = h.tape_generate(2, leaves=leaves)
            params = slot(block, 2 * size, (size,))
            logits = forward_point(spec, params, x)
            bounds = forward_interval(spec, params,
                                      IntervalTensor.from_ball(x, radius))
            task_loss = interval_mixup_loss(bounds, logits, ya, yb, lam, 0.8)
            current = slot(block, 0, (2, size))
            return task_loss + 0.01 * output_reg_loss(snapshots, current)

        build_total()  # populate the shared leaf dict once
        leaf_list = [leaves[k] for k in sorted(leaves)]
        err = grad_check(build_total, leaf_list, rng=rng, max_coords=4)
        worst["total"] = max(worst["total"], err)
        assert err <= tol, f"total seed {seed}: {err:.2e}"

    print("\nA2: worst relative gradient error per loss "
          + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
          + f" (tolerance {tol:.0e}, 20 seeds each)")


# ---- A3 ------------------------------------------------------------------


def test_a3_certificates_hold_under_attack(blobs_im, blobs_plain, blobs_beta0,
                                           ring_run, digits_run, toy_run):
    """No certified sample changes prediction under a 100-step attack."""
    summary = []
    for run in (blobs_im, blobs_plain, blobs_beta0, ring_run, digits_run):
        cfg = AttackConfig(kind="pgd", eps=run.eps, iters=100, seed=3)
        certified_total = 0
        for t, inputs, labels, stats in iter_test_splits(run):
            params = generate_params(run.h, run.spec, t)
            mask = certify(run.spec, params, inputs, labels, run.eps,
                           bn_stats=stats)
            if not mask.any():
                continue
            certified_total += int(mask.sum())
            before = np.argmax(forward_point(run.spec, params, inputs[mask],
                                             bn_stats=stats), axis=1)
            adv = pgd(run.spec, params, inputs[mask], labels[mask], cfg,
                      bn_stats=stats)
            after = np.argmax(forward_point(run.spec, params, adv,
                                            bn_stats=stats), axis=1)
            flips = int((before != after).sum())
            assert flips == 0, (
                f"{run.name} task {t}: {flips} certified samples flipped "
                f"under pgd at eps={run.eps}")
        assert certified_total > 0, f"{run.name}: nothing was certified"
        summary.append(f"{run.name}={certified_total}")

    params = generate_params(toy_run.h, toy_run.spec, 0)
    pts = toy_run.points
    mask = certify(toy_run.spec, params, pts.inputs, pts.labels, toy_run.eps)
    assert mask.any()
    cfg = AttackConfig(kind="pgd", eps=toy_run.eps, iters=100, seed=3)
    before = np.argmax(forward_point(toy_run.spec, params, pts.inputs[mask]),
                       axis=1)
    adv = pgd(toy_run.spec, params, pts.inputs[mask], pts.labels[mask], cfg)
    after = np.argmax(forward_point(toy_run.spec, params, adv), axis=1)
    assert int((before != after).sum()) == 0
    summary.append(f"toy={int(mask.sum())}")
    print("\nA3: zero prediction flips among certified samples — "
          + ", ".join(summary))


# ---- A4 ------------------------------------------------------------------


def test_a4_verified_accuracy_ordering(blobs_im, blobs_plain, blobs_beta0):
    """Verified <= clean everywhere, monotone in the radius, and the
    mixed-sample run certifies more at matched clean accuracy."""
    for run in (blobs_im, blobs_plain, blobs_beta0):
        for t, inputs, labels, stats in iter_test_splits(run):
            params = generate_params(run.h, run.spec, t)
            clean = clean_accuracy(run.spec, params, inputs, labels,
                                   bn_stats=stats)
            verified = verified_at(run, t, run.eps)
            assert verified <= clean + 1e-12, (
                f"{run.name} task {t}: verified {verified} > clean {clean}")

    grid = [0.0, 0.02, 0.05, 0.1, 0.15, 0.2]
    for t, inputs, labels, stats in iter_test_splits(blobs_im):
        params = generate_params(blobs_im.h, blobs_im.spec, t)
        curve = [verified_at(blobs_im, t, e) for e in grid]
        clean = clean_accuracy(blobs_im.spec, params, inputs, labels,
                               bn_stats=stats)
        assert curve[0] == clean, "zero radius must reproduce clean accuracy"
        for a, b in zip(curve, curve[1:]):
            assert b <= a + 1e-12, f"verified accuracy rose along {grid}: {curve}"

    clean_im = mean_clean(blobs_im)
    clean_plain = mean_clean(blobs_plain)
    ver_im = mean_verified(blobs_im, BLOBS_EPS)
    ver_plain = mean_verified(blobs_plain, BLOBS_EPS)
    assert abs(clean_im - clean_plain) <= 0.02, (
        f"clean accuracies diverged ({clean_im:.3f} vs {clean_plain:.3f}); "
        "the verified comparison needs matched runs")
    assert ver_im >= ver_plain, (
        f"mixed-sample training certified less: {ver_im:.3f} < {ver_plain:.3f}")
    print(f"\nA4: clean {clean_im:.3f} (mix) vs {clean_plain:.3f} (plain); "
          f"verified {ver_im:.3f} >= {ver_plain:.3f} at eps={BLOBS_EPS}")


def verified_at(run: TrainedRun, task: int, eps: float) -> float:
    params = generate_params(run.h, run.spec, task)
    data = run.tasks[task].test
    return verified_accuracy(run.spec, params, data.inputs, data.labels, eps,
                             bn_stats=run.h.bn_stats.get(task))


def mean_clean(run: TrainedRun) -> float:
    accs = [clean_accuracy(run.spec, generate_params(run.h, run.spec, t),
                           inputs, labels, bn_stats=stats)
            for t, inputs, labels, stats in iter_test_splits(run)]
    return float(np.mean(accs))


def mean_verified(run: TrainedRun, eps: float) -> float:
    return float(np.mean([verified_at(run, t, eps)
                          for t in range(len(run.tasks))]))


# ---- A5 ------------------------------------------------------------------


def test_a5_virtual_samples_carry_the_toy_problem(toy_run):
    """Virtual-only training classifies all real points and certifies 90%."""
    params = generate_params(toy_run.h, toy_run.spec, 0)
    pts = toy_run.points
    clean = clean_accuracy(toy_run.spec, params, pts.inputs, pts.labels)
    mask = certify(toy_run.spec, params, pts.inputs, pts.labels, toy_run.eps)
    assert clean == 1.0, f"clean accuracy {clean} on the real toy points"
    assert mask.mean() >= 0.9, f"only {mask.mean():.2f} certified"

    # Brute-force confirmation of each certificate: a dense grid over the
    # whole input box must keep the prediction constant.
    offsets = np.linspace(-toy_run.eps, toy_run.eps, 21)
    shifts = np.array(list(itertools.product(offsets, offsets)))
    for x, label in zip(pts.inputs[mask], pts.labels[mask]):
        probes = np.clip(x[None, :] + shifts, 0.0, 1.0)
        pred = np.argmax(forward_point(toy_run.spec, params, probes), axis=1)
        assert np.all(pred == label), "certificate contradicted by grid scan"
    total = pts.labels.size
    print(f"\nA5: clean {total}/{total} real points, certified "
          f"{int(mask.sum())}/{total} at eps={toy_run.eps}; every "
          "certificate survived a 21x21 grid scan")


# ---- A6 ------------------------------------------------------------------


def test_a6_regularizer_controls_forgetting(blobs_im, blobs_beta0):
    """With the drift penalty the sequence retains accuracy; without it,
    backward transfer is strictly worse."""
    with_reg = metrics(blobs_im.result)
    without = metrics(blobs_beta0.result)
    assert with_reg.average_accuracy >= 0.85, with_reg
    assert with_reg.backward_transfer >= -0.05, with_reg
    assert without.backward_transfer < with_reg.backward_transfer, (
        f"dropping the penalty did not hurt: {without.backward_transfer:.3f} "
        f"vs {with_reg.backward_transfer:.3f}")
    print(f"\nA6: AA={with_reg.average_accuracy:.3f}, "
          f"BWT={with_reg.backward_transfer:.3f} with penalty; "
          f"BWT={without.backward_transfer:.3f} without")


# ---- A7 ------------------------------------------------------------------


def test_a7_permuted_digits_sequence(digits_run):
    """Three permuted-digit tasks stay accurate, robust, and retained."""
    m = metrics(digits_run.result)
    assert m.average_accuracy >= 0.85, m
    assert m.backward_transfer >= -0.05, m

    cfg = AttackConfig(kind="pgd", eps=digits_run.eps, iters=100, seed=3)
    attacked = []
    for t, inputs, labels, stats in iter_test_splits(digits_run):
        params = generate_params(digits_run.h, digits_run.spec, t)
        attacked.append(attacked_accuracy(digits_run.spec, params, inputs,
                                          labels, cfg, bn_stats=stats))
    attacked_aa = float(np.mean(attacked))
    assert m.average_accuracy - attacked_aa <= 0.15, (
        f"attack dropped accuracy too far: clean {m.average_accuracy:.3f}, "
        f"attacked {attacked_aa:.3f}")
    print(f"\nA7: clean AA={m.average_accuracy:.3f}, "
          f"attacked AA={attacked_aa:.3f} (pgd-100, eps={digits_run.eps}), "
          f"BWT={m.backward_transfer:.3f}")


# ---- A8 ------------------------------------------------------------------


def test_a8_formula_exactness():
    """Radius scaling, warmup schedule, summary metrics, and entropy
    selection reproduce independently computed closed forms."""
    kinds = ("linear", "quadratic", "log", "cos")
    for kind in kinds:
        assert scaled_radius(0.5, 0.3, kind) == 0.0
        assert scaled_radius(0.0, 0.3, kind) == 0.3
        assert scaled_radius(1.0, 0.3, kind) == 0.3
    assert scaled_radius(0.75, 0.2, "linear") == 0.1

    total, target = 10, 0.4
    for i in range(1, total + 1):
        kappa, eps = schedule_step(i, total, target)
        assert kappa == max(0.5, 1.0 - i / (2.0 * total))
        expect_eps = target * (2.0 * i / total) if i <= total // 2 else target
        assert eps == expect_eps
    assert schedule_step(total, total, target)[0] == 0.5

    r = ResultMatrix(2)
    r.record(0, 0, 0.9)
    r.record(1, 0, 0.8)
    r.record(1, 1, 0.7)
    m = metrics(r)
    assert m.average_accuracy == (0.8 + 0.7) / 2.0
    assert m.backward_transfer == 0.8 - 0.9
    flat = ResultMatrix(3)
    for t in range(3):
        for s in range(t + 1):
            flat.record(t, s, 0.6)
    assert metrics(flat).backward_transfer == 0.0

    assert int(np.argmin([0.3, 0.1, 0.5])) == 1
    uniform = np.full((1, 2), 0.5)
    assert prediction_entropy(uniform)[0] == pytest.approx(np.log(2.0),
                                                           abs=1e-15)
    one_hot = np.array([[0.0, 1.0, 0.0]])
    assert prediction_entropy(one_hot)[0] == 0.0
    skewed = np.array([[0.9, 0.05, 0.05]])
    assert prediction_entropy(one_hot)[0] < prediction_entropy(skewed)[0]
    print("\nA8: radius law, warmup schedule, accuracy/retention metrics, "
          "and entropy selection all match closed forms")


# ---- A9 ------------------------------------------------------------------


def test_a9_entropy_task_inference(ring_run):
    """Lowest-entropy head recovers the task; end-to-end accuracy holds."""
    outcome = cil_evaluate(ring_run.h, ring_run.spec,
                           [t.test for t in ring_run.tasks])
    assert outcome["task_inference_accuracy"] >= 0.9, outcome
    assert outcome["accuracy"] >= 0.8, outcome

    # Brute-force cross-check on every sample: recompute each head's
    # softmax entropy directly and take the argmin by hand.
    for t, inputs, labels, _ in iter_test_splits(ring_run):
        task_pred, class_pred = cil_infer(ring_run.h, ring_run.spec, inputs)
        entropies = np.empty((inputs.shape[0], len(ring_run.tasks)))
        argmaxes = np.empty_like(entropies, dtype=np.int64)
        for s in range(len(ring_run.tasks)):
            params = generate_params(ring_run.h, ring_run.spec, s)
            logits = forward_point(ring_run.spec, params, inputs,
                                   bn_stats=ring_run.h.bn_stats.get(s))
            shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs = shifted / shifted.sum(axis=1, keepdims=True)
            entropies[:, s] = -np.sum(
                np.where(probs > 0.0, probs * np.log(probs), 0.0), axis=1)
            argmaxes[:, s] = logits.argmax(axis=1)
        by_hand_task = entropies.argmin(axis=1)
        by_hand_class = argmaxes[np.arange(inputs.shape[0]), by_hand_task]
        assert np.array_equal(task_pred, by_hand_task)
        assert np.array_equal(class_pred, by_hand_class)
    print(f"\nA9: task inference {outcome['task_inference_accuracy']:.3f}, "
          f"end-to-end accuracy {outcome['accuracy']:.3f}; argmin-entropy "
          "selection matches the per-sample scan everywhere")
