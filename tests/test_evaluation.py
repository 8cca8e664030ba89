"""Attacks, certification, metrics, and task inference."""

import numpy as np
import pytest

from intervalcl import autodiff as ad
from intervalcl import evaluation as ev
from intervalcl import losses as L
from intervalcl import nets
from intervalcl import training
from intervalcl.autodiff import Tensor


def identity_head_spec():
    return nets.NetworkSpec((2,), [nets.dense(2)], classes=2)


def identity_params(spec, scale=1.0):
    flat = np.concatenate([(scale * np.eye(2)).reshape(-1), np.zeros(2)])
    return nets.ParamSet(spec, flat)


def fgsm_reference(spec, params, x, y, eps, bn_stats=None):
    """FGSM by its formula: clip(x + eps * sign(grad_x CE), 0, 1)."""
    xt = Tensor(x.copy())
    logits = nets.forward_point(spec, params, xt, bn_stats=bn_stats)
    ad.softmax_cross_entropy(logits, y).backward()
    return np.clip(x + eps * np.sign(xt.grad), 0.0, 1.0)


@pytest.fixture(scope="module")
def trained_blobs_model():
    """One task of well-separated 2-d blobs, trained briefly."""
    rng = np.random.default_rng(100)
    centers = np.array([[0.25, 0.25], [0.75, 0.75]])
    y = rng.integers(0, 2, size=240)
    x = np.clip(centers[y] + 0.04 * rng.normal(size=(240, 2)), 0.0, 1.0)

    class Data:
        inputs, labels = x, y

    spec = nets.NetworkSpec((2,), nets.mlp_layers([16], 2), classes=2)
    h = nets.Hypernetwork(spec.total_params, 6, [24], 1, np.random.default_rng(7))
    cfg = training.TrainerConfig(
        steps=250, batch_size=32, seed=5,
        loss=L.LossConfig(eps=0.04, alpha=0.1, decay="linear"),
        model_selection=False)
    training.train_task(h, spec, 0, Data, cfg)
    params = nets.generate_params(h, spec, 0)
    return spec, params, Data


def test_attack_config_validation():
    ev.AttackConfig(kind="fgsm", eps=0.1)
    with pytest.raises(ValueError):
        ev.AttackConfig(kind="jsma")
    with pytest.raises(ValueError, match="'none'"):
        ev.AttackConfig(kind="none")  # no attack is attack_cfg=None
    with pytest.raises(ValueError):
        ev.AttackConfig(eps=-0.1)
    with pytest.raises(ValueError):
        ev.AttackConfig(step=0.0)
    with pytest.raises(ValueError):
        ev.AttackConfig(iters=0)


@pytest.mark.parametrize("name", ["eps", "step"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_attack_config_refuses_non_finite(name, value):
    with pytest.raises(ValueError, match=f"attack {name}"):
        ev.AttackConfig(**{"eps": 0.1, name: value})


def test_fgsm_zero_eps_is_identity():
    spec = identity_head_spec()
    params = identity_params(spec)
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(8, 2))
    y = rng.integers(0, 2, size=8)
    adv = ev.attack(spec, params, x, y, ev.AttackConfig(kind="fgsm", eps=0.0))
    assert np.array_equal(adv, x)


def test_fgsm_moves_against_true_class_and_clips():
    # Logits (x0, x1) under the identity head: for label 0 the loss falls in
    # x0 and rises in x1, so FGSM steps x0 down and x1 up.
    spec = identity_head_spec()
    params = identity_params(spec)
    x = np.array([[0.5, 0.5], [0.05, 0.98]])
    y = np.array([0, 0])
    adv = ev.attack(spec, params, x, y, ev.AttackConfig(kind="fgsm", eps=0.1))
    assert np.allclose(adv[0], [0.4, 0.6])
    assert np.allclose(adv[1], [0.0, 1.0])  # clipped at both box faces


def test_pgd_single_full_step_equals_fgsm():
    rng = np.random.default_rng(1)
    dense = nets.NetworkSpec((3,), nets.mlp_layers([5], 2), classes=2)
    conv = nets.NetworkSpec(
        (5, 5, 1), [nets.conv(2, 3), nets.batchnorm(), nets.act("relu"),
                    nets.maxpool(2), nets.flatten(), nets.dense(3)], classes=3)
    stats = [(rng.normal(size=2), rng.uniform(0.5, 2.0, size=2))]
    for spec, bn_stats in ((dense, None), (conv, None), (conv, stats)):
        params = nets.ParamSet(spec, rng.normal(size=spec.total_params))
        x = rng.uniform(size=(7,) + spec.input_shape)
        x.reshape(7, -1)[:2, 0] = 0.0, 1.0  # steps may leave both box faces
        y = rng.integers(0, spec.classes, size=7)
        want = fgsm_reference(spec, params, x, y, 0.07, bn_stats=bn_stats)
        cfg = ev.AttackConfig(kind="pgd", eps=0.07, step=0.07, iters=1,
                              random_start=False)
        assert np.array_equal(ev.pgd(spec, params, x, y, cfg, bn_stats), want)
        # kind="fgsm" takes one full step whatever the PGD settings say
        fgsm = ev.AttackConfig(kind="fgsm", eps=0.07, step=0.01, iters=40, seed=3)
        assert np.array_equal(ev.attack(spec, params, x, y, fgsm, bn_stats), want)


def test_pgd_respects_ball_and_box():
    spec = nets.NetworkSpec((4,), nets.mlp_layers([6], 3), classes=3)
    rng = np.random.default_rng(2)
    params = nets.ParamSet(spec, rng.normal(size=spec.total_params))
    x = rng.uniform(size=(10, 4))
    y = rng.integers(0, 3, size=10)
    cfg = ev.AttackConfig(kind="pgd", eps=0.1, iters=20, seed=3)
    adv = ev.pgd(spec, params, x, y, cfg)
    assert np.all(np.abs(adv - x) <= 0.1 + 1e-12)
    assert np.all(adv >= 0.0)
    assert np.all(adv <= 1.0)


def test_pgd_random_start_is_seeded():
    spec = identity_head_spec()
    params = identity_params(spec)
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(5, 2))
    y = rng.integers(0, 2, size=5)
    cfg = ev.AttackConfig(kind="pgd", eps=0.05, iters=3, seed=11)
    assert np.array_equal(ev.pgd(spec, params, x, y, cfg),
                          ev.pgd(spec, params, x, y, cfg))


def test_attack_accuracy_ordering_on_trained_model(trained_blobs_model):
    spec, params, data = trained_blobs_model
    clean = ev.clean_accuracy(spec, params, data.inputs, data.labels)
    assert clean >= 0.95
    fg = ev.attacked_accuracy(spec, params, data.inputs, data.labels,
                              ev.AttackConfig(kind="fgsm", eps=0.04))
    pg = ev.attacked_accuracy(spec, params, data.inputs, data.labels,
                              ev.AttackConfig(kind="pgd", eps=0.04, iters=30))
    assert fg <= clean + 1e-12
    assert pg <= fg + 0.05  # PGD is at least as strong up to noise
    zero = ev.attacked_accuracy(spec, params, data.inputs, data.labels,
                                ev.AttackConfig(kind="pgd", eps=0.0))
    assert zero == clean


def test_certify_identity_head_cases():
    spec = identity_head_spec()
    params = identity_params(spec)
    x = np.array([[0.6, 0.2]])
    # Bounds [0.5, 0.7] vs [0.1, 0.3]: certified for class 0.
    assert ev.certify(spec, params, x, np.array([0]), 0.1)[0]
    # Bounds overlap at eps 0.25: not certified.
    assert not ev.certify(spec, params, x, np.array([0]), 0.25)[0]
    # Wrong class is never certified here.
    assert not ev.certify(spec, params, x, np.array([1]), 0.1)[0]


def test_certify_requires_strict_separation():
    spec = identity_head_spec()
    params = identity_params(spec)
    x = np.array([[0.5, 0.5]])
    assert not ev.certify(spec, params, x, np.array([0]), 0.0)[0]


@pytest.mark.parametrize("eps", [np.nan, np.inf])
def test_certify_refuses_non_finite_radius(eps):
    # NaN bounds used to certify nothing without an error; an infinite
    # radius raised a RuntimeWarning inside the affine rule.
    spec = identity_head_spec()
    params = identity_params(spec)
    x = np.array([[0.6, 0.2]])
    with pytest.raises(ValueError, match="finite and non-negative"):
        ev.certify(spec, params, x, np.array([0]), eps)
    with pytest.raises(ValueError, match="finite and non-negative"):
        ev.verified_accuracy(spec, params, x, np.array([0]), eps)


@pytest.mark.parametrize("labels,match", [
    (np.array([0, -1]), "out of range"),  # used to certify against class K-1
    (np.array([0, 2]), "out of range"),
    (np.array([0]), "does not match batch"),
    (np.array([0, 1, 1]), "does not match batch"),
])
def test_certify_refuses_bad_labels(labels, match):
    spec = identity_head_spec()
    params = identity_params(spec)
    x = np.array([[0.6, 0.2], [0.2, 0.6]])
    with pytest.raises(ValueError, match=match):
        ev.certify(spec, params, x, labels, 0.1)


def test_verified_accuracy_zero_eps_equals_clean(trained_blobs_model):
    spec, params, data = trained_blobs_model
    clean = ev.clean_accuracy(spec, params, data.inputs, data.labels)
    ver = ev.verified_accuracy(spec, params, data.inputs, data.labels, 0.0)
    assert ver == pytest.approx(clean)


def test_verified_accuracy_monotone_in_eps(trained_blobs_model):
    spec, params, data = trained_blobs_model
    grid = [0.0, 0.01, 0.02, 0.04, 0.08, 0.15]
    vals = [ev.verified_accuracy(spec, params, data.inputs, data.labels, e)
            for e in grid]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    clean = ev.clean_accuracy(spec, params, data.inputs, data.labels)
    assert all(v <= clean + 1e-12 for v in vals)


def test_certified_samples_survive_pgd(trained_blobs_model):
    spec, params, data = trained_blobs_model
    eps = 0.03
    certified = ev.certify(spec, params, data.inputs, data.labels, eps)
    correct = np.argmax(nets.forward_point(spec, params, data.inputs), axis=1) \
        == data.labels
    keep = certified & correct
    assert keep.sum() > 0
    adv = ev.pgd(spec, params, data.inputs[keep], data.labels[keep],
                 ev.AttackConfig(kind="pgd", eps=eps, iters=50, seed=1))
    preds = np.argmax(nets.forward_point(spec, params, adv), axis=1)
    assert np.array_equal(preds, data.labels[keep])


# ---- result matrix and metrics -------------------------------------------


def test_result_matrix_record_and_read():
    r = ev.ResultMatrix(3)
    r.record(0, 0, 0.9)
    r.record(1, 0, 0.8)
    r.record(1, 1, 0.7)
    assert r.accuracy(1, 0) == 0.8
    assert np.isnan(r.values[0, 1])
    with pytest.raises(ValueError):
        r.record(0, 1, 0.5)  # above the diagonal
    with pytest.raises(ValueError):
        r.record(1, 0, 1.5)
    with pytest.raises(ValueError):
        r.accuracy(2, 0)


def test_metrics_frozen_example():
    values = np.array([[0.9, np.nan], [0.8, 0.7]])
    aa, bwt = ev.metrics(values)
    assert aa == pytest.approx(0.75)
    assert bwt == pytest.approx(-0.1)


def test_metrics_zero_forgetting():
    values = np.array([[0.6, np.nan], [0.6, 0.9]])
    assert ev.metrics(values).backward_transfer == pytest.approx(0.0)


def test_metrics_single_task_has_no_bwt():
    got = ev.metrics(np.array([[0.8]]))
    assert got.average_accuracy == pytest.approx(0.8)
    assert got.backward_transfer is None


def test_metrics_validation():
    with pytest.raises(ValueError):
        ev.metrics(np.array([[0.5, np.nan]]))
    with pytest.raises(ValueError):
        ev.metrics(np.array([[0.5, np.nan], [np.nan, 0.5]]))


def test_metrics_formula_matches_closed_form():
    rng = np.random.default_rng(5)
    tasks = 4
    values = np.full((tasks, tasks), np.nan)
    for t in range(tasks):
        values[t, :t + 1] = rng.uniform(size=t + 1)
    aa, bwt = ev.metrics(values)
    assert aa == np.mean(values[-1])
    assert bwt == np.mean([values[-1, t] - values[t, t] for t in range(tasks - 1)])


# ---- entropy and task inference ------------------------------------------


def test_prediction_entropy_values():
    assert ev.prediction_entropy(np.array([0.5, 0.5])) == pytest.approx(np.log(2.0))
    assert ev.prediction_entropy(np.array([1.0, 0.0])) == 0.0
    batch = ev.prediction_entropy(np.array([[0.25] * 4, [1.0, 0.0, 0.0, 0.0]]))
    assert batch[0] == pytest.approx(np.log(4.0))
    assert batch[1] == 0.0


class StubHyper:
    """Hypernetwork stand-in emitting fixed flat vectors per task."""

    def __init__(self, flats):
        self.flats = [np.asarray(f, dtype=np.float64) for f in flats]
        self.trained_tasks = len(flats)
        self.bn_stats = {}

    def generate_flat(self, task):
        return self.flats[task]


def test_cil_picks_the_sharper_task_head():
    spec = identity_head_spec()
    mild = np.concatenate([np.eye(2).reshape(-1), np.zeros(2)])
    sharp = np.concatenate([(5.0 * np.eye(2)).reshape(-1), np.zeros(2)])
    h = StubHyper([mild, sharp])
    x = np.array([[0.9, 0.1]])
    task_pred, class_pred = ev.cil_infer(h, spec, x)
    assert task_pred[0] == 1
    assert class_pred[0] == 0


def test_cil_entropy_tie_goes_to_lowest_task():
    spec = identity_head_spec()
    flat = np.concatenate([np.eye(2).reshape(-1), np.zeros(2)])
    h = StubHyper([flat, flat.copy()])
    task_pred, _ = ev.cil_infer(h, spec, np.array([[0.3, 0.7]]))
    assert task_pred[0] == 0


def test_cil_infer_matches_brute_force_scan():
    spec = nets.NetworkSpec((3,), nets.mlp_layers([6], 4), classes=4)
    rng = np.random.default_rng(6)
    h = StubHyper([rng.normal(size=spec.total_params) for _ in range(3)])
    x = rng.uniform(size=(20, 3))
    task_pred, class_pred = ev.cil_infer(h, spec, x)

    for i in range(20):
        best_task, best_entropy = None, np.inf
        for t in range(3):
            params = nets.ParamSet(spec, h.flats[t])
            logits = nets.forward_point(spec, params, x[i:i + 1])
            p = np.exp(logits[0] - logits[0].max())
            p /= p.sum()
            entropy = -np.sum(np.where(p > 0, p * np.log(p), 0.0))
            if entropy < best_entropy:
                best_task, best_entropy = t, entropy
        assert task_pred[i] == best_task
        params = nets.ParamSet(spec, h.flats[best_task])
        logits = nets.forward_point(spec, params, x[i:i + 1])
        assert class_pred[i] == np.argmax(logits[0])


def test_cil_infer_requires_trained_tasks():
    spec = identity_head_spec()
    with pytest.raises(ValueError):
        ev.cil_infer(StubHyper([]), spec, np.zeros((1, 2)))


def test_cil_evaluate_counts_task_and_class_jointly():
    spec = identity_head_spec()
    mild = np.concatenate([np.eye(2).reshape(-1), np.zeros(2)])
    sharp = np.concatenate([(5.0 * np.eye(2)).reshape(-1), np.zeros(2)])
    h = StubHyper([mild, sharp])

    class Data:
        def __init__(self, inputs, labels):
            self.inputs, self.labels = inputs, labels

    # Every sample is sharp-head territory, so task inference says 1 for
    # both sets; only the second set can be fully correct.
    sets = [Data(np.array([[0.9, 0.1]]), np.array([0])),
            Data(np.array([[0.1, 0.9]]), np.array([1]))]
    out = ev.cil_evaluate(h, spec, sets)
    assert out["task_inference_accuracy"] == pytest.approx(0.5)
    assert out["accuracy"] == pytest.approx(0.5)
    assert out["per_task"][0]["task_inference_accuracy"] == 0.0
    assert out["per_task"][1]["accuracy"] == 1.0
    with pytest.raises(ValueError):
        ev.cil_evaluate(h, spec, sets[:1])
