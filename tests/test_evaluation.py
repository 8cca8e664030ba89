"""Attacks, certification, metrics, and task inference."""

from types import SimpleNamespace

import numpy as np
import pytest

from intervalcl import autodiff as ad
from intervalcl import evaluation as ev
from intervalcl import intervals as iv
from intervalcl import losses as L
from intervalcl import nets
from intervalcl import training
from intervalcl.autodiff import Tensor
from intervalcl.data import gen_digits
from intervalcl.intervals import IntervalTensor


def identity_head_spec():
    return nets.NetworkSpec((2,), [nets.dense(2)], classes=2)


def identity_params(spec, scale=1.0):
    return np.concatenate([(scale * np.eye(2)).reshape(-1), np.zeros(2)])


def fgsm_reference(spec, params, x, y, eps, bn_stats=None):
    """FGSM by its formula: clip(x + eps * sign(grad_x CE), 0, 1)."""
    xt = Tensor(x.copy())
    logits = nets.forward_point(spec, params, xt, bn_stats=bn_stats)
    ad.softmax_cross_entropy(logits, ad.onehot(y, spec.classes)).backward()
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
        ev.AttackConfig(kind="none")
    with pytest.raises(ValueError):
        ev.AttackConfig(eps=-0.1)
    with pytest.raises(ValueError):
        ev.AttackConfig(step=0.0)
    with pytest.raises(ValueError):
        ev.AttackConfig(iters=0)


def test_attack_config_refuses_non_integer_iters():
    # Used to construct, then fail inside pgd.
    with pytest.raises(ValueError, match="iters must be an integer"):
        ev.AttackConfig(iters=2.5)


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
    adv = ev.pgd(spec, params, x, y, ev.AttackConfig(kind="fgsm", eps=0.0))
    assert np.array_equal(adv, x)


def test_fgsm_moves_against_true_class_and_clips():
    # Logits (x0, x1) under the identity head: for label 0 the loss falls in
    # x0 and rises in x1, so FGSM steps x0 down and x1 up.
    spec = identity_head_spec()
    params = identity_params(spec)
    x = np.array([[0.5, 0.5], [0.05, 0.98]])
    y = np.array([0, 0])
    adv = ev.pgd(spec, params, x, y, ev.AttackConfig(kind="fgsm", eps=0.1))
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
        params = rng.normal(size=spec.total_params)
        x = rng.uniform(size=(7,) + spec.input_shape)
        x.reshape(7, -1)[:2, 0] = 0.0, 1.0  # steps may leave both box faces
        y = rng.integers(0, spec.classes, size=7)
        want = fgsm_reference(spec, params, x, y, 0.07, bn_stats=bn_stats)
        cfg = ev.AttackConfig(kind="pgd", eps=0.07, step=0.07, iters=1,
                              random_start=False)
        assert np.array_equal(ev.pgd(spec, params, x, y, cfg, bn_stats), want)
        # kind="fgsm" takes one full step whatever the PGD settings say
        fgsm = ev.AttackConfig(kind="fgsm", eps=0.07, step=0.01, iters=40, seed=3)
        assert np.array_equal(ev.pgd(spec, params, x, y, fgsm, bn_stats), want)


def test_pgd_respects_ball_and_box():
    spec = nets.NetworkSpec((4,), nets.mlp_layers([6], 3), classes=3)
    rng = np.random.default_rng(2)
    params = rng.normal(size=spec.total_params)
    x = rng.uniform(size=(10, 4))
    y = rng.integers(0, 3, size=10)
    cfg = ev.AttackConfig(kind="pgd", eps=0.1, iters=20, seed=3)
    adv = ev.pgd(spec, params, x, y, cfg)
    assert np.all(np.abs(adv - x) <= 0.1 + 1e-12)
    assert np.all(adv >= 0.0)
    assert np.all(adv <= 1.0)


def pgd_two_clip_reference(spec, params, x, y, eps, step, iters, start):
    """PGD with the ball and the box as two clips, recomputed every step."""
    x0 = x
    x = np.clip(x + start, 0.0, 1.0)
    for _ in range(iters):
        xt = Tensor(x)
        logits = nets.forward_point(spec, params, xt)
        ad.softmax_cross_entropy(logits, ad.onehot(y, spec.classes)).backward()
        x = np.clip(x + step * np.sign(xt.grad), x0 - eps, x0 + eps)
        x = np.clip(x, 0.0, 1.0)
    return x


def _inputs_on_box_faces(rng, shape):
    x = rng.uniform(size=shape)
    face = rng.uniform(size=shape)
    x[face < 0.2] = 0.0
    x[face > 0.8] = 1.0
    return x


def test_one_clip_projection_is_bitwise_the_two_clip_reference():
    rng = np.random.default_rng(12)
    for _ in range(300):
        x = _inputs_on_box_faces(rng, (20, 3))
        eps = 10.0 ** rng.uniform(-300, 0.3)
        step = eps * rng.uniform(0.25, 3.0)
        sign = rng.choice([-1.0, 0.0, 1.0], size=x.shape, p=[0.45, 0.1, 0.45])
        y = x + step * sign
        two = np.clip(np.clip(y, x - eps, x + eps), 0.0, 1.0)
        one = np.clip(y, np.maximum(x - eps, 0.0), np.minimum(x + eps, 1.0))
        assert np.array_equal(one, two)


def test_signed_step_is_bitwise_the_clip_form():
    # Zero, signed-zero and NaN gradients, inputs on both box faces and on
    # -0.0, radii from 0 up past the box, steps that overshoot the ball.
    rng = np.random.default_rng(14)
    for _ in range(300):
        x = _inputs_on_box_faces(rng, (20, 3))
        x[rng.uniform(size=x.shape) < 0.1] = -0.0
        eps = float(rng.choice([0.0, 1e-300, 1e-9, 0.05, 0.4, 2.0]))
        step = eps * rng.uniform(0.25, 3.0) if eps else float(rng.uniform(0.0, 0.1))
        low, high = np.maximum(x - eps, 0.0), np.minimum(x + eps, 1.0)
        grad = rng.normal(size=x.shape)
        grad[rng.uniform(size=x.shape) < 0.2] = 0.0
        grad[rng.uniform(size=x.shape) < 0.1] = -0.0
        grad[0, 0] = np.nan
        want = np.clip(x + step * np.sign(grad), low, high)
        got = ev._signed_step(x, grad, step, low, high)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("random_start", [False, True])
def test_pgd_is_bitwise_the_two_clip_reference(random_start):
    rng = np.random.default_rng(13)
    spec = nets.NetworkSpec((3,), nets.mlp_layers([5], 3), classes=3)
    for seed in range(20):
        params = rng.normal(size=spec.total_params)
        x = _inputs_on_box_faces(rng, (9, 3))
        y = rng.integers(0, 3, size=9)
        eps = float(rng.choice([1e-9, 0.05, 0.4, 2.0]))
        step = eps * float(rng.uniform(0.25, 3.0))  # overshoots both sides
        cfg = ev.AttackConfig(eps=eps, step=step, iters=4,
                              random_start=random_start, seed=seed)
        start = (np.random.default_rng(seed).uniform(-eps, eps, size=x.shape)
                 if random_start else 0.0)
        want = pgd_two_clip_reference(spec, params, x, y, eps, step, 4, start)
        assert np.array_equal(ev.pgd(spec, params, x, y, cfg), want)


@pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
def test_pgd_refuses_inputs_outside_the_unit_box(bad):
    # An input at 1.5 used to come back at L-inf distance 0.5 from itself.
    spec = identity_head_spec()
    x = np.full((3, 2), 0.5)
    x[1, 0] = bad
    with pytest.raises(ValueError, match=r"inputs must lie in \[0, 1\]"):
        ev.pgd(spec, identity_params(spec), x, np.array([0, 1, 0]),
               ev.AttackConfig(eps=0.1, iters=2))


def test_pgd_refuses_a_label_count_that_differs_from_the_batch():
    spec = identity_head_spec()
    with pytest.raises(ValueError, match="labels shape"):
        ev.pgd(spec, identity_params(spec), np.full((3, 2), 0.5),
               np.array([0, 1]), ev.AttackConfig(eps=0.1, iters=2))


@pytest.mark.parametrize("kind", ["fgsm", "pgd"])
def test_pgd_on_an_empty_batch_returns_an_empty_array(kind):
    spec = identity_head_spec()
    adv = ev.pgd(spec, identity_params(spec), np.zeros((0, 2)),
                 np.zeros(0, dtype=int), ev.AttackConfig(kind=kind, eps=0.1))
    assert adv.shape == (0, 2)


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


@pytest.mark.parametrize("labels", [np.array([0.0, 1.0]), np.array([True, False])],
                         ids=["float", "bool"])
def test_labels_must_be_integers(labels):
    # Float labels used to fail as a bare IndexError; booleans passed as 0/1.
    spec = identity_head_spec()
    params = identity_params(spec)
    x = np.array([[0.6, 0.2], [0.2, 0.6]])
    with pytest.raises(ValueError, match="must be integers"):
        ev.certify(spec, params, x, labels, 0.1)
    with pytest.raises(ValueError, match="must be integers"):
        ad.onehot(labels, 2)
    with pytest.raises(ValueError, match="must be integers"):
        L.ibp_loss(nets.forward_interval(spec, params, x, eps=0.1),
                   nets.forward_point(spec, params, x), labels, 0.5)


@pytest.mark.parametrize("layers,input_shape", [
    (nets.mlp_layers([5], 3), (4,)),
    ([nets.conv(2, 3), nets.batchnorm(), nets.act("relu"), nets.maxpool(2),
      nets.flatten(), nets.dense(3)], (6, 6, 1)),
], ids=["mlp", "conv"])
def test_empty_batch_passes_through_and_refuses_a_mean(layers, input_shape):
    # With no rows, the flatten layer could not infer its width and an
    # empty label vector had no minimum; a mean over no samples was NaN.
    spec = nets.NetworkSpec(input_shape, layers, classes=3)
    rng = np.random.default_rng(4)
    params = rng.normal(size=spec.total_params)
    stats: list = []
    nets.forward_point(spec, params, rng.uniform(size=(3,) + input_shape),
                       bn_capture=stats)
    x = np.zeros((0,) + input_shape)
    y = np.zeros(0, dtype=np.int64)
    assert nets.forward_point(spec, params, x, bn_stats=stats).shape == (0, 3)
    bounds = nets.forward_interval(spec, params, x, eps=0.1, bn_stats=stats)
    assert bounds.shape == (0, 3)
    assert ev.certify(spec, params, x, y, 0.1, bn_stats=stats).shape == (0,)
    assert ad.onehot(y, 3).shape == (0, 3)
    with pytest.raises(ValueError, match="empty batch"):
        ev.clean_accuracy(spec, params, x, y, bn_stats=stats)
    with pytest.raises(ValueError, match="empty batch"):
        ev.verified_accuracy(spec, params, x, y, 0.1, bn_stats=stats)
    with pytest.raises(ValueError, match="empty batch"):
        ad.softmax_cross_entropy(np.zeros((0, 3)), ad.onehot(y, 3))


def _conv_batchnorm_case(seed):
    """Conv -> batchnorm (layer 1) net, moments frozen from a separate fit
    batch, and 16 test inputs labelled with their predicted classes."""
    spec = nets.NetworkSpec(
        (6, 6, 2),
        [nets.conv(4, 3), nets.batchnorm(), nets.act("relu"), nets.maxpool(2),
         nets.flatten(), nets.dense(3)],
        classes=3)
    rng = np.random.default_rng(seed)
    params = rng.normal(scale=0.5, size=spec.total_params)
    stats: list = []
    nets.forward_point(spec, params, rng.uniform(size=(20, 6, 6, 2)), bn_capture=stats)
    x = rng.uniform(size=(16, 6, 6, 2))
    y = np.argmax(nets.forward_point(spec, params, x, bn_stats=stats), axis=1)
    return spec, params, stats, x, y, rng


def test_interval_pass_refuses_batchnorm_without_moments():
    spec, params, _, x, y, _ = _conv_batchnorm_case(0)
    match = "layer 1: batchnorm on boxes needs moments"
    with pytest.raises(ValueError, match=match):
        nets.forward_interval(spec, params, x, eps=0.02)
    with pytest.raises(ValueError, match=match):
        ev.certify(spec, params, x, y, 0.02)
    with pytest.raises(ValueError, match=match):
        ev.verified_accuracy(spec, params, x, y, 0.02)


def test_certificate_under_frozen_moments_ignores_batch_mates():
    # Frozen moments fix one network, so a sample's bounds and flag may not
    # depend on the other samples in its batch: bit for bit among other
    # batch-mates. Alone, the final dense layer is a one-row matmul, which
    # BLAS rounds differently, so there the flag must agree and the bounds
    # to within a few ulps.
    certified = refused = 0
    for seed in range(6):
        spec, params, stats, x, y, rng = _conv_batchnorm_case(seed)
        mates = rng.uniform(size=(5, 6, 6, 2))
        for eps in (0.005, 0.02, 0.05):
            flags = ev.certify(spec, params, x, y, eps, bn_stats=stats)
            bounds = nets.forward_interval(spec, params, x, eps=eps, bn_stats=stats)
            certified += int(flags.sum())
            refused += int((~flags).sum())
            for i in range(len(x)):
                batch = np.concatenate([mates, x[i:i + 1], mates[:2]])
                labels = np.concatenate([y[:5], y[i:i + 1], y[:2]])
                among = nets.forward_interval(spec, params, batch, eps=eps,
                                              bn_stats=stats)
                assert among.lower[5].tobytes() == bounds.lower[i].tobytes()
                assert among.upper[5].tobytes() == bounds.upper[i].tobytes()
                assert ev.certify(spec, params, batch, labels, eps,
                                  bn_stats=stats)[5] == flags[i]
                alone = nets.forward_interval(spec, params, x[i:i + 1], eps=eps,
                                              bn_stats=stats)
                for got, want in ((alone.lower, bounds.lower), (alone.upper, bounds.upper)):
                    np.testing.assert_allclose(got[0], want[i], rtol=0, atol=1e-13)
                assert ev.certify(spec, params, x[i:i + 1], y[i:i + 1], eps,
                                  bn_stats=stats)[0] == flags[i]
    assert certified > 0 and refused > 0


def test_rounding_budget_covers_the_batch_of_one_difference():
    # Alone, a sample's final dense layer is a one-row matmul that BLAS
    # rounds differently from the same row inside a batch (up to 2.6e-15
    # relative). Both results lie within the sample's rounding budget e of
    # the exact bounds; here they differ by at most e, e itself is the same
    # bits alone and in the batch, and so is the certificate.
    certified = refused = 0
    for seed in range(20):
        spec, params, stats, x, y, _ = _conv_batchnorm_case(seed)
        for eps in (0.005, 0.02, 0.05):
            bounds = nets.forward_interval(spec, params, x, eps=eps, bn_stats=stats)
            budget = iv.rounding_budget(spec, params, IntervalTensor.from_ball(x, eps),
                                        bn_stats=stats)[-1]
            flags = ev.certify(spec, params, x, y, eps, bn_stats=stats)
            certified += int(flags.sum())
            refused += int((~flags).sum())
            for i in range(len(x)):
                alone = nets.forward_interval(spec, params, x[i:i + 1], eps=eps,
                                              bn_stats=stats)
                assert iv.rounding_budget(
                    spec, params, IntervalTensor.from_ball(x[i:i + 1], eps),
                    bn_stats=stats)[-1].tobytes() == budget[i:i + 1].tobytes()
                for got, want in ((alone.lower, bounds.lower), (alone.upper, bounds.upper)):
                    assert np.abs(got[0] - want[i]).max() <= budget[i]
                assert ev.certify(spec, params, x[i:i + 1], y[i:i + 1], eps,
                                  bn_stats=stats)[0] == flags[i]
    assert certified > 0 and refused > 0


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
    # Per sample: every certificate at a grid radius is classified correctly
    # by the point pass, which the rounding budget makes a theorem.
    correct = np.argmax(nets.forward_point(spec, params, data.inputs), axis=1) \
        == data.labels
    for e in grid:
        certified = ev.certify(spec, params, data.inputs, data.labels, e)
        assert certified.any()
        assert not (certified & ~correct).any(), f"eps {e}"


@pytest.fixture(scope="module")
def trained_conv_model():
    """conv -> batchnorm -> relu -> maxpool -> dense on 8x8 digits, trained
    briefly with its batchnorm moments frozen; returns the test split."""
    digits = gen_digits(400, seed=11)
    x = digits.inputs[..., None]
    spec = nets.NetworkSpec((8, 8, 1), [
        nets.conv(4, 3), nets.batchnorm(), nets.act("relu"), nets.maxpool(2),
        nets.flatten(), nets.dense(10)], classes=10)
    h = nets.Hypernetwork(spec.total_params, 8, [32], 1, np.random.default_rng(3))
    train = SimpleNamespace(inputs=x[:300], labels=digits.labels[:300])
    cfg = training.TrainerConfig(steps=150, batch_size=32, seed=2,
                                 loss=L.LossConfig(eps=0.03, alpha=0.1),
                                 model_selection=False)
    training.train_task(h, spec, 0, train, cfg)
    test = SimpleNamespace(inputs=x[300:], labels=digits.labels[300:])
    return spec, nets.generate_params(h, spec, 0), h.bn_stats[0], test


def _bounds_and_point_verified_accuracy(spec, params, x, y, eps, bn_stats):
    """The former rule: certified when the float logit bounds are strictly
    separated, and counted when the point pass also classifies the centre
    correctly."""
    bounds = nets.forward_interval(spec, params, x, eps=eps, bn_stats=bn_stats)
    rows = np.arange(len(y))
    rivals = bounds.upper.copy()
    rivals[rows, y] = -np.inf
    separated = bounds.lower[rows, y] > rivals.max(axis=1)
    correct = np.argmax(nets.forward_point(spec, params, x, bn_stats=bn_stats),
                        axis=1) == y
    return float(np.mean(separated & correct))


@pytest.mark.parametrize("model, eps", [("trained_blobs_model", 0.1),
                                        ("trained_conv_model", 0.03)],
                         ids=["blobs", "conv"])
def test_verified_accuracy_equals_the_bounds_and_point_pass_rule(request, model, eps):
    # On trained networks the rounding budget is far below every margin, so
    # dropping the point pass leaves each verified accuracy on a 0..2 eps
    # grid exactly as the former rule scored it.
    spec, params, *rest = request.getfixturevalue(model)
    stats, split = rest if len(rest) == 2 else (None, rest[0])
    x, y = split.inputs, split.labels
    values = []
    for radius in np.linspace(0.0, 2.0 * eps, 21):
        value = ev.verified_accuracy(spec, params, x, y, radius, bn_stats=stats)
        assert value == _bounds_and_point_verified_accuracy(spec, params, x, y,
                                                            radius, stats)
        values.append(value)
    assert values[0] > 0.9 and values[-1] < values[0]


def test_verified_accuracy_runs_one_interval_pass_and_no_point_pass(
        trained_conv_model, monkeypatch):
    # Counted through the module attributes, as the benchmark's tracer
    # counts them.
    spec, params, stats, split = trained_conv_model
    calls = {"forward_point": 0, "forward_interval": 0}

    def counting(name):
        real = getattr(nets, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(nets, name, counting(name))
    ev.verified_accuracy(spec, params, split.inputs, split.labels, 0.03,
                         bn_stats=stats)
    assert calls == {"forward_point": 0, "forward_interval": 1}
    ev.clean_accuracy(spec, params, split.inputs, split.labels, bn_stats=stats)
    assert calls == {"forward_point": 1, "forward_interval": 1}


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
            params = h.flats[t]
            logits = nets.forward_point(spec, params, x[i:i + 1])
            p = np.exp(logits[0] - logits[0].max())
            p /= p.sum()
            entropy = -np.sum(np.where(p > 0, p * np.log(p), 0.0))
            if entropy < best_entropy:
                best_task, best_entropy = t, entropy
        assert task_pred[i] == best_task
        params = h.flats[best_task]
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
