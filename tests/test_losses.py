"""Loss values against hand-computed cases; schedule formulas frozen."""

import numpy as np
import pytest

from intervalcl import autodiff as ad
from intervalcl import losses
from intervalcl.autodiff import Tensor
from intervalcl.intervals import IntervalTensor
from intervalcl.losses import virtual_samples


def test_loss_config_validation():
    losses.LossConfig()
    with pytest.raises(ValueError):
        losses.LossConfig(beta=-0.1)
    with pytest.raises(ValueError):
        losses.LossConfig(eps=-0.1)
    with pytest.raises(ValueError):
        losses.LossConfig(alpha=0.0)
    with pytest.raises(ValueError):
        losses.LossConfig(decay="cubic")


@pytest.mark.parametrize("name", ["beta", "eps", "alpha"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_loss_config_refuses_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        losses.LossConfig(**{name: value})


# ---- ibp loss ------------------------------------------------------------


def test_ibp_loss_collapses_to_cross_entropy_at_zero_radius():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6)
    ce = ad.softmax_cross_entropy(logits, ad.onehot(labels, 3))
    box = IntervalTensor(logits, logits)
    for kappa in (0.0, 0.3, 1.0):
        got = losses.ibp_loss(box, logits, labels, kappa)
        assert got == pytest.approx(ce, rel=1e-12)


def test_ibp_loss_kappa_one_is_clean_loss():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(4, 3))
    labels = rng.integers(0, 3, size=4)
    box = IntervalTensor.from_ball(logits, 0.5)
    got = losses.ibp_loss(box, logits, labels, 1.0)
    assert got == pytest.approx(ad.softmax_cross_entropy(logits, ad.onehot(labels, 3)))


def test_ibp_loss_zero_width_two_class_uniform():
    # Bounds identically zero in both classes: the worst-case vector is
    # (0, 0) and its cross-entropy is ln 2.
    box = IntervalTensor(np.zeros((3, 2)), np.zeros((3, 2)))
    got = losses.ibp_loss(box, np.zeros((3, 2)), np.array([0, 1, 0]), 0.0)
    assert got == pytest.approx(np.log(2.0))


def test_ibp_loss_worst_case_dominates_clean():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(8, 4))
    labels = rng.integers(0, 4, size=8)
    box = IntervalTensor.from_ball(logits, 0.3)
    clean = losses.ibp_loss(box, logits, labels, 1.0)
    worst = losses.ibp_loss(box, logits, labels, 0.0)
    assert worst >= clean


def test_ibp_loss_rejects_bad_kappa():
    box = IntervalTensor(np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        losses.ibp_loss(box, np.zeros((1, 2)), np.array([0]), -0.1)


# ---- worst-case logits ---------------------------------------------------


def test_worst_case_logits_frozen_example():
    bounds = IntervalTensor(np.array([[3.0, 2.0]]), np.array([[5.0, 4.0]]))
    assert np.array_equal(losses.worst_case_logits(bounds, ad.onehot(np.array([0]), 2)),
                          [[3.0, 4.0]])
    assert np.array_equal(losses.worst_case_logits(bounds, ad.onehot(np.array([1]), 2)),
                          [[5.0, 2.0]])


def test_worst_case_logits_point_box_is_the_logits():
    logits = np.array([[1.0, -2.0, 0.5]])
    box = IntervalTensor(logits, logits)
    assert np.array_equal(losses.worst_case_logits(box, ad.onehot(np.array([2]), 3)),
                          logits)


def test_worst_case_logits_rejects_bad_labels():
    # A mask built for a label outside the logit width, or for another
    # batch, does not fit the bounds.
    box = IntervalTensor(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        losses.worst_case_logits(box, ad.onehot(np.array([0, 3]), 4))
    with pytest.raises(ValueError):
        losses.worst_case_logits(box, ad.onehot(np.array([0]), 3))


def _count_onehot(monkeypatch):
    calls = []
    onehot = ad.onehot

    def counted(labels, classes):
        calls.append(classes)
        return onehot(labels, classes)

    monkeypatch.setattr(ad, "onehot", counted)
    return calls


def test_ibp_loss_builds_its_one_hot_rows_once(monkeypatch):
    # The rows serve as the worst-case mask and as the target alike.
    rng = np.random.default_rng(11)
    lower = rng.normal(size=(5, 3))
    box = IntervalTensor(lower, lower + 0.2)
    calls = _count_onehot(monkeypatch)
    losses.ibp_loss(box, lower + 0.1, rng.integers(0, 3, size=5), 0.5)
    assert len(calls) == 1


def test_interval_mixup_loss_builds_one_hot_rows_once_per_label_set(monkeypatch):
    rng = np.random.default_rng(12)
    lower = rng.normal(size=(5, 3))
    box = IntervalTensor(lower, lower + 0.2)
    calls = _count_onehot(monkeypatch)
    losses.interval_mixup_loss(box, lower + 0.1, rng.integers(0, 3, size=5),
                               rng.integers(0, 3, size=5), rng.uniform(size=5), 0.5)
    assert len(calls) == 2


# ---- output regularizer --------------------------------------------------


def test_output_reg_zero_for_identical_vectors():
    snap = [np.arange(5.0)]
    assert losses.output_reg_loss(snap, [np.arange(5.0)]) == 0.0


def test_output_reg_all_ones_difference_gives_dimension():
    snap = [np.zeros(7)]
    assert losses.output_reg_loss(snap, [np.ones(7)]) == pytest.approx(7.0)


def test_output_reg_averages_over_tasks():
    snaps = [np.zeros(4), np.zeros(4)]
    cur = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    assert losses.output_reg_loss(snaps, cur) == pytest.approx(3.0)


def test_output_reg_requires_earlier_tasks():
    with pytest.raises(ValueError):
        losses.output_reg_loss([], [])
    with pytest.raises(ValueError):
        losses.output_reg_loss([np.zeros(2)], [])


def test_output_reg_refuses_mismatched_shapes_naming_both():
    with pytest.raises(ValueError, match=r"\(1, 3\).*\(1, 4\)"):
        losses.output_reg_loss([np.zeros(3)], [np.zeros(4)])
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(1, 3\)"):
        losses.output_reg_loss(np.zeros((2, 3)), Tensor(np.zeros((1, 3))))
    with pytest.raises(ValueError, match="one row per earlier task"):
        losses.output_reg_loss(np.zeros(3), np.zeros(3))


def test_output_reg_gradient_flows_to_current_only():
    snap = [np.ones(4)]
    cur = Tensor(np.zeros((1, 4)))
    loss = losses.output_reg_loss(snap, cur)
    loss.backward()
    assert np.allclose(cur.grad, -2.0 * np.ones((1, 4)))


# ---- mixup ---------------------------------------------------------------


def test_mixup_interpolate_endpoints_exact():
    rng = np.random.default_rng(3)
    xa = rng.normal(size=(4, 5))
    xb = rng.normal(size=(4, 5))
    assert np.array_equal(losses.mixup_interpolate(xa, xb, 1.0), xa)
    assert np.array_equal(losses.mixup_interpolate(xa, xb, 0.0), xb)


def test_mixup_interpolate_frozen_value():
    got = losses.mixup_interpolate(np.array([1.0]), np.array([3.0]), 0.3)
    assert got[0] == pytest.approx(0.3 * 1.0 + 0.7 * 3.0)


def test_mixup_interpolate_validation():
    with pytest.raises(ValueError):
        losses.mixup_interpolate(np.zeros((2, 3)), np.zeros((2, 4)), 0.5)
    with pytest.raises(ValueError):
        losses.mixup_interpolate(np.zeros(2), np.zeros(2), 1.2)


def test_mixup_interpolate_per_sample_lambda():
    xa = np.ones((3, 2))
    xb = np.zeros((3, 2))
    lam = np.array([0.0, 0.5, 1.0])
    got = losses.mixup_interpolate(xa, xb, lam)
    assert np.allclose(got, [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])


def test_mixup_interpolate_refuses_lambda_of_another_length():
    with pytest.raises(ValueError, match="3 mixing coefficients"):
        losses.mixup_interpolate(np.ones((5, 2)), np.zeros((5, 2)),
                                 np.full(3, 0.5))
    with pytest.raises(ValueError, match="2 mixing coefficients"):
        losses.mixup_interpolate(1.0, 0.0, np.full(2, 0.5))


def test_scaled_radius_midpoint_is_zero_for_all_kinds():
    for kind in losses.DECAY_KINDS:
        assert losses.scaled_radius(0.5, 0.3, kind) == 0.0


def test_scaled_radius_endpoints_hit_eps_for_all_kinds():
    for kind in losses.DECAY_KINDS:
        assert losses.scaled_radius(0.0, 0.3, kind) == pytest.approx(0.3)
        assert losses.scaled_radius(1.0, 0.3, kind) == pytest.approx(0.3)


def test_scaled_radius_frozen_values():
    assert losses.scaled_radius(0.75, 0.2, "linear") == pytest.approx(0.1)
    assert losses.scaled_radius(0.2, 0.5, "linear") == pytest.approx(0.3)
    assert losses.scaled_radius(0.75, 0.2, "quadratic") == pytest.approx(0.05)
    assert losses.scaled_radius(0.75, 0.2, "log") == pytest.approx(0.2 * np.log2(1.5))
    assert losses.scaled_radius(0.75, 0.2, "cos") == pytest.approx(
        0.2 * (1.0 - np.cos(np.pi * 0.5)) / 2.0)


def test_scaled_radius_monotone_in_distance_from_midpoint():
    s_grid = np.linspace(0.5, 1.0, 101)
    for kind in losses.DECAY_KINDS:
        vals = losses.scaled_radius(s_grid, 1.0, kind)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= 1.0 + 1e-12)


def test_scaled_radius_validation():
    with pytest.raises(ValueError):
        losses.scaled_radius(1.2, 0.1)
    with pytest.raises(ValueError):
        losses.scaled_radius(0.5, -0.1)
    with pytest.raises(ValueError):
        losses.scaled_radius(0.5, 0.1, "cubic")


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    lambda: losses.mixup_interpolate(np.zeros(2), np.ones(2), NAN),
    lambda: losses.mixup_interpolate(np.zeros((2, 1)), np.ones((2, 1)),
                                     np.array([0.5, NAN])),
    lambda: virtual_samples(np.eye(2), np.array([0, 1]), [[0, 1]], [0.0, NAN]),
    lambda: losses.scaled_radius(NAN, 0.3),
    lambda: losses.scaled_radius(0.3, NAN),
    lambda: losses.scaled_radius(0.3, INF),
    lambda: losses.scaled_radius(0.3, np.array([0.1, NAN])),
    lambda: losses.schedule_step(1, 10, NAN),
    lambda: losses.schedule_step(1, 10, INF),
], ids=["mixup_nan", "mixup_nan_column", "virtual_grid_nan", "radius_lam_nan",
        "radius_eps_nan", "radius_eps_inf", "radius_eps_column_nan",
        "schedule_eps_nan", "schedule_eps_inf"])
def test_non_finite_coefficients_and_radii_are_refused(call):
    # Each range check is written so that NaN fails it; a radius must also
    # be finite.
    with pytest.raises(ValueError):
        call()


def test_mixup_loss_identical_labels_is_plain_ce():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, size=5)
    got = losses.mixup_loss(logits, labels, labels, 0.3)
    assert got == pytest.approx(ad.softmax_cross_entropy(logits, ad.onehot(labels, 3)),
                                rel=1e-12)


def test_mixup_loss_endpoint_reduces_to_one_label():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(5, 3))
    ya = rng.integers(0, 3, size=5)
    yb = rng.integers(0, 3, size=5)
    assert losses.mixup_loss(logits, ya, yb, 1.0) == pytest.approx(
        ad.softmax_cross_entropy(logits, ad.onehot(ya, 3)))
    assert losses.mixup_loss(logits, ya, yb, 0.0) == pytest.approx(
        ad.softmax_cross_entropy(logits, ad.onehot(yb, 3)))


def test_mixup_loss_uniform_logits():
    logits = np.zeros((4, 5))
    got = losses.mixup_loss(logits, np.zeros(4, dtype=int),
                            np.ones(4, dtype=int), 0.4)
    assert got == pytest.approx(np.log(5.0))


def test_mixup_loss_per_sample_lambda_matches_manual():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(4, 3))
    ya = rng.integers(0, 3, size=4)
    yb = rng.integers(0, 3, size=4)
    lam = np.array([0.1, 0.4, 0.9, 1.0])
    lse = np.log(np.exp(logits).sum(axis=1))
    ce_a = lse - logits[np.arange(4), ya]
    ce_b = lse - logits[np.arange(4), yb]
    manual = np.mean(lam * ce_a + (1.0 - lam) * ce_b)
    assert losses.mixup_loss(logits, ya, yb, lam) == pytest.approx(manual, rel=1e-12)


@pytest.mark.parametrize("lam", [np.array([0.1, 0.9, 0.5]),
                                 np.array([[0.1], [0.9], [0.5], [0.3]])],
                         ids=["short", "column"])
def test_mixup_losses_refuse_lambda_neither_scalar_nor_per_sample(lam):
    # A short vector used to die in numpy's broadcasting; a (B, 1) column
    # was silently averaged over a B x B outer grid.
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(4, 3))
    ya, yb = np.array([0, 1, 2, 0]), np.array([1, 2, 0, 2])
    box = IntervalTensor.from_ball(logits, 0.1)
    for call in (lambda: losses.mixup_loss(logits, ya, yb, lam),
                 lambda: losses.interval_mixup_loss(box, logits, ya, yb, lam, 0.5)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(lam.shape) in str(info.value) and "(4,)" in str(info.value)


def test_mixup_losses_refuse_label_vectors_of_different_lengths():
    # One label in the second vector would broadcast over the whole batch.
    logits = np.zeros((4, 3))
    ya, yb = np.array([0, 1, 2, 0]), np.array([1])
    box = IntervalTensor.from_ball(logits, 0.1)
    with pytest.raises(ValueError, match=r"\(4,\) and \(1,\)"):
        losses.mixup_loss(logits, ya, yb, 0.5)
    with pytest.raises(ValueError, match=r"\(4,\) and \(1,\)"):
        losses.interval_mixup_loss(box, logits, ya, yb, 0.5, 0.5)


# ---- interval mixup ------------------------------------------------------


def test_interval_mixup_collapses_to_mixup_at_zero_radius():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(6, 3))
    ya = rng.integers(0, 3, size=6)
    yb = rng.integers(0, 3, size=6)
    box = IntervalTensor(logits, logits)
    plain = losses.mixup_loss(logits, ya, yb, 0.35)
    for kappa in (0.0, 0.5, 1.0):
        got = losses.interval_mixup_loss(box, logits, ya, yb, 0.35, kappa)
        assert got == pytest.approx(plain, rel=1e-12)


def test_interval_mixup_kappa_one_is_exactly_mixup():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(4, 3))
    ya = rng.integers(0, 3, size=4)
    yb = rng.integers(0, 3, size=4)
    box = IntervalTensor.from_ball(logits, 0.4)
    got = losses.interval_mixup_loss(box, logits, ya, yb, 0.7, 1.0)
    assert got == losses.mixup_loss(logits, ya, yb, 0.7)


def test_interval_mixup_endpoint_matches_ibp_loss():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(5, 3))
    ya = rng.integers(0, 3, size=5)
    yb = rng.integers(0, 3, size=5)
    box = IntervalTensor.from_ball(logits, 0.2)
    got = losses.interval_mixup_loss(box, logits, ya, yb, 1.0, 0.6)
    ref = losses.ibp_loss(box, logits, ya, 0.6)
    assert got == pytest.approx(ref, rel=1e-12)


def test_interval_mixup_grows_with_radius():
    rng = np.random.default_rng(10)
    logits = rng.normal(size=(6, 3))
    ya = rng.integers(0, 3, size=6)
    yb = rng.integers(0, 3, size=6)
    vals = []
    for r in (0.0, 0.1, 0.2, 0.5, 1.0):
        box = IntervalTensor.from_ball(logits, r)
        vals.append(losses.interval_mixup_loss(box, logits, ya, yb, 0.3, 0.4))
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_mixup_losses_bitwise_equal_on_arrays_and_tensors():
    # Untaped and taped passes of the same numbers average alike, so a
    # loss evaluated for selection matches the one the tape trained on.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(60, 4))
        radius = rng.uniform(0.0, 0.3, size=(60, 4))
        ya = rng.integers(0, 4, size=60)
        yb = rng.integers(0, 4, size=60)
        lam = rng.uniform(size=60) if seed % 2 else float(rng.uniform())
        kappa = float(rng.uniform())
        plain = losses.mixup_loss(logits, ya, yb, lam)
        taped = losses.mixup_loss(Tensor(logits), ya, yb, lam)
        assert taped.value.tobytes() == np.float64(plain).tobytes(), seed
        box = IntervalTensor(logits - radius, logits + radius)
        tape_box = IntervalTensor(Tensor(logits - radius),
                                  Tensor(logits + radius))
        plain = losses.interval_mixup_loss(box, logits, ya, yb, lam, kappa)
        taped = losses.interval_mixup_loss(tape_box, Tensor(logits), ya, yb,
                                           lam, kappa)
        assert taped.value.tobytes() == np.float64(plain).tobytes(), seed


def test_losses_are_finite_and_nonnegative_on_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(50):
        logits = rng.normal(size=(4, 3)) * rng.uniform(0.1, 5.0)
        ya = rng.integers(0, 3, size=4)
        yb = rng.integers(0, 3, size=4)
        lam = rng.uniform()
        kappa = rng.uniform()
        box = IntervalTensor.from_ball(logits, rng.uniform(0.0, 1.0))
        for val in (losses.mixup_loss(logits, ya, yb, lam),
                    losses.ibp_loss(box, logits, ya, kappa),
                    losses.interval_mixup_loss(box, logits, ya, yb, lam, kappa)):
            assert np.isfinite(val)
            assert val >= 0.0


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    centre = Tensor(rng.normal(size=(5, 3)))
    ya = rng.integers(0, 3, size=5)
    yb = rng.integers(0, 3, size=5)

    def build_ibp():
        box = IntervalTensor(centre - 0.2, centre + 0.2)
        return losses.ibp_loss(box, centre, ya, 0.4)

    def build_imix():
        box = IntervalTensor(centre - 0.2, centre + 0.2)
        return losses.interval_mixup_loss(box, centre, ya, yb, 0.3, 0.6)

    assert ad.grad_check(build_ibp, [centre]) <= 1e-6
    assert ad.grad_check(build_imix, [centre]) <= 1e-6


# ---- schedules -----------------------------------------------------------


def test_schedule_frozen_values():
    eps = 0.4
    total = 10
    kappa, got_eps = losses.schedule_step(1, total, eps)
    assert kappa == pytest.approx(0.95)
    assert got_eps == pytest.approx(0.08)
    kappa, got_eps = losses.schedule_step(5, total, eps)
    assert kappa == pytest.approx(0.75)
    assert got_eps == pytest.approx(eps)
    kappa, got_eps = losses.schedule_step(10, total, eps)
    assert kappa == 0.5
    assert got_eps == pytest.approx(eps)


def test_schedule_formula_exactness():
    # The implementation must be the closed forms themselves, not an
    # approximation of them.
    total, eps = 7, 0.25
    for step in range(1, total + 1):
        kappa, got = losses.schedule_step(step, total, eps)
        assert kappa == max(0.5, 1.0 - step / (2.0 * total))
        expected = eps * (2.0 * step / total) if step <= total // 2 else eps
        assert got == expected


def test_schedule_monotone_and_bounded():
    total, eps = 37, 0.13
    kappas, radii = zip(*(losses.schedule_step(i, total, eps)
                          for i in range(1, total + 1)))
    assert all(b <= a for a, b in zip(kappas, kappas[1:]))
    assert all(a <= b + 1e-15 for a, b in zip(radii, radii[1:]))
    assert all(0.5 <= k <= 1.0 for k in kappas)
    assert all(0.0 <= r <= eps for r in radii)
    assert radii[-1] == eps


def test_schedule_half_is_never_exceeded():
    kappa, _ = losses.schedule_step(1_000_000, 1_000_000, 0.1)
    assert kappa == 0.5


def test_schedule_validation():
    with pytest.raises(ValueError):
        losses.schedule_step(1, 0, 0.1)
    with pytest.raises(ValueError):
        losses.schedule_step(0, 5, 0.1)
    with pytest.raises(ValueError):
        losses.schedule_step(6, 5, 0.1)
    with pytest.raises(ValueError):
        losses.schedule_step(1, 5, -0.1)


class TestVirtualSamples:
    def test_layout_and_order(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        labels = np.array([0, 1, 0, 1])
        pairs = np.array([[0, 1], [2, 3]])
        grid = np.array([0.0, 0.5, 1.0])
        x, ya, yb, lam = virtual_samples(points, labels, pairs, grid)
        assert x.shape == (6, 2)
        # grouped by coefficient: first both pairs at lam=0 (pure second point)
        assert np.array_equal(x[0], points[1])
        assert np.array_equal(x[1], points[3])
        # midpoints
        assert np.array_equal(x[2], [0.5, 0.5])
        assert np.array_equal(x[3], [0.5, 0.5])
        # lam=1 keeps the first endpoint
        assert np.array_equal(x[4], points[0])
        assert np.array_equal(x[5], points[2])
        assert np.array_equal(ya, [0, 0, 0, 0, 0, 0])
        assert np.array_equal(yb, [1, 1, 1, 1, 1, 1])
        assert np.array_equal(lam, [0.0, 0.0, 0.5, 0.5, 1.0, 1.0])

    def test_bad_pairs_shape(self):
        with pytest.raises(ValueError, match="pairs"):
            virtual_samples(np.zeros((3, 2)), np.zeros(3, dtype=int),
                            np.array([0, 1]), np.array([0.5]))

    @pytest.mark.parametrize("pairs", [[[0, -1]], [[0, 5]], [[3, 0]]])
    def test_pair_index_out_of_range(self, pairs):
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            virtual_samples(np.zeros((3, 2)), np.zeros(3, dtype=int),
                            np.array(pairs), np.array([0.5]))

    def test_pair_index_not_integer(self):
        with pytest.raises(ValueError, match="integers"):
            virtual_samples(np.zeros((3, 2)), np.zeros(3, dtype=int),
                            np.array([[0.0, 1.0]]), np.array([0.5]))

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="grid"):
            virtual_samples(np.zeros((3, 2)), np.zeros(3, dtype=int),
                            np.array([[0, 1]]), np.array([]))
