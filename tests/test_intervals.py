"""Interval rules against corner enumeration, concat statistics, and
Monte Carlo containment oracles."""

import itertools

import numpy as np
import pytest

from intervalcl import autodiff as ad
from intervalcl import intervals as iv
from intervalcl import nets
from intervalcl.intervals import IntervalTensor


def corner_hull_affine(weight, bias, lower, upper):
    """Exact output hull of an affine map over a box, by corner enumeration.

    Valid because an affine map attains its per-coordinate extrema at
    corners of the box.
    """
    dims = lower.size
    lo = np.full(weight.shape[0], np.inf)
    hi = np.full(weight.shape[0], -np.inf)
    for mask in itertools.product((0, 1), repeat=dims):
        corner = np.where(np.array(mask, dtype=bool), upper, lower)
        out = weight @ corner + bias
        lo = np.minimum(lo, out)
        hi = np.maximum(hi, out)
    return lo, hi


def test_interval_validation():
    with pytest.raises(ValueError):
        IntervalTensor(np.array([1.0]), np.array([0.5]))
    with pytest.raises(ValueError):
        IntervalTensor(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        IntervalTensor.from_ball(np.zeros(2), -0.1)


@pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, -0.1,
                                    np.array([[0.1], [np.nan]]),
                                    np.array([[0.1], [np.inf]])])
def test_from_ball_refuses_non_finite_or_negative_radius(radius):
    with pytest.raises(ValueError, match="finite and non-negative"):
        IntervalTensor.from_ball(np.zeros((2, 3)), radius)


def test_affine_identity():
    box = IntervalTensor(np.array([[0.0, 2.0]]), np.array([[1.0, 3.0]]))
    out = iv.interval_affine(box, np.eye(2), np.zeros(2))
    assert np.array_equal(out.lower, box.lower)
    assert np.array_equal(out.upper, box.upper)


def test_affine_negative_weight_keeps_order():
    box = IntervalTensor(np.array([[-1.0]]), np.array([[2.0]]))
    out = iv.interval_affine(box, np.array([[-2.0]]), np.array([1.0]))
    assert np.array_equal(out.lower, [[-3.0]])
    assert np.array_equal(out.upper, [[3.0]])


def test_affine_two_by_two_matches_corner_hull():
    weight = np.array([[1.0, -1.0], [2.0, 0.0]])
    bias = np.array([0.0, 1.0])
    lower = np.array([0.0, 2.0])
    upper = np.array([1.0, 3.0])
    out = iv.interval_affine(IntervalTensor(lower[None], upper[None]), weight, bias)
    lo_ref, hi_ref = corner_hull_affine(weight, bias, lower, upper)
    assert np.array_equal(out.lower[0], lo_ref)
    assert np.array_equal(out.upper[0], hi_ref)
    assert np.array_equal(out.lower[0], [-3.0, 1.0])
    assert np.array_equal(out.upper[0], [-1.0, 3.0])


@pytest.mark.parametrize("seed", range(8))
def test_affine_equals_corner_hull_exactly_on_dyadic_boxes(seed):
    # Dyadic rationals keep every product and sum exact in float64, so the
    # midpoint/radius form and the corner hull must agree bit for bit.
    rng = np.random.default_rng(seed)
    d_in, d_out = 5, 4
    weight = rng.integers(-32, 33, size=(d_out, d_in)) / 16.0
    bias = rng.integers(-32, 33, size=d_out) / 16.0
    centre = rng.integers(-16, 17, size=d_in) / 8.0
    radius = rng.integers(0, 9, size=d_in) / 16.0
    lower, upper = centre - radius, centre + radius
    out = iv.interval_affine(IntervalTensor(lower[None], upper[None]), weight, bias)
    lo_ref, hi_ref = corner_hull_affine(weight, bias, lower, upper)
    assert np.array_equal(out.lower[0], lo_ref)
    assert np.array_equal(out.upper[0], hi_ref)


def test_affine_shape_errors():
    box = IntervalTensor(np.zeros((1, 3)), np.ones((1, 3)))
    with pytest.raises(ValueError):
        iv.interval_affine(box, np.zeros((2, 4)), np.zeros(2))
    with pytest.raises(ValueError):
        iv.interval_affine(box, np.zeros((2, 3)), np.zeros(3))


def test_conv_one_by_one_identity():
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(1, 3, 3, 1))
    box = IntervalTensor(x - 0.1, x + 0.1)
    kernel = np.ones((1, 1, 1, 1))
    out = iv.interval_conv2d(box, kernel, np.zeros(1))
    assert np.allclose(out.lower, x - 0.1)
    assert np.allclose(out.upper, x + 0.1)


def test_conv_matches_corner_hull_exactly_on_dyadic_boxes():
    rng = np.random.default_rng(1)
    centre = rng.integers(0, 17, size=(3, 3)) / 16.0
    radius = rng.integers(0, 5, size=(3, 3)) / 16.0
    kernel = rng.integers(-8, 9, size=(2, 2, 1, 2)) / 8.0
    bias = rng.integers(-8, 9, size=2) / 8.0
    box = IntervalTensor((centre - radius)[None, :, :, None],
                         (centre + radius)[None, :, :, None])
    out = iv.interval_conv2d(box, kernel, bias)

    # A convolution is affine in the flattened input, so corner enumeration
    # over all 2^9 input corners gives the exact hull.
    lo = np.full((2, 2, 2), np.inf)
    hi = np.full((2, 2, 2), -np.inf)
    lower, upper = centre - radius, centre + radius
    for mask in itertools.product((0, 1), repeat=9):
        corner = np.where(np.array(mask, dtype=bool).reshape(3, 3), upper, lower)
        val = np.zeros((2, 2, 2))
        for i in range(2):
            for j in range(2):
                window = corner[i:i + 2, j:j + 2]
                val[i, j] = np.tensordot(window, kernel[:, :, 0, :], axes=2) + bias
        lo = np.minimum(lo, val)
        hi = np.maximum(hi, val)
    assert np.array_equal(out.lower[0, :, :, :], lo)
    assert np.array_equal(out.upper[0, :, :, :], hi)


@pytest.mark.parametrize("kh, kw, stride", [(2, 3, 1), (3, 2, 2), (3, 3, 2)])
def test_conv2d_reads_windows_in_im2col_order(kh, kw, stride):
    # Dyadic inputs and weights make every product and sum exact, so the
    # patch matmul must equal a direct loop over windows bit for bit,
    # whatever order it sums in, unless it pairs a pixel with the wrong
    # kernel position or channel.
    rng = np.random.default_rng(kh * 10 + kw + stride)
    x = rng.integers(-8, 9, size=(2, 7, 6, 3)) / 8.0
    kernel = rng.integers(-8, 9, size=(kh, kw, 3, 4)) / 8.0
    out = iv.conv2d(x, kernel, stride)
    oh, ow = (7 - kh) // stride + 1, (6 - kw) // stride + 1
    want = np.zeros((2, oh, ow, 4))
    for i in range(oh):
        for j in range(ow):
            window = x[:, i * stride:i * stride + kh, j * stride:j * stride + kw, :]
            want[:, i, j, :] = np.tensordot(window, kernel, axes=3)
    assert np.array_equal(out, want)


def test_relu_interval():
    box = IntervalTensor(np.array([[-1.0, 0.5]]), np.array([[2.0, 1.5]]))
    out = iv.interval_activation(box, "relu")
    assert np.array_equal(out.lower, [[0.0, 0.5]])
    assert np.array_equal(out.upper, [[2.0, 1.5]])


def test_sigmoid_interval():
    box = IntervalTensor(np.array([[-1.0]]), np.array([[1.0]]))
    out = iv.interval_activation(box, "sigmoid")
    assert out.lower[0, 0] == pytest.approx(1.0 / (1.0 + np.e))
    assert out.upper[0, 0] == pytest.approx(np.e / (1.0 + np.e))


def test_unknown_activation():
    box = IntervalTensor(np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        iv.interval_activation(box, "tanh")


_MOMENTS_2_2 = (np.array([[2.0]]), np.array([[2.0]]))


def test_batch_moments_match_numpy():
    rng = np.random.default_rng(2)
    flat = rng.normal(size=(6, 4))
    mean, var = iv.batch_moments(flat, (0,))
    assert mean.shape == var.shape == (1, 4)
    assert np.allclose(mean, flat.mean(axis=0), atol=1e-12)
    assert np.allclose(var, flat.var(axis=0), atol=1e-12)
    nhwc = rng.normal(size=(2, 3, 3, 4))
    mean, var = iv.batch_moments(nhwc, (0, 1, 2))
    assert mean.shape == var.shape == (1, 1, 1, 4)
    assert np.allclose(var, nhwc.var(axis=(0, 1, 2), keepdims=True), atol=1e-12)


def test_batchnorm_frozen_example():
    # Two scalar-feature samples with bounds [0,2] and [2,4] under mean 2 and
    # variance 2: with unit gamma and zero shift the outputs are [-r, 0] and
    # [0, r] for r = 2 / sqrt(2 + BN_EPS).
    box = IntervalTensor(np.array([[0.0], [2.0]]), np.array([[2.0], [4.0]]))
    out = iv.interval_batchnorm(box, np.ones(1), np.zeros(1), stats=_MOMENTS_2_2)
    r = 2.0 / np.sqrt(2.0 + iv.BN_EPS)
    assert np.allclose(out.lower, [[-r], [0.0]], atol=1e-12)
    assert np.allclose(out.upper, [[0.0], [r]], atol=1e-12)


def test_batchnorm_negative_gamma_swaps_roles():
    box = IntervalTensor(np.array([[0.0], [2.0]]), np.array([[2.0], [4.0]]))
    pos = iv.interval_batchnorm(box, np.ones(1), np.zeros(1), stats=_MOMENTS_2_2)
    neg = iv.interval_batchnorm(box, -np.ones(1), np.zeros(1), stats=_MOMENTS_2_2)
    assert np.allclose(neg.lower, -pos.upper, atol=1e-12)
    assert np.allclose(neg.upper, -pos.lower, atol=1e-12)
    assert np.all(neg.lower <= neg.upper)


def test_batchnorm_point_batch_matches_plain_formula():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 5))
    gamma = rng.normal(size=5)
    shift = rng.normal(size=5)
    got = iv.point_batchnorm(x, gamma, shift)
    ref = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + iv.BN_EPS) * gamma + shift
    assert np.allclose(got, ref, atol=1e-12)


def test_batchnorm_zero_radius_box_is_bitwise_point_path():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 3))
    gamma = rng.normal(size=3)
    shift = rng.normal(size=3)
    capture = []
    point = iv.point_batchnorm(x, gamma, shift, capture=capture)
    out = iv.interval_batchnorm(IntervalTensor(x, x), gamma, shift,
                                stats=capture[0])
    assert np.array_equal(out.lower, point)
    assert np.array_equal(out.upper, point)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_batchnorm_box_is_the_exact_corner_hull(sign):
    # With dyadic gamma, shift and frozen mean, and var + BN_EPS = 1/4, every
    # product and sum of the folded map is exact in binary floating point,
    # so the bounds must equal the min/max over the input-box corners bit
    # for bit, whichever way gamma's sign turns the box.
    rng = np.random.default_rng(8)
    feat = 4
    var = np.full((1, feat), 0.25 - iv.BN_EPS)
    assert np.all(var + iv.BN_EPS == 0.25)
    for _ in range(20):
        gamma = sign * rng.integers(1, 25, size=feat) / 16.0
        shift = rng.integers(-16, 17, size=feat) / 16.0
        mean = rng.integers(-8, 9, size=(1, feat)) / 16.0
        lower = rng.integers(0, 13, size=(1, feat)) / 16.0
        upper = lower + rng.integers(0, 4, size=(1, feat)) / 16.0
        out = iv.interval_batchnorm(IntervalTensor(lower, upper), gamma, shift,
                                    stats=(mean, var))
        images = np.array([
            (np.where(np.array(mask, dtype=bool), upper, lower) - mean)
            / np.sqrt(var + iv.BN_EPS) * gamma + shift
            for mask in itertools.product((0, 1), repeat=feat)])
        assert np.array_equal(out.lower, images.min(axis=0))
        assert np.array_equal(out.upper, images.max(axis=0))


def test_batchnorm_frozen_stats_and_capture():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 2))
    capture = []
    live = iv.point_batchnorm(x, np.ones(2), np.zeros(2), capture=capture)
    assert len(capture) == 1
    mean, var = capture[0]
    assert np.array_equal(mean, iv.batch_moments(x, (0,))[0])
    frozen = iv.point_batchnorm(x, np.ones(2), np.zeros(2), stats=(mean, var))
    assert np.array_equal(frozen, live)
    # Different batch with frozen stats differs from its own live stats.
    other = x[:2] + 1.0
    frozen_other = iv.point_batchnorm(other, np.ones(2), np.zeros(2),
                                      stats=(mean, var))
    live_other = iv.point_batchnorm(other, np.ones(2), np.zeros(2))
    assert not np.allclose(frozen_other, live_other)


def test_interval_batchnorm_takes_no_moments_from_its_box():
    box = IntervalTensor(np.zeros((2, 3)), np.ones((2, 3)))
    with pytest.raises(TypeError, match="stats"):
        iv.interval_batchnorm(box, np.ones(3), np.zeros(3))


def test_batchnorm_nhwc_axes():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 3, 3, 4))
    out = iv.point_batchnorm(x, np.ones(4), np.zeros(4))
    # Per-channel moments over batch and space; BN_EPS scales the variance
    # to var / (var + BN_EPS).
    var = x.var(axis=(0, 1, 2))
    assert np.allclose(out.mean(axis=(0, 1, 2)), 0.0, atol=1e-12)
    assert np.allclose(out.var(axis=(0, 1, 2)), var / (var + iv.BN_EPS), atol=1e-10)


def test_batchnorm_param_shape_error():
    box = IntervalTensor(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        iv.interval_batchnorm(box, np.ones(2), np.zeros(3),
                              stats=(np.zeros((1, 3)), np.ones((1, 3))))


def test_pool_max_and_avg_windows():
    lower = np.array([0.0, 1.0, 0.0, 1.0]).reshape(1, 2, 2, 1)
    upper = np.array([2.0, 5.0, 2.0, 5.0]).reshape(1, 2, 2, 1)
    box = IntervalTensor(lower, upper)
    mx = iv.interval_pool(box, "max", 2)
    assert mx.lower[0, 0, 0, 0] == 1.0
    assert mx.upper[0, 0, 0, 0] == 5.0
    av = iv.interval_pool(box, "avg", 2)
    assert av.lower[0, 0, 0, 0] == pytest.approx(0.5)
    assert av.upper[0, 0, 0, 0] == pytest.approx(3.5)
    with pytest.raises(ValueError):
        iv.interval_pool(box, "median", 2)


def test_max_pool_runs_no_window_gather_and_no_argmax(monkeypatch):
    # Max pooling is one strided fold: its forward and backward neither
    # gather windows nor take an argmax.
    calls = {"sliding_windows": 0, "argmax": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ad, "sliding_windows", counted("sliding_windows", ad.sliding_windows))
    monkeypatch.setattr(np, "argmax", counted("argmax", np.argmax))
    x = ad.Tensor(np.random.default_rng(3).normal(size=(2, 6, 6, 2)))
    iv.pool(x, "max", 2, 2).sum().backward()
    assert x.grad is not None
    assert calls == {"sliding_windows": 0, "argmax": 0}


def test_max_pool_hull_contains_samples():
    rng = np.random.default_rng(7)
    lower = rng.normal(size=(1, 4, 4, 2))
    upper = lower + rng.uniform(0.0, 0.5, size=lower.shape)
    box = IntervalTensor(lower, upper)
    out = iv.interval_pool(box, "max", 2)
    for _ in range(200):
        x = rng.uniform(lower, upper)
        pooled = iv.interval_pool(IntervalTensor(x, x), "max", 2)
        assert np.all(pooled.lower >= out.lower - 1e-12)
        assert np.all(pooled.upper <= out.upper + 1e-12)


def test_rules_are_monotone_in_the_input_box():
    rng = np.random.default_rng(8)
    x = rng.uniform(size=(2, 4, 4, 2))
    small = IntervalTensor(x - 0.05, x + 0.05)
    large = IntervalTensor(x - 0.10, x + 0.10)
    kernel = rng.normal(size=(2, 2, 2, 3))
    bias = rng.normal(size=3)
    for rule in (
        lambda b: iv.interval_conv2d(b, kernel, bias),
        lambda b: iv.interval_activation(b, "relu"),
        lambda b: iv.interval_activation(b, "sigmoid"),
        lambda b: iv.interval_pool(b, "max", 2),
        lambda b: iv.interval_pool(b, "avg", 2),
    ):
        out_s, out_l = rule(small), rule(large)
        assert np.all(out_l.lower <= out_s.lower + 1e-12)
        assert np.all(out_s.upper <= out_l.upper + 1e-12)


def test_zero_radius_collapse_is_bitwise_for_every_rule():
    rng = np.random.default_rng(9)
    x = rng.uniform(size=(2, 4, 4, 2))
    box = IntervalTensor(x, x)

    kernel = rng.normal(size=(2, 2, 2, 3))
    bias3 = rng.normal(size=3)
    out = iv.interval_conv2d(box, kernel, bias3)
    patches = np.stack([
        np.tensordot(x[b, i:i + 2, j:j + 2, :], kernel, axes=3) + bias3
        for b in range(2) for i in range(3) for j in range(3)
    ]).reshape(2, 3, 3, 3)
    assert np.array_equal(out.lower, out.upper)
    assert np.allclose(out.lower, patches, atol=1e-12)

    flat = x.reshape(2, -1)
    w = rng.normal(size=(5, flat.shape[1]))
    b = rng.normal(size=5)
    aff = iv.interval_affine(IntervalTensor(flat, flat), w, b)
    assert np.array_equal(aff.lower, aff.upper)
    assert np.array_equal(aff.lower, flat @ w.T + b)

    for kind in ("relu", "sigmoid"):
        got = iv.interval_activation(box, kind)
        assert np.array_equal(got.lower, got.upper)

    for kind in ("avg", "max"):
        got = iv.interval_pool(box, kind, 2)
        assert np.array_equal(got.lower, got.upper)


# ---- Monte Carlo soundness through whole networks ------------------------


def test_soundness_linear_network_is_exact():
    spec = nets.NetworkSpec((3,), [nets.dense(2)], classes=2)
    rng = np.random.default_rng(10)
    params = nets.ParamSet(spec, rng.integers(-16, 17, size=spec.total_params) / 8.0)
    centre = rng.integers(0, 17, size=(1, 3)) / 16.0
    box = IntervalTensor(centre - 0.125, centre + 0.125)
    report = iv.soundness_oracle(spec, params, box, samples=2000, seed=0)
    assert report.sound
    assert report.max_violation <= 0.0


def test_soundness_relu_mlp():
    spec = nets.NetworkSpec((4,), nets.mlp_layers([8, 8], 3), classes=3)
    rng = np.random.default_rng(11)
    params = nets.ParamSet(spec, rng.normal(size=spec.total_params))
    x = rng.uniform(size=(3, 4))
    box = IntervalTensor.from_ball(x, 0.1)
    report = iv.soundness_oracle(spec, params, box, samples=3000, seed=1)
    assert report.violations == 0
    assert report.max_violation <= 1e-9


def test_soundness_conv_batchnorm_pool():
    spec = nets.NetworkSpec(
        (6, 6, 1),
        [nets.conv(4, 3), nets.batchnorm(), nets.act("relu"), nets.avgpool(2),
         nets.flatten(), nets.dense(8), nets.act("relu"), nets.dense(2)],
        classes=2)
    rng = np.random.default_rng(12)
    params = nets.ParamSet(spec, rng.normal(size=spec.total_params) * 0.5)
    x = rng.uniform(size=(4, 6, 6, 1))
    box = IntervalTensor.from_ball(x, 0.05)
    report = iv.soundness_oracle(spec, params, box, samples=1500, seed=2)
    assert report.violations == 0


def test_soundness_max_pool_path():
    spec = nets.NetworkSpec(
        (4, 4, 2),
        [nets.maxpool(2), nets.flatten(), nets.dense(2)],
        classes=2)
    rng = np.random.default_rng(13)
    params = nets.ParamSet(spec, rng.normal(size=spec.total_params))
    x = rng.uniform(size=(2, 4, 4, 2))
    box = IntervalTensor.from_ball(x, 0.2)
    report = iv.soundness_oracle(spec, params, box, samples=2000, seed=3)
    assert report.violations == 0


def test_soundness_zero_radius_has_zero_violation():
    spec = nets.NetworkSpec((4,), nets.mlp_layers([6], 2), classes=2)
    rng = np.random.default_rng(14)
    params = nets.ParamSet(spec, rng.normal(size=spec.total_params))
    x = rng.uniform(size=(2, 4))
    report = iv.soundness_oracle(spec, params, IntervalTensor(x, x),
                                 samples=50, seed=4)
    assert report.max_violation <= 0.0


@pytest.mark.parametrize("samples,match", [
    (0, "samples must be at least 1, got 0"),
    (-1, "samples must be at least 1, got -1"),
    (2.0, "samples must be an integer"),
])
def test_soundness_oracle_refuses_bad_sample_counts(samples, match):
    spec = nets.NetworkSpec((4,), nets.mlp_layers([6], 2), classes=2)
    params = nets.ParamSet(spec, np.zeros(spec.total_params))
    box = IntervalTensor.from_ball(np.zeros((1, 4)), 0.1)
    with pytest.raises(ValueError, match=match):
        iv.soundness_oracle(spec, params, box, samples=samples, seed=0)


def _counting_passes(monkeypatch):
    """Wrap both forward passes on ``nets``; returns the per-pass call log
    and the ``bn_stats`` each interval pass was handed."""
    calls = {"forward_point": 0, "forward_interval": 0}
    handed = []
    for name in calls:
        inner = getattr(nets, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            if _name == "forward_interval":
                handed.append(kwargs.get("bn_stats"))
            return _inner(*args, **kwargs)
        monkeypatch.setattr(nets, name, counted)
    return calls, handed


@pytest.mark.parametrize("layers", [
    nets.mlp_layers([6], 2),
    [nets.dense(6), nets.batchnorm(), nets.act("relu"), nets.dense(2)],
])
def test_soundness_oracle_runs_one_point_and_one_interval_pass(monkeypatch, layers):
    spec = nets.NetworkSpec((4,), layers, classes=2)
    rng = np.random.default_rng(15)
    params = nets.ParamSet(spec, rng.normal(size=spec.total_params))
    box = IntervalTensor.from_ball(rng.uniform(size=(3, 4)), 0.1)
    calls, _ = _counting_passes(monkeypatch)
    assert iv.soundness_oracle(spec, params, box, samples=200, seed=5).sound
    assert calls == {"forward_point": 1, "forward_interval": 1}
    with pytest.raises(TypeError, match="tol"):
        iv.soundness_oracle(spec, params, box, samples=200, seed=5, tol=1e-9)


def test_soundness_oracle_takes_batchnorm_moments_from_its_samples(monkeypatch):
    # A1's seed-1004 draw: one box through dense -> flat batchnorm. The box
    # midpoint alone has variance exactly 0; the sampled points do not.
    spec = nets.NetworkSpec((6,), [nets.dense(8), nets.batchnorm(),
                                   nets.act("relu"), nets.dense(3)], classes=3)
    rng = np.random.default_rng(1004)
    params = nets.ParamSet(spec, rng.normal(scale=0.6, size=spec.total_params))
    center = rng.uniform(0.2, 0.8, size=(1, 6))
    radius = rng.uniform(0.0, 0.15, size=(1, 6))
    box = IntervalTensor.from_ball(center, radius)
    _, handed = _counting_passes(monkeypatch)
    assert iv.soundness_oracle(spec, params, box, samples=10_000, seed=2004).sound
    (stats,) = handed
    (mean, var), = stats
    assert np.all(var > 0)

    # The moments are those of the oracle's own sampled points.
    draw = np.random.default_rng(2004).uniform(size=(10_000, 1, 6))
    points = (box.lower + draw * (box.upper - box.lower)).reshape(10_000, 6)
    record = []
    nets.forward_point(spec, params, points, record=record)
    want_mean, want_var = iv.batch_moments(record[1], (0,))
    assert np.array_equal(mean, want_mean) and np.array_equal(var, want_var)


def test_soundness_oracle_catches_a_bias_below_a_relative_tolerance(monkeypatch):
    # A dense rule that lifts both bounds by 1e-12 of max(1, |upper|) leaves
    # every zero-radius box below its exact image. The escape is far under a
    # 1e-9 relative tolerance and far over the rounding budget.
    spec = nets.NetworkSpec((4,), nets.mlp_layers([6], 2), classes=2)
    rng = np.random.default_rng(14)
    params = nets.ParamSet(spec, rng.normal(size=spec.total_params))
    x = rng.uniform(size=(2, 4))
    exact_rule = iv.interval_affine

    def biased_rule(box, weight, bias):
        out = exact_rule(box, weight, bias)
        lift = 1e-12 * np.maximum(1.0, np.abs(out.upper))
        return IntervalTensor(out.lower + lift, out.upper + lift)
    monkeypatch.setattr(iv, "interval_affine", biased_rule)
    report = iv.soundness_oracle(spec, params, IntervalTensor(x, x),
                                 samples=2000, seed=4)
    assert report.violations == report.samples == 4000
    assert 0.0 < report.max_violation < 1e-9


def _mixed_spec_and_box(seed):
    spec = nets.NetworkSpec(
        (6, 6, 1),
        [nets.conv(3, 3), nets.batchnorm(), nets.act("relu"), nets.maxpool(2),
         nets.flatten(), nets.dense(5), nets.act("sigmoid"), nets.dense(3)],
        classes=3)
    rng = np.random.default_rng(seed)
    params = nets.ParamSet(spec, rng.normal(scale=0.6, size=spec.total_params))
    x = rng.uniform(size=(5, 6, 6, 1))
    stats: list = []
    nets.forward_point(spec, params, x, bn_capture=stats)
    return spec, params, x, stats


def test_rounding_budget_has_one_row_per_recorded_box():
    spec, params, x, stats = _mixed_spec_and_box(22)
    box = IntervalTensor.from_ball(x, 0.03)
    record = []
    nets.forward_interval(spec, params, box, record=record, bn_stats=stats)
    budget = iv.rounding_budget(spec, params, box, stats)
    assert budget.shape == (len(record), len(x)) == (len(spec.layers) + 1, 5)
    # The input row is u |x| + eps summed per sample, rounded up once.
    big = (np.abs(x) + 0.03).reshape(5, -1).sum(axis=1)
    assert budget[0].tobytes() == ((2.0 ** -53 * (1 + 2.0 ** -48)) * big).tobytes()
    # Relu, max pooling and flatten round nothing: their rows carry over.
    for k, layer in enumerate(spec.layers, start=1):
        if layer.kind in ("flatten", "pool") or layer.activation == "relu":
            assert np.array_equal(budget[k], budget[k - 1])
        else:
            assert np.all(budget[k] != budget[k - 1])


def test_rounding_budget_refuses_moments_that_do_not_fit_the_network():
    # As forward_interval does: a stray pair for an MLP, two pairs for one
    # batchnorm layer, and none at all for a box through batchnorm.
    mlp = nets.NetworkSpec((4,), nets.mlp_layers([6], 2), classes=2)
    rng = np.random.default_rng(23)
    box = IntervalTensor.from_ball(rng.uniform(size=(3, 4)), 0.1)
    pair = (np.zeros((1, 6)), np.ones((1, 6)))
    spec = nets.NetworkSpec((4,), [nets.dense(6), nets.batchnorm(), nets.act("relu"),
                                   nets.dense(2)], classes=2)
    for net, stats, match in (
            (mlp, [pair], "bn_stats holds 1 batchnorm moment pairs, network has 0 "),
            (spec, [pair, pair], "bn_stats holds 2 batchnorm moment pairs, network has 1 "),
            (spec, None, "layer 1: batchnorm on boxes needs moments")):
        params = nets.ParamSet(net, rng.normal(size=net.total_params))
        with pytest.raises(ValueError, match=match):
            nets.forward_interval(net, params, box, bn_stats=stats)
        with pytest.raises(ValueError, match=match):
            iv.rounding_budget(net, params, box, stats)


def test_soundness_oracle_refuses_one_point_through_batchnorm():
    # One sampled point is its own batch: variance 0, so the checked network
    # would scale the layer by gamma / sqrt(eps).
    spec = nets.NetworkSpec((3,), [nets.dense(4), nets.batchnorm(), nets.dense(2)],
                            classes=2)
    rng = np.random.default_rng(21)
    params = nets.ParamSet(spec, rng.normal(size=spec.total_params))
    box = IntervalTensor.from_ball(rng.uniform(0.2, 0.8, size=(1, 3)), 0.05)
    with pytest.raises(ValueError, match="2 or more sampled points, got 1"):
        iv.soundness_oracle(spec, params, box, samples=1, seed=0)
    assert iv.soundness_oracle(spec, params, box, samples=2, seed=0).samples == 2
