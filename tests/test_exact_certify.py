"""Certificates against exact rational arithmetic over the same float box.

The first network is one dense layer on one input feature, so every float
step of the interval pass is a single IEEE operation (no BLAS reduction);
the second is dense -> relu -> dense on three features. ``fractions.Fraction``
gives the exact box of each layer over the float input box for comparison.
A certificate is sound only if the exact box certifies too.

A third network, dense -> relu -> dense on one feature, checks certificates
against the point pass at the ball's centre. Two more carry the exact box
through a conv layer, and through batchnorm with frozen moments (as the
folded doubles the point pass applies). Average pooling and sigmoid,
the two interval rules that round outside the affine rule, are checked
against an exact window mean and a 60-digit ``decimal`` sigmoid, rule by
rule and as the hidden layer of a network.

``certify`` subtracts twice a per-sample rounding budget ``e`` from the
float margin, so none of its certificates may fail in exact arithmetic.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from intervalcl import evaluation, nets
from intervalcl import intervals as iv
from intervalcl.intervals import IntervalTensor

SPEC = nets.NetworkSpec((1,), [nets.dense(2)], 2)


def _params(weight, bias):
    return np.concatenate([weight, bias])


def _exact_dense(box, weight, bias):
    """Exact box of ``W x + b`` over the exact input ``box`` (one (lo, hi)
    per feature): per output, the sum of min/max(w*lo, w*hi), plus b, every
    weight and bias taken as the double it is."""
    out = []
    for row, b in zip(weight, bias):
        lo = hi = Fraction(float(b))
        for w, (x_lo, x_hi) in zip(row, box):
            ends = (Fraction(float(w)) * x_lo, Fraction(float(w)) * x_hi)
            lo += min(ends)
            hi += max(ends)
        out.append((lo, hi))
    return out


def exact_logit_box(lower: float, upper: float, weight, bias):
    """Exact (lower, upper) of ``w * x + b`` over ``lower <= x <= upper``,
    one pair per class, every input taken as the double it is."""
    return _exact_dense([(Fraction(lower), Fraction(upper))],
                        np.asarray(weight)[:, None], bias)


def exact_margin(x: float, eps: float, weight, bias, label: int) -> Fraction:
    """Own exact lower bound minus the best rival's exact upper bound over
    the float box ``from_ball`` builds; positive means certified."""
    ball = IntervalTensor.from_ball(np.array([[x]]), eps)
    box = exact_logit_box(float(ball.lower[0, 0]), float(ball.upper[0, 0]),
                          weight, bias)
    return box[label][0] - max(hi for j, (_, hi) in enumerate(box) if j != label)


def _certified(x, eps, weight, bias, label) -> bool:
    return bool(evaluation.certify(SPEC, _params(weight, bias), np.array([[x]]),
                                   np.array([label]), eps)[0])


def _near_tie_cases(seed: int, count: int):
    """Boxes whose rival (class 1) upper bound sits 1-5 ulps of the float
    margin below the own (class 0) lower bound: take the float margin with
    a zero rival bias, then set the rival bias to that margin less a few of
    its ulps."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        x = rng.uniform(0.2, 0.8)
        eps = rng.uniform(0.001, 0.05)
        weight = rng.normal(size=2)
        bias = np.array([rng.normal(), 0.0])
        box = nets.forward_interval(SPEC, _params(weight, bias), np.array([[x]]),
                                    eps=eps)
        margin = float(box.lower[0, 0] - box.upper[0, 1])
        bias[1] = margin - rng.integers(1, 6) * np.spacing(abs(margin))
        cases.append((x, eps, weight, bias))
    return cases


def test_exact_box_matches_affine_rule_on_dyadic_boxes():
    # Dyadic weights, biases and bounds round nowhere, so the float box of
    # the interval pass must equal the exact one.
    rng = np.random.default_rng(2)
    for _ in range(50):
        weight = rng.integers(-16, 17, size=2) / 8.0
        bias = rng.integers(-16, 17, size=2) / 8.0
        lo = rng.integers(0, 9) / 16.0
        hi = lo + rng.integers(0, 9) / 16.0
        box = nets.forward_interval(SPEC, _params(weight, bias),
                                    IntervalTensor(np.array([[lo]]), np.array([[hi]])))
        want = exact_logit_box(lo, hi, weight, bias)
        assert [(Fraction(float(box.lower[0, k])), Fraction(float(box.upper[0, k])))
                for k in range(2)] == want


def test_reference_agrees_with_certify_on_well_separated_boxes():
    rng = np.random.default_rng(4)
    outcomes = []
    for _ in range(300):
        x = rng.uniform(0.0, 1.0)
        eps = rng.uniform(0.0, 0.2)
        weight = rng.normal(size=2)
        bias = rng.normal(size=2)
        label = int(rng.integers(0, 2))
        margin = exact_margin(x, eps, weight, bias, label)
        if abs(margin) < Fraction(1, 10**6):
            continue
        exact = margin > 0
        assert _certified(x, eps, weight, bias, label) == exact
        outcomes.append(exact)
    assert len(outcomes) > 250
    assert any(outcomes) and not all(outcomes)


def test_near_tie_cases_include_boxes_the_reference_refuses():
    refused = [exact_margin(x, eps, w, b, 0) <= 0
               for x, eps, w, b in _near_tie_cases(seed=0, count=400)]
    assert any(refused)


def test_certify_never_outruns_the_exact_reference_at_near_ties():
    wrong = [(x, eps) for x, eps, w, b in _near_tie_cases(seed=0, count=400)
             if _certified(x, eps, w, b, 0) and exact_margin(x, eps, w, b, 0) <= 0]
    assert wrong == []


# ---- a certified ball whose centre is misclassified ----------------------

CENTRE = nets.NetworkSpec((1,), nets.mlp_layers([1], 2), 2)


def _dead_centre_cases(seed: int, count: int):
    """Balls around x whose one hidden unit is dead at x and alive at the
    ball's edge (weight 1, bias -x - eps*k), read out by weights (+c0, -c1)
    and biases (b, nextafter(b, inf)): the centre's logits are exactly
    ``[b, nextafter(b)]``, so it predicts class 1, and class 0 can only be
    certified through rounding."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        x = rng.uniform(0.2, 0.8)
        eps = rng.uniform(0.01, 0.1)
        k = rng.uniform(0.05, 0.95)
        c = rng.uniform(0.1, 10.0, size=2)
        b = rng.uniform(-50.0, 50.0)
        flat = np.array([1.0, -x - eps * k, c[0], -c[1], b, np.nextafter(b, np.inf)])
        cases.append((np.array([[x]]), eps, flat))
    return cases


def test_dead_centre_cases_predict_the_rival_at_their_centre():
    for x, eps, params in _dead_centre_cases(seed=1, count=1000):
        point: list = []
        logits = nets.forward_point(CENTRE, params, x, record=point)[0]
        b = params[-2]
        assert logits.tolist() == [b, np.nextafter(b, np.inf)]
        assert point[1][0, 0] < 0
        box: list = []
        nets.forward_interval(CENTRE, params, x, eps=eps, record=box)
        assert box[1].upper[0, 0] > 0


def test_certified_ball_classifies_its_centre_correctly():
    wrong = [i for i, (x, eps, params) in
             enumerate(_dead_centre_cases(seed=1, count=1000))
             if evaluation.certify(CENTRE, params, x, np.array([0]), eps)[0]
             and np.argmax(nets.forward_point(CENTRE, params, x)[0]) != 0]
    assert wrong == []


# ---- two layers: dense -> relu -> dense ----------------------------------

TWO = nets.NetworkSpec((3,), nets.mlp_layers([3], 2), 2)


def _two_params(w0, b0, w1, b1):
    return np.concatenate([w0.ravel(), b0, w1.ravel(), b1])


def exact_two_layer_boxes(lower, upper, w0, b0, w1, b1):
    """Exact (lower, upper) per unit after the dense, relu and dense layers,
    over the float box ``lower <= x <= upper`` of one sample."""
    box = [(Fraction(float(lo)), Fraction(float(hi))) for lo, hi in zip(lower, upper)]
    hidden = _exact_dense(box, w0, b0)
    relu = [(max(lo, 0), max(hi, 0)) for lo, hi in hidden]
    return [hidden, relu, _exact_dense(relu, w1, b1)]


def exact_two_layer_margin(x, eps, w0, b0, w1, b1, label: int) -> Fraction:
    ball = IntervalTensor.from_ball(x[None, :], eps)
    logits = exact_two_layer_boxes(ball.lower[0], ball.upper[0], w0, b0, w1, b1)[-1]
    return logits[label][0] - max(hi for j, (_, hi) in enumerate(logits) if j != label)


def _two_certified(x, eps, w0, b0, w1, b1, label) -> bool:
    return bool(evaluation.certify(TWO, _two_params(w0, b0, w1, b1), x[None, :],
                                   np.array([label]), eps)[0])


def _random_two_layer(rng):
    return (rng.normal(size=(3, 3)), rng.normal(size=3),
            rng.normal(size=(2, 3)), rng.normal(size=2))


def _two_layer_near_tie_cases(seed: int, count: int):
    """As ``_near_tie_cases``, on the last layer's rival (class 1) bias."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        x = rng.uniform(0.2, 0.8, size=3)
        eps = rng.uniform(0.001, 0.05)
        w0, b0, w1, b1 = _random_two_layer(rng)
        b1[1] = 0.0
        box = nets.forward_interval(TWO, _two_params(w0, b0, w1, b1), x[None, :],
                                    eps=eps)
        margin = float(box.lower[0, 0] - box.upper[0, 1])
        b1[1] = margin - rng.integers(1, 6) * np.spacing(abs(margin))
        cases.append((x, eps, w0, b0, w1, b1))
    return cases


def test_two_layer_exact_boxes_match_every_layer_on_dyadic_boxes():
    # Dyadic weights, biases and bounds round nowhere, so every recorded
    # float box must equal the exact one, layer by layer.
    rng = np.random.default_rng(6)
    for _ in range(50):
        w0, b0, w1, b1 = (rng.integers(-16, 17, size=shape) / 8.0
                          for shape in ((3, 3), 3, (2, 3), 2))
        lo = rng.integers(0, 9, size=3) / 16.0
        hi = lo + rng.integers(0, 9, size=3) / 16.0
        record: list = []
        nets.forward_interval(TWO, _two_params(w0, b0, w1, b1),
                              IntervalTensor(lo[None, :], hi[None, :]), record=record)
        want = exact_two_layer_boxes(lo, hi, w0, b0, w1, b1)
        got = [[(Fraction(float(box.lower[0, k])), Fraction(float(box.upper[0, k])))
                for k in range(box.shape[1])] for box in record[1:]]
        assert got == want


def test_two_layer_reference_agrees_with_certify_on_well_separated_boxes():
    rng = np.random.default_rng(8)
    outcomes = []
    for _ in range(300):
        x = rng.uniform(0.0, 1.0, size=3)
        eps = rng.uniform(0.0, 0.2)
        w0, b0, w1, b1 = _random_two_layer(rng)
        label = int(rng.integers(0, 2))
        margin = exact_two_layer_margin(x, eps, w0, b0, w1, b1, label)
        if abs(margin) < Fraction(1, 10**6):
            continue
        exact = margin > 0
        assert _two_certified(x, eps, w0, b0, w1, b1, label) == exact
        outcomes.append(exact)
    assert len(outcomes) > 250
    assert any(outcomes) and not all(outcomes)


def test_two_layer_near_tie_cases_include_boxes_the_reference_refuses():
    refused = [exact_two_layer_margin(x, eps, *net, 0) <= 0
               for x, eps, *net in _two_layer_near_tie_cases(seed=0, count=400)]
    assert any(refused)


def test_two_layer_certify_never_outruns_the_exact_reference_at_near_ties():
    wrong = [(x, eps) for x, eps, *net in _two_layer_near_tie_cases(seed=0, count=400)
             if _two_certified(x, eps, *net, 0)
             and exact_two_layer_margin(x, eps, *net, 0) <= 0]
    assert wrong == []


# ---- a conv layer, and batchnorm with frozen moments ---------------------

CONV = nets.NetworkSpec((2, 2, 1), [nets.conv(2, 2), nets.flatten(), nets.dense(2)], 2)
NORM = nets.NetworkSpec((1,), [nets.dense(2), nets.batchnorm(), nets.dense(2)], 2)
POOL = nets.NetworkSpec((4, 4, 1), [nets.avgpool(2), nets.flatten(), nets.dense(2)], 2)
SIG = nets.NetworkSpec((1,), [nets.dense(2), nets.act("sigmoid"), nets.dense(2)], 2)


def _float_box(x, eps):
    """The float box ``from_ball`` builds around one sample, as exact
    (lo, hi) pairs in C order."""
    ball = IntervalTensor.from_ball(x, eps)
    return [(Fraction(float(lo)), Fraction(float(hi)))
            for lo, hi in zip(ball.lower.ravel(), ball.upper.ravel())]


def exact_conv_logits(x, eps, params):
    """Exact logit box of CONV: its one 2x2 window is the whole input, so
    the conv box is ``_exact_dense`` with the kernel as a (c_out, kh*kw*c_in)
    matrix, and flatten keeps the channel order."""
    kernel = CONV.slot(params, 0, "kernel")
    conv = _exact_dense(_float_box(x, eps), kernel.reshape(-1, kernel.shape[3]).T,
                        CONV.slot(params, 0, "bias"))
    return _exact_dense(conv, CONV.slot(params, 2, "weight"), CONV.slot(params, 2, "bias"))


def exact_norm_logits(x, eps, params, stats):
    """Exact logit box of NORM under the frozen ``stats``: batchnorm is the
    per-feature map ``weight * h + bias`` in the doubles ``_bn_fold`` gives,
    the map the point pass applies."""
    hidden = _exact_dense(_float_box(x, eps), NORM.slot(params, 0, "weight"),
                          NORM.slot(params, 0, "bias"))
    weight, bias = iv._bn_fold((1, 2), NORM.slot(params, 1, "gamma"),
                               NORM.slot(params, 1, "shift"), stats[0])
    normed = [_exact_dense([h], [[w]], [c])[0]
              for h, w, c in zip(hidden, weight.ravel(), bias.ravel())]
    return _exact_dense(normed, NORM.slot(params, 2, "weight"), NORM.slot(params, 2, "bias"))


def exact_pool_logits(x, eps, params):
    """Exact logit box of POOL: each 2x2 window's exact mean bounds, in the
    (row, column) order flatten keeps, into the dense head."""
    box = _float_box(x, eps)
    at = lambda r, c: box[4 * r + c]  # noqa: E731
    pooled = [tuple(sum(at(2 * i + a, 2 * j + b)[k] for a in (0, 1) for b in (0, 1)) / 4
                    for k in (0, 1))
              for i in (0, 1) for j in (0, 1)]
    return _exact_dense(pooled, POOL.slot(params, 2, "weight"), POOL.slot(params, 2, "bias"))


# Far above the 60-digit error of a sigmoid, far below any float margin.
SIGMOID_SLACK = Fraction(1, 10**50)


def exact_sigmoid_logits(x, eps, params):
    """Logit box of SIG around the exact one: the hidden box is exact, its
    sigmoid is taken to 60 digits and widened by ``SIGMOID_SLACK`` each way,
    so it contains the exact image, and the head is exact on that."""
    hidden = _exact_dense(_float_box(x, eps), SIG.slot(params, 0, "weight"),
                          SIG.slot(params, 0, "bias"))
    with localcontext() as ctx:
        ctx.prec = 60
        sig = [[Fraction(1 / (1 + (-Decimal(v.numerator) / v.denominator).exp()))
                for v in unit] for unit in hidden]
    widened = [(lo - SIGMOID_SLACK, hi + SIGMOID_SLACK) for lo, hi in sig]
    return _exact_dense(widened, SIG.slot(params, 2, "weight"), SIG.slot(params, 2, "bias"))


def _draw_conv(rng):
    x = rng.uniform(0.2, 0.8, size=(1, 2, 2, 1))
    return x, rng.uniform(0.001, 0.05), rng.normal(size=CONV.total_params), None


def _draw_pool(rng):
    x = rng.uniform(0.2, 0.8, size=(1, 4, 4, 1))
    return x, rng.uniform(0.001, 0.05), rng.normal(size=POOL.total_params), None


def _draw_sigmoid(rng):
    x = rng.uniform(0.2, 0.8, size=(1, 1))
    return x, rng.uniform(0.001, 0.05), rng.normal(size=SIG.total_params), None


def _draw_norm(rng):
    x = rng.uniform(0.2, 0.8, size=(1, 1))
    eps = rng.uniform(0.001, 0.05)
    flat = rng.normal(size=NORM.total_params)
    stats = [(rng.normal(size=(1, 2)), rng.uniform(0.1, 2.0, size=(1, 2)))]
    return x, eps, flat, stats


def _deep_near_tie_cases(spec, draw, seed: int, count: int):
    """As ``_near_tie_cases``, on the rival (class 1) bias of the dense
    head, which is the last entry of the flat parameter vector."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        x, eps, flat, stats = draw(rng)
        flat[-1] = 0.0
        box = nets.forward_interval(spec, flat, x, eps=eps, bn_stats=stats)
        margin = float(box.lower[0, 0] - box.upper[0, 1])
        flat[-1] = margin - rng.integers(1, 6) * np.spacing(abs(margin))
        cases.append((x, eps, flat, stats))
    return cases


def _deep_exact_margin(spec, x, eps, params, stats, label: int) -> Fraction:
    logits = (exact_norm_logits(x, eps, params, stats) if spec is NORM else
              {CONV: exact_conv_logits, POOL: exact_pool_logits,
               SIG: exact_sigmoid_logits}[spec](x, eps, params))
    return logits[label][0] - logits[1 - label][1]


def _deep_wrong_certificates(spec, draw):
    return [i for i, (x, eps, params, stats)
            in enumerate(_deep_near_tie_cases(spec, draw, seed=0, count=400))
            if evaluation.certify(spec, params, x, np.array([0]), eps, bn_stats=stats)[0]
            and _deep_exact_margin(spec, x, eps, params, stats, 0) <= 0]


def _check_reference_agrees_with_certify(spec, draw):
    # Away from ties the exact margin's sign is the certificate; at the near
    # ties the reference refuses some boxes.
    rng = np.random.default_rng(10)
    outcomes = []
    for _ in range(300):
        x, eps, params, stats = draw(rng)
        label = int(rng.integers(0, 2))
        margin = _deep_exact_margin(spec, x, eps, params, stats, label)
        if abs(margin) < Fraction(1, 10**6):
            continue
        exact = margin > 0
        assert bool(evaluation.certify(spec, params, x, np.array([label]), eps,
                                       bn_stats=stats)[0]) == exact
        outcomes.append(exact)
    assert len(outcomes) > 250
    assert any(outcomes) and not all(outcomes)
    assert any(_deep_exact_margin(spec, x, eps, params, stats, 0) <= 0
               for x, eps, params, stats
               in _deep_near_tie_cases(spec, draw, seed=0, count=400))


@pytest.mark.parametrize("spec, draw", [(CONV, _draw_conv), (NORM, _draw_norm)])
def test_conv_and_batchnorm_references_agree_with_certify(spec, draw):
    _check_reference_agrees_with_certify(spec, draw)


@pytest.mark.parametrize("spec, draw", [(POOL, _draw_pool), (SIG, _draw_sigmoid)],
                         ids=["avg_pool", "sigmoid"])
def test_avg_pool_and_sigmoid_references_agree_with_certify(spec, draw):
    _check_reference_agrees_with_certify(spec, draw)


def _bounds_alone_certify(spec, params, x, eps) -> bool:
    box = nets.forward_interval(spec, params, x, eps=eps)
    return bool(box.lower[0, 0] > box.upper[0, 1])


@pytest.mark.parametrize("spec, draw", [(POOL, _draw_pool), (SIG, _draw_sigmoid)],
                         ids=["avg_pool", "sigmoid"])
def test_avg_pool_and_sigmoid_certify_never_outruns_the_exact_reference(spec, draw):
    # Both layers round outside the affine rule: their raw bounds can lie
    # inside the exact image (the two strict xfails below). Comparing the
    # logit bounds alone, the rule before the rounding budget, certifies
    # some of these near ties that the reference refuses; certify, which
    # takes 2e off the margin, certifies none.
    raw = [i for i, (x, eps, params, stats)
           in enumerate(_deep_near_tie_cases(spec, draw, seed=0, count=400))
           if _bounds_alone_certify(spec, params, x, eps)
           and _deep_exact_margin(spec, x, eps, params, stats, 0) <= 0]
    assert raw
    assert _deep_wrong_certificates(spec, draw) == []


def test_conv_certify_never_outruns_the_exact_reference_at_near_ties():
    assert _deep_wrong_certificates(CONV, _draw_conv) == []


def test_frozen_batchnorm_certify_never_outruns_the_exact_reference_at_near_ties():
    assert _deep_wrong_certificates(NORM, _draw_norm) == []


# ---- rounding sites outside the affine rule ------------------------------


def _avg_pool_lower_and_exact_means():
    """Lower bounds of 2x2 average pooling over 800 uniform windows, with
    the exact ``Fraction`` mean of each window's lower corner."""
    lower = np.random.default_rng(0).uniform(size=(200, 4, 4, 1))
    pooled = iv.interval_pool(IntervalTensor(lower, lower + 0.1), "avg", 2).lower
    windows = lower.reshape(200, 2, 2, 2, 2).swapaxes(2, 3).reshape(-1, 4)
    exact = [sum(Fraction(float(v)) for v in w) / 4 for w in windows]
    return [Fraction(float(v)) for v in pooled.ravel()], exact


def _sigmoid_upper_and_exact():
    """Upper bounds of the sigmoid rule at 2000 draws of N(0, 3^2), with the
    sigmoid of each draw to 60 digits."""
    x = np.random.default_rng(0).normal(0.0, 3.0, size=2000)
    upper = iv.interval_activation(IntervalTensor(x, x), "sigmoid").upper
    with localcontext() as ctx:
        ctx.prec = 60
        exact = [1 / (1 + (-Decimal(float(v))).exp()) for v in x]
    return [Decimal(float(u)) for u in upper], exact


def test_rounding_site_references_agree_within_two_ulps():
    got, exact = _avg_pool_lower_and_exact_means()
    assert all(abs(g - e) <= 2 * Fraction(np.spacing(float(e)))
               for g, e in zip(got, exact))
    got, exact = _sigmoid_upper_and_exact()
    assert all(abs(g - e) <= 2 * Decimal(np.spacing(float(e)))
               for g, e in zip(got, exact))


@pytest.mark.xfail(strict=True, reason=(
    "average pooling rounds its window sum to nearest; 284 of these 800 lower "
    "bounds lie above the exact window mean, which their budget covers in "
    "test_avg_pool_lower_bound_less_its_budget_never_exceeds_the_exact_mean"))
def test_avg_pool_lower_bound_never_exceeds_the_exact_mean():
    got, exact = _avg_pool_lower_and_exact_means()
    assert [i for i, (g, e) in enumerate(zip(got, exact)) if g > e] == []


def test_avg_pool_lower_bound_less_its_budget_never_exceeds_the_exact_mean():
    # The same windows through POOL, whose layer 1 is the pooling: its row
    # of the rounding budget covers what the raw rule rounds away.
    lower = np.random.default_rng(0).uniform(size=(200, 4, 4, 1))
    budget = iv.rounding_budget(POOL, np.zeros(POOL.total_params),
                                IntervalTensor(lower, lower + 0.1))[1]
    got, exact = _avg_pool_lower_and_exact_means()
    assert len(got) == 4 * len(budget)
    assert [i for i, (g, e) in enumerate(zip(got, exact))
            if g - Fraction(float(budget[i // 4])) > e] == []


@pytest.mark.xfail(strict=True, reason=(
    "ad.sigmoid rounds 1 / (1 + exp(-x)) to nearest; 953 of these 2000 upper "
    "bounds lie below the exact sigmoid, which their budget covers in "
    "test_sigmoid_upper_bound_plus_its_budget_never_falls_below_the_exact_sigmoid"))
def test_sigmoid_upper_bound_never_falls_below_the_exact_sigmoid():
    got, exact = _sigmoid_upper_and_exact()
    assert [i for i, (g, e) in enumerate(zip(got, exact)) if g < e] == []


def test_sigmoid_upper_bound_plus_its_budget_never_falls_below_the_exact_sigmoid():
    # The same draws through a sigmoid layer and a dense head: layer 1's
    # row of the rounding budget covers what the raw rule rounds away.
    spec = nets.NetworkSpec((1,), [nets.act("sigmoid"), nets.dense(2)], 2)
    x = np.random.default_rng(0).normal(0.0, 3.0, size=(2000, 1))
    budget = iv.rounding_budget(spec, np.zeros(spec.total_params),
                                IntervalTensor(x, x))[1]
    got, exact = _sigmoid_upper_and_exact()
    assert [i for i, (g, e) in enumerate(zip(got, exact))
            if Fraction(g) + Fraction(float(budget[i])) < Fraction(e)] == []
