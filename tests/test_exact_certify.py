"""Certificates against exact rational arithmetic over the same float box.

The network is one dense layer on one input feature, so every float step
of the interval pass is a single IEEE operation (no BLAS reduction), and
``fractions.Fraction`` gives the exact logit box of the float input box
for comparison. A certificate is sound only if the exact box certifies
too.
"""

from fractions import Fraction

import numpy as np
import pytest

from intervalcl import evaluation, nets
from intervalcl.intervals import IntervalTensor

SPEC = nets.NetworkSpec((1,), [nets.dense(2)], 2)


def _params(weight, bias):
    return nets.ParamSet(SPEC, np.concatenate([weight, bias]))


def exact_logit_box(lower: float, upper: float, weight, bias):
    """Exact (lower, upper) of ``w * x + b`` over ``lower <= x <= upper``,
    one pair per class, every input taken as the double it is."""
    lo, hi = Fraction(lower), Fraction(upper)
    box = []
    for w, b in zip(weight, bias):
        ends = (Fraction(float(w)) * lo + Fraction(float(b)),
                Fraction(float(w)) * hi + Fraction(float(b)))
        box.append((min(ends), max(ends)))
    return box


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


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: _affine_box forms centre +- halfwidth with "
    "round-to-nearest, so certify accepts near-tie boxes whose exact "
    "logit box overlaps"))
def test_certify_never_outruns_the_exact_reference_at_near_ties():
    wrong = [(x, eps) for x, eps, w, b in _near_tie_cases(seed=0, count=400)
             if _certified(x, eps, w, b, 0) and exact_margin(x, eps, w, b, 0) <= 0]
    assert wrong == []
