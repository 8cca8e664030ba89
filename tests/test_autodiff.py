"""Tape correctness against hand-derived gradients and finite differences."""

import re

import numpy as np
import pytest

from intervalcl import autodiff as ad
from intervalcl.autodiff import Tensor


def test_square_gradient_is_two_x():
    w = Tensor(np.array(3.0))
    out = w * w
    out.backward()
    assert w.grad == pytest.approx(6.0)


def test_abs_gradient_sign():
    w = Tensor(np.array(-2.0))
    ad.absolute(w).backward()
    assert w.grad == pytest.approx(-1.0)


def test_abs_subgradient_zero_at_kink():
    w = Tensor(np.array(0.0))
    ad.absolute(w).backward()
    assert w.grad == 0.0


def test_relu_subgradient_zero_at_kink():
    w = Tensor(np.array([0.0, -1.0, 2.0]))
    ad.relu(w).sum().backward()
    assert np.array_equal(w.grad, [0.0, 0.0, 1.0])


def test_backward_requires_scalar():
    w = Tensor(np.zeros(3))
    with pytest.raises(ValueError):
        (w * 2.0).backward()


def test_gradient_accumulates_over_reuse():
    # y = w*w + 3w touches w twice; dy/dw = 2w + 3.
    w = Tensor(np.array(5.0))
    (w * w + w * 3.0).backward()
    assert w.grad == pytest.approx(13.0)


def test_gradient_linearity():
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(4,)))
    (w * w).sum().backward()
    g_sq = w.grad.copy()
    w.grad = None
    (w * 2.0).sum().backward()
    g_lin = w.grad.copy()
    w.grad = None
    ((w * w).sum() + (w * 2.0).sum()).backward()
    assert np.allclose(w.grad, g_sq + g_lin, rtol=0, atol=1e-15)


def test_topological_order_visits_each_node_once_parents_first():
    w = Tensor(np.array(2.0))
    a = w * w
    b = a + w
    c = a * b  # diamond: a feeds both b and c
    order = ad.topological_order(c)
    ids = [id(n) for n in order]
    assert len(ids) == len(set(ids))
    pos = {id(n): i for i, n in enumerate(order)}
    for node in order:
        for parent in node._parents:
            assert pos[id(parent)] < pos[id(node)]


def test_constant_operands_form_no_gradient(monkeypatch):
    # Elementwise ops call _unbroadcast once per gradient they form; the
    # constants are plain arrays off the tape, so none is formed for them.
    shapes = []
    unbroadcast = ad._unbroadcast

    def recording(grad, shape):
        shapes.append(shape)
        return unbroadcast(grad, shape)

    monkeypatch.setattr(ad, "_unbroadcast", recording)
    p = Tensor(np.arange(6.0).reshape(2, 3))
    scale = np.array([1.0, 2.0, 3.0])
    shift = np.array([[4.0, 5.0, 6.0]])
    denom = np.array([[2.0], [4.0]])
    ((p * scale + shift) / denom).sum().backward()
    assert shapes == [(2, 3)] * 3
    assert np.array_equal(p.grad, scale / denom)

    # ``-`` and ``linear`` with a constant on either side: the node's one
    # parent is the parameter's path, and backward runs its form once.
    square = np.eye(2) * 2.0
    for build in [lambda: p - shift, lambda: shift - p,
                  lambda: ad.linear(square, p.reshape(3, 2)),
                  lambda: ad.linear(p.reshape(3, 2), square)]:
        out = build()
        assert len(out._parents) == len(out._forms) == 1
        ran = []
        form = out._forms[0]
        out._forms = (lambda g: ran.append(0) or form(g),)
        p.grad = None
        out.sum().backward()
        assert ran == [0]
        assert p.grad is not None


def test_constant_leaves_stay_grad_free():
    w = Tensor(np.array(2.0))
    c = np.array(4.0)
    out = w * c
    out.backward()
    assert w.grad == pytest.approx(4.0)
    assert ad.topological_order(out) == [w, out]


def test_linear_regression_matches_finite_differences_tightly():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(16, 3))
    y = rng.normal(size=(16, 1))
    w = Tensor(rng.normal(size=(1, 3)))
    b = Tensor(np.zeros(1))

    def build():
        pred = ad.linear(x, w, b)
        diff = pred - y
        return (diff * diff).sum() * (1.0 / 16)

    assert ad.grad_check(build, [w, b]) <= 1e-7


def test_linear_is_bitwise_the_matmul_transpose_add_chain():
    # Reference: the matmul -> transpose -> add chain in plain numpy, in its
    # own order: value ``x @ w.T + b``; gradients ``g @ w`` for x,
    # ``(x.T @ g).T`` for w and ``g.sum(0)`` for b. Covers one row and a
    # batch, an ndarray input beside Tensor weights, and the bias-free form.
    rng = np.random.default_rng(11)
    for batch, array_x, with_bias in [(1, False, True), (6, False, True),
                                      (6, True, True), (4, False, False),
                                      (1, True, False)]:
        x_val = rng.normal(size=(batch, 7))
        w_val = rng.normal(size=(5, 7))
        b_val = rng.normal(size=5)
        upstream = rng.normal(size=(batch, 5))

        x = x_val.copy() if array_x else Tensor(x_val.copy())
        w, b = Tensor(w_val.copy()), Tensor(b_val.copy())
        out = ad.linear(x, w, b) if with_bias else ad.linear(x, w)
        (out * upstream).sum().backward()

        ref = x_val @ w_val.T + b_val if with_bias else x_val @ w_val.T
        assert np.array_equal(out.value, ref)
        assert np.array_equal(w.grad, (x_val.T @ upstream).T)
        assert w.grad.flags.c_contiguous
        assert all(not parent._parents for parent in out._parents)  # one node
        if not array_x:
            assert np.array_equal(x.grad, upstream @ w_val)
        if with_bias:
            assert np.array_equal(b.grad, upstream.sum(0))
        else:
            assert b.grad is None


def test_linear_matches_finite_differences():
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(3, 4)))
    w = Tensor(rng.normal(size=(2, 4)))
    b = Tensor(rng.normal(size=2))

    def build():
        return ad.sigmoid(ad.linear(x, w, b)).sum()

    assert ad.grad_check(build, [x, w, b]) <= 1e-8


def test_constant_operands_get_no_gradient():
    # A plain ndarray input stays off the tape; the weight gradient of a
    # summed output is each output row's input.
    rng = np.random.default_rng(13)
    x = rng.normal(size=(1, 3))
    w = Tensor(rng.normal(size=(2, 3)))
    b = Tensor(rng.normal(size=2))
    out = ad.linear(x, w, b)
    assert out._parents == (w, b)
    out.sum().backward()
    ad.linear(x, w).sum().backward()
    assert np.array_equal(w.grad, 2.0 * np.repeat(x, 2, axis=0))
    assert np.array_equal(b.grad, np.ones(2))


def test_linear_on_arrays_is_plain_numpy():
    rng = np.random.default_rng(14)
    x, w, b = rng.normal(size=(3, 4)), rng.normal(size=(2, 4)), rng.normal(size=2)
    out = ad.linear(x, w, b)
    assert type(out) is np.ndarray
    assert np.array_equal(out, x @ w.T + b)
    assert np.array_equal(ad.linear(x, w), x @ w.T)


@pytest.mark.parametrize("axis", [None, 0, 2, -1, (0, 2)])
@pytest.mark.parametrize("keepdims", [False, True])
def test_mean_tensor_and_ndarray_agree_bitwise(axis, keepdims):
    a = np.random.default_rng(15).normal(size=(3, 4, 5))
    taped = ad.mean(Tensor(a), axis, keepdims=keepdims)
    plain = ad.mean(a, axis, keepdims=keepdims)
    assert isinstance(taped, Tensor) and isinstance(plain, np.ndarray | float)
    assert np.array_equal(taped.value, plain)
    assert np.allclose(plain, np.mean(a, axis=axis, keepdims=keepdims),
                       rtol=1e-15, atol=0.0)


def test_mean_matches_finite_differences():
    rng = np.random.default_rng(16)
    a = Tensor(rng.normal(size=(3, 4, 5)))

    def build():
        return (ad.mean(a * a, (0, 2), keepdims=True) * a).sum() \
            + ad.sigmoid(ad.mean(a, 1)).sum() + ad.mean(ad.relu(a))

    assert ad.grad_check(build, [a]) <= 1e-8


@pytest.mark.parametrize("seed", range(5))
def test_composite_ops_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    w = Tensor(rng.normal(size=(3, 4)))
    v = Tensor(rng.normal(size=(2, 3)))

    def build():
        h = ad.linear(ad.relu(ad.linear(rng2, w)), v)
        mixed = ad.sigmoid(h) + ad.absolute(h) * 0.25 + ad.sqrt(h * h + 1.0)
        return mixed.sum() + (h * 1e-2).sum() * (1.0 / 12)

    rng2 = rng.normal(size=(6, 4))
    assert ad.grad_check(build, [w, v], rng=rng, max_coords=8) <= 1e-6


def test_broadcast_add_mul_unbroadcast():
    rng = np.random.default_rng(7)
    a = Tensor(rng.normal(size=(5, 3)))
    b = Tensor(rng.normal(size=(3,)))
    s = Tensor(rng.normal(size=(1,)))

    def build():
        return ((a + b) * s).sum()

    assert ad.grad_check(build, [a, b, s]) <= 1e-8


def test_division_and_pow():
    rng = np.random.default_rng(9)
    a = Tensor(rng.uniform(1.0, 2.0, size=(4,)))
    b = Tensor(rng.uniform(1.0, 2.0, size=(4,)))

    def build():
        # Integer powers are repeated products on the tape.
        return (a / b + a * a * a + 2.0 / b).sum()

    assert ad.grad_check(build, [a, b]) <= 1e-8


def test_max_reduction_routes_to_first_tie():
    # One 2x2 window whose maximum 3 sits at kernel positions 1 and 2.
    w = Tensor(np.array([1.0, 3.0, 3.0, 0.0]).reshape(1, 2, 2, 1))
    ad.window_max(w, 2, 2).sum().backward()
    assert np.array_equal(w.grad.reshape(-1), [0.0, 1.0, 0.0, 0.0])


def test_slot_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    w = Tensor(rng.normal(size=24))

    def build():
        # Overlapping slots, one read twice, and an untouched tail.
        a = ad.slot(w, 0, (3, 2))
        b = ad.slot(w, 4, (3, 2))
        c = ad.slot(w, 10, (4,))
        return ad.linear(a, b).sum() + (c * c).sum() + ad.slot(w, 0, (3, 2)).sum()

    assert ad.grad_check(build, [w]) <= 1e-8


def test_slot_reads_a_block_in_c_order():
    rng = np.random.default_rng(6)
    block = Tensor(rng.normal(size=(3, 8)))
    row = ad.slot(block, 8, (8,))
    assert np.array_equal(row.value, block.value[1])
    assert np.array_equal(ad.slot(block.value, 0, (2, 8)), block.value[:2])

    def build():
        head = ad.slot(block, 0, (2, 8))
        return (head * head).sum() + (ad.slot(block, 16, (2, 4)) * 3.0).sum()

    assert ad.grad_check(build, [block]) <= 1e-8


def test_append_row_stacks_and_routes_the_gradient_to_its_operands():
    rng = np.random.default_rng(7)
    frozen = rng.normal(size=(2, 3))
    row = Tensor(rng.normal(size=3))
    out = ad.append_row(frozen, row)
    assert np.array_equal(out.value, np.vstack([frozen, row.value]))
    assert [id(p) for p in out._parents] == [id(row)]
    weight = rng.normal(size=(3, 3))
    (out * weight).sum().backward()
    assert np.array_equal(row.grad, weight[2])
    assert np.array_equal(ad.append_row(np.zeros((0, 3)), row.value),
                          row.value[None])
    both = Tensor(frozen)
    ad.zero_grads([row])
    ad.append_row(both, row).sum().backward()
    assert np.array_equal(both.grad, np.ones((2, 3)))
    assert np.array_equal(row.grad, np.ones(3))
    with pytest.raises(ValueError, match="cannot append"):
        ad.append_row(frozen, np.zeros(4))
    with pytest.raises(ValueError, match="cannot append"):
        ad.append_row(np.zeros(3), np.zeros(3))


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _operand(kind, value):
    if kind == "T":
        return Tensor(np.array(value, copy=True))
    return np.array(value, copy=True) if kind == "ndarray" else float(value)


_PAIRS = [((4, 3), ()), ((), (4, 3)), ((4, 3), (1, 3)), ((1, 3), (4, 1)),
          ((4, 1), (4, 3)), ((4, 3), (4, 3))]
_SHAPES = [(), (1, 3), (4, 1), (4, 3)]


@pytest.mark.parametrize("left,right,a_shape,b_shape",
                         [("T", "T", a, b) for a, b in _PAIRS]
                         + [("ndarray", "T", a, b) for a, b in _PAIRS]
                         + [("T", "scalar", s, ()) for s in _SHAPES]
                         + [("scalar", "T", (), s) for s in _SHAPES])
def test_subtraction_is_one_node_bitwise_the_negate_add_chain(left, right,
                                                              a_shape, b_shape):
    rng = np.random.default_rng(17)

    def draw(shape):
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-4, 4, shape)

    a_val, b_val = draw(a_shape), draw(b_shape)
    upstream = draw(np.broadcast_shapes(a_shape, b_shape))

    def run(sub):
        a, b = _operand(left, a_val), _operand(right, b_val)
        out = sub(a, b)
        (out * upstream).sum().backward()
        return out, [t.grad for t in (a, b) if isinstance(t, Tensor)]

    out, grads = run(lambda a, b: a - b)
    # Multiplying by -1.0 negates exactly, value and gradient alike.
    ref, ref_grads = run(lambda a, b: a + b * -1.0)
    assert len(out._parents) == (left, right).count("T")
    assert all(not parent._parents for parent in out._parents)  # one node
    assert np.array_equal(_bits(out.value), _bits(ref.value))
    assert [g.shape for g in grads] == [g.shape for g in ref_grads]
    for got, want in zip(grads, ref_grads):
        assert np.array_equal(_bits(got), _bits(want))


def test_ndarray_on_left_dispatches_to_tensor():
    w = Tensor(np.array([2.0]))
    out = np.array([3.0]) * w + np.array([1.0]) - w
    assert isinstance(out, Tensor)
    out.sum().backward()
    assert w.grad == pytest.approx(2.0)


def test_extract_patches_values_and_gradient():
    # Convolution's patches: a 1x3x3x1 input under a 2x2 window at stride 1
    # gives four windows, each reading its kernel positions row-major.
    x = np.arange(9, dtype=np.float64).reshape(1, 3, 3, 1)
    windows = ad.sliding_windows(x, 2, 2, 1, 1)
    assert windows.shape == (1, 2, 2, 4, 1)
    assert np.array_equal(windows[0, 0, 0, :, 0], [0.0, 1.0, 3.0, 4.0])
    assert np.array_equal(windows[0, 1, 1, :, 0], [4.0, 5.0, 7.0, 8.0])

    t = Tensor(x)
    weights = np.arange(16, dtype=np.float64).reshape(1, 2, 2, 4, 1)

    def build():
        return (ad.sliding_windows(t, 2, 2, 1, 1) * weights).sum()

    assert ad.grad_check(build, [t]) <= 1e-8


def test_extract_patches_rejects_oversized_window():
    x = np.zeros((1, 3, 3, 1))
    with pytest.raises(ValueError, match="does not fit"):
        ad.sliding_windows(x, 4, 4, 1, 1)
    with pytest.raises(ValueError, match="does not fit"):
        ad.sliding_windows(np.zeros((1, 3, 5, 1)), 2, 6, 1, 1)


@pytest.mark.parametrize("shape, window", [
    ((3, 3, 1), (2, 2, 1, 1)), ((1, 3, 3, 1), (2, 2, 0, 1)),
    ((1, 3, 3, 1), (0, 2, 1, 1))])
def test_sliding_windows_rejects_bad_rank_and_sizes(shape, window):
    with pytest.raises(ValueError):
        ad.sliding_windows(np.zeros(shape), *window)


def test_pool_windows_shape_and_gradient():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 4, 4, 3))
    pooled = ad.window_max(x, 2, 2)
    assert pooled.shape == (2, 2, 2, 3)
    assert pooled[0, 0, 0, 1] == x[0, 0:2, 0:2, 1].max()

    t = Tensor(x)

    def build():
        return ad.window_max(t, 2, 2).sum()

    assert ad.grad_check(build, [t], rng=rng, max_coords=24) <= 1e-8


def _window_max_reference(x, window, stride):
    """Max pooling as a window gather, ``np.argmax`` over the kernel axis
    and ``take_along_axis``; backward puts the gradient at the argmax with
    ``put_along_axis`` and scatters the windows back onto the input."""
    windows = ad.sliding_windows(x, window, window, stride, stride)
    val = windows.value
    idx = np.expand_dims(np.argmax(val, axis=3), 3)

    def form(g):
        gw = np.zeros(val.shape)
        np.put_along_axis(gw, idx, g[:, :, :, None, :], 3)
        return gw

    return ad._node(np.take_along_axis(val, idx, 3)[:, :, :, 0], (windows,), form)


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("window,stride", [(2, 2), (3, 2), (2, 1), (3, 1)])
@pytest.mark.parametrize("ties", ["none", "relu", "constant"])
def test_window_max_is_bitwise_the_gather_argmax(window, stride, channels, ties):
    rng = np.random.default_rng(window * 10 + stride + channels)
    x = rng.normal(size=(2, 7, 8, channels))
    if ties == "relu":
        x = np.maximum(x, 0.0)  # exact zeros tie across whole windows
    elif ties == "constant":
        x[:, :4, :5] = 0.25
        x[1] = np.round(x[1])
        # 0.0 and -0.0 tie; the value keeps the sign of the first one.
        x[0, 3:, 4:] = rng.choice([0.0, -0.0], size=x[0, 3:, 4:].shape)
    ref_in, new_in = Tensor(x), Tensor(x)
    ref, got = _window_max_reference(ref_in, window, stride), ad.window_max(new_in, window, stride)
    assert np.array_equal(got.value.view(np.int64), ref.value.view(np.int64))
    upstream = rng.normal(size=got.shape) * 10.0 ** rng.uniform(-5, 5, got.shape)
    upstream[0, 0, 0, 0] = np.inf  # only its own window's first maximum turns inf
    with np.errstate(invalid="ignore"):
        (ref * upstream).sum().backward()
        (got * upstream).sum().backward()
    assert np.array_equal(new_in.grad.view(np.int64), ref_in.grad.view(np.int64))


def test_window_max_gradient_matches_finite_differences_where_windows_overlap():
    rng = np.random.default_rng(12)
    t = Tensor(rng.normal(size=(2, 7, 6, 2)))
    weights = rng.normal(size=(2, 3, 2, 2))

    def build():
        return (ad.window_max(t, 3, 2) * weights).sum()

    assert ad.grad_check(build, [t]) <= 1e-8


@pytest.mark.parametrize("shape, window, stride", [
    ((3, 3, 1), 2, 1), ((1, 3, 3, 1), 2, 0), ((1, 3, 3, 1), 0, 1),
    ((1, 3, 3, 1), 4, 1), ((1, 5, 3, 1), 4, 1)])
def test_window_max_rejects_what_sliding_windows_rejects(shape, window, stride):
    with pytest.raises(ValueError) as gather:
        ad.sliding_windows(np.zeros(shape), window, window, stride, stride)
    with pytest.raises(ValueError, match=re.escape(str(gather.value))):
        ad.window_max(np.zeros(shape), window, stride)


def test_extract_patches_gradient_at_stride_two():
    # Overlapping 3x3 windows on stride 2 over two channels.
    rng = np.random.default_rng(11)
    t = Tensor(rng.normal(size=(2, 7, 6, 2)))
    weights = rng.normal(size=(2, 3, 2, 9, 2))

    def build():
        return (ad.sliding_windows(t, 3, 3, 2, 2) * weights).sum()

    assert ad.grad_check(build, [t]) <= 1e-8


def _scatter_reference(shape, grad6, kh, kw, sh, sw):
    """Per-element scatter of (B, OH, OW, kh, kw, C) window gradients."""
    _, oh, ow = grad6.shape[:3]
    rows = (np.arange(oh) * sh)[:, None, None, None] + np.arange(kh)[None, None, :, None]
    cols = (np.arange(ow) * sw)[None, :, None, None] + np.arange(kw)[None, None, None, :]
    gx = np.zeros(shape)
    np.add.at(gx, (slice(None), rows, cols, slice(None)), grad6)
    return gx


def _window_grad(rng, x, kh, kw, sh, sw, gather):
    """Backward of ``gather`` under an upstream gradient spanning ~10
    orders of magnitude, and the per-element scatter of the same one."""
    t = Tensor(x)
    out = gather(t)
    upstream = rng.normal(size=out.shape) * 10.0 ** rng.uniform(-5, 5, out.shape)
    (out * upstream).sum().backward()
    b, oh, ow = out.shape[:3]
    grad6 = upstream.reshape(b, oh, ow, kh, kw, x.shape[3])
    return t.grad, _scatter_reference(x.shape, grad6, kh, kw, sh, sw)


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("kh,kw,sh,sw", [
    (2, 2, 1, 1), (3, 3, 1, 1), (3, 3, 2, 2), (2, 2, 2, 2),
    (3, 2, 2, 1), (2, 3, 1, 2)])
def test_extract_patches_backward_is_bitwise_the_scatter(kh, kw, sh, sw, channels):
    rng = np.random.default_rng(kh * 100 + kw * 10 + sh + channels)
    x = rng.normal(size=(2, 7, 8, channels))
    got, want = _window_grad(
        rng, x, kh, kw, sh, sw,
        lambda t: ad.sliding_windows(t, kh, kw, sh, sw))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("window,stride", [(2, 1), (3, 1), (3, 2), (2, 2)])
def test_pool_windows_backward_is_bitwise_the_scatter(window, stride, channels):
    rng = np.random.default_rng(window * 10 + stride + channels)
    x = rng.normal(size=(2, 7, 7, channels))
    got, want = _window_grad(
        rng, x, window, window, stride, stride,
        lambda t: ad.sliding_windows(t, window, window, stride, stride))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_gathered_windows_fold_into_im2col_rows_without_a_copy():
    x = np.random.default_rng(20).normal(size=(3, 8, 7, 2))
    windows = ad._gather_windows(x, 3, 2, 2, 1)
    assert windows.shape == (3, 3, 6, 3, 2, 2) and windows.flags.c_contiguous
    rows = windows.reshape(3 * 3 * 6, 3 * 2 * 2)
    assert np.shares_memory(rows, windows)
    # The gather index is made once per geometry and cannot be written.
    index = ad._window_index(7, 3, 6, 3, 2, 2, 1)
    assert ad._window_index(7, 3, 6, 3, 2, 2, 1) is index
    assert not index.flags.writeable


@pytest.mark.parametrize("kh, kw, stride", [(2, 3, 1), (3, 2, 2), (3, 3, 2)])
def test_conv2d_reads_windows_in_im2col_order(kh, kw, stride):
    # Dyadic inputs and weights make every product and sum exact, so the
    # patch matmul must equal a direct loop over windows bit for bit,
    # whatever order it sums in, unless it pairs a pixel with the wrong
    # kernel position or channel.
    rng = np.random.default_rng(kh * 10 + kw + stride)
    x = rng.integers(-8, 9, size=(2, 7, 6, 3)) / 8.0
    kernel = rng.integers(-8, 9, size=(kh, kw, 3, 4)) / 8.0
    out = ad.conv2d(x, kernel, stride)
    oh, ow = (7 - kh) // stride + 1, (6 - kw) // stride + 1
    want = np.zeros((2, oh, ow, 4))
    for i in range(oh):
        for j in range(ow):
            window = x[:, i * stride:i * stride + kh, j * stride:j * stride + kw, :]
            want[:, i, j, :] = np.tensordot(window, kernel, axes=3)
    assert np.array_equal(out, want)


def _matmul_node(x, y):
    """``x @ y`` of 2-d operands as one tape node, as the chain had it."""
    a, b = ad.payload(x), ad.payload(y)
    return ad._node(a @ b, (x, y), lambda g: g @ b.T, lambda g: a.T @ g)


def _unfused_conv2d(x, kernel, stride, bias):
    """Convolution as the five-node chain: a fancy-index window gather
    (batch-inner) with the window scatter as its backward, reshape to im2col
    rows, reshape of the kernel, matmul, reshape, then ``+ bias``."""
    val = ad.payload(x)
    kh, kw, c_in, c_out = np.shape(kernel)
    oh, ow = ad._window_grid(val.shape, kh, kw, stride, stride)
    rows = (np.arange(oh) * stride)[:, None, None, None] + np.arange(kh)[None, None, :, None]
    cols = (np.arange(ow) * stride)[None, :, None, None] + np.arange(kw)[None, None, None, :]
    gathered = val[:, rows, cols, :]
    windows = ad._node(gathered, (x,),
                       lambda g: ad._scatter_windows(g, val.shape, stride, stride))
    batch = val.shape[0]
    flat = windows.reshape(batch * oh * ow, kh * kw * c_in)
    out = _matmul_node(flat, kernel.reshape(kh * kw * c_in, c_out)).reshape(
        batch, oh, ow, c_out)
    return out if bias is None else out + bias


_CONV_CASES = [(kh, kw, stride, c_in) for kh, kw in ((2, 3), (3, 3))
               for stride in (1, 2) for c_in in (1, 3)]


@pytest.mark.parametrize("kh, kw, stride, c_in", _CONV_CASES)
@pytest.mark.parametrize("kinds", [("T", "T", "T"), ("T", "T", None), ("T", "ndarray", "ndarray"),
                                   ("ndarray", "T", "T"), ("ndarray", "ndarray", "T"),
                                   ("ndarray", "ndarray", "ndarray")])
def test_conv2d_is_one_node_bitwise_the_unfused_chain(kh, kw, stride, c_in, kinds):
    rng = np.random.default_rng(kh * 100 + kw * 10 + stride + c_in)

    def draw(*shape):
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-4, 4, shape)

    x_val, k_val, b_val = draw(2, 7, 8, c_in), draw(kh, kw, c_in, 4), draw(4)
    oh, ow = (7 - kh) // stride + 1, (8 - kw) // stride + 1
    upstream = draw(2, oh, ow, 4)

    def run(conv):
        x, k = _operand(kinds[0], x_val), _operand(kinds[1], k_val)
        b = None if kinds[2] is None else _operand(kinds[2], b_val)
        out = conv(x, k, stride, b)
        if not isinstance(out, Tensor):
            return out, []
        (out * upstream).sum().backward()
        return out, [t.grad for t in (x, k, b) if isinstance(t, Tensor)]

    out, grads = run(ad.conv2d)
    ref, ref_grads = run(_unfused_conv2d)
    assert np.array_equal(_bits(ad.payload(out)), _bits(ad.payload(ref)))
    if isinstance(out, Tensor):
        assert len(out._parents) == kinds.count("T")
        assert all(not parent._parents for parent in out._parents)  # one node
    assert len(grads) == len(ref_grads)
    for got, want in zip(grads, ref_grads):
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("kh, kw, stride, c_in", _CONV_CASES)
def test_conv2d_gradient_matches_finite_differences(kh, kw, stride, c_in):
    rng = np.random.default_rng(kh * 100 + kw * 10 + stride + c_in)
    x = Tensor(rng.normal(size=(2, 6, 7, c_in)))
    kernel = Tensor(rng.normal(size=(kh, kw, c_in, 2)))
    bias = Tensor(rng.normal(size=2))
    oh, ow = (6 - kh) // stride + 1, (7 - kw) // stride + 1
    weights = rng.normal(size=(2, oh, ow, 2))

    def build():
        return (ad.conv2d(x, kernel, stride, bias) * weights).sum()

    assert ad.grad_check(build, [x, kernel, bias], rng=rng, max_coords=30) <= 1e-8


def test_conv2d_refuses_a_channel_mismatch_and_what_sliding_windows_refuses():
    with pytest.raises(ValueError, match="kernel channels 2"):
        ad.conv2d(np.zeros((1, 4, 4, 3)), np.zeros((2, 2, 2, 1)), 1)
    with pytest.raises(ValueError, match="does not fit"):
        ad.conv2d(np.zeros((1, 3, 3, 1)), np.zeros((4, 2, 1, 1)), 1)
    with pytest.raises(ValueError, match="NHWC"):
        ad.conv2d(np.zeros((3, 3, 1)), np.zeros((2, 2, 1, 1)), 1)


@pytest.mark.parametrize("window, stride", [(1, 1), (2, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("channels", [1, 3])
def test_disjoint_window_max_routing_is_bitwise_the_summed_form(window, stride, channels):
    # Windows that cannot overlap write each part once; the summed form adds
    # every part onto zeros. Ties, signed zeros, inf and NaN must agree.
    rng = np.random.default_rng(window * 10 + stride + channels)
    x = np.round(rng.normal(size=(3, 9, 8, channels)))  # many ties
    x[0] = rng.choice([0.0, -0.0], size=x[0].shape)
    x[1, 0, 0, 0] = np.nan
    out = ad.window_max(x, window, stride)
    grad = rng.normal(size=out.shape) * 10.0 ** rng.uniform(-5, 5, out.shape)
    grad[rng.uniform(size=grad.shape) < 0.3] = -0.0
    grad[rng.uniform(size=grad.shape) < 0.1] = 0.0
    grad[2, 0, 0, 0], grad[2, 1, 0, 0] = np.inf, np.nan
    oh, ow = out.shape[1:3]
    row_end, col_end = stride * (oh - 1) + 1, stride * (ow - 1) + 1
    keys = [(slice(None), slice(i, i + row_end, stride), slice(j, j + col_end, stride))
            for i in range(window) for j in range(window)]
    with np.errstate(invalid="ignore"):
        got = ad._route_window_max(grad, x, out, keys, True)
        want = ad._route_window_max(grad, x, out, keys, False)
    assert np.array_equal(_bits(got), _bits(want))
    assert not np.signbit(got[got == 0.0]).any()  # a -0.0 part lands as +0.0
    node = ad.window_max(Tensor(x), window, stride)
    with np.errstate(invalid="ignore"):
        taped = node._forms[0](grad)
    assert np.array_equal(_bits(taped), _bits(got))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(5, 4))
    s = ad.softmax(logits)
    assert np.allclose(s.sum(axis=1), 1.0)
    assert np.array_equal(np.argmax(s, axis=1), np.argmax(logits, axis=1))


def test_softmax_cross_entropy_uniform_logits():
    logits = np.zeros((2, 4))
    loss = ad.softmax_cross_entropy(logits, ad.onehot(np.array([0, 3]), 4))
    assert loss == pytest.approx(np.log(4.0))


def test_softmax_cross_entropy_matches_manual():
    rng = np.random.default_rng(10)
    logits = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    manual = -np.log(probs[np.arange(6), labels])
    rows = ad.onehot(labels, 3)
    got = [ad.softmax_cross_entropy(logits[i:i + 1], rows[i:i + 1]) for i in range(6)]
    assert np.allclose(got, manual, atol=1e-12)
    assert ad.softmax_cross_entropy(logits, rows) == pytest.approx(manual.mean())


def test_onehot_rows_are_bitwise_the_hand_formula():
    # Value: mean of log sum exp(z - top) + top - z_y; gradient:
    # (softmax - onehot) / B. A one-hot row adds exact zeros, so both hold
    # to the last bit.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        batch, classes = int(rng.integers(1, 80)), int(rng.integers(2, 12))
        z = rng.normal(size=(batch, classes)) * rng.uniform(0.1, 30.0)
        y = rng.integers(0, classes, size=batch)
        rows = ad.onehot(y, classes)
        top = z.max(axis=1, keepdims=True)
        per_sample = ((np.log(np.exp(z - top).sum(axis=1, keepdims=True)) + top)[:, 0]
                      - z[np.arange(batch), y])
        logits = Tensor(z)
        loss = ad.softmax_cross_entropy(logits, rows)
        loss.backward()
        assert loss.value.tobytes() == per_sample.mean().tobytes(), seed
        want = (ad.softmax(z) - rows) / batch
        assert logits.grad.tobytes() == want.tobytes(), seed


def test_mixed_rows_are_the_weighted_pair_of_hard_label_losses():
    rng = np.random.default_rng(12)
    z = rng.normal(size=(7, 5)) * 3.0
    ya, yb = rng.integers(0, 5, size=7), rng.integers(0, 5, size=7)
    lam = 0.37
    rows_a, rows_b = ad.onehot(ya, 5), ad.onehot(yb, 5)
    got = ad.softmax_cross_entropy(z, lam * rows_a + (1.0 - lam) * rows_b)
    want = (lam * ad.softmax_cross_entropy(z, rows_a)
            + (1.0 - lam) * ad.softmax_cross_entropy(z, rows_b))
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    logits = Tensor(z)
    lam_rows = rng.uniform(size=(7, 1))
    targets = lam_rows * rows_a + (1.0 - lam_rows) * rows_b
    assert ad.grad_check(lambda: ad.softmax_cross_entropy(logits, targets),
                         [logits]) <= 1e-7


def test_row_mass_scales_the_loss():
    rng = np.random.default_rng(13)
    z = rng.normal(size=(4, 3))
    t = rng.uniform(size=(4, 3))
    t /= t.sum(axis=1, keepdims=True)
    unit = ad.softmax_cross_entropy(z, t)
    # Scaling by a power of two is exact, so the loss scales bitwise.
    for scale in (0.25, 2.0, 8.0):
        assert ad.softmax_cross_entropy(z, scale * t) == scale * unit
    assert ad.softmax_cross_entropy(z, 0.3 * t) == pytest.approx(0.3 * unit, rel=1e-15)
    # A row of mass 0 scores 0 and takes no gradient.
    logits = Tensor(z)
    ad.softmax_cross_entropy(logits, np.zeros((4, 3))).backward()
    assert not logits.grad.any()


@pytest.mark.parametrize("rows", [
    np.array([[0.5, 0.5]]), np.array([[1.0, 0.0, 0.0]]), np.array([0, 1]),
    np.ones((2, 3, 1)),
], ids=["rows", "width", "labels", "3d"])
def test_softmax_cross_entropy_refuses_other_target_shapes(rows):
    with pytest.raises(ValueError) as info:
        ad.softmax_cross_entropy(np.zeros((2, 3)), rows)
    assert str(rows.shape) in str(info.value) and "(2, 3)" in str(info.value)


def test_softmax_cross_entropy_refuses_empty_and_negative_targets():
    with pytest.raises(ValueError, match="empty batch"):
        ad.softmax_cross_entropy(np.zeros((0, 3)), np.zeros((0, 3)))
    for bad in (-0.5, np.nan):
        rows = np.full((2, 3), 0.5)
        rows[1, 2] = bad
        with pytest.raises(ValueError, match="non-negative"):
            ad.softmax_cross_entropy(np.zeros((2, 3)), rows)


@pytest.mark.parametrize("rows", ["onehot", "weighted"])
def test_softmax_cross_entropy_gradient(rows):
    rng = np.random.default_rng(11)
    logits = Tensor(rng.normal(size=(5, 4)))
    targets = ad.onehot(rng.integers(0, 4, size=5), 4)
    if rows == "weighted":
        targets *= rng.uniform(0.5, 1.5, size=(5, 1))

    def build():
        return ad.softmax_cross_entropy(logits, targets)

    assert ad.grad_check(build, [logits]) <= 1e-7


def test_softmax_cross_entropy_is_overflow_safe():
    logits = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
    rows = ad.onehot(np.array([0, 0]), 2)
    loss = [ad.softmax_cross_entropy(logits[i:i + 1], rows[i:i + 1]) for i in range(2)]
    assert np.isfinite(loss).all()
    assert loss[0] == pytest.approx(0.0, abs=1e-12)
    assert loss[1] == pytest.approx(1000.0, rel=1e-9)


def test_onehot_rows():
    rows = ad.onehot(np.array([2, 0, 2]), 3)
    assert rows.dtype == np.float64
    assert np.array_equal(rows, [[0, 0, 1], [1, 0, 0], [0, 0, 1]])
    assert ad.onehot(np.zeros(0, dtype=np.int64), 3).shape == (0, 3)


def test_onehot_refuses_bad_labels():
    for labels, match in ((np.array([0, 3]), "out of range"),
                          (np.array([-1, 0]), "out of range"),
                          (np.array([0.0, 1.0]), "must be integers"),
                          (np.array([True, False]), "must be integers"),
                          (np.array([[0, 1]]), "does not match"),
                          (np.array(1), "does not match")):
        with pytest.raises(ValueError, match=match):
            ad.onehot(labels, 3)


def test_grad_check_flags_a_wrong_gradient():
    # A deliberately broken op must produce a large reported error.
    w = Tensor(np.array([1.5]))

    def build():
        v = w.value
        return ad._node(v * v, (w,), lambda grad: grad * 3.0 * v).sum()  # wrong slope

    assert ad.grad_check(build, [w]) > 1e-2
