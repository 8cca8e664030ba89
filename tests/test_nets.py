"""Network spec layout, forward passes, and hypernetwork generation."""

import re

import numpy as np
import pytest

from intervalcl import autodiff as ad
from intervalcl import evaluation as ev
from intervalcl import intervals as iv
from intervalcl import losses
from intervalcl import nets
from intervalcl.autodiff import Tensor
from intervalcl.intervals import IntervalTensor


def small_mlp_spec():
    return nets.NetworkSpec((4,), nets.mlp_layers([6, 5], 3), classes=3)


def small_cnn_spec():
    return nets.NetworkSpec(
        (6, 6, 1),
        [nets.conv(3, 3), nets.batchnorm(), nets.act("relu"), nets.avgpool(2),
         nets.flatten(), nets.dense(2)],
        classes=2)


def small_maxpool_sigmoid_spec():
    return nets.NetworkSpec(
        (6, 6, 2),
        [nets.conv(3, 2, stride=2), nets.act("sigmoid"), nets.maxpool(2, 1),
         nets.flatten(), nets.dense(4), nets.batchnorm(), nets.act("sigmoid"),
         nets.dense(3)],
        classes=3)


def test_spec_shapes_mlp():
    spec = small_mlp_spec()
    assert spec.shapes == [(6,), (6,), (5,), (5,), (3,)]
    # weight + bias per dense layer
    assert spec.total_params == (4 * 6 + 6) + (6 * 5 + 5) + (5 * 3 + 3)


def test_spec_shapes_cnn():
    spec = small_cnn_spec()
    assert spec.shapes[0] == (4, 4, 3)
    assert spec.shapes[3] == (2, 2, 3)
    assert spec.shapes[4] == (12,)
    conv_params = 3 * 3 * 1 * 3 + 3
    bn_params = 3 + 3
    head = 12 * 2 + 2
    assert spec.total_params == conv_params + bn_params + head


def test_spec_slot_layout_is_contiguous():
    spec = small_cnn_spec()
    offset = 0
    for _, _, shape, off, size in spec.slots:
        assert off == offset
        assert size == int(np.prod(shape))
        offset += size
    assert offset == spec.total_params


def test_spec_rejects_bad_architectures():
    with pytest.raises(ValueError):
        nets.NetworkSpec((8, 8, 1), [nets.dense(4)], classes=4)  # no flatten
    with pytest.raises(ValueError):
        nets.NetworkSpec((4, 4, 1), [nets.conv(2, 5), nets.flatten(),
                                     nets.dense(2)], classes=2)  # kernel too big
    with pytest.raises(ValueError):
        nets.NetworkSpec((4,), [nets.dense(5)], classes=3)  # head width mismatch
    with pytest.raises(ValueError):
        nets.NetworkSpec((4,), [nets.dense(1)], classes=1)  # single class
    with pytest.raises(ValueError):
        nets.NetworkSpec((4,), [], classes=2)


@pytest.mark.parametrize("layer, match", [
    (nets.LayerDescriptor("pool", pool="min", window=2, stride=2),
     "layer 0: unknown pooling kind 'min'"),
    (nets.LayerDescriptor("dense", units=2.0), "layer 0: dense units must be an integer, got 2.0"),
    (nets.LayerDescriptor("dense", units=True), "layer 0: dense units must be an integer, got True"),
    (nets.LayerDescriptor("conv", channels=2, kernel=2.0), "conv kernel must be an integer"),
    (nets.LayerDescriptor("conv", channels=2, kernel=2, stride=1.0), "conv stride must be"),
    (nets.LayerDescriptor("conv", channels="2", kernel=2), "conv channels must be"),
    (nets.LayerDescriptor("pool", pool="max", window=2, stride=False), "pool stride must be"),
    (nets.LayerDescriptor("pool", pool="avg", window=2.0, stride=2), "pool window must be"),
    # A checkpoint could not store it.
    (nets.LayerDescriptor("dense", units=np.int64(2)), "layer 0: dense units must be"),
])
def test_spec_refuses_layers_it_cannot_run(layer, match):
    # Each of these used to pass the spec and fail in the first forward pass.
    flat = layer.kind == "dense"
    tail = [nets.dense(2)] if flat else [nets.flatten(), nets.dense(2)]
    with pytest.raises(ValueError, match=match):
        nets.NetworkSpec((4,) if flat else (4, 4, 1), [layer] + tail, classes=2)


@pytest.mark.parametrize("input_shape, classes, match", [
    ((2.7,), 3, "input shape entry must be an integer, got 2.7"),
    ((True, 3, 1), 3, "input shape entry must be an integer, got True"),
    ((np.int64(4),), 3, "input shape entry must be an integer"),
    ((4,), 3.9, "classes must be an integer, got 3.9"),
    # Equal to the head's 3 units, so only the integer rule refuses it.
    ((4,), 3.0, "classes must be an integer, got 3.0"),
    ((4,), True, "classes must be an integer, got True"),
])
def test_spec_refuses_non_integer_input_sizes_and_classes(input_shape, classes, match):
    layers = nets.mlp_layers([4], 3)
    if len(input_shape) == 3:
        layers = [nets.flatten()] + layers
    with pytest.raises(ValueError, match=match):
        nets.NetworkSpec(input_shape, layers, classes)


def test_param_set_size_check():
    # ``check_flat`` is the one size rule; it returns a Tensor as it is and
    # anything else as float64, without a copy when it is float64 already.
    spec = small_mlp_spec()
    for size in (spec.total_params - 1, spec.total_params + 1):
        with pytest.raises(ValueError, match=f"flat vector has {size} entries, "
                                             f"spec needs {spec.total_params}$"):
            spec.check_flat(np.zeros(size))
    flat = np.zeros(spec.total_params)
    leaf = Tensor(flat)
    assert spec.check_flat(flat) is flat and spec.check_flat(leaf) is leaf
    for value in (np.zeros(spec.total_params, np.float32), [0] * spec.total_params):
        assert spec.check_flat(value).dtype == np.float64


def test_param_set_get_is_a_view_or_one_tape_node():
    spec = small_cnn_spec()
    flat = np.arange(float(spec.total_params))
    for index, name, shape, offset, size in spec.slots:
        view = spec.slot(flat, index, name)
        assert view.shape == shape and np.shares_memory(view, flat)
        assert np.array_equal(view.reshape(-1), flat[offset:offset + size])
        leaf = Tensor(flat)
        node = spec.slot(leaf, index, name)
        assert node._parents == (leaf,)
        node.sum().backward()
        want = np.zeros(spec.total_params)
        want[offset:offset + size] = 1.0
        assert np.array_equal(leaf.grad, want)


def test_every_pass_refuses_a_vector_sized_for_another_spec():
    # Read through the 23-entry layout, the 37-entry vector would give
    # another network's logits.
    spec = nets.NetworkSpec((4,), nets.mlp_layers([3], 2), classes=2)
    other = nets.NetworkSpec((4,), nets.mlp_layers([5], 2), classes=2)
    rng = np.random.default_rng(0)
    flat = rng.normal(size=other.total_params)
    h = nets.Hypernetwork(other.total_params, 3, [4], 1, rng)
    x, y = rng.uniform(size=(3, 4)), np.array([0, 1, 0])
    box = IntervalTensor.from_ball(x, 0.05)
    attack = ev.AttackConfig(eps=0.05, iters=2)
    for call in (lambda: nets.forward_point(spec, flat, x),
                 lambda: nets.forward_point(spec, Tensor(flat), x),
                 lambda: nets.forward_interval(spec, flat, box),
                 lambda: nets.forward_interval(spec, Tensor(flat), x, eps=0.05),
                 lambda: ev.clean_accuracy(spec, flat, x, y),
                 lambda: ev.pgd(spec, flat, x, y, attack),
                 lambda: ev.certify(spec, flat, x, y, 0.05),
                 lambda: iv.rounding_budget(spec, flat, box),
                 lambda: nets.generate_params(h, spec, 0)):
        with pytest.raises(ValueError, match="^flat vector has 37 entries, spec needs 23$"):
            call()


def test_a_float32_vector_gives_the_bits_of_its_float64_promotion():
    # ``rounding_budget``'s proof assumes float64 weights; every pass
    # promotes a float32 vector before it reads a slot.
    spec = nets.NetworkSpec((5,), [nets.dense(6), nets.batchnorm(), nets.act("relu"),
                                   nets.dense(3)], classes=3)
    rng = np.random.default_rng(4)
    single = rng.normal(size=spec.total_params).astype(np.float32)
    x, y = rng.uniform(size=(6, 5)), rng.integers(0, 3, size=6)
    attack = ev.AttackConfig(eps=0.05, iters=3, seed=1)
    runs = []
    for flat in (single, single.astype(np.float64)):
        stats: list = []
        logits = nets.forward_point(spec, flat, x, bn_capture=stats)
        box = nets.forward_interval(spec, flat, x, eps=0.05, bn_stats=stats)
        runs.append([logits, box.lower, box.upper,
                     iv.rounding_budget(spec, flat, IntervalTensor.from_ball(x, 0.05),
                                        stats),
                     ev.certified_margin(spec, flat, x, y, 0.05, bn_stats=stats),
                     ev.pgd(spec, flat, x, y, attack, bn_stats=stats)])
    for got, want in zip(*runs):
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("per_sample", [(5,), (2, 2, 1)])
def test_rounding_budget_refuses_a_box_the_interval_pass_refuses(per_sample):
    # A budget for a box no pass accepts would bound nothing.
    spec = nets.NetworkSpec((2,), nets.mlp_layers([3], 2), classes=2)
    flat = np.zeros(spec.total_params)
    box = IntervalTensor(np.zeros((3,) + per_sample), np.ones((3,) + per_sample))
    match = re.escape(f"input shape {per_sample} does not match spec (2,)")
    for call in (lambda: nets.forward_interval(spec, flat, box),
                 lambda: iv.rounding_budget(spec, flat, box)):
        with pytest.raises(ValueError, match=match):
            call()


def test_forward_point_matches_manual_mlp():
    spec = small_mlp_spec()
    rng = np.random.default_rng(1)
    params = rng.normal(size=spec.total_params)
    x = rng.normal(size=(5, 4))
    got = nets.forward_point(spec, params, x)

    h = x
    h = np.maximum(h @ spec.slot(params, 0, "weight").T + spec.slot(params, 0, "bias"), 0.0)
    h = np.maximum(h @ spec.slot(params, 2, "weight").T + spec.slot(params, 2, "bias"), 0.0)
    ref = h @ spec.slot(params, 4, "weight").T + spec.slot(params, 4, "bias")
    assert np.allclose(got, ref, atol=1e-12)
    assert got.shape == (5, 3)


def test_forward_point_rejects_wrong_input_shape():
    spec = small_mlp_spec()
    params = np.zeros(spec.total_params)
    with pytest.raises(ValueError):
        nets.forward_point(spec, params, np.zeros((2, 5)))


def test_interval_forward_collapses_bitwise_at_zero_radius():
    # Every layer kind and option: relu/sigmoid, avg/max pool, strided conv,
    # batchnorm over NHWC and flat features.
    for spec in (small_mlp_spec(), small_cnn_spec(), small_maxpool_sigmoid_spec()):
        rng = np.random.default_rng(2)
        params = rng.normal(size=spec.total_params) * 0.3
        x = rng.uniform(size=(3,) + spec.input_shape)
        stats: list = []
        point = nets.forward_point(spec, params, x, bn_capture=stats)
        bounds = nets.forward_interval(spec, params, x, eps=0.0, bn_stats=stats)
        assert np.array_equal(bounds.lower, point)
        assert np.array_equal(bounds.upper, point)


def test_forward_point_tensor_input_matches_ndarray_bitwise():
    # Live batchnorm moments and an overlapping average pool both take
    # means, which must round the same way on and off the tape.
    overlapping_avg = nets.NetworkSpec(
        (6, 6, 2),
        [nets.conv(3, 2), nets.act("relu"), nets.avgpool(3, 1), nets.flatten(),
         nets.dense(2)],
        classes=2)
    for spec in (small_cnn_spec(), overlapping_avg):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            params = rng.normal(size=spec.total_params) * 0.3
            x = rng.uniform(size=(3,) + spec.input_shape)
            plain = nets.forward_point(spec, params, x)
            taped = nets.forward_point(spec, params, Tensor(x))
            assert isinstance(taped, Tensor)
            assert np.array_equal(taped.value, plain)


def test_forward_interval_tensor_params_match_ndarray_bitwise():
    # Training runs the interval pass on the flat vector as a Tensor with the
    # moment Tensors its point pass captured, certification on the same flat
    # vector as an ndarray with frozen moments: the bounds must agree bit
    # for bit.
    conv = nets.NetworkSpec(
        (6, 6, 2),
        [nets.conv(4, 3), nets.batchnorm(), nets.act("relu"), nets.maxpool(2),
         nets.flatten(), nets.dense(3)],
        classes=3)
    sigmoid_mlp = nets.NetworkSpec(
        (5,), [nets.dense(7), nets.batchnorm(), nets.act("sigmoid"), nets.dense(3)],
        classes=3)
    for spec in (conv, sigmoid_mlp):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            flat = rng.normal(scale=0.5, size=spec.total_params)
            x = rng.uniform(size=(4,) + spec.input_shape)
            eps = rng.uniform(0.0, 0.1)
            frozen: list = []
            nets.forward_point(spec, flat, x, bn_capture=frozen)
            plain = nets.forward_interval(spec, flat, x, eps=eps, bn_stats=frozen)
            taped_params = Tensor(flat)
            captured: list = []
            nets.forward_point(spec, taped_params, x, bn_capture=captured)
            assert isinstance(captured[0][0], Tensor)
            for stats in (captured, frozen):
                taped = nets.forward_interval(spec, taped_params, x, eps=eps,
                                              bn_stats=stats)
                assert isinstance(taped.lower, Tensor)
                for got, want in ((taped.lower, plain.lower), (taped.upper, plain.upper)):
                    assert got.value.tobytes() == want.tobytes(), (spec.layers, seed)


@pytest.mark.parametrize("extra", [-1, 1])
def test_bn_stats_must_hold_one_pair_per_batchnorm_layer(extra):
    spec = nets.NetworkSpec(
        (5,), [nets.dense(4), nets.batchnorm(), nets.act("relu"), nets.dense(3)],
        classes=3)
    rng = np.random.default_rng(0)
    params = rng.normal(size=spec.total_params)
    x = rng.uniform(size=(3, 5))
    stats: list = []
    nets.forward_point(spec, params, x, bn_capture=stats)
    wrong = stats * (1 + extra)
    match = f"bn_stats holds {1 + extra} batchnorm moment pairs, network has 1 "
    with pytest.raises(ValueError, match=match):
        nets.forward_point(spec, params, x, bn_stats=wrong)
    with pytest.raises(ValueError, match=match):
        nets.forward_interval(spec, params, x, eps=0.1, bn_stats=wrong)
    # A network without batchnorm takes an empty list as it takes None.
    mlp = small_mlp_spec()
    mlp_params = rng.normal(size=mlp.total_params)
    assert np.array_equal(nets.forward_point(mlp, mlp_params, x[:, :4], bn_stats=[]),
                          nets.forward_point(mlp, mlp_params, x[:, :4]))


@pytest.mark.parametrize("pair, match", [
    ((np.zeros(1), np.ones(1)), r"layer 1: batchnorm mean shaped \(1,\) does not fit input \(8,\)"),
    # Per-sample moments would normalize each sample with its own pair.
    ((np.zeros((5, 8)), np.ones((5, 8))), r"layer 1: batchnorm mean shaped \(5, 8\)"),
    ((np.zeros((1, 8)), np.ones((8, 1))), r"layer 1: batchnorm var shaped \(8, 1\)"),
    ((np.zeros((1, 8)),), r"layer 1: batchnorm moments must be a \(mean, var\) pair"),
    (None, r"layer 1: batchnorm moments must be a \(mean, var\) pair, got NoneType"),
], ids=["one-value", "per-sample", "column-var", "lone-mean", "none-entry"])
def test_every_pass_refuses_misshapen_moments(pair, match):
    # Each of these used to broadcast silently: certify then refused every
    # sample, and the point passes ran some other network.
    spec = nets.NetworkSpec(
        (4,), [nets.dense(8), nets.batchnorm(), nets.act("relu"), nets.dense(3)],
        classes=3)
    rng = np.random.default_rng(17)
    params = rng.normal(size=spec.total_params)
    x = rng.uniform(size=(5, 4))
    y = rng.integers(0, 3, size=5)
    stats = [pair]
    attack = ev.AttackConfig(eps=0.05, iters=2)
    for call in (lambda: nets.forward_point(spec, params, x, bn_stats=stats),
                 lambda: nets.forward_interval(spec, params, x, eps=0.05, bn_stats=stats),
                 lambda: ev.certify(spec, params, x, y, 0.05, bn_stats=stats),
                 lambda: ev.pgd(spec, params, x, y, attack, bn_stats=stats),
                 lambda: iv.rounding_budget(spec, params,
                                            IntervalTensor.from_ball(x, 0.05), stats)):
        with pytest.raises(ValueError, match=match):
            call()


def test_captured_and_frozen_moment_shapes_pass_the_check():
    # The shapes training captures and freezes, and per-feature vectors.
    dense = nets.NetworkSpec((4,), [nets.dense(8), nets.batchnorm(), nets.dense(3)],
                             classes=3)
    conv = nets.NetworkSpec((5, 5, 1), [nets.conv(2, 3), nets.batchnorm(),
                                        nets.flatten(), nets.dense(3)], classes=3)
    for spec, shapes in ((dense, [(1, 8), (8,)]), (conv, [(1, 1, 1, 2), (1, 2), (2,)])):
        for shape in shapes:
            spec.check_bn_stats([(np.zeros(shape), np.ones(shape))], boxed=True)
        params = np.random.default_rng(2).normal(size=spec.total_params)
        captured: list = []
        nets.forward_point(spec, params, np.zeros((3,) + spec.input_shape),
                           bn_capture=captured)
        spec.check_bn_stats(captured, boxed=True)
        taped: list = []
        nets.forward_point(spec, Tensor(params),
                           np.zeros((3,) + spec.input_shape), bn_capture=taped)
        assert isinstance(taped[0][0], Tensor)
        spec.check_bn_stats(taped, boxed=True)


@pytest.mark.parametrize("input_shape, layers, match", [
    ((6, 6, 1), [nets.conv(2, 3), nets.conv(2, 2, stride=0)],
     "layer 1: window 2x2 and stride 0x0 must be positive"),
    ((6, 6, 1), [nets.conv(2, 3), nets.avgpool(2, stride=0)],
     "layer 1: window 2x2 and stride 0x0 must be positive"),
    ((4, 4, 1), [nets.flatten(), nets.conv(2, 2)],
     r"layer 1: expected NHWC input, got shape \(1, 16\)"),
    ((6, 6, 1), [nets.conv(2, 3), nets.maxpool(5)],
     "layer 1: window 5x5 does not fit input 4x4"),
    ((6, 6, 1), [nets.maxpool(2), nets.conv(2, 4)],
     "layer 1: window 4x4 does not fit input 3x3"),
    ((6, 6, 1), [nets.conv(0, 3)], "layer 0: conv channels must be positive"),
], ids=["conv-stride-0", "pool-stride-0", "conv-after-flatten", "pool-too-large",
        "conv-too-large", "no-channels"])
def test_spec_refuses_window_geometry_naming_the_layer(input_shape, layers, match):
    with pytest.raises(ValueError, match=match):
        nets.NetworkSpec(input_shape, layers + [nets.flatten(), nets.dense(2)], classes=2)


def test_interval_forward_nests_with_radius():
    spec = small_mlp_spec()
    rng = np.random.default_rng(3)
    params = rng.normal(size=spec.total_params)
    x = rng.uniform(size=(4, 4))
    tight = nets.forward_interval(spec, params, x, eps=0.01)
    loose = nets.forward_interval(spec, params, x, eps=0.05)
    assert np.all(loose.lower <= tight.lower + 1e-12)
    assert np.all(tight.upper <= loose.upper + 1e-12)


def test_interval_forward_record_aligns_with_point_record():
    spec = small_cnn_spec()
    rng = np.random.default_rng(4)
    params = rng.normal(size=spec.total_params) * 0.3
    x = rng.uniform(size=(2,) + spec.input_shape)
    boxes: list = []
    acts: list = []
    stats: list = []
    nets.forward_point(spec, params, x, record=acts, bn_capture=stats)
    nets.forward_interval(spec, params, x, eps=0.0, record=boxes, bn_stats=stats)
    assert len(boxes) == len(acts) == len(spec.layers) + 1
    for box, a in zip(boxes, acts):
        lo = box.lower if isinstance(box, IntervalTensor) else box
        assert np.asarray(lo).shape == np.asarray(a).shape


# ---- hypernetwork --------------------------------------------------------


def test_hypernetwork_is_deterministic_per_seed():
    a = nets.Hypernetwork(50, 8, [16], 3, np.random.default_rng(7))
    b = nets.Hypernetwork(50, 8, [16], 3, np.random.default_rng(7))
    assert np.array_equal(a.embeddings, b.embeddings)
    for (wa, ba), (wb, bb) in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
        assert np.array_equal(ba, bb)
    assert np.array_equal(a.generate_flat(1), b.generate_flat(1))


def test_hypernetwork_validates_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        nets.Hypernetwork(0, 8, [16], 3, rng)
    with pytest.raises(ValueError):
        nets.Hypernetwork(10, 8, [0], 3, rng)
    h = nets.Hypernetwork(10, 8, [16], 3, rng)
    with pytest.raises(ValueError):
        h.generate_flat(3)


# A row of the generated block may round differently from the one-row pass
# by a few units in the last place of the row's largest entry (the most
# measured: 8.9e-16 of it, over the benchmark's generator shapes).
BLOCK_ROW_TOLERANCE = 2.0 ** -48


def test_tape_generate_matches_plain_generate():
    h = nets.Hypernetwork(40, 6, [12, 12], 2, np.random.default_rng(8))
    block, leaves = h.tape_generate(0)
    assert block.shape == (1, 40)
    assert np.array_equal(block.value[0], h.generate_flat(0))
    assert set(leaves) == {"embedding", "w0", "b0", "w1", "b1", "w2", "b2"}


def test_tape_generate_block_rows_match_plain_generate():
    h = nets.Hypernetwork(40, 6, [12, 12], 3, np.random.default_rng(8))
    block, _ = h.tape_generate(2)
    assert block.shape == (3, 40)
    for task in range(3):
        flat = h.generate_flat(task)
        assert (np.abs(block.value[task] - flat).max()
                <= BLOCK_ROW_TOLERANCE * np.abs(flat).max())


def test_tape_generate_frozen_embedding_gets_no_gradient():
    h = nets.Hypernetwork(40, 6, [12], 3, np.random.default_rng(9))
    frozen = h.embeddings[:2].copy()
    block, leaves = h.tape_generate(2)
    # Only the current task's embedding is a leaf; the earlier ones are
    # constants of the block.
    assert np.may_share_memory(leaves["embedding"].value, h.embeddings[2])
    assert not any(np.may_share_memory(leaf.value, h.embeddings[:2])
                   for leaf in leaves.values())
    block.sum().backward()
    for leaf in leaves.values():
        assert leaf.grad is not None and leaf.grad.shape == leaf.value.shape
    assert np.array_equal(h.embeddings[:2], frozen)


def test_tape_generate_reuses_leaves_without_building_new_ones(monkeypatch):
    built = []

    class CountingTensor(Tensor):
        def __init__(self, value):
            built.append(value)
            super().__init__(value)

    monkeypatch.setattr(nets, "Tensor", CountingTensor)
    h = nets.Hypernetwork(40, 6, [12, 12], 3, np.random.default_rng(8))
    _, leaves = h.tape_generate(1)
    assert len(built) == len(leaves) == 7
    shared = dict(leaves)
    for _ in range(2):
        block, again = h.tape_generate(1, leaves=leaves)
        assert again is leaves and again.keys() == shared.keys()
        assert all(again[name] is leaf for name, leaf in shared.items())
    assert len(built) == 7
    assert np.array_equal(block.value[0], h.tape_generate(1)[0].value[0])
    with pytest.raises(ValueError, match="another task's embedding"):
        h.tape_generate(2, leaves=leaves)


def test_tape_leaves_alias_stored_arrays():
    h = nets.Hypernetwork(30, 5, [10], 3, np.random.default_rng(10))
    before_other = h.embeddings[2].copy()
    block, leaves = h.tape_generate(1)
    leaves["embedding"].value += 1.0
    assert np.array_equal(h.embeddings[2], before_other)
    assert not np.array_equal(h.embeddings[1], h.embeddings[1] * 0.0)
    # regenerate picks up the in-place update
    assert not np.array_equal(h.tape_generate(1)[0].value[1], block.value[1])
    flat = h.generate_flat(1)
    assert (np.abs(h.tape_generate(1)[0].value[1] - flat).max()
            <= BLOCK_ROW_TOLERANCE * np.abs(flat).max())


def test_generate_params_size_mismatch():
    spec = small_mlp_spec()
    h = nets.Hypernetwork(spec.total_params + 1, 6, [8], 2,
                          np.random.default_rng(11))
    with pytest.raises(ValueError):
        nets.generate_params(h, spec, 0)


def _relu_input_margin(spec, params, x, eps):
    """Smallest distance from 0 of any relu input in the point and interval
    passes; finite differences are only valid away from the kink."""
    point, box, stats = [], [], []
    nets.forward_point(spec, params, x, record=point, bn_capture=stats)
    nets.forward_interval(spec, params, x, eps=eps, record=box, bn_stats=stats)
    inputs = []
    for layer, p, b in zip(spec.layers, point, box):
        if layer.activation == "relu":
            inputs += [p, b.lower, b.upper]
    return min((np.abs(v).min() for v in inputs), default=np.inf)


def test_end_to_end_gradient_through_generator_and_target():
    # The generated weights are an interior node: finite differences on the
    # hypernetwork leaves must match the tape through target forward, the
    # interval pass, and the worst-case logits. The image specs carry the
    # gradient through conv, batchnorm with live moments (the point pass's,
    # handed on to the interval pass as Tensors), and avg/max pooling.
    specs = (nets.NetworkSpec((3,), nets.mlp_layers([5], 2), classes=2),
             small_cnn_spec(), small_maxpool_sigmoid_spec())
    for index, spec in enumerate(specs):
        # One hypernetwork seed per spec. Seed 12 would leave an upper bound
        # of the CNN's batchnorm 1.6e-9 from relu's kink, where the central
        # difference straddles it; the margin check below makes such a
        # draw fail loudly rather than read as a wrong gradient.
        h = nets.Hypernetwork(spec.total_params, 4, [10], 2,
                              np.random.default_rng(12 + index))
        rng = np.random.default_rng(13)
        x = rng.uniform(size=(4,) + spec.input_shape)
        y = rng.integers(0, spec.classes, size=4)
        shared: dict = {}
        generated = h.generate_flat(0)
        assert _relu_input_margin(spec, generated, x, 0.05) > 1e-6

        def build():
            params, _ = h.tape_generate(0, leaves=shared)
            stats: list = []
            logits = nets.forward_point(spec, params, x, bn_capture=stats)
            bounds = nets.forward_interval(spec, params, x, eps=0.05, bn_stats=stats)
            rows = ad.onehot(y, spec.classes)
            wc = losses.worst_case_logits(bounds, rows)
            return (ad.softmax_cross_entropy(logits, rows)
                    + ad.softmax_cross_entropy(wc, rows))

        build()
        err = ad.grad_check(build, list(shared.values()), rng=rng, max_coords=10)
        assert err <= 1e-5, spec.layers
