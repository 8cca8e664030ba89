"""Network spec layout, forward passes, and hypernetwork generation."""

import numpy as np
import pytest

from intervalcl import autodiff as ad
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


def test_param_set_size_check():
    spec = small_mlp_spec()
    with pytest.raises(ValueError):
        nets.ParamSet(spec, np.zeros(spec.total_params + 1))


def test_param_set_get_is_a_view_or_one_tape_node():
    spec = small_cnn_spec()
    flat = np.arange(float(spec.total_params))
    for index, name, shape, offset, size in spec.slots:
        view = nets.ParamSet(spec, flat).get(index, name)
        assert view.shape == shape and np.shares_memory(view, flat)
        assert np.array_equal(view.reshape(-1), flat[offset:offset + size])
        leaf = Tensor(flat)
        node = nets.ParamSet(spec, leaf).get(index, name)
        assert node._parents == (leaf,)
        node.sum().backward()
        want = np.zeros(spec.total_params)
        want[offset:offset + size] = 1.0
        assert np.array_equal(leaf.grad, want)


def test_forward_point_matches_manual_mlp():
    spec = small_mlp_spec()
    rng = np.random.default_rng(1)
    params = nets.ParamSet(spec, rng.normal(size=spec.total_params))
    x = rng.normal(size=(5, 4))
    got = nets.forward_point(spec, params, x)

    h = x
    h = np.maximum(h @ params.get(0, "weight").T + params.get(0, "bias"), 0.0)
    h = np.maximum(h @ params.get(2, "weight").T + params.get(2, "bias"), 0.0)
    ref = h @ params.get(4, "weight").T + params.get(4, "bias")
    assert np.allclose(got, ref, atol=1e-12)
    assert got.shape == (5, 3)


def test_forward_point_rejects_wrong_input_shape():
    spec = small_mlp_spec()
    params = nets.ParamSet(spec, np.zeros(spec.total_params))
    with pytest.raises(ValueError):
        nets.forward_point(spec, params, np.zeros((2, 5)))


def test_interval_forward_collapses_bitwise_at_zero_radius():
    # Every layer kind and option: relu/sigmoid, avg/max pool, strided conv,
    # batchnorm over NHWC and flat features.
    for spec in (small_mlp_spec(), small_cnn_spec(), small_maxpool_sigmoid_spec()):
        rng = np.random.default_rng(2)
        params = nets.ParamSet(spec, rng.normal(size=spec.total_params) * 0.3)
        x = rng.uniform(size=(3,) + spec.input_shape)
        point = nets.forward_point(spec, params, x)
        bounds = nets.forward_interval(spec, params, x, eps=0.0)
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
            params = nets.ParamSet(spec, rng.normal(size=spec.total_params) * 0.3)
            x = rng.uniform(size=(3,) + spec.input_shape)
            plain = nets.forward_point(spec, params, x)
            taped = nets.forward_point(spec, params, Tensor(x))
            assert isinstance(taped, Tensor)
            assert np.array_equal(taped.value, plain)


def test_forward_interval_tensor_params_match_ndarray_bitwise():
    # Training runs the interval pass on a Tensor-backed ParamSet,
    # certification on the same flat vector as an ndarray: the bounds must
    # agree bit for bit, with live and with frozen batchnorm moments.
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
            capture: list = []
            live = nets.forward_interval(spec, nets.ParamSet(spec, flat), x, eps=eps,
                                         bn_capture=capture)
            frozen = nets.forward_interval(spec, nets.ParamSet(spec, flat), x,
                                           eps=eps, bn_stats=capture)
            for plain, stats in ((live, None), (frozen, capture)):
                taped = nets.forward_interval(spec, nets.ParamSet(spec, Tensor(flat)),
                                              x, eps=eps, bn_stats=stats)
                assert isinstance(taped.lower, Tensor)
                for got, want in ((taped.lower, plain.lower), (taped.upper, plain.upper)):
                    assert got.value.tobytes() == want.tobytes(), (spec.layers, seed)


def test_interval_forward_nests_with_radius():
    spec = small_mlp_spec()
    rng = np.random.default_rng(3)
    params = nets.ParamSet(spec, rng.normal(size=spec.total_params))
    x = rng.uniform(size=(4, 4))
    tight = nets.forward_interval(spec, params, x, eps=0.01)
    loose = nets.forward_interval(spec, params, x, eps=0.05)
    assert np.all(loose.lower <= tight.lower + 1e-12)
    assert np.all(tight.upper <= loose.upper + 1e-12)


def test_interval_forward_record_aligns_with_point_record():
    spec = small_cnn_spec()
    rng = np.random.default_rng(4)
    params = nets.ParamSet(spec, rng.normal(size=spec.total_params) * 0.3)
    x = rng.uniform(size=(2,) + spec.input_shape)
    boxes: list = []
    acts: list = []
    capture: list = []
    nets.forward_interval(spec, params, x, eps=0.0, record=boxes, bn_capture=capture)
    stats = [(np.asarray(m), np.asarray(v)) for m, v in capture]
    nets.forward_point(spec, params, x, record=acts, bn_stats=stats)
    assert len(boxes) == len(acts) == len(spec.layers) + 1
    for box, a in zip(boxes, acts):
        lo = box.lower if isinstance(box, IntervalTensor) else box
        assert np.asarray(lo).shape == np.asarray(a).shape


def test_worst_case_logits_frozen_example():
    bounds = IntervalTensor(np.array([[3.0, 2.0]]), np.array([[5.0, 4.0]]))
    assert np.array_equal(nets.worst_case_logits(bounds, np.array([0])), [[3.0, 4.0]])
    assert np.array_equal(nets.worst_case_logits(bounds, np.array([1])), [[5.0, 2.0]])


def test_worst_case_logits_point_box_is_the_logits():
    logits = np.array([[1.0, -2.0, 0.5]])
    box = IntervalTensor(logits, logits)
    assert np.array_equal(nets.worst_case_logits(box, np.array([2])), logits)


def test_worst_case_logits_rejects_bad_labels():
    box = IntervalTensor(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        nets.worst_case_logits(box, np.array([0, 3]))
    with pytest.raises(ValueError):
        nets.worst_case_logits(box, np.array([0]))


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


def test_tape_generate_matches_plain_generate():
    h = nets.Hypernetwork(40, 6, [12, 12], 2, np.random.default_rng(8))
    flat, leaves = h.tape_generate(0)
    assert np.array_equal(flat.value, h.generate_flat(0))
    assert set(leaves) == {"embedding", "w0", "b0", "w1", "b1", "w2", "b2"}


def test_tape_generate_frozen_embedding_gets_no_gradient():
    h = nets.Hypernetwork(40, 6, [12], 2, np.random.default_rng(9))
    flat, leaves = h.tape_generate(0, train_embedding=False)
    assert "embedding" not in leaves
    flat.sum().backward()
    for leaf in leaves.values():
        assert leaf.grad is not None


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
    for task, train_embedding in ((1, True), (0, False), (2, False)):
        flat, again = h.tape_generate(task, train_embedding=train_embedding,
                                      leaves=leaves)
        assert again is leaves and again.keys() == shared.keys()
        assert all(again[name] is leaf for name, leaf in shared.items())
    assert len(built) == 7
    assert np.array_equal(flat.value, h.generate_flat(2))


def test_tape_leaves_alias_stored_arrays():
    h = nets.Hypernetwork(30, 5, [10], 3, np.random.default_rng(10))
    before_other = h.embeddings[2].copy()
    flat, leaves = h.tape_generate(1)
    leaves["embedding"].value += 1.0
    assert np.array_equal(h.embeddings[2], before_other)
    assert not np.array_equal(h.embeddings[1], h.embeddings[1] * 0.0)
    # regenerate picks up the in-place update
    assert np.array_equal(h.generate_flat(1),
                          h.tape_generate(1)[0].value)


def test_generate_params_size_mismatch():
    spec = small_mlp_spec()
    h = nets.Hypernetwork(spec.total_params + 1, 6, [8], 2,
                          np.random.default_rng(11))
    with pytest.raises(ValueError):
        nets.generate_params(h, spec, 0)


def _relu_input_margin(spec, params, x, eps):
    """Smallest distance from 0 of any relu input in the point and interval
    passes; finite differences are only valid away from the kink."""
    point, box = [], []
    nets.forward_point(spec, params, x, record=point)
    nets.forward_interval(spec, params, x, eps=eps, record=box)
    inputs = []
    for layer, p, b in zip(spec.layers, point, box):
        if layer.activation == "relu":
            inputs += [p, b.lower, b.upper]
    return min((np.abs(v).min() for v in inputs), default=np.inf)


def test_end_to_end_gradient_through_generator_and_target():
    # The generated weights are an interior node: finite differences on the
    # hypernetwork leaves must match the tape through target forward, the
    # interval pass, and the worst-case logits. The image specs carry the
    # gradient through conv, batchnorm with live moments, and avg/max pooling.
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
        generated = nets.ParamSet(spec, h.generate_flat(0))
        assert _relu_input_margin(spec, generated, x, 0.05) > 1e-6

        def build():
            flat, _ = h.tape_generate(0, leaves=shared)
            params = nets.ParamSet(spec, flat)
            logits = nets.forward_point(spec, params, x)
            bounds = nets.forward_interval(spec, params, x, eps=0.05)
            wc = nets.worst_case_logits(bounds, y)
            return (ad.softmax_cross_entropy(logits, y)
                    + ad.softmax_cross_entropy(wc, y))

        build()
        err = ad.grad_check(build, list(shared.values()), rng=rng, max_coords=10)
        assert err <= 1e-5, spec.layers
