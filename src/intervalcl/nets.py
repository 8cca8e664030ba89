"""Target network description, hypernetwork, and forward passes.

The target network never owns its weights. A ``NetworkSpec`` fixes the
architecture and lays every parameter out in one flat vector; a
``Hypernetwork`` maps a learned per-task embedding to that vector. Training
differentiates through the generator, so the target weights are an
intermediate node of the graph, never a leaf.

``forward_point`` (ordinary activations) and ``forward_interval`` (boxes)
are two entry points into one walk over the spec's layers. The walk applies
each layer's kernel from :mod:`intervalcl.intervals` to a point batch, or
the interval rule wrapping that kernel to a box. In the same way,
``generate_flat`` (numpy, for evaluation) and ``tape_generate`` (for
training) run one generator layer chain over an array or a Tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from intervalcl import autodiff as ad
from intervalcl.autodiff import Tensor
from intervalcl import intervals as iv
from intervalcl.intervals import IntervalTensor


# ---- layer descriptors ---------------------------------------------------


@dataclass(frozen=True)
class LayerDescriptor:
    kind: str
    units: int = 0
    channels: int = 0
    kernel: int = 0
    stride: int = 1
    window: int = 0
    pool: str = ""
    activation: str = ""


def dense(units: int) -> LayerDescriptor:
    return LayerDescriptor("dense", units=units)


def conv(channels: int, kernel: int, stride: int = 1) -> LayerDescriptor:
    return LayerDescriptor("conv", channels=channels, kernel=kernel, stride=stride)


def act(kind: str = "relu") -> LayerDescriptor:
    return LayerDescriptor("activation", activation=kind)


def batchnorm() -> LayerDescriptor:
    return LayerDescriptor("batchnorm")


def avgpool(window: int, stride: int | None = None) -> LayerDescriptor:
    return LayerDescriptor("pool", pool="avg", window=window,
                           stride=window if stride is None else stride)


def maxpool(window: int, stride: int | None = None) -> LayerDescriptor:
    return LayerDescriptor("pool", pool="max", window=window,
                           stride=window if stride is None else stride)


def flatten() -> LayerDescriptor:
    return LayerDescriptor("flatten")


def mlp_layers(hidden: list[int], classes: int, activation: str = "relu") -> list[LayerDescriptor]:
    """Dense stack: hidden widths with activations, then a linear head."""
    layers: list[LayerDescriptor] = []
    for width in hidden:
        layers.append(dense(width))
        layers.append(act(activation))
    layers.append(dense(classes))
    return layers


# ---- network architecture ------------------------------------------------


class NetworkSpec:
    """Architecture plus the flat parameter layout derived from it.

    Args:
        input_shape: (features,) for dense inputs or (H, W, C) for images.
        layers: descriptor sequence; the last layer must be a dense layer
            with ``classes`` units so the logits carry one entry per class.
        classes: number of output classes (shared by every task).
    """

    def __init__(self, input_shape, layers, classes: int):
        self.input_shape = tuple(int(d) for d in input_shape)
        self.layers = tuple(layers)
        self.classes = int(classes)
        if self.classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.classes}")
        if any(d < 1 for d in self.input_shape):
            raise ValueError(f"bad input shape {self.input_shape}")
        if len(self.input_shape) not in (1, 3):
            raise ValueError(
                f"input shape must be (features,) or (H, W, C), got {self.input_shape}")
        if not self.layers:
            raise ValueError("network needs at least one layer")
        last = self.layers[-1]
        if last.kind != "dense" or last.units != self.classes:
            raise ValueError(
                "final layer must be dense with one unit per class, "
                f"got {last.kind} / {getattr(last, 'units', None)} for {self.classes} classes")

        self.shapes: list[tuple[int, ...]] = []
        self.slots: list[tuple[int, str, tuple[int, ...], int, int]] = []
        offset = 0
        shape = self.input_shape
        for index, layer in enumerate(self.layers):
            shape, params = self._flow(index, layer, shape)
            self.shapes.append(shape)
            for name, pshape in params:
                size = int(np.prod(pshape))
                self.slots.append((index, name, pshape, offset, size))
                offset += size
        self.total_params = offset
        self._slot_map = {(i, n): (o, s, p) for i, n, p, o, s in self.slots}

    @staticmethod
    def _flow(index, layer, shape):
        kind = layer.kind
        if kind == "dense":
            if len(shape) != 1:
                raise ValueError(
                    f"layer {index}: dense needs a flat input, got {shape} (add flatten)")
            if layer.units < 1:
                raise ValueError(f"layer {index}: dense units must be positive")
            return (layer.units,), [("weight", (layer.units, shape[0])),
                                    ("bias", (layer.units,))]
        if kind == "conv":
            if len(shape) != 3:
                raise ValueError(f"layer {index}: conv needs (H, W, C) input, got {shape}")
            h, w, c = shape
            k, s = layer.kernel, layer.stride
            if k < 1 or s < 1 or layer.channels < 1:
                raise ValueError(f"layer {index}: bad conv geometry")
            if k > h or k > w:
                raise ValueError(f"layer {index}: kernel {k} exceeds input {h}x{w}")
            out = ((h - k) // s + 1, (w - k) // s + 1, layer.channels)
            return out, [("kernel", (k, k, c, layer.channels)),
                         ("bias", (layer.channels,))]
        if kind == "activation":
            if layer.activation not in ("relu", "sigmoid"):
                raise ValueError(f"layer {index}: unknown activation {layer.activation!r}")
            return shape, []
        if kind == "batchnorm":
            feat = shape[-1]
            return shape, [("gamma", (feat,)), ("shift", (feat,))]
        if kind == "pool":
            if len(shape) != 3:
                raise ValueError(f"layer {index}: pool needs (H, W, C) input, got {shape}")
            h, w, c = shape
            k, s = layer.window, layer.stride
            if k < 1 or s < 1:
                raise ValueError(f"layer {index}: bad pool geometry")
            if k > h or k > w:
                raise ValueError(f"layer {index}: window {k} exceeds input {h}x{w}")
            return ((h - k) // s + 1, (w - k) // s + 1, c), []
        if kind == "flatten":
            return (int(np.prod(shape)),), []
        raise ValueError(f"layer {index}: unknown kind {kind!r}")


class ParamSet:
    """Flat parameter vector viewed through a spec's layout.

    ``flat`` may be an ndarray (evaluation) or a Tensor (training, keeping
    the generated weights differentiable). Structured access reshapes slices
    of the flat vector; nothing is copied in ndarray mode.
    """

    def __init__(self, spec: NetworkSpec, flat):
        size = np.size(ad.payload(flat))
        if size != spec.total_params:
            raise ValueError(
                f"flat vector has {size} entries, spec needs {spec.total_params}")
        self.spec = spec
        self.flat = flat if isinstance(flat, Tensor) else np.asarray(flat, dtype=np.float64)

    def get(self, layer_index: int, name: str):
        offset, size, shape = self.spec._slot_map[(layer_index, name)]
        return self.flat[offset:offset + size].reshape(shape)


# ---- forward passes ------------------------------------------------------


def forward_point(spec: NetworkSpec, params: ParamSet, x, *,
                  bn_stats=None, record=None):
    """Plain forward pass over a batch; returns logits (B, classes).

    ``bn_stats`` supplies frozen (mean, var) pairs for the batchnorm layers
    in order; without it each batchnorm normalizes with current batch
    moments. ``record``, if a list, receives the input and every layer
    output.
    """
    return _walk(spec, params, x, bn_stats, record, None)


def forward_interval(spec: NetworkSpec, params: ParamSet, box, *,
                     eps=None, bn_stats=None, record=None, bn_capture=None):
    """Interval forward pass; returns an IntervalTensor of logit bounds.

    ``box`` is either an IntervalTensor or, with ``eps`` given, a batch of
    points expanded to radius ``eps``. ``bn_capture`` collects the (mean,
    var) pairs each batchnorm actually used, so they can be frozen later.
    """
    if not isinstance(box, IntervalTensor):
        if eps is None:
            raise ValueError("pass an IntervalTensor or points with eps")
        box = IntervalTensor.from_ball(box, eps)
    return _walk(spec, params, box, bn_stats, record, bn_capture)


def _walk(spec: NetworkSpec, params: ParamSet, x, bn_stats, record, bn_capture):
    """The one layer loop behind both forward passes.

    ``x`` is a point batch (ndarray or Tensor) or an IntervalTensor. Point
    layers call the kernels of :mod:`intervalcl.intervals`, boxes the
    interval rules wrapping them. Both are looked up on the module at each
    call, so a wrapper installed on a module attribute (as the span tracer
    in ``perfbench/spans.py`` does) sees every layer.
    """
    boxed = isinstance(x, IntervalTensor)
    shape = np.shape(x)
    if tuple(shape[1:]) != spec.input_shape:
        raise ValueError(f"input shape {tuple(shape[1:])} does not match spec "
                         f"{spec.input_shape}")
    if record is not None:
        record.append(x)
    bn_index = 0
    out = x
    for index, layer in enumerate(spec.layers):
        kind = layer.kind
        if kind == "dense":
            weight = params.get(index, "weight")
            bias = params.get(index, "bias")
            out = (iv.interval_affine(out, weight, bias) if boxed
                   else ad.linear(out, weight, bias))
        elif kind == "conv":
            kernel = params.get(index, "kernel")
            bias = params.get(index, "bias")
            out = (iv.interval_conv2d(out, kernel, bias, layer.stride) if boxed
                   else iv.conv2d(out, kernel, layer.stride) + bias)
        elif kind == "activation":
            out = (iv.interval_activation(out, layer.activation) if boxed
                   else iv.activation(out, layer.activation))
        elif kind == "batchnorm":
            stats = bn_stats[bn_index] if bn_stats is not None else None
            bn_index += 1
            norm = iv.interval_batchnorm if boxed else iv.point_batchnorm
            out = norm(out, params.get(index, "gamma"), params.get(index, "shift"),
                       stats=stats, capture=bn_capture)
        elif kind == "pool":
            out = (iv.interval_pool(out, layer.pool, layer.window, layer.stride)
                   if boxed else iv.pool(out, layer.pool, layer.window, layer.stride))
        elif kind == "flatten":
            batch = shape[0]
            out = (IntervalTensor(out.lower.reshape(batch, -1),
                                  out.upper.reshape(batch, -1)) if boxed
                   else out.reshape(batch, -1))
        if record is not None:
            record.append(out)
    return out


def worst_case_logits(bounds: IntervalTensor, labels):
    """Adversarial logit vector: own-class lower bound, other-class uppers.

    Differentiable in the bounds; ``labels`` is a (B,) integer array.
    """
    width = bounds.shape[-1]
    batch = bounds.shape[0]
    labels = ad.check_labels(labels, batch, width)
    onehot = np.zeros((batch, width))
    onehot[np.arange(batch), labels] = 1.0
    return onehot * bounds.lower + (1.0 - onehot) * bounds.upper


# ---- hypernetwork --------------------------------------------------------


@dataclass
class HypernetLayout:
    """Sizes defining a hypernetwork, kept for checkpointing."""

    target_size: int
    embedding_dim: int
    hidden: tuple[int, ...]
    task_count: int


class Hypernetwork:
    """MLP mapping a task embedding to the target's flat weight vector.

    Embeddings are drawn from a unit normal; hidden layers use fan-in
    scaled uniform initialization with ReLU; the output layer is scaled
    down so generated targets start near zero. ``bn_stats`` holds frozen
    batchnorm moments per completed task.
    """

    def __init__(self, target_size: int, embedding_dim: int, hidden,
                 task_count: int, rng: np.random.Generator):
        if target_size < 1 or embedding_dim < 1 or task_count < 1:
            raise ValueError("target size, embedding dim, and task count must be positive")
        hidden = tuple(int(h) for h in hidden)
        if any(h < 1 for h in hidden):
            raise ValueError(f"bad hidden widths {hidden}")
        self.layout = HypernetLayout(int(target_size), int(embedding_dim),
                                     hidden, int(task_count))
        self.embeddings = rng.normal(size=(task_count, embedding_dim))
        self.weights: list[tuple[np.ndarray, np.ndarray]] = []
        widths = [embedding_dim, *hidden, target_size]
        for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            bound = 1.0 / np.sqrt(fan_in)
            if i == len(widths) - 2:
                bound *= 0.01  # keep initial target weights small
            w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
            b = np.zeros(fan_out)
            self.weights.append((w, b))
        self.bn_stats: dict[int, list] = {}
        self.trained_tasks = 0

    def _check_task(self, task: int):
        if not 0 <= task < self.layout.task_count:
            raise ValueError(
                f"task {task} out of range for {self.layout.task_count} tasks")

    def _generate(self, embedding, weights):
        """The generator's layer chain, on an ndarray or a Tensor embedding."""
        x = embedding.reshape(1, self.layout.embedding_dim)
        last = len(weights) - 1
        for i, (w, b) in enumerate(weights):
            x = ad.linear(x, w, b)
            if i < last:
                x = ad.relu(x)
        return x.reshape(self.layout.target_size)

    def generate_flat(self, task: int) -> np.ndarray:
        """Target weight vector for one task, plain numpy."""
        self._check_task(task)
        return self._generate(self.embeddings[task], self.weights)

    def tape_generate(self, task: int, *, train_embedding: bool = True,
                      leaves: dict | None = None):
        """Differentiable generation.

        Returns ``(flat, leaves)`` where ``flat`` is a Tensor holding the
        target weights and ``leaves`` maps names to the trainable leaf
        Tensors. Leaf values alias the stored arrays, so in-place optimizer
        updates take effect immediately. Passing the same ``leaves`` dict
        again reuses the leaf objects, letting several generations in one
        step (or repeated builds in a gradient check) share gradients.

        A frozen embedding enters as the stored array itself, a constant:
        gradients still flow to the generator weights but never into that
        embedding.
        """
        self._check_task(task)
        if leaves is None:
            leaves = {}
        embed = self.embeddings[task]
        if train_embedding:
            embed = leaves.setdefault("embedding", Tensor(embed))
        weights = [(leaves.setdefault(f"w{i}", Tensor(w)),
                    leaves.setdefault(f"b{i}", Tensor(b)))
                   for i, (w, b) in enumerate(self.weights)]
        return self._generate(embed, weights), leaves


def generate_params(h: Hypernetwork, spec: NetworkSpec, task: int) -> ParamSet:
    """Evaluation-time parameters for one task."""
    return ParamSet(spec, h.generate_flat(task))
