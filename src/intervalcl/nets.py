"""Target network description, hypernetwork, and forward passes.

The target network never owns its weights. A ``NetworkSpec`` fixes the
architecture and lays every parameter out in one flat vector; a
``Hypernetwork`` maps a learned per-task embedding to that vector. Training
differentiates through the generator, so the target weights are an
intermediate node of the graph, never a leaf.

``forward_point`` (ordinary activations) and ``forward_interval`` (boxes)
are two entry points into one walk over the spec's layers. The walk applies
each layer's kernel from :mod:`intervalcl.intervals` to a point batch, or
the interval rule wrapping that kernel to a box. In the same way, one
generator layer chain maps a block of embedding rows to a block of weight
rows, on an array or a Tensor: ``generate_flat`` (numpy, for evaluation)
runs it over one task's row, and ``tape_generate`` (for training) over the
current task's row stacked under every earlier task's, so one training
step makes one generator pass whatever the task index.
"""

from __future__ import annotations

import math
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


# The descriptor sizes each layer kind reads.
_SIZES = {"dense": ("units",), "conv": ("channels", "kernel", "stride"),
          "pool": ("window", "stride")}


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
        # (layer index, name) -> (offset, shape), in layout order
        self._slots: dict[tuple[int, str], tuple[int, tuple[int, ...]]] = {}
        offset = 0
        shape = self.input_shape
        for index, layer in enumerate(self.layers):
            try:
                shape, params = self._flow(layer, shape)
            except ValueError as exc:
                raise ValueError(f"layer {index}: {exc}") from None
            self.shapes.append(shape)
            for name, pshape in params:
                self._slots[(index, name)] = (offset, pshape)
                offset += int(np.prod(pshape))
        self.total_params = offset
        # The layers that ``bn_stats`` entries belong to, in order.
        self.batchnorm_layers = tuple(index for index, layer in enumerate(self.layers)
                                      if layer.kind == "batchnorm")

    def check_bn_stats(self, bn_stats, boxed: bool) -> None:
        """Refuse ``bn_stats`` unless it holds one (mean, var) pair per
        batchnorm layer, each with one value per feature on its last axis
        and at most one axis more than the layer's input, so it broadcasts
        over the batch and adds no axis. Only a point batch may pass
        ``None``, taking its moments from itself."""
        layers = self.batchnorm_layers
        if bn_stats is None:
            if boxed and layers:
                raise ValueError(f"layer {layers[0]}: batchnorm on boxes needs "
                                 "moments (bn_stats)")
            return
        if len(bn_stats) != len(layers):
            raise ValueError(f"bn_stats holds {len(bn_stats)} batchnorm moment "
                             f"pairs, network has {len(layers)} batchnorm layers")
        for index, pair in zip(layers, bn_stats):
            shape = self.shapes[index]
            try:
                mean, var = pair
            except (TypeError, ValueError):
                raise ValueError(f"layer {index}: batchnorm moments must be a "
                                 f"(mean, var) pair, got {type(pair).__name__}") from None
            for name, value in (("mean", mean), ("var", var)):
                got = np.shape(value)
                if (got[-1:] != shape[-1:] or math.prod(got) != shape[-1]
                        or len(got) > len(shape) + 1):
                    raise ValueError(f"layer {index}: batchnorm {name} shaped "
                                     f"{got} does not fit input {shape}")

    @property
    def slots(self) -> list[tuple[int, str, tuple[int, ...], int, int]]:
        """The layout: (layer index, name, shape, offset, size) per slot."""
        return [(i, n, p, o, math.prod(p)) for (i, n), (o, p) in self._slots.items()]

    @staticmethod
    def _flow(layer, shape):
        """Output shape and parameter slots of ``layer`` on inputs of
        ``shape``; windows take their geometry from the kernels' own rule."""
        kind = layer.kind
        for name in _SIZES.get(kind, ()):
            value = getattr(layer, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{kind} {name} must be an integer, got {value!r}")
        if kind == "dense":
            if len(shape) != 1:
                raise ValueError(f"dense needs a flat input, got {shape} (add flatten)")
            if layer.units < 1:
                raise ValueError("dense units must be positive")
            return (layer.units,), [("weight", (layer.units, shape[0])),
                                    ("bias", (layer.units,))]
        if kind == "conv":
            if layer.channels < 1:
                raise ValueError("conv channels must be positive")
            k, out = layer.kernel, layer.channels
            grid = ad._window_grid((1,) + shape, k, k, layer.stride, layer.stride)
            return grid + (out,), [("kernel", (k, k, shape[-1], out)), ("bias", (out,))]
        if kind == "activation":
            if layer.activation not in ("relu", "sigmoid"):
                raise ValueError(f"unknown activation {layer.activation!r}")
            return shape, []
        if kind == "batchnorm":
            feat = shape[-1]
            return shape, [("gamma", (feat,)), ("shift", (feat,))]
        if kind == "pool":
            if layer.pool not in ("avg", "max"):
                raise ValueError(f"unknown pooling kind {layer.pool!r}")
            k = layer.window
            grid = ad._window_grid((1,) + shape, k, k, layer.stride, layer.stride)
            return grid + shape[-1:], []
        if kind == "flatten":
            return (int(np.prod(shape)),), []
        raise ValueError(f"unknown kind {kind!r}")


class ParamSet:
    """Flat parameter vector viewed through a spec's layout.

    ``flat`` may be an ndarray (evaluation) or a Tensor (training, keeping
    the generated weights differentiable). ``get`` reads one slot through
    :func:`intervalcl.autodiff.slot`: a no-copy view of an ndarray, or one
    tape node on a Tensor.
    """

    def __init__(self, spec: NetworkSpec, flat):
        size = np.size(ad.payload(flat))
        if size != spec.total_params:
            raise ValueError(
                f"flat vector has {size} entries, spec needs {spec.total_params}")
        self.spec = spec
        self.flat = flat if isinstance(flat, Tensor) else np.asarray(flat, dtype=np.float64)

    def get(self, layer_index: int, name: str):
        offset, shape = self.spec._slots[(layer_index, name)]
        return ad.slot(self.flat, offset, shape)


# ---- forward passes ------------------------------------------------------


def forward_point(spec: NetworkSpec, params: ParamSet, x, *,
                  bn_stats=None, record=None, bn_capture=None):
    """Plain forward pass over a batch; returns logits (B, classes).

    ``bn_stats`` supplies frozen (mean, var) pairs for the batchnorm layers
    in order; without it each batchnorm normalizes with the moments of the
    current batch. ``bn_capture``, if a list, receives the (mean, var) pair
    each batchnorm used, ready to pass as ``bn_stats`` to
    :func:`forward_interval`. ``record``, if a list, receives the input and
    every layer output.
    """
    return _walk(spec, params, x, bn_stats, record, bn_capture)


def forward_interval(spec: NetworkSpec, params: ParamSet, box, *,
                     eps=None, bn_stats=None, record=None):
    """Interval forward pass; returns an IntervalTensor of logit bounds.

    ``box`` is either an IntervalTensor or, with ``eps`` given, a batch of
    points expanded to radius ``eps``. A box takes no moments from itself:
    a spec with batchnorm needs ``bn_stats``, the (mean, var) pairs frozen
    after training or captured by :func:`forward_point`.
    """
    if not isinstance(box, IntervalTensor):
        if eps is None:
            raise ValueError("pass an IntervalTensor or points with eps")
        box = IntervalTensor.from_ball(box, eps)
    return _walk(spec, params, box, bn_stats, record, None)


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
    spec.check_bn_stats(bn_stats, boxed)
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
                   else ad.conv2d(out, kernel, layer.stride, bias))
        elif kind == "activation":
            out = (iv.interval_activation(out, layer.activation) if boxed
                   else iv.activation(out, layer.activation))
        elif kind == "batchnorm":
            stats = bn_stats[bn_index] if bn_stats is not None else None
            bn_index += 1
            gamma, shift = params.get(index, "gamma"), params.get(index, "shift")
            out = (iv.interval_batchnorm(out, gamma, shift, stats=stats) if boxed
                   else iv.point_batchnorm(out, gamma, shift, stats=stats,
                                           capture=bn_capture))
        elif kind == "pool":
            out = (iv.interval_pool(out, layer.pool, layer.window, layer.stride)
                   if boxed else iv.pool(out, layer.pool, layer.window, layer.stride))
        elif kind == "flatten":
            # The recorded width, not -1: numpy cannot infer -1 for 0 rows.
            flat = (shape[0],) + spec.shapes[index]
            out = (IntervalTensor(out.lower.reshape(flat), out.upper.reshape(flat))
                   if boxed else out.reshape(flat))
        if record is not None:
            record.append(out)
    return out


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

    def _generate(self, embeddings, weights):
        """The generator's layer chain: a (k, embedding_dim) block of
        embedding rows, ndarray or Tensor, to the (k, target_size) block of
        their weight rows."""
        x = embeddings
        last = len(weights) - 1
        for i, (w, b) in enumerate(weights):
            x = ad.linear(x, w, b)
            if i < last:
                x = ad.relu(x)
        return x

    def generate_flat(self, task: int) -> np.ndarray:
        """Target weight vector for one task, plain numpy."""
        self._check_task(task)
        return self._generate(self.embeddings[task:task + 1],
                              self.weights).reshape(self.layout.target_size)

    def tape_generate(self, task: int, *, leaves: dict | None = None):
        """Differentiable generation of tasks ``0..task`` in one pass.

        Returns ``(block, leaves)``. ``block`` is a ``(task + 1,
        target_size)`` Tensor: row ``task`` holds the current task's target
        weights and rows ``0..task-1`` every earlier task's, as the output
        regularizer reads them. Each generator layer is one matmul over the
        whole block, so its weight gradient is one product however many
        rows there are. ``leaves`` maps names to the trainable leaf Tensors:
        the generator weights and biases, and the current task's embedding.
        Earlier embeddings enter as a constant array, so they take no
        gradient. Leaf values alias the stored arrays, so in-place optimizer
        updates take effect immediately. Passing the same ``leaves`` dict
        again reuses the leaf objects (repeated builds in a gradient check
        share them); it must come from the same task.

        Row 0 of ``tape_generate(0)`` is bitwise ``generate_flat(0)``; for a
        later task the block's matmuls may round rows differently from the
        one-row pass, by a few units in the last place.
        """
        self._check_task(task)
        if leaves is None:
            leaves = {}

        def leaf(name, array):
            if name not in leaves:
                leaves[name] = Tensor(array)
            return leaves[name]

        embed = leaf("embedding", self.embeddings[task])
        if not np.may_share_memory(embed.value, self.embeddings[task]):
            raise ValueError(
                f"leaves hold another task's embedding, not task {task}'s")
        block = ad.append_row(self.embeddings[:task], embed)
        weights = [(leaf(f"w{i}", w), leaf(f"b{i}", b))
                   for i, (w, b) in enumerate(self.weights)]
        return self._generate(block, weights), leaves


def generate_params(h: Hypernetwork, spec: NetworkSpec, task: int) -> ParamSet:
    """Evaluation-time parameters for one task."""
    return ParamSet(spec, h.generate_flat(task))
