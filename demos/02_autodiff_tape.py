"""
The reverse-mode tape behind training
=====================================

Everything in this package trains through one small autodiff engine:
``Tensor`` records each numpy operation on a tape, and ``backward()``
replays the tape in reverse to accumulate gradients. This script
differentiates a hand-checkable function, then verifies a full loss
gradient against finite differences.
"""

import numpy as np

from intervalcl import Tensor, grad_check
from intervalcl.autodiff import sigmoid
from intervalcl.losses import ibp_loss
from intervalcl.nets import (
    NetworkSpec, ParamSet, forward_interval, forward_point, mlp_layers,
)

# d/dx of x^2 * sigmoid(x) at x = 1.5, against the product rule.
x = Tensor(np.array(1.5))
y = (x * x) * sigmoid(x)
y.backward()
s = 1.0 / (1.0 + np.exp(-1.5))
by_hand = 2 * 1.5 * s + 1.5 ** 2 * s * (1 - s)
print(f"tape gradient {float(x.grad):.10f}, product rule {by_hand:.10f}")

# The same tape differentiates a whole certified-training loss: point
# logits, interval bounds, and the worst-case blend all live on one graph,
# so one backward() yields the gradient for every parameter.
rng = np.random.default_rng(3)
spec = NetworkSpec((4,), mlp_layers([8], 3), 3)
flat = Tensor(rng.normal(scale=0.7, size=spec.total_params))
inputs = rng.uniform(0.1, 0.9, size=(6, 4))
labels = rng.integers(0, 3, size=6)


def build():
    params = ParamSet(spec, flat)
    logits = forward_point(spec, params, inputs)
    bounds = forward_interval(spec, params, inputs, eps=0.05)
    return ibp_loss(bounds, logits, labels, kappa=0.7)


loss = build()
loss.backward()
print(f"\nloss {float(loss.value):.6f} over {spec.total_params} parameters, "
      f"gradient norm {np.linalg.norm(flat.grad):.6f}")

# grad_check perturbs one coordinate at a time and compares the tape's
# gradient with the central difference. Errors sit at numerical noise.
err = grad_check(build, [flat], rng=rng, max_coords=20)
print(f"worst relative error over 20 spot-checked coordinates: {err:.2e}")
