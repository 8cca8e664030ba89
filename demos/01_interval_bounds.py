"""
Propagating input boxes through a network
=========================================

An interval forward pass pushes an axis-aligned box through every layer
and returns bounds that contain every output the network can produce for
any input inside the box. This script builds a small random network,
checks the bounds against Monte Carlo samples, and shows how the bounds
turn into a robustness certificate.
"""

import numpy as np

from intervalcl import IntervalTensor, soundness_oracle
from intervalcl.autodiff import onehot
from intervalcl.evaluation import certified_margin, certify
from intervalcl.losses import worst_case_logits
from intervalcl.nets import NetworkSpec, forward_interval, forward_point, mlp_layers

rng = np.random.default_rng(0)

# A 2-16-16-3 classifier with random weights. ``NetworkSpec`` lays out a
# flat parameter vector; every pass takes that vector and reads its weight
# matrices and biases out of it as views.
spec = NetworkSpec((2,), mlp_layers([16, 16], 3), 3)
params = rng.normal(scale=0.5, size=spec.total_params)
print(f"network: {spec.input_shape} -> 16 -> 16 -> {spec.classes} classes, "
      f"{spec.total_params} parameters")

# Take one input point and grow a box of radius 0.08 around it.
center = np.array([[0.4, 0.6]])
box = IntervalTensor.from_ball(center, 0.08)
bounds = forward_interval(spec, params, box)
print("\nlogit bounds for the box around", center[0].tolist())
for j in range(spec.classes):
    lo = np.asarray(bounds.lower)[0, j]
    hi = np.asarray(bounds.upper)[0, j]
    print(f"  class {j}: [{lo:+.4f}, {hi:+.4f}]")

# The bounds are sound: every sampled point inside the box lands inside
# them, at every layer, not just at the output. "Inside" allows each
# sample the float64 rounding budget e of that layer, the same bound the
# certificates below subtract; the largest escape beyond the bare bounds
# is printed as is.
report = soundness_oracle(spec, params, box, samples=20_000, seed=1)
print(f"\nMonte Carlo check: {report.samples} samples, "
      f"{report.violations} escapes beyond the budget, largest escape "
      f"{report.max_violation:.2e}")

# Certification reads the bounds pessimistically: the true class keeps its
# lower bound, every rival gets its upper bound. The margin subtracts twice
# the rounding budget of the logits, so a positive margin is a proof in
# float64 arithmetic: no point in the ball can flip the label.
logits = forward_point(spec, params, center)
label = np.array([int(np.argmax(logits))])
worst = worst_case_logits(bounds, onehot(label, spec.classes))
print(f"\npredicted class {label[0]}, worst-case logits "
      f"{np.round(np.asarray(worst)[0], 4).tolist()}")
certified = certify(spec, params, center, label, 0.08)
print(f"certified at radius 0.08: {bool(certified[0])}")

# Shrinking the box always helps: bounds are nested, so a certificate at
# one radius implies certificates at every smaller radius.
for eps in (0.08, 0.04, 0.02, 0.01):
    margin = certified_margin(spec, params, center, label, eps)[0]
    print(f"  eps={eps:<5} margin (own lower - best rival upper - 2e) = {margin:+.4f}")
