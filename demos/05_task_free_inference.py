"""
Choosing the task head by prediction entropy
============================================

At test time the task identity may be unknown. The package handles this
by scoring each input with every task's generated network and trusting
the head with the lowest softmax entropy — the most confident one. That
only works when off-task inputs genuinely confuse the other heads, so the
demo tasks share one annulus: every task's class means sit on the same
circle, rotated 40 degrees further per task.
"""

import numpy as np

from intervalcl import LabeledData, gen_blobs_tasks, ring_task_means
from intervalcl.evaluation import (
    AttackConfig, cil_evaluate, cil_infer, pgd, prediction_entropy,
)
from intervalcl.losses import LossConfig
from intervalcl.nets import (
    Hypernetwork, NetworkSpec, forward_point, generate_params, mlp_layers,
)
from intervalcl.autodiff import softmax
from intervalcl.training import TrainerConfig, train_sequence

means = ring_task_means(3, classes=3, radius=0.3, center=0.5,
                        task_step_degrees=40.0)
tasks = gen_blobs_tasks(3, classes=3, dims=2, spread=0.04, train_size=300,
                        val_size=60, test_size=150, seed=11, means=means)
print("class means per task (all on the circle of radius 0.3 around 0.5):")
for t in range(3):
    pretty = ", ".join(f"({x:.2f}, {y:.2f})" for x, y in means[t])
    print(f"  task {t}: {pretty}")

spec = NetworkSpec((2,), mlp_layers([16], 3), 3)
rng = np.random.default_rng(np.random.SeedSequence(entropy=0,
                                                   spawn_key=(104729,)))
h = Hypernetwork(spec.total_params, 8, [32], 3, rng=rng)
cfg = TrainerConfig(steps=500, batch_size=32, lr=1e-3,
                    loss=LossConfig(beta=0.01, eps=0.05, alpha=0.1),
                    use_interval_mixup=True, seed=0)
train_sequence(h, spec, tasks, cfg)

# Each head is confident on its own data and uncertain on the others'.
print("\nmean softmax entropy of head s on the test data of task t:")
print("            " + " ".join(f"head {s}" for s in range(3)))
for t in range(3):
    row = []
    for s in range(3):
        params = generate_params(h, spec, s)
        logits = forward_point(spec, params, tasks[t].test.inputs)
        row.append(prediction_entropy(softmax(logits)).mean())
    print(f"  task {t} data " + " ".join(f"{v:6.3f}" for v in row))

# Lowest entropy picks the task; that head's argmax picks the class.
outcome = cil_evaluate(h, spec, [t.test for t in tasks])
print(f"\ntask inference accuracy {outcome['task_inference_accuracy']:.3f}, "
      f"end-to-end accuracy {outcome['accuracy']:.3f}")
for row in outcome["per_task"]:
    print(f"  task {row['task']}: inferred {row['task_inference_accuracy']:.3f}, "
          f"classified {row['accuracy']:.3f}")

# The same pipeline under attack: PGD first perturbs each test set against
# its own task's network, and task inference runs on the perturbed inputs.
attack = AttackConfig(kind="pgd", eps=0.02, iters=40, seed=3)
attacked = cil_evaluate(h, spec, [
    LabeledData(pgd(spec, generate_params(h, spec, t), task.test.inputs,
                    task.test.labels, attack, bn_stats=h.bn_stats.get(t)),
                task.test.labels)
    for t, task in enumerate(tasks)])
print(f"\nwith a pgd attack at eps=0.02: task inference "
      f"{attacked['task_inference_accuracy']:.3f}, accuracy "
      f"{attacked['accuracy']:.3f}")

# A few individual calls, spelled out.
sample = np.array([tasks[2].test.inputs[0]])
task_pred, class_pred = cil_infer(h, spec, sample)
print(f"\nsingle input from task 2: inferred task {task_pred[0]}, "
      f"class {class_pred[0]} (true {tasks[2].test.labels[0]})")
