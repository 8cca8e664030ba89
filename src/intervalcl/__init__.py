"""intervalcl: certified-robust continual learning on interval bounds.

A hypernetwork maps a per-task embedding to the full weight vector of a
target network. The target is trained with interval bound propagation and
Interval MixUp, evaluated under gradient attacks, and certified by comparing
worst-case logit bounds. Everything runs on numpy with a small reverse-mode
tape; no GPU or framework required.
"""

from intervalcl.autodiff import Tensor, grad_check
from intervalcl.checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from intervalcl.config import (
    ConfigError,
    apply_overrides,
    default_config,
)
from intervalcl.data import (
    DataError,
    LabeledData,
    Task,
    build_permuted_tasks,
    build_rotated_tasks,
    gen_blobs_tasks,
    gen_digits,
    gen_toy2d,
    load_idx,
    ring_task_means,
)
from intervalcl.evaluation import (
    AttackConfig,
    ResultMatrix,
    attacked_accuracy,
    certify,
    cil_evaluate,
    clean_accuracy,
    metrics,
    verified_accuracy,
)
from intervalcl.intervals import IntervalTensor, soundness_oracle
from intervalcl.losses import (
    LossConfig,
    ibp_loss,
    interval_mixup_loss,
    output_reg_loss,
    scaled_radius,
    virtual_samples,
)
from intervalcl.nets import (
    Hypernetwork,
    NetworkSpec,
    generate_params,
    mlp_layers,
)
from intervalcl.training import (
    NumericalDivergenceError,
    TrainerConfig,
    train_sequence,
    train_task,
    train_virtual,
)

__all__ = [
    "AttackConfig",
    "Checkpoint",
    "CheckpointError",
    "ConfigError",
    "DataError",
    "Hypernetwork",
    "IntervalTensor",
    "LabeledData",
    "LossConfig",
    "NetworkSpec",
    "NumericalDivergenceError",
    "ResultMatrix",
    "Task",
    "Tensor",
    "TrainerConfig",
    "apply_overrides",
    "attacked_accuracy",
    "build_permuted_tasks",
    "build_rotated_tasks",
    "certify",
    "cil_evaluate",
    "clean_accuracy",
    "default_config",
    "gen_blobs_tasks",
    "gen_digits",
    "gen_toy2d",
    "generate_params",
    "grad_check",
    "ibp_loss",
    "interval_mixup_loss",
    "load_checkpoint",
    "load_idx",
    "metrics",
    "mlp_layers",
    "output_reg_loss",
    "ring_task_means",
    "save_checkpoint",
    "scaled_radius",
    "soundness_oracle",
    "train_sequence",
    "train_task",
    "train_virtual",
    "verified_accuracy",
    "virtual_samples",
]

__version__ = "0.1.0"
