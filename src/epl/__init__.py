"""Potential-domain losses for boundary-aware semantic segmentation.

The library converts per-class probability fields into directional
potential fields with a fixed anisotropic box convolution, then optimizes
predictions there with a point (field regression) loss and an
equipotential line (contour matching) loss alongside cross-entropy.  It
ships finite-difference gradient verification, segmentation metrics
(mIoU, trimap IoU, boundary F-measure), a synthetic boundary-stress
dataset generator, a tiny trainable network, and a CLI for reproducible
experiments.
"""

from .datagen import Sample, SceneSpec, generate_dataset, read_sample, write_sample
from .fields import (
    ACConfig,
    ac_adjoint,
    anisotropic_convolve,
    one_hot,
    standard_convolve,
)
from .gradcheck import GradReport, finite_diff_gradient, run_gradcheck
from .losses import (
    LineTarget,
    LossConfig,
    LossValue,
    cross_entropy_loss,
    dice_loss,
    equipotential_dice,
    equipotential_line_loss,
    line_target,
    point_loss,
)
from .metrics import (
    boundary_band,
    boundary_fmeasure,
    evaluate_pair,
    mean_record,
    miou,
    trimap_iou,
)
from .model import TinyNet, TrainConfig, backward, objective, train

__version__ = "0.1.0"

__all__ = [
    "ACConfig",
    "GradReport",
    "LineTarget",
    "LossConfig",
    "LossValue",
    "Sample",
    "SceneSpec",
    "TinyNet",
    "TrainConfig",
    "ac_adjoint",
    "anisotropic_convolve",
    "backward",
    "boundary_band",
    "boundary_fmeasure",
    "cross_entropy_loss",
    "dice_loss",
    "equipotential_dice",
    "equipotential_line_loss",
    "evaluate_pair",
    "finite_diff_gradient",
    "generate_dataset",
    "line_target",
    "mean_record",
    "miou",
    "objective",
    "one_hot",
    "point_loss",
    "read_sample",
    "run_gradcheck",
    "standard_convolve",
    "train",
    "trimap_iou",
    "write_sample",
]
