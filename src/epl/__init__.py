"""Potential-domain losses for boundary-aware semantic segmentation.

The library converts per-class probability fields into directional
potential fields with a fixed anisotropic box convolution, then optimizes
predictions there with a point (field regression) loss and an
equipotential line (contour matching) loss alongside cross-entropy.  It
ships a slow reference oracle for the conversion, finite-difference
gradient verification, segmentation metrics (mIoU, trimap IoU, boundary
F-measure), a synthetic boundary-stress dataset generator, a tiny
trainable network, and a CLI for reproducible experiments.
"""

from .datagen import Sample, SceneSpec, generate_dataset, generate_mixed_dataset, read_sample, write_sample
from .fields import (
    ACConfig,
    Splitter,
    ac_adjoint,
    anisotropic_convolve,
    make_splitter,
    one_hot,
    potential_oracle,
    standard_convolve,
)
from .gradcheck import GradReport, finite_diff_gradient, run_gradcheck
from .losses import (
    LineRegions,
    LineTarget,
    LossConfig,
    LossValue,
    build_line_regions,
    combine_losses,
    cross_entropy_loss,
    dice_loss,
    equipotential_dice,
    equipotential_line_loss,
    line_target,
    point_loss,
)
from .metrics import EvalReport, boundary_band, boundary_fmeasure, evaluate_pair, miou, trimap_iou
from .model import TinyNet, TrainConfig, backward, forward, train

__version__ = "0.1.0"

__all__ = [
    "ACConfig",
    "EvalReport",
    "GradReport",
    "LineRegions",
    "LineTarget",
    "LossConfig",
    "LossValue",
    "Sample",
    "SceneSpec",
    "Splitter",
    "TinyNet",
    "TrainConfig",
    "ac_adjoint",
    "anisotropic_convolve",
    "backward",
    "boundary_band",
    "boundary_fmeasure",
    "build_line_regions",
    "combine_losses",
    "cross_entropy_loss",
    "dice_loss",
    "equipotential_dice",
    "equipotential_line_loss",
    "evaluate_pair",
    "finite_diff_gradient",
    "forward",
    "generate_dataset",
    "generate_mixed_dataset",
    "line_target",
    "make_splitter",
    "miou",
    "one_hot",
    "point_loss",
    "potential_oracle",
    "read_sample",
    "run_gradcheck",
    "standard_convolve",
    "train",
    "trimap_iou",
    "write_sample",
]
