"""Finite-difference verification of the analytic loss gradients.

Each check builds a random scenario for one loss, evaluates the analytic
gradient once, then compares it against central differences at randomly
sampled coordinates.  Everything accumulates in float64 and draws from the
stream (seed, GRADCHECK, kind), so a report is bit-reproducible for a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import model, seeding
from .fields import ACConfig, one_hot
from .losses import (
    LossConfig,
    cross_entropy_loss,
    dice_loss,
    equipotential_line_loss,
    point_loss,
)

DEFAULT_STEP = 1e-4
DEFAULT_TOL = 1e-4

#: Relative error denominator floor; when both gradients are below this the
#: coordinate is numerically flat and the comparison is meaningless.
REL_FLOOR = 1e-6

#: L1 point-loss coordinates closer than this to the |gt - pred| kink are
#: excluded (the subgradient there is not a derivative).
L1_KINK_MARGIN = 1e-3

LOSS_KINDS = ("point_l1", "point_l2", "line", "cross_entropy", "dice", "composite")


@dataclass(frozen=True)
class GradReport:
    loss_name: str
    coordinates: int
    max_rel_error: float
    fraction_passing: float
    step: float
    seed: int


def finite_diff_gradient(loss_fn, field, coordinate, step: float = DEFAULT_STEP) -> float:
    """Central difference of a scalar loss along one coordinate of `field`."""
    _check_positive("step", step)
    x = np.array(field, dtype=np.float64, copy=True)
    base = x[coordinate]
    x[coordinate] = base + step
    hi = float(loss_fn(x))
    x[coordinate] = base - step
    lo = float(loss_fn(x))
    x[coordinate] = base
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise ValueError("loss is not finite at the perturbed points")
    return (hi - lo) / (2.0 * step)


def _check_positive(name: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _scenario(loss_kind: str, dims, rng, mu_exp: int):
    """Return (field0, loss_fn, analytic_grad, valid_mask_or_None) for a kind of LOSS_KINDS."""
    k, h, w = dims
    cfg = model.TrainConfig(loss=LossConfig(mu_exp=mu_exp),
                            ac=ACConfig(kernel_size=5, splitter="A"))
    radius = cfg.ac.radius
    e_shape = (len(cfg.ac.directions), k, h, w)
    valid = None
    if loss_kind in ("point_l1", "point_l2"):
        point_cfg = LossConfig(norm=loss_kind[-2:], mu_exp=mu_exp)
        e_gt = rng.uniform(0.0, radius + 1.0, e_shape)
        pred0 = rng.uniform(0.0, radius + 1.0, e_shape)
        if point_cfg.norm == "l1":
            valid = np.abs(e_gt - pred0) > L1_KINK_MARGIN
        loss = partial(point_loss, e_gt, cfg=point_cfg)
    elif loss_kind == "line":
        e_gt = model.label_energies(rng.integers(0, k, (h, w)), k, cfg)
        pred0 = rng.uniform(0.0, radius + 1.0, e_shape)
        loss = partial(equipotential_line_loss, e_gt, cfg=cfg.loss, radius=radius)
    elif loss_kind == "dice":
        gt = one_hot(rng.integers(0, k, (h, w)), k)
        pred0 = rng.uniform(0.0, 1.0, (k, h, w))
        loss = partial(dice_loss, gt=gt)
    else:  # cross_entropy and composite score a probability field
        labels = rng.integers(0, k, (h, w))
        raw = rng.uniform(0.05, 1.0, (k, h, w))
        pred0 = raw / raw.sum(axis=0)
        if loss_kind == "composite":
            # the training objective itself, CE + lambda1 * point + lambda2 * line with
            # the potential gradients chained back through the adjoint
            target = model.ground_truth(labels, k, cfg)
            return (pred0, lambda x: model.objective(x, labels, cfg, target)[0]["total"],
                    model.objective(pred0, labels, cfg, target)[1], None)
        loss = partial(cross_entropy_loss, labels=labels)
    return pred0, lambda x: loss(x).value, loss(pred0).gradient, valid


def run_gradcheck(loss_kind: str, dims=(2, 8, 8), samples: int = 64, seed: int = 0,
                  step: float = DEFAULT_STEP, tol: float = DEFAULT_TOL,
                  mu_exp: int = 2) -> GradReport:
    """Compare analytic vs central-difference gradients at sampled coordinates."""
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {loss_kind!r}, expected one of {LOSS_KINDS}")
    if type(samples) is not int or samples < 1:
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    _check_positive("tol", tol)
    rng = seeding.stream(seed, seeding.STREAM_GRADCHECK, LOSS_KINDS.index(loss_kind))
    field0, loss_fn, analytic, valid = _scenario(loss_kind, dims, rng, mu_exp)

    flat_pool = np.arange(field0.size) if valid is None else np.flatnonzero(valid.ravel())
    if flat_pool.size == 0:
        raise ValueError("no valid coordinates to sample")
    n = min(samples, flat_pool.size)
    chosen = rng.choice(flat_pool, size=n, replace=False)

    rel_errors = np.empty(n)
    for idx, flat in enumerate(chosen):
        coord = np.unravel_index(int(flat), field0.shape)
        fd = finite_diff_gradient(loss_fn, field0, coord, step)
        a = float(analytic[coord])
        rel_errors[idx] = abs(a - fd) / max(abs(a), abs(fd), REL_FLOOR)
    return GradReport(
        loss_name=loss_kind,
        coordinates=n,
        max_rel_error=float(rel_errors.max()),
        fraction_passing=float((rel_errors < tol).mean()),
        step=step,
        seed=seed,
    )
