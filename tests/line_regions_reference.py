"""Sorted equal-count line regions: a reference for acceptance criterion 4.

The line loss scores soft level-set memberships over the whole plane; this
helper slices two energy planes into matched hard level sets instead, one
prediction region per ground-truth level with the same pixel count.  The
tests check that equal-count property and the partition it makes.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class LineRegions:
    """Level-set membership of one (class, direction) energy plane pair.

    Pixel indices are flat raster offsets.  ``levels[t]`` holds the
    ground-truth pixels with energy t+1; ``pred_levels[t]`` is the
    equal-count counterpart taken from the prediction in ascending energy
    order (ties broken by raster index), after skipping as many lowest
    pixels as the ground truth has zeros.  Exterior is energy 0, interior
    is energy radius + 1.
    """

    radius: int
    exterior: np.ndarray
    interior: np.ndarray
    levels: tuple[np.ndarray, ...]
    pred_exterior: np.ndarray
    pred_interior: np.ndarray
    pred_levels: tuple[np.ndarray, ...]


def build_line_regions(gt_plane, pred_plane, radius: int) -> LineRegions:
    """Slice two energy planes into matched equipotential line regions.

    The ground-truth plane must be integer-valued in [0, radius + 1].  The
    construction guarantees ``len(levels[t]) == len(pred_levels[t])`` for
    every level.
    """
    gt = np.asarray(gt_plane, dtype=np.float64)
    pred = np.asarray(pred_plane, dtype=np.float64)
    if gt.shape != pred.shape or gt.ndim != 2:
        raise ValueError(f"planes must be 2-D with equal shapes, got {gt.shape} vs {pred.shape}")
    rounded = np.rint(gt)
    if not np.array_equal(rounded, gt):
        raise ValueError("ground-truth energies must be integer-valued")
    if gt.size and (rounded.min() < 0 or rounded.max() > radius + 1):
        raise ValueError(f"ground-truth energies must lie in [0, {radius + 1}]")
    flat_gt = rounded.ravel().astype(np.int64)
    order = np.argsort(pred.ravel(), kind="stable")

    exterior = np.flatnonzero(flat_gt == 0)
    cursor = exterior.size
    pred_exterior = order[:cursor]
    levels = []
    pred_levels = []
    for tau in range(1, radius + 1):
        lv = np.flatnonzero(flat_gt == tau)
        levels.append(lv)
        pred_levels.append(order[cursor:cursor + lv.size])
        cursor += lv.size
    interior = np.flatnonzero(flat_gt == radius + 1)
    return LineRegions(
        radius=radius,
        exterior=exterior,
        interior=interior,
        levels=tuple(levels),
        pred_exterior=pred_exterior,
        pred_interior=order[cursor:],
        pred_levels=tuple(pred_levels),
    )
