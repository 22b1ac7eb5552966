"""Segmentation quality metrics: mIoU, trimap IoU, and boundary F-measure.

evaluate_pair gathers all three for one pair as a JSON-ready record and
mean_record averages such records over pairs: the one scoring path of both
`epl eval` and the per-epoch validation metrics of model.train.
Boundary pixels are label-map pixels with a 4-neighbor of a different
label; image borders are not boundaries by themselves.  Bands and matching
tolerances use Chebyshev (8-connected) distance.
"""

from __future__ import annotations

import numpy as np


def _check_label_pair(pred, gt):
    p = np.asarray(pred)
    g = np.asarray(gt)
    if p.shape != g.shape or p.ndim != 2:
        raise ValueError(f"label maps must be 2-D with equal shapes, got {p.shape} vs {g.shape}")
    return p, g


def _class_ious(p, g, num_classes: int) -> np.ndarray:
    """IoU of each class of [0, num_classes) over the pixels given, NaN where both lack it.

    A label outside that range would be scored by no class, so it is
    rejected, naming the label.
    """
    for side, lab in (("prediction", p), ("ground truth", g)):
        lo, hi = lab.min(), lab.max()
        if lo < 0 or hi >= num_classes:
            raise ValueError(f"{side} label {lo if lo < 0 else hi} lies outside "
                             f"[0, {num_classes}): the class count must cover every label")
    ious = np.full(num_classes, np.nan)
    for c in range(num_classes):
        pc = p == c
        gc = g == c
        union = int(np.logical_or(pc, gc).sum())
        if union:
            ious[c] = float(np.logical_and(pc, gc).sum()) / union
    return ious


def miou(pred_labels, gt_labels, num_classes: int) -> tuple[np.ndarray, float]:
    """Per-class IoU (NaN for classes absent from both maps) and their mean."""
    p, g = _check_label_pair(pred_labels, gt_labels)
    ious = _class_ious(p, g, num_classes)
    with np.errstate(invalid="ignore"):
        mean = float(np.nanmean(ious))
    return ious, mean


def transition_mask(labels) -> np.ndarray:
    """Pixels with at least one 4-neighbor of a different label."""
    lab = np.asarray(labels)
    t = np.zeros(lab.shape, dtype=bool)
    diff_v = lab[:-1, :] != lab[1:, :]
    t[:-1, :] |= diff_v
    t[1:, :] |= diff_v
    diff_h = lab[:, :-1] != lab[:, 1:]
    t[:, :-1] |= diff_h
    t[:, 1:] |= diff_h
    return t


def chebyshev_dilate(mask, dist: int) -> np.ndarray:
    """Grow a boolean mask to all pixels within Chebyshev distance dist.

    A Chebyshev ball is a row interval times a column interval: a row pass,
    then a column pass, each ORs shifted slices in place.
    """
    m = np.asarray(mask, dtype=bool)
    rows = m.copy()
    for t in range(1, min(dist, m.shape[-1] - 1) + 1):
        rows[..., t:] |= m[..., :-t]
        rows[..., :-t] |= m[..., t:]
    out = rows.copy()
    for t in range(1, min(dist, m.shape[-2] - 1) + 1):
        out[..., t:, :] |= rows[..., :-t, :]
        out[..., :-t, :] |= rows[..., t:, :]
    return out


def boundary_band(gt_labels, width: int) -> np.ndarray:
    """Mask of pixels within Chebyshev distance width of a label transition."""
    if width < 1:
        raise ValueError(f"band width must be >= 1, got {width}")
    return chebyshev_dilate(transition_mask(gt_labels), width)


def trimap_iou(pred_labels, gt_labels, num_classes: int, width: int) -> float:
    """mIoU restricted to the boundary band; NaN when the band is empty.

    Only the band is scored, so only its labels must lie in [0, num_classes).
    """
    p, g = _check_label_pair(pred_labels, gt_labels)
    band = boundary_band(g, width)
    if not band.any():
        return float("nan")
    ious = _class_ious(p[band], g[band], num_classes)
    return float(np.mean(ious[~np.isnan(ious)]))


def boundary_fmeasure(pred_labels, gt_labels, tol: int) -> float:
    """Boundary precision/recall harmonic mean under a class-matched tolerance.

    A predicted boundary pixel counts as correct when a ground-truth
    boundary pixel of the same class lies within Chebyshev distance tol,
    and symmetrically for recall.  Returns 1 when both boundary sets are
    empty and 0 when exactly one is.
    """
    if tol < 0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    p, g = _check_label_pair(pred_labels, gt_labels)
    trans_p = transition_mask(p)
    trans_g = transition_mask(g)
    n_pred = n_gt = tp_pred = tp_gt = 0
    classes = np.union1d(np.unique(p[trans_p]), np.unique(g[trans_g]))
    for c in classes:
        bp = trans_p & (p == c)
        bg = trans_g & (g == c)
        n_pred += int(bp.sum())
        n_gt += int(bg.sum())
        tp_pred += int((bp & chebyshev_dilate(bg, tol)).sum())
        tp_gt += int((bg & chebyshev_dilate(bp, tol)).sum())
    if n_pred == 0 and n_gt == 0:
        return 1.0
    if n_pred == 0 or n_gt == 0:
        return 0.0
    precision = tp_pred / n_pred
    recall = tp_gt / n_gt
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def evaluate_pair(pred_labels, gt_labels, num_classes: int, trimap_widths, f_tolerances) -> dict:
    """Full metric sweep for one pair at the eval section's widths and tolerances.

    Returns the record `epl eval` writes: per_class_iou, miou, and trimap_iou
    and boundary_f keyed by the width or tolerance as a string, with None
    for NaN.
    """
    def clean(x: float) -> float | None:
        return None if np.isnan(x) else x

    ious, mean = miou(pred_labels, gt_labels, num_classes)
    return {
        "per_class_iou": [clean(float(v)) for v in ious],
        "miou": clean(mean),
        "trimap_iou": {str(w): clean(trimap_iou(pred_labels, gt_labels, num_classes, w))
                       for w in map(int, trimap_widths)},
        "boundary_f": {str(t): clean(boundary_fmeasure(pred_labels, gt_labels, t))
                       for t in map(int, f_tolerances)},
    }


def mean_record(records) -> dict:
    """Mean of evaluate_pair records over pairs, keyed in the first record's order.

    A mean skips None values (a trimap band that is empty) and is None when all are.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to average")

    def mean(values) -> float | None:
        vals = [v for v in values if v is not None]
        return float(np.mean(vals)) if vals else None

    return {"miou": mean(r["miou"] for r in records),
            **{key: {k: mean(r[key][k] for r in records) for k in records[0][key]}
               for key in ("trimap_iou", "boundary_f")}}
