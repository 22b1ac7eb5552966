"""Segmentation quality metrics: mIoU, trimap IoU, and boundary F-measure.

evaluate_pair gathers all three for one pair as a JSON-ready record and
mean_record averages such records over pairs: the one scoring path of both
`epl eval` and the per-epoch validation metrics of model.train.
Boundary pixels are label-map pixels with a 4-neighbor of a different
label; image borders are not boundaries by themselves.  Bands and matching
tolerances use Chebyshev (8-connected) distance.  Label maps hold integers
or booleans, and the class IoUs of mIoU and of each trimap band come from
one confusion count of the pixels scored.

chebyshev_dilate grows a mask by doubling: each axis ORs in shifts of 1,
2, 4, ... and then the remainder, so a reach of d takes ceil(log2(d + 1))
steps per axis.  A dilation by a followed by one by b is the dilation by
a + b, so the masks of several widths or tolerances are chained: each is
grown from the one before by the difference of their distances.

Each mask of a pair is built once and shared by every width and tolerance.
evaluate_pair takes each side's transition mask once: the trimap bands are
chained from the ground truth's, and the per-class boundary planes of both
sides are stacked as one (2 * classes, H, W) array and chained through
every tolerance, one chebyshev_dilate call per tolerance.  trimap_iou and
boundary_fmeasure score one width or tolerance through the same helpers.
"""

from __future__ import annotations

import operator

import numpy as np


def _check_label_pair(pred, gt):
    p = np.asarray(pred)
    g = np.asarray(gt)
    if p.shape != g.shape or p.ndim != 2:
        raise ValueError(f"label maps must be 2-D with equal shapes, got {p.shape} vs {g.shape}")
    for side, lab in (("prediction", p), ("ground truth", g)):
        if lab.dtype.kind not in "biu":
            raise ValueError(f"{side} label map must be integer, got dtype {lab.dtype}")
    return p, g


def _class_ious(p, g, num_classes: int) -> np.ndarray:
    """IoU of each class of [0, num_classes) over the pixels given, NaN where both lack it.

    One confusion count of (ground truth, prediction) label pairs gives every
    class's intersection and union.  A label outside that range would be
    scored by no class, so it is rejected, naming the label.
    """
    codes = []
    for side, lab in (("prediction", p), ("ground truth", g)):
        lab = lab.astype(np.intp).ravel()  # a uint8 code g * num_classes + p would wrap
        lo, hi = lab.min(), lab.max()
        if lo < 0 or hi >= num_classes:
            raise ValueError(f"{side} label {lo if lo < 0 else hi} lies outside "
                             f"[0, {num_classes}): the class count must cover every label")
        codes.append(lab)
    pred, gt = codes
    counts = np.bincount(gt * num_classes + pred, minlength=num_classes * num_classes)
    counts = counts.reshape(num_classes, num_classes)
    inter = np.diagonal(counts)
    union = counts.sum(axis=0) + counts.sum(axis=1) - inter
    return np.divide(inter, union, out=np.full(num_classes, np.nan), where=union > 0)


def miou(pred_labels, gt_labels, num_classes: int) -> tuple[np.ndarray, float]:
    """Per-class IoU (NaN for classes absent from both maps) and their mean."""
    p, g = _check_label_pair(pred_labels, gt_labels)
    (num_classes,) = _distances((num_classes,), "class count", 1)
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
    then a column pass, both in place on one fresh copy.  At reach r a pass
    ORs the copy with itself shifted by s <= r + 1 both ways, so no gap
    opens and the reach becomes r + s: s doubles (1, 2, 4, ...) and the
    remainder comes last, so a reach of d takes ceil(log2(d + 1)) steps of
    two slice ORs.
    """
    out = np.array(mask, dtype=bool)
    for view in (out, np.swapaxes(out, -1, -2)):
        full = min(dist, view.shape[-1] - 1)
        reach = 0
        while reach < full:
            s = min(reach + 1, full - reach)
            view[..., s:] |= view[..., :-s]
            view[..., :-s] |= view[..., s:]
            reach += s
    return out


def _dilations(mask: np.ndarray, dists) -> dict:
    """{d: chebyshev_dilate(mask, d)} for each distinct d, each grown from the last.

    The distances are taken in ascending order, and each dilation grows the
    previous one by the difference: one chebyshev_dilate call per distance.
    """
    out, grown, done = {}, mask, 0
    for d in sorted(set(dists)):
        grown = out[d] = chebyshev_dilate(grown, d - done)
        done = d
    return out


def _distances(values, name: str, least: int) -> list:
    """The values as ints (operator.index), each at least least, else a ValueError naming it."""
    out = []
    for v in values:
        try:
            d = operator.index(v)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {v!r}") from None
        if d < least:
            raise ValueError(f"{name} must be >= {least}, got {v}")
        out.append(d)
    return out


def _bands(trans: np.ndarray, widths) -> dict:
    """{w: band of width w} in the order given, the bands chained from trans."""
    widths = _distances(widths, "band width", 1)
    bands = _dilations(trans, widths)
    return {w: bands[w] for w in widths}


def _boundary_planes(labels: np.ndarray, trans: np.ndarray, classes) -> np.ndarray:
    """(len(classes), H, W): the transition pixels of each class, one plane per class."""
    return trans & (labels == np.reshape(classes, (-1, 1, 1)))


def boundary_band(gt_labels, width: int) -> np.ndarray:
    """Mask of pixels within Chebyshev distance width of a label transition."""
    return _bands(transition_mask(gt_labels), (width,))[width]


def _trimap(p, g, num_classes: int, band: np.ndarray) -> float:
    if not band.any():
        return float("nan")
    ious = _class_ious(p[band], g[band], num_classes)
    return float(np.mean(ious[~np.isnan(ious)]))


def _fmeasures(stack: np.ndarray, tols) -> dict:
    """{tol: class-matched boundary F} of the stacked per-class boundary planes of both sides.

    stack is (2n, H, W): the prediction's planes of n classes, then the
    ground truth's planes of the same classes.  The reaches of both sides
    are chained through the tolerances, one chebyshev_dilate call each; the
    hits are counts of pixels.
    """
    tols = _distances(tols, "tolerance", 0)
    n = len(stack) // 2
    pred, gt = stack[:n], stack[n:]
    n_pred, n_gt = np.count_nonzero(pred), np.count_nonzero(gt)
    if n_pred == 0 or n_gt == 0:
        return {t: 1.0 if n_pred == n_gt else 0.0 for t in tols}  # 1 when both are empty
    reaches = _dilations(stack, tols)
    out = {}
    for t in tols:
        precision = np.count_nonzero(pred & reaches[t][n:]) / n_pred
        recall = np.count_nonzero(gt & reaches[t][:n]) / n_gt
        out[t] = 0.0 if precision + recall == 0 else 2.0 * precision * recall / (precision + recall)
    return out


def trimap_iou(pred_labels, gt_labels, num_classes: int, width: int) -> float:
    """mIoU restricted to the boundary band; NaN when the band is empty.

    Only the band is scored, so only its labels must lie in [0, num_classes).
    """
    p, g = _check_label_pair(pred_labels, gt_labels)
    (num_classes,) = _distances((num_classes,), "class count", 1)
    return _trimap(p, g, num_classes, boundary_band(g, width))


def boundary_fmeasure(pred_labels, gt_labels, tol: int) -> float:
    """Boundary precision/recall harmonic mean under a class-matched tolerance.

    A predicted boundary pixel counts as correct when a ground-truth
    boundary pixel of the same class lies within Chebyshev distance tol,
    and symmetrically for recall.  Returns 1 when both boundary sets are
    empty and 0 when exactly one is.  The classes matched are the labels on
    either boundary, so any integer label values are accepted.
    """
    p, g = _check_label_pair(pred_labels, gt_labels)
    trans_p, trans_g = transition_mask(p), transition_mask(g)
    classes = np.union1d(p[trans_p], g[trans_g])
    return _fmeasures(np.concatenate((_boundary_planes(p, trans_p, classes),
                                      _boundary_planes(g, trans_g, classes))), (tol,))[tol]


def evaluate_pair(pred_labels, gt_labels, num_classes: int, trimap_widths, f_tolerances) -> dict:
    """Full metric sweep for one pair at the eval section's widths and tolerances.

    Returns the record `epl eval` writes: per_class_iou, miou, and trimap_iou
    and boundary_f keyed by the width or tolerance as a string, with None
    for NaN.  The trimap bands are chained from the ground truth's
    transition mask, and the boundary planes of both sides are stacked and
    chained through the tolerances, one dilation call each.
    """
    def clean(x: float) -> float | None:
        return None if np.isnan(x) else x

    ious, mean = miou(pred_labels, gt_labels, num_classes)
    p, g = np.asarray(pred_labels), np.asarray(gt_labels)
    trans_g = transition_mask(g)
    bands = _bands(trans_g, trimap_widths)
    classes = np.arange(num_classes)
    stack = np.concatenate((_boundary_planes(p, transition_mask(p), classes),
                            _boundary_planes(g, trans_g, classes)))
    fs = _fmeasures(stack, f_tolerances)
    return {
        "per_class_iou": [clean(float(v)) for v in ious],
        "miou": clean(mean),
        "trimap_iou": {str(w): clean(_trimap(p, g, num_classes, band))
                       for w, band in bands.items()},
        "boundary_f": {str(t): clean(f) for t, f in fs.items()},
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
