"""Losses in the probability and potential domains.

The point loss regresses predicted potential energies onto the ground truth:
the mean over the elements of each direction, averaged over directions.  The
line loss scores contour agreement: for each (class, direction, integer
level) it activates soft level-set memberships ``exp(-(energy - level)**mu)``
of both energy planes and compares them with a normalized dice-style
coefficient (EDC) that equals 1 exactly when the prediction matches the
ground truth.  Cross-entropy and plain dice are probability-domain
baselines.  The point loss builds its gradient in place in its one fresh
array, and the line loss adds its weighted gradient into a caller's array
(``model.objective`` passes the weighted point gradient) or a fresh one.

The membership activation is evaluated over the whole plane, which keeps the
line loss differentiable everywhere; the sorted equal-count line regions are
still available via :func:`build_line_regions` for diagnostics and
visualization.  All computation is float64 with fixed summation order, so
results are deterministic.

The ground-truth side of the line loss depends on the labels alone, so
:func:`line_target` builds it once per sample and training reuses it at
every step.  The energies of a one-hot field are nonnegative integers, and
it keeps them in the smallest unsigned dtype (uint8 for every converter and
kernel the CLI offers), three scalars per (level, direction, class) --
whether the level has a ground-truth pixel, the membership mass and its
squared mass -- and one small table per level from which the memberships
are gathered.  At 64x64 with 3 classes, splitter A and kernel 7 that is
48 KiB per sample; no float64 plane is cached.  The prediction side is
evaluated a block of (direction, class) planes at a time for each level,
with each float64 temporary capped at LINE_BLOCK_BYTES so a block stays in
L2.  Both paths keep the summation order of one plane at a time, so the
results are bit-identical to it.  Each block and level makes one exp call:
lanes whose argument is at or below EXP_ZERO_BELOW, where exp is exactly 0,
are set to 0 before it and zeroed after it.  A block's gradient terms, with
the rows of skipped and capped terms zeroed, are summed over the levels in a
block-sized buffer, which is scaled and added into the gradient rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Division safeguard for degenerate membership masses (levels with an
#: empty ground-truth line are already skipped before this can trigger).
EMPTY_LEVEL_EPS = 1e-12

#: Classes whose combined prediction + ground-truth mass is below this are
#: left out of the dice mean.
EMPTY_CLASS_EPS = 1e-12

#: Cap on the size of each float64 temporary of the line loss.  Planes are
#: processed a few rows of (direction, class) at a time, so a step's working
#: set stays within a typical 2 MiB L2: 4 planes at 64x64, 1 at 96x96.
#: Broadcasting over every plane at once was slower at 96x96.
LINE_BLOCK_BYTES = 128 * 1024

#: np.exp underflows to exactly 0.0 at or below this (the threshold is
#: log(2**-1075) = -745.13...).  Lanes that underflow take numpy's slow
#: scalar path, so the line loss sets their argument to 0 before its one
#: exp call and writes their zero after it.
EXP_ZERO_BELOW = -746.0

#: Ground-truth energies lie in [0, MAX_ENERGY_SPAN): the per-level
#: membership tables of :class:`LineTarget` have one entry per integer.
MAX_ENERGY_SPAN = 1 << 16

#: Probabilities are clamped to at least this before the log in cross-entropy.
PROB_CLAMP = 1e-12

NORMS = ("l1", "l2")


@dataclass(frozen=True)
class LossConfig:
    """Knobs shared by the potential-domain losses.

    mu_exp is the even exponent of the line-loss activation (odd exponents
    would break its symmetry around the level and are rejected).  lambda1
    and lambda2 weight the point and line terms in the training objective;
    each is an int or a float (not a bool), stored as a float.
    """

    norm: str = "l2"
    mu_exp: int = 10
    lambda1: float = 0.1
    lambda2: float = 0.01

    def __post_init__(self) -> None:
        if self.norm not in NORMS:
            raise ValueError(f"norm must be one of {NORMS}, got {self.norm!r}")
        if type(self.mu_exp) is not int or self.mu_exp < 2 or self.mu_exp % 2 != 0:
            raise ValueError(f"mu_exp must be an even integer >= 2, got {self.mu_exp!r}")
        for name in ("lambda1", "lambda2"):
            weight = getattr(self, name)
            if type(weight) not in (int, float):
                raise ValueError(f"{name} must be a number, got {weight!r}")
            if not (weight >= 0 and math.isfinite(weight)):
                raise ValueError(f"{name} must be finite and >= 0, got {weight!r}")
            object.__setattr__(self, name, float(weight))


@dataclass
class LossValue:
    """A scalar loss and its gradient w.r.t. the predicted input (None if not asked for)."""

    value: float
    gradient: np.ndarray | None


def point_loss(e_gt, e_pred, cfg: LossConfig, want_grad: bool = True) -> LossValue:
    """Direction-averaged L1/L2 regression between two potential-field sets.

    With delta = gt - pred, the value is sum |delta| (or delta**2) divided by
    the direction count |S| and by the element count K * H * W of one
    direction.  Its one fresh array holds delta squared (or made absolute)
    for the value, then delta again, turned into the gradient w.r.t. the
    prediction in place; the gradient is None with want_grad False.
    """
    gt = np.asarray(e_gt)  # gt - pred promotes a uint8 ground truth exactly, with no copy
    pred = np.asarray(e_pred, dtype=np.float64)
    if gt.shape != pred.shape:
        raise ValueError(f"energy shapes differ: {gt.shape} vs {pred.shape}")
    if gt.ndim != 4:
        raise ValueError(f"energies must have shape (|S|, classes, height, width), got {gt.shape}")
    delta = gt - pred
    scale = 1.0 / gt.shape[0] / delta[0].size
    l1 = cfg.norm == "l1"
    value = float((np.abs if l1 else np.square)(delta, out=delta).sum() * scale)
    if not want_grad:
        return LossValue(value, None)
    np.subtract(gt, pred, out=delta)
    if l1:  # -sign(delta) * scale
        np.multiply(np.negative(np.sign(delta, out=delta), out=delta), scale, out=delta)
    else:  # -2 * scale * delta
        np.multiply(delta, -2.0 * scale, out=delta)
    return LossValue(value, delta)


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


def _int_pow(x: np.ndarray, n: int) -> np.ndarray:
    """x**n for integer n >= 1 by squaring; much faster than np.power here.

    For n == 1 the result is x itself, not a copy.
    """
    result = None
    base = x
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return result


@dataclass(frozen=True)
class LineTarget:
    """The ground-truth side of the line loss, fixed by the labels.

    ``energies`` holds the nonnegative integer ground-truth energies
    (|S|, K, H, W) in the smallest unsigned dtype that fits them.
    ``luts[t]`` maps an energy k to the membership ``exp(-(k - (t + 1))**mu)``.
    ``present``, ``mass`` and ``sq_mass`` are (radius, |S| * K): whether the
    level has a ground-truth pixel, and the sums of the memberships and of
    their squares.
    """

    energies: np.ndarray
    mu: int
    radius: int
    luts: np.ndarray
    present: np.ndarray
    mass: np.ndarray
    sq_mass: np.ndarray


def line_target(e_gt, mu: int, radius: int) -> LineTarget:
    """Build the ground-truth side of the line loss once, for reuse at every step.

    e_gt is (|S|, K, H, W) and must hold integers in [0, MAX_ENERGY_SPAN), as
    every converter gives for a one-hot field; the whole range from 0 to its
    largest energy (kernel_size**2 for the box filter) is covered.
    """
    if type(mu) is not int or mu < 2 or mu % 2 != 0:
        raise ValueError(f"mu must be an even integer >= 2, got {mu!r}")
    gt = np.asarray(e_gt)
    if gt.ndim != 4:
        raise ValueError(f"energies must have shape (|S|, classes, height, width), got {gt.shape}")
    if not np.issubdtype(gt.dtype, np.integer):
        as_float = gt.astype(np.float64, copy=False)
        if not (np.isfinite(as_float).all() and np.array_equal(np.rint(as_float), as_float)):
            raise ValueError("ground-truth energies must be integer-valued")
    lo, hi = (int(gt.min()), int(gt.max())) if gt.size else (0, 0)
    if lo < 0 or hi >= MAX_ENERGY_SPAN:
        raise ValueError(
            f"ground-truth energies must lie in [0, {MAX_ENERGY_SPAN - 1}], got [{lo}, {hi}]"
        )
    energies = gt.astype(np.min_scalar_type(hi))
    values = np.arange(hi + 1)
    levels = np.arange(1, radius + 1, dtype=np.float64)
    luts = np.exp(-_int_pow(values[None, :] - levels[:, None], mu))
    n_dirs, n_classes, h, w = gt.shape
    codes = energies.reshape(n_dirs * n_classes, h * w)
    present = np.empty((radius, codes.shape[0]), dtype=bool)
    mass = np.empty(present.shape)
    sq_mass = np.empty(present.shape)
    for t in range(radius):
        d = np.take(luts[t], codes)
        present[t] = (codes == t + 1).any(axis=1)
        mass[t] = d.sum(axis=1)
        sq_mass[t] = np.square(d, out=d).sum(axis=1)
    return LineTarget(energies, mu, radius, luts, present, mass, sq_mass)


def _line_terms(gt, e_pred, mu: int, radius: int, want_grad: bool, weight: float = 1.0,
                add_to: np.ndarray | None = None):
    """EDC per (direction, class, level), which terms count, and their gradient.

    gt is a LineTarget or the raw ground-truth energies.  Returns the EDC
    array (|S|, K, radius) with NaN at skipped levels, the boolean mask of
    scored terms that are not capped (EDC < 1, or NaN from a non-finite
    prediction), and, on request, add_to (or a fresh array) plus weight / |S|
    times the gradient of their sum of (1 - EDC) w.r.t. the prediction.

    Planes are processed in blocks of whole rows, so that each float64
    temporary stays within LINE_BLOCK_BYTES, and each block goes through
    the levels in order: every gradient element sums its terms in level
    order and every row sum is the plane's own pairwise sum, as when one
    plane was scored at a time.  A block's sum is scaled by 1/|S| and then
    by weight before it is added.  A fresh array starts at -0.0, the exact
    additive identity, so it takes the scaled sums with their zero signs.
    """
    target = gt if isinstance(gt, LineTarget) else line_target(gt, mu, radius)
    if (target.mu, target.radius) != (mu, radius):
        raise ValueError(
            f"line target was built for mu={target.mu}, radius={target.radius}; "
            f"got mu={mu}, radius={radius}"
        )
    pred = np.asarray(e_pred, dtype=np.float64)
    if pred.shape != target.energies.shape:
        raise ValueError(f"energy shapes differ: {target.energies.shape} vs {pred.shape}")
    n_dirs, n_classes, h, w = pred.shape
    n_rows = n_dirs * n_classes
    p_rows = pred.reshape(n_rows, h * w)
    codes = target.energies.reshape(n_rows, h * w)
    valid = target.present & (target.mass >= EMPTY_LEVEL_EPS)
    c_norm = np.divide(target.mass, target.sq_mass, out=np.zeros(valid.shape), where=valid)
    edc = np.full((n_dirs, n_classes, radius), np.nan)
    edc_rows = edc.reshape(n_rows, radius)
    step = max(1, LINE_BLOCK_BYTES // max(1, 8 * h * w))
    grad = None
    if want_grad:
        grad = np.full(pred.shape, -0.0) if add_to is None else add_to
        if not (isinstance(grad, np.ndarray) and grad.dtype == np.float64
                and grad.shape == pred.shape and grad.flags.c_contiguous):
            raise ValueError(f"add_to must be a C-contiguous float64 array of shape {pred.shape}")
        g_rows = grad.reshape(n_rows, h * w)
        block = np.empty((min(step, n_rows), h * w))
    for r0 in range(0, n_rows, step):
        rows = slice(r0, r0 + step)
        p = p_rows[rows]
        if want_grad:
            acc = block[:p.shape[0]]
            acc.fill(0.0)
        for t in range(radius):
            ok = valid[t, rows]
            if not ok.any():
                continue
            tau = t + 1
            dp = p - tau
            dp_pow = _int_pow(dp, mu - 1)
            arg = dp_pow * dp
            np.negative(arg, out=arg)
            zero = arg <= EXP_ZERO_BELOW
            arg[zero] = 0.0
            d_hat = np.exp(arg, out=arg)
            d_hat[zero] = 0.0
            d = np.take(target.luts[t], codes[rows])
            inter = (d * d_hat).sum(axis=1)
            mass = target.mass[t, rows]
            denom = mass + d_hat.sum(axis=1)
            value = np.divide(2.0 * c_norm[t, rows] * inter, denom,
                              out=np.full(denom.shape, np.nan), where=ok)
            edc_rows[rows, t] = value
            useful = ok & ~(value >= 1.0)
            if not want_grad or not useful.any():
                continue
            coeff = np.divide(2.0 * c_norm[t, rows], denom * denom,
                              out=np.zeros(denom.shape), where=ok)
            # coeff * (d * denom - inter) * mu * dp_pow * d_hat, in place.  Skipped and
            # capped rows take no gradient: zeroing their dp_pow keeps a +-inf prediction
            # there out of a 0 * inf, and zeroing their terms last drops a NaN one.  acc
            # starts at +0.0 and so is never -0.0: adding the zeroed rows leaves it as is.
            idle = ~useful
            dp_pow[idle] = 0.0
            term = np.multiply(d, denom[:, None], out=d)
            term -= inter[:, None]
            np.multiply(coeff[:, None], term, out=term)
            term *= mu
            term *= dp_pow
            term *= d_hat
            term[idle] = 0.0
            acc += term
        if want_grad:
            acc *= 1.0 / n_dirs
            acc *= weight
            g_rows[rows] += acc
    counted = valid.T.reshape(edc.shape) & ~(edc >= 1.0)
    return edc, counted, grad


def equipotential_line_loss(gt, e_pred, cfg: LossConfig, radius: int, want_grad: bool = True,
                            *, weight: float = 1.0, add_to: np.ndarray | None = None
                            ) -> LossValue:
    """Accumulated (1 - EDC) over classes, directions, and levels 1..radius.

    Per term: d = exp(-(gt - level)**mu) and d_hat likewise on the
    prediction, both over the whole plane; EDC = 2 * C * sum(d * d_hat) /
    (sum d + sum d_hat) with C = sum(d) / sum(d * d), which calibrates a
    perfect match to score exactly 1.  EDC is capped at 1 (a sharper-than-
    ground-truth line is not a mismatch), so every term is nonnegative and
    capped terms contribute no gradient.  The accumulated total is divided
    by the direction count.  Levels whose ground-truth line is empty (no
    pixel at exactly that energy) are skipped.  gt is the ground-truth
    energy array or the LineTarget built from it by :func:`line_target`.

    The gradient is add_to (a C-contiguous float64 array of the prediction's
    shape) or a fresh array, plus weight times the value's gradient, added
    in place.  With want_grad False add_to is untouched and it is None.
    """
    edc, counted, grad = _line_terms(gt, e_pred, cfg.mu_exp, radius, want_grad, weight, add_to)
    total = 0.0
    for term in (1.0 - edc[counted]).tolist():  # (direction, class, level) order
        total += term
    return LossValue(total * (1.0 / edc.shape[0]), grad)


def equipotential_dice(gt, e_pred, cfg: LossConfig, radius: int) -> np.ndarray:
    """Per-(direction, class, level) EDC values in [0, 1]; NaN marks skipped levels.

    gt is the ground-truth energy array or a LineTarget, as for the line loss.
    """
    edc, _, _ = _line_terms(gt, e_pred, cfg.mu_exp, radius, want_grad=False)
    return np.minimum(edc, 1.0)


def cross_entropy_loss(pred, labels, want_grad: bool = True) -> LossValue:
    """Mean per-pixel negative log probability of the true class.

    Probabilities are clamped to PROB_CLAMP before the log; in the clamped
    region the gradient is zero (the clamp is flat there).  With want_grad
    False the gradient is not built and is None.
    """
    p = np.asarray(pred, dtype=np.float64)
    lab = np.asarray(labels)
    if p.ndim != 3 or lab.shape != p.shape[1:]:
        raise ValueError(f"prediction {p.shape} does not match label map {lab.shape}")
    k = p.shape[0]
    if lab.min() < 0 or lab.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    flat = p.reshape(k, -1)
    cols = np.arange(lab.size)
    picked = flat[lab.ravel(), cols]
    clamped = np.maximum(picked, PROB_CLAMP)
    n = lab.size
    value = float(-np.log(clamped).sum() / n)
    if not want_grad:
        return LossValue(value, None)
    grad_flat = np.zeros_like(flat)
    grad_flat[lab.ravel(), cols] = np.where(picked > PROB_CLAMP, -1.0 / (n * clamped), 0.0)
    return LossValue(value, grad_flat.reshape(p.shape))


def dice_loss(pred, gt) -> LossValue:
    """One minus the class-mean soft dice coefficient; empty classes are skipped."""
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.shape != g.shape or p.ndim != 3:
        raise ValueError(f"field shapes differ: {p.shape} vs {g.shape}")
    grad = np.zeros_like(p)
    coeff_sum = 0.0
    used = 0
    for c in range(p.shape[0]):
        den = p[c].sum() + g[c].sum()
        if den < EMPTY_CLASS_EPS:
            continue
        num = 2.0 * (p[c] * g[c]).sum()
        coeff_sum += num / den
        grad[c] = -(2.0 * g[c] * den - num) / (den * den)
        used += 1
    if used == 0:
        return LossValue(0.0, grad)
    return LossValue(1.0 - coeff_sum / used, grad / used)

