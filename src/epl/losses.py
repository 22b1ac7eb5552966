"""Losses in the probability and potential domains.

The point loss regresses predicted potential energies onto the ground truth:
the mean over the elements of each direction, averaged over directions.  The
line loss scores contour agreement: for each (class, direction, integer
level) it activates soft level-set memberships ``exp(-(energy - level)**mu)``
of both energy planes, over the whole plane so that it is differentiable
everywhere, and compares them with a normalized dice-style coefficient (EDC)
that equals 1 exactly when the prediction matches the ground truth.
Cross-entropy and plain dice are probability-domain baselines.  The point
loss builds its gradient in place in its one array, fresh or the caller's
out, and the line loss adds its weighted gradient into a caller's array
(``model.objective`` passes the weighted point gradient) or a fresh one.
All computation is float64 with fixed summation order, so results are
deterministic.

The ground-truth side of the line loss depends on the labels alone:
:func:`line_target` holds the energies of a one-hot field, nonnegative
integers in an unsigned dtype (uint8 for every converter and kernel the
CLI offers), two scalars per (level, direction, class) -- the membership
mass and the EDC calibration C, 0 at a level with no ground-truth pixel --
and one small table per level from which the memberships are gathered.
Training keeps only the level tables of each sample and rebuilds the
energies from the labels in integers at each step.  Both line_target and
the loss work a block of (direction, class) rows at a time, at every level
at once: (levels, rows, H*W) float64 arrays, capped at LINE_BLOCK_BYTES but
holding at least one row.  Both keep the summation order of one plane and
level at a time, so the results are bit-identical to it.  Each block makes
one gather of its ground-truth memberships and one exp call: lanes whose
argument is at or below EXP_ZERO_BELOW, where exp is exactly 0, are set to
0 before it and zeroed after it.  A block's gradient terms, with the rows
of skipped and capped terms zeroed, are added level after level into a
block-sized buffer, which is scaled and added into the gradient rows.  The
loss allocates its four block-sized arrays once per call and line_target
its one, and every block reuses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import _output

#: Classes whose combined prediction + ground-truth mass is below this are
#: left out of the dice mean.
EMPTY_CLASS_EPS = 1e-12

#: Cap on a float64 (levels, rows, H*W) block of the line loss and of
#: line_target.  Planes are processed a few rows of (direction, class) at a
#: time, at least one, at every level at once, so a block's few temporaries
#: stay within a typical 2 MiB L2: 2 rows at 64x64 with radius 3, 1 row (288
#: KiB, over the cap) at 96x96 with radius 4.  README's "Measurements" has
#: the timings of other caps.
LINE_BLOCK_BYTES = 256 * 1024

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


def point_loss(e_gt, e_pred, cfg: LossConfig, want_grad: bool = True,
               out: np.ndarray | None = None) -> LossValue:
    """Direction-averaged L1/L2 regression between two potential-field sets.

    With delta = gt - pred, the value is sum |delta| (or delta**2) divided by
    the direction count |S| and by the element count K * H * W of one
    direction.  Its one array, fresh or out (a C-contiguous float64 array of
    the prediction's shape that does not overlap it), holds delta squared
    (or made absolute) for the value, then delta again, turned into the
    gradient w.r.t. the prediction in place; the gradient is None with
    want_grad False.
    """
    gt = np.asarray(e_gt)  # gt - pred promotes a uint8 ground truth exactly, with no copy
    pred = np.asarray(e_pred, dtype=np.float64)
    if gt.shape != pred.shape:
        raise ValueError(f"energy shapes differ: {gt.shape} vs {pred.shape}")
    if gt.ndim != 4:
        raise ValueError(f"energies must have shape (|S|, classes, height, width), got {gt.shape}")
    if gt.size == 0:
        raise ValueError("energies are empty")
    delta = np.subtract(gt, pred, out=_output(out, pred.shape, np.float64))
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


def _int_pow(x: np.ndarray, n: int, out=(None, None)) -> np.ndarray:
    """x**n for integer n >= 1 by squaring; much faster than np.power here.

    For n == 1 the result is x itself, not a copy.  For odd n, out may hold
    two arrays of x's shape, not x, for the product and the running square
    (the result is then the first); fresh arrays otherwise.
    """
    result = None
    base = x
    while n:
        if n & 1:
            result = base if result is None else np.multiply(result, base, out=out[0])
        n >>= 1
        if n:
            base = np.multiply(base, base, out=out[1])
    return result


@dataclass(frozen=True)
class LineTarget:
    """The ground-truth side of the line loss, fixed by the labels.

    ``energies`` holds the nonnegative integer ground-truth energies
    (|S|, K, H, W) in an unsigned dtype; the rest are the level tables,
    which a training run keeps with ``energies`` None (see model.objective).
    ``luts[t]`` maps an energy k to the membership ``exp(-(k - (t + 1))**mu)``.
    ``mass`` and ``c_norm`` are (radius, |S| * K): the sum of the
    memberships, and the calibration C = mass / sum of their squares at a
    level that has a ground-truth pixel, 0 at the others.  The lookup entry
    of a ground-truth pixel's own level is 1 and every membership is at most
    1, so C >= 1 exactly at the levels the line loss scores.
    """

    energies: np.ndarray
    mu: int
    radius: int
    luts: np.ndarray
    mass: np.ndarray
    c_norm: np.ndarray


def line_target(e_gt, mu: int, radius: int) -> LineTarget:
    """Build the ground-truth side of the line loss once, for reuse at every step.

    e_gt is (|S|, K, H, W) and must hold integers in [0, MAX_ENERGY_SPAN), as
    every converter gives for a one-hot field; the whole range from 0 to its
    largest energy (kernel_size**2 for the box filter) is covered.  Unsigned
    integer energies are kept as given, others are stored in the smallest
    unsigned dtype that holds them.  The level scalars are taken over the
    same row blocks as the loss's, through its one gather of memberships.
    """
    if type(mu) is not int or mu < 2 or mu % 2 != 0:
        raise ValueError(f"mu must be an even integer >= 2, got {mu!r}")
    if type(radius) is not int or radius < 1:
        raise ValueError(f"radius must be an integer >= 1, got {radius!r}")
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
    energies = gt if gt.dtype.kind == "u" else gt.astype(np.min_scalar_type(hi))
    values = np.arange(hi + 1)
    levels = np.arange(1, radius + 1, dtype=np.float64)
    luts = np.exp(-_int_pow(values[None, :] - levels[:, None], mu))
    n_dirs, n_classes, h, w = gt.shape
    codes = energies.reshape(n_dirs * n_classes, h * w)
    present = np.empty((radius, codes.shape[0]), dtype=bool)
    mass = np.empty(present.shape)
    square_sum = np.empty(present.shape)
    step = _block_rows(radius, h * w)
    size = min(step, codes.shape[0]) * h * w
    memberships, spare = np.empty(radius * size), np.empty(size)  # reused by every block
    for r0 in range(0, codes.shape[0], step):
        rows = slice(r0, r0 + step)
        d = memberships[:radius * codes[rows].size].reshape((radius,) + codes[rows].shape)
        _memberships(luts, codes[rows], d, spare)
        present[:, rows] = (d == 1.0).any(axis=2)  # 1.0 only at a pixel's own level
        mass[:, rows] = d.sum(axis=2)
        square_sum[:, rows] = np.square(d, out=d).sum(axis=2)
    c_norm = np.divide(mass, square_sum, out=np.zeros(mass.shape), where=present)
    return LineTarget(energies, mu, radius, luts, mass, c_norm)


def _block_rows(radius: int, plane_size: int) -> int:
    """Rows of (direction, class) planes per block: at least one, else as many as
    keep a float64 (radius, rows, plane_size) array within LINE_BLOCK_BYTES."""
    return max(1, LINE_BLOCK_BYTES // max(1, 8 * radius * plane_size))


def _memberships(luts: np.ndarray, codes: np.ndarray, out: np.ndarray,
                 spare: np.ndarray) -> np.ndarray:
    """The ground-truth memberships (levels, rows, H*W) of a block of code rows, into out.

    Every code must index luts: np.take would copy through a buffer to check
    them, so it clips instead.  The codes' intp copy lives in spare, a
    float64 array of at least as many elements.
    """
    index = spare.reshape(-1).view(np.intp)[:codes.size].reshape(codes.shape)
    np.copyto(index, codes)
    return np.take(luts, index, axis=1, out=out, mode="clip")


def _soft_memberships(p: np.ndarray, taus: np.ndarray, mu: int, work
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(p - tau)**(mu - 1) and the memberships exp(-(p - tau)**mu) of prediction rows.

    p is a block of rows (rows, H*W) and taus the levels as a (levels, 1, 1)
    array, so both results are (levels, rows, H*W), in the first three work
    arrays of that shape.  Lanes whose exp argument is at or below
    EXP_ZERO_BELOW are set to 0 before the one exp call and zeroed after it;
    the two stores run only when there is such a lane.
    """
    dp = np.subtract(p, taus, out=work[0])
    dp_pow = _int_pow(dp, mu - 1, work[1:3])
    arg = np.multiply(dp_pow, dp, out=work[2])
    np.negative(arg, out=arg)
    zero = arg <= EXP_ZERO_BELOW
    underflow = zero.any()
    if underflow:
        arg[zero] = 0.0
    d_hat = np.exp(arg, out=arg)
    if underflow:
        d_hat[zero] = 0.0
    return dp_pow, d_hat


def _score_block(target: LineTarget, rows: slice, taus: np.ndarray, p: np.ndarray,
                 codes: np.ndarray, ok: np.ndarray, acc: np.ndarray | None, work) -> np.ndarray:
    """The EDC (levels, rows) of one block of rows at every level, NaN where not ok.

    p and codes are the block's prediction and code rows (rows, H*W), and
    ok its (level, row) mask of scored terms.  With acc (rows, H*W), the
    gradient terms of the scored terms that are not capped are added into it
    one level after another.  The block's (levels, rows, H*W) arrays are the
    four C-contiguous work arrays, which every block of a call reuses.
    """
    mu = target.mu
    c_norm = target.c_norm[:, rows]
    dp_pow, d_hat = _soft_memberships(p, taus, mu, work)
    spare = work[1] if dp_pow is work[0] else work[0]  # mu == 2 leaves work[1] unused
    d = _memberships(target.luts, codes, work[3], spare)
    inter = np.multiply(d, d_hat, out=spare).sum(axis=2)
    denom = target.mass[:, rows] + d_hat.sum(axis=2)
    value = np.divide(2.0 * c_norm * inter, denom, out=np.full(denom.shape, np.nan), where=ok)
    useful = ok & ~(value >= 1.0)
    if acc is None or not useful.any():
        return value
    coeff = np.divide(2.0 * c_norm, denom * denom, out=np.zeros(denom.shape), where=ok)
    # coeff * (d * denom - inter) * mu * dp_pow * d_hat, in place.  Skipped and
    # capped rows take no gradient: zeroing their dp_pow keeps a +-inf prediction
    # there out of a 0 * inf, and zeroing their terms last drops a NaN one.  acc
    # starts at +0.0 and so is never -0.0: adding the zeroed rows leaves it as is.
    idle = ~useful
    dp_pow[idle] = 0.0
    term = np.multiply(d, denom[..., None], out=d)
    term -= inter[..., None]
    np.multiply(coeff[..., None], term, out=term)
    term *= mu
    term *= dp_pow
    term *= d_hat
    term[idle] = 0.0
    for level_term in term:
        acc += level_term
    return value


def _line_terms(gt, e_pred, mu: int, radius: int, want_grad: bool, weight: float = 1.0,
                add_to: np.ndarray | None = None):
    """EDC per (direction, class, level), which terms count, and their gradient.

    gt is a LineTarget or the raw ground-truth energies.  Returns the EDC
    array (|S|, K, radius) with NaN at skipped levels, the boolean mask of
    scored terms that are not capped (EDC < 1, or NaN from a non-finite
    prediction), and, on request, add_to (or a fresh array) plus weight / |S|
    times the gradient of their sum of (1 - EDC) w.r.t. the prediction.

    Planes are processed in blocks of whole rows (see _block_rows), each
    scored at every level at once (see _score_block): every gradient element
    sums its terms in level order and every row sum is the plane's own
    pairwise sum, as when one plane was scored at a time.  A block's sum is
    scaled by 1/|S| and then by weight before it is added, also when the
    block has no scored term.  A fresh array starts at -0.0, the exact
    additive identity, so it takes the scaled sums with their zero signs.
    """
    target = gt if isinstance(gt, LineTarget) else line_target(gt, mu, radius)
    if type(radius) is not int or (target.mu, target.radius) != (mu, radius):
        raise ValueError(
            f"line target was built for mu={target.mu}, radius={target.radius}; "
            f"got mu={mu}, radius={radius!r}"
        )
    pred = np.asarray(e_pred, dtype=np.float64)
    if pred.shape != target.energies.shape:
        raise ValueError(f"energy shapes differ: {target.energies.shape} vs {pred.shape}")
    n_dirs, n_classes, h, w = pred.shape
    n_rows = n_dirs * n_classes
    p_rows = pred.reshape(n_rows, h * w)
    codes = target.energies.reshape(n_rows, h * w)
    if codes.size and int(codes.max()) >= target.luts.shape[1]:
        raise ValueError(f"ground-truth energies reach {int(codes.max())}, beyond the "
                         f"{target.luts.shape[1]} entries of the target's level tables")
    valid = target.c_norm > 0
    edc = np.full((n_dirs, n_classes, radius), np.nan)
    edc_rows = edc.reshape(n_rows, radius)
    taus = np.arange(1.0, radius + 1.0)[:, None, None]
    step = _block_rows(radius, h * w)
    grad = None
    if want_grad:
        grad = np.full(pred.shape, -0.0) if add_to is None else add_to
        if not (isinstance(grad, np.ndarray) and grad.dtype == np.float64
                and grad.shape == pred.shape and grad.flags.c_contiguous):
            raise ValueError(f"add_to must be a C-contiguous float64 array of shape {pred.shape}")
        g_rows = grad.reshape(n_rows, h * w)
        block = np.empty((min(step, n_rows), h * w))
    work = np.empty((4, radius * min(step, n_rows) * h * w))
    for r0 in range(0, n_rows, step):
        rows = slice(r0, r0 + step)
        ok = valid[:, rows]
        acc = None
        if want_grad:
            acc = block[:ok.shape[1]]
            acc.fill(0.0)
        if ok.any():
            size = ok.size * h * w
            views = [buf[:size].reshape(radius, ok.shape[1], h * w) for buf in work]
            edc_rows[rows] = _score_block(target, rows, taus, p_rows[rows], codes[rows],
                                          ok, acc, views).T
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

    labels is a nonempty integer (H, W) map with labels in [0, K).
    Probabilities are clamped to PROB_CLAMP before the log; in the clamped
    region the gradient is zero (the clamp is flat there).  With want_grad
    False the gradient is not built and is None.
    """
    p = np.asarray(pred, dtype=np.float64)
    lab = np.asarray(labels)
    if p.ndim != 3 or lab.shape != p.shape[1:]:
        raise ValueError(f"prediction {p.shape} does not match label map {lab.shape}")
    if lab.dtype.kind not in "iu":
        raise ValueError(f"label map must be integer, got dtype {lab.dtype}")
    if lab.size == 0:
        raise ValueError("label map is empty")
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

