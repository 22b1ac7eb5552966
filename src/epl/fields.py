"""Probability fields, splitters, and the probability-to-potential conversion.

A probability field holds one plane per class.  The anisotropic conversion
turns it into one potential-energy plane per (direction, class) pair: the
energy at a pixel is the sum of the field at that pixel plus the next
``radius`` pixels along the direction, with zeros contributed outside the
image.  Equivalently, it is an unnormalized odd box kernel masked down to a
directed ray through the center.  For a binary input plane the energies are
integers in [0, radius + 1]; the level sets of the intermediate values
1..radius are the equipotential lines hugging the class contour.

Kernel and mask weights are fixed constants; nothing here is trained.  All
operations are pure functions and accumulate in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Offsets are (dy, dx) with the row axis pointing down.
AXIS_DIRECTIONS = ((-1, 0), (1, 0), (0, -1), (0, 1))  # up, down, left, right
DIAGONAL_DIRECTIONS = ((-1, -1), (-1, 1), (1, -1), (1, 1))

SPLITTER_KINDS = ("A", "B", "C")


@dataclass(frozen=True)
class Splitter:
    """Ordered set of unit direction offsets selecting the kernel rays."""

    kind: str
    directions: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.directions)


def make_splitter(kind: str) -> Splitter:
    """Splitter A (up, down, left, right), B (the four diagonals), or C (all eight)."""
    if kind == "A":
        return Splitter("A", AXIS_DIRECTIONS)
    if kind == "B":
        return Splitter("B", DIAGONAL_DIRECTIONS)
    if kind == "C":
        return Splitter("C", AXIS_DIRECTIONS + DIAGONAL_DIRECTIONS)
    raise ValueError(f"unknown splitter kind {kind!r}, expected one of {SPLITTER_KINDS}")


@dataclass(frozen=True)
class ACConfig:
    """Anisotropic-convolution settings: an odd box size and a splitter."""

    kernel_size: int
    splitter: Splitter

    def __post_init__(self) -> None:
        w = self.kernel_size
        if not isinstance(w, int) or w < 3 or w % 2 == 0:
            raise ValueError(f"kernel_size must be an odd integer >= 3, got {w!r}")

    @property
    def radius(self) -> int:
        return self.kernel_size // 2


def one_hot(labels, num_classes: int) -> np.ndarray:
    """One-hot encode an integer label map into a (K, H, W) field of {0, 1}."""
    lab = np.asarray(labels)
    if lab.ndim != 2:
        raise ValueError(f"label map must be 2-D, got shape {lab.shape}")
    if not np.issubdtype(lab.dtype, np.integer):
        raise ValueError(f"label map must be integer, got dtype {lab.dtype}")
    if lab.size == 0:
        raise ValueError("label map is empty")
    lo, hi = int(lab.min()), int(lab.max())
    if lo < 0 or hi >= num_classes:
        raise ValueError(f"labels must lie in [0, {num_classes}), found range [{lo}, {hi}]")
    out = np.zeros((num_classes, lab.size), dtype=np.float64)
    out[lab.ravel(), np.arange(lab.size)] = 1.0
    return out.reshape((num_classes,) + lab.shape)


def shift2d(planes: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Shifted view with zero fill: out[..., y, x] = planes[..., y + dy, x + dx]."""
    h, w = planes.shape[-2:]
    out = np.zeros_like(planes)
    y0, y1 = max(0, -dy), min(h, h - dy)
    x0, x1 = max(0, -dx), min(w, w - dx)
    if y0 < y1 and x0 < x1:
        out[..., y0:y1, x0:x1] = planes[..., y0 + dy:y1 + dy, x0 + dx:x1 + dx]
    return out


def _as_field(field) -> np.ndarray:
    f = np.asarray(field, dtype=np.float64)
    if f.ndim != 3:
        raise ValueError(f"field must have shape (classes, height, width), got {f.shape}")
    return f


def check_probability_field(field, normalized: bool = False, tol: float = 1e-6) -> np.ndarray:
    """Validate a (K, H, W) field: finite, in [0, 1], optionally per-pixel sum 1."""
    f = _as_field(field)
    if not np.isfinite(f).all():
        raise ValueError("probability field contains non-finite values")
    if f.min() < -tol or f.max() > 1.0 + tol:
        raise ValueError("probability field values must lie in [0, 1]")
    if normalized:
        sums = f.sum(axis=0)
        if np.abs(sums - 1.0).max() > tol:
            raise ValueError("per-pixel class probabilities must sum to 1")
    return f


def anisotropic_convolve(field, cfg: ACConfig) -> np.ndarray:
    """Convert a (K, H, W) field into (|S|, K, H, W) potential energies.

    For direction s and class c the energy plane is
    ``E[s, c, p] = sum_{t=0..radius} field[c, p + t*s]`` with zero padding,
    i.e. the box kernel restricted to the ray from the center along s.
    The map is linear in the field, so it accepts any real-valued input.
    """
    f = _as_field(field)
    r = cfg.radius
    dirs = cfg.splitter.directions
    out = np.empty((len(dirs),) + f.shape, dtype=np.float64)
    for si, (dy, dx) in enumerate(dirs):
        acc = f.copy()
        for t in range(1, r + 1):
            acc += shift2d(f, t * dy, t * dx)
        out[si] = acc
    return out


def ac_adjoint(energy_grad, cfg: ACConfig) -> np.ndarray:
    """Adjoint of anisotropic_convolve: reversed-ray sums back onto the field.

    Satisfies <anisotropic_convolve(x), g> == <x, ac_adjoint(g)> exactly, which
    is what chains potential-domain loss gradients back to the class planes.
    """
    g = np.asarray(energy_grad, dtype=np.float64)
    dirs = cfg.splitter.directions
    if g.ndim != 4 or g.shape[0] != len(dirs):
        raise ValueError(
            f"energy gradient must have shape (|S|={len(dirs)}, classes, height, width), got {g.shape}"
        )
    out = np.zeros(g.shape[1:], dtype=np.float64)
    for si, (dy, dx) in enumerate(dirs):
        for t in range(cfg.radius + 1):
            out += shift2d(g[si], -t * dy, -t * dx)
    return out


def standard_convolve(field, kernel_size: int) -> np.ndarray:
    """Per-class unnormalized box sum with zero padding (the isotropic ablation).

    No directional mask: every pixel of the odd kernel_size x kernel_size
    window contributes.  Output has the same (K, H, W) shape as the input.
    """
    if kernel_size < 1 or kernel_size % 2 == 0:
        raise ValueError(f"kernel_size must be odd, got {kernel_size}")
    f = _as_field(field)
    r = kernel_size // 2
    rows = f.copy()
    for t in range(1, r + 1):
        rows += shift2d(f, t, 0)
        rows += shift2d(f, -t, 0)
    out = rows.copy()
    for t in range(1, r + 1):
        out += shift2d(rows, 0, t)
        out += shift2d(rows, 0, -t)
    return out


def potential_oracle(field, cfg: ACConfig) -> np.ndarray:
    """Reference conversion by per-pixel ray walking.

    Slow (pure Python loops, intended for fields up to a few thousand
    pixels) but independent of the vectorized path: it must agree with
    anisotropic_convolve bit-exactly on binary inputs and to 1e-9 on reals.
    """
    f = _as_field(field)
    k, h, w = f.shape
    r = cfg.radius
    dirs = cfg.splitter.directions
    out = np.zeros((len(dirs), k, h, w), dtype=np.float64)
    for si, (dy, dx) in enumerate(dirs):
        for c in range(k):
            plane = f[c]
            dest = out[si, c]
            for y in range(h):
                for x in range(w):
                    acc = 0.0
                    for t in range(r + 1):
                        yy = y + t * dy
                        xx = x + t * dx
                        if yy < 0 or yy >= h or xx < 0 or xx >= w:
                            break  # the ray is monotone, it never re-enters
                        acc += plane[yy, xx]
                    dest[y, x] = acc
    return out
