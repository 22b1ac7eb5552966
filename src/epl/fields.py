"""Probability fields, splitters, and the probability-to-potential conversion.

A probability field holds one plane per class.  The anisotropic conversion
turns it into one potential-energy plane per (direction, class) pair: the
energy at a pixel is the sum of the field at that pixel plus the next
``radius`` pixels along the direction, with zeros contributed outside the
image.  Equivalently, it is an unnormalized odd box kernel masked down to a
directed ray through the center.  For a binary input plane the energies are
integers in [0, radius + 1]; the level sets of the intermediate values
1..radius are the equipotential lines hugging the class contour.

A splitter kind names the directions: A the four axes, B the four
diagonals, C all eight (SPLITTERS).  ACConfig holds the kind, as its config
section does, and ACConfig.directions looks it up.

Kernel and mask weights are fixed constants; nothing here is trained.  All
operations are pure functions (the conversions write an out array only when
given one) and accumulate in float64, except that the conversions keep an
unsigned-integer field's dtype and sum it in integers: a one-hot field in
the dtype of its largest energy (ACConfig.max_energy) gives the exact
energies with no float64 array.

The conversions and the adjoint shift by flat offsets: the planes are
copied into a buffer with a zero border as wide as the reach and
flattened, all planes into one run, so a shift by (dy, dx) is one
contiguous 1-D add at offset dy * row_length + dx, and the interior is
cropped at the end.  Each pixel's terms are added in the same order as
in-range slice adds would; the border contributes exact +0.0 terms, which
change a sum only by turning an all -0.0 sum into +0.0 (never the case for
softmax outputs or one-hot fields).  The adjoint pads one direction's
planes at a time, not all |S| at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Offsets are (dy, dx) with the row axis pointing down.
AXIS_DIRECTIONS = ((-1, 0), (1, 0), (0, -1), (0, 1))  # up, down, left, right
DIAGONAL_DIRECTIONS = ((-1, -1), (-1, 1), (1, -1), (1, 1))

#: Splitter kind -> its ordered ray directions.
SPLITTERS = {"A": AXIS_DIRECTIONS, "B": DIAGONAL_DIRECTIONS,
             "C": AXIS_DIRECTIONS + DIAGONAL_DIRECTIONS}


@dataclass(frozen=True)
class ACConfig:
    """Conversion settings: an odd box size, a splitter kind and the converter.

    converter "ac" keeps the splitter's rays of the box (anisotropic_convolve);
    "sc" is the ablation that drops the ray mask and sums the whole box
    (standard_convolve), so it has one energy plane per class.
    """

    kernel_size: int = 7
    splitter: str = "A"
    converter: str = "ac"

    def __post_init__(self) -> None:
        w = self.kernel_size
        if type(w) is not int or w < 3 or w % 2 == 0:
            raise ValueError(f"kernel_size must be an odd integer >= 3, got {w!r}")
        if not isinstance(self.splitter, str) or self.splitter not in SPLITTERS:
            raise ValueError(
                f"unknown splitter kind {self.splitter!r}, expected one of {tuple(SPLITTERS)}"
            )
        if self.converter not in ("ac", "sc"):
            raise ValueError(f"converter must be 'ac' or 'sc', got {self.converter!r}")

    @property
    def radius(self) -> int:
        return self.kernel_size // 2

    @property
    def directions(self) -> tuple[tuple[int, int], ...]:
        return SPLITTERS[self.splitter]

    @property
    def max_energy(self) -> int:
        """A binary plane's largest energy: a whole ray, or the whole box for "sc"."""
        return self.radius + 1 if self.converter == "ac" else self.kernel_size ** 2


def one_hot(labels, num_classes: int, dtype=np.float64) -> np.ndarray:
    """One-hot encode an integer label map into a (K, H, W) field of {0, 1} in dtype."""
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
    out = np.empty((num_classes,) + lab.shape, dtype=dtype)
    return np.equal(lab, np.arange(num_classes)[:, None, None], out=out)


def _add_at_offset(acc: np.ndarray, src: np.ndarray, offset: int) -> None:
    """acc[..., i] += src[..., i + offset] in place, wherever both indices exist.

    Both arrays hold flattened planes along their last axis (the conversions
    and the adjoint put all planes in one run), so a 2-D shift (dy, dx) of a
    plane with row length wp is the flat offset dy * wp + dx.  With a zero
    border at least as wide as the shift, the source of every interior pixel
    stays in its own row and plane, and the border adds zeros.
    """
    n = acc.shape[-1]
    lo, hi = max(0, -offset), min(n, n - offset)
    if lo < hi:
        acc[..., lo:hi] += src[..., lo + offset:hi + offset]


def _zero_bordered(f: np.ndarray, r: int) -> np.ndarray:
    """(K, H, W) planes copied into the interior of a zeroed (K, H+2r, W+2r) buffer."""
    k, h, w = f.shape
    pad = np.zeros((k, h + 2 * r, w + 2 * r), dtype=f.dtype)
    pad[:, r:r + h, r:r + w] = f
    return pad


def _output(out, shape: tuple, dtype) -> np.ndarray:
    """out, which must be a C-contiguous array of this shape and dtype, or a fresh one."""
    if out is None:
        return np.empty(shape, dtype=dtype)
    if not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == dtype
            and out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous {np.dtype(dtype)} array of shape {shape}")
    return out


def _as_field(field) -> np.ndarray:
    """field as an array: an unsigned-integer one as it is, any other in float64."""
    f = np.asarray(field)
    if f.dtype.kind != "u":
        f = f.astype(np.float64, copy=False)
    if f.ndim != 3:
        raise ValueError(f"field must have shape (classes, height, width), got {f.shape}")
    return f


def anisotropic_convolve(field, cfg: ACConfig, out: np.ndarray | None = None) -> np.ndarray:
    """Convert a (K, H, W) field into (|S|, K, H, W) potential energies.

    For direction s and class c the energy plane is
    ``E[s, c, p] = sum_{t=0..radius} field[c, p + t*s]`` with zero padding,
    i.e. the box kernel restricted to the ray from the center along s.
    The map is linear in the field, so it accepts any real-valued input.
    An unsigned-integer field keeps its dtype, which must hold every sum
    (radius + 1 times its largest value); a sum beyond it wraps.  The
    energies are a fresh array, or are written into out (a C-contiguous
    array of their shape and dtype) and returned in it.
    """
    f = _as_field(field)
    k, h, w = f.shape
    r = cfg.radius
    dirs = cfg.directions
    pad = _zero_bordered(f, r)
    wp = pad.shape[-1]
    flat = pad.reshape(-1)
    acc = np.empty_like(flat)
    out = _output(out, (len(dirs),) + f.shape, f.dtype)
    for si, (dy, dx) in enumerate(dirs):
        acc[...] = flat
        for t in range(1, r + 1):
            _add_at_offset(acc, flat, t * (dy * wp + dx))
        out[si] = acc.reshape(pad.shape)[:, r:r + h, r:r + w]
    return out


def ac_adjoint(energy_grad, cfg: ACConfig) -> np.ndarray:
    """Adjoint of anisotropic_convolve: reversed-ray sums back onto the field.

    Satisfies <anisotropic_convolve(x), g> == <x, ac_adjoint(g)> exactly, which
    is what chains potential-domain loss gradients back to the class planes.
    """
    g = np.asarray(energy_grad, dtype=np.float64)
    dirs = cfg.directions
    if g.ndim != 4 or g.shape[0] != len(dirs):
        raise ValueError(
            f"energy gradient must have shape (|S|={len(dirs)}, classes, height, width), got {g.shape}"
        )
    k, h, w = g.shape[1:]
    r = cfg.radius
    # One direction's planes at a time: padding all |S| at once costs memory and time.
    pad = np.zeros((k, h + 2 * r, w + 2 * r))
    wp = pad.shape[-1]
    flat = pad.reshape(-1)
    acc = np.zeros_like(flat)
    for si, (dy, dx) in enumerate(dirs):
        pad[:, r:r + h, r:r + w] = g[si]
        for t in range(r + 1):
            _add_at_offset(acc, flat, -t * (dy * wp + dx))
    return acc.reshape(pad.shape)[:, r:r + h, r:r + w].copy()


def standard_convolve(field, kernel_size: int, out: np.ndarray | None = None) -> np.ndarray:
    """Per-class unnormalized box sum with zero padding (the isotropic ablation).

    No directional mask: every pixel of the odd kernel_size x kernel_size
    window contributes.  Output has the same (K, H, W) shape as the input,
    and an unsigned-integer field keeps its dtype as in anisotropic_convolve
    (every sum, up to kernel_size**2 times its largest value, must fit).
    The sums are a fresh array, or are written into out as for
    anisotropic_convolve.
    """
    if kernel_size < 1 or kernel_size % 2 == 0:
        raise ValueError(f"kernel_size must be odd, got {kernel_size}")
    f = _as_field(field)
    k, h, w = f.shape
    r = kernel_size // 2
    pad = _zero_bordered(f, r)
    wp = pad.shape[-1]
    flat = pad.reshape(-1)
    # Column sums first; their border columns stay +0.0 for the row pass, and
    # no interior pixel of the row pass reads their (nonzero) border rows.
    rows = flat.copy()
    for t in range(1, r + 1):
        _add_at_offset(rows, flat, t * wp)
        _add_at_offset(rows, flat, -t * wp)
    sums = rows.copy()
    for t in range(1, r + 1):
        _add_at_offset(sums, rows, t)
        _add_at_offset(sums, rows, -t)
    out = _output(out, f.shape, f.dtype)
    out[...] = sums.reshape(pad.shape)[:, r:r + h, r:r + w]
    return out

