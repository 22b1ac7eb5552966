"""Per-pixel ray walking: the plain reference for the library's anisotropic conversion.

fields.anisotropic_convolve adds whole shifted planes at once; the tests
check it against this loop, which must agree bit-exactly on binary inputs
and to 1e-9 on reals.
"""

import numpy as np


def potential_oracle(field, cfg) -> np.ndarray:
    """(|S|, K, H, W) energies of a (K, H, W) field under an ACConfig, one pixel at a time.

    Slow (pure Python loops, intended for fields up to a few thousand
    pixels) but independent of the vectorized path.
    """
    f = np.asarray(field, dtype=np.float64)
    if f.ndim != 3:
        raise ValueError(f"field must have shape (classes, height, width), got {f.shape}")
    k, h, w = f.shape
    r = cfg.radius
    dirs = cfg.directions
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
