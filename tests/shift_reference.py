"""Zero-filled shifted copies: the plain reference for the library's in-place shifted adds.

The library adds shifted slices in place (fields._add_at_offset and the
conv workspace of model.TinyNet); the tests check those paths against sums
of these copies.
"""

import numpy as np


def shift2d(planes: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Shifted copy with zero fill: out[..., y, x] = planes[..., y + dy, x + dx]."""
    h, w = planes.shape[-2:]
    out = np.zeros_like(planes)
    y0, y1 = max(0, -dy), min(h, h - dy)
    x0, x1 = max(0, -dx), min(w, w - dx)
    if y0 < y1 and x0 < x1:
        out[..., y0:y1, x0:x1] = planes[..., y0 + dy:y1 + dy, x0 + dx:x1 + dx]
    return out
