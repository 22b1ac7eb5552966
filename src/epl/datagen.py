"""Synthetic segmentation scenes stressing boundary cases.

Three scene kinds: ``adjacent_rects`` chains different-class rectangles
sharing full edges (hard transitions between categories),
``touching_disks`` places same-class disk pairs separated by a thin
background gap (separate instances of one category almost merging), and
``random_polygons`` scatters random triangles.  A fourth dataset kind,
``mixed``, interleaves the first two.  Images are single-channel: the class
base intensity plus optional Gaussian noise.

Sample i of a dataset draws from the stream (seed, DATASET, kind, i), so
datasets are reproducible and scene kinds sharing a seed stay independent.
Sample i of a mixed dataset is sample i // 2 of the rectangle stream for
even i and of the disk stream for odd i.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import io, seeding
from .metrics import chebyshev_dilate

# A kind's index is its stream code, so new kinds go at the end.
SCENE_KINDS = ("adjacent_rects", "touching_disks", "random_polygons", "mixed")
_MIXED_KINDS = ("adjacent_rects", "touching_disks")

_PLACEMENT_ATTEMPTS = 500


@dataclass(frozen=True)
class SceneSpec:
    """Scene recipe; `intensities` defaults to an even spread over [0, 1].

    The integer fields are ints (not bools); noise_sigma and each intensity
    are ints or floats (not bools), stored as floats.  classes lies in
    [2, 256], since a label is one PGM byte.
    """

    kind: str = "mixed"
    height: int = 64
    width: int = 64
    classes: int = 3
    noise_sigma: float = 0.16
    intensities: tuple[float, ...] | None = None
    count: int = 200
    seed: int = 0
    gap: int = 1

    def __post_init__(self) -> None:
        if self.kind not in SCENE_KINDS:
            raise ValueError(f"unknown scene kind {self.kind!r}, expected one of {SCENE_KINDS}")
        for name in ("height", "width", "classes", "count", "gap", "seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.classes < 2:
            raise ValueError(f"need at least background + one class, got classes={self.classes}")
        if self.classes > 256:
            raise ValueError(f"a PGM label is one byte, so at most 256 classes fit, "
                             f"got classes={self.classes}")
        if self.height < 16 or self.width < 16:
            raise ValueError("scenes need at least a 16x16 canvas")
        if self.count < 1:
            raise ValueError("count must be positive")
        if type(self.noise_sigma) not in (int, float):
            raise ValueError(f"noise_sigma must be a number, got {self.noise_sigma!r}")
        object.__setattr__(self, "noise_sigma", float(self.noise_sigma))
        if self.intensities is not None:
            if any(type(v) not in (int, float) for v in self.intensities):
                raise ValueError(f"intensities must be numbers, got {self.intensities!r}")
            object.__setattr__(self, "intensities", tuple(map(float, self.intensities)))
        if not (self.noise_sigma >= 0 and math.isfinite(self.noise_sigma)):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        if not 1 <= self.gap <= 2:
            raise ValueError(f"background gap must be 1 or 2 pixels, got {self.gap}")
        levels = self.class_intensities()
        if levels.size != self.classes:
            raise ValueError(f"need {self.classes} intensities, got {levels.size}")
        if not np.isfinite(levels).all():
            raise ValueError(f"class intensities must be finite, got {self.intensities}")
        if self.noise_sigma > 0:
            gaps = np.abs(levels[:, None] - levels[None, :])
            min_gap = gaps[~np.eye(self.classes, dtype=bool)].min()
            if min_gap < 3.0 * self.noise_sigma:
                raise ValueError(
                    f"class intensities must differ by at least 3*sigma "
                    f"({3.0 * self.noise_sigma:.4f}), closest pair differs by {min_gap:.4f}"
                )

    def class_intensities(self) -> np.ndarray:
        if self.intensities is None:
            return np.linspace(0.0, 1.0, self.classes)
        return np.asarray(self.intensities, dtype=np.float64)


@dataclass
class Sample:
    """One scene: a float32 intensity image and its uint8 label map."""

    image: np.ndarray
    labels: np.ndarray


def _scene_adjacent_rects(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    h, w = spec.height, spec.width
    labels = np.zeros((h, w), dtype=np.uint8)
    transpose = bool(rng.integers(0, 2))
    if transpose:
        h, w = w, h
    n_rects = spec.classes - 1
    # Block extents leave a background margin, then the block is cut into
    # n_rects vertical strips at least 3 px wide, each its own class.
    y0 = int(rng.integers(1, max(2, h // 4)))
    y1 = int(h - rng.integers(1, max(2, h // 4)))
    x0 = int(rng.integers(1, max(2, w // 6)))
    x1 = int(w - rng.integers(1, max(2, w // 6)))
    for _ in range(_PLACEMENT_ATTEMPTS):
        cuts = np.sort(rng.integers(x0 + 3, x1 - 2, size=n_rects - 1)) if n_rects > 1 else np.array([], int)
        edges = np.concatenate(([x0], cuts, [x1]))
        if np.diff(edges).min() >= 3:
            break
    else:
        raise ValueError(f"cannot fit {n_rects} adjacent rectangles in a {h}x{w} canvas")
    order = rng.permutation(np.arange(1, spec.classes))
    block = np.zeros((h, w), dtype=np.uint8)
    for cls, left, right in zip(order, edges[:-1], edges[1:]):
        block[y0:y1, left:right] = cls
    labels[:, :] = block.T if transpose else block
    return labels


def _disk_mask(h: int, w: int, cy: int, cx: int, radius: int) -> np.ndarray:
    yy, xx = np.ogrid[:h, :w]
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius


def _disk_pair(box_h: int, box_w: int, gap: int, r_lo: int, r_hi: int, rng):
    """Centers and radii of a same-class disk pair inside a box, or None.

    The center separation ra + rb + gap + 1 leaves exactly `gap` background
    pixels between the disks along the line joining the centers.
    """
    for attempt in range(_PLACEMENT_ATTEMPTS):
        hi = max(r_lo, r_hi - attempt // 100)  # shrink when the box is tight
        ra = int(rng.integers(r_lo, hi + 1))
        rb = int(rng.integers(r_lo, hi + 1))
        sep = ra + rb + gap + 1
        m = max(ra, rb)
        if bool(rng.integers(0, 2)):  # pair along the x axis
            if 1 + m < box_h - m - 1 and ra + 1 < box_w - rb - 1 - sep:
                cy = int(rng.integers(1 + m, box_h - m - 1))
                cx1 = int(rng.integers(ra + 1, box_w - rb - 1 - sep))
                return ((cy, cx1, ra), (cy, cx1 + sep, rb))
        else:
            if 1 + m < box_w - m - 1 and ra + 1 < box_h - rb - 1 - sep:
                cx = int(rng.integers(1 + m, box_w - m - 1))
                cy1 = int(rng.integers(ra + 1, box_h - rb - 1 - sep))
                return ((cy1, cx, ra), (cy1 + sep, cx, rb))
    return None


def _scene_touching_disks(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    h, w = spec.height, spec.width
    labels = np.zeros((h, w), dtype=np.uint8)
    occupied = np.zeros((h, w), dtype=bool)
    r_lo = max(2, min(h, w) // 12)
    r_hi = max(r_lo + 1, min(h, w) // 7)
    for cls in range(1, spec.classes):
        placed = False
        for _ in range(_PLACEMENT_ATTEMPTS):
            pair = _disk_pair(h, w, spec.gap, r_lo, r_hi, rng)
            if pair is None:
                break
            mask = _disk_mask(h, w, *pair[0]) | _disk_mask(h, w, *pair[1])
            # Pairs of different classes stay clear of each other so the
            # thin intra-pair gaps remain background.
            halo = chebyshev_dilate(mask, 2)
            if (halo & occupied).any():
                continue
            labels[mask] = cls
            occupied |= halo
            placed = True
            break
        if not placed:
            # Tight canvas: restart with one disjoint horizontal band per
            # class, which cannot collide.
            labels[:] = 0
            bands = np.linspace(0, h, spec.classes).astype(int)
            for c, (top, bottom) in enumerate(zip(bands[:-1], bands[1:]), start=1):
                pair = _disk_pair(bottom - top, w, spec.gap, r_lo, r_hi, rng)
                if pair is None:
                    raise ValueError(
                        f"cannot fit {spec.classes - 1} disk pairs in a {h}x{w} canvas"
                    )
                for cy, cx, r in pair:
                    labels[_disk_mask(h, w, top + cy, cx, r)] = c
            break
    return labels


def _scene_random_polygons(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    h, w = spec.height, spec.width
    labels = np.zeros((h, w), dtype=np.uint8)
    yy, xx = np.mgrid[:h, :w]
    n_polys = int(rng.integers(2, 5))
    for _ in range(n_polys):
        cls = int(rng.integers(1, spec.classes))
        for _ in range(_PLACEMENT_ATTEMPTS):
            pts = np.column_stack([rng.uniform(1, h - 1, 3), rng.uniform(1, w - 1, 3)])
            # twice the signed area; its sign is the orientation of the vertices
            area2 = ((pts[1, 0] - pts[0, 0]) * (pts[2, 1] - pts[0, 1])
                     - (pts[2, 0] - pts[0, 0]) * (pts[1, 1] - pts[0, 1]))
            if abs(area2) >= 0.05 * h * w:
                break
        sign = 1.0 if area2 >= 0 else -1.0
        inside = np.ones((h, w), dtype=bool)
        for i in range(3):
            ay, ax = pts[i]
            by, bx = pts[(i + 1) % 3]
            inside &= sign * ((by - ay) * (xx - ax) - (bx - ax) * (yy - ay)) >= 0
        labels[inside] = cls
    return labels


_SCENES = {
    "adjacent_rects": _scene_adjacent_rects,
    "touching_disks": _scene_touching_disks,
    "random_polygons": _scene_random_polygons,
}


def generate_sample(spec: SceneSpec, index: int) -> Sample:
    """Deterministically generate sample `index` of the dataset."""
    kind = spec.kind
    if kind == "mixed":
        kind, index = _MIXED_KINDS[index % 2], index // 2
    rng = seeding.stream(spec.seed, seeding.STREAM_DATASET, SCENE_KINDS.index(kind), index)
    labels = _SCENES[kind](spec, rng)
    image = spec.class_intensities()[labels]
    if spec.noise_sigma > 0:
        image = image + rng.normal(0.0, spec.noise_sigma, labels.shape)
    return Sample(image=image.astype(np.float32), labels=labels)


def generate_dataset(spec: SceneSpec) -> list[Sample]:
    """All `spec.count` samples, reproducible from the spec alone."""
    return [generate_sample(spec, i) for i in range(spec.count)]


def write_sample(stem, sample: Sample) -> None:
    """Write image as <stem>.eplt and labels as <stem>.pgm; round-trips exactly."""
    stem = str(stem)
    io.write_tensor(stem + ".eplt", sample.image)
    io.write_pgm(stem + ".pgm", sample.labels)


def read_sample(stem) -> Sample:
    """Read a sample written by write_sample; a non-finite image pixel is a FormatError."""
    stem = str(stem)
    image = io.read_tensor(stem + ".eplt")
    bad = image.size - np.count_nonzero(np.isfinite(image))
    if bad:
        raise io.FormatError(f"{stem}.eplt: the image holds {bad} non-finite value(s)")
    labels = io.read_pgm(stem + ".pgm")
    if image.shape != labels.shape:
        raise io.FormatError(
            f"{stem}: image shape {image.shape} does not match labels {labels.shape}"
        )
    return Sample(image=image, labels=labels)


def write_dataset(out_dir, samples: list[Sample], spec: SceneSpec) -> Path:
    """Write samples plus a manifest.json listing them; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stems = []
    for i, sample in enumerate(samples):
        stem = f"sample_{i:04d}"
        write_sample(out / stem, sample)
        stems.append(stem)
    manifest = {"scene": asdict(spec), "samples": stems}
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def read_dataset(in_dir) -> tuple[list[Sample], dict]:
    """Load a dataset directory written by write_dataset."""
    path = Path(in_dir) / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise io.FormatError(f"{path}: not valid JSON ({exc})") from exc
    stems = manifest.get("samples") if isinstance(manifest, dict) else None
    if not isinstance(stems, list):
        raise io.FormatError(f"{path}: the manifest has no 'samples' list")
    for stem in stems:
        if not isinstance(stem, str):
            raise io.FormatError(f"{path}: 'samples' holds {stem!r}, which is not a file stem")
    samples = [read_sample(path.parent / stem) for stem in stems]
    return samples, manifest
