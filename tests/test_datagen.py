import hashlib

import numpy as np
import numpy.testing as npt
import pytest

from epl import datagen, io
from epl.datagen import (
    SceneSpec,
    generate_dataset,
    generate_sample,
    read_sample,
    write_dataset,
    read_dataset,
    write_sample,
)
from epl.metrics import miou


#: manifest.json text -> what read_dataset's error says about it.
BAD_MANIFESTS = {
    '{"scene": {}}': "no 'samples' list",
    '{"samples": "sample_0000"}': "no 'samples' list",
    '[]': "no 'samples' list",
    '{"samples": ["sample_0000", 7]}': "'samples' holds 7, which is not a file stem",
    '{"samples": [null]}': "'samples' holds None, which is not a file stem",
    '{"samples": [["sample_0000"]]}': "'samples' holds ['sample_0000'], which is not a file stem",
    '{samples: []}': "not valid JSON (Expecting property name",
    '': "not valid JSON (Expecting value",
}


#: sha256 of the label bytes of samples 0-3 at seed 0, per scene kind (spec's 32x32 canvas,
#: 3 classes) and for a touching_disks canvas too tight for free placement.  Labels come
#: from integer and uniform draws only; images also take normal draws and are not pinned.
PINNED_LABELS = {
    "adjacent_rects": "ba757acffeedf89b827f0ac3b48b1079ddd914fa59e80f772861a2523e10de33",
    "touching_disks": "45f128dc0db576ba0b11cd80bcc7ab9798c577c6ae8b3562c1f2d691bb4f4767",
    "random_polygons": "f5e67b4538ef0e28a7e6facd54fa00eb3fc0a81a7b9563f0c38dd6256b2b5478",
    "mixed": "816ba5d9331f8a340bbd4a2f612b98a3f5be4bb3af365212a8f6c4d36a0206de",
    "disk_bands": "b9352713971297894109fc3affc37cd5b28aeda4a8717d71dff4ce869d8a87f4",
}


def label_digest(scene: SceneSpec) -> str:
    digest = hashlib.sha256()
    for sample in generate_dataset(scene):
        digest.update(sample.labels.tobytes())
    return digest.hexdigest()


def spec(**kw):
    base = dict(kind="adjacent_rects", height=32, width=32, classes=3,
                noise_sigma=0.1, count=4, seed=0)
    base.update(kw)
    return SceneSpec(**base)


class TestSceneSpec:
    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            spec(classes=1)

    def test_rejects_more_classes_than_a_pgm_byte_holds(self):
        # uint8 labels would wrap: class 300 would be stored as 44
        with pytest.raises(ValueError, match="a PGM label is one byte, so at most 256 classes "
                                             "fit, got classes=257"):
            spec(classes=257, noise_sigma=0.0)
        spec(classes=256, noise_sigma=0.0)

    def test_rejects_wide_gap(self):
        with pytest.raises(ValueError):
            spec(gap=3)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            spec(kind="gradient")

    def test_rejects_noise_violating_intensity_margin(self):
        # classes=3 on [0, 1] puts neighbours 0.5 apart; 3 sigma must fit.
        with pytest.raises(ValueError):
            spec(noise_sigma=0.2)
        spec(noise_sigma=0.16)  # just inside

    def test_rejects_wrong_intensity_count(self):
        with pytest.raises(ValueError):
            spec(intensities=(0.0, 1.0))

    def test_rejects_tiny_canvas(self):
        with pytest.raises(ValueError):
            spec(height=8)

    @pytest.mark.parametrize("field,value", [
        ("noise_sigma", float("nan")),
        ("noise_sigma", float("inf")),
        ("intensities", (0.0, float("nan"), 1.0)),
        ("intensities", (0.0, 0.5, float("inf"))),
    ])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            spec(**{field: value})


class TestGeneration:
    def test_noiseless_image_is_piecewise_constant(self):
        s = generate_sample(spec(noise_sigma=0.0), 0)
        levels = np.linspace(0, 1, 3).astype(np.float32)
        npt.assert_array_equal(s.image, levels[s.labels])

    def test_deterministic_under_seed(self):
        a = generate_dataset(spec())
        b = generate_dataset(spec())
        for sa, sb in zip(a, b):
            npt.assert_array_equal(sa.image, sb.image)
            npt.assert_array_equal(sa.labels, sb.labels)

    def test_different_indices_differ(self):
        a = generate_sample(spec(), 0)
        b = generate_sample(spec(), 1)
        assert not np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("kind", ["adjacent_rects", "touching_disks"])
    def test_every_class_present(self, kind):
        for i in range(6):
            s = generate_sample(spec(kind=kind, height=48, width=48), i)
            npt.assert_array_equal(np.unique(s.labels), [0, 1, 2])

    def test_adjacent_rects_share_an_edge(self):
        # Some pixel of one foreground class must 4-touch the other class.
        s = generate_sample(spec(noise_sigma=0.0), 3)
        lab = s.labels
        touching = False
        for dy, dx in ((0, 1), (1, 0)):
            a = lab[max(0, -dy):lab.shape[0] - dy or None, max(0, -dx):lab.shape[1] - dx or None]
            b = lab[dy or 0:, dx or 0:]
            touching |= bool(((a == 1) & (b == 2)).any() or ((a == 2) & (b == 1)).any())
        assert touching

    def test_touching_disks_background_path_between_disks(self):
        # BFS over background: the region around one disk must reach the other.
        s = generate_sample(spec(kind="touching_disks", classes=2, height=48, width=48), 1)
        lab = s.labels
        fg = lab == 1
        comps = _components(fg)
        assert len(comps) == 2
        bg = lab == 0
        start = _adjacent_background(comps[0], bg)
        goal = _adjacent_background(comps[1], bg)
        reached = _bfs(bg, start)
        assert (reached & goal).any()

    def test_touching_disks_components_per_class(self):
        s = generate_sample(spec(kind="touching_disks", height=64, width=64), 2)
        for c in (1, 2):
            assert len(_components(s.labels == c)) == 2

    def test_random_polygons_smoke(self):
        s = generate_sample(spec(kind="random_polygons"), 0)
        assert s.labels.max() < 3 and s.labels.min() == 0
        assert (s.labels > 0).any()

    def test_noise_free_dataset_threshold_separable(self):
        levels = np.linspace(0, 1, 3)
        for i in range(4):
            s = generate_sample(spec(noise_sigma=0.0), i)
            nearest = np.argmin(np.abs(s.image[..., None] - levels[None, None]), axis=-1)
            assert miou(nearest, s.labels, 3)[1] == 1.0

    def test_mixed_dataset_alternates_kinds(self):
        samples = generate_dataset(spec(kind="mixed", count=6, noise_sigma=0.0))
        assert len(samples) == 6
        # Even indices come from the rectangle stream, odd from the disks.
        rect = generate_sample(spec(kind="adjacent_rects", noise_sigma=0.0), 0)
        disk = generate_sample(spec(kind="touching_disks", noise_sigma=0.0), 0)
        npt.assert_array_equal(samples[0].labels, rect.labels)
        npt.assert_array_equal(samples[1].labels, disk.labels)


class TestPinnedLabels:
    @pytest.mark.parametrize("kind", datagen.SCENE_KINDS)
    def test_each_kind_reproduces_its_pinned_labels(self, kind):
        assert label_digest(spec(kind=kind)) == PINNED_LABELS[kind]

    def test_a_tight_disk_canvas_takes_the_band_fallback(self, monkeypatch):
        boxes = []
        place = datagen._disk_pair

        def spy(box_h, box_w, *args):
            boxes.append((box_h, box_w))
            return place(box_h, box_w, *args)

        monkeypatch.setattr(datagen, "_disk_pair", spy)
        tight = spec(kind="touching_disks", height=24, width=24, classes=4, noise_sigma=0.02)
        assert label_digest(tight) == PINNED_LABELS["disk_bands"]
        assert any(box_h < 24 for box_h, _ in boxes)  # a band is shorter than the canvas


def _components(mask):
    comps = []
    seen = np.zeros_like(mask)
    for y, x in zip(*np.nonzero(mask)):
        if seen[y, x]:
            continue
        comp = _bfs(mask, _point_mask(mask.shape, y, x))
        seen |= comp
        comps.append(comp)
    return comps


def _point_mask(shape, y, x):
    m = np.zeros(shape, dtype=bool)
    m[y, x] = True
    return m


def _adjacent_background(comp, bg):
    grown = comp.copy()
    grown[1:] |= comp[:-1]
    grown[:-1] |= comp[1:]
    grown[:, 1:] |= comp[:, :-1]
    grown[:, :-1] |= comp[:, 1:]
    return grown & bg


def _bfs(allowed, start):
    frontier = start & allowed
    reached = frontier.copy()
    while frontier.any():
        grown = np.zeros_like(reached)
        grown[1:] |= frontier[:-1]
        grown[:-1] |= frontier[1:]
        grown[:, 1:] |= frontier[:, :-1]
        grown[:, :-1] |= frontier[:, 1:]
        frontier = grown & allowed & ~reached
        reached |= frontier
    return reached


class TestSampleIO:
    def test_round_trip_is_bit_exact(self, tmp_path):
        s = generate_sample(spec(), 0)
        write_sample(tmp_path / "s0", s)
        back = read_sample(tmp_path / "s0")
        npt.assert_array_equal(back.image, s.image)
        npt.assert_array_equal(back.labels, s.labels)

    @pytest.mark.parametrize("kind", ["adjacent_rects", "touching_disks", "random_polygons",
                                      "mixed"])
    def test_labels_are_uint8_when_generated_and_read(self, tmp_path, kind):
        s = generate_sample(spec(kind=kind, height=48, width=48), 1)
        write_sample(tmp_path / "s1", s)
        assert s.labels.dtype == np.uint8
        assert read_sample(tmp_path / "s1").labels.dtype == np.uint8

    def test_corrupt_magic_raises(self, tmp_path):
        s = generate_sample(spec(), 0)
        write_sample(tmp_path / "s0", s)
        raw = (tmp_path / "s0.eplt").read_bytes()
        (tmp_path / "s0.eplt").write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(io.FormatError):
            read_sample(tmp_path / "s0")

    def test_pgm_values_below_class_count(self, tmp_path):
        s = generate_sample(spec(height=64, width=64), 1)
        write_sample(tmp_path / "s1", s)
        raw = (tmp_path / "s1.pgm").read_bytes()
        assert raw.startswith(b"P5\n64 64\n255\n")
        labels = io.read_pgm(tmp_path / "s1.pgm")
        assert labels.max() < 3

    def test_dataset_round_trip_and_checksum_stability(self, tmp_path):
        s = spec(count=3)
        write_dataset(tmp_path / "a", generate_dataset(s), s)
        write_dataset(tmp_path / "b", generate_dataset(s), s)

        def digest(root):
            h = hashlib.sha256()
            for p in sorted(root.rglob("*")):
                if p.is_file():
                    h.update(p.name.encode())
                    h.update(p.read_bytes())
            return h.hexdigest()

        assert digest(tmp_path / "a") == digest(tmp_path / "b")
        samples, manifest = read_dataset(tmp_path / "a")
        assert len(samples) == 3
        assert manifest["scene"]["kind"] == "adjacent_rects"

    @pytest.mark.parametrize("manifest", list(BAD_MANIFESTS))
    def test_manifest_without_a_samples_list_raises(self, tmp_path, manifest):
        path = tmp_path / "manifest.json"
        path.write_text(manifest)
        with pytest.raises(io.FormatError) as exc:
            read_dataset(tmp_path)
        assert str(exc.value).startswith(f"{path}: ")
        assert BAD_MANIFESTS[manifest] in str(exc.value)
