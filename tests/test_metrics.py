import json

import numpy as np
import numpy.testing as npt
import pytest

from epl import metrics
from epl.config import DEFAULTS
from epl.metrics import (
    boundary_band,
    boundary_fmeasure,
    chebyshev_dilate,
    evaluate_pair,
    mean_record,
    miou,
    transition_mask,
    trimap_iou,
)
from test_acceptance import _loop_fmeasure, _loop_trimap


def loop_miou(pred, gt, k):
    ious = []
    for c in range(k):
        inter = union = 0
        for y in range(gt.shape[0]):
            for x in range(gt.shape[1]):
                p = pred[y, x] == c
                g = gt[y, x] == c
                inter += p and g
                union += p or g
        if union:
            ious.append(inter / union)
    return float(np.mean(ious))


class TestMiou:
    def test_perfect(self):
        lab = np.random.default_rng(0).integers(0, 3, (8, 8))
        per_class, mean = miou(lab, lab, 3)
        assert mean == 1.0
        npt.assert_array_equal(per_class, [1.0, 1.0, 1.0])

    def test_disjoint_masks(self):
        gt = np.zeros((4, 4), dtype=int)
        gt[:2] = 1
        pred = np.zeros((4, 4), dtype=int)
        pred[2:] = 1
        per_class, _ = miou(pred, gt, 2)
        assert per_class[1] == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            gt = rng.integers(0, 3, (16, 16))
            pred = rng.integers(0, 3, (16, 16))
            _, mean = miou(pred, gt, 3)
            assert mean == loop_miou(pred, gt, 3)

    def test_absent_class_excluded(self):
        gt = np.zeros((4, 4), dtype=int)
        per_class, mean = miou(gt, gt, 3)
        assert np.isnan(per_class[1]) and np.isnan(per_class[2])
        assert mean == 1.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            miou(np.zeros((2, 2), int), np.zeros((3, 3), int), 2)

    @pytest.mark.parametrize("side,label", [("prediction", 3), ("prediction", -1),
                                            ("ground truth", 3), ("ground truth", -2)])
    def test_label_outside_the_classes_raises(self, side, label):
        lab = np.zeros((4, 4), dtype=int)
        lab[:, 2:] = 1
        bad = lab.copy()
        bad[1, 1] = label
        pred, gt = (bad, lab) if side == "prediction" else (lab, bad)
        with pytest.raises(ValueError, match=rf"{side} label {label} lies outside \[0, 3\)"):
            miou(pred, gt, 3)


class TestBoundaryBand:
    def test_constant_map_has_no_band(self):
        assert not boundary_band(np.zeros((6, 6), dtype=int), 3).any()

    def test_vertical_split_width_one(self):
        lab = np.zeros((4, 6), dtype=int)
        lab[:, 3:] = 1
        band = boundary_band(lab, 1)
        expected = np.zeros((4, 6), dtype=bool)
        expected[:, 1:5] = True  # transitions in columns 2 and 3, grown by 1
        npt.assert_array_equal(band, expected)

    def test_saturating_width(self):
        lab = np.zeros((5, 5), dtype=int)
        lab[2, 2] = 1
        assert boundary_band(lab, 5).all()

    def test_band_matches_bfs_oracle(self):
        rng = np.random.default_rng(2)
        lab = rng.integers(0, 3, (10, 10))
        width = 2
        trans = transition_mask(lab)
        expected = np.zeros_like(trans)
        ys, xs = np.nonzero(trans)
        for y in range(10):
            for x in range(10):
                if ys.size and np.minimum(np.abs(ys - y), 100).size:
                    d = np.maximum(np.abs(ys - y), np.abs(xs - x)).min()
                    expected[y, x] = d <= width
        npt.assert_array_equal(boundary_band(lab, width), expected)

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            boundary_band(np.zeros((3, 3), int), 0)


class TestTrimapIou:
    def test_perfect_prediction(self):
        lab = np.zeros((6, 6), dtype=int)
        lab[:, 3:] = 1
        assert trimap_iou(lab, lab, 2, 1) == 1.0

    @pytest.mark.parametrize("side", ["prediction", "ground truth"])
    def test_label_outside_the_classes_raises(self, side):
        lab = np.zeros((6, 6), dtype=int)
        lab[:, 3:] = 1
        bad = lab.copy()
        bad[2, 3] = 2  # beside the transition, so inside the band
        pred, gt = (bad, lab) if side == "prediction" else (lab, bad)
        with pytest.raises(ValueError, match=rf"{side} label 2 lies outside \[0, 2\)"):
            trimap_iou(pred, gt, 2, 1)

    def test_empty_band_is_not_applicable(self):
        lab = np.zeros((6, 6), dtype=int)
        assert np.isnan(trimap_iou(lab, lab, 2, 3))

    def test_matches_masked_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            gt = rng.integers(0, 3, (12, 12))
            pred = rng.integers(0, 3, (12, 12))
            for width in (1, 3):
                band = boundary_band(gt, width)
                if not band.any():
                    continue
                ious = []
                for c in range(3):
                    inter = union = 0
                    for y in range(12):
                        for x in range(12):
                            if not band[y, x]:
                                continue
                            p = pred[y, x] == c
                            g = gt[y, x] == c
                            inter += p and g
                            union += p or g
                    if union:
                        ious.append(inter / union)
                assert trimap_iou(pred, gt, 3, width) == float(np.mean(ious))

    def test_protocol_widths_run(self):
        rng = np.random.default_rng(4)
        gt = rng.integers(0, 3, (16, 16))
        pred = rng.integers(0, 3, (16, 16))
        values = [trimap_iou(pred, gt, 3, w) for w in (1, 3, 5, 10)]
        assert all(np.isfinite(v) for v in values)

    def test_saturated_width_equals_plain_miou(self):
        rng = np.random.default_rng(5)
        gt = rng.integers(0, 2, (9, 9))
        pred = rng.integers(0, 2, (9, 9))
        if transition_mask(gt).any():
            assert trimap_iou(pred, gt, 2, 9) == miou(pred, gt, 2)[1]


class TestBoundaryFMeasure:
    def test_perfect(self):
        lab = np.zeros((6, 6), dtype=int)
        lab[2:4, 2:4] = 1
        assert boundary_fmeasure(lab, lab, 0) == 1.0

    def test_shift_within_tolerance(self):
        gt = np.zeros((8, 8), dtype=int)
        gt[:, 4:] = 1
        pred = np.zeros((8, 8), dtype=int)
        pred[:, 5:] = 1  # boundary shifted right by one pixel
        assert boundary_fmeasure(pred, gt, 1) == 1.0

    def test_shift_beyond_tolerance(self):
        gt = np.zeros((8, 16), dtype=int)
        gt[:, 2:4] = 1
        pred = np.zeros((8, 16), dtype=int)
        pred[:, 10:12] = 1  # far from the true stripe
        assert boundary_fmeasure(pred, gt, 2) == 0.0

    def test_monotone_in_tolerance(self):
        rng = np.random.default_rng(6)
        gt = rng.integers(0, 3, (12, 12))
        pred = rng.integers(0, 3, (12, 12))
        values = [boundary_fmeasure(pred, gt, t) for t in range(0, 6)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_empty_boundary_cases(self):
        flat = np.zeros((5, 5), dtype=int)
        edged = flat.copy()
        edged[2, 2] = 1
        assert boundary_fmeasure(flat, flat, 1) == 1.0
        assert boundary_fmeasure(edged, flat, 1) == 0.0
        assert boundary_fmeasure(flat, edged, 1) == 0.0

    def test_class_matching_matters(self):
        gt = np.zeros((6, 6), dtype=int)
        gt[:, 3:] = 1
        swapped = 1 - gt  # same geometry, labels exchanged
        assert boundary_fmeasure(swapped, gt, 0) == 0.0


def loop_class_ious(pred, gt, k):
    """Per-class IoU from one pair of masks per class; NaN where both maps lack it."""
    out = np.full(k, np.nan)
    for c in range(k):
        union = int(np.logical_or(pred == c, gt == c).sum())
        if union:
            out[c] = int(np.logical_and(pred == c, gt == c).sum()) / union
    return out


def _uint8_hundred_classes(rng):
    gt = rng.integers(0, 100, (20, 20), dtype=np.uint8)
    pred = np.where(rng.random(gt.shape) < 0.6, gt, rng.integers(0, 100, gt.shape)).astype(np.uint8)
    return pred, gt, 100


def _bool_maps(rng):
    gt = np.zeros((12, 12), dtype=bool)
    gt[3:9, 2:7] = True
    return gt ^ (rng.random(gt.shape) < 0.2), gt, 2


def _absent_classes(rng):
    return rng.integers(0, 3, (12, 12)), rng.integers(0, 3, (12, 12)), 6


class TestConfusionCount:
    """The class IoUs of miou and trimap_iou against the loop oracles."""

    @pytest.mark.parametrize("case", [_uint8_hundred_classes, _bool_maps, _absent_classes],
                             ids=["uint8-100-classes", "bool", "absent-classes"])
    def test_matches_the_loop_oracles(self, case):
        rng = np.random.default_rng(11)
        for _ in range(3):
            pred, gt, k = case(rng)
            ious, mean = miou(pred, gt, k)
            npt.assert_array_equal(ious, loop_class_ious(pred, gt, k))
            assert mean == loop_miou(pred, gt, k)
            for width in (1, 3):
                assert trimap_iou(pred, gt, k, width) == _loop_trimap(pred, gt, k, width)
            record = evaluate_pair(pred, gt, k, [1, 3], [1])
            assert record["miou"] == mean
            assert [record["trimap_iou"][w] for w in "13"] == [
                _loop_trimap(pred, gt, k, w) for w in (1, 3)]

    def test_uint8_maps_score_as_their_int64_copies(self):
        # the confusion code g * k + p passes 255 from k = 16 on, so a uint8 code would wrap
        rng = np.random.default_rng(13)
        for k in (16, 40, 256):
            gt = rng.integers(0, k, (18, 21), dtype=np.uint8)
            pred = np.where(rng.random(gt.shape) < 0.5, gt,
                            rng.integers(0, k, gt.shape)).astype(np.uint8)
            wide = evaluate_pair(pred.astype(np.int64), gt.astype(np.int64), k, [1, 3], [1, 2])
            assert evaluate_pair(pred, gt, k, [1, 3], [1, 2]) == wide

    def test_absent_classes_are_nan(self):
        pred, gt, k = _absent_classes(np.random.default_rng(12))
        ious, _ = miou(pred, gt, k)
        assert np.isnan(ious[3:]).all() and not np.isnan(ious[:3]).any()

    @pytest.mark.parametrize("score", [
        lambda p, g: miou(p, g, 2),
        lambda p, g: trimap_iou(p, g, 2, 1),
        lambda p, g: boundary_fmeasure(p, g, 1),
        lambda p, g: evaluate_pair(p, g, 2, [1], [1]),
    ], ids=["miou", "trimap_iou", "boundary_fmeasure", "evaluate_pair"])
    @pytest.mark.parametrize("side", ["prediction", "ground truth"])
    def test_a_float_label_map_raises_naming_its_dtype(self, score, side):
        lab = np.zeros((6, 6), dtype=int)
        lab[:, 3:] = 1
        pred, gt = (lab.astype(float), lab) if side == "prediction" else (lab, lab.astype(float))
        with pytest.raises(ValueError, match=f"{side} label map must be integer, got dtype float64"):
            score(pred, gt)


class TestRelabelInvariance:
    def test_consistent_permutation_leaves_metrics_unchanged(self):
        rng = np.random.default_rng(7)
        gt = rng.integers(0, 3, (10, 10))
        pred = rng.integers(0, 3, (10, 10))
        perm = np.array([2, 0, 1])
        assert miou(pred, gt, 3)[1] == miou(perm[pred], perm[gt], 3)[1]
        assert trimap_iou(pred, gt, 3, 2) == trimap_iou(perm[pred], perm[gt], 3, 2)
        assert boundary_fmeasure(pred, gt, 1) == boundary_fmeasure(perm[pred], perm[gt], 1)


class TestEvaluatePair:
    def test_report_structure(self):
        rng = np.random.default_rng(8)
        gt = rng.integers(0, 3, (16, 16))
        pred = rng.integers(0, 3, (16, 16))
        record = evaluate_pair(pred, gt, 3, **DEFAULTS["eval"])
        assert set(record) == {"per_class_iou", "miou", "trimap_iou", "boundary_f"}
        assert set(record["trimap_iou"]) == {"1", "3", "5", "10"}
        assert set(record["boundary_f"]) == {"1", "3", "5", "10"}
        assert len(record["per_class_iou"]) == 3
        assert 0.0 <= record["miou"] <= 1.0
        assert record["trimap_iou"]["3"] == trimap_iou(pred, gt, 3, 3)
        assert record["boundary_f"]["5"] == boundary_fmeasure(pred, gt, 5)

    def test_nan_is_none(self):
        gt = np.zeros((8, 8), dtype=int)  # no boundary: an empty trimap band
        record = evaluate_pair(gt, gt, 3, [2], [1])
        assert record["per_class_iou"] == [1.0, None, None]
        assert record["trimap_iou"] == {"2": None}
        assert record["boundary_f"] == {"1": 1.0}
        json.dumps(record, allow_nan=False)


WIDTHS = (1, 3, 5, 10)
TOLERANCES = (0, 1, 3, 5, 10)


def standalone_record(pred, gt, k):
    """The evaluate_pair record rebuilt from the standalone metrics, one call per value."""
    def clean(x):
        return None if np.isnan(x) else x

    ious, mean = miou(pred, gt, k)
    return {"per_class_iou": [clean(float(v)) for v in ious], "miou": clean(mean),
            "trimap_iou": {str(w): clean(trimap_iou(pred, gt, k, w)) for w in WIDTHS},
            "boundary_f": {str(t): clean(boundary_fmeasure(pred, gt, t)) for t in TOLERANCES}}


class TestSharedScoringPath:
    """evaluate_pair builds each mask once; every value must equal the one-at-a-time path."""

    @staticmethod
    def pairs():
        rng = np.random.default_rng(10)
        for i in range(24):
            h, w = (int(v) for v in rng.integers(2, 15, 2))
            k = int(rng.integers(2, 5))
            gt = rng.integers(0, k, (h, w))
            if i % 4 == 1:
                gt = np.repeat(rng.integers(0, k, (1, w)), h, axis=0)  # vertical stripes
            pred = gt.copy() if i % 5 == 0 else rng.integers(0, k, (h, w))
            yield pred, gt, k

    def test_matches_the_standalone_metrics_and_the_loop_oracles(self):
        for pred, gt, k in self.pairs():
            record = evaluate_pair(pred, gt, k, WIDTHS, TOLERANCES)
            assert record == standalone_record(pred, gt, k)
            assert record["miou"] == loop_miou(pred, gt, k)
            for w in WIDTHS:
                oracle = _loop_trimap(pred, gt, k, w)
                assert record["trimap_iou"][str(w)] == (None if np.isnan(oracle) else oracle)
            for t in TOLERANCES:
                assert record["boundary_f"][str(t)] == _loop_fmeasure(pred, gt, t)

    def test_both_boundaries_empty(self):
        flat = np.full((6, 7), 2)
        record = evaluate_pair(flat, flat, 3, WIDTHS, TOLERANCES)
        assert record == standalone_record(flat, flat, 3)
        assert record["boundary_f"] == {str(t): 1.0 for t in TOLERANCES}
        assert record["trimap_iou"] == {str(w): None for w in WIDTHS}  # empty bands

    @pytest.mark.parametrize("empty_side", ["prediction", "ground truth"])
    def test_exactly_one_boundary_empty(self, empty_side):
        flat = np.zeros((6, 7), dtype=int)
        edged = flat.copy()
        edged[2:4, 3:5] = 1
        pred, gt = (flat, edged) if empty_side == "prediction" else (edged, flat)
        record = evaluate_pair(pred, gt, 2, WIDTHS, TOLERANCES)
        assert record == standalone_record(pred, gt, 2)
        assert record["boundary_f"] == {str(t): 0.0 for t in TOLERANCES}
        bands = record["trimap_iou"].values()
        assert all(v is None for v in bands) == (empty_side == "ground truth")

    def test_a_class_with_boundaries_only_in_the_prediction(self):
        gt = np.zeros((8, 8), dtype=int)
        gt[:, 4:] = 1
        pred = gt.copy()
        pred[1:3, 1:3] = 2  # class 2 has boundary pixels in the prediction alone
        record = evaluate_pair(pred, gt, 3, WIDTHS, TOLERANCES)
        assert record == standalone_record(pred, gt, 3)
        for t in TOLERANCES:
            assert record["boundary_f"][str(t)] == _loop_fmeasure(pred, gt, t)
        # The class-2 pixels and the class-0 ring around them miss at tolerance 0...
        assert record["boundary_f"]["0"] < 1.0
        # ...and class 2 never finds a ground-truth boundary of its own class.
        assert record["boundary_f"]["10"] < 1.0

    @pytest.mark.parametrize("call", [
        lambda lab: evaluate_pair(lab, lab, 2, [3, 0], [1]),
        lambda lab: trimap_iou(lab, lab, 2, 0),
        lambda lab: boundary_band(lab, 0),
    ], ids=["evaluate_pair", "trimap_iou", "boundary_band"])
    def test_width_zero_raises(self, call):
        lab = np.zeros((6, 6), dtype=int)
        lab[:, 3:] = 1
        with pytest.raises(ValueError, match=r"^band width must be >= 1, got 0$"):
            call(lab)

    @pytest.mark.parametrize("call", [
        lambda lab: evaluate_pair(lab, lab, 2, [3], [1, -1]),
        lambda lab: boundary_fmeasure(lab, lab, -1),
        lambda lab: boundary_fmeasure(np.zeros_like(lab), np.zeros_like(lab), -1),
    ], ids=["evaluate_pair", "boundary_fmeasure", "boundary_fmeasure-no-boundary"])
    def test_negative_tolerance_raises(self, call):
        lab = np.zeros((6, 6), dtype=int)
        lab[:, 3:] = 1
        with pytest.raises(ValueError, match=r"^tolerance must be >= 0, got -1$"):
            call(lab)

    @pytest.mark.parametrize("call, name", [
        (lambda lab: evaluate_pair(lab, lab, 2, [3, 1.5], [1]), "band width"),
        (lambda lab: trimap_iou(lab, lab, 2, 1.5), "band width"),
        (lambda lab: boundary_band(lab, 1.5), "band width"),
        (lambda lab: evaluate_pair(lab, lab, 2, [3], [1, 1.5]), "tolerance"),
        (lambda lab: boundary_fmeasure(lab, lab, 1.5), "tolerance"),
        (lambda lab: boundary_fmeasure(np.zeros_like(lab), np.zeros_like(lab), 1.5), "tolerance"),
        (lambda lab: miou(lab, lab, 1.5), "class count"),
        (lambda lab: trimap_iou(lab, lab, 1.5, 1), "class count"),
        (lambda lab: trimap_iou(np.zeros_like(lab), np.zeros_like(lab), 1.5, 1), "class count"),
        (lambda lab: evaluate_pair(lab, lab, 1.5, [1], [1]), "class count"),
    ], ids=["evaluate_pair-width", "trimap_iou", "boundary_band", "evaluate_pair-tolerance",
            "boundary_fmeasure", "boundary_fmeasure-no-boundary", "miou-classes",
            "trimap_iou-classes", "trimap_iou-empty-band-classes", "evaluate_pair-classes"])
    def test_a_fractional_width_or_tolerance_raises(self, call, name):
        lab = np.zeros((6, 6), dtype=int)
        lab[:, 3:] = 1
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got 1\.5$"):
            call(lab)

    @pytest.mark.parametrize("call", [
        lambda lab: miou(lab, lab, 2),
        lambda lab: evaluate_pair(lab, lab, 2, [1], [1]),
        lambda lab: trimap_iou(lab, lab, 2, 1),
        lambda lab: boundary_fmeasure(lab, lab, 1),
    ], ids=["miou", "evaluate_pair", "trimap_iou", "boundary_fmeasure"])
    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (3, 0)], ids=["0x0", "0x4", "3x0"])
    def test_empty_label_maps_raise(self, call, shape):
        with pytest.raises(ValueError, match=r"^label maps are empty$"):
            call(np.zeros(shape, dtype=np.uint8))


class TestMeanRecord:
    RECORDS = [
        {"sample": "a", "miou": 0.5, "trimap_iou": {"3": None, "1": 0.2, "5": None},
         "boundary_f": {"3": 1.0, "1": 0.1}},
        {"sample": "b", "miou": 0.25, "trimap_iou": {"3": 0.7, "1": 0.4, "5": None},
         "boundary_f": {"3": 0.5, "1": 0.3}},
        {"sample": "c", "miou": 0.1, "trimap_iou": {"3": None, "1": 0.9, "5": None},
         "boundary_f": {"3": 0.2, "1": 0.6}},
    ]

    def test_means_in_key_order_skipping_empty_bands(self):
        mean = mean_record(self.RECORDS)
        assert mean == {
            "miou": float(np.mean([0.5, 0.25, 0.1])),
            "trimap_iou": {"3": 0.7, "1": float(np.mean([0.2, 0.4, 0.9])), "5": None},
            "boundary_f": {"3": float(np.mean([1.0, 0.5, 0.2])),
                           "1": float(np.mean([0.1, 0.3, 0.6]))},
        }
        assert list(mean) == ["miou", "trimap_iou", "boundary_f"]
        assert list(mean["trimap_iou"]) == ["3", "1", "5"]
        assert list(mean["boundary_f"]) == ["3", "1"]
        json.dumps(mean, allow_nan=False)

    def test_averages_evaluate_pair_records(self):
        rng = np.random.default_rng(9)
        pairs = [(rng.integers(0, 3, (12, 12)), rng.integers(0, 3, (12, 12))) for _ in range(3)]
        pairs.append((np.zeros((12, 12), int), np.zeros((12, 12), int)))  # an empty band
        mean = mean_record(evaluate_pair(p, g, 3, [2], [1]) for p, g in pairs)
        assert mean["miou"] == float(np.mean([miou(p, g, 3)[1] for p, g in pairs]))
        assert mean["trimap_iou"]["2"] == float(np.mean(
            [trimap_iou(p, g, 3, 2) for p, g in pairs[:3]]))
        assert mean["boundary_f"]["1"] == float(np.mean(
            [boundary_fmeasure(p, g, 1) for p, g in pairs]))

    def test_no_records(self):
        with pytest.raises(ValueError, match="no records"):
            mean_record([])


def brute_dilate(mask, dist):
    """True where some set pixel lies within max(|dy|, |dx|) <= dist."""
    ys, xs = np.nonzero(mask)
    yy, xx = np.mgrid[:mask.shape[0], :mask.shape[1]]
    reach = np.maximum(np.abs(yy[..., None] - ys), np.abs(xx[..., None] - xs))
    return (reach <= dist).any(axis=-1)


class TestChebyshevDilate:
    def test_single_seed_growth(self):
        m = np.zeros((7, 7), dtype=bool)
        m[3, 3] = True
        grown = chebyshev_dilate(m, 2)
        ys, xs = np.mgrid[:7, :7]
        npt.assert_array_equal(grown, np.maximum(np.abs(ys - 3), np.abs(xs - 3)) <= 2)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2), (5, 7), (13, 11),
                                       (20, 3), (33, 64)])
    def test_matches_brute_force(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        for density in (0.02, 0.1, 0.5):
            mask = rng.random(shape) < density
            doubling = (2 ** k + j for k in (2, 3, 4, 5) for j in (-1, 0, 1))
            for dist in (0, 1, 2, 3, 5, *doubling, max(shape) - 1, max(shape), max(shape) + 4):
                grown = chebyshev_dilate(mask, dist)
                assert grown.dtype == bool
                npt.assert_array_equal(grown, brute_dilate(mask, dist),
                                       err_msg=f"density {density}, dist {dist}")
            assert chebyshev_dilate(mask, 0) is not mask

    def test_stacked_planes_dilate_one_by_one(self):
        masks = np.random.default_rng(4).random((3, 9, 8)) < 0.1
        npt.assert_array_equal(chebyshev_dilate(masks, 2),
                               [brute_dilate(m, 2) for m in masks])
        # an empty plane between set ones, and reaches past a plane's size:
        # no pixel may cross from one plane into the next
        stack = np.random.default_rng(5).random((5, 10, 17)) < 0.05
        stack[2] = False
        stack[[1, 3], -1, -1] = stack[[1, 3], 0, 0] = True
        for dist in (0, 1, 2, 5, 9, 10, 11, 16, 17, 25):
            npt.assert_array_equal(chebyshev_dilate(stack, dist),
                                   [brute_dilate(m, dist) for m in stack], err_msg=f"dist {dist}")

    def test_a_negative_or_fractional_distance_raises(self):
        mask = np.eye(5, dtype=bool)
        with pytest.raises(ValueError, match=r"^distance must be >= 0, got -1$"):
            chebyshev_dilate(mask, -1)
        for dist in (1.5, 2.0, "2"):
            with pytest.raises(ValueError, match=rf"^distance must be an integer, got {dist!r}$"):
                chebyshev_dilate(mask, dist)
        npt.assert_array_equal(chebyshev_dilate(mask, np.int64(1)), brute_dilate(mask, 1))


def brute_fmeasure(pred, gt, k, tol):
    """Class-matched boundary F with every reach taken by brute_dilate."""
    trans_p, trans_g = transition_mask(pred), transition_mask(gt)
    hits_p = hits_g = 0
    for c in range(k):
        bp, bg = trans_p & (pred == c), trans_g & (gt == c)
        hits_p += np.count_nonzero(bp & brute_dilate(bg, tol))
        hits_g += np.count_nonzero(bg & brute_dilate(bp, tol))
    n_p, n_g = np.count_nonzero(trans_p), np.count_nonzero(trans_g)
    if n_p == 0 or n_g == 0:
        return float(n_p == n_g)
    precision, recall = hits_p / n_p, hits_g / n_g
    return 0.0 if precision + recall == 0 else 2.0 * precision * recall / (precision + recall)


class TestChainedReaches:
    """Bands and tolerances grown one from the last match a dilation of each alone."""

    WIDTHS = [10, 3, 1, 3, 40, 2]  # out of order, duplicated, beyond the image
    TOLERANCES = [5, 0, 3, 0, 40, 1]

    @staticmethod
    def maps():
        rng = np.random.default_rng(12)
        for shape in ((9, 7), (1, 12), (16, 16)):
            gt = np.kron(rng.integers(0, 3, (shape[0], shape[1] // 2 + 1)), [1, 1])[:, :shape[1]]
            yield rng.integers(0, 3, shape), gt

    def test_bands_match_brute_force(self):
        for _, gt in self.maps():
            for w in self.WIDTHS:
                npt.assert_array_equal(boundary_band(gt, w), brute_dilate(transition_mask(gt), w),
                                       err_msg=f"{w}")

    def test_record_matches_brute_force_in_the_order_given(self):
        for pred, gt in self.maps():
            record = evaluate_pair(pred, gt, 3, self.WIDTHS, self.TOLERANCES)
            assert list(record["trimap_iou"]) == ["10", "3", "1", "40", "2"]
            assert list(record["boundary_f"]) == ["5", "0", "3", "40", "1"]
            for t in set(self.TOLERANCES):
                assert record["boundary_f"][str(t)] == brute_fmeasure(pred, gt, 3, t)
            for w in set(self.WIDTHS):
                oracle = _loop_trimap(pred, gt, 3, w)
                assert record["trimap_iou"][str(w)] == (None if np.isnan(oracle) else oracle)

    def test_one_dilation_per_distinct_width_and_tolerance(self, monkeypatch):
        calls = []
        real = metrics.chebyshev_dilate

        def spy(mask, dist):
            calls.append(dist)
            return real(mask, dist)

        monkeypatch.setattr(metrics, "chebyshev_dilate", spy)
        pred, gt = next(self.maps())
        evaluate_pair(pred, gt, 3, **DEFAULTS["eval"])
        assert len(calls) == 8
        calls.clear()
        evaluate_pair(pred, gt, 3, self.WIDTHS, self.TOLERANCES)
        assert sorted(calls) == sorted([1, 1, 1, 7, 30] + [0, 1, 2, 2, 35])

    @pytest.mark.parametrize("widths,tols,message", [
        ([10, 3, 0], [1], r"^band width must be >= 1, got 0$"),
        ([3], [10, 0, -1, 3], r"^tolerance must be >= 0, got -1$"),
    ], ids=["width", "tolerance"])
    def test_a_bad_distance_among_good_ones_raises(self, widths, tols, message):
        pred, gt = next(self.maps())
        with pytest.raises(ValueError, match=message):
            evaluate_pair(pred, gt, 3, widths, tols)
