import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epl.fields import ACConfig, anisotropic_convolve, make_splitter, one_hot, standard_convolve
from epl.losses import (
    EMPTY_LEVEL_EPS,
    LineTarget,
    LossConfig,
    LossValue,
    _int_pow,
    build_line_regions,
    combine_losses,
    cross_entropy_loss,
    dice_loss,
    equipotential_dice,
    equipotential_line_loss,
    line_target,
    point_loss,
)


def random_energies(seed, shape=(4, 2, 6, 6), top=3.0):
    return np.random.default_rng(seed).uniform(0.0, top, shape)


def gt_energies(seed, k=3, h=8, w=8, kernel=5, kind="A"):
    rng = np.random.default_rng(seed)
    cfg = ACConfig(kernel, make_splitter(kind))
    labels = rng.integers(0, k, (h, w))
    return anisotropic_convolve(one_hot(labels, k), cfg), cfg.radius


class TestLossConfig:
    def test_rejects_odd_mu(self):
        with pytest.raises(ValueError):
            LossConfig(mu_exp=3)
        with pytest.raises(ValueError):
            LossConfig(mu_exp=1)

    def test_rejects_negative_weights_and_bad_enums(self):
        with pytest.raises(ValueError):
            LossConfig(lambda1=-0.1)
        with pytest.raises(ValueError):
            LossConfig(norm="l3")
        with pytest.raises(ValueError):
            LossConfig(reduction="max")


class TestPointLoss:
    def test_zero_at_perfect_prediction(self):
        e = random_energies(0)
        for norm in ("l1", "l2"):
            assert point_loss(e, e, LossConfig(norm=norm)).value == 0.0

    def test_hand_sums_single_direction(self):
        gt = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 1, 3)
        pred = np.array([1.0, 2.0, 2.0]).reshape(1, 1, 1, 3)
        assert point_loss(gt, pred, LossConfig(norm="l1", reduction="sum")).value == 1.0
        assert point_loss(gt, pred, LossConfig(norm="l2", reduction="sum")).value == 1.0

    def test_norm_is_selectable(self):
        gt = random_energies(1)
        pred = random_energies(2)
        l1 = point_loss(gt, pred, LossConfig(norm="l1", reduction="sum")).value
        l2 = point_loss(gt, pred, LossConfig(norm="l2", reduction="sum")).value
        delta = gt - pred
        npt.assert_allclose(l1, np.abs(delta).sum() / 4)
        npt.assert_allclose(l2, (delta ** 2).sum() / 4)

    def test_mean_reduction_scale(self):
        gt = random_energies(3)
        pred = random_energies(4)
        cfg_sum = LossConfig(norm="l2", reduction="sum")
        cfg_mean = LossConfig(norm="l2", reduction="mean")
        ratio = point_loss(gt, pred, cfg_sum).value / point_loss(gt, pred, cfg_mean).value
        npt.assert_allclose(ratio, gt[0].size)

    def test_gradient_formula(self):
        gt = random_energies(5)
        pred = random_energies(6)
        delta = gt - pred
        g2 = point_loss(gt, pred, LossConfig(norm="l2", reduction="sum")).gradient
        npt.assert_allclose(g2, -2.0 * delta / 4)
        g1 = point_loss(gt, pred, LossConfig(norm="l1", reduction="sum")).gradient
        npt.assert_allclose(g1, -np.sign(delta) / 4)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            point_loss(np.zeros((4, 1, 2, 2)), np.zeros((4, 1, 3, 3)), LossConfig())

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_nonnegative_and_zero_iff_equal(self, seed):
        gt = random_energies(seed)
        pred = random_energies(seed + 1)
        for norm in ("l1", "l2"):
            v = point_loss(gt, pred, LossConfig(norm=norm)).value
            assert v >= 0.0
            if not np.array_equal(gt, pred):
                assert v > 0.0


class TestLineRegions:
    def test_identity_on_integer_prediction(self):
        gt, radius = gt_energies(0)
        plane = gt[0, 1]
        regions = build_line_regions(plane, plane, radius)
        for tau in range(1, radius + 1):
            npt.assert_array_equal(
                np.sort(regions.levels[tau - 1]), np.sort(regions.pred_levels[tau - 1])
            )
        npt.assert_array_equal(np.sort(regions.exterior), np.sort(regions.pred_exterior))
        npt.assert_array_equal(np.sort(regions.interior), np.sort(regions.pred_interior))

    def test_counting_case(self):
        gt = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 2.0]])
        pred = np.random.default_rng(0).random((2, 3))
        regions = build_line_regions(gt, pred, radius=2)
        assert len(regions.pred_exterior) == 2
        assert len(regions.pred_levels[0]) == 3
        assert len(regions.pred_levels[1]) == 1
        assert len(regions.levels[1]) == 1

    def test_all_zero_plane(self):
        gt = np.zeros((3, 3))
        regions = build_line_regions(gt, np.random.default_rng(1).random((3, 3)), 2)
        assert all(lv.size == 0 for lv in regions.levels)
        assert all(lv.size == 0 for lv in regions.pred_levels)
        assert regions.exterior.size == 9

    def test_stable_tie_break_on_equal_energies(self):
        gt = np.array([[0.0, 1.0, 1.0, 2.0]])
        pred = np.zeros((1, 4))  # all ties: ascending order must be raster order
        regions = build_line_regions(gt, pred, radius=1)
        npt.assert_array_equal(regions.pred_exterior, [0])
        npt.assert_array_equal(regions.pred_levels[0], [1, 2])
        npt.assert_array_equal(regions.pred_interior, [3])

    def test_rejects_non_integer_gt(self):
        with pytest.raises(ValueError):
            build_line_regions(np.array([[0.5]]), np.array([[0.5]]), 1)

    def test_rejects_out_of_range_gt(self):
        with pytest.raises(ValueError):
            build_line_regions(np.array([[5.0]]), np.array([[0.0]]), 1)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), radius=st.integers(1, 4))
    def test_equal_counts_and_partition(self, seed, radius):
        rng = np.random.default_rng(seed)
        shape = (rng.integers(2, 8), rng.integers(2, 8))
        gt = rng.integers(0, radius + 2, shape).astype(float)
        pred = rng.random(shape)
        regions = build_line_regions(gt, pred, radius)
        union = [regions.exterior, regions.interior]
        for tau in range(1, radius + 1):
            assert len(regions.levels[tau - 1]) == len(regions.pred_levels[tau - 1])
            union.append(regions.levels[tau - 1])
        flat = np.concatenate(union)
        npt.assert_array_equal(np.sort(flat), np.arange(gt.size))
        pred_flat = np.concatenate(
            [regions.pred_exterior, regions.pred_interior, *regions.pred_levels]
        )
        npt.assert_array_equal(np.sort(pred_flat), np.arange(gt.size))


class TestLineLoss:
    def test_zero_at_perfect_prediction_with_unit_edc(self):
        gt, radius = gt_energies(1)
        cfg = LossConfig(mu_exp=2)
        loss = equipotential_line_loss(gt, gt, cfg, radius)
        assert abs(loss.value) < 1e-12
        edc = equipotential_dice(gt, gt, cfg, radius)
        assert np.nanmax(np.abs(edc - 1.0)) < 1e-6

    def test_scalar_transcription_1x4(self):
        gt = np.array([0.0, 1.0, 2.0, 3.0]).reshape(1, 1, 1, 4)
        pred = np.array([0.0, 2.0, 1.0, 3.0]).reshape(1, 1, 1, 4)
        mu = 2
        expected = 0.0
        for tau in (1, 2):
            d = [math.exp(-((g - tau) ** mu)) for g in (0, 1, 2, 3)]
            dh = [math.exp(-((p - tau) ** mu)) for p in (0, 2, 1, 3)]
            inter = sum(a * b for a, b in zip(d, dh))
            c = sum(d) / sum(a * a for a in d)
            edc = 2.0 * c * inter / (sum(d) + sum(dh))
            expected += 1.0 - edc
        value = equipotential_line_loss(gt, pred, LossConfig(mu_exp=mu), radius=2).value
        npt.assert_allclose(value, expected, rtol=1e-12)

    def test_empty_levels_are_skipped(self):
        gt = np.zeros((1, 1, 4, 4))
        pred = np.random.default_rng(0).random((1, 1, 4, 4))
        loss = equipotential_line_loss(gt, pred, LossConfig(mu_exp=2), radius=2)
        assert loss.value == 0.0
        assert not loss.gradient.any()
        edc = equipotential_dice(gt, pred, LossConfig(mu_exp=2), radius=2)
        assert np.isnan(edc).all()

    def test_rejects_non_integer_gt(self):
        pred = np.zeros((1, 1, 2, 2))
        with pytest.raises(ValueError):
            equipotential_line_loss(pred + 0.5, pred, LossConfig(), radius=1)

    def test_default_exponent_is_ten(self):
        # The large default suits clean shape datasets; street-scene style
        # runs favour the small setting (2), both are in the ablation list.
        assert LossConfig().mu_exp == 10

    def test_loss_decreases_as_prediction_approaches_gt(self):
        gt, radius = gt_energies(2)
        rng = np.random.default_rng(3)
        noise = rng.normal(0, 1.0, gt.shape)
        cfg = LossConfig(mu_exp=2)
        far = equipotential_line_loss(gt, gt + noise, cfg, radius).value
        near = equipotential_line_loss(gt, gt + 0.1 * noise, cfg, radius).value
        assert near < far

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_nonnegative_with_edc_in_unit_range(self, seed):
        gt, radius = gt_energies(seed)
        rng = np.random.default_rng(seed + 7)
        pred = gt + rng.normal(0, 0.5, gt.shape)
        cfg = LossConfig(mu_exp=2)
        assert equipotential_line_loss(gt, pred, cfg, radius).value >= -1e-12
        edc = equipotential_dice(gt, pred, cfg, radius)
        finite = edc[~np.isnan(edc)]
        assert (finite >= 0.0).all() and (finite <= 1.0 + 1e-9).all()


def reference_line_loss(gt, pred, mu, radius):
    """One (direction, class, level) plane at a time: (value, gradient, EDC).

    This is the per-term loop the blocked line loss replaced, kept as the
    reference it must match bit for bit.
    """
    gt = np.asarray(gt, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    n_dirs, n_classes = gt.shape[:2]
    total = 0.0
    grad = np.zeros_like(pred)
    edc_out = np.full((n_dirs, n_classes, radius), np.nan)
    for si in range(n_dirs):
        for ci in range(n_classes):
            g = gt[si, ci]
            p = pred[si, ci]
            for tau in range(1, radius + 1):
                if not (g == tau).any():
                    continue
                d = np.exp(-_int_pow(g - tau, mu))
                mass = d.sum()
                if mass < EMPTY_LEVEL_EPS:
                    continue
                c_norm = mass / (d * d).sum()
                dp = p - tau
                dp_pow = _int_pow(dp, mu - 1)
                d_hat = np.exp(-(dp_pow * dp))
                inter = (d * d_hat).sum()
                denom = mass + d_hat.sum()
                edc = 2.0 * c_norm * inter / denom
                edc_out[si, ci, tau - 1] = min(edc, 1.0)
                if edc >= 1.0:
                    continue
                total += 1.0 - edc
                coeff = 2.0 * c_norm / (denom * denom)
                grad[si, ci] += coeff * (d * denom - inter) * mu * dp_pow * d_hat
    scale = 1.0 / n_dirs
    return total * scale, grad * scale, edc_out


def _ac_case(kind, kernel, shape, seed, classes=3):
    rng = np.random.default_rng(seed)
    cfg = ACConfig(kernel, make_splitter(kind))
    labels = rng.integers(0, classes, shape)
    probs = rng.dirichlet(np.ones(classes), shape).transpose(2, 0, 1)
    return (anisotropic_convolve(one_hot(labels, classes), cfg),
            anisotropic_convolve(probs, cfg), cfg.radius)


def _sc_case(kernel, shape, seed):
    rng = np.random.default_rng(seed)
    labels = np.zeros(shape, dtype=int)
    labels[2:, shape[1] // 2:] = 1
    labels[: shape[0] // 2, :3] = 2
    probs = rng.dirichlet(np.ones(3), shape).transpose(2, 0, 1)
    return (standard_convolve(one_hot(labels, 3), kernel)[None],
            standard_convolve(probs, kernel)[None], kernel // 2)


def _absent_case():
    """A third class that never occurs: its planes have no line at any level."""
    gt, pred, radius = _ac_case("A", 7, (12, 12), 3, classes=2)
    return (np.concatenate([gt, np.zeros_like(gt[:, :1])], axis=1),
            np.concatenate([pred, np.ones_like(pred[:, :1])], axis=1), radius)


LINE_CASES = {
    **{f"ac-{kind}-k{k}": (lambda kind=kind, k=k: _ac_case(kind, k, (18, 18), k))
       for kind in "AC" for k in (3, 7, 9)},
    "ac-non-square": lambda: _ac_case("A", 5, (7, 23), 1),
    # 64x64 planes fill a whole block; more planes than one block holds.
    "ac-blocks": lambda: _ac_case("C", 7, (64, 64), 2),
    # Box-filter energies reach kernel**2, far above radius + 1.
    **{f"sc-k{k}": (lambda k=k: _sc_case(k, (24, 20), k)) for k in (3, 7, 9)},
    "absent-class": lambda: _absent_case(),
    "negative": lambda: (
        np.random.default_rng(4).integers(-3, 5, (2, 3, 6, 9)).astype(float),
        np.random.default_rng(5).normal(1.0, 2.0, (2, 3, 6, 9)),
        3,
    ),
}




class TestLineLossReference:
    """The blocked line loss is bit-identical to the per-term loop."""

    def _assert_matches(self, gt, pred, mu, radius):
        cfg = LossConfig(mu_exp=mu)
        value, grad, edc = reference_line_loss(gt, pred, mu, radius)
        target = line_target(gt, mu, radius)
        for first in (gt, target):
            loss = equipotential_line_loss(first, pred, cfg, radius)
            assert type(loss.value) is float
            assert loss.value == value
            npt.assert_array_equal(loss.gradient, grad)
            npt.assert_array_equal(equipotential_dice(first, pred, cfg, radius), edc)

    @pytest.mark.parametrize("mu", [2, 10])
    @pytest.mark.parametrize("name", sorted(LINE_CASES))
    def test_matches_reference(self, name, mu):
        gt, pred, radius = LINE_CASES[name]()
        self._assert_matches(gt, pred, mu, radius)

    @pytest.mark.parametrize("mu", [2, 10])
    def test_capped_terms(self, mu):
        gt, pred, radius = _ac_case("A", 7, (16, 16), 6)
        self._assert_matches(gt, gt, mu, radius)  # every term capped
        mixed = pred.copy()
        mixed[1] = gt[1]
        mixed[0, 2] = gt[0, 2]
        self._assert_matches(gt, mixed, mu, radius)


class TestLineTarget:
    def test_compact_ground_truth(self):
        gt, _, radius = _sc_case(9, (24, 20), 0)
        assert gt.max() == 81
        target = line_target(gt, 10, radius)
        assert isinstance(target, LineTarget)
        assert target.energies.dtype == np.uint8
        npt.assert_array_equal(target.energies, gt)
        assert target.present.shape == target.mass.shape == target.sq_mass.shape == (4, 3)

    def test_negative_energies_use_a_signed_type(self):
        gt = np.array([-2, 0, 1, 300], dtype=float).reshape(1, 1, 2, 2)
        target = line_target(gt, 2, 1)
        assert target.energies.dtype == np.int16
        npt.assert_array_equal(target.energies, gt)

    def test_rejects_bad_ground_truth(self):
        with pytest.raises(ValueError):
            line_target(np.full((1, 1, 2, 2), 0.5), 2, 1)
        with pytest.raises(ValueError):
            line_target(np.full((1, 1, 2, 2), np.inf), 2, 1)
        with pytest.raises(ValueError):
            line_target(np.zeros((1, 2, 2)), 2, 1)
        with pytest.raises(ValueError):
            line_target(np.array([0.0, 1e9]).reshape(1, 1, 1, 2), 2, 1)
        with pytest.raises(ValueError):
            line_target(np.zeros((1, 1, 2, 2)), 3, 1)

    def test_target_must_match_the_call(self):
        gt, pred, radius = _ac_case("A", 5, (8, 8), 0)
        target = line_target(gt, 10, radius)
        with pytest.raises(ValueError):
            equipotential_line_loss(target, pred, LossConfig(mu_exp=2), radius)
        with pytest.raises(ValueError):
            equipotential_line_loss(target, pred, LossConfig(), radius + 1)
        with pytest.raises(ValueError):
            equipotential_dice(target, pred[:, :, :4], LossConfig(), radius)


class TestCrossEntropy:
    def test_one_hot_prediction_is_zero(self):
        lab = np.random.default_rng(0).integers(0, 3, (5, 5))
        assert cross_entropy_loss(one_hot(lab, 3), lab).value == 0.0

    def test_uniform_two_class(self):
        lab = np.zeros((4, 4), dtype=int)
        value = cross_entropy_loss(np.full((2, 4, 4), 0.5), lab).value
        npt.assert_allclose(value, math.log(2.0))

    def test_matches_pixel_loop_oracle(self):
        rng = np.random.default_rng(1)
        lab = rng.integers(0, 3, (6, 6))
        raw = rng.uniform(0.01, 1.0, (3, 6, 6))
        pred = raw / raw.sum(axis=0)
        expected = 0.0
        for y in range(6):
            for x in range(6):
                expected -= math.log(max(pred[lab[y, x], y, x], 1e-12))
        npt.assert_allclose(cross_entropy_loss(pred, lab).value, expected / 36)

    def test_clamp_keeps_value_and_gradient_finite(self):
        lab = np.zeros((2, 2), dtype=int)
        pred = np.zeros((2, 2, 2))
        pred[1] = 1.0  # true class has probability exactly 0
        out = cross_entropy_loss(pred, lab)
        assert np.isfinite(out.value)
        assert np.isfinite(out.gradient).all()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(np.zeros((2, 3, 3)), np.zeros((4, 4), dtype=int))


class TestDice:
    def test_perfect_binary_match(self):
        lab = np.random.default_rng(2).integers(0, 3, (6, 6))
        field = one_hot(lab, 3)
        assert dice_loss(field, field).value == 0.0

    def test_zero_prediction_on_nonempty_gt(self):
        gt = one_hot(np.ones((4, 4), dtype=int), 2)
        gt[0] = 0.0  # only class 1 populated
        assert dice_loss(np.zeros_like(gt), gt).value == 1.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        lab = rng.integers(0, 3, (5, 5))
        gt = one_hot(lab, 3)
        pred = rng.uniform(0, 1, gt.shape)
        coeffs = []
        for c in range(3):
            den = pred[c].sum() + gt[c].sum()
            if den < 1e-12:
                continue
            coeffs.append(2.0 * (pred[c] * gt[c]).sum() / den)
        npt.assert_allclose(dice_loss(pred, gt).value, 1.0 - np.mean(coeffs))

    def test_empty_class_skipped(self):
        gt = np.zeros((3, 4, 4))
        gt[1, :2] = 1.0
        pred = np.zeros((3, 4, 4))
        pred[1, :2] = 1.0  # class 0 and 2 empty everywhere
        assert dice_loss(pred, gt).value == 0.0


class TestCombine:
    def test_zero_weights_equal_ce(self):
        ce = LossValue(0.7, np.ones((2, 2, 2)))
        out = combine_losses(ce, LossValue(5.0), LossValue(9.0), LossConfig(lambda1=0, lambda2=0))
        assert out.value == 0.7

    def test_weighted_arithmetic(self):
        cfg = LossConfig(lambda1=0.1, lambda2=0.01)
        out = combine_losses(LossValue(1.0), LossValue(2.0), LossValue(3.0), cfg)
        npt.assert_allclose(out.value, 1.23)

    def test_default_weights(self):
        cfg = LossConfig()
        assert cfg.lambda1 == 0.1 and cfg.lambda2 == 0.01

    def test_gradient_combination(self):
        g = np.ones((2, 2, 2))
        cfg = LossConfig(lambda1=0.5, lambda2=0.25)
        out = combine_losses(LossValue(1.0, g), LossValue(1.0, 2 * g), LossValue(1.0, 4 * g), cfg)
        npt.assert_allclose(out.gradient, g * (1 + 0.5 * 2 + 0.25 * 4))
        partial = combine_losses(LossValue(1.0, g), LossValue(1.0), LossValue(1.0, g), cfg)
        assert partial.gradient is None


class TestClassPermutationInvariance:
    def test_all_losses_invariant(self):
        rng = np.random.default_rng(4)
        gt, radius = gt_energies(9, k=3)
        pred = gt + rng.normal(0, 0.3, gt.shape)
        perm = rng.permutation(3)
        cfg = LossConfig(mu_exp=2, reduction="sum")
        npt.assert_allclose(
            point_loss(gt, pred, cfg).value,
            point_loss(gt[:, perm], pred[:, perm], cfg).value,
        )
        npt.assert_allclose(
            equipotential_line_loss(gt, pred, cfg, radius).value,
            equipotential_line_loss(gt[:, perm], pred[:, perm], cfg, radius).value,
        )
        lab = rng.integers(0, 3, (6, 6))
        raw = rng.uniform(0.01, 1, (3, 6, 6))
        probs = raw / raw.sum(axis=0)
        inv = np.empty(3, dtype=int)
        inv[perm] = np.arange(3)
        npt.assert_allclose(
            cross_entropy_loss(probs, lab).value,
            cross_entropy_loss(probs[perm], inv[lab]).value,
        )
        field = one_hot(lab, 3)
        soft = rng.uniform(0, 1, field.shape)
        npt.assert_allclose(
            dice_loss(soft, field).value, dice_loss(soft[perm], field[perm]).value
        )
