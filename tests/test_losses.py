import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epl import losses, model
from epl.fields import (
    ACConfig,
    ac_adjoint,
    anisotropic_convolve,
    one_hot,
    standard_convolve,
)
from epl.losses import (
    EXP_ZERO_BELOW,
    LineTarget,
    LossConfig,
    _int_pow,
    cross_entropy_loss,
    dice_loss,
    equipotential_dice,
    equipotential_line_loss,
    line_target,
    point_loss,
)
from line_regions_reference import build_line_regions


def random_energies(seed, shape=(4, 2, 6, 6), top=3.0):
    return np.random.default_rng(seed).uniform(0.0, top, shape)


def gt_energies(seed, k=3, h=8, w=8, kernel=5, kind="A"):
    rng = np.random.default_rng(seed)
    cfg = ACConfig(kernel, kind)
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


class TestPointLoss:
    def test_zero_at_perfect_prediction(self):
        e = random_energies(0)
        for norm in ("l1", "l2"):
            assert point_loss(e, e, LossConfig(norm=norm)).value == 0.0

    def test_hand_sums_single_direction(self):
        gt = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 1, 3)
        pred = np.array([1.0, 2.0, 2.0]).reshape(1, 1, 1, 3)
        assert point_loss(gt, pred, LossConfig(norm="l1")).value == 1.0 / 3
        assert point_loss(gt, pred, LossConfig(norm="l2")).value == 1.0 / 3

    @pytest.mark.parametrize("shape", [(1, 1, 0, 0), (4, 2, 6, 0), (0, 3, 4, 4)])
    def test_empty_energies_are_rejected(self, shape):
        e = np.zeros(shape)
        with pytest.raises(ValueError, match="^energies are empty$"):
            point_loss(e, e, LossConfig())

    def test_norm_is_selectable(self):
        gt = random_energies(1)
        pred = random_energies(2)
        l1 = point_loss(gt, pred, LossConfig(norm="l1")).value
        l2 = point_loss(gt, pred, LossConfig(norm="l2")).value
        delta = gt - pred
        npt.assert_allclose(l1, np.abs(delta).sum() / 4 / gt[0].size)
        npt.assert_allclose(l2, (delta ** 2).sum() / 4 / gt[0].size)

    def test_gradient_formula(self):
        gt = random_energies(5)
        pred = random_energies(6)
        delta = gt - pred
        g2 = point_loss(gt, pred, LossConfig(norm="l2")).gradient
        npt.assert_allclose(g2, -2.0 * delta / 4 / gt[0].size)
        g1 = point_loss(gt, pred, LossConfig(norm="l1")).gradient
        npt.assert_allclose(g1, -np.sign(delta) / 4 / gt[0].size)

    def test_gradient_is_bit_identical_to_the_out_of_place_formula(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            gt = rng.integers(0, 4, (2, 2, 5, 5)).astype(np.float64)
            pred = gt + rng.choice([0.0, 0.25, -1.5], gt.shape) * rng.uniform(0.5, 2.0, gt.shape)
            gt[0, 0, 0, :2], pred[0, 0, 0, :2] = -0.0, (0.0, -0.0)  # delta -0.0 and +0.0
            delta = gt - pred
            scale = 1.0 / gt.shape[0] / delta[0].size
            for norm, old in (("l1", -np.sign(delta) * scale), ("l2", -2.0 * scale * delta)):
                grad = point_loss(gt, pred, LossConfig(norm=norm)).gradient
                npt.assert_array_equal(grad, old)
                npt.assert_array_equal(np.signbit(grad), np.signbit(old))

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_gradients_are_fresh_arrays(self, norm):
        gt, radius = gt_energies(3)
        pred = gt + np.random.default_rng(4).normal(0.0, 0.3, gt.shape)
        cfg = LossConfig(norm=norm, mu_exp=2)
        target = line_target(gt, 2, radius)
        grads = [point_loss(gt, pred, cfg).gradient,
                 point_loss(target.energies, pred, cfg).gradient,
                 equipotential_line_loss(gt, pred, cfg, radius).gradient,
                 equipotential_line_loss(target, pred, cfg, radius).gradient]
        for grad in grads:
            for given in (gt, pred, target.energies):
                assert not np.shares_memory(grad, given)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            point_loss(np.zeros((4, 1, 2, 2)), np.zeros((4, 1, 3, 3)), LossConfig())

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_a_given_out_becomes_the_gradient(self, norm):
        gt, _ = gt_energies(7)
        pred = gt + np.random.default_rng(8).normal(0.0, 0.3, gt.shape)
        fresh = point_loss(gt, pred, LossConfig(norm=norm))
        out = np.full(gt.shape, np.nan)
        lent = point_loss(gt.astype(np.uint8), pred, LossConfig(norm=norm), out=out)
        assert lent.gradient is out and lent.value == fresh.value
        npt.assert_array_equal(out, fresh.gradient)
        npt.assert_array_equal(np.signbit(out), np.signbit(fresh.gradient))
        with pytest.raises(ValueError, match="out must be"):
            point_loss(gt, pred, LossConfig(norm=norm), out=np.empty(gt.shape, np.float32))

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_value_only_call_gives_the_value_and_no_gradient(self, norm):
        for seed in range(3):
            gt, pred, cfg = random_energies(seed), random_energies(seed + 10), LossConfig(norm=norm)
            full = point_loss(gt, pred, cfg)
            value_only = point_loss(gt, pred, cfg, want_grad=False)
            assert value_only.value == full.value and full.gradient is not None
            assert value_only.gradient is None

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

    @pytest.mark.parametrize("mu", [2, 10])
    def test_value_only_call_gives_the_value_and_no_gradient(self, monkeypatch, mu):
        asked = []
        real = losses._line_terms

        def spy(gt, e_pred, mu, radius, want_grad, *rest):
            asked.append(want_grad)
            return real(gt, e_pred, mu, radius, want_grad, *rest)

        monkeypatch.setattr(losses, "_line_terms", spy)
        for seed in range(4):
            gt, radius = gt_energies(seed)
            pred = gt + np.random.default_rng(seed).normal(0.0, 0.5, gt.shape)
            cfg = LossConfig(mu_exp=mu)
            full = equipotential_line_loss(gt, pred, cfg, radius)
            value_only = equipotential_line_loss(gt, pred, cfg, radius, want_grad=False)
            assert value_only.value == full.value
            assert value_only.gradient is None
        assert asked == [True, False] * 4

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
                if mass < 1e-12:
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
    cfg = ACConfig(kernel, kind)
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
    # 64x64 planes at radius 3: two rows to a default block, twelve blocks.
    "ac-blocks": lambda: _ac_case("C", 7, (64, 64), 2),
    # Box-filter energies reach kernel**2, far above radius + 1.
    **{f"sc-k{k}": (lambda k=k: _sc_case(k, (24, 20), k)) for k in (3, 7, 9)},
    "absent-class": lambda: _absent_case(),
}


def _offset_with_arg(mu, arg):
    """A float offset dp from a level whose exp argument -(dp**(mu - 1) * dp) is arg exactly."""
    x0 = (-arg) ** (1.0 / mu)
    dps = x0 + np.arange(-4000, 4000) * math.ulp(x0)
    hits = dps[-(_int_pow(dps, mu - 1) * dps) == arg]
    assert hits.size, (mu, arg)
    return float(hits[0])


@pytest.fixture(params=["one-row", "default", "one-block"])
def block_cap(request, monkeypatch):
    """LINE_BLOCK_BYTES for blocks of one row, as shipped, and all rows in one block."""
    cap = {"one-row": 1, "default": losses.LINE_BLOCK_BYTES, "one-block": 1 << 40}[request.param]
    monkeypatch.setattr(losses, "LINE_BLOCK_BYTES", cap)


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
            # a fresh gradient starts at -0.0: rows of a block without a scored
            # term still take the block's +0.0 sums, as the reference's do
            npt.assert_array_equal(np.signbit(loss.gradient), np.signbit(grad))
            npt.assert_array_equal(equipotential_dice(first, pred, cfg, radius), edc)

    @pytest.mark.usefixtures("block_cap")
    @pytest.mark.parametrize("mu", [2, 4, 10])
    @pytest.mark.parametrize("name", sorted(LINE_CASES))
    def test_matches_reference(self, name, mu):
        gt, pred, radius = LINE_CASES[name]()
        self._assert_matches(gt, pred, mu, radius)

    @pytest.mark.parametrize("mu", [2, 10])
    def test_every_block_of_a_call_reuses_one_set_of_block_arrays(self, monkeypatch, mu):
        # fresh block arrays at every block made the allocator hand memory back
        # and page it in again, block after block
        gt, pred, radius = _ac_case("C", 7, (16, 16), 6)
        monkeypatch.setattr(losses, "LINE_BLOCK_BYTES", 8 * radius * 16 * 16 * 5)  # 5 rows
        seen = []

        def spy(*args, real=losses._score_block):
            seen.append(args[-1])
            return real(*args)

        monkeypatch.setattr(losses, "_score_block", spy)
        equipotential_line_loss(gt, pred, LossConfig(mu_exp=mu), radius)
        assert len(seen) == 5  # 24 rows: four blocks of 5, one of 4
        for work in seen:
            assert len(work) == 4 and all(a.flags.c_contiguous for a in work)
            for a, first in zip(work, seen[0]):
                assert np.shares_memory(a, first)
        monkeypatch.undo()
        self._assert_matches(gt, pred, mu, radius)

    def test_energies_beyond_the_level_tables_are_rejected(self):
        gt, pred, radius = _ac_case("A", 7, (16, 16), 6)
        target = line_target(gt, 2, radius)
        beyond = dataclasses.replace(target, energies=target.energies + 1)
        with pytest.raises(ValueError, match="reach 5, beyond the 5 entries"):
            equipotential_line_loss(beyond, pred, LossConfig(mu_exp=2), radius)

    @pytest.mark.usefixtures("block_cap")
    @pytest.mark.parametrize("mu", [2, 10])
    def test_capped_terms(self, mu):
        gt, pred, radius = _ac_case("A", 7, (16, 16), 6)
        self._assert_matches(gt, gt, mu, radius)  # every term capped
        mixed = pred.copy()
        mixed[1] = gt[1]
        mixed[0, 2] = gt[0, 2]
        self._assert_matches(gt, mixed, mu, radius)

    def test_a_block_mixing_counted_capped_and_skipped_rows(self):
        # 16x16 planes: all 12 rows, at all 3 levels, are one block.  Level 2
        # of direction 1 is sharper than the ground truth (capped, EDC > 1)
        # beside counted terms.  The absent class's rows are skipped at every
        # level, and their non-finite predictions give a NaN term that must
        # stay out of the gradient.
        gt, pred, radius = _ac_case("A", 7, (16, 16), 6, classes=2)
        gt = np.concatenate([gt, np.zeros_like(gt[:, :1])], axis=1)
        pred = np.concatenate([pred, np.ones_like(pred[:, :1])], axis=1)
        pred[1, :2] = 1.3 * gt[1, :2] - 0.6
        pred[0, 2, 3, 4] = pred[2, 2, 0, 0] = np.nan
        assert losses.LINE_BLOCK_BYTES // (8 * radius * 16 * 16) >= pred.shape[0] * pred.shape[1]
        for mu in (2, 10):
            cfg = LossConfig(mu_exp=mu)
            raw, counted, _ = losses._line_terms(gt, pred, mu, radius, want_grad=False)
            assert np.isnan(raw[:, 2]).all() and not counted[:, 2].any()
            assert (raw[1, :2, 1] > 1.0).all() and not counted[1, :2, 1].any()
            assert counted[:, :2].any()
            self._assert_matches(gt, pred, mu, radius)
            loss = equipotential_line_loss(gt, pred, cfg, radius)
            assert math.isfinite(loss.value) and np.isfinite(loss.gradient).all()
            assert not loss.gradient[:, 2].any()

    @pytest.mark.usefixtures("block_cap")
    @pytest.mark.parametrize("inf", [np.inf, -np.inf])
    @pytest.mark.parametrize("mu", [2, 10])
    def test_an_infinite_prediction_in_a_skipped_row(self, inf, mu):
        # Class 2 is absent from the labels, so its rows are skipped at every
        # level; an infinite prediction there must neither warn (the suite
        # turns warnings into errors) nor reach the value or the gradient.
        gt, pred, radius = _ac_case("A", 7, (16, 16), 6, classes=2)
        gt = np.concatenate([gt, np.zeros_like(gt[:, :1])], axis=1)
        pred = np.concatenate([pred, np.full_like(pred[:, :1], 0.5)], axis=1)
        cfg = LossConfig(mu_exp=mu)
        finite = equipotential_line_loss(gt, pred, cfg, radius)
        pred[:, 2, 0, 0] = inf
        loss = equipotential_line_loss(gt, pred, cfg, radius)
        assert loss.value == finite.value
        npt.assert_array_equal(loss.gradient, finite.gradient)
        assert not loss.gradient[:, 2].any()

    @pytest.mark.parametrize("mu,arg", [(2, EXP_ZERO_BELOW),
                                        (10, math.nextafter(EXP_ZERO_BELOW, 0.0))])
    def test_exp_threshold_lanes(self, monkeypatch, mu, arg):
        # mu=2 reaches an exp argument of exactly EXP_ZERO_BELOW and mu=10 one
        # ulp above it; both also see lanes whose exp is subnormal.  A 1024 B
        # block holds one 64-pixel row at both levels: block 0 underflows on
        # every lane at every level (the masked exp) and block 1 on none (its
        # short cut); blocks 6-8 mix both.
        gt, _, radius = _ac_case("A", 5, (8, 8), 5)
        rng = np.random.default_rng(mu)
        pred = rng.uniform(0.5, 2.5, gt.shape)  # |dp| < 746**(1/mu) at levels 1 and 2
        pred[0, 0] = 60.0  # block 0: every lane underflows
        at = _offset_with_arg(mu, arg)
        subnormal = 745.0 ** (1.0 / mu)  # exp(-745) is the least subnormal
        lanes = pred[2].reshape(3, -1)  # blocks 6 to 8
        lanes[:, 0::4] = 1 - at  # at the threshold at level 1
        lanes[:, 1::4] = 2 - at  # ... and at level 2
        lanes[:, 2::8] = 1 - subnormal
        lanes[:, 3::8] = 2 + 40.0
        monkeypatch.setattr(losses, "LINE_BLOCK_BYTES", 2 * 8 * 8 * 8)
        assert losses._block_rows(radius, 8 * 8) == 1
        rows = pred.reshape(-1, 64)
        args = np.stack([-(_int_pow(rows - tau, mu - 1) * (rows - tau)) for tau in (1, 2)])
        under = args <= EXP_ZERO_BELOW
        assert under[:, 0].all() and not under[:, 1].any()
        assert under[:, 6:9].any() and not under[:, 6:9].all()
        tiny = np.exp(args)
        assert (args == arg).any() and ((tiny > 0) & (tiny < np.finfo(float).tiny)).any()
        self._assert_matches(gt, pred, mu, radius)


class TestLineLossAddInto:
    """With add_to, the line loss adds its weighted gradient into the caller's array."""

    @pytest.mark.parametrize("splitter", ["A", "C"])
    @pytest.mark.parametrize("mu", [2, 10])
    def test_equals_base_plus_the_weighted_fresh_gradient(self, mu, splitter):
        gt, pred, radius = _ac_case(splitter, 7, (16, 16), 3)
        pred[:, 1] = gt[:, 1]  # capped terms: whole planes without gradient
        cfg = LossConfig(mu_exp=mu)
        fresh = equipotential_line_loss(gt, pred, cfg, radius)
        assert (fresh.gradient == 0.0).any() and (fresh.gradient != 0.0).any()
        base = np.random.default_rng(mu).normal(0.0, 1e-3, pred.shape)
        base[:, 1] = -0.0
        base[:, 0, 0, :2] = (-0.0, 0.0)  # over nonzero gradient too
        for weight in (1.0, 0.01, 0.3):
            add_to = base.copy()
            loss = equipotential_line_loss(gt, pred, cfg, radius, weight=weight, add_to=add_to)
            assert loss.gradient is add_to and loss.value == fresh.value
            for got, expected in ((add_to, base + weight * fresh.gradient),
                                  (equipotential_line_loss(gt, pred, cfg, radius,
                                                           weight=weight).gradient,
                                   weight * fresh.gradient)):
                npt.assert_array_equal(got, expected)
                npt.assert_array_equal(np.signbit(got), np.signbit(expected))

    def test_value_only_call_leaves_it_untouched(self):
        gt, pred, radius = _ac_case("A", 5, (8, 8), 1)
        add_to = np.full(pred.shape, 7.0)
        loss = equipotential_line_loss(gt, pred, LossConfig(), radius, want_grad=False,
                                       weight=0.5, add_to=add_to)
        assert loss.gradient is None and (add_to == 7.0).all()

    @pytest.mark.parametrize("bad", ["shape", "dtype", "strided", "list"])
    def test_rejects_an_array_it_cannot_add_into(self, bad):
        gt, pred, radius = _ac_case("A", 5, (8, 8), 1)
        add_to = {"shape": np.zeros(pred.shape[:-1] + (9,)),
                  "dtype": np.zeros(pred.shape, dtype=np.float32),
                  "strided": np.zeros(pred.shape[:-1] + (16,))[..., ::2],
                  "list": np.zeros(pred.shape).tolist()}[bad]
        with pytest.raises(ValueError, match="add_to must be a C-contiguous float64 array"):
            equipotential_line_loss(gt, pred, LossConfig(), radius, add_to=add_to)


class TestLineTarget:
    def test_compact_ground_truth(self):
        gt, _, radius = _sc_case(9, (24, 20), 0)
        assert gt.max() == 81
        target = line_target(gt, 10, radius)
        assert isinstance(target, LineTarget)
        assert target.energies.dtype == np.uint8
        npt.assert_array_equal(target.energies, gt)
        assert target.luts.shape == (4, 82)
        assert target.mass.shape == target.c_norm.shape == (4, 3)

    @pytest.mark.parametrize("mu", [2, 10])
    @pytest.mark.parametrize("name", sorted(LINE_CASES))
    def test_c_norm_is_positive_exactly_at_the_levels_with_a_line(self, name, mu):
        gt, _, radius = LINE_CASES[name]()
        target = line_target(gt, mu, radius)
        rows = gt.reshape(-1, gt.shape[2] * gt.shape[3])
        present = np.array([[(row == tau).any() for row in rows] for tau in range(1, radius + 1)])
        npt.assert_array_equal(target.c_norm > 0, present)
        assert (target.c_norm[present] >= 1.0).all()
        assert (target.c_norm[~present] == 0.0).all()

    # a radius past the codes' dtype: a level compared in that dtype would
    # wrap round to 0 and find the zero codes
    @pytest.mark.parametrize("dtype, radius", [(np.uint8, 1), (np.uint8, 4), (np.uint8, 255),
                                               (np.uint8, 300), (np.uint16, 4),
                                               (np.uint16, 65537), (np.int64, 3)])
    def test_levels_are_found_as_a_float_compare_finds_them(self, dtype, radius):
        rng = np.random.default_rng(radius)
        gt = rng.integers(0, 6, (2, 3, 4, 5)).astype(dtype)
        gt[0, 1] = 0  # a plane with no line at any level
        gt[1, 2, 0, 0] = min(radius, 5)  # one pixel on the outermost level inside the codes
        target = line_target(gt, 2, radius)
        levels = np.arange(1, radius + 1, dtype=np.float64)[:, None, None]
        present = (gt.reshape(6, 20) == levels).any(axis=2)
        npt.assert_array_equal(target.c_norm != 0, present)
        assert (target.c_norm[present] >= 1.0).all()

    @pytest.mark.parametrize("radius", [0, -1, 2.0, True, None])
    def test_rejects_a_radius_that_is_not_a_positive_integer(self, radius):
        gt, pred, _ = _ac_case("A", 5, (8, 8), 0)
        with pytest.raises(ValueError, match=rf"radius must be an integer >= 1, got {radius!r}$"):
            line_target(gt, 10, radius)
        with pytest.raises(ValueError, match=rf"radius must be an integer >= 1, got {radius!r}$"):
            equipotential_line_loss(gt, pred, LossConfig(), radius)

    @pytest.mark.parametrize("dtype", [float, np.int16])
    def test_rejects_negative_energies(self, dtype):
        gt = np.array([-2, 0, 1, 300], dtype=dtype).reshape(1, 1, 2, 2)
        with pytest.raises(ValueError, match=r"must lie in \[0, 65535\], got \[-2, 300\]"):
            line_target(gt, 2, 1)
        with pytest.raises(ValueError, match="must lie in"):
            equipotential_line_loss(gt, np.zeros(gt.shape), LossConfig(mu_exp=2), 1)

    def test_energies_up_to_the_span_limit(self):
        gt = np.array([0, 1, 300, 65535]).reshape(1, 1, 2, 2)
        target = line_target(gt, 2, 1)
        assert target.energies.dtype == np.uint16
        assert target.luts.shape == (1, 65536)
        npt.assert_array_equal(target.energies, gt)
        with pytest.raises(ValueError, match=r"must lie in \[0, 65535\], got \[1, 65536\]"):
            line_target(gt + 1, 2, 1)

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
        with pytest.raises(ValueError, match=r"got mu=10, radius=2\.0$"):
            equipotential_line_loss(target, pred, LossConfig(), float(radius))
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

    def test_value_only_call_gives_the_value_and_no_gradient(self):
        rng = np.random.default_rng(2)
        lab = rng.integers(0, 3, (7, 5))
        raw = rng.uniform(0.0, 1.0, (3, 7, 5))
        raw[0, 0, 0] = 0.0  # a clamped pixel
        probs = raw / raw.sum(axis=0)
        full = cross_entropy_loss(probs, lab)
        value_only = cross_entropy_loss(probs, lab, want_grad=False)
        assert value_only.value == full.value and full.gradient is not None
        assert value_only.gradient is None

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(np.zeros((2, 3, 3)), np.zeros((4, 4), dtype=int))

    @pytest.mark.parametrize("labels", [np.zeros((3, 3)), np.zeros((3, 3), dtype=bool)],
                             ids=["float", "bool"])
    def test_a_non_integer_label_map_is_rejected(self, labels):
        with pytest.raises(ValueError, match=f"label map must be integer, got dtype {labels.dtype}"):
            cross_entropy_loss(np.full((2, 3, 3), 0.5), labels)

    def test_an_empty_label_map_is_rejected(self):
        with pytest.raises(ValueError, match="label map is empty"):
            cross_entropy_loss(np.zeros((2, 0, 3)), np.zeros((0, 3), dtype=int))


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
    """The weighted total CE + lambda1 * point + lambda2 * line, formed by model.objective."""

    @staticmethod
    def scene(seed=0, k=3, size=12):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, k, (size, size))
        raw = rng.uniform(0.05, 1.0, (k, size, size))
        return raw / raw.sum(axis=0), labels

    @staticmethod
    def train_cfg(converter="ac", **loss):
        return model.TrainConfig(loss=LossConfig(mu_exp=2, **loss),
                                 ac=ACConfig(kernel_size=5, converter=converter))

    def test_zero_weights_equal_ce(self):
        probs, labels = self.scene()
        terms, dprobs = model.objective(probs, labels, self.train_cfg(lambda1=0.0, lambda2=0.0))
        ce = cross_entropy_loss(probs, labels)
        assert terms == {"ce": ce.value, "point": 0.0, "line": 0.0, "total": ce.value}
        npt.assert_array_equal(dprobs, ce.gradient)

    def test_weighted_arithmetic(self):
        probs, labels = self.scene(seed=1)
        cfg = self.train_cfg(lambda1=0.1, lambda2=0.01)
        terms, _ = model.objective(probs, labels, cfg)
        e_gt = anisotropic_convolve(one_hot(labels, 3), cfg.ac)
        e_pred = anisotropic_convolve(probs, cfg.ac)
        assert terms["ce"] == cross_entropy_loss(probs, labels).value
        assert terms["point"] == point_loss(e_gt, e_pred, cfg.loss).value
        assert terms["line"] == equipotential_line_loss(e_gt, e_pred, cfg.loss, 2).value
        assert terms["total"] == terms["ce"] + 0.1 * terms["point"] + 0.01 * terms["line"]

    def test_default_weights(self):
        cfg = LossConfig()
        assert cfg.lambda1 == 0.1 and cfg.lambda2 == 0.01
        assert model.TrainConfig().loss == cfg

    def test_gradient_combination(self):
        probs, labels = self.scene(seed=2)
        ce = cross_entropy_loss(probs, labels)
        for converter in ("ac", "sc"):
            for l1, l2 in ((0.5, 0.25), (0.5, 0.0), (0.0, 0.25)):
                cfg = self.train_cfg(converter, lambda1=l1, lambda2=l2)
                terms, dprobs = model.objective(probs, labels, cfg)
                if converter == "sc":
                    e_gt = standard_convolve(one_hot(labels, 3), 5)[None]
                    e_pred = standard_convolve(probs, 5)[None]
                else:
                    e_gt = anisotropic_convolve(one_hot(labels, 3), cfg.ac)
                    e_pred = anisotropic_convolve(probs, cfg.ac)
                e_grad = (l1 * point_loss(e_gt, e_pred, cfg.loss).gradient
                          + l2 * equipotential_line_loss(e_gt, e_pred, cfg.loss, 2).gradient)
                if converter == "sc":
                    adjoint = standard_convolve(e_grad[0], 5)
                else:
                    adjoint = ac_adjoint(e_grad, cfg.ac)
                npt.assert_array_equal(dprobs, ce.gradient + adjoint)
                # a zero-weight term is not evaluated and reads 0.0
                assert (terms["point"] == 0.0) == (l1 == 0.0)
                assert (terms["line"] == 0.0) == (l2 == 0.0)


class TestClassPermutationInvariance:
    def test_all_losses_invariant(self):
        rng = np.random.default_rng(4)
        gt, radius = gt_energies(9, k=3)
        pred = gt + rng.normal(0, 0.3, gt.shape)
        perm = rng.permutation(3)
        cfg = LossConfig(mu_exp=2)
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
