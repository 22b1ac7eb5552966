from dataclasses import asdict

import numpy as np
import pytest

from epl.gradcheck import (
    LOSS_KINDS,
    GradReport,
    finite_diff_gradient,
    run_gradcheck,
)
from epl.losses import LossConfig, point_loss


class TestFiniteDiff:
    def test_sum_of_squares(self):
        x = np.full((2, 2), 3.0)
        fd = finite_diff_gradient(lambda a: float((a ** 2).sum()), x, (0, 1), step=1e-4)
        assert abs(fd - 6.0) < 1e-6

    def test_constant_loss(self):
        x = np.ones((3, 3))
        assert finite_diff_gradient(lambda a: 1.5, x, (1, 1)) == 0.0

    def test_point_l2_matches_analytic(self):
        rng = np.random.default_rng(0)
        gt = rng.uniform(0, 3, (4, 2, 5, 5))
        pred = rng.uniform(0, 3, (4, 2, 5, 5))
        cfg = LossConfig(norm="l2")
        analytic = point_loss(gt, pred, cfg).gradient
        for _ in range(10):
            coord = tuple(rng.integers(0, s) for s in pred.shape)
            fd = finite_diff_gradient(lambda x: point_loss(gt, x, cfg).value, pred, coord)
            a = analytic[coord]
            assert abs(a - fd) / max(abs(a), abs(fd), 1e-6) < 1e-4

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda a: 0.0, np.zeros(2), (0,), step=0.0)

    def test_non_finite_loss_raises(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda a: float("inf"), np.zeros(2), (0,))


class TestRunGradcheck:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_every_kind_passes(self, kind):
        report = run_gradcheck(kind, samples=64, seed=0)
        assert report.fraction_passing >= 0.95, report
        assert report.coordinates == 64

    def test_line_loss_large_exponent(self):
        report = run_gradcheck("line", samples=64, seed=1, mu_exp=10)
        assert report.fraction_passing >= 0.95, report

    def test_cross_entropy_near_one_hot_stays_finite(self):
        # An almost one-hot field keeps the clamp active on the off classes.
        report = run_gradcheck("cross_entropy", samples=32, seed=2)
        assert np.isfinite(report.max_rel_error)

    def test_bit_reproducible_for_fixed_seed(self):
        a = run_gradcheck("line", samples=32, seed=5)
        b = run_gradcheck("line", samples=32, seed=5)
        assert a == b

    def test_different_seeds_differ(self):
        a = run_gradcheck("point_l2", samples=32, seed=1)
        b = run_gradcheck("point_l2", samples=32, seed=2)
        assert a.max_rel_error != b.max_rel_error

    def test_step_shrink_sanity(self):
        # Away from kinks, a 10x smaller step must not blow the error up by
        # more than 10x.
        for kind in ("line", "cross_entropy"):
            coarse = run_gradcheck(kind, samples=48, seed=3, step=1e-3)
            fine = run_gradcheck(kind, samples=48, seed=3, step=1e-4)
            assert fine.max_rel_error <= 10.0 * max(coarse.max_rel_error, 1e-12), (coarse, fine)

    def test_report_serialization(self):
        report = run_gradcheck("dice", samples=16, seed=0)
        payload = asdict(report)
        assert payload["loss_name"] == "dice"
        assert set(payload) == {
            "loss_name", "coordinates", "max_rel_error", "fraction_passing", "step", "seed",
        }
        assert isinstance(GradReport(**payload), GradReport)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            run_gradcheck("point_l2", samples=0)
        for samples in (1.5, True, 4.0):
            with pytest.raises(ValueError, match=f"samples must be an integer >= 1, got {samples}"):
                run_gradcheck("line", samples=samples)
        with pytest.raises(ValueError, match="unknown loss kind 'unknown_loss', expected one of"):
            run_gradcheck("unknown_loss")
