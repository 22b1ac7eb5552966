import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epl.fields import (
    SPLITTERS,
    ACConfig,
    ac_adjoint,
    anisotropic_convolve,
    one_hot,
    standard_convolve,
)
from potential_reference import potential_oracle
from shift_reference import shift2d


def cfg(w=5, kind="A"):
    return ACConfig(kernel_size=w, splitter=kind)


class TestOneHot:
    def test_single_pixel(self):
        out = one_hot(np.array([[0]]), 2)
        npt.assert_array_equal(out, [[[1.0]], [[0.0]]])

    def test_checkerboard(self):
        out = one_hot(np.array([[0, 1], [1, 0]]), 2)
        npt.assert_array_equal(out[0], [[1, 0], [0, 1]])
        npt.assert_array_equal(out[1], [[0, 1], [1, 0]])

    def test_channel_sums_are_one(self):
        rng = np.random.default_rng(0)
        lab = rng.integers(0, 4, (8, 8))
        out = one_hot(lab, 4)
        for y in range(8):
            for x in range(8):
                assert out[:, y, x].sum() == 1.0
                assert out[lab[y, x], y, x] == 1.0

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, bool])
    def test_in_another_dtype(self, dtype):
        lab = np.random.default_rng(1).integers(0, 3, (5, 7))
        out = one_hot(lab, 3, dtype)
        assert out.dtype == dtype
        npt.assert_array_equal(out, one_hot(lab, 3))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(np.array([[3]]), 3)
        with pytest.raises(ValueError):
            one_hot(np.array([[-1]]), 3)


class TestSplitter:
    def test_a_has_the_four_axes_in_order(self):
        assert cfg(kind="A").directions == ((-1, 0), (1, 0), (0, -1), (0, 1))
        assert SPLITTERS["A"] == cfg(kind="A").directions

    def test_b_is_the_four_diagonals_disjoint_from_a(self):
        a = set(SPLITTERS["A"])
        b = set(cfg(kind="B").directions)
        assert len(b) == 4
        assert not a & b
        assert all(dy in (-1, 1) and dx in (-1, 1) for dy, dx in b)

    def test_c_is_the_union(self):
        c = cfg(kind="C").directions
        assert len(c) == 8
        assert set(c) == set(SPLITTERS["A"]) | set(SPLITTERS["B"])

    def test_unknown_kind(self):
        for kind in ("D", "a", "", None, ["A"]):
            with pytest.raises(ValueError, match="unknown splitter kind"):
                cfg(kind=kind)


class TestACConfig:
    @pytest.mark.parametrize("w", [2, 4, 1, 0])
    def test_rejects_bad_kernel(self, w):
        with pytest.raises(ValueError):
            cfg(w)

    def test_radius(self):
        assert cfg(5).radius == 2
        assert cfg(7).radius == 3

    @pytest.mark.parametrize("w", [3, 5, 9])
    def test_max_energy_is_a_full_planes_largest(self, w):
        ones = np.ones((1, 2 * w, 2 * w))
        for kind in "ABC":
            ray = cfg(w, kind)
            assert ray.max_energy == anisotropic_convolve(ones, ray).max() == w // 2 + 1
        box = ACConfig(kernel_size=w, converter="sc")
        assert box.max_energy == standard_convolve(ones, w).max() == w * w


class TestAnisotropicConvolve:
    def test_binary_row_profile(self):
        field = np.array([[0, 0, 1, 1, 1, 0, 0]], dtype=float)[None]
        e = anisotropic_convolve(field, cfg(5))
        right = cfg(5).directions.index((0, 1))
        npt.assert_array_equal(e[right, 0, 0], [1, 2, 3, 2, 1, 0, 0])

    def test_zero_field(self):
        e = anisotropic_convolve(np.zeros((2, 6, 6)), cfg(7, "C"))
        assert e.shape == (8, 2, 6, 6)
        assert not e.any()

    def test_square_energy_range_w5(self):
        lab = np.zeros((7, 7), dtype=int)
        lab[2:5, 2:5] = 1
        e = anisotropic_convolve(one_hot(lab, 2), cfg(5))
        assert set(np.unique(e[:, 1])) <= {0.0, 1.0, 2.0, 3.0}

    def test_all_ones_interior_saturates(self):
        e = anisotropic_convolve(np.ones((1, 12, 12)), cfg(7, "C"))
        r = 3
        interior = e[:, :, r:-r, r:-r]
        npt.assert_array_equal(interior, np.full_like(interior, r + 1))

    @pytest.mark.parametrize("kind", ["A", "B", "C"])
    @pytest.mark.parametrize("w", [3, 5, 7])
    def test_matches_oracle_binary(self, kind, w):
        rng = np.random.default_rng(w * 10 + ord(kind))
        field = (rng.random((3, 9, 11)) > 0.5).astype(float)
        c = cfg(w, kind)
        npt.assert_array_equal(anisotropic_convolve(field, c), potential_oracle(field, c))

    def test_matches_oracle_real(self):
        rng = np.random.default_rng(5)
        field = rng.random((2, 10, 10))
        c = cfg(7, "C")
        diff = np.abs(anisotropic_convolve(field, c) - potential_oracle(field, c))
        assert diff.max() < 1e-9

    def test_binary_energies_are_integers_in_range(self):
        rng = np.random.default_rng(11)
        field = (rng.random((2, 8, 8)) > 0.4).astype(float)
        for w in (3, 5, 7):
            e = anisotropic_convolve(field, cfg(w))
            assert np.array_equal(e, np.rint(e))
            assert e.min() >= 0 and e.max() <= w // 2 + 1

    def test_translation_equivariance(self):
        rng = np.random.default_rng(2)
        field = rng.random((1, 14, 14))
        c = cfg(5)
        a, b = 2, 1
        shifted = shift2d(field, -a, -b)  # content moves down/right by (a, b)
        e_then_shift = shift2d(anisotropic_convolve(field, c), -a, -b)
        shift_then_e = anisotropic_convolve(shifted, c)
        m = c.radius + max(a, b)
        npt.assert_allclose(
            shift_then_e[..., m:-m, m:-m], e_then_shift[..., m:-m, m:-m], atol=1e-12
        )

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(3)
        field = rng.random((2, 9, 9))
        c = cfg(5)
        dirs = c.directions
        e = anisotropic_convolve(field, c)
        e_m = anisotropic_convolve(field[..., ::-1], c)
        npt.assert_allclose(
            e[dirs.index((0, 1))], e_m[dirs.index((0, -1))][..., ::-1], atol=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(-3, 3, allow_nan=False),
        beta=st.floats(-3, 3, allow_nan=False),
        seed=st.integers(0, 100),
    )
    def test_linearity(self, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        f = rng.random((2, 6, 6))
        g = rng.random((2, 6, 6))
        c = cfg(5, "B")
        lhs = anisotropic_convolve(alpha * f + beta * g, c)
        rhs = alpha * anisotropic_convolve(f, c) + beta * anisotropic_convolve(g, c)
        npt.assert_allclose(lhs, rhs, atol=1e-9)

    def test_energy_monotone_in_kernel_size(self):
        rng = np.random.default_rng(4)
        field = rng.random((2, 10, 10))
        previous = None
        for w in (3, 5, 7):
            e = anisotropic_convolve(field, cfg(w))
            if previous is not None:
                assert (e >= previous - 1e-12).all()
            previous = e

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            anisotropic_convolve(np.zeros((4, 4)), cfg(5))


class TestAdjoint:
    def test_inner_product_identity(self):
        rng = np.random.default_rng(6)
        for kind, w in (("A", 5), ("C", 7), ("B", 3)):
            c = cfg(w, kind)
            x = rng.normal(size=(2, 8, 9))
            y = rng.normal(size=(len(c.directions), 2, 8, 9))
            lhs = float((anisotropic_convolve(x, c) * y).sum())
            rhs = float((x * ac_adjoint(y, c)).sum())
            assert abs(lhs - rhs) < 1e-9

    def test_shape_check(self):
        with pytest.raises(ValueError):
            ac_adjoint(np.zeros((3, 2, 4, 4)), cfg(5, "A"))


class TestStandardConvolve:
    def test_zero_field(self):
        assert not standard_convolve(np.zeros((2, 5, 5)), 5).any()

    def test_impulse_response(self):
        field = np.zeros((1, 5, 5))
        field[0, 2, 2] = 1.0
        out = standard_convolve(field, 3)
        expected = np.zeros((5, 5))
        expected[1:4, 1:4] = 1.0
        npt.assert_array_equal(out[0], expected)

    def test_matches_window_sum_oracle(self):
        rng = np.random.default_rng(7)
        field = (rng.random((1, 8, 8)) > 0.5).astype(float)
        w = 5
        r = w // 2
        expected = np.zeros((8, 8))
        for y in range(8):
            for x in range(8):
                acc = 0.0
                for dy in range(-r, r + 1):
                    for dx in range(-r, r + 1):
                        yy, xx = y + dy, x + dx
                        if 0 <= yy < 8 and 0 <= xx < 8:
                            acc += field[0, yy, xx]
                expected[y, x] = acc
        npt.assert_array_equal(standard_convolve(field, w)[0], expected)

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            standard_convolve(np.zeros((1, 4, 4)), 4)


class TestShift2d:
    def test_shift_and_zero_fill(self):
        a = np.arange(9, dtype=float).reshape(3, 3)
        out = shift2d(a, 1, 0)
        npt.assert_array_equal(out[0], a[1])
        npt.assert_array_equal(out[2], 0)
        out = shift2d(a, 0, -1)
        npt.assert_array_equal(out[:, 1:], a[:, :2])
        npt.assert_array_equal(out[:, 0], 0)

    def test_shift_out_of_frame(self):
        a = np.ones((3, 3))
        assert not shift2d(a, 5, 0).any()


class TestShiftedCopyReference:
    """The flat-offset adds are bit-identical to adding zero-filled shift2d copies."""

    @staticmethod
    def reference_convolve(f, c):
        out = np.empty((len(c.directions),) + f.shape)
        for si, (dy, dx) in enumerate(c.directions):
            acc = f.copy()
            for t in range(1, c.radius + 1):
                acc += shift2d(f, t * dy, t * dx)
            out[si] = acc
        return out

    @staticmethod
    def reference_adjoint(g, c):
        out = np.zeros(g.shape[1:])
        for si, (dy, dx) in enumerate(c.directions):
            for t in range(c.radius + 1):
                out += shift2d(g[si], -t * dy, -t * dx)
        return out

    @staticmethod
    def reference_box(f, w):
        rows = f.copy()
        for t in range(1, w // 2 + 1):
            rows += shift2d(f, t, 0)
            rows += shift2d(f, -t, 0)
        out = rows.copy()
        for t in range(1, w // 2 + 1):
            out += shift2d(rows, 0, t)
            out += shift2d(rows, 0, -t)
        return out

    # (2, 3, 3) and (1, 2, 5) are smaller than the reach of kernels 7 and 9.
    @pytest.mark.parametrize("shape", [(3, 10, 10), (2, 12, 9), (1, 3, 2), (3, 64, 64),
                                       (2, 1, 1), (3, 1, 9), (3, 9, 1), (3, 13, 11),
                                       (2, 3, 3), (1, 2, 5)])
    @pytest.mark.parametrize("w", [3, 7, 9])
    def test_conversion_adjoint_and_box(self, shape, w):
        rng = np.random.default_rng(w)
        f = rng.random(shape)
        for kind in "ABC":
            c = cfg(w, kind)
            e = anisotropic_convolve(f, c)
            npt.assert_array_equal(e, self.reference_convolve(f, c))
            g = rng.normal(size=e.shape)
            npt.assert_array_equal(ac_adjoint(g, c), self.reference_adjoint(g, c))
        npt.assert_array_equal(standard_convolve(f, w), self.reference_box(f, w))

    @pytest.mark.parametrize("shape", [(3, 10, 10), (3, 1, 9), (3, 9, 1), (2, 3, 3)])
    @pytest.mark.parametrize("w", [3, 9])
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    def test_an_unsigned_field_keeps_its_dtype(self, shape, w, dtype):
        labels = np.random.default_rng(w).integers(0, shape[0], shape[1:])
        f = one_hot(labels, shape[0], dtype)
        for kind in "ABC":
            e = anisotropic_convolve(f, cfg(w, kind))
            assert e.dtype == dtype
            npt.assert_array_equal(e, anisotropic_convolve(f.astype(float), cfg(w, kind)))
        box = standard_convolve(f, w)
        assert box.dtype == dtype
        npt.assert_array_equal(box, self.reference_box(f.astype(float), w))
        assert anisotropic_convolve(f.astype(np.int64), cfg(w)).dtype == np.float64


class TestOut:
    """The conversions write into a given out and return it, as they would fill a fresh array."""

    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    def test_out_holds_the_fresh_result(self, dtype):
        labels = np.random.default_rng(3).integers(0, 3, (9, 13))
        f = one_hot(labels, 3, dtype) if dtype == np.uint8 else np.random.default_rng(4).random(
            (3, 9, 13))
        for kind in "ABC":
            fresh = anisotropic_convolve(f, cfg(7, kind))
            out = np.full(fresh.shape, 7, dtype=dtype)
            assert anisotropic_convolve(f, cfg(7, kind), out=out) is out
            npt.assert_array_equal(out, fresh)
        fresh = standard_convolve(f, 5)
        out = np.full(fresh.shape, 7, dtype=dtype)
        assert standard_convolve(f, 5, out=out) is out
        npt.assert_array_equal(out, fresh)

    def test_a_wrong_out_is_rejected(self):
        f = np.random.default_rng(5).random((2, 6, 6))
        for bad in (np.empty((4, 2, 6, 5)), np.empty((4, 2, 6, 6), np.float32),
                    np.empty((4, 2, 6, 12))[..., ::2]):
            with pytest.raises(ValueError, match="out must be"):
                anisotropic_convolve(f, cfg(3), out=bad)
        with pytest.raises(ValueError, match="out must be"):
            standard_convolve(f, 3, out=np.empty((2, 6, 6), np.uint8))
