import json
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from epl import datagen, model
from epl.fields import ACConfig, one_hot
from epl.io import FormatError
from epl.losses import (
    LineTarget,
    LossConfig,
    cross_entropy_loss,
    equipotential_line_loss,
    point_loss,
)
from epl.model import TinyNet, TrainConfig, TrainingDiverged
from shift_reference import shift2d


MISSING = object()  # a sidecar field that is dropped, not set


def tiny_sample(seed=0, size=16, sigma=0.1):
    spec = datagen.SceneSpec(kind="adjacent_rects", height=size, width=size,
                             classes=3, noise_sigma=sigma, count=1, seed=seed)
    return datagen.generate_sample(spec, 0)


def small_cfg(epochs=2, converter="ac", **loss):
    return TrainConfig(epochs=epochs, batch_size=2, learning_rate=0.05, seed=0,
                       loss=LossConfig(**loss), ac=ACConfig(kernel_size=5, converter=converter))


class TestForward:
    def test_zero_parameters_give_uniform_output(self):
        net = TinyNet(1, 4, seed=0)
        net.theta[:] = 0.0
        probs = net.forward(np.random.default_rng(0).normal(size=(10, 10)))
        npt.assert_allclose(probs, 0.25)

    def test_output_is_a_probability_field(self):
        net = TinyNet(1, 3, seed=1)
        probs = net.forward(np.random.default_rng(1).normal(size=(12, 9)))
        assert probs.shape == (3, 12, 9)
        assert probs.min() >= 0.0
        npt.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-6)

    def test_deterministic_across_runs(self):
        image = np.random.default_rng(2).normal(size=(8, 8))
        a = TinyNet(1, 3, seed=7).forward(image)
        b = TinyNet(1, 3, seed=7).forward(image)
        npt.assert_array_equal(a, b)

    def test_parameter_count_formula(self):
        for cin, k in ((1, 3), (2, 5)):
            net = TinyNet(cin, k, seed=0)
            expected = 3 * 3 * cin * 8 + 8 + 3 * 3 * 8 * 8 + 8 + 8 * k + k
            assert net.parameter_count == expected

    def test_dimension_mismatch(self):
        net = TinyNet(2, 3, seed=0)
        with pytest.raises(ValueError):
            net.forward(np.zeros((8, 8)))

    def test_forward_path_independent_of_loss_weights(self):
        # The paper's "no parameter overhead": the potential-domain terms change
        # only the objective, so a net trained with any of them has the
        # parameters of a cross-entropy one, as test_parameter_count_formula counts.
        samples = [tiny_sample(seed) for seed in (0, 1)]
        arms = {
            "ce": (ACConfig(kernel_size=7), LossConfig(lambda1=0.0, lambda2=0.0)),
            "ac-A-k7-mu10": (ACConfig(kernel_size=7, splitter="A"), LossConfig(mu_exp=10)),
            "ac-C-k9-mu2": (ACConfig(kernel_size=9, splitter="C"), LossConfig(mu_exp=2)),
            "sc-k7": (ACConfig(kernel_size=7, converter="sc"), LossConfig()),
            "l1": (ACConfig(kernel_size=7), LossConfig(norm="l1")),
        }
        shapes = {}
        for name, (ac, loss) in arms.items():
            cfg = TrainConfig(epochs=1, batch_size=2, learning_rate=0.05, seed=0, ac=ac, loss=loss)
            net, _ = model.train(samples, cfg)
            shapes[name] = (net.parameter_count, net.theta.shape)
        expected = 3 * 3 * 1 * 8 + 8 + 3 * 3 * 8 * 8 + 8 + 8 * 3 + 3
        assert shapes == dict.fromkeys(arms, (expected, (expected,)))


def reference_forward_backward(net, image, dprobs):
    """The conv path before the workspace: shifted copies stacked by np.stack,
    and a col2im that adds shifted-back copies onto a zeroed dx."""
    offsets = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]

    def gather(x):
        return np.stack([shift2d(x, dy, dx) for dy, dx in offsets], axis=1)

    def conv(cols, w, b):
        out = w.reshape(w.shape[0], -1) @ cols.reshape(-1, h * wd)
        return out.reshape(w.shape[0], h, wd) + b[:, None, None]

    def conv_backward(g, cols, w):
        gm = g.reshape(g.shape[0], h * wd)
        dw = (gm @ cols.reshape(-1, h * wd).T).reshape(w.shape)
        dcols = (w.reshape(w.shape[0], -1).T @ gm).reshape(cols.shape)
        dx = np.zeros((cols.shape[0], h, wd))
        for ui, (dy, dx_off) in enumerate(offsets):
            dx += shift2d(dcols[:, ui], -dy, -dx_off)
        return dx, dw, gm.sum(axis=1)

    p = net.param
    x = np.asarray(image, dtype=np.float64)[None]
    h, wd = x.shape[-2:]
    cols1 = gather(x)
    z1 = conv(cols1, p("w1"), p("b1"))
    cols2 = gather(np.maximum(z1, 0.0))
    z2 = conv(cols2, p("w2"), p("b2"))
    a2 = np.maximum(z2, 0.0)
    logits = (p("w3") @ a2.reshape(8, h * wd)).reshape(-1, h, wd) + p("b3")[:, None, None]
    ez = np.exp(logits - logits.max(axis=0, keepdims=True))
    probs = ez / ez.sum(axis=0, keepdims=True)
    cache = {"cols1": cols1, "z1": z1, "cols2": cols2, "z2": z2, "a2": a2, "probs": probs}

    dz3 = probs * (dprobs - (dprobs * probs).sum(axis=0, keepdims=True))
    dw3 = dz3.reshape(-1, h * wd) @ a2.reshape(8, h * wd).T
    da2 = (p("w3").T @ dz3.reshape(-1, h * wd)).reshape(8, h, wd)
    da1, dw2, db2 = conv_backward(da2 * (z2 > 0), cols2, p("w2"))
    _, dw1, db1 = conv_backward(da1 * (z1 > 0), cols1, p("w1"))
    grad = np.concatenate([a.reshape(-1) for a in (dw1, db1, dw2, db2, dw3, dz3.sum(axis=(1, 2)))])
    return probs, cache, grad


class TestConvReference:
    """The workspace conv path is float64 bit-identical to shift-and-stack."""

    def test_matches_the_shift_and_stack_path(self):
        rng = np.random.default_rng(11)
        net = TinyNet(1, 3, seed=4)
        # alternating shapes on one net: the workspace is rebuilt each time;
        # odd sizes run the padded col2im GEMM at many column counts
        # (1, 2) and (2, 1): col2im's dcols and acc, not cols2, size the scratch
        for shape in ((10, 10), (12, 9), (64, 64), (12, 9), (10, 10), (1, 1), (1, 9),
                      (9, 1), (1, 2), (2, 1), (13, 11), (7, 5), (31, 29), (33, 65)):
            image = rng.normal(size=shape)
            dprobs = rng.normal(size=(3,) + shape)
            probs, cache = net.forward_with_cache(image)
            ref_probs, ref_cache, ref_grad = reference_forward_backward(net, image, dprobs)
            npt.assert_array_equal(probs, ref_probs)
            # no pre-activation is kept: the backward masks on a2 and cols2's centre tap
            assert cache.keys() == {"cols1", "cols2", "a2", "probs"}
            for key in cache:
                npt.assert_array_equal(cache[key], ref_cache[key], err_msg=key)
            npt.assert_array_equal(net.backward_from_probs(cache, dprobs), ref_grad)

    @staticmethod
    def workspace_bytes(net):
        """Bytes of the workspace's memory, each shared buffer counted once."""
        owners = {}
        for a in vars(net._ws).values():
            if isinstance(a, np.ndarray):
                owner = a if a.base is None else a.base
                owners[id(owner)] = owner.nbytes
        return sum(owners.values())

    def test_the_64x64_workspace_is_at_most_3_33_mb(self):
        net = TinyNet(1, 3, seed=0)
        net.forward(np.zeros((64, 64)))
        size = self.workspace_bytes(net)
        assert size <= 3.33e6, f"{size / 1e6:.3f} MB"

    def test_the_96x96_workspace_is_at_most_7_48_mb(self):
        net = TinyNet(1, 3, seed=0)
        net.forward(np.zeros((96, 96)))
        size = self.workspace_bytes(net)
        assert size <= 7.48e6, f"{size / 1e6:.3f} MB"

    @pytest.mark.parametrize("shape", [(96, 96), (1, 2), (2, 1)])
    def test_col2im_reuses_the_second_convs_im2col_scratch(self, shape):
        net = TinyNet(1, 3, seed=0)
        net.forward(np.zeros(shape))
        ws = net._ws
        for name in ("dcols", "acc"):
            assert np.shares_memory(getattr(ws, name), ws.cols2), name
        assert not np.shares_memory(ws.dcols, ws.acc)

    def test_buffers_are_reused_and_outputs_are_fresh(self):
        rng = np.random.default_rng(12)
        net = TinyNet(1, 3, seed=5)
        first_image, second_image = rng.normal(size=(2, 12, 9))
        first, cache_a = net.forward_with_cache(first_image)
        kept = first.copy()
        second, cache_b = net.forward_with_cache(second_image)
        for key in ("cols1", "cols2"):
            assert np.shares_memory(cache_a[key], cache_b[key])
        assert not np.shares_memory(first, second)
        npt.assert_array_equal(first, kept)
        npt.assert_array_equal(second, reference_forward_backward(
            net, second_image, np.zeros_like(second))[0])


class TestBackward:
    def test_zero_weights_reduce_to_cross_entropy_gradient(self):
        s = tiny_sample()
        net = TinyNet(1, 3, seed=0)
        cfg = small_cfg(lambda1=0.0, lambda2=0.0)
        terms, grad = model.backward(net, s.image, s.labels, cfg)
        probs, cache = net.forward_with_cache(s.image)
        ce = cross_entropy_loss(probs, s.labels)
        manual = net.backward_from_probs(cache, ce.gradient)
        npt.assert_array_equal(grad, manual)
        assert terms["point"] == 0.0 and terms["line"] == 0.0
        assert terms["total"] == terms["ce"]

    @pytest.mark.parametrize("converter", ["ac", "sc"])
    def test_full_gradient_matches_finite_differences(self, converter):
        s = tiny_sample(seed=4)
        net = TinyNet(1, 3, seed=5)
        cfg = small_cfg(lambda1=0.1, lambda2=0.01, mu_exp=10, converter=converter)
        _, grad = model.backward(net, s.image, s.labels, cfg)
        rng = np.random.default_rng(6)
        h = 1e-5
        for _ in range(20):
            i = int(rng.integers(0, net.theta.size))
            keep = net.theta[i]
            net.theta[i] = keep + h
            hi = model.backward(net, s.image, s.labels, cfg)[0]["total"]
            net.theta[i] = keep - h
            lo = model.backward(net, s.image, s.labels, cfg)[0]["total"]
            net.theta[i] = keep
            fd = (hi - lo) / (2 * h)
            assert abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8) < 1e-3

    @pytest.mark.parametrize("converter", ["ac", "sc"])
    @pytest.mark.parametrize("weights", [(0.1, 0.01), (0.0, 0.01), (0.1, 0.0), (0.0, 0.0)])
    def test_value_only_objective_gives_the_same_terms(self, monkeypatch, converter, weights):
        s = tiny_sample(seed=7)
        probs = TinyNet(1, 3, seed=3).forward(s.image)
        cfg = small_cfg(lambda1=weights[0], lambda2=weights[1], converter=converter)
        terms, _ = model.objective(probs, s.labels, cfg)

        def no_adjoint(*args):
            raise AssertionError("the adjoint ran")

        monkeypatch.setattr(model, "_convert_adjoint", no_adjoint)
        built = []
        for name in ("cross_entropy_loss", "point_loss", "equipotential_line_loss"):
            def spy(*args, real=getattr(model, name), **kwargs):
                out = real(*args, **kwargs)
                built.append(out.gradient is not None)
                return out

            monkeypatch.setattr(model, name, spy)
        assert model.objective(probs, s.labels, cfg, want_grad=False) == (terms, None)
        assert built == [False] * (1 + (weights[0] > 0) + (weights[1] > 0))

    def test_non_finite_parameters_raise(self):
        s = tiny_sample()
        net = TinyNet(1, 3, seed=0)
        net.theta[:] = 1e308  # overflow is the point here
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
            model.backward(net, s.image, s.labels, small_cfg())
        assert "non-finite loss term(s) ce, point, line:" in str(info.value)

    def test_divergence_names_only_the_bad_term(self, monkeypatch):
        s = tiny_sample()
        real = model.equipotential_line_loss

        def inf_line(*args, **kwargs):
            out = real(*args, **kwargs)
            return type(out)(np.inf, out.gradient)

        monkeypatch.setattr(model, "equipotential_line_loss", inf_line)
        with pytest.raises(TrainingDiverged, match=r"term\(s\) line: "):
            model.backward(TinyNet(1, 3, seed=0), s.image, s.labels, small_cfg())


def accumulated_dprobs(probs, labels, cfg):
    """The objective's gradient as once accumulated: zeros, then each weighted gradient added."""
    loss = cfg.loss
    dprobs = cross_entropy_loss(probs, labels).gradient
    if loss.lambda1 == 0 and loss.lambda2 == 0:
        return dprobs
    target = model.ground_truth(labels, probs.shape[0], cfg)
    e_pred = model.convert(probs, cfg)
    e_grad = np.zeros_like(e_pred)
    if loss.lambda1 > 0:
        e_grad += loss.lambda1 * point_loss(target.energies, e_pred, loss).gradient
    if loss.lambda2 > 0:
        e_grad += loss.lambda2 * equipotential_line_loss(target, e_pred, loss, cfg.ac.radius).gradient
    return dprobs + model._convert_adjoint(e_grad, cfg)


class TestObjectiveInPlace:
    """objective weighs and sums the losses' fresh gradients in place."""

    @pytest.mark.parametrize("splitter", ["A", "C"])
    @pytest.mark.parametrize("mu", [2, 10])
    @pytest.mark.parametrize("weights", [(0.1, 0.01), (0.0, 0.01), (0.1, 0.0), (0.0, 0.0)])
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    @pytest.mark.parametrize("converter", ["ac", "sc"])
    def test_gradient_is_bit_identical_to_the_accumulated_one(self, converter, norm, weights,
                                                               mu, splitter):
        s = tiny_sample(seed=8)
        probs = TinyNet(1, 3, seed=2).forward(s.image)
        cfg = TrainConfig(loss=LossConfig(norm=norm, mu_exp=mu, lambda1=weights[0],
                                          lambda2=weights[1]),
                          ac=ACConfig(kernel_size=5, splitter=splitter, converter=converter))
        _, dprobs = model.objective(probs, s.labels, cfg)
        expected = accumulated_dprobs(probs, s.labels, cfg)
        npt.assert_array_equal(dprobs, expected)
        npt.assert_array_equal(np.signbit(dprobs), np.signbit(expected))

    @staticmethod
    def _dense_case(norm="l2"):
        """A 96x96 scene at splitter C, kernel 9 and mu 2, its config and a prediction."""
        spec = datagen.SceneSpec(kind="adjacent_rects", height=96, width=96, classes=3,
                                 noise_sigma=0.1, count=1, seed=0)
        s = datagen.generate_sample(spec, 0)
        cfg = TrainConfig(loss=LossConfig(mu_exp=2, norm=norm),
                          ac=ACConfig(kernel_size=9, splitter="C"))
        probs = TinyNet(1, 3, seed=0).forward(s.image)
        return s, cfg, probs, 8 * len(cfg.ac.directions) * probs.size

    @staticmethod
    def _traced_peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def _peak_in_energy_tensors(self, target_kind, norm="l2"):
        s, cfg, probs, tensor = self._dense_case(norm)
        target = None if target_kind is None else model.ground_truth(s.labels, 3, cfg)
        if target_kind == "tables":  # as model.train passes it
            target = replace(target, energies=None)
        return self._traced_peak(lambda: model.objective(probs, s.labels, cfg, target)) / tensor

    @pytest.mark.parametrize("target_kind", ["full", "tables"])
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_a_step_holds_at_most_three_energy_tensors(self, norm, target_kind):
        # e_pred and the gradient, plus the line loss's blocks and smaller arrays
        # (and the integer ground truth being rebuilt)
        peak = self._peak_in_energy_tensors(target_kind, norm=norm)
        assert peak <= 3, f"peak {peak:.2f} energy tensors"

    def test_a_call_that_builds_its_target_holds_at_most_three_and_a_half(self):
        # as epl loss calls it, for every sample: no float64 ground truth is built
        peak = self._peak_in_energy_tensors(None)
        assert peak <= 3.5, f"peak {peak:.2f} energy tensors"

    def test_ground_truth_holds_less_than_one_energy_tensor(self):
        # uint8 energies, and line_target gathers one block of rows at a time:
        # no intp index copy or float64 memberships of the whole tensor
        s, cfg, _, tensor = self._dense_case()
        peak = self._traced_peak(lambda: model.ground_truth(s.labels, 3, cfg)) / tensor
        assert peak < 1, f"peak {peak:.2f} energy tensors"


class TestLentScratch:
    """model.backward lends the workspace scratch to objective's two energy tensors."""

    @staticmethod
    def manual_step(net, image, labels, cfg):
        """The step without a loan: objective allocates its energy tensors."""
        probs, cache = net.forward_with_cache(image)
        terms, dprobs = model.objective(probs, labels, cfg)
        return terms, net.backward_from_probs(cache, dprobs)

    def assert_bit_identical(self, net, image, labels, cfg, steps=2):
        terms, expected = self.manual_step(net, image, labels, cfg)
        for _ in range(steps):  # the first loan on this workspace, then a warm one
            got_terms, got = model.backward(net, image, labels, cfg)
            assert got_terms == terms
            npt.assert_array_equal(got, expected)
            npt.assert_array_equal(np.signbit(got), np.signbit(expected))

    @pytest.mark.parametrize("shape", [(1, 2), (2, 1), (33, 65)], ids=str)
    @pytest.mark.parametrize("splitter", ["A", "C"])
    @pytest.mark.parametrize("weights", [(0.1, 0.01), (0.0, 0.01), (0.1, 0.0), (0.0, 0.0)])
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    @pytest.mark.parametrize("converter", ["ac", "sc"])
    def test_a_lent_step_is_bit_identical_to_an_allocating_one(self, converter, norm, weights,
                                                               splitter, shape):
        rng = np.random.default_rng(sum(shape))
        image, labels = rng.normal(size=shape), rng.integers(0, 3, shape, dtype=np.uint8)
        cfg = TrainConfig(loss=LossConfig(norm=norm, lambda1=weights[0], lambda2=weights[1]),
                          ac=ACConfig(kernel_size=5, splitter=splitter, converter=converter))
        self.assert_bit_identical(TinyNet(1, 3, seed=2), image, labels, cfg)

    @pytest.mark.parametrize("weights", [(0.1, 0.01), (0.0, 0.01)])
    def test_the_scratch_grows_for_five_classes_at_splitter_c(self, weights):
        # |S| * K = 40 > 36: the two tensors outgrow the 72 * H * W floats of cols2
        rng = np.random.default_rng(9)
        image, labels = rng.normal(size=(33, 65)), rng.integers(0, 5, (33, 65), dtype=np.uint8)
        cfg = TrainConfig(loss=LossConfig(mu_exp=2, lambda1=weights[0], lambda2=weights[1]),
                          ac=ACConfig(kernel_size=9, splitter="C"))
        net = TinyNet(1, 5, seed=1)
        net.forward(image)
        assert net._ws.scratch.size < 2 * 40 * 33 * 65
        self.assert_bit_identical(net, image, labels, cfg, steps=3)
        assert net._ws.scratch.size == 2 * 40 * 33 * 65

    def test_a_warm_96x96_step_holds_at_most_1_25_energy_tensors(self):
        # e_pred and the gradient live in the workspace; what is left is the line
        # loss's blocks, the adjoint's buffers and the probability-sized arrays
        s, cfg, probs, tensor = TestObjectiveInPlace._dense_case()
        net = TinyNet(1, 3, seed=0)
        target = replace(model.ground_truth(s.labels, 3, cfg), energies=None)
        model.backward(net, s.image, s.labels, cfg, target)
        peak = TestObjectiveInPlace._traced_peak(
            lambda: model.backward(net, s.image, s.labels, cfg, target)) / tensor
        assert peak <= 1.25, f"peak {peak:.2f} energy tensors"

    @staticmethod
    def gathered_channels(monkeypatch):
        """The channel count of every _gather3 call, as the calls are made."""
        calls = []

        def spy(pad, cols, real=model._gather3):
            calls.append(cols.shape[0])
            return real(pad, cols)

        monkeypatch.setattr(model, "_gather3", spy)
        return calls

    def test_a_ce_step_lends_and_regathers_nothing(self, monkeypatch):
        s = tiny_sample()
        net = TinyNet(1, 3, seed=0)
        calls = self.gathered_channels(monkeypatch)
        model.backward(net, s.image, s.labels, small_cfg(lambda1=0.0, lambda2=0.0))
        assert calls == [1, 8]
        assert net._ws.lent == 0

    @pytest.mark.parametrize("size, splitter, channels", [(64, "A", 3), (96, "C", 6)])
    def test_a_potential_step_regathers_only_the_lent_channels(self, monkeypatch, size,
                                                               splitter, channels):
        # ceil(2 * |S| * K / 9) of cols2's 8 channels hold the two energy tensors
        rng = np.random.default_rng(4)
        image, labels = rng.normal(size=(size, size)), rng.integers(0, 3, (size, size))
        cfg = TrainConfig(loss=LossConfig(mu_exp=2), ac=ACConfig(kernel_size=9, splitter=splitter))
        net = TinyNet(1, 3, seed=0)
        calls = self.gathered_channels(monkeypatch)
        model.backward(net, image, labels, cfg)
        assert calls == [1, 8, channels]
        assert net._ws.lent == 0

    def test_a_forward_clears_an_outstanding_loan(self, monkeypatch):
        rng = np.random.default_rng(6)
        image, dprobs = rng.normal(size=(12, 9)), rng.normal(size=(3, 12, 9))
        net = TinyNet(1, 3, seed=3)
        net.forward(image)
        net._ws.lend(2 * 4 * 3 * 12 * 9).fill(np.nan)  # a loan the objective never returned
        calls = self.gathered_channels(monkeypatch)
        probs, cache = net.forward_with_cache(image)
        grad = net.backward_from_probs(cache, dprobs)
        assert calls == [1, 8]
        npt.assert_array_equal(grad, reference_forward_backward(net, image, dprobs)[2])


def _label_maps():
    rng = np.random.default_rng(5)
    blocky = np.kron(rng.integers(0, 3, (5, 4)), np.ones((6, 7), dtype=int))[:29, :26]
    return {"random": rng.integers(0, 3, (23, 19)), "blocky": blocky,
            "row": rng.integers(0, 3, (1, 31)), "column": rng.integers(0, 3, (31, 1)),
            "single-class": np.full((25, 27), 2)}


LABEL_MAPS = _label_maps()
INTEGER_CASES = ([ACConfig(kernel_size=k, splitter=s) for s in "ABC" for k in range(3, 16, 2)]
                 + [ACConfig(kernel_size=k, converter="sc") for k in (15, 17, 21)])


class TestIntegerGroundTruth:
    """The ground-truth energies are built in integers, at each training step."""

    @pytest.mark.parametrize("labels", LABEL_MAPS.values(), ids=LABEL_MAPS.keys())
    @pytest.mark.parametrize("ac", INTEGER_CASES,
                             ids=lambda ac: f"{ac.converter}-{ac.splitter}-k{ac.kernel_size}")
    def test_bit_identical_to_the_float_conversion(self, monkeypatch, ac, labels):
        cfg = TrainConfig(loss=LossConfig(mu_exp=2), ac=ac)
        expected = model.convert(one_hot(labels, 3), cfg)
        # uint8 up to a largest energy of 255: SC crosses to uint16 at k = 17 (289)
        dtype = np.uint8 if ac.converter == "ac" or ac.kernel_size ** 2 <= 255 else np.uint16
        full = model.ground_truth(labels, 3, cfg)
        assert full.energies.dtype == dtype
        npt.assert_array_equal(full.energies, expected)
        seen = []

        def line_loss(*args, **kwargs):
            seen.append(args)
            return equipotential_line_loss(*args, **kwargs)

        monkeypatch.setattr(model, "equipotential_line_loss", line_loss)
        monkeypatch.setattr(model, "line_target", None)  # a step builds no line target
        probs = np.full((3,) + labels.shape, 1.0 / 3)
        tables = replace(full, energies=None)
        terms, dprobs = model.objective(probs, labels, cfg, tables)
        (target, e_pred, loss_cfg, radius), = seen  # the positional call perfbench unpacks
        assert isinstance(target, LineTarget) and target.energies.dtype == dtype
        npt.assert_array_equal(target.energies, expected)
        assert all(getattr(target, n) is getattr(full, n) for n in ("luts", "mass", "c_norm"))
        terms_full, dprobs_full = model.objective(probs, labels, cfg, full)
        assert terms == terms_full
        npt.assert_array_equal(dprobs, dprobs_full)

    @pytest.mark.parametrize("converter", ["ac", "sc"])
    def test_a_run_is_identical_with_prebuilt_full_targets(self, monkeypatch, converter):
        samples = [tiny_sample(seed=s) for s in (1, 2, 3)]
        cfg = small_cfg(converter=converter)
        net, history = model.train(samples, cfg)
        original = model.backward
        passed = []

        def with_full_target(net, image, labels, cfg, target=None):
            passed.append(target.energies)
            return original(net, image, labels, cfg, model.ground_truth(labels, 3, cfg))

        monkeypatch.setattr(model, "backward", with_full_target)
        net_full, history_full = model.train(samples, cfg)
        assert len(passed) == 6 and all(e is None for e in passed)
        npt.assert_array_equal(net.theta, net_full.theta)
        assert history == history_full

    def test_a_run_keeps_at_most_2_kib_per_sample(self, monkeypatch):
        spec = datagen.SceneSpec(kind="mixed", height=96, width=96, classes=3,
                                 noise_sigma=0.1, count=2, seed=0)
        samples = [datagen.generate_sample(spec, i) for i in range(2)]
        cfg = TrainConfig(epochs=1, batch_size=1, loss=LossConfig(mu_exp=2),
                          ac=ACConfig(kernel_size=9, splitter="C"))
        held = []
        original = model.backward

        def record(net, image, labels, cfg, target=None):
            held.append(target)
            return original(net, image, labels, cfg, target)

        monkeypatch.setattr(model, "backward", record)
        model.train(samples, cfg)
        assert len(held) == 2
        for target in held:
            assert target.energies is None
            kept = sum(v.nbytes for v in vars(target).values() if isinstance(v, np.ndarray))
            assert kept <= 2048, f"{kept} B per sample"
        # what a held target's energies would take: |S| * K * H * W bytes
        assert model.ground_truth(samples[0].labels, 3, cfg).energies.nbytes == 8 * 3 * 96 * 96


class TestTrain:
    @pytest.mark.parametrize("count", [2, 4], ids=["last-update", "first-of-two"])
    def test_a_diverged_update_raises_naming_epoch_and_batch(self, count):
        samples = [tiny_sample(seed=i) for i in range(count)]
        cfg = TrainConfig(epochs=1, batch_size=2, learning_rate=1e308,
                          ac=ACConfig(kernel_size=5))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(  # overflow on purpose
                TrainingDiverged, match=r"^epoch 0, batch 0: the update left \d+ of 691 "
                                        r"parameters non-finite or beyond the float32 range"):
            model.train(samples, cfg)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="^dataset is empty"):
            model.train([], small_cfg())
        with pytest.raises(ValueError, match="eval_dataset is empty"):
            model.train([tiny_sample()], small_cfg(), eval_dataset=[])

    def test_single_sample_overfit_ce_only(self):
        s = tiny_sample(seed=1)
        cfg = TrainConfig(epochs=200, batch_size=1, learning_rate=0.1,
                          loss=LossConfig(lambda1=0.0, lambda2=0.0), seed=0)
        _, history = model.train([s], cfg)
        assert history[-1]["loss_ce"] < 0.1
        ce = [h["loss_ce"] for h in history]
        assert all(np.isfinite(ce))
        increases = sum(b > a + 1e-12 for a, b in zip(ce, ce[1:]))
        assert increases <= 0.05 * (len(ce) - 1)

    def test_history_is_reproducible(self):
        samples = [tiny_sample(seed=i) for i in range(4)]
        cfg = small_cfg(lambda1=0.1, lambda2=0.01)
        _, h1 = model.train(samples, cfg)
        _, h2 = model.train(samples, cfg)
        assert h1 == h2

    def test_history_record_fields(self):
        s = tiny_sample(seed=2)
        _, history = model.train([s], small_cfg(epochs=1))
        record = history[0]
        assert set(record) == {
            "epoch", "loss_ce", "loss_point", "loss_line", "loss_total",
            "miou", "trimap_iou", "fmeasure",
        }

    def test_history_values_are_plain_python_numbers(self):
        samples = [tiny_sample(seed=i) for i in range(2)]
        _, history = model.train(samples, small_cfg(lambda1=0.1, lambda2=0.01))
        for record in history:
            assert type(record.pop("epoch")) is int
            assert all(type(v) is float for v in record.values()), record

    def test_prebuilt_target_gives_the_same_step(self):
        s = tiny_sample(seed=6)
        net = TinyNet(1, 3, seed=2)
        for converter in ("ac", "sc"):
            cfg = small_cfg(converter=converter)
            target = model.ground_truth(s.labels, 3, cfg)
            terms, grad = model.backward(net, s.image, s.labels, cfg)
            terms_t, grad_t = model.backward(net, s.image, s.labels, cfg, target)
            assert terms == terms_t
            npt.assert_array_equal(grad, grad_t)

    def test_eval_dataset_is_used_for_metrics(self):
        train_s = [tiny_sample(seed=3)]
        val_s = [tiny_sample(seed=9)]
        _, h_val = model.train(train_s, small_cfg(epochs=1), eval_dataset=val_s)
        _, h_train = model.train(train_s, small_cfg(epochs=1))
        assert h_val[0]["miou"] != h_train[0]["miou"]


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        s = tiny_sample(seed=5)
        net, _ = model.train([s], small_cfg(epochs=1))
        model.save_checkpoint(tmp_path / "ck", net, {"note": "test"})
        loaded, sidecar = model.load_checkpoint(tmp_path / "ck")
        npt.assert_allclose(loaded.theta, net.theta, atol=1e-7)  # float32 storage
        assert sidecar["num_classes"] == 3
        assert sidecar["parameter_count"] == net.parameter_count

    def test_wrong_size_rejected(self, tmp_path):
        net = TinyNet(1, 3, seed=0)
        model.save_checkpoint(tmp_path / "ck", net)
        sidecar = (tmp_path / "ck.json").read_text().replace('"num_classes": 3', '"num_classes": 4')
        (tmp_path / "ck.json").write_text(sidecar)
        with pytest.raises(FormatError):
            model.load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("field,value", [
        ("architecture", "conv5x5-softmax"),
        ("hidden", 16),
        pytest.param("in_channels", MISSING, id="in_channels-missing"),
        pytest.param("num_classes", MISSING, id="num_classes-missing"),
        ("in_channels", None),
        ("num_classes", None),
        ("num_classes", "3"),
        ("num_classes", 3.0),
        ("in_channels", True),
    ])
    def test_other_architecture_rejected(self, tmp_path, field, value):
        model.save_checkpoint(tmp_path / "ck", TinyNet(1, 3, seed=0))
        sidecar = json.loads((tmp_path / "ck.json").read_text())
        if value is MISSING:
            del sidecar[field]
        else:
            sidecar[field] = value
        (tmp_path / "ck.json").write_text(json.dumps(sidecar))
        with pytest.raises(FormatError, match=f"checkpoint {field} is"):
            model.load_checkpoint(tmp_path / "ck")
