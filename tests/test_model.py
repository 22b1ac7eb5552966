import numpy as np
import numpy.testing as npt
import pytest

from epl import datagen, model
from epl.losses import cross_entropy_loss
from epl.model import TinyNet, TrainConfig, TrainingDiverged


def tiny_sample(seed=0, size=16, sigma=0.1):
    spec = datagen.SceneSpec(kind="adjacent_rects", height=size, width=size,
                             classes=3, noise_sigma=sigma, count=1, seed=seed)
    return datagen.generate_sample(spec, 0)


def small_cfg(**kw):
    base = dict(epochs=2, batch_size=2, learning_rate=0.05, seed=0, kernel_size=5)
    base.update(kw)
    return TrainConfig(**base)


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
        # Inference never touches the potential-domain terms: same trace and
        # bit-identical output whatever the training weights say.
        net = TinyNet(1, 3, seed=3)
        image = np.random.default_rng(3).normal(size=(8, 8))
        trace_a, trace_b = [], []
        out_a = net.forward(image, trace_a)
        out_b = net.forward(image, trace_b)
        assert trace_a == trace_b == ["conv3x3", "relu", "conv3x3", "relu", "conv1x1", "softmax"]
        npt.assert_array_equal(out_a, out_b)
        assert TinyNet(1, 3, seed=3).parameter_count == net.parameter_count


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

    def test_non_finite_parameters_raise(self):
        s = tiny_sample()
        net = TinyNet(1, 3, seed=0)
        net.theta[:] = 1e308  # overflow is the point here
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
            model.backward(net, s.image, s.labels, small_cfg())


class TestTrain:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            model.train([], small_cfg())

    def test_single_sample_overfit_ce_only(self):
        s = tiny_sample(seed=1)
        cfg = TrainConfig(epochs=200, batch_size=1, learning_rate=0.1,
                          lambda1=0.0, lambda2=0.0, seed=0)
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
        from epl.io import FormatError

        with pytest.raises(FormatError):
            model.load_checkpoint(tmp_path / "ck")
