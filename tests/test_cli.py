import argparse
import csv
import hashlib
import json
import re
from dataclasses import asdict, replace

import numpy as np
import numpy.testing as npt
import pytest

from epl import datagen, gradcheck, io, model
from epl.cli import _split_train_val, build_parser, main
from epl.fields import ACConfig, one_hot, standard_convolve
from epl.losses import LossConfig, LossValue, equipotential_line_loss, point_loss
from epl.config import (
    DEFAULTS,
    ConfigError,
    build_train_config,
    load_config,
    sweep_train_config,
    train_sections,
)

MISSING = object()  # a sidecar field that is dropped, not set

TINY = {
    "dataset": {"kind": "mixed", "height": 24, "width": 24, "classes": 3,
                "noise_sigma": 0.12, "count": 6},
    "ac": {"kernel_size": 5},
    "train": {"epochs": 1, "batch_size": 4, "learning_rate": 0.05},
}


def patched(section: str | None, **values) -> dict:
    """TINY with values set at the top level (section None) or inside section."""
    if section is None:
        return {**TINY, **values}
    return {**TINY, section: {**TINY.get(section, {}), **values}}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def run(*argv):
    return main([str(a) for a in argv])


def dir_digest(root):
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestConfig:
    def test_defaults_are_self_consistent(self):
        cfg = load_config()
        assert cfg == DEFAULTS
        assert cfg["dataset"]["count"] == 200
        assert cfg["loss"]["mu_exp"] == 10
        assert (cfg["loss"]["lambda1"], cfg["loss"]["lambda2"]) == (0.1, 0.01)
        assert cfg["eval"]["trimap_widths"] == [1, 3, 5, 10]
        assert set(cfg["ablate"]["mu_values"]) == {2, 4, 10, 16, 20}
        assert cfg["ablate"]["weights"] == [0.05, 0.1, 0.2, 0.25, 0.5]

    def test_defaults_build_the_default_train_config(self):
        assert build_train_config(load_config()) == model.TrainConfig()

    @pytest.mark.parametrize("converter", ["ac", "sc"])
    @pytest.mark.parametrize("splitter", ["A", "B", "C"])
    @pytest.mark.parametrize("weights", [(0.3, 0.02), (0.0, 0.0)])
    def test_train_sections_round_trip(self, converter, splitter, weights):
        cfg = model.TrainConfig(
            epochs=3, batch_size=2, learning_rate=0.04, momentum=0.5, seed=7,
            loss=LossConfig(norm="l1", mu_exp=4, lambda1=weights[0], lambda2=weights[1]),
            ac=ACConfig(kernel_size=9, splitter=splitter, converter=converter))
        assert build_train_config(train_sections(cfg)) == cfg

    def test_rejects_odd_mu(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"loss": {"mu_exp": 3}}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_rejects_even_kernel(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"ac": {"kernel_size": 6}}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_rejects_unknown_splitter(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"ac": {"splitter": "Z"}}))
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("patch", [
        {"eval": {"trimap_widths": [1, float("inf")]}},
        {"dataset": {"height": float("inf")}},
        {"train": {"val_fraction": "0.2"}},
        {"ablate": {"kernel_sizes": [5, float("inf")]}},
        {"ablate": {"mu_values": []}},
        {"dataset": {"count": 6.9}},
        {"train": {"epochs": 2.5}},
        {"ablate": {"mu_values": [2.5]}},
        {"eval": {"trimap_widths": [1.5]}},
    ], ids=["inf-width", "inf-height", "string-val-fraction", "inf-kernel", "empty-sweep",
            "float-count", "float-epochs", "float-mu", "float-width"])
    def test_unusable_values_are_config_errors(self, tmp_path, patch):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(patch))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"learning": {"rate": 1}}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_flag_overrides_beat_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 3}))
        cfg = load_config(path, {"seed": 9})
        assert cfg["seed"] == 9


#: Every config flag of every command: (command, flag, config key, a value
#: that differs from both DEFAULTS and TINY).
CONFIG_FLAGS = [
    ("gen", "--seed", "seed", 5),
    ("gen", "--kind", "dataset.kind", "touching_disks"),
    ("gen", "--count", "dataset.count", 3),
    ("gen", "--classes", "dataset.classes", 2),
    ("gen", "--noise-sigma", "dataset.noise_sigma", 0.05),
    ("gen", "--height", "dataset.height", 20),
    ("gen", "--width", "dataset.width", 18),
    ("gen", "--gap", "dataset.gap", 2),
    ("convert", "--kernel-size", "ac.kernel_size", 3),
    ("convert", "--splitter", "ac.splitter", "B"),
    ("gradcheck", "--seed", "seed", 5),
    ("train", "--seed", "seed", 5),
    ("train", "--epochs", "train.epochs", 2),
    ("train", "--batch-size", "train.batch_size", 3),
    ("train", "--learning-rate", "train.learning_rate", 0.04),
    ("train", "--val-fraction", "train.val_fraction", 0.5),
    ("train", "--lambda1", "loss.lambda1", 0.2),
    ("train", "--lambda2", "loss.lambda2", 0.02),
    ("train", "--mu-exp", "loss.mu_exp", 4),
    ("train", "--norm", "loss.norm", "l1"),
    ("train", "--kernel-size", "ac.kernel_size", 3),
    ("train", "--splitter", "ac.splitter", "C"),
    ("train", "--ablate", "ac.converter", "sc"),
    ("ablate", "--seed", "seed", 5),
    ("ablate", "--count", "dataset.count", 4),
    ("ablate", "--epochs", "train.epochs", 2),
]


def parser_flags():
    """(command, flag) -> dest of every subcommand option."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {(command, flag): action.dest
            for command, p in sub.choices.items()
            for action in p._actions for flag in action.option_strings}


def config_at(cfg: dict, key: str):
    for part in key.split("."):
        cfg = cfg[part]
    return cfg


@pytest.fixture(scope="module")
def flag_inputs(tmp_path_factory):
    """A tiny dataset and a one-variant ablate config."""
    root = tmp_path_factory.mktemp("flags")
    (root / "config.json").write_text(json.dumps(TINY))
    (root / "ablate.json").write_text(json.dumps({**TINY, "ablate": {"kernel_sizes": [5]}}))
    assert run("gen", "--config", root / "config.json", "--out", root / "data") == 0
    return root


class TestFlagTable:
    def test_every_config_flag_names_a_config_leaf(self):
        flags = {k: dest for k, dest in parser_flags().items() if dest == "seed" or "." in dest}
        assert flags == {(command, flag): key for command, flag, key, _ in CONFIG_FLAGS}
        for key in flags.values():
            assert not isinstance(config_at(DEFAULTS, key), dict), key

    @pytest.mark.parametrize("command,flag,key,value", CONFIG_FLAGS,
                             ids=[f"{c}{f}" for c, f, _, _ in CONFIG_FLAGS])
    def test_each_config_flag_is_recorded(self, tmp_path, flag_inputs, command, flag, key, value):
        data, out = flag_inputs / "data", tmp_path / "out"
        argv = {
            "gen": ("--config", flag_inputs / "config.json", "--out", out),
            "convert": ("--labels", data / "sample_0000.pgm", "--out", out / "f.eplt"),
            "gradcheck": ("--loss", "point_l2", "--samples", 4, "--out", out / "g.json"),
            "train": ("--config", flag_inputs / "config.json", "--data", data, "--out", out),
            "eval": ("--pred", data, "--gt", data, "--out", out),
            "ablate": ("--config", flag_inputs / "ablate.json", "--sweep", "kernel",
                       "--out", out),
        }[command]
        assert run(command, *argv, flag, value) == 0
        if command == "gradcheck":
            recorded = {"seed": json.loads((out / "g.json").read_text())["seed"]}
        else:
            recorded = json.loads((out / "config_echo.json").read_text())["config"]
        assert config_at(recorded, key) == value


class TestGen:
    def test_writes_count_and_manifest(self, tmp_path, tiny_config):
        out = tmp_path / "data"
        assert run("gen", "--config", tiny_config, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["samples"]) == 6
        assert (out / "config_echo.json").exists()
        assert (out / "sample_0000.pgm").exists()

    def test_seed_determinism(self, tmp_path, tiny_config):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("gen", "--config", tiny_config, "--out", a, "--seed", 7) == 0
        assert run("gen", "--config", tiny_config, "--out", b, "--seed", 7) == 0
        assert dir_digest(a) == dir_digest(b)

    def test_bad_class_count_fails_validation(self, tmp_path, tiny_config, capsys):
        assert run("gen", "--config", tiny_config, "--out", tmp_path / "x",
                   "--classes", 1) == 2
        assert "class" in capsys.readouterr().err

    def test_more_classes_than_a_pgm_byte_holds_exits_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run("gen", "--out", out, "--kind", "random_polygons", "--classes", 300,
                   "--noise-sigma", 0, "--count", 2) == 2
        assert "at most 256 classes fit, got classes=300" in capsys.readouterr().err
        assert not out.exists()


class TestConvert:
    def test_square_mask_planes_and_round_trip(self, tmp_path):
        lab = np.zeros((9, 9), dtype=int)
        lab[3:6, 3:6] = 1
        io.write_pgm(tmp_path / "m.pgm", lab)
        out = tmp_path / "fields.eplt"
        assert run("convert", "--labels", tmp_path / "m.pgm", "--out", out,
                   "--kernel-size", 5, "--splitter", "A",
                   "--render", tmp_path / "render") == 0
        fields = io.read_tensor(out)
        assert fields.shape == (4, 2, 9, 9)
        assert set(np.unique(fields)) <= {0.0, 1.0, 2.0, 3.0}
        assert len(list((tmp_path / "render").glob("*.pgm"))) == 8

    def test_splitter_c_has_eight_planes(self, tmp_path):
        lab = np.zeros((9, 9), dtype=int)
        lab[2:6, 2:6] = 1
        io.write_pgm(tmp_path / "m.pgm", lab)
        out = tmp_path / "f.eplt"
        assert run("convert", "--labels", tmp_path / "m.pgm", "--out", out,
                   "--splitter", "C") == 0
        assert io.read_tensor(out).shape[0] == 8

    def test_sc_converter_writes_box_sums(self, tmp_path):
        lab = np.zeros((9, 9), dtype=int)
        lab[2:6, 3:8] = 1
        lab[6:, :4] = 2
        io.write_pgm(tmp_path / "m.pgm", lab)
        config = tmp_path / "sc.json"
        config.write_text(json.dumps({"ac": {"converter": "sc"}}))
        out = tmp_path / "f.eplt"
        assert run("convert", "--config", config, "--labels", tmp_path / "m.pgm", "--out", out,
                   "--kernel-size", 5, "--render", tmp_path / "render") == 0
        energies = io.read_tensor(out)
        expected = standard_convolve(one_hot(lab, 3), 5)[None]
        assert energies.shape == (1, 3, 9, 9)
        npt.assert_array_equal(energies, expected)
        for ci in range(3):
            plane = io.read_pgm(tmp_path / "render" / f"dir0_class{ci}.pgm")
            npt.assert_array_equal(plane, np.rint(expected[0, ci] * 255.0 / 25))
        assert len(list((tmp_path / "render").glob("*.pgm"))) == 3


class TestTrainLossEval:
    def test_train_then_loss_then_eval(self, tmp_path, tiny_config):
        data = tmp_path / "data"
        assert run("gen", "--config", tiny_config, "--out", data) == 0

        run_off = tmp_path / "run_off"
        run_on = tmp_path / "run_on"
        assert run("train", "--config", tiny_config, "--data", data,
                   "--out", run_off, "--epl", "off") == 0
        assert run("train", "--config", tiny_config, "--data", data,
                   "--out", run_on, "--epl", "on") == 0
        for out in (run_off, run_on):
            assert (out / "history.csv").exists()
            assert (out / "history.json").exists()
            assert (out / "checkpoint.eplt").exists()
            assert (out / "config_echo.json").exists()
        hist = json.loads((run_on / "history.json").read_text())
        assert hist[-1]["loss_line"] > 0.0
        hist_off = json.loads((run_off / "history.json").read_text())
        assert hist_off[-1]["loss_line"] == 0.0

        report = tmp_path / "losses.json"
        assert run("loss", "--config", tiny_config, "--data", data,
                   "--checkpoint", run_on / "checkpoint", "--out", report) == 0
        records = json.loads(report.read_text())
        assert {r["loss_name"] for r in records} == {
            "cross_entropy", "point", "line", "dice", "combined",
        }
        assert all(set(r) == {"loss_name", "value", "config", "seed"} for r in records)
        assert all(np.isfinite(r["value"]) for r in records)

    def test_loss_builds_no_gradient(self, tmp_path, tiny_config, monkeypatch):
        data, run_on = tmp_path / "data", tmp_path / "run_on"
        assert run("gen", "--config", tiny_config, "--out", data) == 0
        assert run("train", "--config", tiny_config, "--data", data, "--out", run_on) == 0
        report = tmp_path / "losses.json"
        assert run("loss", "--data", data, "--checkpoint", run_on / "checkpoint",
                   "--out", report) == 0

        def no_adjoint(*args):
            raise AssertionError("epl loss chained a gradient through the adjoint")

        monkeypatch.setattr(model, "_convert_adjoint", no_adjoint)
        again = tmp_path / "again.json"
        assert run("loss", "--data", data, "--checkpoint", run_on / "checkpoint",
                   "--out", again) == 0
        assert again.read_bytes() == report.read_bytes()

    def test_loss_uses_the_checkpoint_config(self, tmp_path, tiny_config):
        # Trained with kernel 5 and the box filter; `epl loss` runs with the
        # defaults (kernel 7, directional conversion) and must still score
        # the checkpoint under its own setup.
        data = tmp_path / "data"
        assert run("gen", "--config", tiny_config, "--out", data) == 0
        out = tmp_path / "run_sc"
        assert run("train", "--config", tiny_config, "--data", data, "--out", out,
                   "--ablate", "sc", "--mu-exp", "2") == 0
        report = tmp_path / "losses.json"
        assert run("loss", "--data", data, "--checkpoint", out / "checkpoint",
                   "--out", report) == 0
        records = {r["loss_name"]: r for r in json.loads(report.read_text())}
        used = records["line"]["config"]
        assert (used["converter"], used["kernel_size"], used["mu_exp"]) == ("sc", 5, 2)

        net, _ = model.load_checkpoint(out / "checkpoint")
        samples, _ = datagen.read_dataset(data)
        cfg = LossConfig(mu_exp=2)
        point = line = 0.0
        for s in samples:
            probs = net.forward(s.image)
            e_gt = standard_convolve(one_hot(s.labels, 3), 5)[None]
            e_pred = standard_convolve(probs, 5)[None]
            point += point_loss(e_gt, e_pred, cfg).value
            line += equipotential_line_loss(e_gt, e_pred, cfg, 2).value
        assert records["point"]["value"] == pytest.approx(point / len(samples), rel=1e-12)
        assert records["line"]["value"] == pytest.approx(line / len(samples), rel=1e-12)

    def test_checkpoint_records_the_nested_config(self, tmp_path, tiny_config):
        data = tmp_path / "data"
        assert run("gen", "--config", tiny_config, "--out", data) == 0
        for flags, converter, weights in ((("--epl", "off"), "ac", (0.0, 0.0)),
                                          (("--ablate", "sc"), "sc", (0.1, 0.01))):
            out = tmp_path / converter
            assert run("train", "--config", tiny_config, "--data", data, "--out", out,
                       "--seed", 4, *flags) == 0
            recorded = json.loads((out / "checkpoint.json").read_text())["config"]
            assert recorded == {
                "seed": 4,
                "ac": {"kernel_size": 5, "splitter": "A", "converter": converter},
                "loss": {"norm": "l2", "mu_exp": 10,
                         "lambda1": weights[0], "lambda2": weights[1]},
                "train": {"epochs": 1, "batch_size": 4, "learning_rate": 0.05, "momentum": 0.9},
            }
            cfg = build_train_config(recorded)
            assert (cfg.ac.converter, cfg.seed, cfg.ac.kernel_size) == (converter, 4, 5)
            assert (cfg.loss.lambda1, cfg.loss.lambda2) == weights

    def test_loss_of_a_zero_weight_checkpoint(self, tmp_path, tiny_config):
        # Like its history, the report of a CE-only checkpoint reads 0.0 for
        # the point and line terms, and the combined loss is the CE.
        data = tmp_path / "data"
        assert run("gen", "--config", tiny_config, "--out", data) == 0
        out = tmp_path / "run_off"
        assert run("train", "--config", tiny_config, "--data", data, "--out", out,
                   "--epl", "off") == 0
        report = tmp_path / "losses.json"
        assert run("loss", "--data", data, "--checkpoint", out / "checkpoint",
                   "--out", report) == 0
        values = {r["loss_name"]: r["value"] for r in json.loads(report.read_text())}
        assert values["point"] == values["line"] == 0.0
        assert values["combined"] == values["cross_entropy"] > 0.0
        history = json.loads((out / "history.json").read_text())
        assert history[-1]["loss_point"] == history[-1]["loss_line"] == 0.0

    def test_loss_records_the_checkpoint_seed(self, tmp_path, tiny_config):
        data = tmp_path / "data"
        assert run("gen", "--config", tiny_config, "--out", data) == 0
        out = tmp_path / "run"
        assert run("train", "--config", tiny_config, "--data", data, "--out", out,
                   "--seed", 4) == 0
        report = tmp_path / "losses.json"
        assert run("loss", "--data", data, "--checkpoint", out / "checkpoint",
                   "--out", report) == 0
        assert {r["seed"] for r in json.loads(report.read_text())} == {4}

    def test_epl_off_zeroes_the_weights_over_lambda_flags(self, tmp_path, tiny_config):
        data = tmp_path / "data"
        assert run("gen", "--config", tiny_config, "--out", data) == 0
        plain, flagged = tmp_path / "off", tmp_path / "off_l1"
        assert run("train", "--config", tiny_config, "--data", data, "--out", plain,
                   "--epl", "off") == 0
        assert run("train", "--config", tiny_config, "--data", data, "--out", flagged,
                   "--epl", "off", "--lambda1", 0.3) == 0
        echo = json.loads((flagged / "config_echo.json").read_text())
        assert (echo["config"]["loss"]["lambda1"], echo["config"]["loss"]["lambda2"]) == (0.0, 0.0)
        assert not {"epl", "ablate"} & set(echo)
        assert (flagged / "history.json").read_bytes() == (plain / "history.json").read_bytes()

    def test_the_class_count_covers_the_validation_labels(self, tmp_path):
        # Seed 2 puts label 3 in the validation sample and not in the training one.
        data, out = tmp_path / "data", tmp_path / "run"
        assert run("gen", "--out", data, "--kind", "random_polygons", "--classes", 6,
                   "--count", 2, "--height", 16, "--width", 16, "--noise-sigma", 0.05,
                   "--seed", 2) == 0
        samples, _ = datagen.read_dataset(data)
        assert [int(s.labels.max()) for s in samples] == [3, 2]
        assert run("train", "--data", data, "--out", out, "--epochs", 1) == 0
        assert json.loads((out / "checkpoint.json").read_text())["num_classes"] == 4

    def test_eval_of_the_validation_predictions_matches_the_history(self, tmp_path):
        # epl eval and the per-epoch history score pairs and average them on one
        # code path, so at the history's width and tolerance they agree exactly.
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {**patched("train", epochs=2), "eval": {"trimap_widths": [3], "f_tolerances": [3]}}))
        data, out = tmp_path / "data", tmp_path / "run"
        assert run("gen", "--config", config, "--out", data) == 0
        assert run("train", "--config", config, "--data", data, "--out", out) == 0
        history = json.loads((out / "history.json").read_text())

        # The checkpoint holds float32 weights, so the trained float64 net is
        # rebuilt from the same config and split, and checked against the history.
        cfg = load_config(config)
        samples, manifest = datagen.read_dataset(data)
        train_set, val_set = _split_train_val(list(zip(manifest["samples"], samples)),
                                              cfg["train"]["val_fraction"])
        assert len(val_set) == 2
        net, rebuilt = model.train([s for _, s in train_set], build_train_config(cfg),
                                   eval_dataset=[s for _, s in val_set])
        assert rebuilt == history

        pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        for stem, s in val_set:
            io.write_pgm(pred_dir / f"{stem}.pgm", np.argmax(net.forward(s.image), axis=0))
            io.write_pgm(gt_dir / f"{stem}.pgm", s.labels)
        report = tmp_path / "eval"
        assert run("eval", "--config", config, "--pred", pred_dir, "--gt", gt_dir,
                   "--out", report, "--classes", net.num_classes) == 0
        mean = json.loads((report / "report.json").read_text())["mean"]
        last = history[-1]
        assert mean["miou"] == last["miou"]
        assert mean["trimap_iou"] == {"3": last["trimap_iou"]}
        assert mean["boundary_f"] == {"3": last["fmeasure"]}

    def test_eval_perfect_and_missing(self, tmp_path, tiny_config, capsys):
        data = tmp_path / "data"
        assert run("gen", "--config", tiny_config, "--out", data) == 0
        out = tmp_path / "eval"
        assert run("eval", "--pred", data, "--gt", data, "--out", out,
                   "--classes", 3) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mean"]["miou"] == 1.0
        with (out / "report.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6 and float(rows[0]["miou"]) == 1.0

        (data / "sample_0003.pgm").unlink()
        pred = tmp_path / "pred"
        pred.mkdir()
        for p in data.glob("*.pgm"):
            (pred / p.name).write_bytes(p.read_bytes())
        (pred / "sample_0001.pgm").unlink()
        assert run("eval", "--pred", pred, "--gt", data, "--out", tmp_path / "e2") == 1
        assert "sample_0001.pgm" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_single_loss_json(self, tmp_path):
        out = tmp_path / "g.json"
        assert run("gradcheck", "--loss", "point_l2", "--samples", 16, "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["reports"][0]["loss_name"] == "point_l2"
        assert payload["reports"][0]["fraction_passing"] >= 0.95

    def test_mu_exp_defaults_to_run_gradcheck(self, tmp_path):
        out = tmp_path / "g.json"
        assert run("gradcheck", "--loss", "line", "--samples", 8, "--out", out) == 0
        report = json.loads(out.read_text())["reports"][0]
        assert report == asdict(gradcheck.run_gradcheck("line", samples=8, seed=0))

    def test_samples_defaults_to_run_gradcheck(self, tmp_path):
        out = tmp_path / "g.json"
        assert run("gradcheck", "--loss", "line", "--out", out) == 0
        report = json.loads(out.read_text())["reports"][0]
        assert report == asdict(gradcheck.run_gradcheck("line", seed=0))


class TestAblate:
    @pytest.mark.parametrize("sweep,value,part,expected", [
        ("mu", 4, "loss", LossConfig(mu_exp=4)),
        ("splitter", "C", "ac", ACConfig(splitter="C")),
        ("kernel", 9, "ac", ACConfig(kernel_size=9)),
        ("weight", 0.25, "loss", LossConfig(lambda1=0.0, lambda2=0.25)),  # point term off
    ])
    def test_each_sweep_trains_its_value_and_nothing_else(self, sweep, value, part, expected):
        cfg = load_config(overrides={"train": {"epochs": 2}})
        built = sweep_train_config(cfg, sweep, value)
        assert getattr(built, part) == expected
        assert built == replace(build_train_config(cfg), **{part: expected})

    @pytest.mark.parametrize("sweep,expected_rows",
                             [("mu", 5), ("splitter", 3), ("kernel", 3), ("weight", 5)])
    def test_sweeps_emit_expected_rows(self, tmp_path, tiny_config, sweep, expected_rows):
        out = tmp_path / f"ab_{sweep}"
        assert run("ablate", "--config", tiny_config, "--sweep", sweep, "--out", out) == 0
        with (out / f"ablate_{sweep}.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == expected_rows
        for row in rows:
            for key in ("loss_ce", "loss_point", "loss_line", "miou"):
                assert np.isfinite(float(row[key]))


class TestValidationSplit:
    @pytest.mark.parametrize("fraction,val", [
        (0, []), (0.2, [0, 5]), (0.25, [0, 4, 8]), (1 / 3, [0, 3, 6, 9]), (0.5, [0, 2, 4, 6, 8]),
    ])
    def test_every_nth_sample_validates(self, fraction, val):
        train, val_set = _split_train_val(list(range(10)), fraction)
        assert val_set == val
        assert train == [i for i in range(10) if i not in val]

    @pytest.mark.parametrize("fraction", [0.3, 0.33, 0.4, 0.6, 0.9, 0.19])
    def test_a_fraction_other_than_one_over_n_exits_2(self, tmp_path, tiny_config, capsys,
                                                       fraction):
        data, out = tmp_path / "data", tmp_path / "run"
        assert run("gen", "--config", tiny_config, "--out", data) == 0
        capsys.readouterr()
        assert run("train", "--config", tiny_config, "--data", data, "--out", out,
                   "--val-fraction", fraction) == 2
        err = capsys.readouterr().err
        assert "train.val_fraction must be 0 or 1/n for an integer n >= 2" in err
        assert f"got {fraction!r}" in err
        assert not out.exists()

    def test_ablate_rejects_the_fraction_before_any_variant_trains(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(patched("train", val_fraction=0.3)))
        out = tmp_path / "ablate"
        assert run("ablate", "--config", path, "--sweep", "mu", "--out", out) == 2
        assert "got 0.3; 1/3 is 0.3333333333333333" in capsys.readouterr().err
        assert not out.exists()


class TestErrorPaths:
    def test_odd_mu_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"loss": {"mu_exp": 5}}))
        assert run("gen", "--config", bad, "--out", tmp_path / "x") == 2
        assert "mu_exp" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value,name", [
        ("train", "--learning-rate", "nan", "learning_rate"),
        ("train", "--learning-rate", "inf", "learning_rate"),
        ("train", "--lambda1", "nan", "lambda1"),
        ("train", "--lambda2", "inf", "lambda2"),
        ("gen", "--noise-sigma", "nan", "noise_sigma"),
    ])
    def test_non_finite_setting_exits_2_before_any_work(self, tmp_path, tiny_config, capsys,
                                                        command, flag, value, name):
        data = tmp_path / "data"
        assert run("gen", "--config", tiny_config, "--out", data) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        where = ("--data", data) if command == "train" else ()
        assert run(command, "--config", tiny_config, *where, "--out", out, flag, value) == 2
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("weight", [-0.5, float("nan")])
    def test_a_bad_last_ablate_weight_exits_2_before_any_variant_trains(
            self, tmp_path, capsys, monkeypatch, weight):
        def no_training(*args, **kwargs):
            raise AssertionError("a variant trained")

        monkeypatch.setattr(model, "train", no_training)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TINY, "ablate": {"weights": [0.1, 0.2, weight]}}))
        out = tmp_path / "ablate"
        assert run("ablate", "--config", path, "--sweep", "weight", "--out", out) == 2
        assert f"lambda2 must be finite and >= 0, got {weight!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_classes_below_a_label_exits_2(self, tmp_path, tiny_config, capsys):
        data = tmp_path / "data"
        assert run("gen", "--config", tiny_config, "--out", data) == 0
        out = tmp_path / "eval"
        assert run("eval", "--pred", data, "--gt", data, "--out", out, "--classes", 2) == 2
        err = capsys.readouterr().err
        first = data / "sample_0000.pgm"
        assert f"error: {first} against {first}: prediction label 2 lies outside [0, 2)" in err
        assert not out.exists()

    def test_eval_names_a_pair_of_unequal_shapes(self, tmp_path, capsys):
        pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        io.write_pgm(pred_dir / "a.pgm", np.zeros((8, 8), dtype=int))
        io.write_pgm(gt_dir / "a.pgm", np.zeros((8, 8), dtype=int))
        io.write_pgm(pred_dir / "b.pgm", np.zeros((6, 8), dtype=int))
        io.write_pgm(gt_dir / "b.pgm", np.zeros((8, 8), dtype=int))
        out = tmp_path / "eval"
        assert run("eval", "--pred", pred_dir, "--gt", gt_dir, "--out", out) == 2
        err = capsys.readouterr().err
        assert (f"error: {pred_dir / 'b.pgm'} against {gt_dir / 'b.pgm'}: label maps must be "
                "2-D with equal shapes, got (6, 8) vs (8, 8)") in err
        assert not out.exists()

    def test_eval_names_a_map_with_a_pixel_above_its_maxval(self, tmp_path, capsys):
        pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        io.write_pgm(pred_dir / "a.pgm", np.zeros((1, 2), dtype=int))
        (gt_dir / "a.pgm").write_bytes(b"P5\n2 1\n3\n\x00\x07")
        out = tmp_path / "eval"
        assert run("eval", "--pred", pred_dir, "--gt", gt_dir, "--out", out) == 2
        assert f"error: {gt_dir / 'a.pgm'}: 1 pixel(s) exceed maxval 3" in capsys.readouterr().err
        assert not out.exists()

    def test_convert_names_a_map_with_a_label_beyond_the_classes(self, tmp_path, capsys):
        lab = np.zeros((9, 9), dtype=int)
        lab[3:6, 3:6] = 2
        io.write_pgm(tmp_path / "m.pgm", lab)
        out = tmp_path / "f.eplt"
        assert run("convert", "--labels", tmp_path / "m.pgm", "--out", out, "--classes", 2) == 2
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'm.pgm'}: labels must lie in [0, 2), found range [0, 2]" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["convert", "eval"])
    def test_seed_is_not_an_option_of_a_command_without_randomness(self, tmp_path, capsys,
                                                                   command):
        where = {"convert": ("--labels", tmp_path / "m.pgm", "--out", tmp_path / "f.eplt"),
                 "eval": ("--pred", tmp_path, "--gt", tmp_path, "--out", tmp_path / "e")}
        with pytest.raises(SystemExit) as exc:
            run(command, *where[command], "--seed", 5)
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not (tmp_path / "f.eplt").exists() and not (tmp_path / "e").exists()

    @pytest.mark.parametrize("value", ["0.05", True], ids=["string", "bool"])
    @pytest.mark.parametrize("command,section,entry,name", [
        ("gen", "dataset", lambda v: {"noise_sigma": v}, "noise_sigma"),
        ("gen", "dataset", lambda v: {"intensities": [0.0, v, 1.0]}, "intensities"),
        ("train", "train", lambda v: {"learning_rate": v}, "learning_rate"),
        ("train", "train", lambda v: {"momentum": v}, "momentum"),
        ("train", "loss", lambda v: {"lambda1": v}, "lambda1"),
        ("train", "loss", lambda v: {"lambda2": v}, "lambda2"),
        ("ablate", "ablate", lambda v: {"weights": [0.1, v]}, "ablate.weights: lambda2"),
    ], ids=["noise_sigma", "intensity", "learning_rate", "momentum", "lambda1", "lambda2",
            "ablate-weight"])
    def test_a_non_number_real_setting_exits_2_before_any_work(self, tmp_path, flag_inputs,
                                                               capsys, command, section,
                                                               entry, name, value):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({**TINY, section: {**TINY.get(section, {}), **entry(value)}}))
        out = tmp_path / "out"
        where = {"gen": (), "train": ("--data", flag_inputs / "data"),
                 "ablate": ("--sweep", "weight")}[command]
        assert run(command, "--config", config, *where, "--out", out) == 2
        assert f"{name} must be " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,cfg,name", [
        ("gen", patched("dataset", count=True), "count"),
        ("gen", patched("dataset", gap=True), "gap"),
        ("train", patched("train", epochs=True), "epochs"),
        ("train", patched("train", batch_size=True), "batch_size"),
        ("gen", patched(None, seed=True), "seed"),
        ("gen", patched("eval", trimap_widths=[1, True]), "eval.trimap_widths"),
        ("train", patched("train", val_fraction=False), "train.val_fraction"),
    ], ids=["count", "gap", "epochs", "batch_size", "seed", "trimap_widths", "val_fraction"])
    def test_a_boolean_integer_setting_exits_2_before_any_work(self, tmp_path, flag_inputs,
                                                               capsys, command, cfg, name):
        config = tmp_path / "bool.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        where = ("--data", flag_inputs / "data") if command == "train" else ()
        assert run(command, "--config", config, *where, "--out", out) == 2
        assert f"{name} must be " in capsys.readouterr().err
        assert not out.exists()

    def test_a_config_file_with_loss_reduction_exits_2(self, tmp_path, capsys):
        config = tmp_path / "reduction.json"
        config.write_text(json.dumps({**TINY, "loss": {"reduction": "mean"}}))
        assert run("gen", "--config", config, "--out", tmp_path / "out") == 2
        assert "unknown config key 'loss.reduction'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", [b"{bad", b"[1]", b"\xff{}"],
                             ids=["not-json", "not-an-object", "not-utf8"])
    def test_a_malformed_config_file_exits_2_naming_it(self, tmp_path, capsys, content):
        config = tmp_path / "malformed.json"
        config.write_bytes(content)
        out = tmp_path / "run"
        assert run("train", "--config", config, "--data", tmp_path / "data", "--out", out) == 2
        assert re.match(rf"error: {re.escape(str(config))}: ", capsys.readouterr().err)
        assert not out.exists()

    def test_train_on_one_sample_names_the_empty_training_split(self, tmp_path, capsys):
        data, out = tmp_path / "data", tmp_path / "run"
        assert run("gen", "--out", data, "--count", 1, "--height", 16, "--width", 16) == 0
        capsys.readouterr()
        assert run("train", "--data", data, "--out", out, "--epochs", 1) == 2
        err = capsys.readouterr().err
        assert "the training split is empty" in err
        assert "the dataset has 1 sample(s) and train.val_fraction 0.2" in err
        assert not out.exists()
        assert run("train", "--data", data, "--out", out, "--epochs", 1,
                   "--val-fraction", 0) == 0

    def test_loss_names_a_label_beyond_the_checkpoint_classes(self, tmp_path, capsys):
        # Seed 2 puts label 3 in sample_0000, beyond a 3-class checkpoint.
        data = tmp_path / "data"
        assert run("gen", "--out", data, "--kind", "random_polygons", "--classes", 6,
                   "--count", 2, "--height", 16, "--width", 16, "--noise-sigma", 0.05,
                   "--seed", 2) == 0
        model.save_checkpoint(tmp_path / "ck", model.TinyNet(1, 3, seed=0),
                              train_sections(build_train_config(load_config())))
        capsys.readouterr()
        assert run("loss", "--data", data, "--checkpoint", tmp_path / "ck",
                   "--out", tmp_path / "losses.json") == 2
        err = capsys.readouterr().err
        assert (f"sample sample_0000 has label 3, beyond checkpoint {tmp_path / 'ck'} "
                "with num_classes 3") in err
        assert not (tmp_path / "losses.json").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["train", "loss"])
    def test_a_non_finite_image_pixel_exits_2_naming_its_file(self, tmp_path, tiny_config,
                                                              capsys, command, value):
        data = tmp_path / "data"
        assert run("gen", "--config", tiny_config, "--out", data) == 0
        image_path = data / "sample_0002.eplt"
        image = io.read_tensor(image_path)
        image[3, 4] = value
        io.write_tensor(image_path, image)
        model.save_checkpoint(tmp_path / "ck", model.TinyNet(1, 3, seed=0),
                              train_sections(build_train_config(load_config())))
        out = tmp_path / "out"
        where = {"train": ("--config", tiny_config, "--out", out),
                 "loss": ("--checkpoint", tmp_path / "ck", "--out", out / "losses.json")}
        capsys.readouterr()
        assert run(command, "--data", data, *where[command]) == 2
        err = capsys.readouterr().err
        assert f"error: {image_path}: the image holds 1 non-finite value(s)" in err
        assert not out.exists()

    def test_missing_labels_file(self, tmp_path, capsys):
        assert run("convert", "--labels", tmp_path / "none.pgm",
                   "--out", tmp_path / "o.eplt") == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("architecture", "conv5x5-softmax"),
        ("hidden", 16),
        pytest.param("in_channels", MISSING, id="in_channels-missing"),
        pytest.param("num_classes", MISSING, id="num_classes-missing"),
        ("in_channels", "1"),
        ("num_classes", None),
    ])
    def test_loss_rejects_a_checkpoint_of_another_net(self, tmp_path, tiny_config, capsys,
                                                      field, value):
        data = tmp_path / "data"
        assert run("gen", "--config", tiny_config, "--out", data) == 0
        model.save_checkpoint(tmp_path / "ck", model.TinyNet(1, 3, seed=0))
        sidecar = json.loads((tmp_path / "ck.json").read_text())
        if value is MISSING:
            del sidecar[field]
        else:
            sidecar[field] = value
        (tmp_path / "ck.json").write_text(json.dumps(sidecar))
        assert run("loss", "--data", data, "--checkpoint", tmp_path / "ck",
                   "--out", tmp_path / "losses.json") == 2
        shown = "missing" if value is MISSING else repr(value)
        assert f"checkpoint {field} is {shown}" in capsys.readouterr().err
        assert not (tmp_path / "losses.json").exists()

    def test_loss_on_an_empty_dataset_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.json").write_text(json.dumps({"samples": []}))
        model.save_checkpoint(tmp_path / "ck", model.TinyNet(1, 3, seed=0))
        assert run("loss", "--data", data, "--checkpoint", tmp_path / "ck") == 2
        assert "the dataset has no samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "loss"])
    def test_manifest_without_samples_exits_2(self, tmp_path, capsys, command):
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.json").write_text(json.dumps({"scene": {}}))
        model.save_checkpoint(tmp_path / "ck", model.TinyNet(1, 3, seed=0))
        where = ("--out", tmp_path / "run") if command == "train" else ("--checkpoint", tmp_path / "ck")
        assert run(command, "--data", data, *where) == 2
        assert "no 'samples' list" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "loss"])
    @pytest.mark.parametrize("manifest,problem", [
        ({"samples": ["sample_0000", 7]}, "'samples' holds 7, which is not a file stem"),
        ("{samples: []}", "not valid JSON (Expecting property name"),
    ], ids=["non-string-stem", "not-json"])
    def test_a_bad_manifest_exits_2_naming_it(self, tmp_path, capsys, command, manifest,
                                              problem):
        data = tmp_path / "data"
        data.mkdir()
        text = manifest if isinstance(manifest, str) else json.dumps(manifest)
        (data / "manifest.json").write_text(text)
        model.save_checkpoint(tmp_path / "ck", model.TinyNet(1, 3, seed=0))
        where = ("--out", tmp_path / "run") if command == "train" else ("--checkpoint", tmp_path / "ck")
        assert run(command, "--data", data, *where) == 2
        err = capsys.readouterr().err
        assert f"error: {data / 'manifest.json'}: {problem}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("sidecar,named,problem", [
        ("[1, 2]", "ck.json", "the sidecar is not a JSON object"),
        ("{bad", "ck.json", "not valid JSON (Expecting property name"),
        ({"config": [1, 2]}, "ck", "sidecar config is a list, not an object"),
        ({"config": "x"}, "ck", "sidecar config is a str, not an object"),
        ({"config": {**train_sections(model.TrainConfig()), "ac": [1, 2]}}, "ck",
         "sidecar config section ac is a list, not an object"),
    ], ids=["list", "not-json", "config-list", "config-string", "section-list"])
    def test_a_bad_sidecar_exits_2_naming_it(self, tmp_path, flag_inputs, capsys, sidecar,
                                             named, problem):
        """A raw text replaces the sidecar; a dict replaces keys of the saved one."""
        model.save_checkpoint(tmp_path / "ck", model.TinyNet(1, 3, seed=0))
        path = tmp_path / "ck.json"
        if isinstance(sidecar, dict):
            sidecar = json.dumps({**json.loads(path.read_text()), **sidecar})
        path.write_text(sidecar)
        assert run("loss", "--data", flag_inputs / "data", "--checkpoint", tmp_path / "ck",
                   "--out", tmp_path / "losses.json") == 2
        err = capsys.readouterr().err
        assert f"error: {tmp_path / named}: {problem}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "losses.json").exists()

    def test_ablate_names_the_step_of_a_non_finite_loss_term(self, tmp_path, tiny_config,
                                                              capsys, monkeypatch):
        def infinite_line(target, e_pred, cfg, radius, want_grad=True, *, weight=1.0,
                          add_to=None):
            grad = (np.zeros_like(e_pred) if add_to is None else add_to) if want_grad else None
            return LossValue(float("inf"), grad)

        monkeypatch.setattr(model, "equipotential_line_loss", infinite_line)
        out = tmp_path / "ablate"
        assert run("ablate", "--config", tiny_config, "--sweep", "mu", "--out", out) == 1
        err = capsys.readouterr().err
        assert re.search(r"error: epoch 0, sample \d+: non-finite loss term\(s\) line: ", err)
        assert not out.exists()

    def test_a_diverged_last_update_exits_1_and_writes_no_checkpoint(self, tmp_path, capsys):
        # one batch, so the update that diverges is the run's last: no later loss sees it
        data, out = tmp_path / "data", tmp_path / "run"
        assert run("gen", "--seed", 1, "--count", 6, "--height", 16, "--width", 16,
                   "--out", data) == 0
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):  # the update overflows on purpose
            code = run("train", "--data", data, "--out", out, "--epochs", 1,
                       "--learning-rate", 1e308)
        assert code == 1
        assert re.search(r"^error: epoch 0, batch 0: the update left \d+ of 691 parameters "
                         r"non-finite or beyond the float32 range", capsys.readouterr().err)
        assert not out.exists()

    def test_a_run_diverging_in_its_second_epoch_keeps_its_first_epochs_history(
            self, tmp_path, capsys, monkeypatch):
        data, out, clean = tmp_path / "data", tmp_path / "run", tmp_path / "clean"
        assert run("gen", "--seed", 1, "--count", 4, "--height", 16, "--width", 16,
                   "--out", data) == 0
        flags = ("--data", data, "--epl", "off", "--val-fraction", 0)
        assert run("train", *flags, "--out", clean, "--epochs", 1) == 0
        capsys.readouterr()
        calls = []
        real_ce = model.cross_entropy_loss

        def ce_then_infinite(probs, labels, want_grad=True):
            calls.append(None)  # the first epoch steps through all 4 samples
            ce = real_ce(probs, labels, want_grad=want_grad)
            return ce if len(calls) <= 4 else LossValue(float("inf"), ce.gradient)

        monkeypatch.setattr(model, "cross_entropy_loss", ce_then_infinite)
        assert run("train", *flags, "--out", out, "--epochs", 2) == 1
        assert re.search(r"^error: epoch 1, sample \d+: non-finite loss term\(s\) ce: ",
                         capsys.readouterr().err)
        assert [r["epoch"] for r in json.loads((out / "history.json").read_text())] == [0]
        for name in ("history.json", "history.csv"):
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name
        assert sorted(p.name for p in out.iterdir()) == [
            "config_echo.json", "history.csv", "history.json"]
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["command"] == "train" and echo["config"]["train"]["epochs"] == 2
        assert (echo["data"], echo["train_samples"], echo["val_samples"]) == (str(data), 4, 0)

    def test_loss_rejects_a_flat_sidecar_config(self, tmp_path, tiny_config, capsys):
        data = tmp_path / "data"
        assert run("gen", "--config", tiny_config, "--out", data) == 0
        flat = {"epochs": 1, "batch_size": 4, "learning_rate": 0.05, "momentum": 0.9,
                "seed": 0, "lambda1": 0.1, "lambda2": 0.01, "kernel_size": 5,
                "splitter": "A", "mu_exp": 10, "norm": "l2", "reduction": "mean",
                "converter": "ac"}
        model.save_checkpoint(tmp_path / "ck", model.TinyNet(1, 3, seed=0), flat)
        assert run("loss", "--data", data, "--checkpoint", tmp_path / "ck",
                   "--out", tmp_path / "losses.json") == 2
        assert "flat config must be retrained" in capsys.readouterr().err
        assert not (tmp_path / "losses.json").exists()

    def test_loss_rejects_a_sidecar_with_the_converter_outside_ac(self, tmp_path, tiny_config,
                                                                   capsys):
        data = tmp_path / "data"
        assert run("gen", "--config", tiny_config, "--out", data) == 0
        sections = train_sections(model.TrainConfig())
        del sections["ac"]["converter"]
        model.save_checkpoint(tmp_path / "ck", model.TinyNet(1, 3, seed=0),
                              {"converter": "sc", **sections})
        assert run("loss", "--data", data, "--checkpoint", tmp_path / "ck",
                   "--out", tmp_path / "losses.json") == 2
        assert "lacks 'converter'" in capsys.readouterr().err
        assert not (tmp_path / "losses.json").exists()

    def test_loss_rejects_a_sidecar_with_a_loss_reduction(self, tmp_path, flag_inputs, capsys):
        sections = train_sections(model.TrainConfig())
        sections["loss"]["reduction"] = "sum"
        model.save_checkpoint(tmp_path / "ck", model.TinyNet(1, 3, seed=0), sections)
        assert run("loss", "--data", flag_inputs / "data", "--checkpoint", tmp_path / "ck",
                   "--out", tmp_path / "losses.json") == 2
        err = capsys.readouterr().err
        assert "holds 'reduction', which LossConfig does not have" in err
        assert "retrained" in err
        assert not (tmp_path / "losses.json").exists()

    @pytest.mark.parametrize("command,key,value", [
        ("gen", "dataset", {"count": 6.9}),
        ("train", "train", {"epochs": 2.5}),
    ])
    def test_a_float_integer_key_exits_2_before_any_work(self, tmp_path, tiny_config, capsys,
                                                         command, key, value):
        data = tmp_path / "data"
        assert run("gen", "--config", tiny_config, "--out", data) == 0
        capsys.readouterr()
        config = tmp_path / "float.json"
        config.write_text(json.dumps({**TINY, key: {**TINY[key], **value}}))
        out = tmp_path / "out"
        where = ("--data", data) if command == "train" else ()
        assert run(command, "--config", config, *where, "--out", out) == 2
        assert "must be an integer" in capsys.readouterr().err
        assert not out.exists()
