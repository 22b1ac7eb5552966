import csv
import hashlib
import json

import numpy as np
import pytest

from epl import datagen, io, model
from epl.cli import main
from epl.fields import one_hot, standard_convolve
from epl.losses import LossConfig, equipotential_line_loss, point_loss
from epl.config import ConfigError, DEFAULTS, load_config

TINY = {
    "dataset": {"kind": "mixed", "height": 24, "width": 24, "classes": 3,
                "noise_sigma": 0.12, "count": 6},
    "ac": {"kernel_size": 5},
    "train": {"epochs": 1, "batch_size": 4, "learning_rate": 0.05},
}


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

    def test_sc_ablation_flag(self, tmp_path, tiny_config):
        data = tmp_path / "data"
        assert run("gen", "--config", tiny_config, "--out", data) == 0
        out = tmp_path / "run_sc"
        assert run("train", "--config", tiny_config, "--data", data,
                   "--out", out, "--ablate", "sc") == 0
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["ablate"] == "sc"

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


class TestAblate:
    @pytest.mark.parametrize("sweep,expected_rows", [("mu", 5), ("splitter", 3), ("weight", 5)])
    def test_sweeps_emit_expected_rows(self, tmp_path, tiny_config, sweep, expected_rows):
        out = tmp_path / f"ab_{sweep}"
        assert run("ablate", "--config", tiny_config, "--sweep", sweep, "--out", out) == 0
        with (out / f"ablate_{sweep}.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == expected_rows
        for row in rows:
            for key in ("loss_ce", "loss_point", "loss_line", "miou"):
                assert np.isfinite(float(row[key]))


class TestErrorPaths:
    def test_odd_mu_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"loss": {"mu_exp": 5}}))
        assert run("gen", "--config", bad, "--out", tmp_path / "x") == 2
        assert "mu_exp" in capsys.readouterr().err

    def test_missing_labels_file(self, tmp_path, capsys):
        assert run("convert", "--labels", tmp_path / "none.pgm",
                   "--out", tmp_path / "o.eplt") == 2
        assert "error" in capsys.readouterr().err
