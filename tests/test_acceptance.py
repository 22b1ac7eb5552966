"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The desk-scale training comparison (criteria 7 and 8) is computed
once in a module fixture and shared; its 15 runs go to a process pool.
"""

import csv
import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from epl import datagen, model
from epl.cli import main as cli_main
from epl.fields import ACConfig, anisotropic_convolve, one_hot
from epl.gradcheck import run_gradcheck
from epl.losses import (
    LossConfig,
    equipotential_dice,
    equipotential_line_loss,
    point_loss,
)
from epl.metrics import boundary_band, boundary_fmeasure, miou, trimap_iou
from line_regions_reference import build_line_regions
from potential_reference import potential_oracle


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_conversion_oracle():
    rng = np.random.default_rng(101)
    kernels = (3, 5, 7)
    kinds = ("A", "B", "C")
    start = time.perf_counter()
    worst_real = 0.0
    for case in range(400):
        h = int(rng.integers(4, 17))
        w = int(rng.integers(4, 17))
        k = int(rng.integers(1, 5))
        cfg = ACConfig(int(rng.choice(kernels)), str(rng.choice(kinds)))
        if case < 200:
            field = (rng.random((k, h, w)) > 0.5).astype(float)
            exact = np.array_equal(anisotropic_convolve(field, cfg), potential_oracle(field, cfg))
            assert exact, f"binary mismatch at case {case}"
        else:
            field = rng.random((k, h, w))
            diff = np.abs(anisotropic_convolve(field, cfg) - potential_oracle(field, cfg)).max()
            worst_real = max(worst_real, diff)
    elapsed = time.perf_counter() - start
    ok = worst_real < 1e-9 and elapsed < 5.0
    report(1, "conversion oracle", ok,
           f"400 fields, max real deviation {worst_real:.2e}, {elapsed:.2f}s")


def test_criterion_2_energy_range():
    lab = np.zeros((13, 13), dtype=int)
    lab[4:9, 4:9] = 1  # centered 5x5 square
    field = one_hot(lab, 2)

    e5 = anisotropic_convolve(field, ACConfig(5, "A"))
    values5 = set(np.unique(e5[:, 1]))
    ok5 = values5 == {0.0, 1.0, 2.0, 3.0}

    e7 = anisotropic_convolve(field, ACConfig(7, "A"))
    values7 = set(np.unique(e7[:, 1]))
    ok7 = values7 == {0.0, 1.0, 2.0, 3.0, 4.0}
    levels_present = all((e7[:, 1] == tau).any() for tau in (1, 2, 3))
    report(2, "energy range", ok5 and ok7 and levels_present,
           f"w=5 values {sorted(int(v) for v in values5)}, "
           f"w=7 values {sorted(int(v) for v in values7)}")


def test_criterion_3_perfect_prediction_zeros():
    rng = np.random.default_rng(103)
    cfg_ac = ACConfig(5, "A")
    worst_point = 0.0
    worst_line = 0.0
    worst_edc_gap = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 5))
        lab = rng.integers(0, k, (int(rng.integers(6, 14)), int(rng.integers(6, 14))))
        energies = anisotropic_convolve(one_hot(lab, k), cfg_ac)
        for norm in ("l1", "l2"):
            worst_point = max(worst_point,
                              abs(point_loss(energies, energies, LossConfig(norm=norm)).value))
        cfg = LossConfig(mu_exp=10)
        worst_line = max(worst_line,
                         abs(equipotential_line_loss(energies, energies, cfg, cfg_ac.radius).value))
        edc = equipotential_dice(energies, energies, cfg, cfg_ac.radius)
        finite = edc[~np.isnan(edc)]
        if finite.size:
            worst_edc_gap = max(worst_edc_gap, float(np.abs(finite - 1.0).max()))
    ok = worst_point == 0.0 and worst_line < 1e-12 and worst_edc_gap < 1e-6
    report(3, "perfect-prediction zeros", ok,
           f"max point {worst_point:.1e}, line {worst_line:.1e}, EDC gap {worst_edc_gap:.1e}")


def test_criterion_4_equal_count_property():
    rng = np.random.default_rng(104)
    checked = 0
    for _ in range(100):
        radius = int(rng.integers(1, 4))
        shape = (int(rng.integers(3, 12)), int(rng.integers(3, 12)))
        gt = rng.integers(0, radius + 2, shape).astype(float)
        pred = rng.random(shape)
        regions = build_line_regions(gt, pred, radius)
        for tau in range(1, radius + 1):
            assert len(regions.levels[tau - 1]) == len(regions.pred_levels[tau - 1])
            checked += 1
    report(4, "equal-count line regions", True, f"{checked} level pairs matched")


def test_criterion_5_gradient_verification():
    start = time.perf_counter()
    cases = [
        ("point_l1", 2), ("point_l2", 2),
        ("line", 2), ("line", 10),
        ("cross_entropy", 2), ("dice", 2),
        ("composite", 10),
    ]
    results = []
    for kind, mu in cases:
        rep = run_gradcheck(kind, samples=256, seed=0, mu_exp=mu)
        results.append((kind, mu, rep.fraction_passing, rep.max_rel_error))
    elapsed = time.perf_counter() - start
    ok = all(frac >= 0.95 for _, _, frac, _ in results) and elapsed < 60.0
    detail = "; ".join(f"{k}(mu={m})={f:.3f}" for k, m, f, _ in results)
    report(5, "gradient verification", ok, f"{detail}; {elapsed:.1f}s")


def _loop_miou(pred, gt, k):
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


def _loop_trimap(pred, gt, k, width):
    band = boundary_band(gt, width)
    if not band.any():
        return float("nan")
    ious = []
    for c in range(k):
        inter = union = 0
        for y in range(gt.shape[0]):
            for x in range(gt.shape[1]):
                if not band[y, x]:
                    continue
                p = pred[y, x] == c
                g = gt[y, x] == c
                inter += p and g
                union += p or g
        if union:
            ious.append(inter / union)
    return float(np.mean(ious))


def _loop_fmeasure(pred, gt, tol):
    def boundary_points(lab):
        pts = []
        h, w = lab.shape
        for y in range(h):
            for x in range(w):
                for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w and lab[yy, xx] != lab[y, x]:
                        pts.append((y, x, lab[y, x]))
                        break
        return pts

    bp = boundary_points(pred)
    bg = boundary_points(gt)
    if not bp and not bg:
        return 1.0
    if not bp or not bg:
        return 0.0

    def hits(points, others):
        n = 0
        for y, x, c in points:
            for yy, xx, cc in others:
                if cc == c and max(abs(yy - y), abs(xx - x)) <= tol:
                    n += 1
                    break
        return n

    precision = hits(bp, bg) / len(bp)
    recall = hits(bg, bp) / len(bg)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def test_criterion_6_metrics_oracle():
    rng = np.random.default_rng(106)
    k = 3
    for i in range(100):
        gt = rng.integers(0, k, (16, 16))
        pred = rng.integers(0, k, (16, 16)) if i % 3 else gt.copy()
        assert miou(pred, gt, k)[1] == _loop_miou(pred, gt, k)
        lhs = trimap_iou(pred, gt, k, 3)
        rhs = _loop_trimap(pred, gt, k, 3)
        assert (math.isnan(lhs) and math.isnan(rhs)) or lhs == rhs
        tol = int(rng.integers(0, 4))
        assert boundary_fmeasure(pred, gt, tol) == _loop_fmeasure(pred, gt, tol)
    mono = rng.integers(0, k, (16, 16)), rng.integers(0, k, (16, 16))
    fs = [boundary_fmeasure(mono[0], mono[1], t) for t in range(0, 6)]
    assert all(b >= a for a, b in zip(fs, fs[1:]))
    report(6, "metrics oracle", True, "100 pairs exact; F monotone in tolerance")


# --- desk-scale comparison (criteria 7 and 8) -------------------------------

SEEDS = (0, 1, 2, 3, 4)
SIGMA = 0.16
EPOCHS = 5
LEARNING_RATE = 0.06


def _desk_run(seed, lambda1, lambda2, converter):
    spec = datagen.SceneSpec(kind="mixed", height=64, width=64, classes=3,
                             noise_sigma=SIGMA, count=200, seed=seed)
    samples = datagen.generate_dataset(spec)
    val = samples[::5]
    train = [s for i, s in enumerate(samples) if i % 5 != 0]
    cfg = model.TrainConfig(epochs=EPOCHS, batch_size=8, learning_rate=LEARNING_RATE,
                            seed=seed,
                            loss=LossConfig(lambda1=lambda1, lambda2=lambda2, mu_exp=10, norm="l2"),
                            ac=ACConfig(kernel_size=7, splitter="A",
                                        converter=converter))
    start = time.perf_counter()
    _net, history = model.train(train, cfg, eval_dataset=val)
    elapsed = time.perf_counter() - start
    last = history[-1]
    return {"miou": last["miou"], "trimap": last["trimap_iou"], "seconds": elapsed}


#: Desk arm -> (lambda1, lambda2, converter).
ARMS = {"ce": (0.0, 0.0, "ac"), "epl": (0.1, 0.01, "ac"), "sc": (0.1, 0.01, "sc")}


@pytest.fixture(scope="module")
def desk_results():
    """Every arm on every seed, as independent runs in a pool of at most one worker per CPU.

    Workers are spawned from an environment with BLAS and OpenMP pinned to
    one thread, so the pin holds before they import numpy.  Each run is
    deterministic, so the results do not depend on the pool.
    """
    jobs = [(seed, *ARMS[arm]) for seed in SEEDS for arm in ARMS]
    with pytest.MonkeyPatch.context() as patch:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            patch.setenv(var, "1")
        with ProcessPoolExecutor(max_workers=min(len(jobs), os.cpu_count() or 1),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            runs = list(pool.map(_desk_run, *zip(*jobs)))
    return {arm: runs[i::len(ARMS)] for i, arm in enumerate(ARMS)}


def test_criterion_7_desk_scale_epl_effect(desk_results):
    ce, epl = desk_results["ce"], desk_results["epl"]
    baseline_in_band = all(0.7 <= r["miou"] <= 0.95 for r in ce)
    wins = sum(e["trimap"] > c["trimap"] for c, e in zip(ce, epl))
    mean_ce = float(np.mean([r["miou"] for r in ce]))
    mean_epl = float(np.mean([r["miou"] for r in epl]))
    runtime_ok = all(r["seconds"] < 900.0 for r in ce + epl)
    ok = baseline_in_band and wins >= 4 and mean_epl >= mean_ce - 0.005 and runtime_ok
    report(7, "desk-scale EPL effect", ok,
           f"trimap wins {wins}/5, baseline mIoU {mean_ce:.4f} (band ok={baseline_in_band}), "
           f"EPL mIoU {mean_epl:.4f}, slowest run "
           f"{max(r['seconds'] for r in ce + epl):.0f}s")


def test_criterion_8_sc_ablation_direction(desk_results):
    epl, sc = desk_results["epl"], desk_results["sc"]
    holds = sum(a["trimap"] >= s["trimap"] - 0.005 for a, s in zip(epl, sc))
    ok = holds >= 4
    report(8, "box-filter ablation direction", ok,
           f"AC >= SC - 0.5pt on {holds}/5 seeds "
           f"(AC mean {np.mean([r['trimap'] for r in epl]):.4f}, "
           f"SC mean {np.mean([r['trimap'] for r in sc]):.4f})")


def test_criterion_9_ablation_harness(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": {"kind": "mixed", "height": 24, "width": 24, "classes": 3,
                    "noise_sigma": 0.12, "count": 6},
        "ac": {"kernel_size": 5},
        "train": {"epochs": 1, "batch_size": 4, "learning_rate": 0.05},
    }))
    expected = {"mu": 5, "splitter": 3, "weight": 5}
    counts = {}
    for sweep, want in expected.items():
        out = tmp_path / f"ab_{sweep}"
        code = cli_main(["ablate", "--config", str(config), "--sweep", sweep,
                         "--out", str(out)])
        assert code == 0, f"{sweep} sweep exited {code}"
        with (out / f"ablate_{sweep}.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            for key in ("loss_ce", "loss_point", "loss_line", "miou", "fmeasure"):
                assert np.isfinite(float(row[key])), f"non-finite {key} in {sweep} sweep"
        counts[sweep] = len(rows)
        assert len(rows) == want, f"{sweep} sweep produced {len(rows)} rows, wanted {want}"
    report(9, "ablation harness", True,
           f"rows mu={counts['mu']}, splitter={counts['splitter']}, weight={counts['weight']}")
