"""Command-line entry point tying the pieces into reproducible experiments.

Subcommands: gen, convert, loss, gradcheck, train, eval, ablate.  Every
command resolves one JSON config (defaults <- --config file <- flags) and
writes a config echo next to its outputs, so a result directory always
records how it was produced.  Exit status is nonzero on validation or
numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import datagen, gradcheck, io, metrics, model
from .config import ConfigError
from .fields import anisotropic_convolve, one_hot
from .losses import (
    combine_losses,
    cross_entropy_loss,
    dice_loss,
    equipotential_line_loss,
    point_loss,
)


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _echo_config(out_dir, command: str, cfg: dict, extra: dict | None = None) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"command": command, "config": cfg}
    if extra:
        payload.update(extra)
    _write_json(out / "config_echo.json", payload)


def _flag_overrides(args, mapping: dict) -> dict:
    """Build a nested override dict from the non-None CLI flags."""
    overrides: dict = {}
    for attr, path in mapping.items():
        value = getattr(args, attr, None)
        if value is None:
            continue
        node = overrides
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return overrides


def _generate(cfg: dict) -> list[datagen.Sample]:
    kind = cfg["dataset"]["kind"]
    if kind == "mixed":
        spec = config_mod.build_scene_spec(cfg, kind="adjacent_rects")
        return datagen.generate_mixed_dataset(spec)
    return datagen.generate_dataset(config_mod.build_scene_spec(cfg))


def cmd_gen(args) -> int:
    overrides = _flag_overrides(args, {
        "seed": ("seed",),
        "kind": ("dataset", "kind"),
        "count": ("dataset", "count"),
        "classes": ("dataset", "classes"),
        "noise_sigma": ("dataset", "noise_sigma"),
        "height": ("dataset", "height"),
        "width": ("dataset", "width"),
        "gap": ("dataset", "gap"),
    })
    cfg = config_mod.load_config(args.config, overrides)
    samples = _generate(cfg)
    spec = config_mod.build_scene_spec(
        cfg, kind="adjacent_rects" if cfg["dataset"]["kind"] == "mixed" else None
    )
    datagen.write_dataset(args.out, samples, spec, extra={"kind": cfg["dataset"]["kind"]})
    _echo_config(args.out, "gen", cfg)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def cmd_convert(args) -> int:
    overrides = _flag_overrides(args, {
        "kernel_size": ("ac", "kernel_size"),
        "splitter": ("ac", "splitter"),
    })
    cfg = config_mod.load_config(args.config, overrides)
    labels = io.read_pgm(args.labels)
    num_classes = args.classes if args.classes is not None else int(labels.max()) + 1
    ac_cfg = config_mod.build_ac_config(cfg)
    energies = anisotropic_convolve(one_hot(labels, num_classes), ac_cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    io.write_tensor(out, energies)
    if args.render is not None:
        render_dir = Path(args.render)
        render_dir.mkdir(parents=True, exist_ok=True)
        scale = 255.0 / (ac_cfg.radius + 1)
        for si in range(energies.shape[0]):
            for ci in range(energies.shape[1]):
                plane = np.rint(energies[si, ci] * scale).astype(np.int32)
                io.write_pgm(render_dir / f"dir{si}_class{ci}.pgm", plane)
    _echo_config(out.parent, "convert", cfg, {"labels": str(args.labels), "classes": num_classes})
    print(f"wrote {energies.shape} potential fields to {out}")
    return 0


def _split_train_val(samples: list, val_fraction: float):
    if val_fraction <= 0:
        return samples, []
    stride = max(2, round(1.0 / val_fraction))
    val = samples[::stride]
    train = [s for i, s in enumerate(samples) if i % stride != 0]
    return train, val


def cmd_train(args) -> int:
    overrides = _flag_overrides(args, {
        "seed": ("seed",),
        "epochs": ("train", "epochs"),
        "batch_size": ("train", "batch_size"),
        "learning_rate": ("train", "learning_rate"),
        "val_fraction": ("train", "val_fraction"),
        "lambda1": ("loss", "lambda1"),
        "lambda2": ("loss", "lambda2"),
        "mu_exp": ("loss", "mu_exp"),
        "norm": ("loss", "norm"),
        "kernel_size": ("ac", "kernel_size"),
        "splitter": ("ac", "splitter"),
    })
    cfg = config_mod.load_config(args.config, overrides)
    samples, _manifest = datagen.read_dataset(args.data)
    train_set, val_set = _split_train_val(samples, cfg["train"]["val_fraction"])
    train_cfg = config_mod.build_train_config(
        cfg,
        epl=args.epl != "off",
        converter="sc" if args.ablate == "sc" else "ac",
    )
    net, history = model.train(train_set, train_cfg, eval_dataset=val_set or None)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_history(out, history)
    model.save_checkpoint(out / "checkpoint", net, model.train_config_to_json(train_cfg))
    _echo_config(out, "train", cfg, {
        "data": str(args.data),
        "epl": args.epl,
        "ablate": args.ablate,
        "train_samples": len(train_set),
        "val_samples": len(val_set),
    })
    last = history[-1]
    print(
        f"epoch {last['epoch']}: ce={last['loss_ce']:.4f} point={last['loss_point']:.4f} "
        f"line={last['loss_line']:.4f} miou={last['miou']:.4f} "
        f"trimap={last['trimap_iou']:.4f} f={last['fmeasure']:.4f}"
    )
    return 0


def _write_history(out_dir: Path, history: list[dict]) -> None:
    _write_json(out_dir / "history.json", history)
    with (out_dir / "history.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(history[0].keys()))
        writer.writeheader()
        writer.writerows(history)


def _checkpoint_train_config(stem, sidecar: dict) -> model.TrainConfig:
    """The training config recorded in a checkpoint's sidecar."""
    try:
        return model.TrainConfig(**sidecar.get("config", {}))
    except TypeError as exc:
        raise io.FormatError(f"{stem}: sidecar config is not a training config ({exc})") from None


def cmd_loss(args) -> int:
    """Losses of a checkpoint under the converter, kernel, splitter, mu and weights it used."""
    cfg = config_mod.load_config(args.config, _flag_overrides(args, {"seed": ("seed",)}))
    samples, _ = datagen.read_dataset(args.data)
    net, sidecar = model.load_checkpoint(args.checkpoint)
    train_cfg = _checkpoint_train_config(args.checkpoint, sidecar)
    loss_cfg = train_cfg.loss_config()
    sums = {"cross_entropy": 0.0, "point": 0.0, "line": 0.0, "dice": 0.0, "combined": 0.0}
    for s in samples:
        probs = net.forward(s.image)
        gt = one_hot(s.labels, net.num_classes)
        target = model.ground_truth(s.labels, net.num_classes, train_cfg)
        e_pred = model.convert(probs, train_cfg)
        ce = cross_entropy_loss(probs, s.labels)
        pt = point_loss(target.energies, e_pred, loss_cfg)
        ln = equipotential_line_loss(target, e_pred, loss_cfg, train_cfg.kernel_size // 2)
        sums["cross_entropy"] += ce.value
        sums["point"] += pt.value
        sums["line"] += ln.value
        sums["dice"] += dice_loss(probs, gt).value
        sums["combined"] += combine_losses(ce, pt, ln, loss_cfg).value
    n = len(samples)
    used = {key: getattr(train_cfg, key) for key in (
        "converter", "kernel_size", "splitter", "mu_exp", "lambda1", "lambda2", "norm", "reduction",
    )}
    records = [
        {"loss_name": name, "value": total / n, "config": used, "seed": cfg["seed"]}
        for name, total in sums.items()
    ]
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        _write_json(args.out, records)
    print(json.dumps(records, indent=2))
    return 0


def cmd_gradcheck(args) -> int:
    cfg = config_mod.load_config(args.config, _flag_overrides(args, {"seed": ("seed",)}))
    kinds = gradcheck.LOSS_KINDS if args.loss == "all" else (args.loss,)
    reports = []
    for kind in kinds:
        report = gradcheck.run_gradcheck(
            kind,
            samples=args.samples,
            seed=cfg["seed"],
            mu_exp=args.mu_exp if args.mu_exp is not None else 2,
        )
        reports.append(report.to_json())
    payload = {"command": "gradcheck", "seed": cfg["seed"], "reports": reports}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        _write_json(args.out, payload)
    print(json.dumps(payload, indent=2))
    failing = [r for r in reports if r["fraction_passing"] < 0.95]
    return 1 if failing else 0


def cmd_eval(args) -> int:
    cfg = config_mod.load_config(args.config, {})
    widths = [int(w) for w in cfg["eval"]["trimap_widths"]]
    tols = [int(t) for t in cfg["eval"]["f_tolerances"]]
    gt_dir = Path(args.gt)
    pred_dir = Path(args.pred)
    gt_files = sorted(gt_dir.glob("*.pgm"))
    if not gt_files:
        print(f"error: no .pgm label maps under {gt_dir}", file=sys.stderr)
        return 2
    missing = [gt.name for gt in gt_files if not (pred_dir / gt.name).exists()]
    if missing:
        print("error: missing predictions for:", file=sys.stderr)
        for name in missing:
            print(f"  {name}", file=sys.stderr)
        return 1
    per_sample = []
    for gt_path in gt_files:
        gt = io.read_pgm(gt_path)
        pred = io.read_pgm(pred_dir / gt_path.name)
        k = args.classes if args.classes is not None else int(max(gt.max(), pred.max())) + 1
        report = metrics.evaluate_pair(pred, gt, k, widths, tols)
        per_sample.append({"sample": gt_path.stem, **report.to_json()})
    summary = {
        "miou": float(np.mean([r["miou"] for r in per_sample])),
        "trimap_iou": {
            str(w): _nanmean([r["trimap_iou"][str(w)] for r in per_sample]) for w in widths
        },
        "boundary_f": {
            str(t): float(np.mean([r["boundary_f"][str(t)] for r in per_sample])) for t in tols
        },
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", {"per_sample": per_sample, "mean": summary})
    with (out / "report.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample", "miou"]
                        + [f"trimap_w{w}" for w in widths]
                        + [f"f_tol{t}" for t in tols])
        for r in per_sample:
            writer.writerow([r["sample"], r["miou"]]
                            + [r["trimap_iou"][str(w)] for w in widths]
                            + [r["boundary_f"][str(t)] for t in tols])
    _echo_config(out, "eval", cfg, {"pred": str(pred_dir), "gt": str(gt_dir)})
    print(json.dumps(summary, indent=2))
    return 0


def _nanmean(values) -> float | None:
    vals = [v for v in values if v is not None]
    return float(np.mean(vals)) if vals else None


SWEEPS = ("mu", "splitter", "kernel", "weight")


def cmd_ablate(args) -> int:
    overrides = _flag_overrides(args, {
        "seed": ("seed",),
        "count": ("dataset", "count"),
        "epochs": ("train", "epochs"),
    })
    cfg = config_mod.load_config(args.config, overrides)
    samples = _generate(cfg)
    train_set, val_set = _split_train_val(samples, cfg["train"]["val_fraction"])
    ab = cfg["ablate"]
    if args.sweep == "mu":
        variants = [("mu_exp", int(v), {"loss": {"mu_exp": int(v)}}) for v in ab["mu_values"]]
    elif args.sweep == "splitter":
        variants = [("splitter", s, {"ac": {"splitter": s}}) for s in ab["splitters"]]
    elif args.sweep == "kernel":
        variants = [("kernel_size", int(v), {"ac": {"kernel_size": int(v)}}) for v in ab["kernel_sizes"]]
    else:
        # Weight sweep follows the line-loss protocol: the swept value is the
        # line weight, with the point term off.
        variants = [("lambda2", float(v), {"loss": {"lambda1": 0.0, "lambda2": float(v)}})
                    for v in ab["weights"]]
    rows = []
    for name, value, patch in variants:
        variant_cfg = config_mod.load_config(None, _deep_merge_patch(cfg, patch))
        train_cfg = config_mod.build_train_config(variant_cfg)
        _net, history = model.train(train_set, train_cfg, eval_dataset=val_set or None)
        last = history[-1]
        if not all(np.isfinite(v) for k, v in last.items() if k.startswith("loss_")):
            raise RuntimeError(f"non-finite losses in sweep {args.sweep}={value}: {last}")
        rows.append({
            "sweep": args.sweep,
            name: value,
            "loss_ce": last["loss_ce"],
            "loss_point": last["loss_point"],
            "loss_line": last["loss_line"],
            "miou": last["miou"],
            "trimap_iou": last["trimap_iou"],
            "fmeasure": last["fmeasure"],
        })
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"ablate_{args.sweep}.csv"
    fieldnames = ["sweep", variants[0][0], "loss_ce", "loss_point", "loss_line",
                  "miou", "trimap_iou", "fmeasure"]
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    _echo_config(out, "ablate", cfg, {"sweep": args.sweep, "rows": len(rows)})
    print(f"wrote {len(rows)} rows to {csv_path}")
    return 0


def _deep_merge_patch(cfg: dict, patch: dict) -> dict:
    """Overlay a nested patch onto a resolved config (returns override dict)."""
    merged = json.loads(json.dumps(cfg))
    stack = [(merged, patch)]
    while stack:
        dst, src = stack.pop()
        for key, value in src.items():
            if isinstance(value, dict) and isinstance(dst.get(key), dict):
                stack.append((dst[key], value))
            else:
                dst[key] = value
    return merged


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epl",
        description="Potential-domain segmentation losses: data generation, "
                    "conversion, training, evaluation, and ablations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="top-level seed override")

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=config_mod.DATASET_KINDS, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--gap", type=int, default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("convert", help="convert a label map to potential fields")
    common(p)
    p.add_argument("--labels", required=True, help="input P5 PGM label map")
    p.add_argument("--out", required=True, help="output .eplt tensor")
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--kernel-size", dest="kernel_size", type=int, default=None)
    p.add_argument("--splitter", choices=("A", "B", "C"), default=None)
    p.add_argument("--render", type=str, default=None,
                   help="directory for 0-255 PGM renderings of each energy plane")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("loss", help="report losses of a checkpoint on a dataset")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True, help="checkpoint stem (no extension)")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    common(p)
    p.add_argument("--loss", choices=gradcheck.LOSS_KINDS + ("all",), default="all")
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--mu-exp", dest="mu_exp", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="train the tiny segmentation net")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epl", choices=("on", "off"), default="on",
                   help="off trains with cross-entropy only")
    p.add_argument("--ablate", choices=("sc",), default=None,
                   help="sc swaps the directional conversion for a plain box filter")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--val-fraction", dest="val_fraction", type=float, default=None)
    p.add_argument("--lambda1", type=float, default=None)
    p.add_argument("--lambda2", type=float, default=None)
    p.add_argument("--mu-exp", dest="mu_exp", type=int, default=None)
    p.add_argument("--norm", choices=("l1", "l2"), default=None)
    p.add_argument("--kernel-size", dest="kernel_size", type=int, default=None)
    p.add_argument("--splitter", choices=("A", "B", "C"), default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate predicted label maps against ground truth")
    common(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="hyperparameter sweeps, one CSV row per setting")
    common(p)
    p.add_argument("--sweep", choices=SWEEPS, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, io.FormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (model.TrainingDiverged, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
