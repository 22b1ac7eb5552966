"""Command-line entry point tying the pieces into reproducible experiments.

Subcommands: gen, convert, loss, gradcheck, train, eval, ablate.  Every
command resolves one JSON config (defaults <- --config file <- flags) and
writes a config echo next to its outputs, so a result directory always
records how it was produced.  A flag that sets a config key has that key's
dotted path as its argparse dest (--kernel-size is "ac.kernel_size",
--ablate sc is "ac.converter"), so one reader turns the given flags plus
--seed into the override of every command; train's --epl off adds zero
potential-loss weights to it.  Only the commands that draw random numbers
take --seed: gen, gradcheck, train and ablate (loss uses the seed its
checkpoint recorded; convert and eval draw none).  Exit status is nonzero
on validation or numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import datagen, gradcheck, io, metrics, model
from .fields import SPLITTERS, one_hot
from .losses import NORMS, dice_loss


def _write_json(path, payload) -> None:
    """payload as sorted, indented JSON at path, making its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path, header, rows) -> None:
    """A header line and one line per row (an iterable of values) at path, making its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _echo_config(out_dir, command: str, cfg: dict, **extra) -> None:
    _write_json(Path(out_dir) / "config_echo.json", {"command": command, "config": cfg, **extra})


def _flag_overrides(args) -> dict:
    """The nested config override of the given flags: --seed, every dotted dest, --epl off.

    --epl off zeroes both potential-loss weights, over --lambda1/--lambda2.
    """
    overrides: dict = {}
    for dest, value in vars(args).items():
        if value is None or not (dest == "seed" or "." in dest):
            continue
        *sections, key = dest.split(".")
        node = overrides
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
    if getattr(args, "epl", None) == "off":
        overrides.setdefault("loss", {}).update(lambda1=0.0, lambda2=0.0)
    return overrides


def cmd_gen(args, cfg: dict) -> int:
    spec = config_mod.build_scene_spec(cfg)
    samples = datagen.generate_dataset(spec)
    datagen.write_dataset(args.out, samples, spec)
    _echo_config(args.out, "gen", cfg)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def cmd_convert(args, cfg: dict) -> int:
    labels = io.read_pgm(args.labels)
    num_classes = args.classes if args.classes is not None else int(labels.max()) + 1
    train_cfg = config_mod.build_train_config(cfg)
    try:
        energies = model.label_energies(labels, num_classes, train_cfg)
    except ValueError as exc:
        raise ValueError(f"{args.labels}: {exc}") from exc
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    io.write_tensor(out, energies)
    if args.render is not None:
        render_dir = Path(args.render)
        render_dir.mkdir(parents=True, exist_ok=True)
        scale = 255.0 / train_cfg.ac.max_energy
        for si in range(energies.shape[0]):
            for ci in range(energies.shape[1]):
                plane = np.rint(energies[si, ci] * scale).astype(np.int32)
                io.write_pgm(render_dir / f"dir{si}_class{ci}.pgm", plane)
    _echo_config(out.parent, "convert", cfg, labels=str(args.labels), classes=num_classes)
    print(f"wrote {energies.shape} potential fields to {out}")
    return 0


def _split_train_val(samples: list, val_fraction: float):
    """Every stride-th sample from sample 0 validates, for a val_fraction of 1 / stride.

    Config validation accepts only 0 (no validation split) and 1/n, n >= 2.
    """
    if val_fraction <= 0:
        return samples, []
    stride = round(1.0 / val_fraction)
    val = samples[::stride]
    train = [s for i, s in enumerate(samples) if i % stride != 0]
    if val and not train:
        raise ValueError(f"the training split is empty: the dataset has {len(samples)} sample(s) "
                         f"and train.val_fraction {val_fraction} sends samples 0, {stride}, "
                         f"{2 * stride}, ... to validation")
    return train, val


def cmd_train(args, cfg: dict) -> int:
    samples, _manifest = datagen.read_dataset(args.data)
    train_set, val_set = _split_train_val(samples, cfg["train"]["val_fraction"])
    train_cfg = config_mod.build_train_config(cfg)
    out = Path(args.out)
    echo = {"data": str(args.data), "train_samples": len(train_set), "val_samples": len(val_set)}
    net, history = model.train(train_set, train_cfg, eval_dataset=val_set or None,
                               on_epoch=partial(_write_history, out, cfg, echo))
    model.save_checkpoint(out / "checkpoint", net, config_mod.train_sections(train_cfg))
    last = history[-1]
    print(
        f"epoch {last['epoch']}: ce={last['loss_ce']:.4f} point={last['loss_point']:.4f} "
        f"line={last['loss_line']:.4f} miou={last['miou']:.4f} "
        f"trimap={last['trimap_iou']:.4f} f={last['fmeasure']:.4f}"
    )
    return 0


def _write_history(out_dir: Path, cfg: dict, echo: dict, history: list[dict]) -> None:
    """history.json and history.csv of the epochs so far; the first write also echoes the
    config into out_dir, so a run stopped after an epoch explains itself."""
    if len(history) == 1:
        _echo_config(out_dir, "train", cfg, **echo)
    _write_json(out_dir / "history.json", history)
    _write_csv(out_dir / "history.csv", list(history[0]), (r.values() for r in history))


def _checkpoint_train_config(stem, sidecar: dict) -> model.TrainConfig:
    """The training config recorded in a checkpoint's sidecar."""
    config = sidecar.get("config", {})
    try:
        if not isinstance(config, dict):
            raise TypeError(f"is a {type(config).__name__}, not an object")
        for name in ("ac", "loss", "train"):
            if not isinstance(config.get(name, {}), dict):
                raise TypeError(f"section {name} is a {type(config[name]).__name__}, not an object")
        return config_mod.build_train_config(config)
    except KeyError as exc:
        problem = f"lacks {exc}"
    except TypeError as exc:
        problem = str(exc)
    raise io.FormatError(
        f"{stem}: sidecar config {problem}: it must hold exactly the seed, ac (converter "
        f"included), loss and train sections; a checkpoint with a flat config must be "
        f"retrained, as must one with its converter outside ac or a loss.reduction"
    )


def cmd_loss(args, cfg: dict) -> int:
    """Losses of a checkpoint under the converter, kernel, splitter, mu and weights it used."""
    samples, manifest = datagen.read_dataset(args.data)
    if not samples:
        raise ValueError(f"{args.data}: the dataset has no samples")
    net, sidecar = model.load_checkpoint(args.checkpoint)
    train_cfg = _checkpoint_train_config(args.checkpoint, sidecar)
    for stem, s in zip(manifest["samples"], samples):
        if s.labels.max() >= net.num_classes:
            raise ValueError(f"{args.data}: sample {stem} has label {s.labels.max()}, beyond "
                             f"checkpoint {args.checkpoint} with num_classes {net.num_classes}")
    sums = {"cross_entropy": 0.0, "point": 0.0, "line": 0.0, "dice": 0.0, "combined": 0.0}
    for s in samples:
        probs = net.forward(s.image)
        terms, _ = model.objective(probs, s.labels, train_cfg, want_grad=False)
        sums["cross_entropy"] += terms["ce"]
        sums["point"] += terms["point"]
        sums["line"] += terms["line"]
        sums["dice"] += dice_loss(probs, one_hot(s.labels, net.num_classes)).value
        sums["combined"] += terms["total"]
    n = len(samples)
    used = {**asdict(train_cfg.ac), **asdict(train_cfg.loss)}
    records = [
        {"loss_name": name, "value": total / n, "config": used, "seed": train_cfg.seed}
        for name, total in sums.items()
    ]
    if args.out:
        _write_json(args.out, records)
    print(json.dumps(records, indent=2))
    return 0


def cmd_gradcheck(args, cfg: dict) -> int:
    kinds = gradcheck.LOSS_KINDS if args.loss == "all" else (args.loss,)
    given = {k: v for k, v in {"samples": args.samples, "mu_exp": args.mu_exp}.items()
             if v is not None}
    reports = [asdict(gradcheck.run_gradcheck(kind, seed=cfg["seed"], **given)) for kind in kinds]
    payload = {"command": "gradcheck", "seed": cfg["seed"], "reports": reports}
    if args.out:
        _write_json(args.out, payload)
    print(json.dumps(payload, indent=2))
    failing = [r for r in reports if r["fraction_passing"] < 0.95]
    return 1 if failing else 0


def cmd_eval(args, cfg: dict) -> int:
    widths, tols = cfg["eval"]["trimap_widths"], cfg["eval"]["f_tolerances"]
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
        pred_path = pred_dir / gt_path.name
        gt, pred = io.read_pgm(gt_path), io.read_pgm(pred_path)
        k = args.classes if args.classes is not None else int(max(gt.max(), pred.max())) + 1
        try:
            record = metrics.evaluate_pair(pred, gt, k, widths, tols)
        except ValueError as exc:
            raise ValueError(f"{pred_path} against {gt_path}: {exc}") from exc
        per_sample.append({"sample": gt_path.stem, **record})
    summary = metrics.mean_record(per_sample)
    out = Path(args.out)
    _write_json(out / "report.json", {"per_sample": per_sample, "mean": summary})
    _write_csv(out / "report.csv",
               ["sample", "miou", *(f"trimap_w{w}" for w in widths), *(f"f_tol{t}" for t in tols)],
               ([r["sample"], r["miou"], *(r["trimap_iou"][str(w)] for w in widths),
                 *(r["boundary_f"][str(t)] for t in tols)] for r in per_sample))
    _echo_config(out, "eval", cfg, pred=str(pred_dir), gt=str(gt_dir))
    print(json.dumps(summary, indent=2))
    return 0


#: The last epoch's history columns of each ablate row, after the sweep and its value.
ABLATE_COLUMNS = ("loss_ce", "loss_point", "loss_line", "miou", "trimap_iou", "fmeasure")


def cmd_ablate(args, cfg: dict) -> int:
    samples = datagen.generate_dataset(config_mod.build_scene_spec(cfg))
    train_set, val_set = _split_train_val(samples, cfg["train"]["val_fraction"])
    section, name, values, _ = config_mod.SWEEPS[args.sweep]
    rows = []
    for swept in cfg["ablate"][values]:
        train_cfg = config_mod.sweep_train_config(cfg, args.sweep, swept)
        value = getattr(getattr(train_cfg, section), name)  # as the built config stores it
        _net, history = model.train(train_set, train_cfg, eval_dataset=val_set or None)
        last = history[-1]
        rows.append([args.sweep, value, *(last[k] for k in ABLATE_COLUMNS)])
    csv_path = Path(args.out) / f"ablate_{args.sweep}.csv"
    _write_csv(csv_path, ["sweep", name, *ABLATE_COLUMNS], rows)
    _echo_config(args.out, "ablate", cfg, sweep=args.sweep, rows=len(rows))
    print(f"wrote {len(rows)} rows to {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epl",
        description="Potential-domain segmentation losses: data generation, "
                    "conversion, training, evaluation, and ablations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="top-level seed override")

    def key_flag(p, flag, key, **kwargs):
        """A flag that sets the config key at dotted path `key`, its dest."""
        if "choices" not in kwargs:
            kwargs["metavar"] = key.rsplit(".", 1)[-1].upper()
        p.add_argument(flag, dest=key, **kwargs)

    def ac_flags(p):
        key_flag(p, "--kernel-size", "ac.kernel_size", type=int)
        key_flag(p, "--splitter", "ac.splitter", choices=SPLITTERS)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--out", required=True)
    key_flag(p, "--kind", "dataset.kind", choices=datagen.SCENE_KINDS)
    key_flag(p, "--count", "dataset.count", type=int)
    key_flag(p, "--classes", "dataset.classes", type=int)
    key_flag(p, "--noise-sigma", "dataset.noise_sigma", type=float)
    key_flag(p, "--height", "dataset.height", type=int)
    key_flag(p, "--width", "dataset.width", type=int)
    key_flag(p, "--gap", "dataset.gap", type=int)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("convert", help="convert a label map to potential fields")
    common(p, seed=False)  # the conversion draws no random number
    p.add_argument("--labels", required=True, help="input P5 PGM label map")
    p.add_argument("--out", required=True, help="output .eplt tensor")
    p.add_argument("--classes", type=int, default=None)
    ac_flags(p)
    p.add_argument("--render", type=str, default=None,
                   help="directory for 0-255 PGM renderings of each energy plane")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("loss", help="report losses of a checkpoint on a dataset")
    common(p, seed=False)  # the checkpoint's config holds the seed
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True, help="checkpoint stem (no extension)")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    common(p)
    p.add_argument("--loss", choices=gradcheck.LOSS_KINDS + ("all",), default="all")
    # Unset, --samples and --mu-exp take run_gradcheck's defaults.
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--mu-exp", dest="mu_exp", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="train the tiny segmentation net")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epl", choices=("on", "off"), default="on",
                   help="off trains with cross-entropy only: loss.lambda1 = loss.lambda2 = 0")
    key_flag(p, "--ablate", "ac.converter", choices=("sc",),
             help="sc swaps the directional conversion for a plain box filter")
    key_flag(p, "--epochs", "train.epochs", type=int)
    key_flag(p, "--batch-size", "train.batch_size", type=int)
    key_flag(p, "--learning-rate", "train.learning_rate", type=float)
    key_flag(p, "--val-fraction", "train.val_fraction", type=float)
    key_flag(p, "--lambda1", "loss.lambda1", type=float)
    key_flag(p, "--lambda2", "loss.lambda2", type=float)
    key_flag(p, "--mu-exp", "loss.mu_exp", type=int)
    key_flag(p, "--norm", "loss.norm", choices=NORMS)
    ac_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate predicted label maps against ground truth")
    common(p, seed=False)  # scoring draws no random number
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=None,
                   help="class count; every label of both maps must lie below it "
                        "(default: the largest label + 1)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="hyperparameter sweeps, one CSV row per setting")
    common(p)
    p.add_argument("--sweep", choices=config_mod.SWEEPS, required=True)
    p.add_argument("--out", required=True)
    key_flag(p, "--count", "dataset.count", type=int)
    key_flag(p, "--epochs", "train.epochs", type=int)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, config_mod.load_config(args.config, _flag_overrides(args)))
    except (ValueError, OSError) as exc:  # ConfigError and io.FormatError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # model.TrainingDiverged among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
