"""Benchmark of the epl library, driven through its command line in process.

    python3 perfbench/run.py --workload train-ac --seed 0 --seconds 25 --trace 0

Run it from the repository root: it imports `epl` from ./src and works in
./.perfbench-work.  Each workload is a closed loop with one caller: one
process, BLAS and OpenMP pinned to one thread, and the seed turned into
scenes by `epl gen`.

Set-up runs `epl gen` (for eval-pgm it also writes the predictions) and one
warm-up command; it is repeated SETUP_REPEATS times into fresh directories
and `setup_s` is the median.  The workload's `epl train` or `epl eval` call
then repeats until `--seconds` have passed.  Only the `epl.cli.main` call is
timed.  Every call is checked: exit code 0, finite losses, metric values in
[0, 1], control pairs scoring exactly 1, and output bit-identical to the
first call's.  An operation is a training sample-step (epochs x training
scenes; the per-epoch validation is inside the call) or one eval pair.

--trace 0 reports the end-to-end metrics:
  ops_per_s    operations per second of one call, median over the calls
  peak_rss_mb  peak resident memory of this process
  setup_s      median set-up time
--trace 1 alternates untraced calls with calls that have every layer wrapped
(see tracer.py), and reports the per-layer metrics and the tracing overhead.

The last line printed is the JSON result; the line before it records the
machine, the time of each call and the quality of the last call.
`--workload all` runs every workload in its own process and prints one line
per metric, with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

SETUP_REPEATS = 3
CLASSES = 3
CONTROL_PAIRS = 2  # eval pairs whose prediction is the ground truth itself
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    command: str  # "train" or "eval"
    size: int  # scenes are size x size
    count: int  # scenes generated
    flags: tuple[str, ...] = ()  # extra flags of the timed command
    epochs: int = 3
    directions: int = 0  # potential-field directions; 0 when nothing is converted


WORKLOADS = {
    "train-ac": Workload("train", 64, 50, ("--batch-size", "1"), directions=4),
    "train-ce": Workload("train", 64, 50, ("--batch-size", "1", "--epl", "off")),
    "train-ac-dense": Workload("train", 96, 25, ("--batch-size", "1", "--splitter", "C",
                                                 "--kernel-size", "9", "--mu-exp", "2"),
                               directions=8),
    "eval-pgm": Workload("eval", 64, 60, ("--classes", str(CLASSES))),
}


@dataclass
class Outcome:
    ops: int
    failed: int
    seconds: float
    fingerprint: bytes
    quality: dict


def energy_tensor_bytes(wl: Workload) -> int:
    """Computed size of one float64 (directions, classes, H, W) energy tensor."""
    return wl.directions * CLASSES * wl.size * wl.size * 8


def environment() -> dict:
    import numpy as np

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l2 = None
    with contextlib.suppress(OSError):
        l2 = Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l2_per_core": l2,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class Bench:
    """One workload at one seed, with its working directory."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        from epl import cli

        self.cli = cli
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.reference: bytes | None = None
        self.ops_per_call = self.wl.count

    def _cli(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main([str(a) for a in argv])

    def _command(self, root: Path, out: Path, extra=()) -> list:
        wl = self.wl
        if wl.command == "train":
            return ["train", "--data", root / "data", "--out", out, "--seed", self.seed,
                    "--epochs", wl.epochs, *wl.flags, *extra]
        return ["eval", "--pred", root / "pred", "--gt", root / "data", "--out", out, *wl.flags]

    def setup(self, root: Path, warm_up: bool = True) -> None:
        wl = self.wl
        code = self._cli(["gen", "--out", root / "data", "--seed", self.seed, "--count", wl.count,
                          "--height", wl.size, "--width", wl.size, "--classes", CLASSES])
        if code != 0:
            raise RuntimeError(f"epl gen exited with {code}")
        if wl.command == "eval":
            self._write_predictions(root / "data", root / "pred")
        if warm_up:
            code = self._cli(self._command(root, root / "warm", ("--epochs", "1")))
            if code != 0:
                raise RuntimeError(f"warm-up epl {wl.command} exited with {code}")
            if wl.command == "train":
                echo = json.loads((root / "warm" / "config_echo.json").read_text())
                self.ops_per_call = wl.epochs * echo["train_samples"]

    def _write_predictions(self, data: Path, pred: Path) -> None:
        """Nearest class intensity of the noisy image: a weak per-pixel classifier."""
        import numpy as np
        from epl import io as epl_io

        pred.mkdir(parents=True)
        levels = np.linspace(0.0, 1.0, CLASSES)
        stems = json.loads((data / "manifest.json").read_text())["samples"]
        for i, stem in enumerate(stems):
            if i < CONTROL_PAIRS:
                labels = epl_io.read_pgm(data / f"{stem}.pgm")
            else:
                image = epl_io.read_tensor(data / f"{stem}.eplt")
                labels = np.abs(image[None] - levels[:, None, None]).argmin(axis=0)
            epl_io.write_pgm(pred / f"{stem}.pgm", labels)

    def call(self, root: Path, clock=time.perf_counter) -> Outcome:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = [str(a) for a in self._command(root, out)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = clock()
            try:
                code = self.cli.main(argv)
            except Exception:  # a crash is a failed call, not a dead benchmark
                traceback.print_exc()
                code = -1
            seconds = clock() - t0
        outcome = Outcome(self.ops_per_call, self.ops_per_call, seconds, b"", {})
        if code == 0:
            check = self._check_train if self.wl.command == "train" else self._check_eval
            try:
                outcome.fingerprint, outcome.quality, outcome.failed = check(out)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                print(f"unreadable output of epl {self.wl.command}: {exc!r}", file=sys.stderr)
        if self.reference is None and not outcome.failed:
            self.reference = outcome.fingerprint
        if outcome.fingerprint != self.reference:
            outcome.failed = outcome.ops
        return outcome

    def _check_train(self, out: Path) -> tuple[bytes, dict, int]:
        raw = (out / "history.json").read_bytes()
        history = json.loads(raw)
        finite = all(math.isfinite(r[k]) for r in history for k in r if k.startswith("loss_"))
        last = history[-1]
        quality = {"val_miou": last["miou"], "val_trimap_iou": last["trimap_iou"]}
        ok = finite and len(history) == self.wl.epochs and all(
            0.0 <= v <= 1.0 for v in quality.values())
        return raw, quality, 0 if ok else self.ops_per_call

    def _check_eval(self, out: Path) -> tuple[bytes, dict, int]:
        raw = (out / "report.json").read_bytes()
        report = json.loads(raw)
        failed = self.ops_per_call - len(report["per_sample"])
        for i, pair in enumerate(report["per_sample"]):
            values = [*pair["per_class_iou"], pair["miou"],
                      *pair["trimap_iou"].values(), *pair["boundary_f"].values()]
            values = [v for v in values if v is not None]
            if i < CONTROL_PAIRS:
                ok = pair["miou"] == 1.0 and all(v == 1.0 for v in values)
            else:
                ok = all(0.0 <= v <= 1.0 for v in values)
            failed += not ok
        mean = report["mean"]
        quality = {"val_miou": mean["miou"], "val_trimap_iou": mean["trimap_iou"]["3"]}
        return raw, quality, failed

    def measure(self, root: Path, seconds: float) -> list[Outcome]:
        outcomes = []
        start = time.perf_counter()
        while not outcomes or time.perf_counter() - start < seconds:
            outcomes.append(self.call(root))
        return outcomes


def ops_per_s(outcomes: list[Outcome]) -> float:
    return statistics.median(o.ops / o.seconds for o in outcomes)


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    bench = Bench(name, seed, work)
    setup_times = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        bench.setup(work / f"setup{i}")
        setup_times.append(time.perf_counter() - t0)
    inputs = work / f"setup{SETUP_REPEATS - 1}"
    if not trace:
        outcomes = bench.measure(inputs, seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "ops_per_s": (ops_per_s(outcomes), "1/s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    else:
        from tracer import Tracer

        tracer = Tracer()
        with tracer.installed():
            bench.setup(work / "traced", warm_up=False)
        # Alternate untraced and traced calls, so a drift in machine speed
        # hits both sides of the overhead alike.
        untraced, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            untraced.append(bench.call(inputs))
            with tracer.installed():
                traced.append(bench.call(work / "traced", clock=tracer.now))
        outcomes = untraced + traced
        metrics = tracer.layer_metrics()
        overhead = ops_per_s(untraced) / ops_per_s(traced) - 1.0
        metrics["trace_overhead_share"] = (overhead, "share")
        spans_file = work.parent / f"trace-{name}-seed{seed}.json"
        spans_file.write_text(json.dumps({"fields": ["name", "run", "parent", "start", "end"],
                                          "spans": tracer.spans}))
    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    info = {
        "workload": name,
        "seed": seed,
        "call_seconds": [o.seconds for o in outcomes],
        "ops_per_call": outcomes[0].ops,
        "energy_tensor_bytes_computed": energy_tensor_bytes(bench.wl),
        "quality": outcomes[-1].quality,
        "setup_s_each": setup_times,
        "env": environment(),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return info, result


def run_all(args) -> int:
    """Each workload in a fresh process, then one line per metric: workload, name, value, unit."""
    rows, ok = [], True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        rows.append(f"{name:15s} {'attempted':38s} {result['attempted']} ops, {result['failed']} failed")
        rows += [f"{name:15s} {metric:38s} {m['value']:.6g} {m['unit']}"
                 for metric, m in result["metrics"].items()]
    print("\n".join(rows))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "epl" / "cli.py").is_file():
        print(f"error: no epl sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    work_root = root / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        info, result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
