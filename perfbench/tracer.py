"""Layer spans for the epl benchmark, recorded from outside the program.

`Tracer.install()` (or the `installed()` context) replaces each public function named in `SPANS` with a
wrapper wherever an `epl` module (or the `TinyNet` class) holds that same
object, so a call site stays traced whichever module it moves to.  Each call
becomes one span ``[name, run, parent, start, end]``; `run` numbers the
top-level calls, so the spans of one command share it.  Spans stay in memory
until `uninstall()` restores every original.

Some wrappers also count waste (repeated ground-truth conversions, useless
line-loss terms, bytes through the io layer).  That counting runs on a clock
that is paused, so it adds to no span.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import os
import statistics
import sys
import time
from collections import Counter

# span name -> (module, attribute path)
SPANS = {
    "cli.main": ("epl.cli", "main"),
    "datagen.generate_sample": ("epl.datagen", "generate_sample"),
    "datagen.read_dataset": ("epl.datagen", "read_dataset"),
    "datagen.write_dataset": ("epl.datagen", "write_dataset"),
    "io.read_pgm": ("epl.io", "read_pgm"),
    "io.write_pgm": ("epl.io", "write_pgm"),
    "io.read_tensor": ("epl.io", "read_tensor"),
    "io.write_tensor": ("epl.io", "write_tensor"),
    "model.train": ("epl.model", "train"),
    "model.backward": ("epl.model", "backward"),
    "model.forward_with_cache": ("epl.model", "TinyNet.forward_with_cache"),
    "model.backward_from_probs": ("epl.model", "TinyNet.backward_from_probs"),
    "fields.one_hot": ("epl.fields", "one_hot"),
    "fields.anisotropic_convolve": ("epl.fields", "anisotropic_convolve"),
    "fields.ac_adjoint": ("epl.fields", "ac_adjoint"),
    "losses.cross_entropy_loss": ("epl.losses", "cross_entropy_loss"),
    "losses.point_loss": ("epl.losses", "point_loss"),
    "losses.equipotential_line_loss": ("epl.losses", "equipotential_line_loss"),
    "metrics.miou": ("epl.metrics", "miou"),
    "metrics.trimap_iou": ("epl.metrics", "trimap_iou"),
    "metrics.boundary_fmeasure": ("epl.metrics", "boundary_fmeasure"),
    "metrics.chebyshev_dilate": ("epl.metrics", "chebyshev_dilate"),
    "metrics.evaluate_pair": ("epl.metrics", "evaluate_pair"),
}

NAME, RUN, PARENT, START, END = range(5)


def epl_namespaces() -> list:
    """Every loaded `epl` module plus the `TinyNet` class."""
    importlib.import_module("epl.cli")  # pulls in every submodule the CLI uses
    mods = [m for n, m in sorted(sys.modules.items()) if n == "epl" or n.startswith("epl.")]
    return mods + [sys.modules["epl.model"].TinyNet]


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s[END])
            if b > a:
                covered += b - a
                reach = b
        out.append(s[END] - s[START] - covered)
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._paused = 0.0
        self._runs = 0
        self._seen_gt: set[bytes] = set()
        self._patches: list[tuple] = []
        self._hooks = {
            "fields.anisotropic_convolve": self._count_conversion,
            "losses.equipotential_line_loss": self._count_line_terms,
            "io.read_pgm": self._count_read,
            "io.read_tensor": self._count_read,
            "io.write_pgm": self._count_write,
            "io.write_tensor": self._count_write,
        }

    def now(self) -> float:
        return time.perf_counter() - self._paused

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not stack:
                self._runs += 1
                self._seen_gt.clear()  # repeats count within one command
            span = [name, self._runs, stack[-1] if stack else -1, self.now(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = self.now()
                stack.pop()
            if hook is not None:
                t0 = time.perf_counter()
                hook(args, kwargs)
                self._paused += time.perf_counter() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = epl_namespaces()
        for name, (module, path) in SPANS.items():
            original = importlib.import_module(module)
            for part in path.split("."):
                original = getattr(original, part)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            ns, key, original = self._patches.pop()
            setattr(ns, key, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- waste counters (run with the span clock paused) -------------------

    def _count_conversion(self, args, kwargs) -> None:
        import numpy as np

        field = np.asarray(args[0] if args else kwargs["field"])
        if np.all((field == 0.0) | (field == 1.0)):
            digest = hashlib.blake2b(field.tobytes(), digest_size=16).digest()
            digest += repr(field.shape).encode()
            self.counts["convert_gt"] += 1
            self.counts["convert_gt_repeat"] += digest in self._seen_gt
            self._seen_gt.add(digest)

    def _count_line_terms(self, args, kwargs) -> None:
        import numpy as np
        from epl.losses import equipotential_dice

        e_gt, e_pred, cfg, radius = args
        edc = equipotential_dice(e_gt, e_pred, cfg, radius)
        self.counts["line_terms"] += edc.size
        self.counts["line_useful"] += int(np.count_nonzero(edc < 1.0))

    def _count_read(self, args, kwargs) -> None:
        self.counts["bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])

    def _count_write(self, args, kwargs) -> None:
        self.counts["bytes_written"] += os.path.getsize(args[0] if args else kwargs["path"])

    # -- summary ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-span calls, median ms and self-time share, plus the waste ratios."""
        selfs = self_times(self.spans)
        wall = sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)
        durations: dict[str, list[float]] = {}
        self_sum: Counter = Counter()
        for s, st in zip(self.spans, selfs):
            durations.setdefault(s[NAME], []).append(s[END] - s[START])
            self_sum[s[NAME]] += st
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            d = durations.get(name, [])
            out[f"{name}.calls"] = (len(d), "count")
            out[f"{name}.ms_p50"] = (1e3 * statistics.median(d) if d else 0.0, "ms")
            out[f"{name}.self_share"] = (self_sum[name] / wall if wall > 0 else 0.0, "share")
        c = self.counts
        steps = len(durations.get("model.backward", []))
        converts = len(durations.get("fields.anisotropic_convolve", []))
        out["fields.convert_calls_per_step"] = (converts / steps if steps else 0.0, "count")
        out["fields.convert_repeat_share"] = (
            c["convert_gt_repeat"] / c["convert_gt"] if c["convert_gt"] else 0.0, "share")
        out["losses.line_useful_share"] = (
            c["line_useful"] / c["line_terms"] if c["line_terms"] else 0.0, "share")
        out["io.bytes_read"] = (c["bytes_read"], "B")
        out["io.bytes_written"] = (c["bytes_written"], "B")
        return out
