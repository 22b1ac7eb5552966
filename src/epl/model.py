"""Tiny fully-convolutional classifier and its potential-domain training loop.

The network is fixed: 3x3 conv (input -> 8) + ReLU, 3x3 conv (8 -> 8) +
ReLU, 1x1 conv (8 -> classes), per-pixel softmax, all with zero padding.
Parameters live in one flat float64 vector.  Training is plain SGD with
momentum on the combined loss: cross-entropy plus weighted point and line
terms evaluated after converting both the one-hot ground truth and the
prediction to the potential domain.  The potential losses touch only the
training objective; the forward path never sees them, so inference cost and
parameter count are identical with the extra terms on or off.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import io, metrics, seeding
from .fields import (
    ACConfig,
    ac_adjoint,
    anisotropic_convolve,
    make_splitter,
    one_hot,
    shift2d,
    standard_convolve,
)
from .losses import (
    LineTarget,
    LossConfig,
    cross_entropy_loss,
    equipotential_line_loss,
    line_target,
    point_loss,
)

HIDDEN = 8
CONVERTERS = ("ac", "sc")

#: Metric settings recorded in the per-epoch history.
HISTORY_TRIMAP_WIDTH = 3
HISTORY_F_TOL = 3

_OFFSETS3 = tuple((dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1))


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 8
    learning_rate: float = 0.05
    momentum: float = 0.9
    seed: int = 0
    lambda1: float = 0.1
    lambda2: float = 0.01
    kernel_size: int = 7
    splitter: str = "A"
    mu_exp: int = 10
    norm: str = "l2"
    reduction: str = "mean"
    converter: str = "ac"

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.converter not in CONVERTERS:
            raise ValueError(f"converter must be one of {CONVERTERS}, got {self.converter!r}")
        # Delegate the loss-side checks (even mu, nonnegative weights, ...).
        self.loss_config()
        self.ac_config()

    def loss_config(self) -> LossConfig:
        return LossConfig(
            norm=self.norm,
            reduction=self.reduction,
            mu_exp=self.mu_exp,
            lambda1=self.lambda1,
            lambda2=self.lambda2,
        )

    def ac_config(self) -> ACConfig:
        return ACConfig(kernel_size=self.kernel_size, splitter=make_splitter(self.splitter))


def _gather3(x: np.ndarray) -> np.ndarray:
    """Stack the nine 3x3-neighborhood shifts of (C, H, W) into (C, 9, H, W)."""
    return np.stack([shift2d(x, dy, dx) for dy, dx in _OFFSETS3], axis=1)


def _conv3(cols: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    cin = cols.shape[0]
    h, wd = cols.shape[-2:]
    out = w.reshape(w.shape[0], cin * 9) @ cols.reshape(cin * 9, h * wd)
    return out.reshape(w.shape[0], h, wd) + b[:, None, None]


def _conv3_backward(g: np.ndarray, cols: np.ndarray, w: np.ndarray, need_dx: bool):
    cout = g.shape[0]
    cin = cols.shape[0]
    h, wd = g.shape[-2:]
    gm = g.reshape(cout, h * wd)
    dw = (gm @ cols.reshape(cin * 9, h * wd).T).reshape(w.shape)
    db = gm.sum(axis=1)
    dx = None
    if need_dx:
        dcols = (w.reshape(cout, cin * 9).T @ gm).reshape(cols.shape)
        dx = np.zeros((cin, h, wd))
        for ui, (dy, dx_off) in enumerate(_OFFSETS3):
            dx += shift2d(dcols[:, ui], -dy, -dx_off)
    return dx, dw, db


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=0, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=0, keepdims=True)


class TinyNet:
    """Fixed-architecture per-pixel classifier with a flat parameter vector."""

    def __init__(self, in_channels: int, num_classes: int, seed: int = 0):
        if in_channels < 1 or num_classes < 2:
            raise ValueError("need at least one input channel and two classes")
        self.in_channels = in_channels
        self.num_classes = num_classes
        self._shapes = (
            ("w1", (HIDDEN, in_channels, 3, 3)),
            ("b1", (HIDDEN,)),
            ("w2", (HIDDEN, HIDDEN, 3, 3)),
            ("b2", (HIDDEN,)),
            ("w3", (num_classes, HIDDEN)),
            ("b3", (num_classes,)),
        )
        self._offsets = {}
        total = 0
        for name, shape in self._shapes:
            size = int(np.prod(shape))
            self._offsets[name] = (total, total + size, shape)
            total += size
        self.theta = np.zeros(total, dtype=np.float64)
        self._init_params(seed)

    @property
    def parameter_count(self) -> int:
        return self.theta.size

    def param(self, name: str) -> np.ndarray:
        start, stop, shape = self._offsets[name]
        return self.theta[start:stop].reshape(shape)

    def _init_params(self, seed: int) -> None:
        rng = seeding.stream(seed, seeding.STREAM_MODEL_INIT)
        fan_in = {"w1": self.in_channels * 9, "b1": self.in_channels * 9,
                  "w2": HIDDEN * 9, "b2": HIDDEN * 9,
                  "w3": HIDDEN, "b3": HIDDEN}
        for name, shape in self._shapes:
            a = np.sqrt(1.0 / fan_in[name])
            self.param(name)[...] = rng.uniform(-a, a, shape)

    def _as_input(self, image) -> np.ndarray:
        x = np.asarray(image, dtype=np.float64)
        if x.ndim == 2:
            x = x[None]
        if x.ndim != 3 or x.shape[0] != self.in_channels:
            raise ValueError(
                f"expected ({self.in_channels}, H, W) or (H, W) input, got shape {np.shape(image)}"
            )
        return x

    def forward_with_cache(self, image, trace: list | None = None):
        x = self._as_input(image)
        cols1 = _gather3(x)
        z1 = _conv3(cols1, self.param("w1"), self.param("b1"))
        if trace is not None:
            trace.append("conv3x3")
        a1 = np.maximum(z1, 0.0)
        if trace is not None:
            trace.append("relu")
        cols2 = _gather3(a1)
        z2 = _conv3(cols2, self.param("w2"), self.param("b2"))
        if trace is not None:
            trace.append("conv3x3")
        a2 = np.maximum(z2, 0.0)
        if trace is not None:
            trace.append("relu")
        h, wd = a2.shape[-2:]
        logits = (self.param("w3") @ a2.reshape(HIDDEN, h * wd)).reshape(self.num_classes, h, wd)
        logits += self.param("b3")[:, None, None]
        if trace is not None:
            trace.append("conv1x1")
        probs = _softmax(logits)
        if trace is not None:
            trace.append("softmax")
        cache = {"cols1": cols1, "z1": z1, "cols2": cols2, "z2": z2, "a2": a2, "probs": probs}
        return probs, cache

    def forward(self, image, trace: list | None = None) -> np.ndarray:
        probs, _ = self.forward_with_cache(image, trace)
        return probs

    def backward_from_probs(self, cache: dict, dprobs: np.ndarray) -> np.ndarray:
        """Chain a gradient w.r.t. the softmax output down to a flat theta gradient."""
        probs = cache["probs"]
        h, wd = probs.shape[-2:]
        dz3 = probs * (dprobs - (dprobs * probs).sum(axis=0, keepdims=True))
        a2 = cache["a2"]
        dw3 = dz3.reshape(self.num_classes, h * wd) @ a2.reshape(HIDDEN, h * wd).T
        db3 = dz3.sum(axis=(1, 2))
        da2 = (self.param("w3").T @ dz3.reshape(self.num_classes, h * wd)).reshape(HIDDEN, h, wd)
        dz2 = da2 * (cache["z2"] > 0)
        da1, dw2, db2 = _conv3_backward(dz2, cache["cols2"], self.param("w2"), need_dx=True)
        dz1 = da1 * (cache["z1"] > 0)
        _, dw1, db1 = _conv3_backward(dz1, cache["cols1"], self.param("w1"), need_dx=False)
        grad = np.empty_like(self.theta)
        for name, part in (("w1", dw1), ("b1", db1), ("w2", dw2),
                           ("b2", db2), ("w3", dw3), ("b3", db3)):
            start, stop, shape = self._offsets[name]
            grad[start:stop] = part.reshape(-1)
        return grad


def forward(net: TinyNet, image, trace: list | None = None) -> np.ndarray:
    """Deterministic probability field for one image."""
    return net.forward(image, trace)


def convert(field: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """Potential energies (|S|, K, H, W) of a (K, H, W) field under cfg's converter."""
    if cfg.converter == "sc":
        return standard_convolve(field, cfg.kernel_size)[None]
    return anisotropic_convolve(field, cfg.ac_config())


def _convert_adjoint(energy_grad: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    if cfg.converter == "sc":
        # The box kernel is symmetric, so the box sum is its own adjoint.
        return standard_convolve(energy_grad[0], cfg.kernel_size)
    return ac_adjoint(energy_grad, cfg.ac_config())


def ground_truth(labels, num_classes: int, cfg: TrainConfig) -> LineTarget:
    """Everything the potential-domain losses need from one label map.

    Labels never change during training, so this runs once per sample:
    the one-hot field, its conversion and the ground-truth side of the line
    loss.  The point loss reads the same integer energies.
    """
    e_gt = convert(one_hot(labels, num_classes), cfg)
    return line_target(e_gt, cfg.mu_exp, cfg.kernel_size // 2)


def backward(net: TinyNet, image, labels, cfg: TrainConfig, target: LineTarget | None = None):
    """Loss terms and the flat parameter gradient of the combined objective.

    target is ground_truth(labels, ...); it is built here when not given.
    """
    probs, cache = net.forward_with_cache(image)
    loss_cfg = cfg.loss_config()
    ce = cross_entropy_loss(probs, labels)
    terms = {"ce": ce.value, "point": 0.0, "line": 0.0}
    dprobs = ce.gradient.copy()
    if cfg.lambda1 > 0 or cfg.lambda2 > 0:
        if target is None:
            target = ground_truth(labels, net.num_classes, cfg)
        e_pred = convert(probs, cfg)
        e_grad = np.zeros_like(e_pred)
        if cfg.lambda1 > 0:
            pt = point_loss(target.energies, e_pred, loss_cfg)
            terms["point"] = pt.value
            e_grad += cfg.lambda1 * pt.gradient
        if cfg.lambda2 > 0:
            # Keep these four arguments positional: perfbench/tracer.py unpacks them.
            ln = equipotential_line_loss(target, e_pred, loss_cfg, cfg.kernel_size // 2)
            terms["line"] = ln.value
            e_grad += cfg.lambda2 * ln.gradient
        dprobs += _convert_adjoint(e_grad, cfg)
    terms["total"] = terms["ce"] + cfg.lambda1 * terms["point"] + cfg.lambda2 * terms["line"]
    if not np.isfinite(terms["total"]):
        raise TrainingDiverged(f"non-finite loss {terms}")
    return terms, net.backward_from_probs(cache, dprobs)


def _epoch_metrics(net: TinyNet, samples) -> dict:
    mious, trims, fms = [], [], []
    for s in samples:
        pred = np.argmax(net.forward(s.image), axis=0)
        mious.append(metrics.miou(pred, s.labels, net.num_classes)[1])
        tri = metrics.trimap_iou(pred, s.labels, net.num_classes, HISTORY_TRIMAP_WIDTH)
        if np.isfinite(tri):
            trims.append(tri)
        fms.append(metrics.boundary_fmeasure(pred, s.labels, HISTORY_F_TOL))
    return {
        "miou": float(np.mean(mious)),
        "trimap_iou": float(np.mean(trims)) if trims else float("nan"),
        "fmeasure": float(np.mean(fms)),
    }


def train(dataset, cfg: TrainConfig, num_classes: int | None = None, eval_dataset=None):
    """SGD with momentum over the combined loss; returns (net, history).

    History holds one record per epoch: mean loss terms over the epoch's
    steps plus mIoU / trimap IoU / boundary F of the current net on
    `eval_dataset` (the training set when none is given).  Runs are
    deterministic for a fixed config.
    """
    samples = list(dataset)
    if not samples:
        raise ValueError("dataset is empty")
    if num_classes is None:
        num_classes = int(max(int(s.labels.max()) for s in samples)) + 1
    net = TinyNet(1, num_classes, seed=cfg.seed)
    velocity = np.zeros_like(net.theta)
    eval_samples = samples if eval_dataset is None else list(eval_dataset)
    potential = cfg.lambda1 > 0 or cfg.lambda2 > 0
    targets = [ground_truth(s.labels, num_classes, cfg) if potential else None for s in samples]
    history = []
    for epoch in range(cfg.epochs):
        order = seeding.stream(cfg.seed, seeding.STREAM_TRAIN_SHUFFLE, epoch).permutation(len(samples))
        sums = {"ce": 0.0, "point": 0.0, "line": 0.0, "total": 0.0}
        n_steps = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            grad = np.zeros_like(net.theta)
            for idx in batch:
                s = samples[idx]
                try:
                    terms, g = backward(net, s.image, s.labels, cfg, targets[idx])
                except TrainingDiverged as exc:
                    raise TrainingDiverged(
                        f"epoch {epoch}, sample {int(idx)}: {exc}"
                    ) from None
                grad += g
                for key in sums:
                    sums[key] += terms[key]
            grad /= len(batch)
            velocity = cfg.momentum * velocity - cfg.learning_rate * grad
            net.theta += velocity
            n_steps += 1
        record = {"epoch": epoch}
        record.update({f"loss_{k}": sums[k] / len(order) for k in ("ce", "point", "line", "total")})
        record.update(_epoch_metrics(net, eval_samples))
        history.append(record)
    return net, history


def save_checkpoint(stem, net: TinyNet, config: dict | None = None) -> None:
    """Parameters as <stem>.eplt plus a JSON sidecar describing the net."""
    stem = str(stem)
    io.write_tensor(stem + ".eplt", net.theta)
    sidecar = {
        "architecture": "conv3x3-relu-conv3x3-relu-conv1x1-softmax",
        "hidden": HIDDEN,
        "in_channels": net.in_channels,
        "num_classes": net.num_classes,
        "parameter_count": net.parameter_count,
        "config": config or {},
    }
    Path(stem + ".json").write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")


def load_checkpoint(stem):
    stem = str(stem)
    sidecar = json.loads(Path(stem + ".json").read_text(encoding="utf-8"))
    net = TinyNet(int(sidecar["in_channels"]), int(sidecar["num_classes"]))
    theta = io.read_tensor(stem + ".eplt").astype(np.float64)
    if theta.shape != net.theta.shape:
        raise io.FormatError(
            f"{stem}: checkpoint has {theta.size} parameters, expected {net.theta.size}"
        )
    net.theta = theta
    return net, sidecar


def train_config_to_json(cfg: TrainConfig) -> dict:
    return asdict(cfg)
