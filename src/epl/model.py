"""Tiny fully-convolutional classifier and its potential-domain training loop.

The network is fixed: 3x3 conv (input -> 8) + ReLU, 3x3 conv (8 -> 8) +
ReLU, 1x1 conv (8 -> classes), per-pixel softmax, all with zero padding.
Parameters live in one flat float64 vector.  Training is plain SGD with
momentum on one objective (see objective): cross-entropy plus weighted
point and line terms evaluated after converting both the ground truth
(label_energies) and the prediction to the potential domain.  The
potential losses touch only the training objective; the forward path
never sees them, so inference cost and parameter count are identical with
the extra terms on or off.

col2im runs over zero-bordered, flattened planes, one tap at a time, so
each of its nine shifted adds is one contiguous 1-D add
(fields._add_at_offset).  Each net keeps a workspace (_Workspace) for the
last input shape it saw, rebuilt only when the shape changes, so a
steady-state step allocates none of its buffers; the forward's cache and a
training step's energy tensors live in it.  Hence:

- the cache of ``forward_with_cache`` serves one ``backward_from_probs``,
  before the next forward on the same net; probabilities, parameter
  gradients and losses are fresh arrays;
- a net is not shared across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import io, metrics, seeding
from .fields import (
    ACConfig,
    _add_at_offset,
    ac_adjoint,
    anisotropic_convolve,
    one_hot,
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
ARCHITECTURE = "conv3x3-relu-conv3x3-relu-conv1x1-softmax"

#: Metric settings recorded in the per-epoch history.
HISTORY_TRIMAP_WIDTH = 3
HISTORY_F_TOL = 3

#: Largest parameter magnitude a float32 checkpoint holds; training stops
#: with TrainingDiverged when an update leaves a parameter beyond it or NaN.
PARAM_LIMIT = float(np.finfo(np.float32).max)

_OFFSETS3 = tuple((dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1))


class TrainingDiverged(RuntimeError):
    """Raised when the training loss or a parameter stops being finite."""


@dataclass(frozen=True)
class TrainConfig:
    """One training run: optimizer settings and the loss and conversion settings.

    epochs, batch_size and seed are ints (not bools); learning_rate and
    momentum are ints or floats (not bools), stored as floats.
    """

    epochs: int = 5
    batch_size: int = 8
    learning_rate: float = 0.06
    momentum: float = 0.9
    seed: int = 0
    loss: LossConfig = LossConfig()
    ac: ACConfig = ACConfig()

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size", "seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        for name in ("learning_rate", "momentum"):
            value = getattr(self, name)
            if type(value) not in (int, float):
                raise ValueError(f"{name} must be a number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")


class _Workspace:
    """Scratch buffers of one TinyNet for one input shape (C, H, W).

    Forward: the zero-bordered padded inputs (pad1, pad2) and im2col
    matrices (cols1, cols2) of both 3x3 convs, a2 and the logits.  Both conv
    GEMMs write into a2 and relu runs in place (conv1's into pad2's
    interior); the backward takes the relu masks off a2 and cols2's centre
    tap, relu(z1), since relu(z) > 0 exactly when z > 0.
    Backward: once read, logits takes the softmax-input gradient, a2 the
    hidden-layer gradient and pad2 col2im's padded output gradient (its
    interior alone).  cols2 is the first 72*H*W floats of one scratch array
    of max(72*H*W, 16*(H+2)*(W+2)) floats, whose first 16*(H+2)*(W+2) hold
    col2im's one-tap columns dcols (HIDDEN, (H+2)*(W+2)) and padded
    accumulator acc, back to back, once the mask of cols2's centre tap is
    taken.
    Between the forward and the backward the scratch is lent (lend) to
    objective's two energy tensors, 2*|S|*K*H*W floats, and grown when
    they do not fit; lent counts the floats lent.  The loan lasts until the
    backward, which regathers from pad2 (relu(z1) until col2im) the
    ceil(lent / (9*H*W)) channels of cols2 it covered, or until a forward,
    which gathers all of cols2.
    """

    def __init__(self, shape: tuple, num_classes: int):
        cin, h, w = shape
        self.shape = shape
        self.pad1 = np.zeros((cin, h + 2, w + 2))
        self.cols1 = np.empty((cin, 9, h, w))
        self.pad2 = np.zeros((HIDDEN, h + 2, w + 2))
        self._new_scratch(max(HIDDEN * 9 * h * w, 2 * HIDDEN * (h + 2) * (w + 2)))
        self.a2 = np.empty((HIDDEN, h, w))
        self.logits = np.empty((num_classes, h, w))

    def _new_scratch(self, size: int) -> None:
        """A fresh scratch array of size floats, with cols2, dcols and acc over its front."""
        _, h, w = self.shape
        padded = HIDDEN * (h + 2) * (w + 2)
        self.scratch = np.empty(size)
        self.cols2 = self.scratch[:HIDDEN * 9 * h * w].reshape(HIDDEN, 9, h, w)
        self.dcols = self.scratch[:padded].reshape(HIDDEN, (h + 2) * (w + 2))
        self.acc = self.scratch[padded:2 * padded].reshape(HIDDEN, h + 2, w + 2)
        self.lent = 0

    def lend(self, size: int) -> np.ndarray:
        """The scratch's first size floats, grown to hold them, lent until the next backward.

        A grown scratch leaves the cache's cols2 in the old one, intact.
        """
        if size > self.scratch.size:
            self._new_scratch(size)
        self.lent = size
        return self.scratch[:size]


def _gather3(pad: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Fill cols (C, 9, H, W) with the nine 3x3-neighborhood shifts of pad's interior.

    pad is (C, H+2, W+2) with a zero border, so cols[:, ui] is the interior
    shifted by _OFFSETS3[ui] with zero fill.
    """
    h, w = cols.shape[-2:]
    for ui, (dy, dx) in enumerate(_OFFSETS3):
        cols[:, ui] = pad[:, 1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
    return cols


def _conv3(cols: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out (Cout, H, W) = 3x3 conv of the input gathered in cols, plus bias."""
    cout = w.shape[0]
    np.matmul(w.reshape(cout, -1), cols.reshape(w[0].size, -1), out=out.reshape(cout, -1))
    out += b[:, None, None]
    return out


def _conv3_param_grads(g: np.ndarray, cols: np.ndarray, w: np.ndarray):
    """Weight and bias gradients of a 3x3 conv from its output gradient g."""
    gm = g.reshape(g.shape[0], -1)
    dw = (gm @ cols.reshape(w[0].size, -1).T).reshape(w.shape)
    return dw, gm.sum(axis=1)


def _conv3_input_grad(g: np.ndarray, w: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Input gradient of a 3x3 conv by col2im into ws.acc; returns the interior view dx.

    g is copied into the interior of ws.pad2, which the forward is done with.
    For each tap, in _OFFSETS3 order, one GEMM of the tap's (Cin, Cout) weights
    with the flattened padded planes fills ws.dcols (its border is ±0.0), which
    is added into the zeroed accumulator at the tap's flat offset.
    """
    cout, cin = w.shape[:2]
    wp = g.shape[-1] + 2
    gpad, dcols, acc = ws.pad2, ws.dcols, ws.acc
    gpad[:, 1:-1, 1:-1] = g
    taps = np.ascontiguousarray(w.reshape(cout, cin, 9).transpose(2, 1, 0))
    flat = acc.reshape(cin, -1)
    flat.fill(0.0)
    for ui, (dy, dx) in enumerate(_OFFSETS3):
        np.matmul(taps[ui], gpad.reshape(cout, -1), out=dcols)
        _add_at_offset(flat, dcols, -(dy * wp + dx))
    return acc[:, 1:-1, 1:-1]


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Per-pixel softmax over axis 0; overwrites logits, returns a fresh array."""
    logits -= logits.max(axis=0, keepdims=True)
    np.exp(logits, out=logits)
    return logits / logits.sum(axis=0, keepdims=True)


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
        self._ws: _Workspace | None = None
        self._init_params(seed)

    @property
    def parameter_count(self) -> int:
        return self.theta.size

    def param(self, name: str) -> np.ndarray:
        start, stop, shape = self._offsets[name]
        return self.theta[start:stop].reshape(shape)

    def _init_params(self, seed: int) -> None:
        rng = seeding.stream(seed, seeding.STREAM_MODEL_INIT)
        for name, shape in self._shapes:
            if len(shape) > 1:  # a weight; the bias after it shares its fan-in
                a = np.sqrt(1.0 / math.prod(shape[1:]))
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

    def _workspace(self, shape: tuple) -> _Workspace:
        if self._ws is None or self._ws.shape != shape:
            self._ws = _Workspace(shape, self.num_classes)
        return self._ws

    def forward_with_cache(self, image):
        """Probabilities and the cache for backward_from_probs.

        The cache holds workspace buffers (cols1, cols2 and a2, no
        pre-activation): it serves one backward_from_probs, which writes
        over cols2 and a2, before the next forward on this net, which also
        ends any loan of the scratch.  The probabilities are a fresh array.
        """
        x = self._as_input(image)
        ws = self._workspace(x.shape)
        ws.lent = 0  # this forward gathers all of cols2
        ws.pad1[:, 1:-1, 1:-1] = x
        z1 = _conv3(_gather3(ws.pad1, ws.cols1), self.param("w1"), self.param("b1"), ws.a2)
        np.maximum(z1, 0.0, out=ws.pad2[:, 1:-1, 1:-1])
        z2 = _conv3(_gather3(ws.pad2, ws.cols2), self.param("w2"), self.param("b2"), ws.a2)
        a2 = np.maximum(z2, 0.0, out=z2)
        logits = ws.logits
        np.matmul(self.param("w3"), a2.reshape(HIDDEN, -1), out=logits.reshape(self.num_classes, -1))
        logits += self.param("b3")[:, None, None]
        probs = _softmax(logits)
        cache = {"cols1": ws.cols1, "cols2": ws.cols2, "a2": a2, "probs": probs}
        return probs, cache

    def forward(self, image) -> np.ndarray:
        probs, _ = self.forward_with_cache(image)
        return probs

    def backward_from_probs(self, cache: dict, dprobs: np.ndarray) -> np.ndarray:
        """Chain a gradient w.r.t. the softmax output down to a flat theta gradient.

        cache must come from the latest forward on this net, and serves
        one call: the hidden-layer gradient writes over its a2 and col2im
        over its cols2.  The channels of cols2 under an outstanding loan of
        the scratch are regathered first, and the loan ends.
        """
        ws = self._ws
        probs, a2 = cache["probs"], cache["a2"]
        k = self.num_classes
        dz3 = np.multiply(dprobs, probs, out=ws.logits)
        np.subtract(dprobs, dz3.sum(axis=0, keepdims=True), out=dz3)
        dz3 *= probs
        dw3 = dz3.reshape(k, -1) @ a2.reshape(HIDDEN, -1).T
        db3 = dz3.sum(axis=(1, 2))
        relu2 = a2 > 0
        dz = a2  # the hidden-layer gradient; dw3 and relu2 have read a2
        np.matmul(self.param("w3").T, dz3.reshape(k, -1), out=dz.reshape(HIDDEN, -1))
        dz *= relu2
        if ws.lent:  # regather the channels of cols2 a loan wrote over
            _, h, w = ws.shape
            c = min(HIDDEN, -(-ws.lent // (9 * h * w)))
            _gather3(ws.pad2[:c], cache["cols2"][:c])
            ws.lent = 0
        dw2, db2 = _conv3_param_grads(dz, cache["cols2"], self.param("w2"))
        relu1 = cache["cols2"][:, 4] > 0  # the centre tap is relu(z1); col2im overwrites it
        da1 = _conv3_input_grad(dz, self.param("w2"), ws)
        np.multiply(da1, relu1, out=dz)
        dw1, db1 = _conv3_param_grads(dz, cache["cols1"], self.param("w1"))
        grad = np.empty_like(self.theta)
        for name, part in (("w1", dw1), ("b1", db1), ("w2", dw2),
                           ("b2", db2), ("w3", dw3), ("b3", db3)):
            start, stop, shape = self._offsets[name]
            grad[start:stop] = part.reshape(-1)
        return grad


def _energy_shape(field_shape: tuple, cfg: TrainConfig) -> tuple:
    """The shape (|S|, K, H, W) convert gives a (K, H, W) field."""
    return (1 if cfg.ac.converter == "sc" else len(cfg.ac.directions),) + tuple(field_shape)


def convert(field: np.ndarray, cfg: TrainConfig, out: np.ndarray | None = None) -> np.ndarray:
    """Potential energies (|S|, K, H, W) of a (K, H, W) field; |S| = 1 for the "sc" converter.

    A fresh array, or out (a C-contiguous array of that shape and the
    converter's dtype) written and returned.
    """
    if cfg.ac.converter == "sc":
        return standard_convolve(field, cfg.ac.kernel_size, None if out is None else out[0])[None]
    return anisotropic_convolve(field, cfg.ac, out)


def _convert_adjoint(energy_grad: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    if cfg.ac.converter == "sc":
        # The box kernel is symmetric, so the box sum is its own adjoint.
        return standard_convolve(energy_grad[0], cfg.ac.kernel_size)
    return ac_adjoint(energy_grad, cfg.ac)


def label_energies(labels, num_classes: int, cfg: TrainConfig) -> np.ndarray:
    """The one labels-to-energies path: the checked labels' one-hot field,
    converted in the smallest unsigned dtype that holds ACConfig.max_energy
    (uint8 up to the box filter's kernel 15), exact with no float64 copy."""
    return convert(one_hot(labels, num_classes, np.min_scalar_type(cfg.ac.max_energy)), cfg)


def ground_truth(labels, num_classes: int, cfg: TrainConfig) -> LineTarget:
    """Everything the potential-domain losses need from one label map.

    The labels are checked and converted in integers (label_energies),
    which line_target keeps as they are; the point loss reads the same
    integer energies.
    """
    return line_target(label_energies(labels, num_classes, cfg), cfg.loss.mu_exp,
                       cfg.ac.radius)


def objective(probs, labels, cfg: TrainConfig, target: LineTarget | None = None,
              want_grad: bool = True, scratch: np.ndarray | None = None):
    """The training objective CE + lambda1 * point + lambda2 * line, and its gradient.

    probs is a (K, H, W) probability field.  Returns the terms (ce, point,
    line and their weighted total) and the gradient of the total w.r.t.
    probs.  The point gradient is weighted in place, and the line loss adds
    its weighted gradient into it block by block (or into an array of -0.0
    when lambda1 is 0), so two energy-sized arrays are alive: the predicted
    energies and the gradient.  They are fresh arrays, or, given scratch (a
    flat float64 array of at least 2*|S|*K*H*W floats, as backward lends
    it), its first and second |S|*K*H*W floats.  That gradient is chained
    back through the converter's adjoint.  A potential term is evaluated
    only when its weight is positive, and reads 0.0 otherwise.
    target is ground_truth(labels, ...), built here when needed and not
    given.  A given target supplies its level tables only: its energies
    (None in the tables train holds) are rebuilt from the labels in
    integers at every step, as ground_truth builds them.  With want_grad
    False only the terms are computed and the gradient is None: no loss
    builds one, nothing runs through the adjoint.
    """
    loss = cfg.loss
    ce = cross_entropy_loss(probs, labels, want_grad=want_grad)
    terms = {"ce": ce.value, "point": 0.0, "line": 0.0}
    dprobs = ce.gradient
    if loss.lambda1 > 0 or loss.lambda2 > 0:
        if target is None:
            target = ground_truth(labels, probs.shape[0], cfg)
        else:
            target = replace(target, energies=label_energies(labels, probs.shape[0], cfg))
        pred_out = grad_out = None
        if scratch is not None:
            shape = _energy_shape(probs.shape, cfg)
            n = math.prod(shape)
            pred_out, grad_out = scratch[:n].reshape(shape), scratch[n:2 * n].reshape(shape)
        e_pred = convert(probs, cfg, pred_out)
        e_grad = None
        if loss.lambda1 > 0:
            pt = point_loss(target.energies, e_pred, loss, want_grad=want_grad, out=grad_out)
            terms["point"] = pt.value
            e_grad = pt.gradient
            if want_grad:
                e_grad *= loss.lambda1
        elif grad_out is not None:
            e_grad = grad_out  # the line loss adds into it as into a fresh array
            e_grad.fill(-0.0)
        if loss.lambda2 > 0:
            # Keep these four arguments positional and e_pred unwritten:
            # perfbench/tracer.py unpacks them and rescores e_pred after the call.
            ln = equipotential_line_loss(target, e_pred, loss, cfg.ac.radius, want_grad=want_grad,
                                         weight=loss.lambda2, add_to=e_grad)
            terms["line"] = ln.value
            e_grad = ln.gradient
        if want_grad:
            dprobs += _convert_adjoint(e_grad, cfg)
    terms["total"] = terms["ce"] + loss.lambda1 * terms["point"] + loss.lambda2 * terms["line"]
    return terms, dprobs


def backward(net: TinyNet, image, labels, cfg: TrainConfig, target: LineTarget | None = None):
    """Loss terms and the flat parameter gradient of the training objective.

    target is ground_truth(labels, ...), or its level tables with energies
    None, as for objective; it is built here when not given.  A step with a
    potential term lends objective the net's workspace scratch for its two
    energy tensors; a cross-entropy-only step lends nothing.
    """
    probs, cache = net.forward_with_cache(image)
    scratch = None
    if cfg.loss.lambda1 > 0 or cfg.loss.lambda2 > 0:
        scratch = net._ws.lend(2 * math.prod(_energy_shape(probs.shape, cfg)))
    terms, dprobs = objective(probs, labels, cfg, target, scratch=scratch)
    if not np.isfinite(terms["total"]):
        bad = [k for k in ("ce", "point", "line") if not np.isfinite(terms[k])] or ["total"]
        raise TrainingDiverged(f"non-finite loss term(s) {', '.join(bad)}: {terms}")
    return terms, net.backward_from_probs(cache, dprobs)


def _epoch_metrics(net: TinyNet, samples) -> dict:
    """The history columns of the samples' metrics.mean_record (a None trimap is NaN)."""
    mean = metrics.mean_record(
        metrics.evaluate_pair(np.argmax(net.forward(s.image), axis=0), s.labels, net.num_classes,
                              (HISTORY_TRIMAP_WIDTH,), (HISTORY_F_TOL,))
        for s in samples)
    (trimap,), (fmeasure,) = mean["trimap_iou"].values(), mean["boundary_f"].values()
    return {"miou": mean["miou"], "trimap_iou": float("nan") if trimap is None else trimap,
            "fmeasure": fmeasure}


def train(dataset, cfg: TrainConfig, eval_dataset=None, on_epoch=None):
    """SGD with momentum over the training objective; returns (net, history).

    History holds one record per epoch: mean loss terms over the epoch's
    steps plus mIoU / trimap IoU / boundary F of the current net on
    `eval_dataset` (the training set when none is given).  on_epoch, when
    given, is called with the history so far after each epoch.  The net has a
    class for every label up to the largest of either set.  Labels never
    change, so each sample's ground truth is built once per run, and only
    its line-target level tables are kept; objective rebuilds its integer
    energies at each step.  Runs are deterministic for a fixed config.
    TrainingDiverged, naming the epoch and the sample or batch, stops a run
    whose loss or updated parameters are not finite.
    """
    samples = list(dataset)
    eval_samples = samples if eval_dataset is None else list(eval_dataset)
    if not samples or not eval_samples:
        raise ValueError("dataset is empty" if not samples else "eval_dataset is empty")
    num_classes = max(int(s.labels.max()) for s in samples + eval_samples) + 1
    net = TinyNet(1, num_classes, seed=cfg.seed)
    velocity = np.zeros_like(net.theta)
    potential = cfg.loss.lambda1 > 0 or cfg.loss.lambda2 > 0
    targets = [replace(ground_truth(s.labels, num_classes, cfg), energies=None) if potential
               else None for s in samples]
    history = []
    for epoch in range(cfg.epochs):
        order = seeding.stream(cfg.seed, seeding.STREAM_TRAIN_SHUFFLE, epoch).permutation(len(samples))
        sums = {"ce": 0.0, "point": 0.0, "line": 0.0, "total": 0.0}
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
            bad = np.count_nonzero(~(np.abs(net.theta) <= PARAM_LIMIT))
            if bad:
                raise TrainingDiverged(
                    f"epoch {epoch}, batch {start // cfg.batch_size}: the update left {bad} of "
                    f"{net.theta.size} parameters non-finite or beyond the float32 range of "
                    f"a checkpoint"
                )
        record = {"epoch": epoch}
        record.update({f"loss_{k}": sums[k] / len(order) for k in ("ce", "point", "line", "total")})
        record.update(_epoch_metrics(net, eval_samples))
        history.append(record)
        if on_epoch is not None:
            on_epoch(history)
    return net, history


def save_checkpoint(stem, net: TinyNet, config: dict | None = None) -> None:
    """Parameters as <stem>.eplt plus a JSON sidecar describing the net."""
    stem = str(stem)
    io.write_tensor(stem + ".eplt", net.theta)
    sidecar = {
        "architecture": ARCHITECTURE,
        "hidden": HIDDEN,
        "in_channels": net.in_channels,
        "num_classes": net.num_classes,
        "parameter_count": net.parameter_count,
        "config": config or {},
    }
    Path(stem + ".json").write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")


def load_checkpoint(stem):
    stem = str(stem)
    path = stem + ".json"
    try:
        sidecar = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise io.FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(sidecar, dict):
        raise io.FormatError(f"{path}: the sidecar is not a JSON object")
    for field, expected in (("architecture", ARCHITECTURE), ("hidden", HIDDEN)):
        if sidecar.get(field) != expected:
            raise io.FormatError(
                f"{stem}: checkpoint {field} is {sidecar.get(field)!r}, this net has {expected!r}"
            )
    dims = []
    for field in ("in_channels", "num_classes"):
        value = sidecar.get(field)
        if type(value) is not int:  # a bool or float is no channel count either
            shown = repr(value) if field in sidecar else "missing"
            raise io.FormatError(f"{stem}: checkpoint {field} is {shown}, expected an integer")
        dims.append(value)
    net = TinyNet(*dims)
    theta = io.read_tensor(stem + ".eplt").astype(np.float64)
    if theta.shape != net.theta.shape:
        raise io.FormatError(
            f"{stem}: checkpoint has {theta.size} parameters, expected {net.theta.size}"
        )
    net.theta = theta
    return net, sidecar
