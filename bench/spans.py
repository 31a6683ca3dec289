"""Span recording around the public functions of each polysed layer.

Tracing is built entirely from outside the package: :func:`install` swaps
module and class attributes for timing wrappers and returns an undo list.
Each wrapper records a span (name, start, end, parent, run id, extras) in
memory.  A function imported by name into another module is patched where
the caller looks it up (``polysed.pipeline.fit_fusion``,
``polysed.capsnet.gradients``); tensor ops are patched on
``polysed.tensor``, which every caller reaches through the module.  A tensor
op's recorded backward rule is replaced by a timed copy, so backward work
shows up as ``tensor.<op>.bwd`` spans under ``tensor.gradients``.

Span names are ``<layer>.<function>``; the layer is the polysed module.
:func:`per_layer_metrics` turns one run's spans into the per-layer table.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time

import numpy as np

LAYERS = ("tensor", "capsnet", "optim", "dsp", "dataio", "fusion", "metrics", "pipeline")
STAGES = ("synth", "extract", "train", "predict", "fuse_fit", "fuse_apply", "eval")

TENSOR_OPS = ("add", "sub", "mul", "div", "neg", "square", "log", "exp", "relu",
              "sigmoid", "clip", "tsum", "tmean", "norm", "softmax", "reshape",
              "transpose", "unsqueeze", "concat", "pad", "matmul", "conv2d",
              "maxpool_last")
# Ops with their own per-layer rows; the rest are summed into tensor.other.
NAMED_OPS = ("conv2d", "maxpool_last", "matmul", "pad")

DATAIO_FUNCTIONS = ("synthesize_dataset", "write_wav", "read_wav", "write_annotations",
                    "read_annotations", "annotation_to_roll", "write_tfr", "read_tfr",
                    "write_checkpoint", "read_checkpoint", "write_predictions",
                    "read_predictions", "write_fusion_params", "read_fusion_params")

# (module, attribute, span name): every place a caller looks a function up.
FUNCTIONS = (
    [("polysed.tensor", "gradients", "tensor.gradients"),
     ("polysed.capsnet", "gradients", "tensor.gradients"),
     ("polysed.pipeline", "train", "capsnet.train"),
     ("polysed.capsnet", "dynamic_routing", "capsnet.dynamic_routing"),
     ("polysed.capsnet", "detection_loss", "capsnet.detection_loss"),
     ("polysed.capsnet", "_validation_error_rate", "capsnet.validation"),
     ("polysed.capsnet", "adadelta_step", "optim.adadelta_step"),
     ("polysed.dsp", "extract", "dsp.extract"),
     ("polysed.dsp", "logmel", "dsp.logmel"),
     ("polysed.dsp", "stft_magnitude", "dsp.stft_magnitude"),
     ("polysed.dsp", "build_mel_filterbank", "dsp.build_mel_filterbank"),
     ("polysed.dsp", "window_tfr", "dsp.window_tfr"),
     ("polysed.dsp", "normalize", "dsp.normalize"),
     ("polysed.dsp", "ensure_binaural", "dsp.ensure_binaural")]
    + [("polysed.dataio", name, f"dataio.{name}") for name in DATAIO_FUNCTIONS]
    + [(module, name, f"fusion.{name}")
       for module in ("polysed.pipeline", "polysed.fusion")
       for name in ("fit_fusion", "fuse", "apply_threshold", "fitted_error_rate")]
    + [("polysed.fusion", "blockwise_counts", "fusion.blockwise_counts"),
       ("polysed.fusion", "mse_weights", "fusion.mse_weights")]
    + [(module, name, f"metrics.{name}")
       for module in ("polysed.metrics", "polysed.fusion", "polysed.capsnet",
                      "polysed.pipeline")
       for name in ("segment_counts", "error_rate")]
)

# (attribute of CapsNetModel, span name); forward is named by its mode.
MODEL_METHODS = (("predict", "capsnet.predict"), ("build", "capsnet.build"))


class Recorder:
    """In-memory span store.

    A span's parent is the innermost open span on the same thread; a worker
    thread with nothing open (extract's pool) hangs its spans under the
    current stage span.
    """

    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent, run, extra]
        self.run_id = 0
        self.stage_id: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.stage_id
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.run_id, None])
        stack.append(sid)
        return sid

    def end(self, sid: int, **extra) -> None:
        span = self.spans[sid]
        span[2] = time.perf_counter()
        if extra:
            span[5] = extra
        self._stack().pop()


def write_spans(recorders, path) -> None:
    """All recorded spans as JSON lines; ``id`` and ``parent`` count within
    one ``run``."""
    with open(path, "w") as fh:
        for rec in recorders:
            for sid, (name, start, end, parent, run, extra) in enumerate(rec.spans):
                fh.write(json.dumps({"run": run, "id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "extra": extra}) + "\n")


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _wrap(rec: Recorder, name: str, fn, extras=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.begin(name)
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            rec.end(sid, **(extras(args, out) if extras and out is not None else {}))
    return wrapper


def _shape(x):
    return np.shape(getattr(x, "data", x))


def conv2d_cost(x_shape, k_shape, itemsize: int) -> dict:
    """Computed work of one conv2d call from array shapes (no counters).

    With P output positions and K = C_in*kh*kw, the forward pass is one
    (P x K) @ (K x C_out) product and the backward pass two more of the same
    size plus the kh*kw scatter-add of P*K values.  Bytes count every
    operand once, plus the im2col matrix twice forward (built, then read)
    and three times backward (read, gradient built, gradient scattered).
    """
    c_in, h, w = x_shape
    c_out, _, kh, kw = k_shape
    p = (h - kh + 1) * (w - kw + 1)
    k = c_in * kh * kw
    fwd_flop = 2 * p * k * c_out + c_out * p
    fwd_bytes = itemsize * (c_in * h * w + c_out * k + c_out * p + 2 * p * k)
    bwd_flop = 4 * p * k * c_out + p * k + c_out * p
    bwd_bytes = itemsize * (c_out * p + c_out * k * 2 + c_in * h * w + 3 * p * k)
    return {"fwd": (fwd_flop, fwd_bytes), "bwd": (bwd_flop, bwd_bytes)}


def _wrap_op(rec: Recorder, op: str, fn):
    fwd_name, bwd_name = f"tensor.{op}", f"tensor.{op}.bwd"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.begin(fwd_name)
        out = None
        try:
            out = fn(*args, **kwargs)
        finally:
            cost = None
            if op == "conv2d" and out is not None:
                cost = conv2d_cost(_shape(args[0]), _shape(args[1]), out.data.itemsize)
                rec.end(sid, flop=cost["fwd"][0], bytes=cost["fwd"][1])
            else:
                rec.end(sid)
        bwd = out._bwd
        if bwd is not None:
            extra = {"flop": cost["bwd"][0], "bytes": cost["bwd"][1]} if cost else {}

            def timed_bwd(g):
                bid = rec.begin(bwd_name)
                try:
                    return bwd(g)
                finally:
                    rec.end(bid, **extra)
            out._bwd = timed_bwd
        return out
    return wrapper


def _forward_wrapper(rec: Recorder, fn):
    @functools.wraps(fn)
    def forward(self, window_values, train_mode=False, rng=None):
        name = "capsnet.forward_train" if train_mode else "capsnet.forward_eval"
        sid = rec.begin(name)
        try:
            return fn(self, window_values, train_mode=train_mode, rng=rng)
        finally:
            rec.end(sid)
    return forward


def _logmel_extras(args, out):
    mel = out.values                                    # (frames, n_mels, channels)
    fft_bins = 1 + out.config.n_fft // 2
    return {"flop": 2 * mel.shape[0] * fft_bins * mel.shape[1] * mel.shape[2]}


EXTRAS = {
    "dsp.logmel": _logmel_extras,
    "dataio.read_tfr": lambda args, out: {"bytes": os.path.getsize(args[0])},
    "metrics.segment_counts": lambda args, out: {"segments": int(len(out.s))},
    "fusion.fitted_error_rate": lambda args, out: {"er": float(out)},
}


def install(rec: Recorder) -> list[tuple]:
    """Patch every traced entry point; returns the undo list for
    :func:`uninstall`."""
    undo = []

    def swap(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    tensor = importlib.import_module("polysed.tensor")
    for op in TENSOR_OPS:
        swap(tensor, op, _wrap_op(rec, op, getattr(tensor, op)))
    for module_name, attr, name in FUNCTIONS:
        module = importlib.import_module(module_name)
        swap(module, attr, _wrap(rec, name, getattr(module, attr), EXTRAS.get(name)))
    model = importlib.import_module("polysed.capsnet").CapsNetModel
    swap(model, "forward", _forward_wrapper(rec, model.forward))
    for attr, name in MODEL_METHODS:
        raw = model.__dict__[attr]
        if isinstance(raw, classmethod):
            swap(model, attr, classmethod(_wrap(rec, name, raw.__func__)))
        else:
            swap(model, attr, _wrap(rec, name, raw))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------

def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [(end - start) - covered(start, end, children.get(sid, ()))
            for sid, (name, start, end, *_rest) in enumerate(spans)]


PER_LAYER_UNITS = {
    **{f"tensor.{op}.fwd_s": "s" for op in NAMED_OPS},
    **{f"tensor.{op}.bwd_s": "s" for op in ("conv2d", "maxpool_last", "matmul")},
    "tensor.conv2d.calls": "count",
    "tensor.conv2d.flop": "flop",
    "tensor.conv2d.bytes": "B",
    "tensor.other.fwd_s": "s",
    "tensor.other.bwd_s": "s",
    "tensor.gradients_s": "s",
    "tensor.ops_per_step": "count",
    "capsnet.train_step_ms": "ms",
    "capsnet.forward_train_s": "s",
    "capsnet.dynamic_routing_s": "s",
    "capsnet.predict_window_ms": "ms",
    "capsnet.predict.calls": "count",
    "capsnet.validation_s": "s",
    "capsnet.steps": "count",
    "capsnet.epochs": "count",
    "optim.adadelta_step_s": "s",
    "dsp.stft_magnitude_s": "s",
    "dsp.mel_projection_s": "s",
    "dsp.mel_projection.flop": "flop",
    "dsp.build_mel_filterbank_s": "s",
    "dsp.build_mel_filterbank.calls": "count",
    "dsp.window_tfr_s": "s",
    "dataio.synthesize_dataset_s": "s",
    "dataio.read_wav_s": "s",
    "dataio.write_tfr_s": "s",
    "dataio.read_tfr_s": "s",
    "dataio.read_tfr.calls": "count",
    "dataio.read_tfr.bytes": "B",
    "dataio.checkpoint_io_s": "s",
    "dataio.predictions_io_s": "s",
    "fusion.fit_fusion_s": "s",
    "fusion.trials": "count",
    "fusion.accepted_ratio": "ratio",
    "fusion.fuse_s": "s",
    "fusion.blockwise_counts_s": "s",
    "fusion.mse_weights_s": "s",
    "metrics.segment_counts_s": "s",
    "metrics.segment_counts.calls": "count",
    "metrics.segment_counts.segments": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"pipeline.self_s.{stage}": "s" for stage in STAGES},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def per_layer_metrics(spans) -> dict[str, float]:
    """Per-layer table for the spans of one traced run.

    Function times (``*_s``) are summed span durations, so they include
    child spans and, for the extract thread pool, add up busy time across
    threads.  ``*.self_s`` excludes child spans.  ``trace.overhead_s`` is
    not derivable from spans and is left at 0 for the caller to fill.
    """
    own = self_times(spans)
    dur: dict[str, float] = {}
    calls: dict[str, int] = {}
    extra: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    stage_self = {stage: 0.0 for stage in STAGES}
    names = [s[0] for s in spans]

    # Which spans run inside training (not validation), for ops per step.
    in_train = [False] * len(spans)
    for sid, (name, _, _, parent, *_rest) in enumerate(spans):
        if name == "capsnet.validation":
            in_train[sid] = False
        elif name == "capsnet.train":
            in_train[sid] = True
        elif parent is not None:
            in_train[sid] = in_train[parent]

    train_ops = 0
    trials = accepted = 0
    best_er: dict[int, float] = {}
    for sid, (name, start, end, parent, run, ext) in enumerate(spans):
        dur[name] = dur.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        for key, value in (ext or {}).items():
            extra[f"{name}.{key}"] = extra.get(f"{name}.{key}", 0.0) + value
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own[sid]
        if layer == "pipeline":
            stage_self[name.split(".", 1)[1]] += own[sid]
        if layer == "tensor" and in_train[sid] and not name.endswith(".bwd") \
                and name != "tensor.gradients":
            train_ops += 1
        if name == "fusion.fitted_error_rate" and parent is not None \
                and names[parent] == "fusion.fit_fusion":
            # fit_fusion starts from the neutral point and accepts a grid
            # move only on strict improvement; replay that from the scores.
            trials += 1
            er = ext["er"]
            if parent not in best_er:
                best_er[parent] = er
            elif er < best_er[parent]:
                best_er[parent] = er
                accepted += 1

    def d(name):
        return dur.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    steps = c("optim.adadelta_step")
    other_ops = [op for op in TENSOR_OPS if op not in NAMED_OPS]
    out = {f"tensor.{op}.fwd_s": d(f"tensor.{op}") for op in NAMED_OPS}
    out.update({f"tensor.{op}.bwd_s": d(f"tensor.{op}.bwd")
                for op in ("conv2d", "maxpool_last", "matmul")})
    out.update({
        "tensor.conv2d.calls": c("tensor.conv2d"),
        "tensor.conv2d.flop": extra.get("tensor.conv2d.flop", 0.0)
        + extra.get("tensor.conv2d.bwd.flop", 0.0),
        "tensor.conv2d.bytes": extra.get("tensor.conv2d.bytes", 0.0)
        + extra.get("tensor.conv2d.bwd.bytes", 0.0),
        "tensor.other.fwd_s": sum(d(f"tensor.{op}") for op in other_ops),
        "tensor.other.bwd_s": sum(d(f"tensor.{op}.bwd") for op in other_ops),
        "tensor.gradients_s": d("tensor.gradients"),
        "tensor.ops_per_step": train_ops / steps if steps else 0.0,
        "capsnet.train_step_ms": 1000.0 * (d("capsnet.train") - d("capsnet.validation"))
        / steps if steps else 0.0,
        "capsnet.forward_train_s": d("capsnet.forward_train"),
        "capsnet.dynamic_routing_s": d("capsnet.dynamic_routing"),
        "capsnet.predict_window_ms": 1000.0 * d("capsnet.predict") / c("capsnet.predict")
        if c("capsnet.predict") else 0.0,
        "capsnet.predict.calls": c("capsnet.predict"),
        "capsnet.validation_s": d("capsnet.validation"),
        "capsnet.steps": steps,
        "capsnet.epochs": c("capsnet.validation"),
        "optim.adadelta_step_s": d("optim.adadelta_step"),
        "dsp.stft_magnitude_s": d("dsp.stft_magnitude"),
        "dsp.mel_projection_s": sum(own[i] for i, n in enumerate(names) if n == "dsp.logmel"),
        "dsp.mel_projection.flop": extra.get("dsp.logmel.flop", 0.0),
        "dsp.build_mel_filterbank_s": d("dsp.build_mel_filterbank"),
        "dsp.build_mel_filterbank.calls": c("dsp.build_mel_filterbank"),
        "dsp.window_tfr_s": d("dsp.window_tfr"),
        "dataio.synthesize_dataset_s": d("dataio.synthesize_dataset"),
        "dataio.read_wav_s": d("dataio.read_wav"),
        "dataio.write_tfr_s": d("dataio.write_tfr"),
        "dataio.read_tfr_s": d("dataio.read_tfr"),
        "dataio.read_tfr.calls": c("dataio.read_tfr"),
        "dataio.read_tfr.bytes": extra.get("dataio.read_tfr.bytes", 0.0),
        "dataio.checkpoint_io_s": d("dataio.read_checkpoint") + d("dataio.write_checkpoint"),
        "dataio.predictions_io_s": d("dataio.read_predictions") + d("dataio.write_predictions"),
        "fusion.fit_fusion_s": d("fusion.fit_fusion"),
        "fusion.trials": trials,
        "fusion.accepted_ratio": accepted / trials if trials else 0.0,
        "fusion.fuse_s": d("fusion.fuse"),
        "fusion.blockwise_counts_s": d("fusion.blockwise_counts"),
        "fusion.mse_weights_s": d("fusion.mse_weights"),
        "metrics.segment_counts_s": d("metrics.segment_counts"),
        "metrics.segment_counts.calls": c("metrics.segment_counts"),
        "metrics.segment_counts.segments": extra.get("metrics.segment_counts.segments", 0.0),
        "trace.spans": len(spans),
        "trace.overhead_s": 0.0,
    })
    out.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS})
    out.update({f"pipeline.self_s.{stage}": stage_self[stage] for stage in STAGES})
    return {name: float(out[name]) for name in PER_LAYER_UNITS}
