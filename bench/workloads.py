"""The three benchmark workloads: their inputs and their stage chains.

Each workload makes its inputs from the seed alone (``prepare``), then runs
one closed-loop pass over the stages (``run``): one client, each stage
starting when the previous one has returned.  ``stage(name)`` is the
caller's timer; every ``with stage(...)`` block is one stage call.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from polysed import dataio, fusion, metrics, pipeline
from polysed.capsnet import home_config
from polysed.config import load_config

import checks

# The acceptance desk experiment's config (tests/test_acceptance.py), with
# the corpus cut from 60/20 clips to 5/2 and the seed taken from the
# benchmark.  Twelve epochs keep close to the acceptance run's stage mix
# (there training about 70 %, extract about 25 %; here about 65 % and 30 %)
# at a size that fits several passes into one benchmark run.
DESK_MODEL = """\
cnn_kernels = 8, 8
cnn_kernel_dim = 3
pool_dims = 4, 4
n_primary_caps = 4
primary_cap_dim = 4
output_cap_dim = 4
routing_iters = 3
dropout_rate = 0.1
l2_weight = 1e-4
"""

DATASET = """\
[dataset]
classes = low_tone:tone:300-600, mid_chirp:chirp:900-1800, high_hiss:noise:2500-5000
clip_seconds = 10.0
train_clips = {train_clips}
eval_clips = {eval_clips}
val_fraction = 0.2
polyphony = 2
events_per_clip = 3, 6
event_seconds = 0.6, 2.0
snr_db = 6, 20
seed = {seed}
"""


def desk_config(seed: int) -> str:
    return (DATASET.format(train_clips=5, eval_clips=2, seed=seed)
            + "\n[model logmel_64]\n" + DESK_MODEL
            + "\n[model logmel_128]\n" + DESK_MODEL
            + "\n[train]\nepochs = 12\npatience = 12\nbatch_size = 8\nprecision = f32\n"
            + "\n[fusion]\ntfrs = logmel_64, logmel_128\nblock_len = 256\n")


# The published indoor detector (capsnet.home_config) at the config's
# default f64 precision.  96 mel bands: the pooling product 4*3*2 = 24
# must divide the band count.  One epoch over four training clips is one
# batch-8 step; the per-window cost of this model is what the workload is for.
def paper_model_config(seed: int) -> str:
    return (DATASET.format(train_clips=5, eval_clips=2, seed=seed)
            + "\n[model logmel_96]\n"
            + "cnn_kernels = 32, 32, 8\ncnn_kernel_dim = 6\npool_dims = 4, 3, 2\n"
            + "n_primary_caps = 8\nprimary_cap_dim = 9\noutput_cap_dim = 11\n"
            + "routing_iters = 3\n"
            + "\n[train]\nepochs = 1\npatience = 1\nbatch_size = 8\n"
            + "\n[fusion]\ntfrs = logmel_96\nblock_len = 256\n")


class PipelineWorkload:
    """Every pipeline stage over an output directory, as the CLI runs them."""

    def __init__(self, name: str, config_text, geometry=None):
        self.name = name
        self.config_text = config_text
        self.geometry = geometry or {}      # feature -> published config factory

    def prepare(self, seed: int, work: Path):
        path = work / f"{self.name}.cfg"
        path.write_text(self.config_text(seed))
        return load_config(path)

    def run(self, cfg, out: Path, stage) -> None:
        jobs = min(2, os.cpu_count() or 1)
        with stage("synth"):
            pipeline.run_synth(cfg, out)
        for tfr in cfg.fusion.tfrs:
            with stage("extract"):
                pipeline.run_extract(cfg, tfr, out, jobs=jobs)
        for tfr in cfg.fusion.tfrs:
            with stage("train"):
                pipeline.run_train(cfg, tfr, out)
        for tfr in cfg.fusion.tfrs:
            with stage("predict"):
                pipeline.run_predict(cfg, tfr, out)
        with stage("fuse_fit"):
            pipeline.run_fuse_fit(cfg, out)
        with stage("fuse_apply"):
            pipeline.run_fuse_apply(cfg, out)
        with stage("eval"):
            pipeline.run_eval(cfg, out)

    def check(self, cfg, out: Path) -> tuple[list[tuple[str, str | None]], dict]:
        results = checks.parse_artifacts(out)
        try:
            ers = checks.pipeline_ers(out)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return results + [("ers", f"results unreadable: {exc}")], {}
        failures = checks.er_failures(ers)
        results.append(("ers", "; ".join(failures) or None))
        for tfr, published in self.geometry.items():
            same = cfg.models[tfr] == published(len(cfg.vocabulary))
            results.append((f"{tfr} geometry",
                            None if same else f"differs from {published.__name__}"))
        return results, ers


# ---------------------------------------------------------------------------
# fusion_wide: m = 4 simulated detectors
# ---------------------------------------------------------------------------

FW_EVENTS = 10
FW_CLIP_FRAMES = 500              # 10 s at a 20 ms hop
FW_HOP = 0.02
FW_FIT_CLIPS = 32                 # 16 000 fitting frames
FW_EVAL_CLIPS = 32
# (score noise sd, missed-event rate, onset lag in frames, score offset):
# four detectors from good to poor, all imperfect, so the fitted ER is
# never 0 and the bias and threshold sweeps have something to move.
FW_DETECTORS = ((0.10, 0.05, 2, 0.04), (0.15, 0.10, 4, -0.03),
                (0.20, 0.15, 6, 0.06), (0.25, 0.25, 8, -0.05))


@dataclass
class FusionInputs:
    fit_truth: np.ndarray
    fit_scores: list[np.ndarray]
    eval_truth: np.ndarray
    eval_scores: list[np.ndarray]
    labels: list[str]


def _simulated_split(rng: np.random.Generator, n_clips: int):
    n_frames = n_clips * FW_CLIP_FRAMES
    truth = np.zeros((n_frames, FW_EVENTS), dtype=np.uint8)
    events = []
    # Dense polyphony (10-16 events per clip) keeps the fit's ER landscape
    # coarse enough that the sweep takes the same number of rounds for
    # nearly every seed; with 4-8 events one seed in eight needed a third.
    for clip in range(n_clips):
        for _ in range(int(rng.integers(10, 17))):
            event = int(rng.integers(FW_EVENTS))
            length = int(rng.integers(25, 150))
            start = clip * FW_CLIP_FRAMES + int(rng.integers(0, FW_CLIP_FRAMES - length))
            truth[start:start + length, event] = 1
            events.append((start, length, event))
    smooth = np.ones(5) / 5
    scores = []
    for noise, miss, lag, offset in FW_DETECTORS:
        act = np.zeros(truth.shape)
        for start, length, event in events:
            if rng.random() >= miss:
                act[start + lag:start + lag + length, event] = 0.6
        for _ in range(int(len(events) * miss)):        # false alarms
            length = int(rng.integers(10, 60))
            start = (int(rng.integers(n_clips)) * FW_CLIP_FRAMES
                     + int(rng.integers(0, FW_CLIP_FRAMES - length)))
            act[start:start + length, int(rng.integers(FW_EVENTS))] = 0.5
        raw = act + 0.2 + offset + rng.normal(0.0, noise, truth.shape)
        raw = np.stack([np.convolve(col, smooth, mode="same") for col in raw.T], axis=1)
        scores.append(np.clip(raw, 0.0, 1.0))
    return truth, scores


def _per_clip_er(truth: np.ndarray, roll: np.ndarray, labels: list[str]) -> float:
    parts = []
    for start in range(0, truth.shape[0], FW_CLIP_FRAMES):
        stop = start + FW_CLIP_FRAMES
        parts.append(metrics.segment_counts(
            metrics.EventRoll(truth[start:stop], FW_HOP, labels),
            metrics.EventRoll(roll[start:stop], FW_HOP, labels)))
    return metrics.error_rate(metrics.SegmentCounts.merge(parts))


class FusionWideWorkload:
    """Fit, apply and score late fusion directly on the fusion and metrics
    modules; no tensor or dsp code runs."""

    name = "fusion_wide"

    def config_text(self, seed: int) -> str:
        # No config of its own; set-up parses the desk config.
        return desk_config(seed)

    def prepare(self, seed: int, work: Path) -> FusionInputs:
        rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
        fit_truth, fit_scores = _simulated_split(rng, FW_FIT_CLIPS)
        eval_truth, eval_scores = _simulated_split(rng, FW_EVAL_CLIPS)
        return FusionInputs(fit_truth, fit_scores, eval_truth, eval_scores,
                            [f"event_{i}" for i in range(FW_EVENTS)])

    def run(self, inputs: FusionInputs, out: Path, stage) -> None:
        out.mkdir(parents=True, exist_ok=True)
        labels = inputs.labels
        with stage("fuse_fit"):
            fit_set = fusion.PredictionSet(inputs.fit_scores, inputs.fit_truth, FW_HOP, labels)
            params = fusion.fit_fusion(fit_set)
            fit_er = fusion.fitted_error_rate(fit_set, params)
            dataio.write_fusion_params(params, out / "fused.json")
        with stage("fuse_apply"):
            eval_set = fusion.PredictionSet(inputs.eval_scores, inputs.eval_truth, FW_HOP, labels)
            roll = fusion.apply_threshold(fusion.fuse(eval_set, params), params.thresholds)
        with stage("eval"):
            fused_er = _per_clip_er(inputs.eval_truth, roll, labels)
            # Single detectors are scored at the neutral point, threshold 0.5.
            default = np.full(FW_EVENTS, fusion.DEFAULT_THRESHOLD)
            single_ers = [_per_clip_er(inputs.eval_truth, fusion.apply_threshold(s, default),
                                       labels) for s in inputs.eval_scores]
        np.save(out / "fused_roll.npy", roll)
        (out / "ers.json").write_text(json.dumps({
            "fit_er_fused": fit_er, "eval_er_fused": fused_er,
            "eval_er_best_single": min(single_ers)}) + "\n")

    def check(self, inputs: FusionInputs, out: Path) -> tuple[list[tuple[str, str | None]], dict]:
        results = []
        try:
            params = dataio.read_fusion_params(out / "fused.json")
            shapes = (params.weights.shape, params.biases.shape, params.thresholds.shape)
            ok = shapes == ((len(FW_DETECTORS),), (len(FW_DETECTORS),), (FW_EVENTS,))
            results.append(("fused.json", None if ok else f"parameter shapes {shapes}"))
        except Exception as exc:  # any reader failure is a failed check
            results.append(("fused.json", f"does not parse: {exc}"))
        try:
            roll = np.load(out / "fused_roll.npy")
            ok = roll.shape == inputs.eval_truth.shape and np.isin(roll, (0, 1)).all()
            results.append(("fused_roll.npy",
                            None if ok else "not a binary roll of the eval shape"))
            ers = json.loads((out / "ers.json").read_text())
        except (OSError, ValueError) as exc:
            return results + [("ers", f"unreadable: {exc}")], {}
        failures = checks.er_failures(ers)
        if ers.get("fit_er_fused") == 0:
            failures.append("fitted ER is 0: the simulated detectors are too good")
        results.append(("ers", "; ".join(failures) or None))
        return results, ers


WORKLOADS = {
    "desk": PipelineWorkload("desk", desk_config),
    "paper_model": PipelineWorkload("paper_model", paper_model_config,
                                    geometry={"logmel_96": home_config}),
    "fusion_wide": FusionWideWorkload(),
}
