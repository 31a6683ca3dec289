"""End-to-end experiment stages over an output directory.

Stage artifacts (all deterministic given the config and seed):

    corpus/manifest.tsv           clip_id <TAB> split (train/val/eval)
    corpus/<split>/<clip>.wav     synthetic audio
    corpus/<split>/<clip>.txt     annotations
    tfr/<tfr>/<split>/<clip>.tfr  feature archives
    models/<tfr>.ckpt             trained detector checkpoints
    pred/<tfr>/<split>.pred       flat frame scores (valid frames only)
    pred/fused/<split>.pred       aggregated scores
    fusion/single_<tfr>.json      per-feature fitted parameters
    fusion/fused.json             joint fitted parameters
    fusion/fit_results.json       fitting-split error rates
    eval/results.json             evaluation-split error rates
    eval/report.txt               human-readable table

Training clips are split train/val by ``val_fraction`` (the tail of the
development corpus becomes the validation split).  The validation split
drives early stopping and is also the fusion-fitting split; the evaluation
split is only ever scored.
"""
from __future__ import annotations

import json
import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import dataio, dsp
from .capsnet import CapsNetModel, WindowExample, train
from .config import ExperimentConfig
from .errors import ConfigError, DataError
from .fusion import (GRID_NOTE, PredictionSet, apply_threshold, fit_fusion,
                     fitted_error_rate, fuse)
from .metrics import EventRoll, SegmentCounts, error_rate, segment_counts
from .rng import SeededRng


def derive_seed(base: int, tag: str) -> int:
    return (base * 1000003 + zlib.crc32(tag.encode("utf-8"))) % (2 ** 63)


# ---------------------------------------------------------------------------
# Paths and manifest
# ---------------------------------------------------------------------------

def _corpus_dir(out: Path) -> Path:
    return out / "corpus"


def manifest_path(out: Path) -> Path:
    return _corpus_dir(out) / "manifest.tsv"


def read_manifest(out: Path) -> list[tuple[str, str]]:
    path = manifest_path(out)
    if not path.exists():
        raise DataError(f"{path} not found; run synth first")
    rows = []
    for line in path.read_text().splitlines():
        clip_id, split = line.split("\t")
        rows.append((clip_id, split))
    return rows


def clips_for_split(out: Path, split: str) -> list[str]:
    return [cid for cid, s in read_manifest(out) if s == split]


def _wav_path(out: Path, split: str, clip_id: str) -> Path:
    return _corpus_dir(out) / split / f"{clip_id}.wav"


def _ann_path(out: Path, split: str, clip_id: str) -> Path:
    return _corpus_dir(out) / split / f"{clip_id}.txt"


def _tfr_path(out: Path, tfr_name: str, split: str, clip_id: str) -> Path:
    return out / "tfr" / tfr_name / split / f"{clip_id}.tfr"


def _ckpt_path(out: Path, tfr_name: str) -> Path:
    return out / "models" / f"{tfr_name}.ckpt"


def _pred_path(out: Path, system: str, split: str) -> Path:
    return out / "pred" / system / f"{split}.pred"


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def run_synth(cfg: ExperimentConfig, out: Path) -> list[tuple[str, str]]:
    """Generate the corpus and write the split manifest."""
    out = Path(out)
    ds = cfg.dataset
    n_val = max(1, int(round(ds.val_fraction * ds.train_clips)))
    if n_val >= ds.train_clips:
        raise ConfigError("val_fraction leaves no training clips")
    rows: list[tuple[str, str]] = []
    dev = dataio.synthesize_dataset(ds.synth, ds.train_clips, name_prefix="dev")
    eval_spec = dataio.SynthSpec(**{**ds.synth.__dict__,
                                    "seed": derive_seed(ds.synth.seed, "eval-corpus")})
    ev = dataio.synthesize_dataset(eval_spec, ds.eval_clips, name_prefix="eval")
    for i, (clip_id, clip, ann) in enumerate(dev):
        split = "train" if i < ds.train_clips - n_val else "val"
        rows.append((clip_id, split))
        _write_clip(out, split, clip_id, clip, ann)
    for clip_id, clip, ann in ev:
        rows.append((clip_id, "eval"))
        _write_clip(out, "eval", clip_id, clip, ann)
    manifest_path(out).parent.mkdir(parents=True, exist_ok=True)
    manifest_path(out).write_text("".join(f"{cid}\t{split}\n" for cid, split in rows))
    return rows


def _write_clip(out, split, clip_id, clip, ann):
    directory = _corpus_dir(out) / split
    directory.mkdir(parents=True, exist_ok=True)
    dataio.write_wav(clip, directory / f"{clip_id}.wav")
    dataio.write_annotations(ann, directory / f"{clip_id}.txt")


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def run_extract(cfg: ExperimentConfig, tfr_name: str, out: Path, jobs: int = 1) -> int:
    """Feature archives for every clip of every split."""
    out = Path(out)
    if tfr_name not in cfg.models:
        raise ConfigError(f"no [model {tfr_name}] section in the config")
    tfr_cfg = dsp.parse_tfr_name(tfr_name)

    def one(row):
        clip_id, split = row
        clip = dataio.read_wav(_wav_path(out, split, clip_id))
        clip = dsp.ensure_binaural(dsp.normalize(clip))
        tfr = dsp.extract(clip, tfr_cfg)
        path = _tfr_path(out, tfr_name, split, clip_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        dataio.write_tfr(tfr, path)

    rows = read_manifest(out)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        list(pool.map(one, rows))
    return len(rows)


# ---------------------------------------------------------------------------
# shared loading
# ---------------------------------------------------------------------------

def _clip_roll(cfg: ExperimentConfig, out: Path, split: str, clip_id: str,
               n_frames: int, hop: float) -> EventRoll:
    ann = dataio.read_annotations(_ann_path(out, split, clip_id), vocabulary=cfg.vocabulary)
    return dataio.annotation_to_roll(ann, hop, n_frames, cfg.vocabulary)


def _load_window_examples(cfg: ExperimentConfig, tfr_name: str, out: Path,
                          split: str) -> list[WindowExample]:
    examples = []
    for clip_id in clips_for_split(out, split):
        tfr = dataio.read_tfr(_tfr_path(out, tfr_name, split, clip_id))
        roll = _clip_roll(cfg, out, split, clip_id, tfr.n_frames, tfr.hop_seconds)
        for win in dsp.window_tfr(tfr, clip_id):
            target = np.zeros((dsp.WINDOW_FRAMES, roll.n_events), dtype=np.uint8)
            target[:win.valid] = roll.values[win.start_frame:win.start_frame + win.valid]
            examples.append(WindowExample(values=win.values, target=target, valid=win.valid))
    return examples


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def run_train(cfg: ExperimentConfig, tfr_name: str, out: Path) -> dict:
    """Train one detector; returns a summary of the run."""
    out = Path(out)
    if tfr_name not in cfg.models:
        raise ConfigError(f"no [model {tfr_name}] section in the config")
    tfr_cfg = dsp.parse_tfr_name(tfr_name)
    dtype = np.float64 if cfg.train.precision == "f64" else np.float32

    ckpt = _ckpt_path(out, tfr_name)
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    lock = ckpt.with_suffix(".lock")
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise DataError(f"{lock} exists; another training job owns this output") from None
    os.close(fd)
    try:
        train_windows = _load_window_examples(cfg, tfr_name, out, "train")
        val_windows = _load_window_examples(cfg, tfr_name, out, "val")
        model = CapsNetModel.build(
            cfg.models[tfr_name], tfr_cfg.freq_bins, 2,
            rng=SeededRng(cfg.seed).child(f"init:{tfr_name}"), dtype=dtype)
        result = train(
            model, train_windows, val_windows,
            hop_seconds=tfr_cfg.hop_ms / 1000.0,
            epochs=cfg.train.epochs, patience=cfg.train.patience,
            batch_size=cfg.train.batch_size,
            seed=derive_seed(cfg.seed, f"train:{tfr_name}"),
            lr=cfg.train.lr, rho=cfg.train.rho, epsilon=cfg.train.epsilon,
            labels=cfg.vocabulary)
        dataio.write_checkpoint(
            model, ckpt, history=result.history,
            provenance={"seed": cfg.seed, "tfr": tfr_name,
                        "precision": cfg.train.precision,
                        "best_epoch": result.best_epoch, "best_er": result.best_er})
    finally:
        lock.unlink(missing_ok=True)
    return {"tfr": tfr_name, "epochs_run": result.stopped_epoch,
            "best_epoch": result.best_epoch, "best_val_er": result.best_er}


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def run_predict(cfg: ExperimentConfig, tfr_name: str, out: Path,
                splits: tuple[str, ...] = ("val", "eval")) -> dict:
    """Frame scores for each requested split, valid frames only, clip order
    as in the manifest."""
    out = Path(out)
    ckpt = _ckpt_path(out, tfr_name)
    if not ckpt.exists():
        raise DataError(f"{ckpt} not found; run train first")
    model, _ = dataio.read_checkpoint(ckpt)
    hop = dsp.parse_tfr_name(tfr_name).hop_ms / 1000.0
    written = {}
    for split in splits:
        parts = []
        for clip_id in clips_for_split(out, split):
            tfr = dataio.read_tfr(_tfr_path(out, tfr_name, split, clip_id))
            for win in dsp.window_tfr(tfr, clip_id):
                act = model.predict(win.values).values
                parts.append(act[:win.valid])
        scores = np.concatenate(parts, axis=0)
        path = _pred_path(out, tfr_name, split)
        path.parent.mkdir(parents=True, exist_ok=True)
        dataio.write_predictions(scores, hop, cfg.vocabulary, path)
        written[split] = scores.shape
    return written


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def _load_split(cfg: ExperimentConfig, out: Path, split: str,
                systems: list[str]) -> tuple[list[np.ndarray], np.ndarray, list[int], float]:
    """Each system's float64 scores on one split, plus the split's flat
    ground-truth roll, its per-clip frame counts and the shared frame hop."""
    scores = []
    hops = set()
    for system in systems:
        path = _pred_path(out, system, split)
        values, hop, labels = dataio.read_predictions(path)
        _check_vocabulary(labels, cfg.vocabulary, path)
        scores.append(values.astype(np.float64))
        hops.add(hop)
    if len(hops) != 1:
        raise DataError(f"{split} predictions of {', '.join(systems)} differ in frame hop")
    hop = hops.pop()
    rolls = []
    clip_counts = []
    for clip_id in clips_for_split(out, split):
        tfr = dataio.read_tfr(_tfr_path(out, cfg.fusion.tfrs[0], split, clip_id))
        roll = _clip_roll(cfg, out, split, clip_id, tfr.n_frames, hop)
        rolls.append(roll.values)
        clip_counts.append(roll.n_frames)
    return scores, np.concatenate(rolls, axis=0), clip_counts, hop


def _check_vocabulary(found: list[str], expected: list[str], path) -> None:
    if found == list(expected):
        return
    for a, b in zip(found, expected):
        if a != b:
            raise DataError(f"{path}: vocabulary mismatch at label {a!r} (config has {b!r})")
    raise DataError(f"{path}: vocabulary length {len(found)} != config {len(expected)}")


def run_fuse_fit(cfg: ExperimentConfig, out: Path, fit_split: str = "val") -> dict:
    """Fit per-feature and joint fusion parameters on the fitting split."""
    out = Path(out)
    fusion_dir = out / "fusion"
    fusion_dir.mkdir(parents=True, exist_ok=True)
    results = {"fit_split": fit_split, "single": {}, "fused": {}}

    scores, truth, _, hop = _load_split(cfg, out, fit_split, cfg.fusion.tfrs)
    labels = list(cfg.vocabulary)
    for tfr_name, tfr_scores in zip(cfg.fusion.tfrs, scores):
        pset = PredictionSet(predictions=[tfr_scores], truth=truth, hop=hop, labels=labels)
        params = fit_fusion(pset, block_len=cfg.fusion.block_len)
        dataio.write_fusion_params(params, fusion_dir / f"single_{tfr_name}.json",
                                   grid_note=GRID_NOTE)
        results["single"][tfr_name] = fitted_error_rate(pset, params)

    pset_all = PredictionSet(predictions=scores, truth=truth, hop=hop, labels=labels)
    fused_params = fit_fusion(pset_all, block_len=cfg.fusion.block_len)
    dataio.write_fusion_params(fused_params, fusion_dir / "fused.json", grid_note=GRID_NOTE)
    results["fused"] = {
        "tfrs": list(cfg.fusion.tfrs),
        "er": fitted_error_rate(pset_all, fused_params),
        "weights": [float(w) for w in fused_params.weights],
    }
    (fusion_dir / "fit_results.json").write_text(json.dumps(results, indent=2) + "\n")
    return results


def run_fuse_apply(cfg: ExperimentConfig, out: Path,
                   splits: tuple[str, ...] = ("eval",)) -> dict:
    """Aggregate per-feature scores with the fitted joint parameters."""
    out = Path(out)
    params = dataio.read_fusion_params(out / "fusion" / "fused.json")
    written = {}
    for split in splits:
        scores, truth, _, hop = _load_split(cfg, out, split, cfg.fusion.tfrs)
        fused = fuse(PredictionSet(predictions=scores, truth=truth, hop=hop,
                                   labels=list(cfg.vocabulary)), params)
        path = _pred_path(out, "fused", split)
        path.parent.mkdir(parents=True, exist_ok=True)
        dataio.write_predictions(fused, hop, cfg.vocabulary, path)
        written[split] = fused.shape
    return written


# ---------------------------------------------------------------------------
# eval / report
# ---------------------------------------------------------------------------

def _per_clip_counts(roll_flat: np.ndarray, truth_flat: np.ndarray, counts: list[int],
                     hop: float, labels: list[str]) -> SegmentCounts:
    parts = []
    start = 0
    for n in counts:
        parts.append(segment_counts(
            EventRoll(truth_flat[start:start + n], hop, labels),
            EventRoll(roll_flat[start:start + n], hop, labels)))
        start += n
    return SegmentCounts.merge(parts)


def run_eval(cfg: ExperimentConfig, out: Path, split: str = "eval") -> dict:
    """Score every system on one split; writes results.json and report.txt."""
    out = Path(out)
    names = list(cfg.fusion.tfrs)
    if _pred_path(out, "fused", split).exists():
        names.append("fused")
    scores, truth, clip_counts, hop = _load_split(cfg, out, split, names)
    systems = []
    for name, values in zip(names, scores):
        if name == "fused":
            params = dataio.read_fusion_params(out / "fusion" / "fused.json")
            roll = apply_threshold(values, params.thresholds)
            name, kind = "+".join(cfg.fusion.tfrs), "fused"
        else:
            params = dataio.read_fusion_params(out / "fusion" / f"single_{name}.json")
            single = PredictionSet(predictions=[values], truth=truth, hop=hop,
                                   labels=list(cfg.vocabulary))
            roll = apply_threshold(fuse(single, params), params.thresholds)
            kind = "single"
        counts = _per_clip_counts(roll, truth, clip_counts, hop, cfg.vocabulary)
        systems.append(_system_entry(name, kind, counts))

    results = {"split": split, "systems": systems}
    fit_path = out / "fusion" / "fit_results.json"
    if fit_path.exists():
        results["fit"] = json.loads(fit_path.read_text())
    eval_dir = out / "eval"
    eval_dir.mkdir(parents=True, exist_ok=True)
    (eval_dir / "results.json").write_text(json.dumps(results, indent=2) + "\n")
    (eval_dir / "report.txt").write_text(format_results(results) + "\n")
    return results


def _system_entry(name: str, kind: str, counts: SegmentCounts) -> dict:
    return {"name": name, "kind": kind, "er": error_rate(counts),
            "s": counts.total_s, "d": counts.total_d,
            "i": counts.total_i, "n": counts.total_n}


def format_results(results: dict) -> str:
    lines = [f"segment-based error rate, split={results['split']}",
             f"{'kind':<8} {'features':<28} {'ER':>8} {'S':>6} {'D':>6} {'I':>6} {'N':>6}"]
    for sys_entry in results["systems"]:
        lines.append(f"{sys_entry['kind']:<8} {sys_entry['name']:<28} {sys_entry['er']:>8.4f} "
                     f"{sys_entry['s']:>6} {sys_entry['d']:>6} {sys_entry['i']:>6} {sys_entry['n']:>6}")
    if "fit" in results:
        lines.append("")
        lines.append(f"fusion fitting split: {results['fit']['fit_split']}")
        for tfr, er in results["fit"]["single"].items():
            lines.append(f"  single {tfr:<24} fitted ER {er:.4f}")
        lines.append(f"  fused  {'+'.join(results['fit']['fused']['tfrs']):<24} "
                     f"fitted ER {results['fit']['fused']['er']:.4f}")
    return "\n".join(lines)


def run_report(cfg: ExperimentConfig, out: Path) -> str:
    path = Path(out) / "eval" / "results.json"
    if not path.exists():
        raise DataError(f"{path} not found; run eval first")
    return format_results(json.loads(path.read_text()))
