"""End-to-end experiment stages over an output directory.

Stage artifacts (all deterministic given the config and seed):

    corpus/manifest.tsv           clip_id <TAB> split (train/val/eval)
    corpus/<split>/<clip>.wav     synthetic audio
    corpus/<split>/<clip>.txt     annotations
    tfr/<tfr>/<split>/<clip>.tfr  feature archives
    models/<tfr>.ckpt             trained detector checkpoints
    pred/<tfr>/<split>.pred       flat frame scores (valid frames only)
    pred/fused/eval.pred          fused scores: fuse-apply's output, read by no stage
    fusion/single_<tfr>.json      per-feature fitted parameters
    fusion/fused.json             joint fitted parameters
    fusion/fit_results.json       fitting-split error rates
    eval/results.json             evaluation-split error rates
    eval/report.txt               human-readable table

Synth writes the manifest last, after every clip, and removes the old one
before it writes the first: a manifest marks a complete corpus, and the
stages that read the corpus find its clips through it.

Training clips are split train/val by ``val_fraction`` (the tail of the
development corpus becomes the validation split).  The validation split
drives early stopping and is also the fusion-fitting split; the evaluation
split is only ever scored.
"""
from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dataio, dsp
from .capsnet import CapsNetModel, WindowExample, predict_frames, train
from .config import ExperimentConfig
from .errors import ConfigError, DataError
from .fusion import (GRID_NOTE, PredictionSet, apply_threshold, fit_fusion,
                     fitted_error_rate, fuse)
from .metrics import EventRoll, SegmentCounts, error_rate, segment_counts
from .rng import derive_seed, stream


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
    for lineno, line in enumerate(dataio.read_text(path).splitlines(), start=1):
        fields = line.split("\t")
        if len(fields) != 2:
            raise DataError(f"{path}:{lineno}: expected clip_id<TAB>split")
        rows.append((fields[0], fields[1]))
    return rows


def clips_for_split(out: Path, split: str) -> list[str]:
    clips = [cid for cid, s in read_manifest(out) if s == split]
    if not clips:
        raise DataError(f"{manifest_path(out)}: no {split} clips")
    return clips


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


def _fusion_path(out: Path, name: str) -> Path:
    return out / "fusion" / f"{name}.json"


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def run_synth(cfg: ExperimentConfig, out: Path) -> list[tuple[str, str]]:
    """Generate the corpus and write the split manifest.

    Each clip is written as it is made, so one clip is in memory at a
    time: the development clips (train, then val), then the evaluation
    clips.  The old manifest goes before the first clip and the new one
    comes after the last, so a synth that fails or is killed leaves none.
    """
    out = Path(out)
    ds = cfg.dataset
    manifest = manifest_path(out)
    try:
        manifest.unlink(missing_ok=True)
    except OSError as exc:
        raise DataError(f"{manifest}: cannot remove ({exc.strerror or exc})") from None
    eval_spec = replace(ds.synth, seed=derive_seed(ds.synth.seed, "eval-corpus"))
    dev = dataio.synthesize_dataset(ds.synth, ds.train_clips, name_prefix="dev")
    ev = dataio.synthesize_dataset(eval_spec, ds.eval_clips, name_prefix="eval")
    n_train = ds.train_clips - ds.n_val
    rows: list[tuple[str, str]] = []
    for corpus in (dev, ev):
        # Plain loops, and the clip dropped before the next is made: an
        # enumerate or zip would keep the last triple alive meanwhile.
        for clip_id, clip, ann in corpus:
            split = ("train" if len(rows) < n_train else
                     "val" if len(rows) < ds.train_clips else "eval")
            dataio.write_wav(clip, _wav_path(out, split, clip_id))
            dataio.write_annotations(ann, _ann_path(out, split, clip_id))
            rows.append((clip_id, split))
            del clip, ann
    dataio.write_file(manifest, "".join(f"{cid}\t{split}\n" for cid, split in rows))
    return rows


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def run_extract(cfg: ExperimentConfig, tfr_name: str, out: Path, jobs: int = 1) -> int:
    """Feature archives for every clip of every split."""
    out = Path(out)
    tfr_cfg = _model_and_tfr(cfg, tfr_name)[1]

    def one(row):
        clip_id, split = row
        clip = dataio.read_wav(_wav_path(out, split, clip_id))
        clip = dsp.ensure_binaural(dsp.normalize(clip))
        tfr = dsp.extract(clip, tfr_cfg)
        dataio.write_tfr(tfr, _tfr_path(out, tfr_name, split, clip_id))

    rows = read_manifest(out)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        list(pool.map(one, rows))
    return len(rows)


# ---------------------------------------------------------------------------
# shared loading
# ---------------------------------------------------------------------------

def _model_and_tfr(cfg: ExperimentConfig, tfr_name: str):
    if tfr_name not in cfg.models:
        raise ConfigError(f"no [model {tfr_name}] section in the config")
    return cfg.models[tfr_name], dsp.parse_tfr_name(tfr_name)


def _clip_roll(cfg: ExperimentConfig, out: Path, split: str, clip_id: str,
               n_frames: int) -> EventRoll:
    ann = dataio.read_annotations(_ann_path(out, split, clip_id), vocabulary=cfg.vocabulary)
    return dataio.annotation_to_roll(ann, dsp.HOP_SECONDS, n_frames, cfg.vocabulary)


def _load_window_examples(cfg: ExperimentConfig, tfr_name: str, out: Path,
                          split: str) -> list[WindowExample]:
    examples = []
    for clip_id in clips_for_split(out, split):
        tfr = dataio.read_tfr(_tfr_path(out, tfr_name, split, clip_id))
        roll = _clip_roll(cfg, out, split, clip_id, tfr.n_frames)
        for win in dsp.window_tfr(tfr):
            target = np.zeros((dsp.WINDOW_FRAMES, roll.n_events), dtype=np.uint8)
            target[:win.valid] = roll.values[win.start_frame:win.start_frame + win.valid]
            examples.append(WindowExample(values=win.values, target=target, valid=win.valid,
                                          start_frame=win.start_frame))
    return examples


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _lock_owner_gone(lock: Path) -> bool:
    """True only if `lock` holds the pid of a process that no longer exists."""
    try:
        return dataio.process_gone(lock.read_text())
    except (OSError, ValueError):
        return False  # unreadable or not text


def _claim_lock(lock: Path) -> None:
    """Create `lock` holding this process's pid.

    A lock whose pid is gone was left by a killed job: it is removed and the
    claim retried once.  A lock held by a live process, or one without a
    readable pid, is a DataError.
    """
    for retry in (False, True):
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if not retry and _lock_owner_gone(lock):
                lock.unlink(missing_ok=True)
                continue
            raise DataError(f"{lock} exists; another training job owns this output") from None
        with os.fdopen(fd, "w") as f:
            f.write(f"{os.getpid()}\n")
        return


def _release_free_heap() -> None:
    """Hand the free pages of the C heap back to the OS (glibc's
    ``malloc_trim``; a no-op where the C library has none).

    Training allocates and frees tens of MB per step: the arrays the
    tape's backward rules read, freed rule by rule as backward runs, and
    the gradients.  glibc keeps
    freed pages mapped, and how many it keeps depends on where earlier
    blocks landed, which extract's worker threads make vary from run to
    run, so without this the resident size of training and of every stage
    after it varied by several MB between identical runs.
    """
    import ctypes  # local: only training needs it, and CLI start-up stays as it was
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError, TypeError):
        pass


def run_train(cfg: ExperimentConfig, tfr_name: str, out: Path) -> dict:
    """Train one detector; returns a summary of the run.  Free heap pages
    are returned to the OS before and after training."""
    out = Path(out)
    model_cfg, tfr_cfg = _model_and_tfr(cfg, tfr_name)
    dtype = np.float64 if cfg.train.precision == "f64" else np.float32

    ckpt = _ckpt_path(out, tfr_name)
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    lock = ckpt.with_suffix(".lock")
    _claim_lock(lock)
    try:
        train_windows = _load_window_examples(cfg, tfr_name, out, "train")
        val_windows = _load_window_examples(cfg, tfr_name, out, "val")
        model = CapsNetModel.build(
            model_cfg, tfr_cfg.freq_bins, 2,
            rng=stream(cfg.seed, f"init:{tfr_name}"), dtype=dtype)
        _release_free_heap()
        result = train(
            model, train_windows, val_windows,
            hop_seconds=dsp.HOP_SECONDS,
            epochs=cfg.train.epochs, patience=cfg.train.patience,
            batch_size=cfg.train.batch_size,
            seed=derive_seed(cfg.seed, f"train:{tfr_name}"))
        _release_free_heap()
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

def run_predict(cfg: ExperimentConfig, tfr_name: str, out: Path) -> dict:
    """Frame scores for the val and eval splits, valid frames only, clip
    order as in the manifest; a split's windows are predicted in stacks of
    at most `[train] batch_size`, as validation predicts them."""
    out = Path(out)
    _model_and_tfr(cfg, tfr_name)
    ckpt = _ckpt_path(out, tfr_name)
    if not ckpt.exists():
        raise DataError(f"{ckpt} not found; run train first")
    model, _ = dataio.read_checkpoint(ckpt)
    written = {}
    for split in ("val", "eval"):
        windows = []
        for clip_id in clips_for_split(out, split):
            windows += dsp.window_tfr(dataio.read_tfr(_tfr_path(out, tfr_name, split, clip_id)))
        scores = np.concatenate(predict_frames(model, windows, cfg.train.batch_size), axis=0)
        dataio.write_predictions(scores, dsp.HOP_SECONDS, cfg.vocabulary,
                                 _pred_path(out, tfr_name, split))
        written[split] = scores.shape
    return written


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def _load_split(cfg: ExperimentConfig, out: Path, split: str) -> PredictionSet:
    """Each `[fusion] tfrs` entry's scores on one split, with the split's
    ground truth and its clips' frame counts."""
    paths = [_pred_path(out, tfr_name, split) for tfr_name in cfg.fusion.tfrs]
    scores = []
    for path in paths:
        values, hop, labels = dataio.read_predictions(path)
        _check_vocabulary(labels, cfg.vocabulary, path)
        if hop != dsp.HOP_SECONDS:
            raise DataError(f"{path}: frame hop {hop} s, expected {dsp.HOP_SECONDS} s")
        scores.append(values)
    rolls = []
    for clip_id in clips_for_split(out, split):
        tfr = dataio.read_tfr(_tfr_path(out, cfg.fusion.tfrs[0], split, clip_id))
        rolls.append(_clip_roll(cfg, out, split, clip_id, tfr.n_frames).values)
    truth = np.concatenate(rolls, axis=0)
    for path, values in zip(paths, scores):
        if len(values) != len(truth):
            raise DataError(f"{path}: {len(values)} frames, but the {split} split has {len(truth)}")
    return PredictionSet(predictions=scores, truth=truth, hop=dsp.HOP_SECONDS,
                         labels=list(cfg.vocabulary), lengths=[len(r) for r in rolls])


def _check_vocabulary(found: list[str], expected: list[str], path) -> None:
    if found == list(expected):
        return
    for a, b in zip(found, expected):
        if a != b:
            raise DataError(f"{path}: vocabulary mismatch at label {a!r} (config has {b!r})")
    raise DataError(f"{path}: vocabulary length {len(found)} != config {len(expected)}")


def _fitted_systems(cfg: ExperimentConfig, out: Path, split: str) -> list[tuple]:
    """(name, kind, PredictionSet, parameter path) on one split for each
    `[fusion] tfrs` entry, then for the fused system."""
    pset = _load_split(cfg, out, split)
    systems = [(tfr_name, "single", replace(pset, predictions=[scores]),
                _fusion_path(out, f"single_{tfr_name}"))
               for tfr_name, scores in zip(cfg.fusion.tfrs, pset.predictions)]
    return systems + [("+".join(cfg.fusion.tfrs), "fused", pset, _fusion_path(out, "fused"))]


def _read_params(path: Path, pset: PredictionSet):
    """The fusion parameters at `path` for the system `pset` holds: one
    weight and one bias per prediction matrix, one threshold per event; other
    counts are a DataError naming the file."""
    params = dataio.read_fusion_params(path)
    for what, values, want, per in (
            ("weights", params.weights, pset.n_models, "prediction matrices"),
            ("biases", params.biases, pset.n_models, "prediction matrices"),
            ("thresholds", params.thresholds, pset.n_events, "events")):
        if len(values) != want:
            raise DataError(f"{path}: {len(values)} {what} for {want} {per}")
    return params


def run_fuse_fit(cfg: ExperimentConfig, out: Path) -> dict:
    """Fit per-feature and joint fusion parameters on the val split."""
    out = Path(out)
    results = {"fit_split": "val", "single": {}, "fused": {}}
    for name, kind, pset, path in _fitted_systems(cfg, out, "val"):
        params = fit_fusion(pset)
        dataio.write_fusion_params(params, path, grid_note=GRID_NOTE)
        er = fitted_error_rate(pset, params)
        if kind == "single":
            results["single"][name] = er
        else:
            results["fused"] = {"tfrs": list(cfg.fusion.tfrs), "er": er,
                                "weights": [float(w) for w in params.weights]}
    dataio.write_file(_fusion_path(out, "fit_results"), json.dumps(results, indent=2) + "\n")
    return results


def run_fuse_apply(cfg: ExperimentConfig, out: Path) -> dict:
    """Aggregate the eval split's per-feature scores with the fitted joint
    parameters."""
    out = Path(out)
    pset = _load_split(cfg, out, "eval")
    params = _read_params(_fusion_path(out, "fused"), pset)
    fused = fuse(pset, params)
    dataio.write_predictions(fused, pset.hop, cfg.vocabulary, _pred_path(out, "fused", "eval"))
    return {"eval": fused.shape}


# ---------------------------------------------------------------------------
# eval / report
# ---------------------------------------------------------------------------

def run_eval(cfg: ExperimentConfig, out: Path, split: str = "eval") -> dict:
    """Score every system on one split as fuse-fit scores it, from the
    per-feature scores and the stored parameters; writes results.json and
    report.txt."""
    out = Path(out)
    systems = []
    for name, kind, pset, path in _fitted_systems(cfg, out, split):
        params = _read_params(path, pset)
        roll = apply_threshold(fuse(pset, params), params.thresholds)
        counts = segment_counts(EventRoll(pset.truth, pset.hop, pset.labels),
                                EventRoll(roll, pset.hop, pset.labels), lengths=pset.lengths)
        systems.append(_system_entry(name, kind, counts))

    results = {"split": split, "systems": systems}
    fit_path = _fusion_path(out, "fit_results")
    if fit_path.exists():
        results["fit"] = dataio.read_json(fit_path)
    report = _format_stored(results, fit_path)
    dataio.write_file(out / "eval" / "results.json", json.dumps(results, indent=2) + "\n")
    dataio.write_file(out / "eval" / "report.txt", report + "\n")
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


def _format_stored(results, path) -> str:
    """format_results of results read from `path`; a missing key or a value
    of the wrong type there is a DataError naming it."""
    try:
        return format_results(results)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed results ({type(exc).__name__}: {exc})") from None


def run_report(cfg: ExperimentConfig, out: Path) -> str:
    path = Path(out) / "eval" / "results.json"
    if not path.exists():
        raise DataError(f"{path} not found; run eval first")
    return _format_stored(dataio.read_json(path), path)
