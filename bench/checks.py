"""Output checks for one benchmark iteration.

Every check returns a list of failure messages; an empty list means the
check held.  The benchmark counts each artifact parse, each ER check and
each rerun comparison as one attempted operation.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from polysed import dataio, pipeline


def _parse_fusion_json(path: Path) -> None:
    if path.name == "fit_results.json":
        json.loads(path.read_text())
    else:
        dataio.read_fusion_params(path)


def _parse_pred(path: Path) -> None:
    scores, hop, labels = dataio.read_predictions(path)
    if scores.ndim != 2 or scores.shape[1] != len(labels) or hop <= 0:
        raise ValueError(f"inconsistent prediction header {scores.shape}, {len(labels)} labels")
    if not np.all(np.isfinite(scores)) or scores.min() < 0.0 or scores.max() > 1.0:
        raise ValueError("scores outside [0, 1]")


def _parse_tfr(path: Path) -> None:
    if not np.all(np.isfinite(dataio.read_tfr(path).values)):
        raise ValueError("non-finite feature values")


def _parse_text(path: Path) -> None:
    if not path.read_text().strip():
        raise ValueError("empty report")


def _parser(rel: Path):
    top = rel.parts[0]
    if rel.suffix == ".wav":
        return dataio.read_wav
    if rel.suffix == ".txt":
        return dataio.read_annotations if top == "corpus" else _parse_text
    if rel.suffix == ".tsv":
        return lambda p: pipeline.read_manifest(p.parent.parent)
    if rel.suffix == ".tfr":
        return _parse_tfr
    if rel.suffix == ".ckpt":
        return dataio.read_checkpoint
    if rel.suffix == ".pred":
        return _parse_pred
    if rel.suffix == ".json":
        return _parse_fusion_json if top == "fusion" else (lambda p: json.loads(p.read_text()))
    return None


def artifacts(out: Path) -> list[Path]:
    return sorted(p.relative_to(out) for p in Path(out).rglob("*") if p.is_file())


def parse_artifacts(out: Path) -> list[tuple[str, str | None]]:
    """(artifact, failure or None) for every file under `out`, parsed with
    the package's own readers."""
    results = []
    for rel in artifacts(out):
        parse = _parser(rel)
        if parse is None:
            results.append((str(rel), "unexpected artifact"))
            continue
        try:
            parse(out / rel)
        except Exception as exc:  # any reader failure is a failed check
            results.append((str(rel), f"does not parse: {type(exc).__name__}: {exc}"))
        else:
            results.append((str(rel), None))
    return results


def digest(out: Path) -> dict[str, str]:
    """sha256 of every artifact, keyed by its path under `out`."""
    return {str(rel): hashlib.sha256((out / rel).read_bytes()).hexdigest()
            for rel in artifacts(out)}


def rerun_failures(first: dict[str, str], again: dict[str, str]) -> list[str]:
    """Differences between two seeded runs that must be byte-identical."""
    failures = [f"{name} missing on rerun" for name in first if name not in again]
    failures += [f"{name} only on rerun" for name in again if name not in first]
    failures += [f"{name} differs on rerun" for name in first
                 if name in again and first[name] != again[name]]
    return failures


def er_failures(ers: dict[str, float]) -> list[str]:
    return [f"{name} = {value!r} is not a finite, non-negative ER"
            for name, value in ers.items()
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0)]


def pipeline_ers(out: Path) -> dict[str, float]:
    """The run's ERs as stored in eval/results.json."""
    results = json.loads((Path(out) / "eval" / "results.json").read_text())
    singles = [s["er"] for s in results["systems"] if s["kind"] == "single"]
    fused = [s["er"] for s in results["systems"] if s["kind"] == "fused"]
    fit = results["fit"]
    return {"eval_er_best_single": min(singles), "eval_er_worst_single": max(singles),
            "eval_er_fused": fused[0], "fit_er_fused": fit["fused"]["er"],
            "fit_er_best_single": min(fit["single"].values())}


def desk_gate(ers: dict[str, float]) -> bool:
    """The acceptance desk gate: every single eval ER <= 0.6 and the fused
    fitting-split ER no worse than the best single one."""
    return (ers["eval_er_worst_single"] <= 0.6
            and ers["fit_er_fused"] <= ers["fit_er_best_single"] + 1e-12)
