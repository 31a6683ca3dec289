"""Tests of the benchmark itself: metric names, span arithmetic, tracing
and the output checks.

    python3 -m pytest bench
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from polysed import dataio, tensor  # noqa: E402
from polysed.dsp import Tfr, logmel_config  # noqa: E402
from polysed.fusion import FusionParams  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Metric names
# ---------------------------------------------------------------------------

def test_metric_names_and_units_follow_the_syntax():
    spec = _spec()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_registered_metrics_are_the_ones_the_benchmark_reports():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spans.per_layer_metrics([]) == {name: 0.0 for name in spans.PER_LAYER_UNITS}


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def _span(name, start, end, parent=None, extra=None):
    return [name, start, end, parent, 0, extra]


def test_covered_merges_overlaps_and_clips_to_the_span():
    assert spans.covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 6.0
    assert spans.covered(0.0, 10.0, [(-5.0, 1.0), (4.0, 4.0)]) == 1.0
    assert spans.covered(0.0, 10.0, []) == 0.0


def test_self_time_subtracts_direct_children_only():
    recorded = [
        _span("pipeline.train", 0.0, 10.0),
        _span("capsnet.train", 1.0, 9.0, parent=0),
        _span("tensor.conv2d", 2.0, 4.0, parent=1),
        _span("tensor.gradients", 5.0, 8.0, parent=1),
        _span("tensor.conv2d.bwd", 6.0, 7.0, parent=3),
    ]
    assert spans.self_times(recorded) == [2.0, 3.0, 2.0, 2.0, 1.0]
    table = spans.per_layer_metrics(recorded)
    assert table["pipeline.self_s.train"] == 2.0
    assert table["capsnet.self_s"] == 3.0
    assert table["tensor.self_s"] == 5.0
    assert table["tensor.conv2d.fwd_s"] == 2.0
    assert table["tensor.conv2d.bwd_s"] == 1.0


def test_self_time_of_overlapping_worker_threads():
    # Two extract workers hang their spans under the stage span and overlap.
    recorded = [
        _span("pipeline.extract", 0.0, 10.0),
        _span("dsp.extract", 1.0, 6.0, parent=0),
        _span("dsp.extract", 2.0, 7.0, parent=0),
    ]
    table = spans.per_layer_metrics(recorded)
    assert table["pipeline.self_s.extract"] == 4.0
    assert table["dsp.self_s"] == 10.0


def test_accepted_ratio_replays_strict_improvements():
    recorded = [_span("fusion.fit_fusion", 0.0, 1.0)]
    for er in (0.5, 0.6, 0.4, 0.4, 0.3):
        recorded.append(_span("fusion.fitted_error_rate", 0.1, 0.2, parent=0, extra={"er": er}))
    recorded.append(_span("fusion.fitted_error_rate", 2.0, 3.0, extra={"er": 0.1}))
    table = spans.per_layer_metrics(recorded)
    assert table["fusion.trials"] == 5
    assert table["fusion.accepted_ratio"] == pytest.approx(2 / 5)


# ---------------------------------------------------------------------------
# Tracing a real call
# ---------------------------------------------------------------------------

def test_tracing_times_ops_and_backward_rules_then_restores_them():
    original = tensor.conv2d
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        rng = np.random.default_rng(0)
        x = tensor.Tensor(rng.normal(size=(2, 6, 5)))
        k = tensor.Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        loss = tensor.tsum(tensor.conv2d(x, k))
        tensor.gradients(loss, {"k": k})
    finally:
        spans.uninstall(undo)
    assert tensor.conv2d is original
    names = [s[0] for s in rec.spans]
    assert names == ["tensor.conv2d", "tensor.tsum", "tensor.gradients",
                     "tensor.tsum.bwd", "tensor.conv2d.bwd"]
    assert rec.spans[4][3] == 2                        # backward runs inside gradients
    cost = spans.conv2d_cost((2, 6, 5), (3, 2, 3, 3), 8)
    table = spans.per_layer_metrics(rec.spans)
    assert table["tensor.conv2d.flop"] == cost["fwd"][0] + cost["bwd"][0]
    assert cost["fwd"][0] == 2 * (4 * 3) * 18 * 3 + 3 * 12


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _artifacts(out: Path) -> None:
    labels = ["a", "b"]
    (out / "pred" / "logmel_64").mkdir(parents=True)
    dataio.write_predictions(np.full((4, 2), 0.25), 0.02, labels,
                             out / "pred" / "logmel_64" / "eval.pred")
    (out / "tfr").mkdir()
    dataio.write_tfr(Tfr(np.zeros((3, 64, 2)), logmel_config(64)), out / "tfr" / "c.tfr")
    (out / "fusion").mkdir()
    dataio.write_fusion_params(FusionParams([1.0], [0.0], [0.5, 0.5]),
                               out / "fusion" / "fused.json")
    (out / "eval").mkdir()
    (out / "eval" / "results.json").write_text(json.dumps({
        "split": "eval",
        "systems": [{"name": "logmel_64", "kind": "single", "er": 0.25},
                    {"name": "logmel_64", "kind": "fused", "er": 0.2}],
        "fit": {"single": {"logmel_64": 0.1}, "fused": {"er": 0.1}}}))


def test_checks_pass_on_good_artifacts(tmp_path):
    _artifacts(tmp_path)
    assert [why for _, why in checks.parse_artifacts(tmp_path)] == [None] * 4
    assert checks.er_failures(checks.pipeline_ers(tmp_path)) == []


@pytest.mark.parametrize("corrupt", ["truncate", "magic", "range"])
def test_checks_fire_on_a_corrupted_prediction_file(tmp_path, corrupt):
    _artifacts(tmp_path)
    path = tmp_path / "pred" / "logmel_64" / "eval.pred"
    raw = path.read_bytes()
    if corrupt == "truncate":
        path.write_bytes(raw[:-5])
    elif corrupt == "magic":
        path.write_bytes(b"XXXX" + raw[4:])
    else:
        dataio.write_predictions(np.full((4, 2), 1.5), 0.02, ["a", "b"], path)
    failures = {name: why for name, why in checks.parse_artifacts(tmp_path) if why}
    assert list(failures) == ["pred/logmel_64/eval.pred"]


def test_checks_fire_on_stray_files_rerun_drift_and_bad_ers(tmp_path):
    _artifacts(tmp_path)
    first = checks.digest(tmp_path)
    (tmp_path / "models").mkdir()
    (tmp_path / "models" / "x.lock").write_text("")
    assert ("models/x.lock", "unexpected artifact") in checks.parse_artifacts(tmp_path)
    (tmp_path / "models" / "x.lock").unlink()
    path = tmp_path / "tfr" / "c.tfr"
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 1
    path.write_bytes(bytes(raw))
    assert checks.rerun_failures(first, checks.digest(tmp_path)) == ["tfr/c.tfr differs on rerun"]
    assert checks.er_failures({"eval_er_fused": float("nan"), "fit_er_fused": 0.0}) != []


# ---------------------------------------------------------------------------
# Inputs and the missing-program case
# ---------------------------------------------------------------------------

def test_fusion_wide_inputs_come_from_the_seed_alone(tmp_path):
    wl = workloads.WORKLOADS["fusion_wide"]
    a, b, c = (wl.prepare(seed, tmp_path) for seed in (3, 3, 4))
    assert np.array_equal(a.fit_truth, b.fit_truth)
    assert all(np.array_equal(x, y) for x, y in zip(a.eval_scores, b.eval_scores))
    assert not np.array_equal(a.fit_truth, c.fit_truth)
    assert a.fit_truth.shape == (workloads.FW_FIT_CLIPS * workloads.FW_CLIP_FRAMES,
                                 workloads.FW_EVENTS)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
