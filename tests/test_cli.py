import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polysed
from polysed import dataio, pipeline
from polysed import tensor as T
from polysed.capsnet import CapsNetConfig, CapsNetModel, detection_loss
from polysed.cli import main
from polysed.config import DatasetConfig, FusionConfig, TrainConfig, load_config
from polysed.dataio import ClassSpec, SynthSpec
from polysed.dsp import Tfr, parse_tfr_name
from polysed.errors import ConfigError
from polysed.optim import AdaDeltaState, adadelta_step
from polysed.rng import stream

TINY_CFG = """\
# tiny end-to-end experiment
[dataset]
classes = low_tone:tone:300-600, mid_chirp:chirp:900-1800, high_hiss:noise:2500-5000
clip_seconds = 6.0
train_clips = 6
eval_clips = 2
val_fraction = 0.34
polyphony = 2
events_per_clip = 2, 4
event_seconds = 0.6, 2.0
snr_db = 6.0, 20.0
seed = 77

[model logmel_16]
cnn_kernels = 4, 4
cnn_kernel_dim = 3
pool_dims = 2, 2
n_primary_caps = 3
primary_cap_dim = 4
output_cap_dim = 4
routing_iters = 3
dropout_rate = 0.1
l2_weight = 1e-4

[model logmel_32]
cnn_kernels = 4, 4
cnn_kernel_dim = 3
pool_dims = 2, 2
n_primary_caps = 3
primary_cap_dim = 4
output_cap_dim = 4
routing_iters = 3
dropout_rate = 0.1
l2_weight = 1e-4

[train]
epochs = 2
patience = 20
batch_size = 4
precision = f32

[fusion]
tfrs = logmel_16, logmel_32
block_len = 256
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "exp.cfg"
    cfg_path.write_text(TINY_CFG)
    out = root / "out"
    return cfg_path, out


def _run(cfg_path, out, *argv):
    return main([*argv, "--config", str(cfg_path), "--out", str(out)])


CHAIN = (["synth"], ["extract", "--tfr", "logmel_16"],
         ["extract", "--tfr", "logmel_32", "--jobs", "2"],
         ["train", "--tfr", "logmel_16"], ["train", "--tfr", "logmel_32"],
         ["predict"], ["fuse-fit"], ["fuse-apply"], ["eval"])


@pytest.fixture(scope="module")
def ran_pipeline(workdir):
    cfg_path, out = workdir
    for argv in CHAIN:
        assert _run(cfg_path, out, *argv) == 0
    return cfg_path, out


def test_end_to_end_prints_three_ers(ran_pipeline, capsys):
    cfg_path, out = ran_pipeline
    assert _run(cfg_path, out, "eval") == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("eval:")]
    assert len(lines) == 3  # two single-feature systems plus the fused one
    results = json.loads((out / "eval" / "results.json").read_text())
    assert [s["kind"] for s in results["systems"]] == ["single", "single", "fused"]


def _digests(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*") if p.is_file()}


def test_seeded_rerun_writes_identical_files(ran_pipeline, tmp_path):
    """The whole chain, binary containers included, reruns to the same bytes."""
    cfg_path, out = ran_pipeline
    again = tmp_path / "again"
    for argv in CHAIN:
        assert _run(cfg_path, again, *argv) == 0

    first = _digests(out)
    assert len(first) == 46
    assert _digests(again) == first


def _write_blas_outputs(cfg_path, out):
    """What the BLAS-thread test compares, written under `out`: the CLI
    chain on `cfg_path`, one 8-window training step of the desk model at
    128 bins (f32), and conv2d forward and backward at home_config's
    layer 1 (f64) for 96 and 240 bins, whose columns are unfolded in 4 and
    9 blocks."""
    out = Path(out)
    for argv in CHAIN:
        assert _run(cfg_path, out / "chain", *argv) == 0
    cfg = CapsNetConfig(cnn_kernels=(8, 8), cnn_kernel_dim=3, pool_dims=(4, 4),
                        n_primary_caps=4, primary_cap_dim=4, output_cap_dim=4,
                        routing_iters=3, n_events=3, dropout_rate=0.1)
    model = CapsNetModel.build(cfg, 128, 2, stream(5), dtype=np.float32)
    rng = np.random.default_rng(6)
    target = (rng.uniform(size=(8, 256, 3)) < 0.3).astype(np.uint8)
    loss = detection_loss(
        model.forward(rng.normal(size=(8, 256, 128, 2)), train_mode=True, rng=stream(7)),
        target, mask=np.ones((8, 256)), params=model.parameters, l2_weight=cfg.l2_weight)
    step = adadelta_step(model.parameters, T.gradients(loss, model.parameters), AdaDeltaState())
    arrays = {f"step_{name}": p.data for name, p in step.items()}
    for width in (29, 65):
        x = T.Tensor(rng.normal(size=(32, 261, width)), requires_grad=True)
        k = T.Tensor(rng.normal(size=(32, 32, 6, 6)), requires_grad=True)
        conv = T.conv2d(x, k)
        grads = T.gradients(T.tsum(T.mul(conv, T.Tensor(rng.normal(size=conv.shape)))),
                            {"x": x, "k": k})
        arrays.update({f"conv{width}": conv.data, f"conv{width}_gx": grads["x"],
                       f"conv{width}_gk": grads["k"]})
    for name, arr in arrays.items():
        np.save(out / f"{name}.npy", arr)


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    """The seeded-rerun identity holds across OpenBLAS thread counts, on
    GEMMs large enough to run threaded: the same bytes under one thread and
    under two, for the chain, a desk training step and a blocked conv."""
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(TINY_CFG)
    paths = [str(Path(polysed.__file__).resolve().parents[1]), str(Path(__file__).parent),
             os.environ.get("PYTHONPATH")]
    code = "import sys, test_cli; test_cli._write_blas_outputs(*sys.argv[1:])"
    procs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        procs[threads] = subprocess.Popen(
            [sys.executable, "-c", code, str(cfg_path), str(tmp_path / threads)],
            env=env, stderr=subprocess.PIPE, text=True)
    for proc in procs.values():
        stderr = proc.communicate(timeout=120)[1]
        assert proc.returncode == 0, stderr
    one, two = _digests(tmp_path / "1"), _digests(tmp_path / "2")
    assert len(one) == 46 + 7 + 6  # the chain, the step's parameters, the convs
    assert one == two


def test_report_matches_recomputation(ran_pipeline, capsys):
    cfg_path, out = ran_pipeline
    stored = json.loads((out / "eval" / "results.json").read_text())
    assert _run(cfg_path, out, "eval") == 0  # recompute from stored predictions
    recomputed = json.loads((out / "eval" / "results.json").read_text())
    assert stored == recomputed
    assert _run(cfg_path, out, "report") == 0
    table = capsys.readouterr().out
    for system in stored["systems"]:
        assert f"{system['er']:.4f}" in table


def test_extract_idempotent(ran_pipeline):
    cfg_path, out = ran_pipeline
    archive = next((out / "tfr" / "logmel_16" / "train").glob("*.tfr"))
    before = archive.read_bytes()
    assert _run(cfg_path, out, "extract", "--tfr", "logmel_16") == 0
    assert archive.read_bytes() == before


def test_synth_idempotent(ran_pipeline):
    cfg_path, out = ran_pipeline
    wav = next((out / "corpus" / "train").glob("*.wav"))
    before = wav.read_bytes()
    assert _run(cfg_path, out, "synth") == 0
    assert wav.read_bytes() == before


def test_wrong_sample_rate_exits_2(workdir, tmp_path, capsys):
    cfg_path, out = workdir
    wav = next((out / "corpus" / "train").glob("*.wav"))
    clip = dataio.read_wav(wav)
    from polysed.dsp import AudioClip
    dataio.write_wav(AudioClip(clip.samples, sample_rate=44100), wav)
    try:
        code = _run(cfg_path, out, "extract", "--tfr", "logmel_16")
        err = capsys.readouterr().err
        assert code == 2
        assert "44100" in err and "16000" in err
    finally:
        dataio.write_wav(clip, wav)


def test_bad_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[dataset]\nclasses = a:tone:100-200\nbogus_key = 1\n")
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "bad.cfg:3" in err
    assert "bogus_key" in err


def test_missing_config_exits_1(tmp_path, capsys):
    assert main(["synth", "--config", str(tmp_path / "none.cfg"),
                 "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("kind", ["non_utf8", "directory"])
def test_unreadable_config_exits_1_naming_it(tmp_path, capsys, kind):
    path = tmp_path / "exp.cfg"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(TINY_CFG.encode("utf-8").replace(b"# tiny", b"# \xff tiny"))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("polysed: error: config:") and "\n" not in err
    assert str(path) in err


def test_config_with_retired_block_len_loads(tmp_path):
    assert "block_len = 256" in TINY_CFG
    legacy, current = tmp_path / "legacy.cfg", tmp_path / "current.cfg"
    legacy.write_text(TINY_CFG)
    current.write_text(TINY_CFG.replace("block_len = 256\n", ""))
    assert load_config(legacy) == load_config(current)


def test_vocabulary_mismatch_exits_2(ran_pipeline, tmp_path, capsys):
    cfg_path, out = ran_pipeline
    renamed = TINY_CFG.replace("low_tone:tone:300-600", "siren:tone:300-600")
    other_cfg = tmp_path / "renamed.cfg"
    other_cfg.write_text(renamed)
    code = _run(other_cfg, out, "eval")
    err = capsys.readouterr().err
    assert code == 2
    assert "low_tone" in err  # names the offending label


def test_eval_on_mismatched_hops_exits_2(ran_pipeline, capsys):
    cfg_path, out = ran_pipeline
    pred = out / "pred" / "logmel_32" / "eval.pred"
    before = pred.read_bytes()
    scores, hop, labels = dataio.read_predictions(pred)
    dataio.write_predictions(scores, 2 * hop, labels, pred)
    try:
        assert _run(cfg_path, out, "eval") == 2
        assert "frame hop" in capsys.readouterr().err
    finally:
        pred.write_bytes(before)


def test_eval_on_a_shared_foreign_hop_exits_2(ran_pipeline, capsys):
    """Predictions that agree on a hop other than the method's would score
    eval on the wrong segment grid."""
    cfg_path, out = ran_pipeline
    preds = sorted((out / "pred").rglob("*.pred"))
    before = [p.read_bytes() for p in preds]
    for p in preds:
        scores, hop, labels = dataio.read_predictions(p)
        dataio.write_predictions(scores, 2 * hop, labels, p)
    try:
        assert _run(cfg_path, out, "eval") == 2
        assert "frame hop" in capsys.readouterr().err
    finally:
        for p, raw in zip(preds, before):
            p.write_bytes(raw)


def test_eval_without_predictions_exits_2(ran_pipeline, capsys):
    cfg_path, out = ran_pipeline
    pred = out / "pred"
    hidden = out / "pred.hidden"
    pred.rename(hidden)
    try:
        assert _run(cfg_path, out, "eval") == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("polysed: error: data:") and "\n" not in err
        assert str(pred) in err
    finally:
        hidden.rename(pred)


def _exits_2_naming(path, capsys, *run):
    assert _run(*run) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("polysed: error: data:") and "\n" not in err
    assert str(path) in err


@pytest.mark.parametrize("doc", [{"split": "eval"}, {"split": "eval", "systems": "x"}, [],
                                 {"split": "eval", "systems": [{"name": "a", "kind": "single"}]},
                                 {"split": "eval", "systems": [], "fit": {"fit_split": "val",
                                                                          "single": []}}])
def test_report_on_malformed_results_exits_2(ran_pipeline, capsys, doc):
    cfg_path, out = ran_pipeline
    path = out / "eval" / "results.json"
    before = path.read_bytes()
    path.write_text(json.dumps(doc))
    try:
        _exits_2_naming(path, capsys, cfg_path, out, "report")
    finally:
        path.write_bytes(before)


@pytest.mark.parametrize("doc", [{"fit_split": "val"},
                                 {"fit_split": "val", "single": {"logmel_16": "x"},
                                  "fused": {"tfrs": [], "er": 0.5}}])
def test_eval_on_malformed_fit_results_exits_2(ran_pipeline, capsys, doc):
    cfg_path, out = ran_pipeline
    path = out / "fusion" / "fit_results.json"
    before = path.read_bytes()
    stored = (out / "eval" / "results.json").read_bytes()
    path.write_text(json.dumps(doc))
    try:
        _exits_2_naming(path, capsys, cfg_path, out, "eval")
        assert (out / "eval" / "results.json").read_bytes() == stored
    finally:
        path.write_bytes(before)


def test_seed_option_reaches_corpus_and_checkpoint(ran_pipeline, tmp_path):
    cfg_path, seeded_77 = ran_pipeline
    seeded_5 = tmp_path / "seed5"
    for argv in (["synth"], ["extract", "--tfr", "logmel_16"], ["train", "--tfr", "logmel_16"]):
        assert _run(cfg_path, seeded_5, *argv, "--seed", "5") == 0
    cfg_5 = tmp_path / "seed5.cfg"
    cfg_5.write_text(TINY_CFG.replace("seed = 77", "seed = 5"))
    assert _run(cfg_5, tmp_path / "cfg5", "synth") == 0

    def corpus(out):
        return {p.relative_to(out): p.read_bytes() for p in (out / "corpus").rglob("*.*")}

    assert corpus(seeded_5) == corpus(tmp_path / "cfg5") != corpus(seeded_77)
    _, header = dataio.read_checkpoint(seeded_5 / "models" / "logmel_16.ckpt")
    assert header["provenance"]["seed"] == 5


def test_eval_on_the_fit_split_reports_the_fitted_ers(ran_pipeline):
    """Fusion is fitted on the error rate that eval reports: scoring the
    fitting split gives exactly the ERs of fit_results.json."""
    cfg_path, out = ran_pipeline
    cfg = load_config(cfg_path)
    kept = {p: p.read_bytes() for p in (out / "eval").iterdir()}
    fit = json.loads((out / "fusion" / "fit_results.json").read_text())
    try:
        results = pipeline.run_eval(cfg, out, split="val")
    finally:
        for path, data in kept.items():
            path.write_bytes(data)
    ers = {s["name"]: s["er"] for s in results["systems"]}
    assert ers == {**fit["single"], "+".join(fit["fused"]["tfrs"]): fit["fused"]["er"]}


def test_eval_scores_the_fused_system_as_fuse_fit_fitted_it(tmp_path):
    """Two detectors of equal MSE, so of equal weight, fuse to 0.5 - 2**-26
    in a segment without the event: below the 0.5 threshold in f64, and
    0.5 once rounded to the f32 of a .pred.  fuse-fit keeps the threshold
    with fitted ER 0, and eval on the fitting split reads the same, from
    the per-feature scores and not from the fused file beside them."""
    out = tmp_path / "out"
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("[dataset]\nclasses = a:tone:100-200\n\n[model logmel_8]\n"
                        + MODEL_REQUIRED + "\n[model logmel_16]\n" + MODEL_REQUIRED)
    cfg = load_config(cfg_path)
    dataio.write_file(pipeline.manifest_path(out), "c\tval\n")
    annotation = dataio.Annotation([(0.2, 0.6, "a")])
    dataio.write_annotations(annotation, out / "corpus" / "val" / "c.txt")
    dataio.write_tfr(Tfr(np.zeros((100, 8, 2), np.float32), parse_tfr_name("logmel_8")),
                     out / "tfr" / "logmel_8" / "val" / "c.tfr")
    truth = dataio.annotation_to_roll(annotation, 0.02, 100, ["a"]).values
    below = np.float32(0.5 - 2.0 ** -25)
    scores = []
    for tfr_name, (y70, y80) in (("logmel_8", (0.5, below)), ("logmel_16", (below, 0.5))):
        scores.append(truth.astype(np.float32))
        scores[-1][70, 0], scores[-1][80, 0] = y70, y80
        dataio.write_predictions(scores[-1], 0.02, ["a"], out / "pred" / tfr_name / "val.pred")
    fused = np.mean(scores, axis=0, dtype=np.float64)
    assert fused.max(initial=0, where=truth == 0) == 0.5 - 2.0 ** -26
    assert np.float32(0.5 - 2.0 ** -26) == 0.5
    dataio.write_predictions(fused, 0.02, ["a"], out / "pred" / "fused" / "val.pred")

    fit = pipeline.run_fuse_fit(cfg, out)
    assert fit["fused"]["weights"][0] == fit["fused"]["weights"][1]
    assert fit["fused"]["er"] == 0.0
    results = pipeline.run_eval(cfg, out, split="val")
    ers = {s["name"]: s["er"] for s in results["systems"]}
    assert ers == {**fit["single"], "logmel_8+logmel_16": 0.0}


def test_eval_without_fuse_apply_scores_every_system(ran_pipeline):
    cfg_path, out = ran_pipeline
    stored = (out / "eval" / "results.json").read_bytes()
    fused, hidden = out / "pred" / "fused", out / "pred.fused.hidden"
    fused.rename(hidden)
    try:
        assert _run(cfg_path, out, "eval") == 0
    finally:
        hidden.rename(fused)
    assert (out / "eval" / "results.json").read_bytes() == stored
    results = json.loads(stored)
    assert [s["kind"] for s in results["systems"]] == ["single", "single", "fused"]


def test_eval_without_fused_parameters_exits_2(ran_pipeline, capsys):
    cfg_path, out = ran_pipeline
    path = out / "fusion" / "fused.json"
    before = path.read_bytes()
    path.unlink()
    try:
        _exits_2_naming(path, capsys, cfg_path, out, "eval")
    finally:
        path.write_bytes(before)


@pytest.mark.parametrize("command,split", [("fuse-fit", "val"), ("eval", "eval")])
def test_predictions_of_the_wrong_length_exit_2_naming_the_file(ran_pipeline, capsys,
                                                                command, split):
    cfg_path, out = ran_pipeline
    pred = out / "pred" / "logmel_32" / f"{split}.pred"
    before = pred.read_bytes()
    scores, hop, labels = dataio.read_predictions(pred)
    dataio.write_predictions(scores[1:], hop, labels, pred)
    try:
        _exits_2_naming(pred, capsys, cfg_path, out, command)
    finally:
        pred.write_bytes(before)


def test_a_split_without_clips_exits_2_naming_the_manifest(ran_pipeline, capsys):
    cfg_path, out = ran_pipeline
    manifest = pipeline.manifest_path(out)
    before = manifest.read_text()
    manifest.write_text("".join(line for line in before.splitlines(keepends=True)
                                if not line.endswith("\teval\n")))
    try:
        for argv in (["predict", "--tfr", "logmel_16"], ["fuse-apply"], ["eval"]):
            _exits_2_naming(manifest, capsys, cfg_path, out, *argv)
    finally:
        manifest.write_text(before)


def test_fuse_fit_on_nan_scores_exits_3(ran_pipeline, capsys):
    cfg_path, out = ran_pipeline
    pred = out / "pred" / "logmel_16" / "val.pred"
    before = pred.read_bytes()
    scores, hop, labels = dataio.read_predictions(pred)
    scores[3, 1] = np.nan
    dataio.write_predictions(scores, hop, labels, pred)
    try:
        assert _run(cfg_path, out, "fuse-fit") == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("polysed: error: numeric:") and "\n" not in err
    finally:
        pred.write_bytes(before)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_eval_on_a_non_finite_fusion_weight_exits_2(ran_pipeline, capsys, bad):
    """A NaN weight fails every comparison, so `w <= 0` passes it, and an
    infinite one normalizes to NaN; either would score an all-inactive
    fused roll."""
    cfg_path, out = ran_pipeline
    path = out / "fusion" / "fused.json"
    before = path.read_bytes()
    doc = json.loads(before)
    doc["weights"][0] = bad
    path.write_text(json.dumps(doc))
    try:
        _exits_2_naming(path, capsys, cfg_path, out, "eval")
    finally:
        path.write_bytes(before)


def test_train_lock_blocks_second_job(ran_pipeline, capsys):
    cfg_path, out = ran_pipeline
    lock = out / "models" / "logmel_16.lock"
    lock.write_text("")
    try:
        assert _run(cfg_path, out, "train", "--tfr", "logmel_16") == 2
    finally:
        lock.unlink()


def test_train_reclaims_lock_of_exited_process(ran_pipeline):
    cfg_path, out = ran_pipeline
    ckpt = out / "models" / "logmel_16.ckpt"
    before = ckpt.read_bytes()
    child = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                           capture_output=True, text=True, check=True)
    lock = out / "models" / "logmel_16.lock"
    lock.write_text(child.stdout)
    try:
        assert _run(cfg_path, out, "train", "--tfr", "logmel_16") == 0
        assert not lock.exists()
        assert ckpt.read_bytes() == before
    finally:
        lock.unlink(missing_ok=True)


def test_train_lock_of_live_process_exits_2(ran_pipeline, capsys):
    cfg_path, out = ran_pipeline
    lock = out / "models" / "logmel_16.lock"
    lock.write_text(f"{os.getpid()}\n")
    try:
        capsys.readouterr()
        assert _run(cfg_path, out, "train", "--tfr", "logmel_16") == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("polysed: error: data:") and "\n" not in err
        assert lock.read_text() == f"{os.getpid()}\n"
    finally:
        lock.unlink()


def test_unknown_tfr_exits_1(ran_pipeline, capsys):
    cfg_path, out = ran_pipeline
    for command in ("extract", "train", "predict"):
        assert _run(cfg_path, out, command, "--tfr", "logmel_999") == 1
        assert capsys.readouterr().err == \
            "polysed: error: config: no [model logmel_999] section in the config\n"


def test_package_imports_only_the_standard_library_and_numpy():
    """numpy stays the package's one dependency."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "polysed"}
    found = {}
    for path in sorted(Path(polysed.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update({name.split(".")[0]: path.name for name in names})
    assert "numpy" in found
    assert {name: where for name, where in found.items() if name not in allowed} == {}


def test_console_entry_point_runs():
    # the child imports the same package as this test, installed or not
    src = str(Path(polysed.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "polysed", "synth", "--config",
                           "/nonexistent.cfg", "--out", "/tmp/nowhere"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "polysed: error: config:" in proc.stderr


def test_config_loads(workdir):
    cfg_path, _ = workdir
    cfg = load_config(cfg_path)
    assert cfg.vocabulary == ["low_tone", "mid_chirp", "high_hiss"]
    assert cfg.fusion.tfrs == ["logmel_16", "logmel_32"]
    assert cfg.train.precision == "f32"
    assert cfg.models["logmel_16"].n_events == 3


def test_readme_config_examples_load(tmp_path):
    """Every ini block of README.md loads, so the docs cannot drift from the parser."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```ini\n(.*?)^```", readme.read_text(), flags=re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme_{i}.cfg"
        path.write_text(block)
        load_config(path)


def test_config_rejects_unknown_fusion_tfr(tmp_path):
    text = TINY_CFG.replace("tfrs = logmel_16, logmel_32", "tfrs = logmel_64")
    path = tmp_path / "bad_fusion.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match="logmel_64"):
        load_config(path)


@pytest.mark.parametrize("line,bad", [
    ("batch_size = 4", "batch_size = 0"),
    ("epochs = 2", "epochs = 0"),
    ("patience = 20", "patience = 0"),
    ("precision = f32", "precision = f16"),
    ("classes = low_tone:tone:300-600, mid_chirp:chirp:900-1800, high_hiss:noise:2500-5000",
     "classes = a:bogus:100-200"),
    ("polyphony = 2", "polyphony = 0"),
    ("events_per_clip = 2, 4", "events_per_clip = 4, 2"),
    ("val_fraction = 0.34", "val_fraction = nan"),
    ("val_fraction = 0.34", "val_fraction = 5"),
    ("val_fraction = 0.34", "val_fraction = 0.95"),
    ("event_seconds = 0.6, 2.0", "event_seconds = -1, 2"),
    ("event_seconds = 0.6, 2.0", "event_seconds = 0, 2"),
    ("event_seconds = 0.6, 2.0", "event_seconds = 2.0, 0.6"),
    ("snr_db = 6.0, 20.0", "snr_db = 20, 6"),
    ("clip_seconds = 6.0", "clip_seconds = inf"),
    ("eval_clips = 2", "eval_clips = 0"),
    ("[model logmel_32]", "[model logmel_16]"),
    # the method fixes AdaDelta's step, so [train] has no optimizer keys
    ("batch_size = 4", "lr = 0.5"),
    ("batch_size = 4", "rho = 0.9"),
    ("batch_size = 4", "epsilon = 1e-8"),
    ("cnn_kernel_dim = 3", "cnn_kernel_dim = 0"),
    ("pool_dims = 2, 2", "pool_dims = 0, 2"),
    ("cnn_kernels = 4, 4", "cnn_kernels = 0, 4"),
    ("n_primary_caps = 3", "n_primary_caps = 0"),
    ("primary_cap_dim = 4", "primary_cap_dim = 0"),
    ("output_cap_dim = 4", "output_cap_dim = 0"),
    ("l2_weight = 1e-4", "l2_weight = -5"),
    ("seed = 77", "overlap_fraction = 7"),
    ("val_fraction = 0.34", "val_fraction = -0.5"),
    ("classes = low_tone:tone:300-600, mid_chirp:chirp:900-1800, high_hiss:noise:2500-5000",
     "classes = low_tone:tone:9000-12000, mid_chirp:chirp:900-1800"),
    ("events_per_clip = 2, 4", "events_per_clip = -3, -1"),
    ("tfrs = logmel_16, logmel_32", "tfrs = logmel_16, logmel_16"),
    ("[model logmel_32]", "[model stft_512]"),
    ("[model logmel_32]", "[model logmel_600]"),
])
def test_bad_config_value_exits_1_naming_its_line(tmp_path, capsys, line, bad):
    lines = TINY_CFG.splitlines()
    lineno = lines.index(line) + 1
    lines[lineno - 1] = bad
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("polysed: error: config:") and "\n" not in err
    assert f"bad.cfg:{lineno}:" in err


MODEL_REQUIRED = """\
cnn_kernels = 4, 4
cnn_kernel_dim = 3
pool_dims = 2, 2
n_primary_caps = 3
primary_cap_dim = 4
output_cap_dim = 4
routing_iters = 3
"""


def test_unset_keys_load_the_dataclass_defaults(tmp_path):
    path = tmp_path / "minimal.cfg"
    path.write_text("[dataset]\nclasses = a:tone:100-200, b:noise:300-400\n"
                    "\n[model logmel_32]\n" + MODEL_REQUIRED
                    + "\n[model logmel_16]\n" + MODEL_REQUIRED)
    cfg = load_config(path)
    synth = SynthSpec(classes=(ClassSpec("a", "tone", 100.0, 200.0),
                               ClassSpec("b", "noise", 300.0, 400.0)))
    assert cfg.dataset == DatasetConfig(synth=synth)
    assert cfg.seed == synth.seed
    assert cfg.train == TrainConfig()
    assert cfg.fusion == FusionConfig(tfrs=["logmel_32", "logmel_16"])
    geometry = dict(cnn_kernels=(4, 4), cnn_kernel_dim=3, pool_dims=(2, 2), n_primary_caps=3,
                    primary_cap_dim=4, output_cap_dim=4, routing_iters=3, n_events=2)
    assert cfg.models == {"logmel_32": CapsNetConfig(**geometry),
                          "logmel_16": CapsNetConfig(**geometry)}
