import json
import subprocess
import sys

import numpy as np
import pytest

from polysed import dataio
from polysed.capsnet import CapsNetConfig
from polysed.cli import main
from polysed.config import DatasetConfig, FusionConfig, TrainConfig, load_config
from polysed.dataio import ClassSpec, SynthSpec
from polysed.errors import ConfigError
from polysed.fusion import DEFAULT_BLOCK_LEN

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


@pytest.fixture(scope="module")
def ran_pipeline(workdir):
    cfg_path, out = workdir
    assert _run(cfg_path, out, "synth") == 0
    assert _run(cfg_path, out, "extract", "--tfr", "logmel_16") == 0
    assert _run(cfg_path, out, "extract", "--tfr", "logmel_32", "--jobs", "2") == 0
    assert _run(cfg_path, out, "train", "--tfr", "logmel_16") == 0
    assert _run(cfg_path, out, "train", "--tfr", "logmel_32") == 0
    assert _run(cfg_path, out, "predict") == 0
    assert _run(cfg_path, out, "fuse-fit") == 0
    assert _run(cfg_path, out, "fuse-apply") == 0
    assert _run(cfg_path, out, "eval") == 0
    return cfg_path, out


def test_end_to_end_prints_three_ers(ran_pipeline, capsys):
    cfg_path, out = ran_pipeline
    assert _run(cfg_path, out, "eval") == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("eval:")]
    assert len(lines) == 3  # two single-feature systems plus the fused one
    results = json.loads((out / "eval" / "results.json").read_text())
    assert [s["kind"] for s in results["systems"]] == ["single", "single", "fused"]


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
    pred = out / "pred" / "fused" / "eval.pred"
    before = pred.read_bytes()
    scores, hop, labels = dataio.read_predictions(pred)
    dataio.write_predictions(scores, 2 * hop, labels, pred)
    try:
        assert _run(cfg_path, out, "eval") == 2
        assert "frame hop" in capsys.readouterr().err
    finally:
        pred.write_bytes(before)


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


def test_train_lock_blocks_second_job(ran_pipeline, capsys):
    cfg_path, out = ran_pipeline
    lock = out / "models" / "logmel_16.lock"
    lock.write_text("")
    try:
        assert _run(cfg_path, out, "train", "--tfr", "logmel_16") == 2
    finally:
        lock.unlink()


def test_unknown_tfr_exits_1(ran_pipeline):
    cfg_path, out = ran_pipeline
    assert _run(cfg_path, out, "extract", "--tfr", "logmel_999") == 1


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "polysed", "synth", "--config",
                           "/nonexistent.cfg", "--out", "/tmp/nowhere"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "polysed: error: config:" in proc.stderr


def test_config_loads(workdir):
    cfg_path, _ = workdir
    cfg = load_config(cfg_path)
    assert cfg.vocabulary == ["low_tone", "mid_chirp", "high_hiss"]
    assert cfg.fusion.tfrs == ["logmel_16", "logmel_32"]
    assert cfg.train.precision == "f32"
    assert cfg.models["logmel_16"].n_events == 3


def test_config_rejects_unknown_fusion_tfr(tmp_path):
    text = TINY_CFG.replace("tfrs = logmel_16, logmel_32", "tfrs = logmel_64")
    path = tmp_path / "bad_fusion.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match="logmel_64"):
        load_config(path)


@pytest.mark.parametrize("line,bad", [
    ("block_len = 256", "block_len = 0"),
    ("batch_size = 4", "batch_size = 0"),
    ("epochs = 2", "epochs = 0"),
    ("patience = 20", "patience = 0"),
    ("precision = f32", "precision = f16"),
    ("classes = low_tone:tone:300-600, mid_chirp:chirp:900-1800, high_hiss:noise:2500-5000",
     "classes = a:bogus:100-200"),
    ("polyphony = 2", "polyphony = 0"),
    ("events_per_clip = 2, 4", "events_per_clip = 4, 2"),
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
    assert cfg.fusion.block_len == DEFAULT_BLOCK_LEN
    geometry = dict(cnn_kernels=(4, 4), cnn_kernel_dim=3, pool_dims=(2, 2), n_primary_caps=3,
                    primary_cap_dim=4, output_cap_dim=4, routing_iters=3, n_events=2)
    assert cfg.models == {"logmel_32": CapsNetConfig(**geometry),
                          "logmel_16": CapsNetConfig(**geometry)}
