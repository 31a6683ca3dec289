import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from polysed.capsnet import CapsNetConfig, CapsNetModel, home_config
from polysed.cli import main
from polysed.dataio import (Annotation, ClassSpec, SynthSpec, annotation_to_roll,
                            generate_clip, read_annotations, read_checkpoint,
                            read_fusion_params, read_predictions, read_tfr, read_wav,
                            synthesize_dataset, write_annotations,
                            write_checkpoint, write_fusion_params, write_predictions,
                            write_file, write_tfr, write_wav)
from polysed.dsp import AudioClip, Tfr, extract, logmel_config
from polysed.errors import DataError
from polysed.fusion import FusionParams
from polysed.rng import stream
from polysed.tensor import Tensor

THREE_CLASSES = (
    ClassSpec("low_tone", "tone", 300.0, 600.0),
    ClassSpec("mid_chirp", "chirp", 900.0, 1800.0),
    ClassSpec("high_hiss", "noise", 2500.0, 5000.0),
)


# -- WAV ------------------------------------------------------------------------

def test_wav_roundtrip_quantization_bound(tmp_path):
    rng = np.random.default_rng(0)
    clip = AudioClip(rng.uniform(-1, 1, size=(2, 4000)))
    path = tmp_path / "x.wav"
    write_wav(clip, path)
    back = read_wav(path)
    assert back.channels == 2
    assert back.sample_rate == 16000
    assert np.max(np.abs(back.samples - clip.samples)) <= 1.0 / 32768.0


def test_wav_full_scale_sample(tmp_path):
    clip = AudioClip(np.array([[1.0, -1.0, 0.0]]))
    path = tmp_path / "fs.wav"
    write_wav(clip, path)
    back = read_wav(path)
    assert abs(back.samples[0, 0] - 1.0) <= 1.0 / 32768.0
    assert back.samples[0, 1] == -1.0


def test_wav_mono_roundtrip(tmp_path):
    clip = AudioClip(np.linspace(-0.5, 0.5, 1000)[None, :])
    write_wav(clip, tmp_path / "m.wav")
    assert read_wav(tmp_path / "m.wav").channels == 1


def test_wav_rejects_8bit(tmp_path):
    payload = bytes(100)
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 16000, 1, 8)
    header += b"data" + struct.pack("<I", len(payload))
    path = tmp_path / "8bit.wav"
    path.write_bytes(header + payload)
    with pytest.raises(DataError, match="16-bit"):
        read_wav(path)


def test_wav_rejects_wrong_rate(tmp_path):
    clip = AudioClip(np.zeros((1, 4410)), sample_rate=44100)
    path = tmp_path / "cd.wav"
    write_wav(clip, path)
    with pytest.raises(DataError, match="16000"):
        read_wav(path)


def test_wav_rejects_garbage(tmp_path):
    path = tmp_path / "none.wav"
    path.write_bytes(b"not a wave file at all")
    with pytest.raises(DataError, match="RIFF"):
        read_wav(path)


# -- annotations -------------------------------------------------------------------

def test_annotation_parse_line(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("1.000\t2.500\tspeech\n")
    ann = read_annotations(path)
    assert ann.events == [(1.0, 2.5, "speech")]


def test_annotation_empty_file_is_silence(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert read_annotations(path).events == []


def test_annotation_ordering_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2.0\t1.0\tx\n")
    with pytest.raises(DataError, match="onset"):
        read_annotations(path)


def test_annotation_unknown_label(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("0.5\t1.0\tsiren\n")
    with pytest.raises(DataError, match="siren"):
        read_annotations(path, vocabulary=["speech"])


def test_annotation_roundtrip_exact(tmp_path):
    ann = Annotation(events=[(0.123, 2.456, "b"), (0.001, 0.999, "a")])
    path = tmp_path / "rt.txt"
    write_annotations(ann, path)
    first = path.read_text()
    write_annotations(read_annotations(path), path)
    assert path.read_text() == first
    assert read_annotations(path).events == sorted(ann.events)


# -- event rolls ---------------------------------------------------------------------

def test_roll_basic_interval():
    ann = Annotation(events=[(0.0, 1.0, "a")])
    roll = annotation_to_roll(ann, hop=0.02, n_frames=100, vocabulary=["a"])
    assert roll.values[:50, 0].all()
    assert not roll.values[50:, 0].any()


def test_roll_short_event_on_boundary_inactive():
    # 2 ms event centered on a frame edge covers <50% of both frames
    ann = Annotation(events=[(0.019, 0.021, "a")])
    roll = annotation_to_roll(ann, hop=0.02, n_frames=10, vocabulary=["a"])
    assert not roll.values.any()


def test_roll_event_outside_clip_warns():
    ann = Annotation(events=[(5.0, 6.0, "a")])
    with pytest.warns(UserWarning, match="outside"):
        roll = annotation_to_roll(ann, hop=0.02, n_frames=100, vocabulary=["a"])
    assert not roll.values.any()


# -- synthetic corpus ------------------------------------------------------------------

def _spec(seed=0, **over):
    base = dict(classes=THREE_CLASSES, clip_seconds=4.0, polyphony=2,
                events_per_clip=(2, 4), seed=seed)
    base.update(over)
    return SynthSpec(**base)


def test_generate_clip_annotations_within_bounds():
    clip, ann = generate_clip(_spec(), stream(0, "c"))
    assert clip.channels == 2
    assert clip.n_samples == 4 * 16000
    assert len(ann.events) >= 2
    for onset, offset, label in ann.events:
        assert 0.0 <= onset < offset <= 4.0
        assert label in [c.label for c in THREE_CLASSES]


def test_generate_clip_respects_polyphony():
    _, ann = generate_clip(_spec(seed=5), stream(5, "c"))
    times = np.arange(0, 4.0, 0.001)
    active = np.zeros_like(times, dtype=int)
    for onset, offset, _ in ann.events:
        active += (times >= onset) & (times < offset)
    assert active.max() <= 2


def test_synthesize_dataset_deterministic(tmp_path):
    corpus_a = list(synthesize_dataset(_spec(seed=9), 3))
    corpus_b = list(synthesize_dataset(_spec(seed=9), 3))
    for (ida, clipa, anna), (idb, clipb, annb) in zip(corpus_a, corpus_b):
        assert ida == idb
        np.testing.assert_array_equal(clipa.samples, clipb.samples)
        assert anna.events == annb.events
    # byte-identical artifacts
    for suffix, (cid, clip, ann) in zip("ab", corpus_a[:2]):
        write_wav(clip, tmp_path / f"{suffix}.wav")
    w1 = (tmp_path / "a.wav").read_bytes()
    write_wav(corpus_b[0][1], tmp_path / "a2.wav")
    assert (tmp_path / "a2.wav").read_bytes() == w1


def test_synthesize_dataset_prefix_stability():
    three = synthesize_dataset(_spec(seed=2), 3)
    five = synthesize_dataset(_spec(seed=2), 5)
    for (ida, clipa, anna), (idb, clipb, annb) in zip(three, five):
        np.testing.assert_array_equal(clipa.samples, clipb.samples)
        assert anna.events == annb.events


def test_synthesize_event_counts_in_declared_range():
    for _, _, ann in synthesize_dataset(_spec(seed=3), 5):
        assert 2 <= len(ann.events) <= 4


def test_infeasible_spec_raises():
    spec = _spec(clip_seconds=2.5, polyphony=1, events_per_clip=(12, 12),
                 event_seconds=(1.0, 2.0))
    with pytest.raises(DataError, match="polyphony"):
        generate_clip(spec, stream(0, "c"))


# -- feature archive --------------------------------------------------------------------

def test_tfr_archive_bit_exact_roundtrip(tmp_path):
    clip, _ = generate_clip(_spec(), stream(1, "c"))
    tfr = extract(clip, logmel_config(40))
    p1 = tmp_path / "a.tfr"
    p2 = tmp_path / "b.tfr"
    write_tfr(tfr, p1)
    loaded = read_tfr(p1)
    write_tfr(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    np.testing.assert_array_equal(loaded.values, tfr.values.astype(np.float32))
    assert loaded.config.name == "logmel_40"
    assert loaded.config == tfr.config


def test_tfr_archive_rejects_other_files(tmp_path):
    path = tmp_path / "bad.tfr"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(DataError):
        read_tfr(path)


def _edit_header(path, edit):
    """Rewrite the JSON header of the container at `path` through `edit(header)`."""
    raw = path.read_bytes()
    (head_len,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16:16 + head_len])
    edit(header)
    head = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<Q", len(head)) + head + raw[16 + head_len:])


FRAMING_KEYS = ("hop_ms", "frame_ms", "log_floor")


@pytest.mark.parametrize("field,value", [(0, 10.0), (1, 25.0), (2, 1e-8)])
def test_tfr_archive_rejects_other_framing(tmp_path, field, value):
    """Hop ms, frame length ms and log floor are fixed by the method; an
    archive declaring other values is refused, not reinterpreted."""
    path = tmp_path / "other.tfr"
    write_tfr(extract(AudioClip(np.zeros((2, 4000))), logmel_config(8)), path)
    _edit_header(path, lambda header: header.update({FRAMING_KEYS[field]: value}))
    with pytest.raises(DataError) as exc:
        read_tfr(path)
    assert str(exc.value).startswith(f"{path}: framing")


# -- checkpoint ---------------------------------------------------------------------------

def test_checkpoint_bit_exact_roundtrip(tmp_path):
    model = CapsNetModel.build(home_config(3), freq_bins=240, channels=2, rng=stream(3))
    history = [{"epoch": 1, "train_loss": 0.7071067811865476, "val_er": 0.925}]
    p1 = tmp_path / "m.ckpt"
    p2 = tmp_path / "m2.ckpt"
    write_checkpoint(model, p1, history=history, provenance={"seed": 3, "tfr": "logmel_240"})
    loaded, header = read_checkpoint(p1)
    assert header["history"] == history
    assert loaded.config == model.config
    for name, p in model.parameters.items():
        np.testing.assert_array_equal(loaded.parameters[name].numpy(), p.numpy())
    write_checkpoint(loaded, p2, history=header["history"], provenance=header["provenance"])
    assert p1.read_bytes() == p2.read_bytes()


# -- prediction matrices and fusion parameters ----------------------------------------------

def test_prediction_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    scores = rng.uniform(size=(500, 3)).astype(np.float32)
    path = tmp_path / "p.pred"
    write_predictions(scores, 0.02, ["a", "b", "c"], path)
    back, hop, labels = read_predictions(path)
    np.testing.assert_array_equal(back, scores)
    assert hop == 0.02
    assert labels == ["a", "b", "c"]


def test_fusion_params_exact_decimal_roundtrip(tmp_path):
    params = FusionParams(weights=np.array([1.0 / 3.0, 97.12345678901234]),
                          biases=np.array([-0.05, 0.2]),
                          thresholds=np.array([0.35, 0.55, 0.75]))
    path = tmp_path / "f.json"
    write_fusion_params(params, path, grid_note="bias -0.2..0.2 step 0.05")
    back = read_fusion_params(path)
    np.testing.assert_array_equal(back.weights, params.weights)
    np.testing.assert_array_equal(back.biases, params.biases)
    np.testing.assert_array_equal(back.thresholds, params.thresholds)


def test_fusion_params_with_retired_block_len_key_still_read(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"weights": ["2.0"], "biases": ["0.05"], "thresholds": ["0.35"],
                                "block_len": 256, "grid": ""}))
    back = read_fusion_params(path)
    assert (back.weights.tolist(), back.biases.tolist(), back.thresholds.tolist()) == \
        ([2.0], [0.05], [0.35])


# -- missing and truncated artifacts --------------------------------------------------------

def _write_wav(path):
    write_wav(AudioClip(np.linspace(-0.5, 0.5, 800).reshape(2, 400)), path)
    return read_wav


def _write_tfr(path):
    write_tfr(extract(AudioClip(np.random.default_rng(0).uniform(-1, 1, (2, 4000))),
                      logmel_config(8)), path)
    return read_tfr


def _write_checkpoint(path):
    config = CapsNetConfig(cnn_kernels=(2,), cnn_kernel_dim=3, pool_dims=(2,),
                           n_primary_caps=2, primary_cap_dim=2, output_cap_dim=2,
                           routing_iters=1, n_events=2)
    write_checkpoint(CapsNetModel.build(config, freq_bins=8, channels=2, rng=stream(0)),
                     path, history=[{"epoch": 1}])
    return read_checkpoint


def _write_predictions(path):
    write_predictions(np.full((40, 2), 0.5, dtype=np.float32), 0.02, ["a", "b"], path)
    return read_predictions


def _write_fusion_params(path):
    write_fusion_params(FusionParams(weights=np.ones(2), biases=np.zeros(2),
                                     thresholds=np.full(2, 0.5)), path)
    return read_fusion_params


ARTIFACT_WRITERS = {"wav": _write_wav, "tfr": _write_tfr, "ckpt": _write_checkpoint,
                    "pred": _write_predictions, "json": _write_fusion_params}


@pytest.mark.parametrize("suffix", sorted(ARTIFACT_WRITERS))
def test_reader_rejects_missing_file(tmp_path, suffix):
    path = tmp_path / f"absent.{suffix}"
    reader = ARTIFACT_WRITERS[suffix](tmp_path / f"present.{suffix}")
    with pytest.raises(DataError, match=str(path)):
        reader(path)


@pytest.mark.parametrize("cut", ["empty", "magic", "header", "half", "last_bytes"])
@pytest.mark.parametrize("suffix", sorted(ARTIFACT_WRITERS))
def test_reader_rejects_truncated_file(tmp_path, suffix, cut):
    path = tmp_path / f"artifact.{suffix}"
    reader = ARTIFACT_WRITERS[suffix](path)
    raw = path.read_bytes()
    reader(path)  # the intact file reads
    keep = {"empty": 0, "magic": 3, "header": 10, "half": len(raw) // 2,
            "last_bytes": len(raw) - 2}[cut]
    path.write_bytes(raw[:keep])
    with pytest.raises(DataError, match=str(path)):
        reader(path)


@pytest.mark.parametrize("suffix", sorted(ARTIFACT_WRITERS))
def test_failed_replace_keeps_the_old_file(tmp_path, monkeypatch, suffix):
    path = tmp_path / f"artifact.{suffix}"
    path.write_bytes(b"old bytes")

    def fail(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(DataError, match=str(path)):
        ARTIFACT_WRITERS[suffix](path)
    assert path.read_bytes() == b"old bytes"
    assert list(tmp_path.iterdir()) == [path]


# -- corrupt container headers -------------------------------------------------------------

def _in_version_1_layout(path):
    """Rewrite the artifact at `path` as the version-1 file earlier releases wrote."""
    if path.suffix == ".tfr":
        values = read_tfr(path).values
        frames, bins, channels = values.shape
        head = struct.pack("<IBBIIIIddd", 1, 1, channels, bins, frames, 1024, bins,
                           20.0, 40.0, 1e-10)
        path.write_bytes(b"PSTF" + head + values.astype("<f4").tobytes())
    elif path.suffix == ".pred":
        scores, hop, labels = read_predictions(path)
        block = json.dumps(labels).encode("utf-8")
        path.write_bytes(b"PSPR" + struct.pack("<IIId", 1, *scores.shape, hop)
                         + struct.pack("<I", len(block)) + block + scores.astype("<f4").tobytes())
    else:  # a version-1 checkpoint begins like the container
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])


def _header_edit(edit):
    return lambda path: _edit_header(path, edit)


def _first_array(**entry):
    return _header_edit(lambda header: header["arrays"][0].update(entry))


def _tfr_value(value):
    """Rewrite the feature archive at `path` with one value set to `value`."""
    def corrupt(path):
        tfr = read_tfr(path)
        tfr.values[3, 2, 1] = value
        write_tfr(tfr, path)
    return corrupt


def _tfr_without_frames(path):
    """Rewrite the feature archive at `path` with no frames left."""
    tfr = read_tfr(path)
    write_tfr(Tfr(tfr.values[:0], tfr.config), path)


def _pred_score(value):
    """Rewrite the prediction file at `path` with one score set to `value`."""
    def corrupt(path):
        scores, hop, labels = read_predictions(path)
        scores[3, 1] = value
        write_predictions(scores, hop, labels, path)
    return corrupt


def _parameters_edit(edit):
    """Rewrite the checkpoint at `path` after `edit(model)`, a whole and
    well-formed container whose parameters no longer fit its header."""
    def corrupt(path):
        model, header = read_checkpoint(path)
        edit(model)
        write_checkpoint(model, path, history=header["history"])
    return corrupt


CORRUPT_HEADERS = {
    "tfr_name_not_a_string": ("tfr", _header_edit(lambda h: h.update(tfr=5))),
    "tfr_name_of_no_feature": ("tfr", _header_edit(lambda h: h.update(tfr="stft_1000"))),
    "tfr_bins_disagree_with_name": ("tfr", _header_edit(lambda h: h.update(tfr="logmel_9"))),
    "tfr_f8_values": ("tfr", _first_array(dtype="<f8")),
    "tfr_negative_shape": ("tfr", _first_array(shape=[-1, 8, 2])),
    "tfr_offset_past_end": ("tfr", _first_array(offset=1 << 40)),
    "tfr_version_1": ("tfr", _in_version_1_layout),
    "tfr_nan_value": ("tfr", _tfr_value(np.nan)),
    "tfr_inf_value": ("tfr", _tfr_value(-np.inf)),
    "tfr_no_frames": ("tfr", _tfr_without_frames),
    "ckpt_integer_parameter": ("ckpt", _first_array(dtype="<i8")),
    "ckpt_offset_past_end": ("ckpt", _first_array(offset=1 << 40)),
    "ckpt_version_1": ("ckpt", _in_version_1_layout),
    "ckpt_renamed_parameter": ("ckpt", _first_array(name="conv0_offset")),
    "ckpt_missing_parameter": ("ckpt", _parameters_edit(lambda m: m.parameters.pop("conv0_kernel"))),
    "ckpt_extra_parameter": ("ckpt", _parameters_edit(
        lambda m: m.parameters.update(conv1_kernel=Tensor(np.zeros((2, 2, 3, 3)))))),
    "ckpt_parameter_of_wrong_shape": ("ckpt", _parameters_edit(
        lambda m: m.parameters.update(primary_bias=Tensor(np.zeros(5))))),
    "ckpt_f8_parameters_under_f4_header": ("ckpt", _parameters_edit(
        lambda m: setattr(m, "dtype", np.dtype(np.float32)))),
    "ckpt_nan_parameter": ("ckpt", _parameters_edit(
        lambda m: m.parameters["conv0_kernel"].numpy().fill(np.nan))),
    "ckpt_inf_parameter": ("ckpt", _parameters_edit(
        lambda m: m.parameters["primary_bias"].numpy().fill(-np.inf))),
    "pred_f8_scores": ("pred", _first_array(dtype="<f8")),
    "pred_negative_shape": ("pred", _first_array(shape=[-40, 2])),
    "pred_labels_not_a_list": ("pred", _header_edit(lambda h: h.update(labels=5))),
    "pred_labels_not_strings": ("pred", _header_edit(lambda h: h.update(labels=["a", 3]))),
    "pred_version_1": ("pred", _in_version_1_layout),
    "pred_score_above_1": ("pred", _pred_score(2.0)),
    "pred_negative_score": ("pred", _pred_score(-0.25)),
}

# where a run directory keeps each artifact, and a command that reads it first
CLI_READS = {"tfr": ("tfr/logmel_8/train/c.tfr", ["train", "--tfr", "logmel_8"]),
             "ckpt": ("models/logmel_8.ckpt", ["predict", "--tfr", "logmel_8"]),
             "pred": ("pred/logmel_8/val.pred", ["fuse-fit"])}

RUN_CFG = """\
[dataset]
classes = a:tone:100-200, b:noise:300-400

[model logmel_8]
cnn_kernels = 2
cnn_kernel_dim = 3
pool_dims = 2
n_primary_caps = 2
primary_cap_dim = 2
output_cap_dim = 2
routing_iters = 1
"""


@pytest.mark.parametrize("case", sorted(CORRUPT_HEADERS))
def test_corrupt_container_header_exits_2_naming_the_file(tmp_path, capsys, case):
    suffix, corrupt = CORRUPT_HEADERS[case]
    rel, argv = CLI_READS[suffix]
    out = tmp_path / "out"
    path = out / rel
    reader = ARTIFACT_WRITERS[suffix](path)
    reader(path)  # the intact file reads
    corrupt(path)
    with pytest.raises(DataError, match=re.escape(str(path))):
        reader(path)
    write_file(out / "corpus" / "manifest.tsv", "c\ttrain\n")
    write_file(tmp_path / "exp.cfg", RUN_CFG)
    assert main([*argv, "--config", str(tmp_path / "exp.cfg"), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"polysed: error: data: {path}: ") and "\n" not in err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_predict_on_non_finite_features_exits_2(tmp_path, capsys, bad):
    """A NaN would pass every ReLU as 0 and score silently; the reader stops it."""
    out = tmp_path / "out"
    _write_checkpoint(out / CLI_READS["ckpt"][0])
    path = out / "tfr/logmel_8/val/c.tfr"
    _write_tfr(path)
    _tfr_value(bad)(path)
    write_file(out / "corpus" / "manifest.tsv", "c\tval\n")
    write_file(tmp_path / "exp.cfg", RUN_CFG)
    argv = ["predict", "--tfr", "logmel_8", "--config", str(tmp_path / "exp.cfg"), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert err == f"polysed: error: data: {path}: feature values are not all finite"


def test_write_file_creates_the_directory_and_replaces(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    write_file(path, "first\n")
    write_file(path, b"second\n")
    assert path.read_bytes() == b"second\n"
    assert list(path.parent.iterdir()) == [path]


def test_write_file_removes_temp_siblings_of_exited_writers(tmp_path):
    child = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                           capture_output=True, text=True, check=True)
    path = tmp_path / "out.txt"
    stale = tmp_path / f".out.txt.{int(child.stdout)}.tmp"
    live = tmp_path / f".out.txt.{os.getppid()}.tmp"        # a running process's write
    other = tmp_path / f".other.txt.{int(child.stdout)}.tmp"  # another artifact's temp file
    for sibling in (stale, live, other):
        sibling.write_bytes(b"half written")
    write_file(path, "data\n")
    assert sorted(tmp_path.iterdir()) == sorted([path, live, other])
