import struct

import numpy as np
import pytest

from polysed.capsnet import CapsNetModel, home_config
from polysed.dataio import (Annotation, ClassSpec, SynthSpec, annotation_to_roll,
                            generate_clip, read_annotations, read_checkpoint,
                            read_fusion_params, read_predictions, read_tfr, read_wav,
                            synthesize_dataset, write_annotations,
                            write_checkpoint, write_fusion_params, write_predictions,
                            write_tfr, write_wav)
from polysed.dsp import AudioClip, extract, logmel_config
from polysed.errors import DataError
from polysed.fusion import FusionParams
from polysed.rng import SeededRng

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
    clip, ann = generate_clip(_spec(), SeededRng(0).child("c"))
    assert clip.channels == 2
    assert clip.n_samples == 4 * 16000
    assert len(ann.events) >= 2
    for onset, offset, label in ann.events:
        assert 0.0 <= onset < offset <= 4.0
        assert label in [c.label for c in THREE_CLASSES]


def test_generate_clip_respects_polyphony():
    _, ann = generate_clip(_spec(seed=5), SeededRng(5).child("c"))
    times = np.arange(0, 4.0, 0.001)
    active = np.zeros_like(times, dtype=int)
    for onset, offset, _ in ann.events:
        active += (times >= onset) & (times < offset)
    assert active.max() <= 2


def test_synthesize_dataset_deterministic(tmp_path):
    corpus_a = synthesize_dataset(_spec(seed=9), 3)
    corpus_b = synthesize_dataset(_spec(seed=9), 3)
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
        generate_clip(spec, SeededRng(0).child("c"))


# -- feature archive --------------------------------------------------------------------

def test_tfr_archive_bit_exact_roundtrip(tmp_path):
    clip, _ = generate_clip(_spec(), SeededRng(1).child("c"))
    tfr = extract(clip, logmel_config(40))
    p1 = tmp_path / "a.tfr"
    p2 = tmp_path / "b.tfr"
    write_tfr(tfr, p1)
    loaded = read_tfr(p1)
    write_tfr(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    np.testing.assert_array_equal(loaded.values, tfr.values.astype(np.float32))
    assert loaded.config.name == "logmel_40"
    assert loaded.config.hop_ms == tfr.config.hop_ms


def test_tfr_archive_rejects_other_files(tmp_path):
    path = tmp_path / "bad.tfr"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(DataError):
        read_tfr(path)


# -- checkpoint ---------------------------------------------------------------------------

def test_checkpoint_bit_exact_roundtrip(tmp_path):
    model = CapsNetModel.build(home_config(3), freq_bins=240, channels=2, rng=SeededRng(3))
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
                          thresholds=np.array([0.35, 0.55, 0.75]),
                          block_len=256)
    path = tmp_path / "f.json"
    write_fusion_params(params, path, grid_note="bias -0.2..0.2 step 0.05")
    back = read_fusion_params(path)
    np.testing.assert_array_equal(back.weights, params.weights)
    np.testing.assert_array_equal(back.biases, params.biases)
    np.testing.assert_array_equal(back.thresholds, params.thresholds)
    assert back.block_len == 256
