"""Acceptance gate.

Each test enforces one release criterion at its stated tolerance and prints
a single ``ACCEPTANCE n (...): PASS`` line when it holds (run with ``-s`` to
see the lines as they appear).  The final criterion runs the full
desk-scale experiment: a seeded synthetic corpus (3 classes, 60 training
and 20 evaluation clips of 10 s, polyphony 2), two detectors on logmel_64
and logmel_128, fusion fitting, and evaluation.
"""
import time

import numpy as np
import pytest

from helpers import finite_diff_grad, max_rel_err, segment_counts_oracle

from polysed import pipeline
from polysed import tensor as T
from polysed.capsnet import (CapsNetConfig, CapsNetModel, EarlyStopping, WindowExample,
                             detection_loss, dynamic_routing, home_config,
                             residential_config, squash, train)
from polysed.config import load_config
from polysed.dataio import (Annotation, read_annotations, read_checkpoint,
                            read_fusion_params, read_tfr, read_wav, write_annotations,
                            write_checkpoint, write_fusion_params, write_tfr, write_wav)
from polysed.dsp import AudioClip, extract, logmel_config, stft_config
from polysed.fusion import FusionParams, PredictionSet, fuse
from polysed.metrics import EventRoll, error_rate, frames_per_segment, segment_counts
from polysed.rng import stream
from polysed.tensor import Tensor, gradients


def _passed(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def _mini_config(routing_iters):
    return CapsNetConfig(cnn_kernels=(2, 2), cnn_kernel_dim=3, pool_dims=(2, 2),
                         n_primary_caps=2, primary_cap_dim=3, output_cap_dim=2,
                         routing_iters=routing_iters, n_events=2,
                         dropout_rate=0.0, l2_weight=1e-3)


def _mini_loss(cfg, params, window, target):
    x = Tensor(np.asarray(window, dtype=np.float64).transpose(2, 0, 1))
    probe = CapsNetModel(cfg, window.shape[1], window.shape[2], params)
    x = probe._conv_stack(x, False, None)
    t_frames = window.shape[0]
    feat = T.reshape(T.transpose(x, (1, 0, 2)), (t_frames, -1))
    u = T.add(T.matmul(feat, params["primary_weight"]), params["primary_bias"])
    u = squash(T.reshape(u, (t_frames, cfg.n_primary_caps, cfg.primary_cap_dim)))
    u_hat = T.matmul(T.reshape(u, (t_frames, cfg.n_primary_caps, 1, 1, cfg.primary_cap_dim)),
                     params["routing_weight"])
    u_hat = T.reshape(u_hat, (t_frames, cfg.n_primary_caps, cfg.n_events, cfg.output_cap_dim))
    pred = T.norm(dynamic_routing(u_hat, cfg.routing_iters), axis=-1)
    return detection_loss(pred, target, params=params, l2_weight=cfg.l2_weight)


def test_criterion_1_gradient_correctness():
    """Full miniature model, routing iters 3 and 4, >=5 seeds, <1e-4, <1min."""
    start = time.monotonic()
    for routing_iters in (3, 4):
        cfg = _mini_config(routing_iters)
        for seed in range(5):
            model = CapsNetModel.build(cfg, freq_bins=8, channels=2,
                                       rng=stream(1000 * routing_iters + seed))
            data_rng = np.random.default_rng(seed)
            window = data_rng.normal(size=(4, 8, 2)) * 0.5
            target = data_rng.integers(0, 2, size=(4, 2)).astype(float)
            base = {k: p.numpy().copy() for k, p in model.parameters.items()}
            params = {k: Tensor(v, requires_grad=True) for k, v in base.items()}
            analytic = gradients(_mini_loss(cfg, params, window, target), params)
            for name in base:
                def f(x, name=name):
                    probe = {k: Tensor(x if k == name else v, requires_grad=True)
                             for k, v in base.items()}
                    return _mini_loss(cfg, probe, window, target).item()

                numeric = finite_diff_grad(f, base[name].copy())
                err = max_rel_err(analytic[name], numeric)
                assert err < 1e-4, f"iters={routing_iters} seed={seed} {name}: {err}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    _passed(1, "gradient correctness")


def test_criterion_2_routing_and_squash_invariants():
    """Couplings sum to 1 (1e-12) per iteration; norms in [0,1); direction kept."""
    rng = np.random.default_rng(22)
    for _ in range(1000):
        n_in = int(rng.integers(2, 7))
        n_out = int(rng.integers(1, 5))
        dim = int(rng.integers(2, 6))
        iters = int(rng.choice([3, 4]))
        u_hat = Tensor(rng.normal(size=(n_in, n_out, dim)) * rng.uniform(0.2, 3.0))
        v, couplings = dynamic_routing(u_hat, iters, return_couplings=True)
        assert len(couplings) == iters
        for c in couplings:
            np.testing.assert_allclose(c.sum(axis=-1), np.ones(n_in), atol=1e-12)
        norms = np.linalg.norm(v.numpy(), axis=-1)
        assert np.all(norms >= 0.0) and np.all(norms < 1.0)

        vec = rng.normal(size=dim) * rng.uniform(0.05, 8.0)
        out = squash(Tensor(vec)).numpy()
        cos = np.dot(out, vec) / (np.linalg.norm(out) * np.linalg.norm(vec))
        assert abs(cos - 1.0) <= 1e-12
        assert np.linalg.norm(out) < 1.0
    _passed(2, "routing/squash invariants")


def test_criterion_3_metric_oracle_equivalence():
    """Vectorized counts equal brute-force enumeration on 1000 seeded rolls."""
    rng = np.random.default_rng(33)
    for _ in range(1000):
        t = int(rng.integers(1, 501))
        n = int(rng.integers(1, 6))
        hop = float(rng.choice([0.02, 0.04, 0.1, 0.5, 1.0]))
        ref = (rng.uniform(size=(t, n)) < rng.uniform(0.05, 0.6)).astype(int)
        pred = (rng.uniform(size=(t, n)) < rng.uniform(0.05, 0.6)).astype(int)
        labels = [f"e{i}" for i in range(n)]
        counts = segment_counts(EventRoll(ref, hop, labels), EventRoll(pred, hop, labels))
        s, d, i, nn = segment_counts_oracle(ref, pred, frames_per_segment(hop))
        assert list(counts.s) == s and list(counts.d) == d
        assert list(counts.i) == i and list(counts.n) == nn

    # hand-checked cases: substitution-only and spurious-heavy
    ref = EventRoll(np.array([[1, 1, 0]]), 1.0, ["a", "b", "c"])
    pred = EventRoll(np.array([[1, 0, 1]]), 1.0, ["a", "b", "c"])
    assert error_rate(segment_counts(ref, pred)) == 0.5
    ref = EventRoll(np.array([[1, 0, 0, 0]]), 1.0, list("abcd"))
    pred = EventRoll(np.array([[0, 1, 1, 1]]), 1.0, list("abcd"))
    assert error_rate(segment_counts(ref, pred)) == 3.0
    _passed(3, "metric oracle equivalence")


def test_criterion_4_fusion_algebra():
    """Identity, scale invariance, bounds, and the worked example at 1e-12."""
    rng = np.random.default_rng(44)

    # worked example
    truth1 = np.zeros((1, 1), dtype=int)
    pset = PredictionSet(predictions=[np.array([[0.9]]), np.array([[0.5]])],
                         truth=truth1, hop=1.0)
    fused = fuse(pset, FusionParams(np.array([2.0, 1.0]), np.array([0.1, 0.2]),
                                    np.array([0.5])))
    assert abs(fused[0, 0] - (2 * 0.8 + 1 * 0.3) / 3.0) <= 1e-12

    for _ in range(10_000):
        m = int(rng.integers(1, 4))
        t, n = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        preds = [rng.uniform(size=(t, n)) for _ in range(m)]
        truth = (rng.uniform(size=(t, n)) < 0.5).astype(int)
        w = rng.uniform(0.1, 10.0, size=m)
        b = rng.uniform(-0.2, 0.2, size=m)
        eta = rng.uniform(0.0, 1.0, size=n)
        pset = PredictionSet(predictions=list(preds), truth=truth, hop=1.0)
        params = FusionParams(w, b, eta)
        fused = fuse(pset, params)

        # reference evaluation of the aggregation rule, then the clamp
        corrected = np.stack([p - bi for p, bi in zip(preds, b)])
        expected = np.average(corrected, axis=0, weights=w)
        np.testing.assert_allclose(fused, np.clip(expected, 0.0, 1.0), atol=1e-12)

        # weighted-mean bounds before clamping
        assert np.all(expected >= corrected.min(axis=0) - 1e-12)
        assert np.all(expected <= corrected.max(axis=0) + 1e-12)

        # weight-scale invariance
        c = float(rng.uniform(0.01, 100.0))
        scaled = fuse(pset, FusionParams(w * c, b, eta))
        np.testing.assert_allclose(fused, scaled, atol=1e-12)

        if m == 1 and b[0] == 0.0:
            np.testing.assert_array_equal(fused, preds[0])

    # explicit m=1 identity (bias zero)
    p = rng.uniform(size=(64, 3))
    pset = PredictionSet(predictions=[p], truth=np.zeros((64, 3), dtype=int), hop=1.0)
    fused = fuse(pset, FusionParams(np.array([5.0]), np.array([0.0]), np.full(3, 0.5)))
    np.testing.assert_array_equal(fused, p)
    _passed(4, "fusion aggregation algebra")


def test_criterion_5_shape_conformance():
    """Published geometry: F bins per feature scale and (256, N) model output."""
    rng = np.random.default_rng(55)
    clip = AudioClip(rng.uniform(-0.8, 0.8, size=(2, 16000)))
    for n_fft, bins in ((1024, 513), (2048, 1025)):
        tfr = extract(clip, stft_config(n_fft))
        assert tfr.values.shape[1] == bins == 1 + n_fft // 2
        assert tfr.values.shape[2] == 2
    for n in (40, 64, 128, 256, 512):
        tfr = extract(clip, logmel_config(n))
        assert tfr.values.shape[1] == n

    home = CapsNetModel.build(home_config(3), freq_bins=240, channels=2, rng=stream(0))
    act = home.predict(rng.normal(size=(256, 240, 2)))
    assert act.values.shape == (256, 3)
    res = CapsNetModel.build(residential_config(4), freq_bins=64, channels=2, rng=stream(1))
    act = res.predict(rng.normal(size=(256, 64, 2)))
    assert act.values.shape == (256, 4)
    _passed(5, "shape conformance")


def test_criterion_7_training_loop_contract():
    """Early stop exactly at 20 stale epochs; seeded reruns are bit-identical."""
    stopper = EarlyStopping(patience=20)
    stop_epoch = None
    for epoch, er in enumerate([0.9, 0.8] + [0.8] * 30, start=1):
        if stopper.update(epoch, er):
            stop_epoch = epoch
            break
    assert stop_epoch == 22
    assert stopper.best_epoch == 2

    def toy_windows(seed, count):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            target = np.zeros((256, 2), dtype=int)
            values = rng.normal(0, 0.05, size=(256, 8, 2))
            for e in range(2):
                start = int(rng.integers(0, 200))
                target[start:start + 40, e] = 1
                values[target[:, e] == 1, e * 4:(e + 1) * 4, :] += 1.0
            out.append(WindowExample(values=values, target=target))
        return out

    windows = toy_windows(5, 6)
    cfg = CapsNetConfig(cnn_kernels=(2,), cnn_kernel_dim=3, pool_dims=(2,),
                        n_primary_caps=2, primary_cap_dim=3, output_cap_dim=2,
                        routing_iters=3, n_events=2, dropout_rate=0.2, l2_weight=1e-4)

    def run():
        model = CapsNetModel.build(cfg, 8, 2, stream(99))
        return train(model, windows[:4], windows[4:], hop_seconds=0.02,
                     epochs=3, patience=20, batch_size=2, seed=123)

    first, second = run(), run()
    assert first.history == second.history
    for name in first.parameters:
        assert np.array_equal(first.parameters[name].numpy(),
                              second.parameters[name].numpy())
    _passed(7, "training-loop contract")


def test_criterion_8_format_roundtrips(tmp_path):
    """WAV <=1/32768; annotations exact; archive and checkpoint bit-exact;
    fusion parameters exact decimals."""
    rng = np.random.default_rng(88)

    clip = AudioClip(rng.uniform(-1, 1, size=(2, 8000)))
    write_wav(clip, tmp_path / "a.wav")
    back = read_wav(tmp_path / "a.wav")
    assert np.max(np.abs(back.samples - clip.samples)) <= 1.0 / 32768.0

    ann = Annotation(events=[(0.123, 1.5, "x"), (0.5, 2.0, "y")])
    write_annotations(ann, tmp_path / "a.txt")
    text1 = (tmp_path / "a.txt").read_text()
    write_annotations(read_annotations(tmp_path / "a.txt"), tmp_path / "a.txt")
    assert (tmp_path / "a.txt").read_text() == text1

    tfr = extract(clip, logmel_config(40))
    write_tfr(tfr, tmp_path / "a.tfr")
    write_tfr(read_tfr(tmp_path / "a.tfr"), tmp_path / "b.tfr")
    assert (tmp_path / "a.tfr").read_bytes() == (tmp_path / "b.tfr").read_bytes()

    model = CapsNetModel.build(residential_config(3), freq_bins=64, channels=2,
                               rng=stream(8), dtype=np.float64)
    write_checkpoint(model, tmp_path / "m.ckpt", history=[{"epoch": 1, "val_er": 1.0 / 3.0}])
    loaded, header = read_checkpoint(tmp_path / "m.ckpt")
    for name, p in model.parameters.items():
        assert np.array_equal(loaded.parameters[name].numpy(), p.numpy())
    assert header["history"][0]["val_er"] == 1.0 / 3.0
    write_checkpoint(loaded, tmp_path / "m2.ckpt", history=header["history"],
                     provenance=header["provenance"])
    assert (tmp_path / "m.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()

    params = FusionParams(np.array([1.0 / 3.0, 2.0 / 7.0]), np.array([-0.05, 0.1]),
                          np.array([0.513731, 0.25, 0.75]))
    write_fusion_params(params, tmp_path / "f.json")
    back_p = read_fusion_params(tmp_path / "f.json")
    assert np.array_equal(back_p.weights, params.weights)
    assert np.array_equal(back_p.biases, params.biases)
    assert np.array_equal(back_p.thresholds, params.thresholds)
    _passed(8, "format round-trips")


# ---------------------------------------------------------------------------
# Criterion 6: desk-scale experiment (runs last; a few minutes of training)
# ---------------------------------------------------------------------------

DESK_CFG = """\
[dataset]
classes = low_tone:tone:300-600, mid_chirp:chirp:900-1800, high_hiss:noise:2500-5000
clip_seconds = 10.0
train_clips = 60
eval_clips = 20
val_fraction = 0.2
polyphony = 2
events_per_clip = 3, 6
event_seconds = 0.6, 2.0
snr_db = 6, 20
seed = 2026

[model logmel_64]
cnn_kernels = 8, 8
cnn_kernel_dim = 3
pool_dims = 4, 4
n_primary_caps = 4
primary_cap_dim = 4
output_cap_dim = 4
routing_iters = 3
dropout_rate = 0.1
l2_weight = 1e-4

[model logmel_128]
cnn_kernels = 8, 8
cnn_kernel_dim = 3
pool_dims = 4, 4
n_primary_caps = 4
primary_cap_dim = 4
output_cap_dim = 4
routing_iters = 3
dropout_rate = 0.1
l2_weight = 1e-4

[train]
epochs = 12
patience = 12
batch_size = 8
precision = f32

[fusion]
tfrs = logmel_64, logmel_128
block_len = 256
"""


@pytest.fixture(scope="module")
def desk_experiment(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    cfg_path = root / "desk.cfg"
    cfg_path.write_text(DESK_CFG)
    cfg = load_config(cfg_path)
    out = root / "out"
    start = time.monotonic()
    pipeline.run_synth(cfg, out)
    for tfr in cfg.fusion.tfrs:
        pipeline.run_extract(cfg, tfr, out, jobs=2)
        pipeline.run_train(cfg, tfr, out)
        pipeline.run_predict(cfg, tfr, out)
    fit = pipeline.run_fuse_fit(cfg, out)
    pipeline.run_fuse_apply(cfg, out)
    results = pipeline.run_eval(cfg, out)
    elapsed = time.monotonic() - start
    return cfg, out, fit, results, elapsed


def test_criterion_6_desk_scale_fusion_benefit(desk_experiment):
    """Both detectors reach eval ER <= 0.6; the fused system's fitting-split
    ER does not exceed the better individual's; fused eval ER is reported."""
    cfg, out, fit, results, elapsed = desk_experiment
    assert elapsed < 30 * 60, f"experiment took {elapsed / 60:.1f} min"

    singles = {s["name"]: s["er"] for s in results["systems"] if s["kind"] == "single"}
    assert set(singles) == {"logmel_64", "logmel_128"}
    for name, er in singles.items():
        assert er <= 0.6, f"{name} evaluation ER {er}"

    fused_fit = fit["fused"]["er"]
    best_single_fit = min(fit["single"].values())
    assert fused_fit <= best_single_fit + 1e-12, (
        f"fused fitting-split ER {fused_fit} exceeds best single {best_single_fit}")

    fused_eval = [s for s in results["systems"] if s["kind"] == "fused"]
    assert len(fused_eval) == 1
    print(f"desk-scale ERs: singles={ {k: round(v, 4) for k, v in singles.items()} } "
          f"fused_eval={fused_eval[0]['er']:.4f} "
          f"fit: singles={ {k: round(v, 4) for k, v in fit['single'].items()} } "
          f"fused={fused_fit:.4f} ({elapsed / 60:.1f} min)")
    _passed(6, "desk-scale fusion benefit")
