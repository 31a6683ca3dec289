import numpy as np
import pytest

from helpers import finite_diff_grad, max_rel_err, routing_oracle, traced_memory

from polysed import capsnet
from polysed import tensor as T
from polysed.capsnet import (ActivityMatrix, CapsNetConfig, CapsNetModel, EarlyStopping,
                             WindowExample, _validation_error_rate, detection_loss,
                             dynamic_routing, home_config, residential_config, squash, train)
from polysed.errors import ConfigError, DataError, NumericError, ShapeError
from polysed.metrics import EventRoll, error_rate, segment_counts
from polysed.rng import stream
from polysed.tensor import Tensor, gradients


def tiny_config(**overrides):
    base = dict(cnn_kernels=(2, 2), cnn_kernel_dim=3, pool_dims=(2, 2),
                n_primary_caps=2, primary_cap_dim=3, output_cap_dim=2,
                routing_iters=3, n_events=2, dropout_rate=0.0, l2_weight=0.0)
    base.update(overrides)
    return CapsNetConfig(**base)


# -- squash ---------------------------------------------------------------------

def test_squash_zero_vector():
    out = squash(Tensor(np.zeros(4)))
    np.testing.assert_array_equal(out.numpy(), np.zeros(4))


def test_squash_unit_vector():
    out = squash(Tensor(np.array([1.0, 0.0])))
    np.testing.assert_allclose(out.numpy(), [0.5, 0.0], atol=1e-15)


def test_squash_three_four():
    out = squash(Tensor(np.array([3.0, 4.0])))
    np.testing.assert_allclose(out.numpy(), [15.0 / 26.0, 20.0 / 26.0], atol=1e-12)
    np.testing.assert_allclose(out.numpy(), [0.5769, 0.7692], atol=1e-4)


def test_squash_preserves_direction_and_bounds_norm():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=5) * rng.uniform(0.1, 10)
        out = squash(Tensor(v)).numpy()
        cos = np.dot(out, v) / (np.linalg.norm(out) * np.linalg.norm(v))
        assert abs(cos - 1.0) < 1e-12
        assert np.linalg.norm(out) < 1.0


# -- routing ---------------------------------------------------------------------

def test_routing_single_iteration_uniform_coupling():
    """With zero logits each input routes 1/n_out to every output capsule."""
    rng = np.random.default_rng(1)
    n_out = 3
    u_hat = rng.normal(size=(5, 4, n_out, 2))
    v = dynamic_routing(Tensor(u_hat), iters=1).numpy()
    expected = np.zeros((5, n_out, 2))
    for t in range(5):
        for j in range(n_out):
            expected[t, j] = squash(Tensor(u_hat[t, :, j, :].sum(axis=0) / n_out)).numpy()
    np.testing.assert_allclose(v, expected, atol=1e-12)


def test_routing_single_iteration_mean_when_square():
    """For n_in == n_out the uniform pass reduces to the mean over inputs."""
    rng = np.random.default_rng(41)
    u_hat = rng.normal(size=(5, 3, 3, 2))
    v = dynamic_routing(Tensor(u_hat), iters=1).numpy()
    for t in range(5):
        for j in range(3):
            np.testing.assert_allclose(
                v[t, j], squash(Tensor(u_hat[t, :, j, :].mean(axis=0))).numpy(), atol=1e-12)


def test_routing_couplings_sum_to_one():
    rng = np.random.default_rng(2)
    u_hat = Tensor(rng.normal(size=(4, 6, 3, 2)))
    _, couplings = dynamic_routing(u_hat, iters=4, return_couplings=True)
    assert len(couplings) == 4
    for c in couplings:
        np.testing.assert_allclose(c.sum(axis=-1), np.ones((4, 6)), atol=1e-12)


def test_routing_degenerate_single_pair():
    rng = np.random.default_rng(3)
    u = rng.normal(size=3)
    u_hat = Tensor(u.reshape(1, 1, 3))
    for iters in (1, 2, 5):
        v = dynamic_routing(u_hat, iters=iters).numpy()
        assert v.shape == (1, 3)
        np.testing.assert_allclose(v[0], squash(Tensor(u)).numpy(), atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("iters", [1, 2, 3, 4])
def test_routing_is_bit_identical_to_the_oracle(iters, dtype):
    """Dropping the last, unread logit update changes no bit of the output
    capsules, the couplings or the gradient."""
    u0 = (np.random.default_rng(60 + iters).normal(size=(64, 4, 3, 5)) * 0.7).astype(dtype)
    got = []
    for route in (lambda u: dynamic_routing(u, iters, return_couplings=True),
                  lambda u: routing_oracle(u, iters)):
        u = Tensor(u0, requires_grad=True)
        v, couplings = route(u)
        grad = gradients(T.tsum(T.norm(v, axis=-1)), {"u": u})["u"]
        got.append([a.tobytes() for a in (v.numpy(), *couplings, grad)])
    assert got[0] == got[1]


@pytest.mark.parametrize("iters", [1, 2, 3, 4])
def test_routing_makes_one_agreement_product_per_logit_update(monkeypatch, iters):
    """r iterations make r weighted sums c * u_hat and r - 1 agreements
    u_hat * v: the logits after the last output would feed nothing."""
    u_hat = Tensor(np.random.default_rng(8).normal(size=(6, 4, 3, 2)))
    mul, operands = T.mul, []

    def recording(a, b):
        operands.append({np.shape(a), np.shape(b)})
        return mul(a, b)

    monkeypatch.setattr(T, "mul", recording)
    dynamic_routing(u_hat, iters)
    assert operands.count({(6, 4, 3, 2), (6, 4, 3, 1)}) == iters
    assert operands.count({(6, 4, 3, 2), (6, 1, 3, 2)}) == iters - 1


def test_routing_requires_iterations():
    with pytest.raises(ConfigError):
        dynamic_routing(Tensor(np.zeros((2, 2, 2))), iters=0)


# -- model shapes ------------------------------------------------------------------

def test_home_config_output_shape():
    model = CapsNetModel.build(home_config(3), freq_bins=240, channels=2, rng=stream(0))
    win = np.random.default_rng(0).normal(size=(256, 240, 2))
    act = model.predict(win)
    assert act.values.shape == (256, 3)


def test_residential_config_output_shape():
    model = CapsNetModel.build(residential_config(5), freq_bins=64, channels=2, rng=stream(0))
    win = np.random.default_rng(1).normal(size=(256, 64, 2))
    act = model.predict(win)
    assert act.values.shape == (256, 5)


def test_train_forward_keeps_conv_inputs_not_columns():
    """The tape of one train-mode home_config window holds each conv's input
    and kernels, not its (C_in*kh*kw, oh*ow) im2col columns, which would
    add about 90 MB."""
    model = CapsNetModel.build(home_config(3), freq_bins=96, channels=2, rng=stream(0))
    rng = np.random.default_rng(5)
    win = rng.normal(size=(256, 96, 2))
    target = (rng.uniform(size=(256, 3)) < 0.3).astype(np.uint8)
    loss, kept, _ = traced_memory(lambda: detection_loss(
        model.forward(win, train_mode=True, rng=stream(1)), target, mask=np.ones(256)))
    assert np.isfinite(loss.item())
    assert kept < 40e6


def test_train_step_tape_keeps_only_what_backward_reads():
    """An 8-window home_config step (96 bins, f64): after forward and loss
    the tape keeps the arrays its backward rules read (conv inputs, one-byte
    dropout masks, pooling positions, capsule-head operands), not every op
    result, and backward frees each rule's arrays as it passes it while it
    adds the gradients.  Keeping every op result held about 200 MB after
    the loss and peaked near 260 MB; f64 dropout masks and a tape held
    through backward kept 60 MB and peaked at 90 MB."""
    model = CapsNetModel.build(home_config(3), freq_bins=96, channels=2, rng=stream(0))
    rng = np.random.default_rng(8)
    windows = rng.normal(size=(8, 256, 96, 2))
    target = (rng.uniform(size=(8, 256, 3)) < 0.3).astype(np.uint8)

    def loss():
        return detection_loss(model.forward(windows, train_mode=True, rng=stream(1)), target,
                              mask=np.ones((8, 256)), params=model.parameters,
                              l2_weight=model.config.l2_weight)

    _, kept, _ = traced_memory(loss)
    # the caller holds the loss through backward, as train() does
    grads, _, peak = traced_memory(lambda: gradients(loss(), model.parameters))
    assert all(np.isfinite(g).all() for g in grads.values())
    assert kept < 55e6
    assert peak < 75e6


# -- one head pass per stack of windows -------------------------------------------------

def _stack(seed, n, freq=8, n_events=2):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, 256, freq, 2))
    target = (rng.uniform(size=(n, 256, n_events)) < 0.3).astype(np.uint8)
    mask = np.ones((n, 256))
    mask[1, 200:] = 0.0
    return values, target, mask


def test_stack_forward_equals_per_window_forwards():
    """A stack scores each window as a forward of its own; and predict's
    bits do not depend on how the windows are stacked (1, 2 or 8 at a
    time), for the desk model at 64 and 128 bins (f32) and home_config at
    96 bins (f64), which predicting a whole split in stacks relies on."""
    model = CapsNetModel.build(tiny_config(), 8, 2, stream(50))
    values, _, _ = _stack(0, 3)
    stacked = model.forward(values).numpy()
    assert stacked.shape == (3, 256, 2)
    for w, act in zip(values, stacked):
        np.testing.assert_allclose(act, model.forward(w).numpy(), rtol=1e-12, atol=0)
    np.testing.assert_array_equal(model.predict(values).values, stacked)

    desk = CapsNetConfig(cnn_kernels=(8, 8), cnn_kernel_dim=3, pool_dims=(4, 4),
                         n_primary_caps=4, primary_cap_dim=4, output_cap_dim=4,
                         routing_iters=3, n_events=3)
    for cfg, freq, dtype in ((desk, 64, np.float32), (desk, 128, np.float32),
                             (home_config(3), 96, np.float64)):
        model = CapsNetModel.build(cfg, freq, 2, stream(55), dtype=dtype)
        windows = np.random.default_rng(freq).normal(size=(8, 256, freq, 2)).astype(np.float32)
        whole = model.predict(windows).values
        for n in (1, 2):
            parts = [model.predict(windows[i:i + n]).values for i in range(0, 8, n)]
            np.testing.assert_array_equal(np.concatenate(parts), whole)


def test_stack_loss_is_the_mean_of_window_losses():
    """The stack's loss and its gradients against today's per-window sum
    divided by the window count, with L2 on both sides."""
    model = CapsNetModel.build(tiny_config(), 8, 2, stream(51))
    values, target, mask = _stack(1, 3)
    params, l2 = model.parameters, 1e-3
    loss = detection_loss(model.forward(values), target, mask=mask, params=params, l2_weight=l2)
    terms = [detection_loss(model.forward(v), t, mask=m) for v, t, m in zip(values, target, mask)]
    total = T.add(T.div(T.add(T.add(terms[0], terms[1]), terms[2]), 3.0),
                  T.mul(capsnet._l2_term(params), l2))
    np.testing.assert_allclose(loss.item(), total.item(), rtol=1e-12)
    got, expected = gradients(loss, params), gradients(total, params)
    for name in params:
        np.testing.assert_allclose(got[name], expected[name], rtol=1e-10,
                                   atol=1e-10 * np.abs(expected[name]).max(), err_msg=name)


def test_stack_draws_the_dropout_masks_of_per_window_calls():
    model = CapsNetModel.build(tiny_config(dropout_rate=0.3), 8, 2, stream(52))
    values, _, _ = _stack(2, 3)
    rng_stack, rng_single = stream(9), stream(9)
    stacked = model.forward(values, train_mode=True, rng=rng_stack).numpy()
    singles = [model.forward(w, train_mode=True, rng=rng_single).numpy() for w in values]
    assert rng_stack.bit_generator.state == rng_single.bit_generator.state
    np.testing.assert_allclose(stacked, np.stack(singles), rtol=1e-12, atol=0)


def test_stack_loss_rejects_bad_masks():
    model = CapsNetModel.build(tiny_config(), 8, 2, stream(53))
    values, target, mask = _stack(3, 2)
    pred = model.forward(values)
    with pytest.raises(ShapeError, match="mask shape"):
        detection_loss(pred, target, mask=mask[0])
    mask[1] = 0.0
    with pytest.raises(DataError, match="every frame of a window"):
        detection_loss(pred, target, mask=mask)


def test_train_step_records_one_head_per_batch(monkeypatch):
    """One 8-window step of the desk model (two conv layers of 8 kernels,
    64 bins, f32) stays near 20 tape ops per window: conv blocks per
    window, one capsule head, one loss.  A head per window records ~566."""
    cfg = CapsNetConfig(cnn_kernels=(8, 8), cnn_kernel_dim=3, pool_dims=(4, 4),
                        n_primary_caps=4, primary_cap_dim=4, output_cap_dim=4,
                        routing_iters=3, n_events=3)
    model = CapsNetModel.build(cfg, 64, 2, stream(54), dtype=np.float32)
    windows = _toy_windows(4, 9, freq=64, n_events=3)
    taped = []

    def counting(loss, params):
        taped.append(sum(node._bwd is not None for node in T._topo_order(loss)))
        return gradients(loss, params)

    monkeypatch.setattr(capsnet, "gradients", counting)
    train(model, windows[:8], windows[8:], hop_seconds=0.02, epochs=1, patience=1,
          batch_size=8, seed=3)
    assert len(taped) == 1 and taped[0] <= 200


def test_build_rejects_indivisible_freq():
    with pytest.raises(ShapeError):
        CapsNetModel.build(home_config(3), freq_bins=64, channels=2, rng=stream(0))


def test_forward_rejects_wrong_geometry():
    model = CapsNetModel.build(tiny_config(), freq_bins=8, channels=2, rng=stream(0))
    with pytest.raises(ShapeError):
        model.forward(np.zeros((256, 12, 2)))


def test_outputs_in_unit_interval():
    model = CapsNetModel.build(tiny_config(), freq_bins=8, channels=2, rng=stream(4))
    win = np.random.default_rng(2).normal(size=(256, 8, 2)) * 3
    act = model.predict(win).values
    assert act.min() >= 0.0
    assert act.max() < 1.0


def test_zero_window_constant_rows():
    model = CapsNetModel.build(tiny_config(), freq_bins=8, channels=2, rng=stream(5))
    act = model.predict(np.zeros((256, 8, 2))).values
    assert np.allclose(act, act[0], atol=1e-12)


def test_detection_head_is_time_distributed():
    """Permuting the frame order of the head input permutes its output rows."""
    cfg = tiny_config()
    model = CapsNetModel.build(cfg, freq_bins=8, channels=2, rng=stream(6))
    rng = np.random.default_rng(3)
    u = rng.normal(size=(16, cfg.n_primary_caps, 1, 1, cfg.primary_cap_dim))

    def head(u_arr):
        u_hat = T.matmul(Tensor(u_arr), model.parameters["routing_weight"])
        u_hat = T.reshape(u_hat, (u_arr.shape[0], cfg.n_primary_caps, cfg.n_events,
                                  cfg.output_cap_dim))
        return T.norm(dynamic_routing(u_hat, cfg.routing_iters), axis=-1).numpy()

    base = head(u)
    perm = rng.permutation(16)
    np.testing.assert_allclose(head(u[perm]), base[perm], atol=1e-12)


# -- loss ---------------------------------------------------------------------------

def test_loss_perfect_prediction_near_zero():
    target = np.random.default_rng(0).integers(0, 2, size=(8, 3)).astype(float)
    pred = Tensor(target.copy())
    loss = detection_loss(pred, target)
    assert 0.0 <= loss.item() <= 2e-7


def test_loss_maximal_uncertainty_is_log_two():
    target = np.zeros((6, 2))
    pred = Tensor(np.full((6, 2), 0.5))
    np.testing.assert_allclose(detection_loss(pred, target).item(), np.log(2.0), atol=1e-12)


def test_loss_rejects_nonbinary_targets():
    with pytest.raises(DataError):
        detection_loss(Tensor(np.full((2, 2), 0.5)), np.full((2, 2), 0.3))


def test_loss_mask_excludes_padding():
    target = np.zeros((4, 1))
    pred_vals = np.array([[0.5], [0.5], [0.9], [0.9]])
    mask = np.array([1.0, 1.0, 0.0, 0.0])
    loss = detection_loss(Tensor(pred_vals), target, mask=mask)
    np.testing.assert_allclose(loss.item(), np.log(2.0), atol=1e-12)


def test_loss_gradcheck():
    rng = np.random.default_rng(7)
    target = rng.integers(0, 2, size=(5, 2)).astype(float)
    mask = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    x0 = rng.uniform(-2, 2, size=(5, 2))

    def build(p):
        return detection_loss(T.sigmoid(p), target, mask=mask)

    p = Tensor(x0, requires_grad=True)
    analytic = gradients(build(p), {"p": p})["p"]
    numeric = finite_diff_grad(lambda x: build(Tensor(x)).item(), x0.copy())
    assert max_rel_err(analytic, numeric) < 1e-4


# -- full-model gradient check -------------------------------------------------------

def _flatten_params(params):
    return {name: p.numpy().copy() for name, p in params.items()}


@pytest.mark.parametrize("routing_iters", [3, 4])
def test_full_model_gradcheck_miniature(routing_iters):
    """Analytic grads through conv, pooling, capsules, and routing match FD."""
    cfg = tiny_config(routing_iters=routing_iters)
    rng_model = stream(100 + routing_iters)
    model = CapsNetModel.build(cfg, freq_bins=8, channels=2, rng=rng_model)
    rng = np.random.default_rng(8)
    t_frames = 4
    window = rng.normal(size=(t_frames, 8, 2)) * 0.5
    target = rng.integers(0, 2, size=(t_frames, cfg.n_events)).astype(float)

    def loss_with(params_np):
        params = {k: Tensor(v, requires_grad=True) for k, v in params_np.items()}
        probe = CapsNetModel(cfg, 8, 2, params)
        x = Tensor(np.asarray(window, dtype=np.float64).transpose(2, 0, 1))
        x = probe._conv_stack(x, False, None)
        feat = T.reshape(T.transpose(x, (1, 0, 2)), (t_frames, -1))
        u = T.add(T.matmul(feat, params["primary_weight"]), params["primary_bias"])
        u = squash(T.reshape(u, (t_frames, cfg.n_primary_caps, cfg.primary_cap_dim)))
        u_hat = T.matmul(T.reshape(u, (t_frames, cfg.n_primary_caps, 1, 1, cfg.primary_cap_dim)),
                         params["routing_weight"])
        u_hat = T.reshape(u_hat, (t_frames, cfg.n_primary_caps, cfg.n_events, cfg.output_cap_dim))
        pred = T.norm(dynamic_routing(u_hat, cfg.routing_iters), axis=-1)
        return detection_loss(pred, target, params=params, l2_weight=1e-3), params

    base = _flatten_params(model.parameters)
    loss, params = loss_with(base)
    analytic = gradients(loss, params)
    for name in base:
        def f(x, name=name):
            probe = {k: (x if k == name else v) for k, v in base.items()}
            return loss_with(probe)[0].item()

        numeric = finite_diff_grad(f, base[name].copy())
        err = max_rel_err(analytic[name], numeric)
        assert err < 1e-4, f"{name}: rel err {err}"


# -- early stopping -------------------------------------------------------------------

def test_early_stopping_scripted_history():
    stopper = EarlyStopping(patience=20)
    ers = [0.9, 0.8] + [0.8] * 20
    stopped_at = None
    for epoch, er in enumerate(ers, start=1):
        if stopper.update(epoch, er):
            stopped_at = epoch
            break
    assert stopped_at == 22
    assert stopper.best_epoch == 2


def test_early_stopping_requires_strict_improvement():
    stopper = EarlyStopping(patience=2)
    assert not stopper.update(1, 0.5)
    assert not stopper.update(2, 0.5)
    assert stopper.update(3, 0.5)
    assert stopper.best_epoch == 1


# -- training loop ---------------------------------------------------------------------

def _toy_windows(seed, n_windows, freq=8, n_events=2, t_active=0.4):
    """Windows where event e rides on its own frequency band."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_windows):
        target = np.zeros((256, n_events), dtype=int)
        values = rng.normal(0, 0.05, size=(256, freq, 2))
        for e in range(n_events):
            n_runs = rng.integers(1, 4)
            for _ in range(n_runs):
                start = int(rng.integers(0, 200))
                length = int(rng.integers(20, 56))
                target[start:start + length, e] = 1
            band = slice(e * freq // n_events, (e + 1) * freq // n_events)
            values[target[:, e] == 1, band, :] += 1.0
        out.append(WindowExample(values=values, target=target))
    return out


def test_train_deterministic_history():
    windows = _toy_windows(0, 6)
    kwargs = dict(hop_seconds=0.02, epochs=3, patience=20, batch_size=4, seed=11)

    def run():
        model = CapsNetModel.build(tiny_config(dropout_rate=0.2), 8, 2, stream(42))
        return train(model, windows[:4], windows[4:], **kwargs)

    a, b = run(), run()
    assert a.history == b.history
    for name in a.parameters:
        np.testing.assert_array_equal(a.parameters[name].numpy(), b.parameters[name].numpy())


def test_train_stops_on_a_nan_window():
    """A NaN input pools to NaN, which the first ReLU turns into 0, so the
    loss stays finite; the first conv kernel's gradient takes the NaN, and
    the AdaDelta step refuses it before any parameter moves."""
    windows = _toy_windows(0, 2)
    windows[0].values[100, 3, 0] = np.nan
    T.set_finite_checks(False)
    model = CapsNetModel.build(tiny_config(), 8, 2, stream(42))
    with pytest.raises(NumericError, match="non-finite gradient for parameter 'conv0_kernel'"):
        train(model, windows[:1], windows[1:], hop_seconds=0.02, epochs=1, patience=1,
              batch_size=1, seed=0)


class _EchoModel:
    """Predicts each window's first channel as its event scores."""

    def predict(self, values):
        return ActivityMatrix(values=values[..., 0])


def test_validation_error_rate_counts_segments_per_clip():
    rng = np.random.default_rng(8)
    clip_lengths, n_events, hop, labels = [300, 530], 2, 0.02, ["a", "b"]
    shape = (sum(clip_lengths), n_events)
    truth = (rng.uniform(size=shape) < 0.01).astype(np.uint8)
    detected = np.roll(truth, 30, axis=0) | (rng.uniform(size=shape) < 0.005)
    scores = np.where(detected, 0.9, 0.1)
    windows, clip_start = [], 0
    for length in clip_lengths:
        for start in range(0, length, 256):
            valid = min(256, length - start)
            values = np.zeros((256, n_events, 1))
            target = np.zeros((256, n_events), dtype=np.uint8)
            frames = slice(clip_start + start, clip_start + start + valid)
            values[:valid, :, 0], target[:valid] = scores[frames], truth[frames]
            windows.append(WindowExample(values=values, target=target, valid=valid,
                                         start_frame=start))
        clip_start += length
    expected = error_rate(segment_counts(EventRoll(truth, hop, labels),
                                         EventRoll((scores >= 0.5).astype(np.uint8), hop, labels),
                                         lengths=clip_lengths))
    assert _validation_error_rate(_EchoModel(), windows, hop, labels) == expected


def test_train_requires_both_splits():
    model = CapsNetModel.build(tiny_config(), 8, 2, stream(0))
    with pytest.raises(DataError):
        train(model, [], [], hop_seconds=0.02, epochs=1, patience=1, batch_size=1, seed=0)


def test_train_learns_separable_tones():
    """Two disjoint-band events: training-split ER falls below 0.2."""
    windows = _toy_windows(3, 10)
    model = CapsNetModel.build(
        tiny_config(cnn_kernels=(4, 4), n_primary_caps=3, primary_cap_dim=4,
                    output_cap_dim=4, dropout_rate=0.0, l2_weight=0.0),
        8, 2, stream(7))
    result = train(model, windows, windows, hop_seconds=0.02, epochs=100,
                   patience=100, batch_size=4, seed=7)
    assert result.best_er < 0.2
    assert result.stopped_epoch <= 100


def test_activity_matrix_validates():
    with pytest.raises(ShapeError):
        ActivityMatrix(values=np.zeros((10, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_activity_matrix_rejects_non_finite(bad):
    values = np.full((256, 2), 0.5)
    values[100, 1] = bad
    with pytest.raises(NumericError, match="not finite"):
        ActivityMatrix(values=values)
