import numpy as np
import pytest

from helpers import finite_diff_grad, max_rel_err

from polysed import tensor as T
from polysed.errors import NumericError, ShapeError
from polysed.optim import AdaDeltaState, adadelta_step
from polysed.rng import SeededRng
from polysed.tensor import Tensor, gradients


def _gradcheck(build_loss, x0, tol=1e-4, h=1e-5):
    """Compare tape gradients against central differences at x0."""
    p = Tensor(np.array(x0, dtype=np.float64), requires_grad=True)
    analytic = gradients(build_loss(p), {"p": p})["p"]

    def f(x):
        return build_loss(Tensor(x)).item()

    numeric = finite_diff_grad(f, np.array(x0, dtype=np.float64), h=h)
    err = max_rel_err(analytic, numeric)
    assert err < tol, f"gradient mismatch: {err}"


def test_matmul_shape():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(2, 3)))
    b = Tensor(rng.normal(size=(3, 4)))
    assert T.matmul(a, b).shape == (2, 4)


def test_matmul_mismatch_raises():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_conv2d_valid_shape():
    x = Tensor(np.zeros((1, 8, 8)))
    k = Tensor(np.zeros((1, 1, 3, 3)))
    assert T.conv2d(x, k).shape == (1, 6, 6)


def test_softmax_uniform_on_zeros():
    s = T.softmax(Tensor(np.zeros(3)), axis=-1)
    np.testing.assert_allclose(s.numpy(), np.full(3, 1.0 / 3.0), atol=1e-15)


def test_softmax_sums_to_one():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(4, 5)) * 10)
    s = T.softmax(x, axis=1).numpy()
    np.testing.assert_allclose(s.sum(axis=1), np.ones(4), atol=1e-12)


def test_backward_sigmoid_at_zero():
    p = Tensor(np.array(0.0), requires_grad=True)
    loss = T.sigmoid(p)
    g = gradients(loss, {"p": p})["p"]
    np.testing.assert_allclose(g, 0.25, atol=1e-15)


def test_backward_requires_scalar():
    p = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        gradients(T.square(p), {"p": p})


def test_detached_parameter_warns_and_zeroes():
    p = Tensor(np.ones(3), requires_grad=True)
    q = Tensor(np.ones(3), requires_grad=True)
    loss = T.tsum(T.square(p))
    with pytest.warns(UserWarning, match="not reached"):
        g = gradients(loss, {"p": p, "q": q})
    np.testing.assert_allclose(g["q"], np.zeros(3))


@pytest.mark.parametrize("name,build", [
    ("add", lambda p: T.tsum(T.add(p, Tensor(np.linspace(-1, 1, 12).reshape(3, 4))))),
    ("add_broadcast", lambda p: T.tsum(T.square(T.add(p, Tensor(np.linspace(0.5, 2, 4)))))),
    ("sub", lambda p: T.tsum(T.square(T.sub(p, 0.25)))),
    ("mul", lambda p: T.tsum(T.mul(p, Tensor(np.linspace(1, 2, 12).reshape(3, 4))))),
    ("div", lambda p: T.tsum(T.div(p, Tensor(np.linspace(1, 2, 12).reshape(3, 4))))),
    ("div_denom", lambda p: T.tsum(T.div(Tensor(np.ones((3, 4))), T.add(T.square(p), 1.0)))),
    ("square", lambda p: T.tsum(T.square(p))),
    ("log", lambda p: T.tsum(T.log(T.add(T.square(p), 1.5)))),
    ("exp", lambda p: T.tsum(T.exp(p))),
    ("relu", lambda p: T.tsum(T.relu(p))),
    ("sigmoid", lambda p: T.tsum(T.square(T.sigmoid(p)))),
    ("softmax", lambda p: T.tsum(T.square(T.softmax(p, axis=-1)))),
    ("sum_axis", lambda p: T.tsum(T.square(T.tsum(p, axis=0)))),
    ("mean", lambda p: T.square(T.tmean(p))),
    ("mean_axis", lambda p: T.tsum(T.square(T.tmean(p, axis=1, keepdims=True)))),
    ("norm", lambda p: T.tsum(T.norm(p, axis=-1))),
    ("norm_keepdims", lambda p: T.tsum(T.square(T.norm(p, axis=0, keepdims=True)))),
    ("reshape", lambda p: T.tsum(T.square(T.reshape(p, (4, 3))))),
    ("transpose", lambda p: T.tsum(T.square(T.transpose(p, (1, 0))))),
    ("pad", lambda p: T.tsum(T.square(T.pad(p, ((1, 2), (0, 1)))))),
    ("unsqueeze", lambda p: T.tsum(T.square(T.unsqueeze(p, 1)))),
    ("clip", lambda p: T.tsum(T.clip(p, -0.9, 0.9))),
])
def test_gradcheck_elementwise(name, build):
    rng = np.random.default_rng(hash(name) % (2 ** 32))
    x0 = rng.normal(size=(3, 4)) * 0.7
    _gradcheck(build, x0)


def test_gradcheck_matmul():
    rng = np.random.default_rng(11)
    b = Tensor(rng.normal(size=(4, 2)))
    _gradcheck(lambda p: T.tsum(T.square(T.matmul(p, b))), rng.normal(size=(3, 4)))


def test_gradcheck_matmul_batched_broadcast():
    rng = np.random.default_rng(12)
    w = Tensor(rng.normal(size=(2, 3, 4, 2)))  # broadcast against (5, 2, 3, 1, 4)

    def build(p):
        u = T.reshape(p, (5, 2, 3, 1, 4))
        return T.tsum(T.square(T.matmul(u, w)))

    _gradcheck(build, rng.normal(size=(5, 2, 3, 4)))


def test_gradcheck_matmul_weights():
    rng = np.random.default_rng(13)
    a = Tensor(rng.normal(size=(3, 4)))
    _gradcheck(lambda p: T.tsum(T.square(T.matmul(a, p))), rng.normal(size=(4, 2)))


def test_gradcheck_conv2d_input():
    rng = np.random.default_rng(14)
    k = Tensor(rng.normal(size=(2, 2, 3, 3)))
    b = Tensor(rng.normal(size=(2,)))
    _gradcheck(lambda p: T.tsum(T.square(T.conv2d(p, k, b))), rng.normal(size=(2, 6, 7)))


def test_gradcheck_conv2d_kernel_and_bias():
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(size=(2, 6, 7)))

    def build_k(p):
        return T.tsum(T.square(T.conv2d(x, p, Tensor(np.zeros(2)))))

    _gradcheck(build_k, rng.normal(size=(2, 2, 3, 3)))

    kf = Tensor(rng.normal(size=(2, 2, 3, 3)))

    def build_b(p):
        return T.tsum(T.square(T.conv2d(x, kf, p)))

    _gradcheck(build_b, rng.normal(size=(2,)))


def test_gradcheck_maxpool():
    rng = np.random.default_rng(16)
    _gradcheck(lambda p: T.tsum(T.square(T.maxpool_last(p, 2))), rng.normal(size=(2, 3, 8)))


def test_gradcheck_concat():
    rng = np.random.default_rng(17)
    other = Tensor(rng.normal(size=(2, 4)))

    def build(p):
        return T.tsum(T.square(T.concat([p, other], axis=0)))

    _gradcheck(build, rng.normal(size=(3, 4)))


def test_gradcheck_composed_net():
    rng = np.random.default_rng(18)
    k = Tensor(rng.normal(size=(3, 1, 3, 3)) * 0.5)
    w = Tensor(rng.normal(size=(12, 5)) * 0.5)

    def build(p):
        h = T.relu(T.conv2d(p, k))
        h = T.maxpool_last(h, 3)
        h = T.reshape(h, (h.shape[0] * h.shape[1] * h.shape[2] // 12, 12))
        h = T.sigmoid(T.matmul(h, w))
        return T.tmean(T.square(h))

    _gradcheck(build, rng.normal(size=(1, 6, 8)))


def test_maxpool_requires_divisible():
    with pytest.raises(ShapeError):
        T.maxpool_last(Tensor(np.zeros((2, 3, 7))), 2)


def test_no_grad_suppresses_tape():
    p = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        out = T.tsum(T.square(p))
    assert out._parents == ()


def test_finite_check_flags_nan():
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError):
            T.log(Tensor(np.array([-1.0])))


# -- AdaDelta -----------------------------------------------------------------

def test_adadelta_zero_gradient_is_fixed_point():
    p = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
    state = AdaDeltaState()
    out = adadelta_step(p, {"w": np.zeros(2)}, state)
    np.testing.assert_array_equal(out["w"].numpy(), p["w"].numpy())
    assert np.all(state.acc_grad_sq["w"] >= 0)


def test_adadelta_first_step_value():
    p = {"w": Tensor(np.array(0.0), requires_grad=True)}
    state = AdaDeltaState(rho=0.95, epsilon=1e-6, lr=1.0)
    out = adadelta_step(p, {"w": np.array(1.0)}, state)
    expected = -np.sqrt(1e-6) / np.sqrt(0.05 + 1e-6)
    np.testing.assert_allclose(out["w"].item(), expected, rtol=0, atol=1e-15)
    assert abs(expected - (-0.004472)) < 5e-7


def test_adadelta_second_step_grows():
    p = {"w": Tensor(np.array(0.0), requires_grad=True)}
    state = AdaDeltaState()
    p1 = adadelta_step(p, {"w": np.array(1.0)}, state)
    d1 = abs(p1["w"].item() - p["w"].item())
    p2 = adadelta_step(p1, {"w": np.array(1.0)}, state)
    d2 = abs(p2["w"].item() - p1["w"].item())
    assert d2 > d1


def test_adadelta_rejects_nonfinite():
    p = {"w": Tensor(np.array(0.0), requires_grad=True)}
    with pytest.raises(NumericError):
        adadelta_step(p, {"w": np.array(np.nan)}, AdaDeltaState())


# -- SeededRng ------------------------------------------------------------------

def test_seeded_rng_repeatable():
    a = SeededRng(42).uniform(size=16)
    b = SeededRng(42).uniform(size=16)
    np.testing.assert_array_equal(a, b)


def test_seeded_rng_children_independent():
    root = SeededRng(42)
    a = root.child("stage-a").uniform(size=8)
    b = root.child("stage-b").uniform(size=8)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, SeededRng(42).child("stage-a").uniform(size=8))
