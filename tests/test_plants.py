import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from anyctrl.controller import DECREASE_CHECK_LIMIT
from anyctrl.errors import ConfigError
from anyctrl.plants import (DisturbanceModel, lqr_gain_scalar,
                            make_builtin_plant, norm, sat, sum_squares)

from oracles import riccati_gain_loop, sat_2d_f, sat_2d_policy

PLANT_NAMES = ["cubic_scalar", "linear_scalar", "sat_2d", "log_lyapunov"]
# half-width of the box the contraction test samples states from
SAMPLE_BOX = {"cubic_scalar": 10.0, "linear_scalar": 10.0, "sat_2d": 10.0, "log_lyapunov": 100.0}


def build(name):
    if name == "linear_scalar":
        return make_builtin_plant(name, a=1.2)
    if name == "log_lyapunov":
        return make_builtin_plant(name, rho=0.7)
    return make_builtin_plant(name)


def test_cubic_closed_loop_step():
    plant = make_builtin_plant("cubic_scalar")
    x = np.array([1.0])
    u = plant.policy(x)
    np.testing.assert_allclose(u, [-2.0])
    np.testing.assert_allclose(plant.f(x, u, np.array([0.0])), [0.99])


def test_linear_scalar_values():
    plant = make_builtin_plant("linear_scalar", a=1.5)
    np.testing.assert_allclose(plant.f(np.array([2.0]), np.array([0.0]), np.array([0.0])), [3.0])
    gain = plant.params["gain"]
    assert abs(gain - lqr_gain_scalar(1.5, 0.2, 2.0)) == 0.0
    assert abs(plant.rho - abs(1.5 - gain)) < 1e-15
    assert plant.rho < 1.0


def test_lqr_gain_riccati_fixed_point():
    a, q, r = 1.5, 0.2, 2.0
    gain = lqr_gain_scalar(a, q, r)
    # recover the cost-to-go from the gain and check it solves the Riccati equation
    p = gain * r / (a - gain)
    assert abs(p - (q + a * a * p * r / (r + p))) < 1e-9


@pytest.mark.parametrize("a, q, r", [(0.05, 0.2, 2.0), (0.9, 1.0, 0.5), (-1.3, 0.7, 0.1),
                                     (3.0, 0.2, 2.0), (0.5, 0.0, 1.0), (2.0, 0.0, 1.0),
                                     (-2.0, 0.0, 3.0)])
def test_lqr_gain_closed_form_solves_riccati(a, q, r):
    gain = lqr_gain_scalar(a, q, r)
    p = gain * r / (a - gain)  # the cost-to-go behind the gain
    assert p >= 0.0 and abs(a - gain) < 1.0
    assert abs(p - (q + a * a * p * r / (r + p))) <= 1e-12 * max(1.0, p)


def test_lqr_gain_closed_form_matches_the_riccati_iteration():
    # the iteration stops within its 1e-12 tolerance of the root; the stock weights
    # move by at most 1.4e-12 relative over a in [0.05, 3]
    for a in np.linspace(0.05, 3.0, 400):
        want = riccati_gain_loop(a, 0.2, 2.0)
        assert abs(lqr_gain_scalar(a, 0.2, 2.0) - want) <= 1.4e-12 * want


def test_linear_plant_with_zero_state_weight_is_stabilised():
    # with q = 0 the iteration never leaves p = 0, so its gain 0 leaves |a| > 1
    # unstable; the larger Riccati root gives the stabilising gain a - 1/a
    assert riccati_gain_loop(2.0, 0.0, 1.0) == 0.0
    plant = make_builtin_plant("linear_scalar", a=2.0, q=0.0)
    assert plant.params["gain"] == 1.5 and plant.rho == 0.5
    with pytest.raises(ConfigError, match="not contracting"):
        make_builtin_plant("linear_scalar", a=1.0, q=0.0)


@pytest.mark.parametrize("q, r", [(-0.1, 2.0), (0.2, 0.0), (0.2, -2.0)])
def test_lqr_gain_rejects_bad_weights(q, r):
    with pytest.raises(ConfigError, match="q >= 0 and r > 0"):
        lqr_gain_scalar(1.1, q, r)


def test_unknown_plant_and_bad_params():
    with pytest.raises(ConfigError):
        make_builtin_plant("pendulum")
    with pytest.raises(ConfigError):
        make_builtin_plant("linear_scalar", b=2.0)


def test_sat():
    np.testing.assert_allclose(sat(np.array([-3.0, -0.5, 0.0, 0.4, 7.0])),
                               [-1.0, -0.5, 0.0, 0.4, 1.0])


@pytest.mark.parametrize("name", PLANT_NAMES)
def test_origin_is_an_equilibrium(name):
    plant = build(name)
    x0 = np.zeros(plant.n)
    nxt = plant.f(x0, np.zeros(plant.p), np.zeros(plant.m))
    np.testing.assert_allclose(nxt, x0, atol=1e-15)
    np.testing.assert_allclose(plant.policy(x0), np.zeros(plant.p), atol=1e-15)


@pytest.mark.parametrize("name", PLANT_NAMES)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_closed_loop_contraction(name, data):
    """V(f(x, kappa(x), 0)) <= rho V(x) up to float slack, sampled in the box."""
    plant = build(name)
    box = SAMPLE_BOX[name]
    x = np.array([data.draw(st.floats(min_value=-box, max_value=box,
                                      allow_nan=False)) for _ in range(plant.n)])
    v = float(plant.lyapunov(x))
    if v > DECREASE_CHECK_LIMIT:
        return
    nxt = plant.f(x, plant.policy(x), np.zeros(plant.m))
    assert float(plant.lyapunov(nxt)) <= plant.rho * v + 1e-9 * max(1.0, v)


@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_log_lyapunov_contracts_exactly(x):
    plant = make_builtin_plant("log_lyapunov", rho=0.6)
    xv = np.array([x])
    nxt = plant.f(xv, plant.policy(xv), np.zeros(0))
    want = 0.6 * float(plant.lyapunov(xv))
    assert abs(float(plant.lyapunov(nxt)) - want) < 1e-12


@pytest.mark.parametrize("name", PLANT_NAMES)
def test_vectorized_matches_scalar(name):
    plant = build(name)
    rng = np.random.default_rng(11)
    xs = rng.normal(size=(40, plant.n))
    us = rng.normal(size=(40, plant.p))
    ws = rng.normal(size=(40, plant.m))
    batch = plant.f(xs, us, ws)
    for i in range(40):
        np.testing.assert_array_equal(batch[i], plant.f(xs[i], us[i], ws[i]))
    np.testing.assert_array_equal(plant.policy(xs)[7], plant.policy(xs[7]))
    np.testing.assert_array_equal(np.asarray(plant.lyapunov(xs))[7],
                                  plant.lyapunov(xs[7]))


def test_disturbance_models():
    rng = np.random.default_rng(0)
    none = DisturbanceModel()
    assert none.draw(rng, (5,)).shape == (5, 0)
    uni = DisturbanceModel(kind="uniform", dim=1, lo=0.0, hi=0.01)
    draws = uni.draw(rng, (10_000,))
    assert draws.shape == (10_000, 1)
    assert draws.min() >= 0.0 and draws.max() <= 0.01
    gau = DisturbanceModel(kind="gaussian", dim=2, variance=0.1)
    draws = gau.draw(rng, (50_000,))
    np.testing.assert_allclose(draws.mean(), 0.0, atol=0.01)
    np.testing.assert_allclose(draws.var(), 0.1, atol=0.01)
    with pytest.raises(ConfigError):
        DisturbanceModel(kind="poisson", dim=1)
    with pytest.raises(ConfigError):
        DisturbanceModel(kind="uniform", dim=1, lo=1.0, hi=0.0)


def test_norm_reduces_last_axis():
    x = np.array([[3.0, 4.0], [0.0, 0.0]])
    np.testing.assert_allclose(norm(x), [5.0, 0.0])


# huge values overflow their squares, subnormal ones underflow them
COMPONENT_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e154, 1.5e154, 1e308, -1e308, 5e-324, -2.2e-308, 1e-160, 0.0, -0.0]))


@given(st.integers(1, 3).flatmap(
    lambda width: arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=5).map(
        lambda lead: lead + (width,)), elements=COMPONENT_VALUES)))
@settings(max_examples=300, deadline=None)
def test_sum_squares_is_the_reduction_bit_for_bit(x):
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        want = np.square(x).sum(-1)
        got = sum_squares(x)
    assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == want.dtype
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@st.composite
def sat_2d_calls(draw):
    """(x, u, w) on `()` lanes, on `(k,)` lanes, or on `(k,)` lanes with a rollout's zeros(1)."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    layout = draw(st.sampled_from(["()", "(k,)", "rollout"]))
    lead = () if layout == "()" else (draw(st.integers(1, 6)),)
    x = draw(arrays(np.float64, lead + (2,), elements=finite))
    u = draw(arrays(np.float64, lead + (2,), elements=finite))
    w = np.zeros(1) if layout == "rollout" else draw(arrays(np.float64, lead + (1,),
                                                            elements=finite))
    return x, u, w


@given(sat_2d_calls())
@settings(max_examples=300, deadline=None)
def test_sat_2d_is_its_formulas_bit_for_bit(call):
    plant = make_builtin_plant("sat_2d")
    x, u, w = call
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = [(plant.f(x, u, w), sat_2d_f(x, u, w)),
                 (plant.policy(x), sat_2d_policy(x))]
    for got, want in pairs:
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
