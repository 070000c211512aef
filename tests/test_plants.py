from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from anyctrl.controller import DECREASE_CHECK_LIMIT
from anyctrl.errors import ConfigError
from anyctrl.plants import (ROW_CALL_MAX, DisturbanceModel, lqr_gain_scalar,
                            make_builtin_plant, norm, sat, sum_squares)

from oracles import riccati_gain_loop, sat_2d_f, sat_2d_policy

PLANT_NAMES = ["cubic_scalar", "linear_scalar", "sat_2d", "log_lyapunov"]
# half-width of the box the contraction test samples states from
SAMPLE_BOX = {"cubic_scalar": 10.0, "linear_scalar": 10.0, "sat_2d": 10.0, "log_lyapunov": 100.0}
PHI = (1.0 + 5.0 ** 0.5) / 2.0  # sat_2d's growth factor, along the direction (1, PHI)


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


@pytest.mark.parametrize("name", [name for name in PLANT_NAMES if build(name).alpha is not None])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_open_loop_growth(name, data):
    """V(f(x, 0, 0)) <= alpha V(x) up to float slack, sampled in the box.

    Half the draws of a two-state plant lie on sat_2d's worst direction, x ~ (1, phi),
    inside the band |x1 + x2| <= 1 where its map is linear.
    """
    plant = build(name)
    box = SAMPLE_BOX[name]
    x = np.array([data.draw(st.floats(min_value=-box, max_value=box,
                                      allow_nan=False)) for _ in range(plant.n)])
    if plant.n == 2 and data.draw(st.booleans()):
        band = 1.0 / PHI ** 2
        x = data.draw(st.floats(min_value=-band, max_value=band)) * np.array([1.0, PHI])
    v = float(plant.lyapunov(x))
    nxt = plant.f(x, np.zeros(plant.p), np.zeros(plant.m))
    # sat_2d's f adds and subtracts sqrt(5), which rounds x2 to a multiple of 4.4e-16
    assert float(plant.lyapunov(nxt)) <= plant.alpha * v * (1.0 + 1e-12) + 1e-14


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
    assert none.draw(rng, (5, 0)).shape == (5, 0)
    uni = DisturbanceModel(kind="uniform", lo=0.0, hi=0.01)
    draws = uni.draw(rng, (10_000, 1))
    assert draws.shape == (10_000, 1)
    assert draws.min() >= 0.0 and draws.max() <= 0.01
    gau = DisturbanceModel(kind="gaussian", variance=0.1)
    draws = gau.draw(rng, (50_000, 2))
    np.testing.assert_allclose(draws.mean(), 0.0, atol=0.01)
    np.testing.assert_allclose(draws.var(), 0.1, atol=0.01)
    with pytest.raises(ConfigError):
        DisturbanceModel(kind="poisson")
    with pytest.raises(ConfigError):
        DisturbanceModel(kind="uniform", lo=1.0, hi=0.0)


NAN = float("nan")


@pytest.mark.parametrize("build_model, field", [
    (lambda: replace(make_builtin_plant("sat_2d"), alpha=NAN), "alpha"),
    (lambda: DisturbanceModel(kind="uniform", lo=NAN, hi=1.0), "disturbance.lo"),
    (lambda: DisturbanceModel(kind="uniform", lo=0.0, hi=NAN), "disturbance.hi"),
    (lambda: DisturbanceModel(kind="gaussian", variance=NAN), "disturbance.variance"),
    (lambda: DisturbanceModel(kind="gaussian", mean=NAN), "disturbance.mean"),
], ids=["plant-alpha", "lo", "hi", "variance", "mean"])
def test_a_nan_parameter_is_a_config_error_naming_it(build_model, field):
    # NaN fails every comparison, so a guard written as `x < bound` lets it pass
    with pytest.raises(ConfigError, match=field):
        build_model()


@pytest.mark.parametrize("change", [{"rho": None}, {"rho": "0.5"}, {"alpha": "1.5"},
                                    {"alpha": True}])
def test_a_plant_rate_that_is_no_number_is_a_config_error(change):
    # the certificates' rule (`check_rates`), with alpha None allowed for a plant
    with pytest.raises(ConfigError, match=f"^{next(iter(change))} must"):
        replace(make_builtin_plant("sat_2d"), **change)
    assert replace(make_builtin_plant("sat_2d"), alpha=None).alpha is None


def test_an_infinite_alpha_is_a_config_error():
    with pytest.raises(ConfigError, match="^alpha must be finite"):
        replace(make_builtin_plant("sat_2d"), alpha=float("inf"))


def test_cubic_scalar_takes_no_alpha():
    # x+ = x + 0.01 x^3 has no finite global growth bound, so no alpha is true of it
    assert make_builtin_plant("cubic_scalar").alpha is None
    with pytest.raises(ConfigError, match="bad parameters for plant 'cubic_scalar'"):
        make_builtin_plant("cubic_scalar", alpha=1.5)


@pytest.mark.parametrize("value", [float("inf"), -float("inf")], ids=["inf", "-inf"])
@pytest.mark.parametrize("kind, field", [("uniform", "lo"), ("uniform", "hi"),
                                         ("gaussian", "mean"), ("gaussian", "variance")])
def test_an_infinite_disturbance_parameter_is_a_config_error_naming_it(kind, field, value):
    # each would draw non-numbers: a uniform over (-inf, inf) draws NaN, a gaussian
    # with an infinite mean or variance draws +-inf
    params = {"lo": -1.0, "hi": 1.0} if kind == "uniform" else {"variance": 1.0}
    with pytest.raises(ConfigError, match=f"disturbance.{field} must be finite"):
        DisturbanceModel(kind=kind, **{**params, field: value})


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
def sat_2d_calls(draw, elements=st.floats(allow_nan=False, allow_infinity=False),
                 max_rows=2 * ROW_CALL_MAX, layouts=("()", "(k,)", "rollout")):
    """(x, u, w) on `()` lanes, on `(k,)` lanes, or on `(k,)` lanes with one zeros(1) for all.

    A `()` call is one row, so `policy(x)` is drawn 1-D too. Stacks hold 0
    to `max_rows` rows: by default up to 2 ROW_CALL_MAX, on both sides of
    where sat_2d leaves its Python row path for numpy.
    """
    layout = draw(st.sampled_from(layouts))
    lead = () if layout == "()" else (draw(st.integers(0, max_rows)),)
    x = draw(arrays(np.float64, lead + (2,), elements=elements))
    u = draw(arrays(np.float64, lead + (2,), elements=elements))
    w = np.zeros(1) if layout == "rollout" else draw(arrays(np.float64, lead + (1,),
                                                            elements=elements))
    return x, u, w


@given(sat_2d_calls())
@settings(max_examples=300, deadline=None)
def test_sat_2d_is_its_formulas_bit_for_bit(call):
    plant = make_builtin_plant("sat_2d")
    x, u, w = call
    with np.errstate(over="ignore", invalid="ignore"):
        u_want = sat_2d_policy(x)
        pairs = [(plant.f(x, u, w), sat_2d_f(x, u, w)),
                 (plant.policy(x), u_want),
                 *zip(plant.closed_loop(x), (u_want, sat_2d_f(x, u_want, np.zeros(1))))]
    for got, want in pairs:
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def on_the_array_path(fn, *args):
    """`fn` on the call's rows, stacked under zero rows to ROW_CALL_MAX + 1, which takes numpy.

    A 1-D call is one row, and then the result is too. Each result row is
    its input row's alone, so the call's rows of the padded result are what
    the array path gives on the call itself. A closed-loop map's pair of
    results is trimmed result by result.
    """
    one_row = args[0].ndim == 1
    rows = [a[None] if one_row else a for a in args]
    count = len(rows[0])
    padded = [np.concatenate([a, np.zeros((ROW_CALL_MAX + 1 - count, a.shape[-1]))])
              if a.ndim == 2 else a for a in rows]
    out = fn(*padded)

    def trim(a):
        return a[0] if one_row else a[:count]
    return tuple(map(trim, out)) if isinstance(out, tuple) else trim(out)


# the states a diverging trace feeds the plant, and values near the saturation
EDGE_VALUES = st.one_of(COMPONENT_VALUES, st.sampled_from([
    float("nan"), float("inf"), -float("inf"), 1.0, -1.0, 1.0 + 2 ** -52, -0.5, 0.5]))


@given(sat_2d_calls(elements=EDGE_VALUES, max_rows=ROW_CALL_MAX, layouts=("()", "rollout")))
@settings(max_examples=300, deadline=None)
def test_sat_2d_row_path_is_the_array_path(call):
    """The row paths: f's on a 1-D call, the closed-loop map's on a rollout's stack."""
    plant = make_builtin_plant("sat_2d")
    x, u, w = call
    with np.errstate(over="ignore", invalid="ignore"):
        if x.ndim == 1:
            pairs = [(plant.f(x, u, w), on_the_array_path(plant.f, x, u, w))]
        else:
            pairs = zip(plant.closed_loop(x), on_the_array_path(plant.closed_loop, x))
    for got, want in pairs:
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)  # NaN equals NaN here
        numbers = ~np.isnan(want)  # and -0.0 is not 0.0
        np.testing.assert_array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


# what a closed-loop map must keep bit for bit: NaN, infinities, signed zeros,
# values near the overflow guard, and arbitrary mantissas, whose cubes numpy's
# SIMD pow rounds otherwise than x * x * x now and then
CLOSED_LOOP_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=1e11, max_value=1e13).flatmap(lambda v: st.sampled_from([v, -v])),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 1e12, -1e12,
                     1e12 * (1.0 + 2 ** -52), 1.0, -1.0, 1.0 + 2 ** -52]))


@st.composite
def closed_loop_calls(draw, plant):
    """States for `plant.closed_loop`: one 1-D row or a stack of 1 to ROW_CALL_MAX + 2 rows.

    float64 or float32: a float32 state's next state is float64, as f at a
    float64 zero disturbance promotes it.
    """
    rows = draw(st.integers(0, ROW_CALL_MAX + 2))  # 0 for a 1-D call
    lead = (rows,) if rows else ()
    x = draw(arrays(np.float64, lead + (plant.n,), elements=CLOSED_LOOP_VALUES))
    with np.errstate(over="ignore"):
        return x.astype(draw(st.sampled_from([np.float64, np.float32])))


def policy_then_f(plant, x):
    """`(policy(x), f(x, policy(x), 0))`, the nominal step at a float64 zero disturbance."""
    u = plant.policy(x)
    return u, plant.f(x, u, np.zeros(plant.m))


def assert_same_arrays(got, want):
    """Two tuples of arrays equal bit for bit, shape and dtype included."""
    assert type(got) is tuple and len(got) == len(want)
    for g, v in zip(got, want):
        assert g.shape == v.shape and g.dtype == v.dtype
        assert g.tobytes() == v.tobytes()


@pytest.mark.parametrize("name", ["cubic_scalar", "sat_2d"])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_closed_loop_map_is_policy_then_f_bit_for_bit(name, data):
    plant = make_builtin_plant(name)
    x = data.draw(closed_loop_calls(plant))
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_arrays(plant.closed_loop(x), policy_then_f(plant, x))


@pytest.mark.parametrize("name", PLANT_NAMES)
def test_nominal_step_is_policy_then_f(name):
    """On normal draws and on the non-finite and signed-zero rows, in float64 and float32."""
    plant = build(name)
    normal = np.random.default_rng(5).normal(size=(6, plant.n))
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e300, 5e-324])
    edges = np.resize(edges, (edges.size, plant.n))
    with np.errstate(over="ignore", invalid="ignore"):
        for x in (normal, edges, normal.astype(np.float32), edges.astype(np.float32)):
            assert_same_arrays(plant.nominal_step(x), policy_then_f(plant, x))
    assert (plant.closed_loop is None) == (name in ("linear_scalar", "log_lyapunov"))
