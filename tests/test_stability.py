import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from anyctrl.availability import (IidAvailability, MarkovAvailability,
                                  from_execution_time)
from anyctrl.errors import ConfigError, DivergenceError
from anyctrl.stability import (BRACKET_MARGIN, CertificateInputs, a1_margin,
                               baseline_margin, evaluate, omega, omega_l, sigma,
                               spectral_radius, upsilon)

import oracles


def random_iid_instance(rng, max_lambda=6):
    """A random certificate instance with convergent series (p0*alpha <= 0.9)."""
    rho = rng.uniform(0.05, 0.95)
    alpha = rng.uniform(1.0, 2.5)
    lam = rng.integers(1, max_lambda + 1)
    p0 = rng.uniform(0.05, min(0.85, 0.9 / alpha))
    rest = rng.random(lam) + 0.05
    pmf = np.concatenate([[p0], rest / rest.sum() * (1.0 - p0)])
    return IidAvailability(pmf), rho, alpha


def random_markov_instance(rng, max_states=4, max_lambda=6):
    rho = rng.uniform(0.05, 0.95)
    alpha = rng.uniform(1.0, 2.5)
    g = rng.integers(1, max_states + 1)
    lam = rng.integers(1, max_lambda + 1)
    q = rng.random((g, g)) + 0.05
    q /= q.sum(axis=1, keepdims=True)
    p0s = rng.uniform(0.05, min(0.85, 0.9 / alpha), size=g)
    rest = rng.random((g, lam)) + 0.05
    pmfs = np.concatenate(
        [p0s[:, None], rest / rest.sum(axis=1, keepdims=True) * (1.0 - p0s[:, None])],
        axis=1)
    return MarkovAvailability(q, pmfs), rho, alpha


def test_baseline_margin_value():
    assert baseline_margin(0.3, 2.0, 0.5) == pytest.approx(0.3 * 2 + 0.7 * 0.5)


def test_omega_l_closed_form_vs_series():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        model, rho, alpha = random_iid_instance(rng)
        for l in range(1, model.max_len + 1):
            want = oracles.omega_l_series(l, model.p0, rho, alpha)
            assert omega_l(l, model.p0, rho, alpha) == pytest.approx(want, abs=1e-9)


def test_omega_closed_form_vs_series():
    for seed in range(30):
        rng = np.random.default_rng(100 + seed)
        model, rho, alpha = random_iid_instance(rng)
        want = oracles.omega_series(model.pmf, rho, alpha)
        assert omega(model, rho, alpha) == pytest.approx(want, abs=1e-9)


@st.composite
def omega_instances(draw):
    """A pmf with zero entries or a `from_execution_time` pmf (Lambda <= 64), with p0*alpha < 1."""
    if draw(st.booleans()):
        model = from_execution_time(draw(st.floats(1.0 / 64, 0.99)))
    else:
        pmf = _weight_rows(draw, 1, draw(st.integers(2, 65)))[0]
        assume(pmf[0] < 1.0)
        model = IidAvailability(pmf)
    rho = draw(st.floats(0.0, 0.99))
    alpha = draw(st.one_of(st.just(1.0), st.floats(1.0, 3.0)))
    assume(model.p0 * alpha < 1.0)
    return model, rho, alpha


@given(omega_instances())
@settings(max_examples=300, deadline=None)
def test_omega_from_sigma_matches_the_sum_of_omega_l(case):
    # both sides round about Lambda terms, and the identity reads sum_{l >= 1} p_l as 1 - p0,
    # which the pmf holds only to its own rounding: the error grows with Lambda / (1 - p0)
    model, rho, alpha = case
    want = sum(p * omega_l(l, model.p0, rho, alpha) for l, p in enumerate(model.pmf[1:], 1))
    ulps = 4.0 * (model.max_len + 1) / (1.0 - model.p0)
    assert abs(omega(model, rho, alpha) - want) <= ulps * math.ulp(want)


def test_sigma_special_case_is_rho():
    # all computations produce exactly one input: the stored sequence never
    # survives a gap, so the effective contraction collapses to rho
    for p0 in (0.1, 0.37, 0.8):
        model = IidAvailability([p0, 1.0 - p0])
        assert sigma(model, 0.6, 1.2) == pytest.approx(0.6, abs=1e-12)
        assert a1_margin(model, 0.6, 1.2) == pytest.approx(
            baseline_margin(p0, 1.2, 0.6), abs=1e-12)


def test_sigma_strictly_below_rho_with_longer_sequences():
    model = from_execution_time(0.3)
    assert sigma(model, 0.6, 1.2) < 0.6


def test_certificate_divergence_guard():
    model = IidAvailability([0.6, 0.4])
    with pytest.raises(DivergenceError):
        sigma(model, 0.5, 2.0)  # p0*alpha = 1.2
    with pytest.raises(DivergenceError):
        omega_l(1, 0.6, 0.5, 2.0)


def test_seq_len_prob_values():
    model = from_execution_time(0.3)
    p0 = 0.3
    want = (0.3 * (1 - p0) + 0.3 * (1 - p0 ** 2) + 0.1 * (1 - p0 ** 3)) / (1 - p0)
    assert oracles.seq_len_prob(model.pmf) == pytest.approx(want, abs=1e-15)


def test_delta_pmf_matches_literal_product():
    rng = np.random.default_rng(5)
    model, _, _ = random_markov_instance(rng)
    for state in range(model.num_states):
        total = sum(oracles.gap_pmf_series(model.transition, model.cond_pmfs, state, gap)
                    for gap in range(1, 200))
        assert total == pytest.approx(1.0, abs=1e-6)  # gap lengths are exhaustive


def test_delta_pmf_geometric_under_single_state():
    model = MarkovAvailability([[1.0]], [[0.4, 0.6]])
    for gap in range(1, 20):
        got = oracles.gap_pmf_series(model.transition, model.cond_pmfs, 0, gap)
        assert got == pytest.approx(0.4 ** (gap - 1) * 0.6, abs=1e-12)


def test_spectral_radius():
    diag = np.diag([0.2, 0.7])  # root 0.7
    assert spectral_radius(diag, bound=0.75) < 0.75
    assert spectral_radius(diag, bound=0.65) >= 0.65
    q = np.array([[0.5, 0.5], [0.4, 0.6]])  # stochastic: root 1
    assert spectral_radius(q, bound=1.01) < 1.01
    assert spectral_radius(q, bound=0.99) >= 0.99


def test_upsilon_vs_series():
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        model, rho, alpha = random_markov_instance(rng)
        got = upsilon(model, rho, alpha)
        want = oracles.upsilon_series(model.transition, model.cond_pmfs, rho, alpha)
        np.testing.assert_allclose(got, want, atol=1e-9)


def _weight_rows(draw, count, width):
    """Integer weights 0..3 per row, so that zero entries occur; an all-zero row gets weight at 0."""
    w = draw(arrays(np.int64, (count, width), elements=st.integers(0, 3))).astype(float)
    w[w.sum(axis=1) == 0, 0] = 1.0
    return w / w.sum(axis=1, keepdims=True)


@st.composite
def certificate_chains(draw, states=st.integers(1, 16), lams=st.integers(1, 8)):
    """A Markov model (by default G = 1..16, Lambda = 1..8) with zero entries and e_0 pmf rows,
    plus rho, alpha. Only models that build are drawn: a reducible or periodic chain, or one
    whose every state is idle, is rejected by the reference checks."""
    g = draw(states)
    lam = draw(lams)
    transition = _weight_rows(draw, g, g)
    pmfs = _weight_rows(draw, g, lam + 1)
    degenerate = draw(arrays(np.bool_, g, elements=st.booleans()))
    pmfs[degenerate] = np.eye(lam + 1)[0]
    assume(oracles.model_error(transition, pmfs) is None)
    rho = draw(st.floats(0.0, 0.99))
    alpha = draw(st.one_of(st.just(1.0), st.floats(1.0, 3.0)))
    return MarkovAvailability(transition, pmfs), rho, alpha


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


@st.composite
def slow_single_states(draw):
    """One state with Lambda = 9..16 and p_l * (rho * p0)^l decaying slowly in l.

    A reduce over l would add these terms pairwise, in another order than
    one at a time, and slowly decaying terms make that order show in the bits.
    """
    lam = draw(st.integers(9, 16))
    p0 = draw(st.floats(0.5, 0.95))
    rest = draw(arrays(float, lam, elements=st.floats(0.1, 1.0)))
    pmf = np.concatenate([[p0], (1.0 - p0) * rest / rest.sum()])
    model = MarkovAvailability([[1.0]], [pmf])
    return model, draw(st.floats(0.9, 0.99)), draw(st.floats(1.0, 1.0 / p0))


@given(st.one_of(certificate_chains(),
                 certificate_chains(states=st.just(1), lams=st.integers(9, 16)),
                 slow_single_states()))
@settings(max_examples=300, deadline=None)
def test_upsilon_stacked_matches_per_state_loop(case):
    model, rho, alpha = case
    got = _outcome(upsilon, model, rho, alpha)
    for oracle in (oracles.upsilon_per_state, oracles.upsilon_l_loop):
        want = _outcome(oracle, model.transition, model.cond_pmfs, rho, alpha)
        if want is None:
            assert got is DivergenceError
        elif isinstance(want, type):
            assert got is want
        else:
            assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()


@st.composite
def valid_chains(draw):
    """A chain that `validate` accepts: positive transitions, some but not all states idle."""
    g = draw(st.integers(1, 6))
    lam = draw(st.integers(1, 6))
    weights = draw(arrays(np.int64, (g, g), elements=st.integers(1, 3))).astype(float)
    pmfs = _weight_rows(draw, g, lam + 1)
    degenerate = draw(arrays(np.bool_, g, elements=st.booleans()))
    degenerate[draw(st.integers(0, g - 1))] = False
    pmfs[degenerate] = np.eye(lam + 1)[0]
    pmfs[~degenerate, 1] += 0.5  # a state that is not degenerate computes with some probability
    pmfs /= pmfs.sum(axis=1, keepdims=True)
    model = MarkovAvailability(weights / weights.sum(axis=1, keepdims=True), pmfs)
    return model, draw(st.floats(0.0, 0.99)), draw(st.floats(1.0, 3.0))


@given(valid_chains())
@settings(max_examples=200, deadline=None)
def test_markov_a1_verdict_ignores_only_degenerate_states(case):
    model, rho, alpha = case
    report = evaluate(CertificateInputs(rho, alpha, model))
    if report.upsilon_by_state is None:
        assert "a1" not in report.verdicts
        return
    finite = report.upsilon_by_state[~np.isnan(report.upsilon_by_state)]
    assert report.verdicts["a1"] == ("stable" if np.all(finite < 1.0) else "not_certified")


def test_markov_root_of_exactly_one_yields_no_verdict():
    # 1.5 * diag(p0) @ Q has Perron root 1 exactly, so I - alpha * Q_bar is singular;
    # the power iteration reads the root as 0.99999999999999 and passes the guard
    weights = np.array([[3.0, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]])
    pmfs = np.array([[3.0, 0, 0], [0, 3, 0], [2, 1, 0], [2, 1, 0]]) / 3.0
    model = MarkovAvailability(weights / weights.sum(axis=1, keepdims=True), pmfs)
    with pytest.raises(DivergenceError, match="singular"):
        upsilon(model, 0.0, 1.5)
    report = evaluate(CertificateInputs(0.0, 1.5, model))
    assert report.upsilon_by_state is None and "a1" not in report.verdicts
    assert any("alpha*Q_bar >= 1" in note for note in report.notes)


@given(certificate_chains())
@settings(max_examples=100, deadline=None)
def test_damped_chain_rows_equal_the_diagonal_product(case):
    # `upsilon` scales row s of Q by p0|s; the other terms of diag(p0) @ Q are zeros
    model, _, _ = case
    p0, q = model.p0_by_state, model.transition
    assert (p0[:, None] * q).tobytes() == (np.diag(p0) @ q).tobytes()


@st.composite
def nonnegative_matrices(draw):
    """Integer-weight and 0/1 matrices, slow sparse rings and periodic (block-cyclic) matrices, scaled.

    Up to 24 states, past MAX_CHAIN_STATES: `spectral_radius` takes a matrix of any size.
    """
    g = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(("weights", "zero_one", "ring", "periodic")))
    if kind == "ring":
        ring = np.roll(np.eye(g), 1, axis=1)
        stay = draw(arrays(float, g, elements=st.floats(0.0, 0.05)))
        mat = (1.0 - stay)[:, None] * ring + np.diag(stay)
    else:
        top = 1 if kind == "zero_one" else 3
        mat = draw(arrays(np.int64, (g, g), elements=st.integers(0, top))).astype(float)
        if kind == "periodic":
            period = draw(st.integers(1, g))
            cls = np.arange(g) % period
            mat *= cls[None, :] == (cls[:, None] + 1) % period
    return mat * draw(st.floats(0.01, 2.0))


@st.composite
def damped_chains(draw):
    """alpha * diag(p0) @ Q for a chain with zero entries, alpha * p_hat0 on either side of one."""
    g = draw(st.integers(1, 16))
    transition = _weight_rows(draw, g, g)
    p0 = draw(arrays(float, g, elements=st.floats(0.0, 1.0)))
    p0[draw(st.integers(0, g - 1))] = draw(st.floats(0.05, 1.0))  # p_hat0 > 0
    target = draw(st.one_of(st.floats(0.3, 1.7),
                            st.sampled_from([1.0 - 1e-6, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.0 + 1e-6])))
    alpha = target / p0.max()
    return alpha * (p0[:, None] * transition)


@st.composite
def scaled_stochastic(draw):
    """A stochastic matrix (zero entries, rings) scaled to a Perron root of 1 or 1 +- tiny."""
    g = draw(st.integers(1, 16))
    if draw(st.booleans()):
        ring = np.roll(np.eye(g), draw(st.integers(1, 3)), axis=1)
        stay = draw(arrays(float, g, elements=st.floats(0.0, 0.05)))
        mat = (1.0 - stay)[:, None] * ring + np.diag(stay)
    else:
        mat = _weight_rows(draw, g, g)
    gap = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6]))
    return mat * (1.0 + draw(st.sampled_from([-1.0, 1.0])) * gap)


def _rank_one(root):
    """x y^T scaled to the Perron root `root`: the first iterate is already its Perron vector."""
    x, y = np.array([0.3, 0.9]), np.array([0.5, 0.2])
    return np.outer(x, y) * (root / (y @ x))


@given(st.one_of(
    st.tuples(nonnegative_matrices(), st.one_of(st.just(1.0), st.floats(0.05, 3.0))),
    st.tuples(damped_chains(), st.just(1.0)),
    st.tuples(scaled_stochastic(), st.just(1.0))))
@example((np.diag([1.5, 0.1, 0.1, 0.1]), 1.0))  # one row sum above, three below
@example((np.array([[0.0, 3.0], [0.0, 0.0]]), 1.0))  # nilpotent, one row sum of 3
@example((np.array([[0.75, 0.5], [0.0, 0.0]]), 1.0))  # decided below at step 1
@example((np.array([[0.5, 0.75], [1.0, 0.0]]), 1.0))  # decided above at step 1
@example((np.array([[0.5, 1.0], [0.25, 0.0]]), 1.0))  # decided below at step 2
@example((np.array([[1.0, 0.25], [0.25, 0.5]]), 1.0))  # decided above at step 2
@example((_rank_one(1.0 - 1e-9), 1.0))  # near-tie, decided below at step 1
@example((_rank_one(1.0 + 1e-9), 1.0))  # near-tie, decided above at step 2
@settings(max_examples=600, deadline=None)
def test_bracketed_spectral_radius_keeps_the_verdict(case):
    mat, bound = case
    assert (spectral_radius(mat, bound=bound) >= bound) == (
        oracles.spectral_radius_loop(mat) >= bound)


class CountingMatrix(np.ndarray):
    """A matrix that counts its `dot` products."""

    products = 0

    def dot(self, other):
        CountingMatrix.products += 1
        return np.asarray(self).dot(other)


def guard_products(mat, bound=1.0):
    CountingMatrix.products = 0
    value = spectral_radius(np.asarray(mat, dtype=float).view(CountingMatrix), bound=bound)
    return value, CountingMatrix.products


def test_guard_below_the_worst_state_bound_takes_one_product():
    model = MarkovAvailability([[0.0, 0.98, 0.02], [0.01, 0.0, 0.99], [0.97, 0.03, 0.0]],
                               [[0.6, 0.4], [0.3, 0.7], [0.75, 0.25]])
    q_damped = np.diag(model.p0_by_state) @ model.transition
    alpha = 1.3  # alpha * p_hat0 = 0.975
    assert guard_products(alpha * q_damped) == (1.0 - BRACKET_MARGIN, 1)
    assert oracles.spectral_radius_loop(alpha * q_damped) < 1.0
    # alpha * min p0|s above one puts every row sum above the bound: decided at once
    assert guard_products(4.0 * q_damped) == (1.0 + BRACKET_MARGIN, 1)
    # alpha * p_hat0 >= 1 with a root below one needs the later checkpoints
    value, products = guard_products(1.4 * q_damped)  # alpha * p_hat0 = 1.05
    assert products > 1 and value < 1.0 and oracles.spectral_radius_loop(1.4 * q_damped) < 1.0


def test_dense_chain_decided_at_step_one_takes_two_products():
    model = MarkovAvailability([[0.2, 0.5, 0.3], [0.6, 0.2, 0.2], [0.3, 0.3, 0.4]],
                               [[0.8, 0.2], [0.2, 0.8], [0.4, 0.6]])
    q_damped = np.diag(model.p0_by_state) @ model.transition
    # alpha * p0|s straddles one at both alphas, so step 0 decides neither; step 1 does
    assert guard_products(1.5 * q_damped) == (1.0 - BRACKET_MARGIN, 2)
    assert oracles.spectral_radius_loop(1.5 * q_damped) < 1.0
    assert guard_products(3.0 * q_damped) == (1.0 + BRACKET_MARGIN, 2)
    assert oracles.spectral_radius_loop(3.0 * q_damped) >= 1.0


def test_upsilon_single_state_reduces_to_iid():
    for seed in range(50):
        rng = np.random.default_rng(400 + seed)
        iid, rho, alpha = random_iid_instance(rng)
        chain = MarkovAvailability([[1.0]], [iid.pmf])
        got = float(upsilon(chain, rho, alpha)[0])
        assert abs(got - omega(iid, rho, alpha)) < 1e-12


def test_upsilon_degenerate_state_is_nan():
    model = MarkovAvailability([[0.5, 0.5], [0.5, 0.5]],
                               [[1.0, 0.0], [0.1, 0.9]])
    vals = upsilon(model, 0.5, 1.2)
    assert np.isnan(vals[0]) and np.isfinite(vals[1])


def test_evaluate_iid_report():
    inputs = CertificateInputs(rho=0.5, alpha=1.618,
                               availability=from_execution_time(0.23))
    report = evaluate(inputs)
    assert report.verdicts["baseline"] == "stable"
    assert report.verdicts["a1"] == "stable"
    assert report.verdicts["a2"] == report.verdicts["a1"]
    assert report.a1_margin == pytest.approx(
        a1_margin(from_execution_time(0.23), 0.5, 1.618))
    assert any("also certifies" in note for note in report.notes)
    lines = report.lines()
    assert any(line.startswith("a1_margin=") for line in lines)


def test_evaluate_reports_violated_assumption():
    inputs = CertificateInputs(rho=0.2, alpha=2.5,
                               availability=IidAvailability([0.5, 0.5]))
    report = evaluate(inputs)
    assert "a1" not in report.verdicts
    assert any("violated" in note for note in report.notes)
    # the baseline margin is still reported (its series never diverges)
    assert report.baseline_margin == pytest.approx(0.5 * 2.5 + 0.5 * 0.2)


def test_evaluate_markov_report():
    model = MarkovAvailability([[0.9, 0.1], [0.2, 0.8]],
                               [[0.1, 0.5, 0.4], [0.6, 0.4, 0.0]])
    report = evaluate(CertificateInputs(rho=0.4, alpha=1.3, availability=model))
    assert report.p_hat0 == pytest.approx(0.6)
    assert report.baseline_margin == pytest.approx(baseline_margin(0.6, 1.3, 0.4))
    assert report.upsilon_by_state.shape == (2,)
    assert "a1" in report.verdicts


@pytest.mark.parametrize("p0", [[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0, -0.0], [-0.0, -0.0, 0.0]])
def test_signed_zero_p_hat0_prints_the_zero_numpy_max_picks(p0):
    # p_hat0 is read as the largest p0|s; among tied zeros numpy's max need not pick the
    # first, as Python's max does, and the report prints the sign of the zero it keeps
    g = len(p0)
    model = MarkovAvailability(np.full((g, g), 1.0 / g), np.column_stack([p0, np.ones(g)]))
    lines = evaluate(CertificateInputs(0.5, 1.5, model)).lines()
    assert f"p_hat0={float(model.p0_by_state.max()):.12g}" in lines


NAN = float("nan")


@pytest.mark.parametrize("rho, alpha, pmf, field", [(NAN, 1.5, [0.5, 0.5], "^rho must"),
                                                    (0.5, NAN, [0.5, 0.5], "^alpha must"),
                                                    (0.5, 1.5, [0.5, NAN],
                                                     "^availability.p must be finite")])
def test_certificate_inputs_reject_nan(rho, alpha, pmf, field):
    # NaN fails every comparison, so a guard written as `alpha < 1.0` lets it pass
    with pytest.raises(ConfigError, match=field):
        CertificateInputs(rho=rho, alpha=alpha, availability=IidAvailability(pmf))


@pytest.mark.parametrize("rho, alpha, field", [(0.5, None, "^alpha must"),
                                               (0.5, "1.5", "^alpha must"),
                                               (0.5, True, "^alpha must"),
                                               (None, 1.5, "^rho must"),
                                               ("0.5", 1.5, "^rho must")])
def test_certificate_inputs_reject_rates_that_are_no_numbers(rho, alpha, field):
    # None and strings once raised a TypeError from a comparison; a bool is no rate either
    with pytest.raises(ConfigError, match=field):
        CertificateInputs(rho, alpha, IidAvailability([0.5, 0.5]))


def test_an_infinite_alpha_is_a_config_error():
    """An infinite alpha would give every margin as NaN with not_certified verdicts."""
    with pytest.raises(ConfigError, match="^alpha must be finite"):
        CertificateInputs(rho=0.5, alpha=float("inf"),
                          availability=IidAvailability([0.0, 0.5, 0.5]))


def test_certificate_inputs_validation():
    with pytest.raises(ConfigError):
        CertificateInputs(rho=1.0, alpha=1.5,
                          availability=IidAvailability([0.5, 0.5]))
    with pytest.raises(ConfigError):
        CertificateInputs(rho=0.5, alpha=0.9,
                          availability=IidAvailability([0.5, 0.5]))
