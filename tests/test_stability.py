import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from anyctrl.availability import (IidAvailability, MarkovAvailability,
                                  from_execution_time)
from anyctrl.errors import (ConfigError, DegenerateStateError,
                            DivergenceError)
from anyctrl.stability import (CertificateInputs, a1_margin, a2_overrun_prob,
                               baseline_margin, delta_pmf, evaluate,
                               markov_baseline, markov_bars, omega, omega_l,
                               seq_len_prob, sigma, spectral_radius, upsilon)

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


def test_omega_sigma_identity():
    for seed in range(100):
        rng = np.random.default_rng(200 + seed)
        model, rho, alpha = random_iid_instance(rng)
        lhs = omega(model, rho, alpha)
        rhs = (1.0 - model.p0) * sigma(model, rho, alpha) / (1.0 - model.p0 * alpha)
        assert abs(lhs - rhs) < 1e-12


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
    assert seq_len_prob(model) == pytest.approx(want, abs=1e-15)
    # a cap at one fresh input makes overrun onto the kept tail impossible
    assert a2_overrun_prob(model, 0) == 0.0
    assert a2_overrun_prob(model, 1) == 0.0
    assert a2_overrun_prob(model, 3) > 0.0
    with pytest.raises(ConfigError):
        a2_overrun_prob(model, 9)


def test_a2_overrun_prob_formula():
    model = from_execution_time(0.3)
    p0 = model.p0
    lam_prev = 3
    want = sum(model.pmf[l] * (p0 ** l - p0 ** max(l, lam_prev - 1))
               for l in range(1, 4)) / (1 - p0)
    assert a2_overrun_prob(model, lam_prev) == pytest.approx(want, abs=1e-15)


def test_markov_bars_shapes():
    model = MarkovAvailability([[0.9, 0.1], [0.2, 0.8]],
                               [[0.3, 0.7, 0.0], [0.5, 0.2, 0.3]])
    q_bar, q_damped, p_bar = markov_bars(model)
    np.testing.assert_array_equal(q_bar, model.transition)
    np.testing.assert_allclose(q_damped, np.diag([0.3, 0.5]) @ model.transition)
    np.testing.assert_allclose(p_bar, [0.7, 0.5])


def test_delta_pmf_matches_literal_product():
    rng = np.random.default_rng(5)
    model, _, _ = random_markov_instance(rng)
    for state in range(model.num_states):
        total = 0.0
        for gap in range(1, 200):
            want = oracles.gap_pmf_series(model.transition, model.cond_pmfs,
                                          state, gap)
            got = delta_pmf(model, state, gap)
            assert got == pytest.approx(want, abs=1e-12)
            total += got
        assert total == pytest.approx(1.0, abs=1e-6)  # gap lengths are exhaustive


def test_delta_pmf_geometric_under_single_state():
    model = MarkovAvailability([[1.0]], [[0.4, 0.6]])
    for gap in range(1, 20):
        assert delta_pmf(model, 0, gap) == pytest.approx(
            0.4 ** (gap - 1) * 0.6, abs=1e-12)


def test_delta_pmf_degenerate_state():
    model = MarkovAvailability([[0.5, 0.5], [0.5, 0.5]],
                               [[1.0, 0.0], [0.2, 0.8]])
    with pytest.raises(DegenerateStateError):
        delta_pmf(model, 0, 1)
    assert delta_pmf(model, 1, 1) > 0.0


def test_spectral_radius():
    assert spectral_radius(np.diag([0.2, 0.7])) == pytest.approx(0.7, abs=1e-9)
    q = np.array([[0.5, 0.5], [0.4, 0.6]])
    assert spectral_radius(q) == pytest.approx(1.0, abs=1e-9)


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
def certificate_chains(draw):
    """A Markov model (G = 1..16, Lambda = 1..8) with zero entries and e_0 pmf rows, plus rho, alpha."""
    g = draw(st.integers(1, 16))
    lam = draw(st.integers(1, 8))
    transition = _weight_rows(draw, g, g)
    pmfs = _weight_rows(draw, g, lam + 1)
    degenerate = draw(arrays(np.bool_, g, elements=st.booleans()))
    pmfs[degenerate] = np.eye(lam + 1)[0]
    rho = draw(st.floats(0.0, 0.99))
    alpha = draw(st.one_of(st.just(1.0), st.floats(1.0, 3.0)))
    return MarkovAvailability(transition, pmfs), rho, alpha


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


@given(certificate_chains())
@settings(max_examples=300, deadline=None)
def test_upsilon_stacked_matches_per_state_loop(case):
    model, rho, alpha = case
    want = _outcome(oracles.upsilon_per_state, model.transition, model.cond_pmfs, rho, alpha)
    got = _outcome(upsilon, model, rho, alpha)
    if want is None:
        assert got is DivergenceError
    elif isinstance(want, type):
        assert got is want
    else:
        assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()


@st.composite
def nonnegative_matrices(draw):
    """Integer-weight and 0/1 matrices, slow sparse rings and periodic (block-cyclic) matrices, scaled."""
    g = draw(st.integers(1, 16))
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


@given(nonnegative_matrices())
@settings(max_examples=300, deadline=None)
def test_spectral_radius_matches_norm_loop(mat):
    assert spectral_radius(mat) == oracles.spectral_radius_loop(mat)


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
    p_hat0, margin = markov_baseline(model, 0.4, 1.3)
    assert report.p_hat0 == pytest.approx(0.6)
    assert report.baseline_margin == pytest.approx(margin)
    assert report.upsilon_by_state.shape == (2,)
    assert "a1" in report.verdicts


def test_certificate_inputs_validation():
    with pytest.raises(ConfigError):
        CertificateInputs(rho=1.0, alpha=1.5,
                          availability=IidAvailability([0.5, 0.5]))
    with pytest.raises(ConfigError):
        CertificateInputs(rho=0.5, alpha=0.9,
                          availability=IidAvailability([0.5, 0.5]))
