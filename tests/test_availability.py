import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from anyctrl.availability import (IidAvailability, MarkovAvailability,
                                  from_execution_time, is_primitive,
                                  make_sampler, stationary_distribution,
                                  validate, require_valid)
from anyctrl.errors import ConfigError

import oracles


def test_exec_time_examples():
    m = from_execution_time(0.23)
    assert m.max_len == 4
    np.testing.assert_allclose(m.pmf, [0.23, 0.23, 0.23, 0.23, 0.08])
    m = from_execution_time(0.3)
    np.testing.assert_allclose(m.pmf, [0.3, 0.3, 0.3, 0.1])
    # integer reciprocal: the last entry collapses to zero but is kept
    m = from_execution_time(0.5)
    assert m.max_len == 2
    np.testing.assert_allclose(m.pmf, [0.5, 0.5, 0.0])


@given(st.floats(min_value=0.01, max_value=0.99))
def test_exec_time_is_a_distribution(tau):
    m = from_execution_time(tau)
    assert m.max_len == int(np.floor(1.0 / tau + 1e-9))
    assert np.all(m.pmf >= 0)
    assert abs(float(m.pmf.sum()) - 1.0) < 1e-9
    assert validate(m) == []


@pytest.mark.parametrize("tau", [0.0, 1.0, -0.2, 1.5])
def test_exec_time_rejects_bad_tau(tau):
    with pytest.raises(ConfigError):
        from_execution_time(tau)


def test_validate_iid():
    assert validate(IidAvailability([0.5, 0.5])) == []
    assert any("sums" in p for p in validate(IidAvailability([0.5, 0.6])))
    assert any("negative" in p for p in validate(IidAvailability([1.2, -0.2])))
    # processor never available
    assert any("p0" in p for p in validate(IidAvailability([1.0, 0.0])))
    with pytest.raises(ConfigError):
        require_valid(IidAvailability([1.0, 0.0]))


def test_validate_markov():
    q = [[0.9, 0.1], [0.2, 0.8]]
    pmfs = [[0.1, 0.9], [0.8, 0.2]]
    assert validate(MarkovAvailability(q, pmfs)) == []
    bad_rows = MarkovAvailability([[0.9, 0.2], [0.2, 0.8]], pmfs)
    assert any("row 0" in p for p in validate(bad_rows))
    reducible = MarkovAvailability([[1.0, 0.0], [0.0, 1.0]], pmfs)
    assert any("irreducible" in p for p in validate(reducible))


def test_is_primitive():
    assert is_primitive(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert not is_primitive(np.eye(2))
    # period-2 chain: irreducible but not aperiodic
    assert not is_primitive(np.array([[0.0, 1.0], [1.0, 0.0]]))


def _wielandt(g):
    """The primitive 0/1 matrix whose first positive power is the largest, (G-1)^2 + 1."""
    mat = np.roll(np.eye(g), 1, axis=1)
    mat[g - 1, 1 % g] = 1.0
    return mat


@pytest.mark.parametrize("g", range(2, 17))
def test_is_primitive_wielandt_bound(g):
    assert is_primitive(_wielandt(g))
    assert oracles.is_primitive_stepwise(_wielandt(g))


@st.composite
def zero_one_matrices(draw):
    """Random 0/1 matrices of G = 1..16, permutations and bipartite blocks."""
    g = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(("random", "permutation", "bipartite")))
    if kind == "permutation":
        perm = draw(st.permutations(range(g)))
        mat = np.eye(g)[list(perm)]
        extra = draw(st.lists(st.tuples(st.integers(0, g - 1), st.integers(0, g - 1)), max_size=2))
        for i, j in extra:
            mat[i, j] = 1.0
        return mat
    mat = draw(arrays(np.int64, (g, g), elements=st.integers(0, 1))).astype(float)
    if kind == "bipartite":
        side = np.arange(g) < draw(st.integers(0, g))
        mat *= side[:, None] != side[None, :]
    return mat


@given(zero_one_matrices())
@settings(max_examples=400, deadline=None)
def test_is_primitive_squaring_matches_stepwise(mat):
    assert is_primitive(mat) == oracles.is_primitive_stepwise(mat)


def test_stationary_distribution_fixed_point():
    q = np.array([[0.9, 0.1], [0.3, 0.7]])
    pi = stationary_distribution(q)
    np.testing.assert_allclose(pi @ q, pi, atol=1e-10)
    np.testing.assert_allclose(pi.sum(), 1.0, atol=1e-10)
    np.testing.assert_allclose(pi, [0.75, 0.25], atol=1e-9)


def test_iid_sampler_frequencies():
    model = from_execution_time(0.3)
    rng = np.random.default_rng(0)
    draws = make_sampler(model, rng).presample(200_000)
    freq = np.bincount(draws, minlength=4) / draws.size
    np.testing.assert_allclose(freq, model.pmf, atol=0.01)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=50, deadline=None)
def test_presample_matches_repeated_sample_iid(seed, count):
    model = IidAvailability([0.4, 0.3, 0.3])
    a = make_sampler(model, np.random.default_rng(seed))
    b = make_sampler(model, np.random.default_rng(seed))
    ones = [a.sample() for _ in range(count)]
    assert np.array_equal(b.presample(count), ones)


def _stochastic_rows(draw, count, width, self_loops):
    """Rows from small integer weights, so zero entries tie in the cdf.

    An all-zero row becomes the degenerate pmf e_0. A self-loop keeps a
    transition matrix aperiodic, so its stationary power iteration converges.
    """
    rows = []
    for i in range(count):
        weights = draw(st.lists(st.integers(0, 3), min_size=width, max_size=width))
        if self_loops:
            weights[i] += 1
        elif not any(weights) or draw(st.integers(0, 7)) == 0:
            weights = [1] + [0] * (width - 1)
        rows.append(np.array(weights, dtype=float) / sum(weights))
    return np.array(rows)


@st.composite
def markov_models(draw):
    states = draw(st.integers(min_value=2, max_value=16))
    max_len = draw(st.integers(min_value=1, max_value=8))
    return MarkovAvailability(
        _stochastic_rows(draw, states, states, self_loops=True),
        _stochastic_rows(draw, states, max_len + 1, self_loops=False),
        initial_state=draw(st.one_of(st.none(), st.integers(0, states - 1))))


class ScriptedRng:
    """Stands in for a numpy Generator: hands out fixed uniforms in call order."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None):
        if size is None:
            return self._values.pop(0)
        count = int(np.prod(size))
        out, self._values = self._values[:count], self._values[count:]
        return np.array(out).reshape(size)


@given(markov_models(), st.integers(min_value=0, max_value=2 ** 32 - 1), st.data())
@settings(max_examples=100, deadline=None)
def test_presample_matches_repeated_sample_markov(model, seed, data):
    count = data.draw(st.integers(min_value=1, max_value=64))
    # uniforms that land exactly on a cdf value decide ties between
    # zero-probability entries and, just below 1, the clip at the top
    cdf_values = np.concatenate([np.cumsum(model.transition, axis=1).ravel(),
                                 np.cumsum(model.cond_pmfs, axis=1).ravel(), [0.0]])
    uniform = st.one_of(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                        st.sampled_from(sorted(set(cdf_values[cdf_values < 1.0].tolist()))))
    script = data.draw(st.lists(uniform, min_size=2 * count + 1, max_size=2 * count + 1))
    for make_rng in (lambda: ScriptedRng(script), lambda: np.random.default_rng(seed)):
        a = make_sampler(model, make_rng())
        b = make_sampler(model, make_rng())
        ones = [a.sample() for _ in range(count)]
        assert np.array_equal(b.presample(count), ones)
        assert a.state == b.state


def test_markov_conditional_frequencies():
    # state 0 is generous, state 1 starves the controller
    model = MarkovAvailability([[0.5, 0.5], [0.5, 0.5]],
                               [[0.0, 0.2, 0.8], [0.9, 0.1, 0.0]],
                               initial_state=0)
    sampler = make_sampler(model, np.random.default_rng(3))
    draws = sampler.presample(200_000)
    # both states visited half the time under this symmetric chain
    freq = np.bincount(draws, minlength=3) / draws.size
    expected = 0.5 * model.cond_pmfs[0] + 0.5 * model.cond_pmfs[1]
    np.testing.assert_allclose(freq, expected, atol=0.01)
