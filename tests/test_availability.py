import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from anyctrl import availability
from anyctrl.availability import (TAU_MAX_LEN, WALK_BLOCK, IidAvailability, MarkovAvailability,
                                  from_execution_time, is_primitive, length_dtype,
                                  make_sampler, stationary_distribution,
                                  validate)
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
    lam = int(np.floor(1.0 / tau + 1e-9))
    # one less only where Lambda entries of tau would exceed one
    assert m.max_len == lam or (m.max_len == lam - 1 and Fraction(tau) * lam > 1)
    assert np.all(m.pmf >= 0)
    assert abs(float(m.pmf.sum()) - 1.0) < 1e-9
    assert validate(m) == []


@pytest.mark.parametrize("tau", [0.3333333334, 0.25000000001, 0.5000000001, 0.1 + 1e-13])
def test_exec_time_just_above_one_over_k_takes_one_entry_less(tau):
    # the snap gives Lambda = k, but k entries of tau sum above one by more than the tolerance
    # (0.1 + 1e-13 by 1e-12 exactly, which its pmf's sum exceeds)
    k = int(np.floor(1.0 / tau + 1e-9))
    model = from_execution_time(tau)
    assert model.max_len == k - 1 and model.pmf[:-1].tolist() == [tau] * (k - 1)
    assert model.pmf[-1] == 1.0 - (k - 1) * tau


@given(st.integers(2, TAU_MAX_LEN), st.integers(-4, 4),
       st.sampled_from([0.0, 1e-15, 1e-13, 1e-12, 3e-12, 1e-11, 1e-10, 2e-9]))
@example(10, 0, 1e-12)  # tau = 0.1 + 1e-13
def test_exec_time_near_one_over_k_builds(k, ulps, rel):
    """tau within a few ulps and 2e-9 above 1/k: Lambda = floor(1/tau + 1e-9), less one
    only where Lambda * tau exceeds one, and the pmf validates."""
    tau = 1.0 / k * (1.0 + rel)
    for _ in range(abs(ulps)):
        tau = math.nextafter(tau, math.copysign(1.0, ulps))
    lam = int(np.floor(1.0 / tau + 1e-9))
    assume(lam <= TAU_MAX_LEN)
    model = from_execution_time(tau)  # validated by its constructor
    excess = Fraction(tau) * lam - 1
    if excess <= 1e-15:  # 1/tau rounds to lam: the snap keeps it
        assert model.max_len == lam
    elif excess > 2e-12:  # no rounding brings lam entries of tau back within 1e-12 of one
        assert model.max_len == lam - 1
    else:
        assert model.max_len in (lam - 1, lam)
    assert model.pmf[:-1].tolist() == [tau] * model.max_len


# the last four: a Lambda above 65535, checked before the pmf of floor(1/tau) + 1 floats
# is allocated (8 GB at tau 1e-9)
@pytest.mark.parametrize("tau", [0.0, 1.0, -0.2, 1.5, 1e-300, 1e-15, 1.0 / 65536, 5e-324])
def test_exec_time_rejects_bad_tau(tau):
    with pytest.raises(ConfigError, match="^availability.tau must"):
        from_execution_time(tau)


def rejected(*arrays) -> str:
    """The ConfigError message of building the model of `arrays` (a pmf, or Q and P)."""
    build = IidAvailability if len(arrays) == 1 else MarkovAvailability
    with pytest.raises(ConfigError) as info:
        build(*arrays)
    return str(info.value)


def test_exec_time_takes_the_largest_two_byte_lambda():
    model = from_execution_time(1.0 / 65535)
    assert model.max_len == 65535 and length_dtype(model.max_len) == np.uint16
    assert length_dtype(65536) == np.uint32  # what an i.i.d. pmf of more entries is stored as


def test_validate_iid():
    assert validate(IidAvailability([0.5, 0.5])) == []
    for pmf, problem in (([0.5, 0.6], "sums"), ([1.2, -0.2], "negative"),
                         ([1.0, 0.0], "p0")):  # the last: processor never available
        message = rejected(pmf)
        assert message == oracles.model_error(pmf) and problem in message


def test_validate_markov():
    q = [[0.9, 0.1], [0.2, 0.8]]
    pmfs = [[0.1, 0.9], [0.8, 0.2]]
    assert validate(MarkovAvailability(q, pmfs)) == []
    for bad_q, problem in (([[0.9, 0.2], [0.2, 0.8]], "row 0"),
                           ([[1.0, 0.0], [0.0, 1.0]], "irreducible")):
        message = rejected(bad_q, pmfs)
        assert message == oracles.model_error(bad_q, pmfs) and problem in message


NAN = float("nan")
Q, PMFS = [[0.9, 0.1], [0.2, 0.8]], [[0.1, 0.9], [0.8, 0.2]]


@pytest.mark.parametrize("arrays, field", [
    (([NAN, 0.5, 0.5],), "availability.p"),
    (([0.5, NAN],), "availability.p"),
    (([[NAN, 1.0], [0.5, 0.5]], PMFS), "availability.Q"),
    ((Q, [[0.1, 0.9], [NAN, 0.2]]), "availability.P"),
], ids=["iid-p0", "iid-last", "markov-Q", "markov-P"])
def test_a_nan_entry_is_a_config_error_naming_its_field(arrays, field):
    # NaN fails every comparison, so a guard written as `x < 0` lets it pass
    assert rejected(*arrays) == f"{field} must be finite, got nan"


# entries that break an invariant, or sit on either side of its 1e-12 tolerance, or
# overflow a sum
ODD_ENTRIES = (NAN, np.inf, -np.inf, -0.0, -1e-300, -0.25, 0.0, 1.0, 1.0 - 5e-13,
               1.0 + 2e-12, 5e-13, 2e-12, 1e308, -1e308)
# relative changes of a row: inside the tolerance, just outside it, far outside it
ROW_NUDGES = (0.0, 5e-13, -5e-13, 2e-12, -2e-12, 1e-9, -0.5)


def _weight_rows(draw, count, width):
    """Integer weights 0..3 per row (zero entries, reducible and periodic chains), normalised."""
    w = draw(arrays(np.int64, (count, width), elements=st.integers(0, 3))).astype(float)
    w[:, :1][w.sum(axis=1) == 0] = 1.0  # no column to set in a 0 x 0 matrix
    return w / w.sum(axis=1, keepdims=True)


def _spoil(draw, mat):
    """Nudge some rows' sums and overwrite some entries with ODD_ENTRIES."""
    if not mat.size:
        return mat
    for _ in range(draw(st.integers(0, 2))):
        mat[draw(st.integers(0, mat.shape[0] - 1))] *= 1.0 + draw(st.sampled_from(ROW_NUDGES))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, mat.shape[0] - 1)), draw(st.integers(0, mat.shape[1] - 1))
        mat[i, j] = draw(st.sampled_from(ODD_ENTRIES))
    return mat


@st.composite
def flawed_arrays(draw):
    """The arrays of i.i.d. pmfs and Markov models of 0..6 states with NaN, +-inf and
    negative entries, sums off by about the tolerance or overflowing, reducible or periodic
    chains and all-idle states: a pmf, or a (transition, cond_pmfs) pair."""
    lam = draw(st.integers(0, 4))
    if draw(st.booleans()):
        return (_spoil(draw, _weight_rows(draw, 1, lam + 1))[0],)
    g = draw(st.integers(0, 6))
    if g and draw(st.booleans()):
        transition = np.eye(g)[list(draw(st.permutations(range(g))))]
    else:
        transition = _weight_rows(draw, g, g)
    pmfs = _weight_rows(draw, g, lam + 1)
    idle = draw(arrays(np.bool_, g, elements=st.booleans()))
    if draw(st.booleans()):
        idle[:] = True
    pmfs[idle] = np.eye(lam + 1)[0]
    return _spoil(draw, transition), _spoil(draw, pmfs)


@given(flawed_arrays())
@settings(max_examples=600, deadline=None)
# +inf and -inf are no finite entries, named before any invariant is tested
@example((np.array([np.inf, -np.inf]),))
@example((np.array([[1.0]]), np.array([[np.inf, -np.inf]])))
@example((np.array([[np.inf, -np.inf], [0.5, 0.5]]), np.eye(2)))
# finite entries can sum to inf, and to NaN where numpy's eight partial sums (one per lane,
# then added in pairs) overflow to +inf and -inf: reported, not raised as a warning
@example((np.array([0.0, 1e308, 1e308]),))
@example((np.array([0.0, 1e308, 1e308, 0.0, -1e308, -1e308, 0.0, 1.0]),))
@example((np.array([[1.0]]), np.array([[0.0, 1e308, 1e308, 0.0, -1e308, -1e308, 0.0, 1.0]])))
def test_constructors_reject_what_the_elementwise_checks_report(arrays):
    want = oracles.model_error(*arrays)
    if want is not None:
        assert rejected(*arrays) == want
        return
    model = (IidAvailability if len(arrays) == 1 else MarkovAvailability)(*arrays)
    assert validate(model) == oracles.validate_elementwise(*arrays) == []


def test_validate_a_chain_of_no_states():
    # min() of an empty array raises, while `.all()` of one holds: no state can compute
    arrays = np.zeros((0, 0)), np.zeros((0, 3))
    assert oracles.validate_elementwise(*arrays) == [
        "every state has p0 = 1: the processor is never available"]
    assert rejected(*arrays) == oracles.model_error(*arrays)


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


def test_stationary_distribution_of_a_residue_chain_has_a_rising_cdf():
    """A chain whose first row ends 4 ulps above 1 and barely leaves state 0: the solve
    leaves -2.9e-16 for state 1."""
    model = MarkovAvailability([[1.0000000000000004, 5e-324], [1.0, 0.0]],
                               [[0.5, 0.5], [1.0, 0.0]])
    assert model.stationary.tolist() == [1.0, 0.0]
    assert np.all(np.diff(np.cumsum(model.stationary)) >= 0.0)
    for u in near_the_top(model):
        assert make_sampler(model, [ScriptedRng([u])]).state.tolist() == [0]
        assert oracles.sample_loop(model, ScriptedRng([u]), 0) == ([], 0)


@st.composite
def primitive_chains(draw):
    """Row-stochastic G x G matrices, G = 1..16, with a self-loop and a ring edge per state."""
    g = draw(st.integers(min_value=1, max_value=16))
    weights = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=g, max_size=g),
                                     min_size=g, max_size=g)), dtype=float)
    states = np.arange(g)
    weights[states, states] += 1.0  # aperiodic
    weights[states, (states + 1) % g] += 1.0  # irreducible
    return weights / weights.sum(axis=1, keepdims=True)


@given(primitive_chains())
@settings(max_examples=200, deadline=None)
def test_stationary_distribution_solves_balance_equations(q):
    assert is_primitive(q)
    pi = stationary_distribution(q)
    assert pi.shape == (q.shape[0],)
    assert (pi >= 0.0).all()
    assert abs(pi.sum() - 1.0) <= 1e-14
    assert np.max(np.abs(pi @ q - pi)) <= 1e-14


def test_iid_sampler_frequencies():
    model = from_execution_time(0.3)
    rng = np.random.default_rng(0)
    draws = make_sampler(model, [rng]).presample(200_000)[0]
    freq = np.bincount(draws, minlength=4) / draws.size
    np.testing.assert_allclose(freq, model.pmf, atol=0.01)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=50, deadline=None)
def test_presample_matches_repeated_sample_iid(seed, count):
    model = IidAvailability([0.4, 0.3, 0.3])
    a = make_sampler(model, [np.random.default_rng(seed)])
    b = make_sampler(model, [np.random.default_rng(seed)])
    ones = [a.sample() for _ in range(count)]
    assert np.array_equal(b.presample(count), [ones])
    assert ones == oracles.sample_loop(model, np.random.default_rng(seed), count)[0]


def _stochastic_rows(draw, count, width, self_loops):
    """Rows from small integer weights, so zero entries tie in the cdf.

    An all-zero row becomes the degenerate pmf e_0. A self-loop keeps a
    transition matrix aperiodic.
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


def accepted(*arrays, initial_state=None):
    """The model of `arrays` (a pmf, or Q and P); a draw the constructor would reject is
    rejected, by the reference checks, so strategies draw only models that build."""
    assume(oracles.model_error(*arrays) is None)
    if len(arrays) == 1:
        return IidAvailability(*arrays)
    return MarkovAvailability(*arrays, initial_state=initial_state)


@st.composite
def markov_models(draw):
    states = draw(st.integers(min_value=2, max_value=16))
    max_len = draw(st.integers(min_value=1, max_value=8))
    return accepted(_stochastic_rows(draw, states, states, self_loops=True),
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
        a = make_sampler(model, [make_rng()])
        b = make_sampler(model, [make_rng()])
        ones = [a.sample() for _ in range(count)]
        assert np.array_equal(b.presample(count), [ones])
        assert a.state.tolist() == b.state.tolist()
        assert (ones, int(a.state[0])) == oracles.sample_loop(model, make_rng(), count)


def test_markov_conditional_frequencies():
    # state 0 is generous, state 1 starves the controller
    model = MarkovAvailability([[0.5, 0.5], [0.5, 0.5]],
                               [[0.0, 0.2, 0.8], [0.9, 0.1, 0.0]],
                               initial_state=0)
    sampler = make_sampler(model, [np.random.default_rng(3)])
    draws = sampler.presample(200_000)[0]
    # both states visited half the time under this symmetric chain
    freq = np.bincount(draws, minlength=3) / draws.size
    expected = 0.5 * model.cond_pmfs[0] + 0.5 * model.cond_pmfs[1]
    np.testing.assert_allclose(freq, expected, atol=0.01)


@st.composite
def residue_chains(draw):
    """Chains of 1-16 states whose cdf rows end a few ulps below or above 1.

    Each row's largest entry is moved by up to four ulps either way, so the
    float residue of its cumulative sum lands on both sides of 1.
    """
    states = draw(st.integers(min_value=1, max_value=16))
    max_len = draw(st.integers(min_value=1, max_value=8))  # at Lambda 0 every state is idle

    def rows(width):
        out = []
        for _ in range(states):
            weights = np.array(draw(st.lists(st.integers(0, 3), min_size=width, max_size=width)),
                               dtype=float)
            weights[draw(st.integers(0, width - 1))] += 1.0
            row = weights / weights.sum()
            big = int(row.argmax())
            shift = draw(st.integers(-4, 4))
            for _ in range(abs(shift)):
                row[big] = np.nextafter(row[big], np.sign(shift) * np.inf)
            out.append(row)
        return np.array(out)

    initial = draw(st.one_of(st.none(), st.integers(0, states - 1)))
    return accepted(rows(states), rows(max_len + 1), initial_state=initial)


def near_the_top(model):
    """Uniforms that decide ties and the top of every cdf row: cdf values and their neighbours."""
    if isinstance(model, IidAvailability):
        cdfs = np.cumsum(model.pmf)
    else:
        cdfs = np.concatenate([np.cumsum(model.transition, axis=1).ravel(),
                               np.cumsum(model.cond_pmfs, axis=1).ravel(),
                               np.cumsum(model.stationary)])
    top = [1.0]
    for _ in range(4):
        top.append(np.nextafter(top[-1], 0.0))
    values = np.concatenate([cdfs, np.nextafter(cdfs, 0.0), np.nextafter(cdfs, 2.0), top])
    return np.unique(values[(values >= 0.0) & (values < 1.0)])


@given(residue_chains(), st.sampled_from([0, 1, 1001]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_presample_equals_sample_loop_at_the_top_of_the_cdf(model, count, seed):
    rng = np.random.default_rng(seed)
    script = rng.random(2 * count + 1)
    special = rng.random(script.size) < 0.5
    script[special] = rng.choice(near_the_top(model), int(special.sum()))
    a = make_sampler(model, [ScriptedRng(script)])
    b = make_sampler(model, [ScriptedRng(script)])
    ones = [a.sample() for _ in range(count)]
    assert np.array_equal(b.presample(count), [ones])
    assert a.state.tolist() == b.state.tolist()
    assert (ones, int(a.state[0])) == oracles.sample_loop(model, ScriptedRng(script), count)


@st.composite
def iid_models(draw):
    width = draw(st.integers(min_value=2, max_value=9))  # a pmf of one entry is always idle
    return accepted(_stochastic_rows(draw, 1, width, self_loops=False)[0])


def _with_both_initial_states(model):
    """The model with its chain's initial state unset and set (an i.i.d. model as is)."""
    if isinstance(model, IidAvailability):
        return [model]
    start = model.initial_state or model.num_states - 1
    return [replace(model, initial_state=None), replace(model, initial_state=start)]


@given(st.one_of(markov_models(), residue_chains(), iid_models()),
       st.sampled_from([1, 2, 23, 24, 100]),
       st.sampled_from([0, 1, WALK_BLOCK - 1, WALK_BLOCK, WALK_BLOCK + 1, 1001]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_lane_sampler_rows_equal_single_stream_samplers(drawn, streams, count, seed):
    """Row r of a many-stream sampler, and its lane r state, are `sample_loop`'s on stream r.

    The lane counts are those around the 24 lanes at which the sampler once
    switched from a per-stream walk to the lockstep walk. The oracle steps
    in Python, so it checks the first and last rows.
    """
    rng = np.random.default_rng(seed)
    for model in _with_both_initial_states(drawn):
        scripts = rng.random((streams, 2 * count + 1))
        special = rng.random(scripts.shape) < 0.5
        scripts[special] = rng.choice(near_the_top(model), int(special.sum()))
        seeds = rng.integers(2 ** 32, size=streams)
        for make_rng, keys in ((ScriptedRng, scripts), (np.random.default_rng, seeds)):
            lanes = make_sampler(model, [make_rng(key) for key in keys])
            got = lanes.presample(count)
            # one byte per length up to Lambda = 255
            assert got.shape == (streams, count) and got.dtype == np.min_scalar_type(model.max_len)
            for r in {0, streams - 1}:
                want, state = oracles.sample_loop(model, make_rng(keys[r]), count)
                assert got[r].tolist() == want
                if state is not None:
                    assert lanes.state[r] == state


@pytest.mark.parametrize("model", [IidAvailability([0.5, 0.5]),
                                   MarkovAvailability([[1.0]], [[0.5, 0.5]])])
def test_sample_needs_one_stream(model):
    sampler = make_sampler(model, [np.random.default_rng(0), np.random.default_rng(1)])
    with pytest.raises(TypeError, match="sample\\(\\) draws on one Generator"):
        sampler.sample()


@given(st.one_of(markov_models(), iid_models()), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 300))
@example(from_execution_time(0.23), 3, 300)
@settings(max_examples=60, deadline=None)
def test_one_lane_sample_draws_equal_sample_loop(drawn, seed, count):
    """`count` sample() calls: the oracle's lengths and chain state, and its stream's next double.

    A Markov model runs with its initial state unset and set.
    """
    for model in _with_both_initial_states(drawn):
        sampler = make_sampler(model, [np.random.default_rng(seed)])
        ones = [sampler.sample() for _ in range(count)]
        rng = np.random.default_rng(seed)
        want, state = oracles.sample_loop(model, rng, count)
        assert ones == want and all(type(n) is int for n in ones)
        if state is not None:
            assert int(sampler.state[0]) == state
        assert sampler.rngs[0].random() == rng.random()
