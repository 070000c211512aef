"""Processor-availability models for the sequence-length process N(k).

Two models are supported: i.i.d. draws from a pmf over {0, .., Lambda},
and a hidden Markov processor state g(k) with per-state conditional pmfs.
The execution-time construction maps the time tau needed to compute one
control input into the induced pmf (uniform availability model). A model
is valid from construction: its constructor is the one call of `validate`.

States of the Markov model are 0-indexed throughout.

A sampler (`make_sampler`) draws N(k) on a sequence of Generators, one
per lane; `presample(count)` returns `(lanes, count)` lengths, and row r
is bit for bit what a sampler on the r-th Generator alone draws. A single
run is a one-lane sampler. `presample` is the only draw code: `sample()`,
one draw on a one-lane sampler, is `presample(1)`'s one length.
Presampled lengths are stored in the narrowest
unsigned type that holds Lambda (`length_dtype`): one byte per step up to
Lambda = 255, two up to 65535, four above. Code that adds step indices to
them widens them to int64 first.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, integer, real, reals

_TOL = 1e-12
TAU_MAX_LEN = np.iinfo(np.uint16).max  # the largest Lambda of an execution-time model
# time steps per block of the lockstep chain walk on many streams; a block
# holds every stream's uniforms and picks, O(streams x WALK_BLOCK) memory
WALK_BLOCK = 256
# streams from which the lockstep walk (a few us per array step) beats one
# bisect per stream and step (~0.2 us); both break even near 20 streams
LOCKSTEP_MIN_LANES = 24


def length_dtype(max_len: int) -> np.dtype:
    """The storage type of lengths in {0..max_len}: uint8 to 255, uint16 to 65535, else uint32."""
    return np.min_scalar_type(max_len)


@dataclass(frozen=True)
class IidAvailability:
    """i.i.d. sequence-length model: Pr{N(k) = l} = pmf[l], l in {0..Lambda}."""

    pmf: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pmf", reals(self.pmf, "availability.p"))
        self.pmf.setflags(write=False)
        if self.pmf.ndim != 1 or self.pmf.size < 1:
            raise ConfigError(f"availability.p must be a nonempty vector, got {self.pmf.tolist()}")
        problems = validate(self)
        if problems:
            raise ConfigError("availability.p: invalid availability model: " + "; ".join(problems))

    @property
    def max_len(self) -> int:
        return self.pmf.size - 1

    @property
    def p0(self) -> float:
        return float(self.pmf[0])


@dataclass(frozen=True)
class MarkovAvailability:
    """Markov processor-state model: transition matrix Q, conditional pmfs P.

    ``cond_pmfs`` has one row per state; row s is the pmf of N(k) given
    g(k) = s. ``initial_state`` is the chain state used for N(0); if None,
    the sampler draws it from the stationary distribution of Q.
    """

    transition: np.ndarray
    cond_pmfs: np.ndarray
    initial_state: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "transition", reals(self.transition, "availability.Q"))
        object.__setattr__(self, "cond_pmfs", reals(self.cond_pmfs, "availability.P"))
        self.transition.setflags(write=False)
        self.cond_pmfs.setflags(write=False)
        if self.transition.ndim != 2 or self.transition.shape[0] != self.transition.shape[1]:
            raise ConfigError("availability.Q, the transition matrix, must be square")
        if self.cond_pmfs.ndim != 2 or self.cond_pmfs.shape[0] != self.transition.shape[0]:
            raise ConfigError("availability.P must hold one pmf row per chain state")
        if self.initial_state is not None:
            state = integer(self.initial_state, "availability.initial_state")
            if not 0 <= state < self.num_states:
                raise ConfigError("availability.initial_state must lie in "
                                  f"0..{self.num_states - 1}, got {state}")
            object.__setattr__(self, "initial_state", state)
        problems = validate(self)
        if problems:
            raise ConfigError("availability: invalid availability model: " + "; ".join(problems))

    @property
    def num_states(self) -> int:
        return self.transition.shape[0]

    @property
    def max_len(self) -> int:
        return self.cond_pmfs.shape[1] - 1

    @property
    def p0_by_state(self) -> np.ndarray:
        return self.cond_pmfs[:, 0]

    @cached_property
    def stationary(self) -> np.ndarray:
        """Stationary distribution of the chain, computed once per model."""
        out = stationary_distribution(self.transition)
        out.setflags(write=False)
        return out


AvailabilityModel = Union[IidAvailability, MarkovAvailability]


def from_execution_time(tau: float) -> IidAvailability:
    """Uniform execution-time model: p_l = tau for l < Lambda, p_Lambda = 1 - Lambda*tau.

    Lambda = floor(1/tau) <= TAU_MAX_LEN, checked before the pmf is built, with a 1e-9
    snap so that integer 1/tau is stable under float rounding. A zero last entry is kept.
    """
    tau = real(tau, "availability.tau")
    if not 0.0 < tau < 1.0:
        raise ConfigError(f"availability.tau must lie in (0, 1), got {tau}")
    lam = np.floor(1.0 / tau + 1e-9)  # +inf for the smallest subnormals
    if lam > TAU_MAX_LEN:
        raise ConfigError(f"availability.tau must give Lambda = floor(1/tau) <= {TAU_MAX_LEN}, "
                          f"got {tau}")
    pmf = np.full(int(lam) + 1, tau)
    pmf[-1] = max(0.0, 1.0 - lam * tau)
    return IidAvailability(pmf)


def is_primitive(mat: np.ndarray) -> bool:
    """True iff some power of the nonnegative matrix is entrywise positive.

    A primitive G x G matrix has a positive power at or below G^2, and every
    higher power is positive too, so squaring until the exponent exceeds
    G^2 decides it in O(log G) boolean products.
    """
    g = mat.shape[0]
    power = mat > 0
    exponent = 1
    while np.count_nonzero(power) < power.size:  # a third of the time `.all()` takes
        if exponent > g * g:
            return False
        power = power @ power
        exponent *= 2
    return True


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary row vector of a row-stochastic matrix, by one linear solve.

    Solves the balance equations pi Q = pi together with sum(pi) = 1 in the
    least-squares sense, which is exact for the primitive chains a valid
    model has. A reducible chain has many stationary vectors; it gets the
    one of least norm instead of an error. Float residue can leave a zero
    entry a few ulps below 0; it is set to 0, so the cdf never decreases
    and every positive entry keeps its bits.
    """
    g = transition.shape[0]
    lhs = np.vstack([transition.T - np.eye(g), np.ones((1, g))])
    rhs = np.zeros(g + 1)
    rhs[-1] = 1.0
    return np.maximum(np.linalg.lstsq(lhs, rhs, rcond=None)[0], 0.0)


def validate(model: AvailabilityModel) -> List[str]:
    """Return every violated model invariant as a message; empty list means valid.

    Each sign test is one reduction, `min(initial=...) >= bound`: min
    propagates NaN and NaN fails every comparison, so a NaN entry is
    reported with the negative ones, and `initial` gives an empty array the
    answer of `.all()` on it. Row and pmf sums are tested as Python floats;
    a NaN sum passes `abs(s - 1) > tol`, so only the sign test reports it.
    The sums are taken with numpy's overflow and invalid warnings off: entries
    near 1e308 can sum to inf, or to NaN, which is reported, not raised.
    """
    problems: List[str] = []
    if isinstance(model, IidAvailability):
        if not model.pmf.min(initial=0.0) >= 0:
            problems.append("pmf has negative or NaN entries")
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(model.pmf.sum())
        if not abs(total - 1.0) <= _TOL:
            problems.append(f"pmf sums to {total}, not 1")
        if model.p0 >= 1.0 - _TOL:
            problems.append("p0 = 1: the processor is never available")
        return problems

    q, pmfs = model.transition, model.cond_pmfs
    with np.errstate(over="ignore", invalid="ignore"):
        row_sums, pmf_sums = q.sum(axis=1).tolist(), pmfs.sum(axis=1).tolist()
    q_signed = q.min(initial=0.0) >= 0
    if not q_signed:
        problems.append("transition matrix has negative or NaN entries")
    bad_rows = [f"transition row {i} sums to {total}, not 1"
                for i, total in enumerate(row_sums) if abs(total - 1.0) > _TOL]
    problems += bad_rows
    if not bad_rows and q_signed and not is_primitive(q):
        problems.append("transition matrix is not irreducible and aperiodic")
    if not pmfs.min(initial=0.0) >= 0:
        problems.append("conditional pmfs have negative or NaN entries")
    problems += [f"conditional pmf for state {i} sums to {total}, not 1"
                 for i, total in enumerate(pmf_sums) if abs(total - 1.0) > _TOL]
    if model.p0_by_state.min(initial=np.inf) >= 1.0 - _TOL:
        problems.append("every state has p0 = 1: the processor is never available")
    return problems


def _open_top(pmfs: np.ndarray) -> np.ndarray:
    """The cdfs of the pmf rows with their top entry set to +inf.

    A search then never runs past the last index: for u in [0, 1) and a
    non-decreasing row, searchsorted(side="right") picks the index that the
    search on the plain cdf, clipped to the last index against float
    residue at the top, picks.
    """
    out = np.cumsum(pmfs, axis=-1)
    out[..., -1] = np.inf
    return out


class _Sampler:
    """What both samplers share: one draw on a one-lane sampler."""

    def sample(self) -> int:
        """`presample(1)`'s one length; TypeError on a sampler of more lanes."""
        if len(self.rngs) != 1:
            raise TypeError(f"sample() draws on one Generator; this sampler has "
                            f"{len(self.rngs)} lanes, use presample()")
        return int(self.presample(1)[0, 0])


class IidSampler(_Sampler):
    """Draws N(k) i.i.d. from the model pmf. One uniform per step and lane."""

    def __init__(self, model: IidAvailability, rngs: Sequence):
        self.model = model
        self.rngs = rngs
        self.dtype = length_dtype(model.max_len)
        self._cum = _open_top(model.pmf)

    def presample(self, count: int) -> np.ndarray:
        """`count` lengths per lane, shape (lanes, count), as `self.dtype`."""
        # one lane at a time: no stacked uniforms or int64 indices beside the output
        out = np.empty((len(self.rngs), count), dtype=self.dtype)
        for n, rng in zip(out, self.rngs):
            n[:] = np.searchsorted(self._cum, rng.random(count), side="right")
        return out


class MarkovSampler(_Sampler):
    """Draws N(k) from the conditional pmf of the current chain state.

    The state used for N(0) is the model's initial_state, or a stationary
    draw when unset. Each step consumes two uniforms: one for N(k) given
    g(k), one for the transition to g(k+1).

    `state` holds every lane's chain state, as int64. `presample`
    walks each stream's chain with one bisect per step (`_walk_stream`),
    which at ~0.2 us beats any numpy call, unless there are at least
    LOCKSTEP_MIN_LANES lanes: then it walks all lanes in lockstep, one
    array step per time step (`_walk_lanes`). Either way lane r gets the
    lengths and final state that a one-lane sampler gives on stream r.
    """

    def __init__(self, model: MarkovAvailability, rngs: Sequence):
        self.model = model
        self.rngs = rngs
        self.dtype = length_dtype(model.max_len)
        # column i is the cdf of row i, so row j holds entry j of every state's cdf
        self._cum_rows_cols = np.ascontiguousarray(_open_top(model.cond_pmfs).T)
        cum_trans = _open_top(model.transition)
        self._cum_trans_cols = np.ascontiguousarray(cum_trans.T)
        # Python lists: the sequential chain walk bisects them, because a
        # scalar numpy call per step costs more than the search itself
        self._cum_trans = cum_trans.tolist()
        if model.initial_state is None:
            stationary = _open_top(model.stationary).tolist()
            first = [bisect_right(stationary, rng.random()) for rng in rngs]
        else:
            first = [model.initial_state] * len(rngs)
        self.state = np.array(first, dtype=np.int64)

    def _pick(self, states, u) -> np.ndarray:
        """N given each state: the count of its cdf entries <= u.

        On a non-decreasing cdf that count is searchsorted(side="right").
        One cdf entry at a time keeps the temporaries the shape of `u`; the
        +inf top entry is never <= u and is skipped. The counts are `self.dtype`.
        """
        states = np.asarray(states, dtype=np.int64)
        n = np.zeros(states.shape, dtype=self.dtype)
        for entry in self._cum_rows_cols[:-1]:
            n += entry.take(states) <= u
        return n

    def presample(self, count: int) -> np.ndarray:
        """`count` lengths per lane, shape (lanes, count), as `self.dtype`.

        Only the chain walk is sequential. The lengths are then picked for
        all steps at once.
        """
        if len(self.rngs) >= LOCKSTEP_MIN_LANES:
            return self._walk_lanes(count)
        out = np.empty((len(self.rngs), count), dtype=self.dtype)
        for r, (n, rng, state) in enumerate(zip(out, self.rngs, self.state.tolist())):
            n[:], self.state[r] = self._walk_stream(rng, state, count)
        return out

    def _walk_stream(self, rng, state: int, count: int):
        """One stream's lengths from `state` on, and its state after them."""
        us = rng.random((count, 2))
        cum_trans = self._cum_trans
        states = []
        for u in us[:, 1].tolist():
            states.append(state)
            state = bisect_right(cum_trans[state], u)
        return self._pick(states, us[:, 0]), state

    def _walk_lanes(self, count: int) -> np.ndarray:
        """Every lane's chain, WALK_BLOCK steps at a time.

        Each block draws each stream's (steps, 2) uniforms, which continues
        the stream in the order one (count, 2) draw takes it, then moves all
        lanes one step per array step: gather each lane's cdf row, compare
        it with the lane's uniform and count the entries <= u, which is
        bisect_right on the row. Memory stays O(lanes x WALK_BLOCK).
        """
        lanes = len(self.rngs)
        out = np.empty((lanes, count), dtype=self.dtype)
        rows = np.empty((self.model.num_states, lanes))
        hits = np.empty(rows.shape, dtype=bool)
        # row k: every lane's state at step start + k
        states = np.empty((WALK_BLOCK + 1, lanes), dtype=np.int64)
        states[0] = self.state
        for start in range(0, count, WALK_BLOCK):
            steps = min(WALK_BLOCK, count - start)
            us = np.empty((steps, 2, lanes))  # us[k, :, r]: lane r's two uniforms at step k
            for r, rng in enumerate(self.rngs):
                us[:, :, r] = rng.random((steps, 2))
            for k in range(steps):
                # mode="clip" skips take's buffered bounds check; every state is in range
                self._cum_trans_cols.take(states[k], axis=1, out=rows, mode="clip")
                np.less_equal(rows, us[k, 1], out=hits)
                hits.sum(axis=0, dtype=np.int64, out=states[k + 1])
            out[:, start:start + steps] = self._pick(states[:steps], us[:, 0]).T
            states[0] = states[steps]
        self.state = states[0].copy()
        return out


Sampler = Union[IidSampler, MarkovSampler]


def make_sampler(model: AvailabilityModel, rngs: Sequence) -> Sampler:
    """A sampler on a sequence of Generators, one per lane: `(len(rngs),)` lanes."""
    if isinstance(model, IidAvailability):
        return IidSampler(model, rngs)
    return MarkovSampler(model, rngs)
