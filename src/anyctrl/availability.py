"""Processor-availability models for the sequence-length process N(k).

Two models are supported: i.i.d. draws from a pmf over {0, .., Lambda},
and a hidden Markov processor state g(k) with per-state conditional pmfs.
The execution-time construction maps the time tau needed to compute one
control input into the induced pmf (uniform availability model).

States of the Markov model are 0-indexed throughout.

A sampler (`make_sampler`) draws N(k) on one Generator, lanes `()`, or on
a sequence of per-run Generators, lanes `(runs,)`; `presample(count)`
returns `lanes + (count,)` lengths, and row r is bit for bit what a
sampler on the r-th Generator alone draws. `sample()`, one draw, needs a
sampler on one Generator. Presampled lengths are stored in the narrowest
unsigned type that holds Lambda (`length_dtype`): one byte per step up to
Lambda = 255, two above. Code that adds step indices to them widens them
to int64 first.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Union

import numpy as np

from .errors import ConfigError

_TOL = 1e-12
# time steps per block of the lockstep chain walk on many streams; a block
# holds every stream's uniforms and picks, O(streams x WALK_BLOCK) memory
WALK_BLOCK = 256
# streams from which the lockstep walk (a few us per array step) beats one
# bisect per stream and step (~0.2 us); both break even near 20 streams
LOCKSTEP_MIN_LANES = 24


def length_dtype(max_len: int) -> np.dtype:
    """The storage type of presampled lengths in {0..max_len}: uint8 up to 255, uint16 above."""
    return np.min_scalar_type(max_len)


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class IidAvailability:
    """i.i.d. sequence-length model: Pr{N(k) = l} = pmf[l], l in {0..Lambda}."""

    pmf: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pmf", _frozen(self.pmf))
        if self.pmf.ndim != 1 or self.pmf.size < 1:
            raise ConfigError("availability pmf must be a nonempty vector")

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
        object.__setattr__(self, "transition", _frozen(self.transition))
        object.__setattr__(self, "cond_pmfs", _frozen(self.cond_pmfs))
        if self.transition.ndim != 2 or self.transition.shape[0] != self.transition.shape[1]:
            raise ConfigError("transition matrix must be square")
        if self.cond_pmfs.ndim != 2 or self.cond_pmfs.shape[0] != self.transition.shape[0]:
            raise ConfigError("conditional pmfs must have one row per chain state")
        if self.initial_state is not None and not (0 <= self.initial_state < self.num_states):
            raise ConfigError(f"initial_state {self.initial_state} out of range")

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
        return _frozen(stationary_distribution(self.transition))


AvailabilityModel = Union[IidAvailability, MarkovAvailability]


def from_execution_time(tau: float) -> IidAvailability:
    """Uniform execution-time model: p_l = tau for l < Lambda, p_Lambda = 1 - Lambda*tau.

    Lambda = floor(1/tau), with a 1e-9 snap so that integer 1/tau is stable
    under float rounding. A zero last entry is kept rather than shrunk.
    """
    if not (0.0 < tau < 1.0):
        raise ConfigError(f"execution time tau must lie in (0, 1), got {tau}")
    lam = int(np.floor(1.0 / tau + 1e-9))
    pmf = np.full(lam + 1, tau)
    pmf[lam] = max(0.0, 1.0 - lam * tau)
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
    while not power.all():
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
    q = np.asarray(transition, dtype=float)
    g = q.shape[0]
    lhs = np.vstack([q.T - np.eye(g), np.ones((1, g))])
    rhs = np.zeros(g + 1)
    rhs[-1] = 1.0
    return np.maximum(np.linalg.lstsq(lhs, rhs, rcond=None)[0], 0.0)


def validate(model: AvailabilityModel) -> List[str]:
    """Return every violated model invariant as a message; empty list means valid."""
    problems: List[str] = []
    if isinstance(model, IidAvailability):
        if np.any(model.pmf < 0):
            problems.append("pmf has negative entries")
        if abs(float(model.pmf.sum()) - 1.0) > _TOL:
            problems.append(f"pmf sums to {float(model.pmf.sum())}, not 1")
        if model.p0 >= 1.0 - _TOL:
            problems.append("p0 = 1: the processor is never available")
        return problems

    q = model.transition
    q_negative = (q < 0).any()
    if q_negative:
        problems.append("transition matrix has negative entries")
    row_sums = q.sum(axis=1)
    bad = (np.abs(row_sums - 1.0) > _TOL).nonzero()[0]
    for i in bad:
        problems.append(f"transition row {i} sums to {row_sums[i]}, not 1")
    if not bad.size and not q_negative and not is_primitive(q):
        problems.append("transition matrix is not irreducible and aperiodic")
    if (model.cond_pmfs < 0).any():
        problems.append("conditional pmfs have negative entries")
    pmf_sums = model.cond_pmfs.sum(axis=1)
    for i in (np.abs(pmf_sums - 1.0) > _TOL).nonzero()[0]:
        problems.append(f"conditional pmf for state {i} sums to {pmf_sums[i]}, not 1")
    if (model.p0_by_state >= 1.0 - _TOL).all():
        problems.append("every state has p0 = 1: the processor is never available")
    return problems


def require_valid(model: AvailabilityModel) -> AvailabilityModel:
    problems = validate(model)
    if problems:
        raise ConfigError("invalid availability model: " + "; ".join(problems))
    return model


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


def _lanes(rng) -> tuple:
    """() for one Generator, (len(rng),) for a sequence of them, one per lane."""
    return () if hasattr(rng, "random") else (len(rng),)


def _one_stream(sampler) -> None:
    if sampler.lanes:
        raise TypeError(f"sample() draws on one Generator; this sampler has "
                        f"{sampler.lanes[0]} lanes, use presample()")


class IidSampler:
    """Draws N(k) i.i.d. from the model pmf. One uniform per step and lane."""

    def __init__(self, model: IidAvailability, rng):
        self.model = model
        self.rng = rng
        self.lanes = _lanes(rng)
        self.dtype = length_dtype(model.max_len)
        self._cum = _open_top(model.pmf)

    def sample(self) -> int:
        """One draw on a single stream."""
        _one_stream(self)
        return int(np.searchsorted(self._cum, self.rng.random(), side="right"))

    def presample(self, count: int) -> np.ndarray:
        """`count` lengths per lane, shape lanes + (count,), as `self.dtype`.

        Identical to `count` sample() calls.
        """
        streams = self.rng if self.lanes else [self.rng]
        # one lane at a time: no stacked uniforms or int64 indices beside the output
        out = np.empty((len(streams), count), dtype=self.dtype)
        for n, rng in zip(out, streams):
            n[:] = np.searchsorted(self._cum, rng.random(count), side="right")
        return out.reshape(self.lanes + (count,))


class MarkovSampler:
    """Draws N(k) from the conditional pmf of the current chain state.

    The state used for N(0) is the model's initial_state, or a stationary
    draw when unset. Each step consumes two uniforms: one for N(k) given
    g(k), one for the transition to g(k+1).

    On one Generator `state` is the chain state; on a sequence of
    Generators, one per lane, it holds every lane's state. `presample`
    walks each stream's chain with one bisect per step (`_walk_stream`),
    which at ~0.2 us beats any numpy call, unless there are at least
    LOCKSTEP_MIN_LANES lanes: then it walks all lanes in lockstep, one
    array step per time step (`_walk_lanes`). Either way lane r gets the
    lengths and final state that one Generator gives on stream r.
    """

    def __init__(self, model: MarkovAvailability, rng):
        self.model = model
        self.rng = rng
        self.lanes = _lanes(rng)
        self.dtype = length_dtype(model.max_len)
        # column i is the cdf of row i, so row j holds entry j of every state's cdf
        self._cum_rows_cols = np.ascontiguousarray(_open_top(model.cond_pmfs).T)
        cum_trans = _open_top(model.transition)
        self._cum_trans_cols = np.ascontiguousarray(cum_trans.T)
        # Python lists: the sequential chain walk bisects them, because a
        # scalar numpy call per step costs more than the search itself
        self._cum_trans = cum_trans.tolist()
        streams = self.rng if self.lanes else [self.rng]
        if model.initial_state is None:
            stationary = _open_top(model.stationary).tolist()
            first = [bisect_right(stationary, rng.random()) for rng in streams]
        else:
            first = [model.initial_state] * len(streams)
        self.state = np.array(first, dtype=np.int64) if self.lanes else first[0]

    def sample(self) -> int:
        """One draw on a single stream."""
        _one_stream(self)
        n = int(np.searchsorted(self._cum_rows_cols[:, self.state], self.rng.random(),
                                side="right"))
        self.state = bisect_right(self._cum_trans[self.state], self.rng.random())
        return n

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
        """`count` lengths per lane, shape lanes + (count,), as `self.dtype`.

        Identical to `count` sample() calls. Only the chain walk is
        sequential. The lengths are then picked for all steps at once.
        """
        if self.lanes and self.lanes[0] >= LOCKSTEP_MIN_LANES:
            return self._walk_lanes(count)
        streams = self.rng if self.lanes else [self.rng]
        out = np.empty((len(streams), count), dtype=self.dtype)
        last = []
        for n, rng, state in zip(out, streams, np.atleast_1d(self.state).tolist()):
            n[:], state = self._walk_stream(rng, state, count)
            last.append(state)
        self.state = np.array(last, dtype=np.int64) if self.lanes else last[0]
        return out.reshape(self.lanes + (count,))

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
        lanes = len(self.rng)
        out = np.empty((lanes, count), dtype=self.dtype)
        rows = np.empty((self.model.num_states, lanes))
        hits = np.empty(rows.shape, dtype=bool)
        # row k: every lane's state at step start + k
        states = np.empty((WALK_BLOCK + 1, lanes), dtype=np.int64)
        states[0] = self.state
        for start in range(0, count, WALK_BLOCK):
            steps = min(WALK_BLOCK, count - start)
            us = np.empty((steps, 2, lanes))  # us[k, :, r]: lane r's two uniforms at step k
            for r, rng in enumerate(self.rng):
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


def make_sampler(model: AvailabilityModel, rng) -> Sampler:
    """A sampler on one Generator (lanes `()`) or on a sequence of them (lanes `(len(rng),)`)."""
    if isinstance(model, IidAvailability):
        return IidSampler(model, rng)
    return MarkovSampler(model, rng)
