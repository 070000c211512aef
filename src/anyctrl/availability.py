"""Processor-availability models for the sequence-length process N(k).

Two models are supported: i.i.d. draws from a pmf over {0, .., Lambda},
and a hidden Markov processor state g(k) with per-state conditional pmfs.
The execution-time construction maps the time tau needed to compute one
control input into the induced pmf (uniform availability model).

States of the Markov model are 0-indexed throughout.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Union

import numpy as np

from .errors import ConfigError

_TOL = 1e-12


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


def stationary_distribution(transition: np.ndarray, tol: float = 1e-12, max_iter: int = 100000) -> np.ndarray:
    """Stationary row vector of a row-stochastic matrix, by power iteration."""
    q = np.asarray(transition, dtype=float)
    pi = np.full(q.shape[0], 1.0 / q.shape[0])
    for _ in range(max_iter):
        nxt = pi @ q
        if np.max(np.abs(nxt - pi)) <= tol:
            return nxt
        pi = nxt
    return pi


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


def _pick(cumulative: np.ndarray, u) -> np.ndarray:
    """Invert a cdf at uniform draw(s); clipped against float residue at the top."""
    return np.minimum(np.searchsorted(cumulative, u, side="right"), cumulative.size - 1)


class IidSampler:
    """Draws N(k) i.i.d. from the model pmf. One uniform per call."""

    def __init__(self, model: IidAvailability, rng: np.random.Generator):
        self.model = model
        self.rng = rng
        self._cum = np.cumsum(model.pmf)

    def sample(self) -> int:
        return int(_pick(self._cum, self.rng.random()))

    def presample(self, count: int) -> np.ndarray:
        """Vectorized draw of `count` lengths; identical to `count` sample() calls."""
        return _pick(self._cum, self.rng.random(count)).astype(np.int64)


class MarkovSampler:
    """Draws N(k) from the conditional pmf of the current chain state.

    The state used for N(0) is the model's initial_state, or a stationary
    draw when unset. Each call consumes two uniforms: one for N(k) given
    g(k), one for the transition to g(k+1).
    """

    def __init__(self, model: MarkovAvailability, rng: np.random.Generator):
        self.model = model
        self.rng = rng
        self._cum_rows = np.cumsum(model.cond_pmfs, axis=1)
        self._cum_trans = np.cumsum(model.transition, axis=1)
        if model.initial_state is None:
            self.state = int(_pick(np.cumsum(model.stationary), rng.random()))
        else:
            self.state = model.initial_state

    def sample(self) -> int:
        n = int(_pick(self._cum_rows[self.state], self.rng.random()))
        self.state = int(_pick(self._cum_trans[self.state], self.rng.random()))
        return n

    def presample(self, count: int) -> np.ndarray:
        """Vectorized draw of `count` lengths; identical to `count` sample() calls.

        Only the chain walk is sequential; it bisects Python lists because a
        scalar numpy call per step costs more than the search itself. The
        lengths are then picked for all steps at once: counting the cdf
        entries <= u equals searchsorted(side="right") on a non-decreasing cdf.
        """
        us = self.rng.random((count, 2))
        cum_trans = self._cum_trans.tolist()
        last = self.model.num_states - 1
        states = []
        state = self.state
        for u in us[:, 1].tolist():
            states.append(state)
            state = min(bisect_right(cum_trans[state], u), last)
        self.state = state
        counts = (self._cum_rows[states] <= us[:, :1]).sum(axis=1)
        return np.minimum(counts, self.model.max_len).astype(np.int64)


Sampler = Union[IidSampler, MarkovSampler]


def make_sampler(model: AvailabilityModel, rng: np.random.Generator) -> Sampler:
    if isinstance(model, IidAvailability):
        return IidSampler(model, rng)
    return MarkovSampler(model, rng)
