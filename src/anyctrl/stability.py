"""Closed-form stochastic-stability certificates for the buffered controllers.

All certificates return continuous margins (stable iff margin < 1) so that
parameter sweeps can plot margin against availability parameters instead of
a bare verdict. The Markov-model quantities operate on the thinned chain of
computation instants; its one-step statistics are captured by the matrices
built in :func:`markov_bars`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .availability import (AvailabilityModel, IidAvailability,
                           MarkovAvailability, require_valid)
from .errors import ConfigError, DegenerateStateError, DivergenceError

MAX_CHAIN_STATES = 16


@dataclass(frozen=True)
class CertificateInputs:
    """Constants consumed by the certificates: contraction, growth, availability."""

    rho: float
    alpha: float
    availability: AvailabilityModel

    def __post_init__(self):
        if not (0.0 <= self.rho < 1.0):
            raise ConfigError(f"rho must lie in [0, 1), got {self.rho}")
        if self.alpha < 1.0:
            raise ConfigError(f"alpha must be >= 1, got {self.alpha}")
        require_valid(self.availability)


@dataclass
class StabilityReport:
    """Evaluated margins with verdicts ('stable' / 'not_certified')."""

    baseline_margin: Optional[float] = None
    sigma: Optional[float] = None
    omega: Optional[float] = None
    a1_margin: Optional[float] = None
    p_hat0: Optional[float] = None
    upsilon_by_state: Optional[np.ndarray] = None
    verdicts: Dict[str, str] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def lines(self) -> List[str]:
        out = []
        for name in ("baseline_margin", "sigma", "omega", "a1_margin", "p_hat0"):
            value = getattr(self, name)
            if value is not None:
                out.append(f"{name}={value:.12g}")
        if self.upsilon_by_state is not None:
            for i, v in enumerate(self.upsilon_by_state):
                out.append(f"upsilon[{i}]={v:.12g}")
        for cert, verdict in self.verdicts.items():
            out.append(f"verdict.{cert}={verdict}")
        for note in self.notes:
            out.append(f"note={note}")
        return out


def baseline_margin(p0: float, alpha: float, rho: float) -> float:
    """Expected one-step contraction under the always-recompute controller."""
    return p0 * alpha + (1.0 - p0) * rho


def omega_l(length: int, p0: float, rho: float, alpha: float) -> float:
    """Expected contraction over one computation gap, given a stored sequence of `length`."""
    if p0 * alpha >= 1.0:
        raise DivergenceError(f"p0*alpha = {p0 * alpha} >= 1: certificate series diverges")
    if length < 1:
        raise ConfigError(f"sequence length must be >= 1, got {length}")
    pr = p0 * rho
    return rho * (1.0 - pr ** length) / (1.0 - pr) + alpha * pr ** length / (1.0 - p0 * alpha)


def sigma(model: IidAvailability, rho: float, alpha: float) -> float:
    """Effective contraction factor of the buffer-wiping controller."""
    p0 = model.p0
    if p0 * alpha >= 1.0:
        raise DivergenceError(f"p0*alpha = {p0 * alpha} >= 1: certificate series diverges")
    if p0 >= 1.0:
        raise DivergenceError("p0 = 1: the processor is never available")
    ls = np.arange(1, model.max_len + 1)
    tail = float(np.sum(model.pmf[1:] * (p0 * rho) ** ls))
    return (rho * (1.0 - p0 * alpha) + (alpha - rho) / (1.0 - p0) * tail) / (1.0 - p0 * rho)


def a1_margin(model: IidAvailability, rho: float, alpha: float) -> float:
    p0 = model.p0
    return p0 * alpha + (1.0 - p0) * sigma(model, rho, alpha)


def omega(model: IidAvailability, rho: float, alpha: float) -> float:
    """Pmf-weighted gap contraction: sum of p_l * Omega_l over l >= 1."""
    return float(sum(model.pmf[l] * omega_l(l, model.p0, rho, alpha)
                     for l in range(1, model.max_len + 1)))


def seq_len_prob(model: IidAvailability) -> float:
    """Probability that the next computation arrives before the stored sequence runs out."""
    p0 = model.p0
    if p0 >= 1.0:
        raise DivergenceError("p0 = 1: the processor is never available")
    ls = np.arange(1, model.max_len + 1)
    return float(np.sum(model.pmf[1:] * (1.0 - p0 ** ls)) / (1.0 - p0))


def a2_overrun_prob(model: IidAvailability, lam_prev: int) -> float:
    """Probability that playback outlives the fresh sequence but not the kept tail.

    `lam_prev` is the effective buffer length carried into the computation
    instant; the event is empty for lam_prev <= 1.
    """
    if not (0 <= lam_prev <= model.max_len):
        raise ConfigError(f"lam_prev {lam_prev} outside 0..{model.max_len}")
    p0 = model.p0
    total = 0.0
    for l in range(1, model.max_len + 1):
        total += model.pmf[l] * (p0 ** l - p0 ** max(l, lam_prev - 1))
    return total / (1.0 - p0)


# --- Markov processor-state model ---

def _check_states(model: MarkovAvailability):
    if model.num_states > MAX_CHAIN_STATES:
        raise ConfigError(
            f"chain has {model.num_states} states; dense certificate evaluation "
            f"supports at most {MAX_CHAIN_STATES}")


def markov_bars(model: MarkovAvailability) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gap-statistics matrices: (row vectors q_bar, Q_bar, p_bar).

    Q_bar = diag(p0|s) Q damps transitions by the per-state idle
    probability; p_bar stacks the per-state computation probabilities.
    """
    _check_states(model)
    q_bar = model.transition
    q_damped = np.diag(model.p0_by_state) @ model.transition
    p_bar = 1.0 - model.p0_by_state
    return q_bar, q_damped, p_bar


def delta_pmf(model: MarkovAvailability, state: int, gap: int) -> float:
    """Pr{gap between computations = `gap` | chain state at the last computation}."""
    if not (0 <= state < model.num_states):
        raise ConfigError(f"state {state} outside 0..{model.num_states - 1}")
    if model.p0_by_state[state] >= 1.0:
        raise DegenerateStateError(
            f"state {state} has p0 = 1; gap statistics are undefined from it")
    if gap < 1:
        raise ConfigError(f"gap must be >= 1, got {gap}")
    q_bar, q_damped, p_bar = markov_bars(model)
    return float(q_bar[state] @ np.linalg.matrix_power(q_damped, gap - 1) @ p_bar)


# power-iteration steps at which `spectral_radius` tests its Collatz-Wielandt bracket
BRACKET_CHECKPOINTS = (0, 4, 8, 16, 32, 64, 128)
# relative distance from `bound` that a bracket must clear; covers rounding drift
BRACKET_MARGIN = 1e-9


def spectral_radius(mat: np.ndarray, iterations: int = 200, tol: float = 1e-12,
                    bound: Optional[float] = None) -> float:
    """Estimate of the Perron root of a nonnegative matrix by power iteration.

    Runs at most `iterations` (200) steps from the all-ones vector and stops
    as soon as successive norms agree to `tol`, so it can return before it
    has converged: on slowly mixing or periodic chains the value can be off
    either way (for [[0, .9], [.4, 0]] it returns 0.517; the root is 0.6).
    As the guard of `upsilon` it misjudges 22 of the 1024 ring chains in the
    benchmark's certify pool. Each step takes the product with `ndarray.dot`
    and the norm as sqrt(w . w); these give the same iterates as `mat @ v`
    and `np.linalg.norm`, without their Python wrappers.

    With `bound` set, the caller only asks which side of `bound` the value
    lies on, and the loop may answer early. At the steps in
    BRACKET_CHECKPOINTS it applies the Collatz-Wielandt test to the current
    iterate v >= 0 and w = mat . v: if w <= lo * v in every component, with
    lo = bound * (1 - BRACKET_MARGIN), then mat^j w <= lo * mat^(j-1) w for
    every j, because mat >= 0, so every later norm the loop would compute
    is at most lo, and it returns lo. If w >= hi * v with
    hi = bound * (1 + BRACKET_MARGIN), every later norm is at least hi, and
    it returns hi. Either way the returned end is on the same side of
    `bound` as the value of the full iteration. The margin covers the
    rounding drift between the computed and the exact iterates, about
    400 * G * eps (below 1.4e-12) over 200 steps. The norm of w, which the
    loop takes anyway, shows which end can hold, so only that one is
    tested, and the checkpoints double in spacing, so a matrix that the
    bracket never decides pays for seven tests. At step 0, v is the
    all-ones vector and the test reads the row sums, so a matrix whose row
    sums all lie below `lo` is decided with one product. The lower end also
    bounds the true root, and the upper end does where v > 0, so the
    bracket mends no misjudged matrix: the 22 misjudged ring chains of the
    certify pool are never decided by it and still get the iteration's own
    value; only an exact eigen-solve mends them.
    """
    v = np.ones(mat.shape[0])
    radius, v_norm = 0.0, math.sqrt(v.size)
    checks = iter(BRACKET_CHECKPOINTS if bound is not None else ())
    check = next(checks, -1)
    if bound is not None:
        lo, hi = bound * (1.0 - BRACKET_MARGIN), bound * (1.0 + BRACKET_MARGIN)
    for step in range(iterations):
        w = mat.dot(v)
        nrm = math.sqrt(w.dot(w))
        if nrm == 0.0:
            return 0.0
        if abs(nrm - radius) <= (tol * radius if radius > 1.0 else tol):
            return nrm
        if step == check:
            check = next(checks, -1)
            # w <= lo * v forces |w| <= lo * |v|, and w >= hi * v forces
            # |w| >= hi * |v|, so the norms leave at most one end to test
            if nrm < bound * v_norm:
                if np.count_nonzero(w <= lo * v) == w.size:
                    return lo
            elif np.count_nonzero(w >= hi * v) == w.size:
                return hi
        radius, v_norm = nrm, 1.0
        v = w / nrm
    return radius


def upsilon(model: MarkovAvailability, rho: float, alpha: float) -> np.ndarray:
    """Per-state gap contraction factors for the buffer-wiping controller.

    Entries for degenerate states (p0|s = 1) are NaN. Requires the sharp
    convergence guard: spectral radius of alpha * Q_bar below one, decided
    by `spectral_radius(..., bound=1.0)`. Its Collatz-Wielandt bracket
    gives the same verdict as the full power iteration, often in far fewer
    steps: when alpha * p_hat0 is below one by more than BRACKET_MARGIN, so
    is every row sum of alpha * Q_bar, and the first product decides the
    guard. Every state is evaluated in one stacked pass: the powers of
    rho * Q_bar are formed once, and each state's matrix products run as
    one batched matmul with the same per-state arithmetic as a loop over
    states.
    """
    _check_states(model)
    q_bar, q_damped, p_bar = markov_bars(model)
    if spectral_radius(alpha * q_damped, bound=1.0) >= 1.0:
        raise DivergenceError("spectral radius of alpha * Q_bar >= 1: series diverges")
    g = model.num_states
    eye = np.eye(g)
    inv_rho = np.linalg.inv(eye - rho * q_damped)
    inv_alpha = np.linalg.inv(eye - alpha * q_damped)
    rq = rho * q_damped
    live = np.flatnonzero(model.p0_by_state < 1.0)
    pmfs = model.cond_pmfs[live]
    weighted = np.zeros((live.size, g, g))
    power = eye
    for l in range(1, model.max_len + 1):
        power = power @ rq
        weighted += pmfs[:, l, None, None] * power
    scale = (alpha - rho) / (1.0 - pmfs[:, 0])
    core = rho * eye + scale[:, None, None] * inv_alpha @ weighted
    # (k, 1, G) rows keep each state's vector-matrix products as in the 1-D case
    out = np.full(g, np.nan)
    out[live] = (q_bar[live, None, :] @ inv_rho @ core @ p_bar)[:, 0]
    return out


def markov_baseline(model: MarkovAvailability, rho: float, alpha: float) -> Tuple[float, float]:
    """Worst-state idle probability and the induced baseline margin."""
    p_hat0 = float(np.max(model.p0_by_state))
    return p_hat0, baseline_margin(p_hat0, alpha, rho)


def _verdict(margin: float) -> str:
    return "stable" if margin < 1.0 else "not_certified"


def evaluate(inputs: CertificateInputs) -> StabilityReport:
    """Evaluate every certificate applicable to the supplied availability model."""
    report = StabilityReport()
    rho, alpha = inputs.rho, inputs.alpha
    model = inputs.availability

    if isinstance(model, IidAvailability):
        report.baseline_margin = baseline_margin(model.p0, alpha, rho)
        report.verdicts["baseline"] = _verdict(report.baseline_margin)
        if model.p0 * alpha >= 1.0:
            report.notes.append("growth-bound assumption violated: p0*alpha >= 1, "
                                "anytime certificates yield no verdict")
            return report
        report.sigma = sigma(model, rho, alpha)
        report.omega = omega(model, rho, alpha)
        report.a1_margin = a1_margin(model, rho, alpha)
        report.verdicts["a1"] = _verdict(report.a1_margin)
        report.verdicts["a2"] = report.verdicts["a1"]
        report.notes.append("the a1 certificate also certifies a2 (same margin)")
        return report

    p_hat0, margin = markov_baseline(model, rho, alpha)
    report.p_hat0 = p_hat0
    report.baseline_margin = margin
    report.verdicts["baseline"] = _verdict(margin)
    if p_hat0 * alpha >= 1.0:
        report.notes.append("worst-state guard alpha*p_hat0 >= 1; falling back "
                            "to the sharp spectral-radius guard")
    try:
        report.upsilon_by_state = upsilon(model, rho, alpha)
    except DivergenceError:
        report.notes.append("growth-bound assumption violated: spectral radius of "
                            "alpha*Q_bar >= 1, anytime certificate yields no verdict")
        return report
    finite = report.upsilon_by_state[~np.isnan(report.upsilon_by_state)]
    report.verdicts["a1"] = "stable" if np.all(finite < 1.0) else "not_certified"
    return report
