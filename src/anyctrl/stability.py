"""Closed-form stochastic-stability certificates for the buffered controllers.

All certificates return continuous margins (stable iff margin < 1) so that
parameter sweeps can plot margin against availability parameters instead of
a bare verdict. The Markov-model quantities operate on the thinned chain of
computation instants: `upsilon` damps each transition by its state's idle
probability, Q_bar = diag(p0|s) Q, and weights the end of a gap by the
per-state computation probabilities p_bar = 1 - p0|s.

`evaluate` on a Markov model works in this order (the model was
validated when it was built, by its constructor); the worst-state bound
alpha * p_hat0 < 1 is read from p_hat0, the largest p0|s, and only adds a
note when it fails; `upsilon` then forms alpha * Q_bar, decides the sharp
guard, its spectral radius against one (a Collatz-Wielandt bracket tested
at power-iteration steps 0, 1, 2 and then 4, 8, ..., 128 often decides
it early), and only past it forms the stacked products: rho * Q_bar beside
alpha * Q_bar, both inverses in one batched `inv` call, the powers of
rho * Q_bar, and every live state's products as one stacked matmul.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .availability import AvailabilityModel, IidAvailability, MarkovAvailability
from .errors import ConfigError, DivergenceError
from .plants import check_rates

MAX_CHAIN_STATES = 16


@dataclass(frozen=True)
class CertificateInputs:
    """Constants consumed by the certificates: contraction, growth, availability."""

    rho: float
    alpha: float
    availability: AvailabilityModel

    def __post_init__(self):
        rho, alpha = check_rates(self.rho, self.alpha)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "alpha", alpha)


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
    """Expected one-step contraction under the always-recompute controller.

    With sigma in place of rho it is the a1 margin (`a1_margin`).
    """
    return p0 * alpha + (1.0 - p0) * rho


def omega_l(length: int, p0: float, rho: float, alpha: float) -> float:
    """Expected contraction over one computation gap, given a stored sequence of `length`."""
    if p0 * alpha >= 1.0:
        raise DivergenceError(f"p0*alpha = {p0 * alpha} >= 1: certificate series diverges")
    pr = p0 * rho
    return rho * (1.0 - pr ** length) / (1.0 - pr) + alpha * pr ** length / (1.0 - p0 * alpha)


def sigma(model: IidAvailability, rho: float, alpha: float) -> float:
    """Effective contraction factor of the buffer-wiping controller.

    Since alpha >= 1, the guard p0*alpha < 1 also keeps p0 below one.
    """
    p0 = model.p0
    if p0 * alpha >= 1.0:
        raise DivergenceError(f"p0*alpha = {p0 * alpha} >= 1: certificate series diverges")
    ls = np.arange(1, model.max_len + 1)
    tail = float(np.sum(model.pmf[1:] * (p0 * rho) ** ls))
    return (rho * (1.0 - p0 * alpha) + (alpha - rho) / (1.0 - p0) * tail) / (1.0 - p0 * rho)


def a1_margin(model: IidAvailability, rho: float, alpha: float) -> float:
    return baseline_margin(model.p0, alpha, sigma(model, rho, alpha))


def omega(model: IidAvailability, rho: float, alpha: float) -> float:
    """Pmf-weighted gap contraction: sum of p_l * Omega_l over l >= 1.

    The terms are added one at a time in Python floats, in order of l and
    onto 0.0, which `tests/oracles.py` `omega_sum` pins bit for bit. The
    loop is explicit because `sum()` of floats is compensated from Python
    3.12 on.
    """
    p0, total = model.p0, 0.0
    for l, p in enumerate(model.pmf.tolist()[1:], 1):
        total += p * omega_l(l, p0, rho, alpha)
    return total


# --- Markov processor-state model ---

# the power iteration's step limit, and the change of the norm at which it stops
# (relative to the norm above one, absolute below)
POWER_ITERATIONS = 200
POWER_TOL = 1e-12
# power-iteration steps at which `spectral_radius` tests its Collatz-Wielandt bracket
BRACKET_CHECKPOINTS = (0, 1, 2, 4, 8, 16, 32, 64, 128)
# relative distance from `bound` that a bracket must clear; covers rounding drift
BRACKET_MARGIN = 1e-9


def spectral_radius(mat: np.ndarray, bound: float) -> float:
    """Power-iteration estimate of the Perron root of a nonnegative matrix, against `bound`.

    The caller only asks which side of `bound` the estimate lies on. The
    iteration runs at most POWER_ITERATIONS (200) steps from the all-ones
    vector and stops as soon as successive norms agree to POWER_TOL, so it
    can stop before it has converged: on slowly mixing or periodic chains
    the estimate can be off either way (for [[0, .9], [.4, 0]] it is 0.517;
    the root is 0.6). As the guard of `upsilon` it misjudges 22 of the 1024
    ring chains in the benchmark's certify pool. Each step takes the product
    with `ndarray.dot` and the norm as sqrt(w . w); these give the same
    iterates as `mat @ v` and `np.linalg.norm`, without their Python
    wrappers.

    The loop may answer early. At the steps in BRACKET_CHECKPOINTS it
    applies the Collatz-Wielandt test to the current iterate v >= 0 and
    w = mat . v: if w <= lo * v in every component, with
    lo = bound * (1 - BRACKET_MARGIN), then mat^j w <= lo * mat^(j-1) w for
    every j, because mat >= 0, so every later norm the loop would compute
    is at most lo, and it returns lo. If w >= hi * v with
    hi = bound * (1 + BRACKET_MARGIN), every later norm is at least hi, and
    it returns hi. Either way the returned end is on the same side of
    `bound` as the value of the full iteration. The margin covers the
    rounding drift between the computed and the exact iterates, about
    400 * G * eps (below 1.4e-12) over 200 steps. The norm of w, which the
    loop takes anyway, shows which end can hold, so only that one is
    tested. A decision at step s costs s + 1 products. The test runs at
    step 0, where v is the all-ones vector and it reads the row sums, so a
    matrix whose row sums all lie below `lo` is decided with one product;
    at steps 1 and 2, which decide over half of the certify pool's chains
    whose row sums straddle `bound`; and then at spacings that double up
    to step 128, so a matrix that the bracket never decides pays for nine
    tests. The lower end also bounds the true root, and the upper end does
    where v > 0, so the bracket mends no misjudged matrix: the 22 misjudged
    ring chains of the certify pool are never decided by it and still get
    the iteration's own value; only an exact eigen-solve mends them.
    """
    v = np.ones(mat.shape[0])
    radius, v_norm = 0.0, math.sqrt(v.size)
    checks = iter(BRACKET_CHECKPOINTS)
    check = next(checks)
    lo, hi = bound * (1.0 - BRACKET_MARGIN), bound * (1.0 + BRACKET_MARGIN)
    for step in range(POWER_ITERATIONS):
        w = mat.dot(v)
        nrm = math.sqrt(w.dot(w))
        if nrm == 0.0:
            return 0.0
        if abs(nrm - radius) <= (POWER_TOL * radius if radius > 1.0 else POWER_TOL):
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

    Entries for degenerate states (p0|s = 1) are NaN. Chains of more than
    MAX_CHAIN_STATES states are a ConfigError. Requires the sharp
    convergence guard: spectral radius of alpha * Q_bar below one, decided
    by `spectral_radius(..., bound=1.0)`. Its Collatz-Wielandt bracket
    gives the same verdict as the full power iteration, often in far fewer
    steps: when alpha * p_hat0 is below one by more than BRACKET_MARGIN, so
    is every row sum of alpha * Q_bar, and the first product decides the
    guard; over half of the other chains of the certify pool are decided by
    the second or third. The guard runs on alpha * Q_bar before
    rho * Q_bar is formed, so a chain that fails it forms nothing else.
    Every state is evaluated in one stacked pass with the same per-state
    arithmetic as a loop over states: rho * Q_bar and alpha * Q_bar share
    one (2, G, G) stack, I - rho * Q_bar and I - alpha * Q_bar are inverted
    in one batched call, the powers of rho * Q_bar are formed once, and each
    state's pmf-weighted sum of them is added term by term in order of l,
    as a loop over l adds it.
    """
    g = model.num_states
    if g > MAX_CHAIN_STATES:
        raise ConfigError(f"availability.Q: chain has {g} states; dense certificate evaluation "
                          f"supports at most {MAX_CHAIN_STATES}")
    p0, q_bar = model.p0_by_state, model.transition
    # row s scaled by p0|s: the same bits as diag(p0) @ Q, whose other terms are zeros
    q_damped = p0[:, None] * q_bar
    # scaled[1] = alpha * Q_bar is filled and guarded first, scaled[0] = rho * Q_bar only
    # past the guard; each is one scalar product. The guard iterates on the stack's slab:
    # on a separate alpha * Q_bar array the slow ring chains of the certify benchmark ran
    # 3-5% slower per power-iteration step.
    scaled = np.empty((2, g, g))
    np.multiply(alpha, q_damped, out=scaled[1])
    if spectral_radius(scaled[1], bound=1.0) >= 1.0:
        raise DivergenceError("spectral radius of alpha * Q_bar >= 1: series diverges")
    np.multiply(rho, q_damped, out=scaled[0])
    eye = np.eye(g)
    inv_rho, inv_alpha = np.linalg.inv(eye - scaled)
    rq = scaled[0]
    live = (p0 < 1.0).nonzero()[0]
    pmfs = model.cond_pmfs[live]
    # powers[l - 1] = (rho * Q_bar)^l, each the product of the one before with rho * Q_bar;
    # the first is rho * Q_bar itself, which `eye @ rq` gives exactly for finite entries
    powers = np.empty((model.max_len, g, g))
    powers[:1] = rq
    for l in range(1, model.max_len):
        np.matmul(powers[l - 1], rq, out=powers[l])
    # term l - 1 holds p_l|s * (rho * Q_bar)^l for every live s, added in order of l
    # onto zeros; np.add.reduce would sum a one-state chain's terms pairwise instead
    weighted = np.zeros((live.size, g, g))
    for term in pmfs.T[1:, :, None, None] * powers[:, None]:
        weighted += term
    scale = (alpha - rho) / (1.0 - pmfs[:, 0])
    core = rho * eye + scale[:, None, None] * inv_alpha @ weighted
    # (k, 1, G) rows keep each state's vector-matrix products as in the 1-D case
    out = np.full(g, np.nan)
    out[live] = (q_bar[live, None, :] @ inv_rho @ core @ (1.0 - p0))[:, 0]
    return out


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
        report.a1_margin = baseline_margin(model.p0, alpha, report.sigma)
        report.verdicts["a1"] = _verdict(report.a1_margin)
        report.verdicts["a2"] = report.verdicts["a1"]
        report.notes.append("the a1 certificate also certifies a2 (same margin)")
        return report

    # the baseline margin at the worst state's idle probability
    p_hat0 = report.p_hat0 = float(model.p0_by_state.max())
    report.baseline_margin = baseline_margin(p_hat0, alpha, rho)
    report.verdicts["baseline"] = _verdict(report.baseline_margin)
    if p_hat0 * alpha >= 1.0:
        report.notes.append("worst-state guard alpha*p_hat0 >= 1; falling back "
                            "to the sharp spectral-radius guard")
    try:
        report.upsilon_by_state = upsilon(model, rho, alpha)
    except DivergenceError:
        report.notes.append("growth-bound assumption violated: spectral radius of "
                            "alpha*Q_bar >= 1, anytime certificate yields no verdict")
        return report
    # NaN (degenerate states) fails `>= 1`, so only the other states decide
    report.verdicts["a1"] = ("not_certified" if (report.upsilon_by_state >= 1.0).any()
                             else "stable")
    return report
