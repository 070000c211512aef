"""Plant abstractions and the built-in benchmark plants.

A plant bundles discrete-time dynamics ``x(k+1) = f(x(k), u(k), w(k))``
with a Lyapunov function ``V``, a stabilizing policy ``kappa``, and the
closed-loop contraction factor ``rho`` / open-loop growth factor ``alpha``
used by the stability certificates.

Every plant broadcasts: ``f``, ``kappa`` and ``V`` accept arrays with the
state/input/disturbance components on the last axis and broadcast over
leading axes. The controller kernel and the simulation loop rely on it.
A plant may also fuse one step of the nominal closed loop, which has no
disturbance, ``(kappa(x), f(x, kappa(x), 0))``, into one call
(``closed_loop``) that shares the work the two calls repeat; the
controller's rollout takes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ConfigError, real

SQRT5 = math.sqrt(5.0)
# float64 arrays share this descriptor, so `dtype is FLOAT64` tests one cheaply; an
# equal descriptor that is another object only sends a call to the array path
FLOAT64 = np.dtype(np.float64)
# sat_2d's closed-loop map computes a stack of at most this many rows in
# Python floats, one row at a time. The map costs about 5 us on the array path
# whatever the rows; the row path takes 0.33 of that at 1 row, 0.56 at 4, 0.81-0.84
# at 8 and 1.14-1.20 at 12 (three runs; 2-core VM, Python 3.11.7, numpy 2.4.6).
# One run's ring, a trace episode's, has at most C rows in flight
ROW_CALL_MAX = 8
# each disturbance kind and the DisturbanceModel fields it reads
DISTURBANCE_KEYS = {"none": (), "uniform": ("lo", "hi"), "gaussian": ("mean", "variance")}


@dataclass(frozen=True)
class DisturbanceModel:
    """Per-step additive disturbance: none, uniform(lo, hi) or gaussian(mean, variance)."""

    kind: str = "none"
    lo: float = 0.0
    hi: float = 0.0
    mean: float = 0.0
    variance: float = 0.0

    def __post_init__(self):
        if self.kind not in DISTURBANCE_KEYS:
            raise ConfigError(f"unknown disturbance kind {self.kind!r}")
        # a NaN or infinite parameter would draw NaN or +-inf
        for key in DISTURBANCE_KEYS[self.kind]:
            object.__setattr__(self, key, real(getattr(self, key), f"disturbance.{key}"))
        if self.kind == "uniform" and not self.lo <= self.hi:
            raise ConfigError(f"disturbance.lo must be <= disturbance.hi, got lo={self.lo}, "
                              f"hi={self.hi}")
        if self.kind == "gaussian" and not self.variance >= 0:
            raise ConfigError(f"disturbance.variance must be >= 0, got {self.variance}")

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Draw disturbances of the given shape, whose last axis is the plant's m."""
        if self.kind == "none":
            return np.zeros(shape)
        if self.kind == "uniform":
            return rng.random(shape) * (self.hi - self.lo) + self.lo
        return rng.standard_normal(shape) * np.sqrt(self.variance) + self.mean


@dataclass(frozen=True)
class PlantModel:
    """A plant with certified policy: dynamics, Lyapunov data, and rate constants.

    ``alpha`` may be None for plants where no global open-loop growth bound
    exists (the cubic benchmark); simulation never needs it, only the
    certificate evaluation does.

    The callables broadcast over leading axes, component axis last, and a
    stack's result equals its rows' results row by row: ``f`` maps states
    ``(..., n)``, inputs ``(..., p)`` and disturbances ``(..., m)`` to
    ``(..., n)``, ``policy`` maps ``(..., n)`` to ``(..., p)`` and
    ``lyapunov`` maps ``(..., n)`` to ``(...)``. Row-by-row equality is what
    lets a plant compute a small call in Python floats, one row at a time,
    where numpy's set-up per call would cost more than the rows: sat_2d does
    so for a rollout's stack of up to ROW_CALL_MAX rows and a 1-D ``f`` call,
    with the same IEEE operations in the same order as its array path, so
    either path gives the same bits.

    ``closed_loop``, if not None, maps states ``x`` to ``(policy(x), f(x,
    policy(x), np.zeros(m)))``, f at a float64 zero disturbance, in one call,
    bit for bit, shape and dtype included. A plant that supplies it must
    keep it equal to its ``policy`` and ``f``: a ``dataclasses.replace`` of
    either must also replace ``closed_loop`` or set it to None.
    `nominal_step` takes it, or the two calls without it.
    """

    name: str
    n: int
    p: int
    m: int
    f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    lyapunov: Callable[[np.ndarray], np.ndarray]
    policy: Callable[[np.ndarray], np.ndarray]
    rho: float
    alpha: Optional[float] = None
    params: dict = field(default_factory=dict)
    closed_loop: Optional[Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]] = None

    def __post_init__(self):
        check_rates(self.rho, 1.0 if self.alpha is None else self.alpha)

    def nominal_step(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """One step of the nominal closed loop, which has no disturbance: ``(policy(x), x_next)``.

        The plant's ``closed_loop`` when it has one; else a policy call and an
        f call at a fresh ``np.zeros(m)``, which owns its data: bench/tracing.py
        tells the engine's plant step from a rollout's by a disturbance view.
        """
        if self.closed_loop is not None:
            return self.closed_loop(x)
        u = self.policy(x)
        return u, self.f(x, u, np.zeros(self.m))


def check_rates(rho, alpha) -> Tuple[float, float]:
    """The rule on the certificates' rates: rho in [0, 1), alpha >= 1, both numbers.

    Each must be a finite number (`errors.real`: a Python or numpy number,
    no bool or str); the failures are ConfigErrors naming the rate. Returns
    both as floats.
    """
    rho, alpha = real(rho, "rho"), real(alpha, "alpha")
    if not 0.0 <= rho < 1.0:
        raise ConfigError(f"rho must lie in [0, 1), got {rho!r}")
    if not 1.0 <= alpha:
        raise ConfigError(f"alpha must be >= 1, got {alpha!r}")
    return rho, alpha


def sum_squares(x) -> np.ndarray:
    """Sum of squares over the last (component) axis, the same bits as `np.square(x).sum(-1)`.

    One or two components are added as columns, which skips numpy's
    reduction set-up (about 19 ns per row at two components, on a 2-core
    VM with numpy 2.4.6); three or more go through `.sum(-1)`.
    """
    sq = np.square(x)
    width = sq.shape[-1]
    if width == 1:
        return sq[..., 0]
    if width == 2:
        return sq[..., 0] + sq[..., 1]
    return sq.sum(-1)


def norm(x) -> np.ndarray:
    """Euclidean norm over the last axis (keeps leading axes)."""
    return np.sqrt(sum_squares(x))


def lqr_gain_scalar(a: float, q: float, r: float) -> float:
    """Infinite-horizon LQR gain for x+ = a x + u with stage cost q x^2 + r u^2.

    The cost-to-go p is the larger root of the Riccati equation
    p^2 + (r - q - a^2 r) p - q r = 0, in its cancellation-free form; for
    q = 0 and |a| > 1 it is r (a^2 - 1), whose gain a - 1/a stabilises.
    """
    if not (q >= 0.0 and r > 0.0):
        raise ConfigError(f"LQR weights need q >= 0 and r > 0, got q={q}, r={r}")
    b = r - q - a * a * r
    root = math.sqrt(b * b + 4.0 * q * r)
    p = 2.0 * q * r / (b + root) if b > 0.0 else (root - b) / 2.0
    return a * p / (r + p)


def _cubic_scalar(alpha: Optional[float] = None) -> PlantModel:
    def f(x, u, w):
        return x + 0.01 * (x ** 3 + u) + w

    def kappa(x):
        return -x ** 3 - x

    # kappa, then f at w = 0, the cube computed once. f's last `+ w` changes only a -0.0
    # (never here: at x = -0.0, c + u is +0.0) and promotes float32 as the cast does
    def closed_loop(x):
        c = x ** 3
        u = -c - x
        nxt = x + 0.01 * (c + u)
        return u, nxt.astype(np.promote_types(nxt.dtype, FLOAT64), copy=False)

    return PlantModel(
        name="cubic_scalar", n=1, p=1, m=1,
        f=f, lyapunov=norm, policy=kappa,
        rho=0.99, alpha=alpha,
        params={} if alpha is None else {"alpha": alpha},
        closed_loop=closed_loop,
    )


def _linear_scalar(a: float, q: float = 0.2, r: float = 2.0) -> PlantModel:
    gain = lqr_gain_scalar(a, q, r)
    rho = abs(a - gain)
    if not rho < 1.0:  # also NaN: above |a| ~ 1e77 the Riccati root overflows
        raise ConfigError(f"LQR loop for a={a} is not contracting (|a-K|={rho})")

    def f(x, u, w):
        return a * x + u + w

    def kappa(x):
        return -gain * x

    return PlantModel(
        name="linear_scalar", n=1, p=1, m=1,
        f=f, lyapunov=norm, policy=kappa,
        rho=rho, alpha=max(1.0, abs(a)),
        params={"a": a, "q": q, "r": r, "gain": gain},
    )


def sat(mu):
    """Unit saturation: clips to [-1, 1]."""
    return np.minimum(np.maximum(mu, -1.0), 1.0)


def _sat1(s: float) -> float:
    """`sat` of one Python float, bit for bit: s itself when it is NaN or in [-1, 1]."""
    return 1.0 if s > 1.0 else -1.0 if s < -1.0 else s


def _sat_2d() -> PlantModel:
    # kappa's array path, given s = sat(x1 + x2), which the closed-loop map computes once
    def kappa_at(x, s):
        out = np.empty(x.shape)
        np.negative(x[..., 1], out[..., 0])
        np.multiply(s, 0.8, out[..., 1])
        return out

    def f(x, u, w):
        if x.ndim == u.ndim == w.ndim == 1 and x.dtype is u.dtype is w.dtype is FLOAT64:
            (x1, x2), (u1, u2), (w1,) = x.tolist(), u.tolist(), w.tolist()
            return np.array((x2 + u1 + math.sqrt(w1 * w1 + 5.0) - SQRT5, u2 - _sat1(x1 + x2)))
        first = x[..., 1] + u[..., 0] + np.sqrt(w[..., 0] ** 2 + 5.0)  # x, u, w broadcast
        out = np.empty(first.shape + (2,))
        np.subtract(first, SQRT5, out[..., 0])
        np.subtract(u[..., 1], sat(x[..., 0] + x[..., 1]), out[..., 1])  # -sat(x1 + x2) + u2
        return out

    def kappa(x):
        return kappa_at(x, sat(x[..., 0] + x[..., 1]))

    # f at w = 0 after u1 = -x2 has x1+ = (x2 - x2 + sqrt5) - sqrt5, which is x2 - x2:
    # +0.0, or for an infinite or NaN x2 its NaN. x.size first: a stack of more than
    # ROW_CALL_MAX rows leaves for numpy after one test; a smaller one, a rollout's,
    # takes the same IEEE operations in Python floats, row by row
    def closed_loop(x):
        if x.size <= 2 * ROW_CALL_MAX and x.ndim == 2 and x.dtype is FLOAT64:
            us, nxts = [], []
            for x1, x2 in x.tolist():
                s = _sat1(x1 + x2)
                u2 = 0.8 * s
                us += (-x2, u2)
                nxts += (x2 - x2, u2 - s)
            return np.array(us).reshape(-1, 2), np.array(nxts).reshape(-1, 2)
        s = sat(x[..., 0] + x[..., 1])
        u = kappa_at(x, s)
        nxt = np.empty(x.shape)
        np.subtract(x[..., 1], x[..., 1], nxt[..., 0])
        np.subtract(u[..., 1], s, nxt[..., 1])
        return u, nxt

    def v(x):
        return 2.0 * norm(x)

    # alpha: with u = w = 0, |f(x)|^2 = x'[[1, 1], [1, 2]]x where |x1 + x2| <= 1, whose
    # largest eigenvalue is phi^2, reached along x ~ (1, phi); so sup V(f) / V = phi
    return PlantModel(
        name="sat_2d", n=2, p=2, m=1,
        f=f, lyapunov=v, policy=kappa,
        rho=0.5, alpha=(1.0 + SQRT5) / 2.0, closed_loop=closed_loop,
    )


def _log_lyapunov(rho: float) -> PlantModel:
    def f(x, u, w):
        return x ** 2 + u

    def v(x):
        return np.log(norm(x) + 1.0)

    def kappa(x):
        # closed loop satisfies V(f(x, kappa(x), 0)) = rho * V(x) exactly
        return -x ** 2 + np.exp(rho * v(x)[..., None]) - 1.0

    return PlantModel(
        name="log_lyapunov", n=1, p=1, m=0,
        f=f, lyapunov=v, policy=kappa,
        rho=rho, alpha=2.0,
        params={"rho": rho},
    )


_BUILDERS = {
    "cubic_scalar": _cubic_scalar,
    "linear_scalar": _linear_scalar,
    "sat_2d": _sat_2d,
    "log_lyapunov": _log_lyapunov,
}
BUILTIN_PLANTS = tuple(sorted(_BUILDERS))


def make_builtin_plant(name: str, **params) -> PlantModel:
    """Construct one of the four built-in plants by name.

    cubic_scalar(alpha=None), linear_scalar(a, q=0.2, r=2.0), sat_2d(), log_lyapunov(rho).
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigError(f"unknown plant {name!r}; choose from {list(BUILTIN_PLANTS)}") from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for plant {name!r}: {exc}") from None
