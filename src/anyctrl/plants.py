"""Plant abstractions and the built-in benchmark plants.

A plant bundles discrete-time dynamics ``x(k+1) = f(x(k), u(k), w(k))``
with a Lyapunov function ``V``, a stabilizing policy ``kappa``, and the
closed-loop contraction factor ``rho`` / open-loop growth factor ``alpha``
used by the stability certificates.

Every plant broadcasts: ``f``, ``kappa`` and ``V`` accept arrays with the
state/input/disturbance components on the last axis and broadcast over
leading axes. The controller kernel and the simulation loop rely on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError

SQRT5 = np.sqrt(5.0)
# each disturbance kind and the DisturbanceModel fields it reads
DISTURBANCE_KEYS = {"none": (), "uniform": ("lo", "hi"), "gaussian": ("mean", "variance")}


@dataclass(frozen=True)
class DisturbanceModel:
    """Per-step additive disturbance: none, uniform(lo, hi) or gaussian(mean, variance)."""

    kind: str = "none"
    dim: int = 0
    lo: float = 0.0
    hi: float = 0.0
    mean: float = 0.0
    variance: float = 0.0

    def __post_init__(self):
        if self.kind not in DISTURBANCE_KEYS:
            raise ConfigError(f"unknown disturbance kind {self.kind!r}")
        if self.kind == "uniform" and self.lo > self.hi:
            raise ConfigError("disturbance.lo must be <= disturbance.hi")
        if self.kind == "gaussian" and self.variance < 0:
            raise ConfigError("disturbance.variance must be >= 0")

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Draw disturbances of the given leading shape, component axis last."""
        full = tuple(shape) + (self.dim,)
        if self.kind == "none" or self.dim == 0:
            return np.zeros(full)
        if self.kind == "uniform":
            return rng.random(full) * (self.hi - self.lo) + self.lo
        return rng.standard_normal(full) * np.sqrt(self.variance) + self.mean


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
    ``lyapunov`` maps ``(..., n)`` to ``(...)``.
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

    def __post_init__(self):
        if not (0.0 <= self.rho < 1.0):
            raise ConfigError(f"rho must lie in [0, 1), got {self.rho}")
        if self.alpha is not None and self.alpha < 1.0:
            raise ConfigError(f"alpha must be >= 1, got {self.alpha}")


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

    return PlantModel(
        name="cubic_scalar", n=1, p=1, m=1,
        f=f, lyapunov=norm, policy=kappa,
        rho=0.99, alpha=alpha,
        params={} if alpha is None else {"alpha": alpha},
    )


def _linear_scalar(a: float, q: float = 0.2, r: float = 2.0) -> PlantModel:
    gain = lqr_gain_scalar(a, q, r)
    rho = abs(a - gain)
    if rho >= 1.0:
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


def _sat_2d() -> PlantModel:
    def f(x, u, w):
        x1 = x[..., 0]
        x2 = x[..., 1]
        first = x2 + u[..., 0] + np.sqrt(w[..., 0] ** 2 + 5.0) - SQRT5  # x, u, w broadcast
        out = np.empty(first.shape + (2,))
        out[..., 0] = first
        out[..., 1] = -sat(x1 + x2) + u[..., 1]
        return out

    def kappa(x):
        out = np.empty(x.shape)
        out[..., 0] = -x[..., 1]
        out[..., 1] = 0.8 * sat(x[..., 0] + x[..., 1])
        return out

    def v(x):
        return 2.0 * norm(x)

    return PlantModel(
        name="sat_2d", n=2, p=2, m=1,
        f=f, lyapunov=v, policy=kappa,
        rho=0.5, alpha=1.618,
    )


def _log_lyapunov(rho: float) -> PlantModel:
    if not (0.0 <= rho < 1.0):
        raise ConfigError(f"log_lyapunov rho must lie in [0, 1), got {rho}")

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
