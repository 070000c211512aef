"""Baseline and sequence-based anytime controllers over a tentative-input buffer.

The anytime controllers store tentative future inputs in a shift buffer.
When no processor time is available (N(k) = 0) the buffer is shifted and
its head is applied; otherwise N(k) fresh tentative inputs are computed by
rolling the nominal model forward under the certified policy.

Variant one wipes the buffer on every recomputation; variant two keeps the
tail entries stemming from older computations, overwriting only the slots
covered by the new sequence.

This module holds the only implementation of that rule. Its functions
broadcast over any leading lane shape: a state is `(..., n)`, a length
N(k) is `(...)` and a buffer is `(..., capacity, p)`. A single closed-loop
episode runs it on `()` lanes, the batch engine on `(runs,)` lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import CertificateViolation, ConfigError
from .plants import PlantModel

DECREASE_SLACK = 1e-9
# above this Lyapunov level the decrease test is skipped: cancellation noise
# in double precision (order eps * |x|^3 for the cubic benchmark) swamps any
# meaningful tolerance, and such states are outside every certified region
DECREASE_CHECK_LIMIT = 1e4

KINDS = ("baseline", "a1", "a2")


@dataclass(frozen=True)
class ControllerKind:
    """Which controller to run, with an optional artificial buffer-size cap."""

    kind: str
    buffer_cap: Optional[int] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown controller kind {self.kind!r}; choose from {KINDS}")
        if self.buffer_cap is not None and self.buffer_cap < 1:
            raise ConfigError("buffer_cap must be >= 1")


def tentative_sequence(plant: PlantModel, x, n, out: np.ndarray) -> None:
    """Roll the certified policy forward to depth max(n) from every lane's state.

    Writes the input applied at depth j + 1 into `out[..., j, :]`; rows at
    or past a lane's own n are scratch. The predicted states are stacked
    and checked against the certificate's per-step Lyapunov decrease with
    one `V` call, on the lanes whose n reaches each depth. A failure means
    the (V, kappa, rho) triple is inconsistent on this trajectory and
    raises CertificateViolation with the first failing depth.
    """
    n = np.asarray(n)
    depth = int(n.max())
    if depth < 1:
        raise ConfigError(f"tentative sequence length must be >= 1, got {depth}")
    if depth > out.shape[-2]:
        raise ConfigError(f"sequence length {depth} exceeds buffer capacity {out.shape[-2]}")
    chis = np.empty((depth + 1,) + np.shape(x))
    chis[0] = x
    # a fresh array, never a view: bench/tracing.py tells the engine's plant
    # step from a rollout step by its disturbance being a view
    w0 = np.zeros(plant.m)
    for j in range(depth):
        u = plant.policy(chis[j])
        out[..., j, :] = u
        chis[j + 1] = plant.f(chis[j], u, w0)
    v = plant.lyapunov(chis)
    v_now, v_next = v[:-1], v[1:]
    bad = ((v_now <= DECREASE_CHECK_LIMIT)
           & (v_next > plant.rho * v_now + DECREASE_SLACK * np.maximum(1.0, v_now)))
    if bad.any():
        bad &= n >= np.arange(1, depth + 1).reshape((depth,) + (1,) * n.ndim)
        if bad.any():
            raise CertificateViolation(int(bad.reshape(depth, -1).any(1).argmax()) + 1)


def controller_step(kind: ControllerKind, plant: PlantModel, x, n,
                    buf: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One controller update on every lane: returns (applied input, next buffer).

    `n` is the number of tentative inputs the processor allows this step,
    before `kind.buffer_cap`; the baseline controller only uses the
    indicator n >= 1 and leaves the buffer alone. The input is a view of
    the returned buffer's head slot.
    """
    n = np.asarray(n)
    if kind.kind == "baseline":
        return np.where((n >= 1)[..., None], plant.policy(x), 0.0), buf
    if kind.buffer_cap is not None:
        n = np.minimum(n, kind.buffer_cap)
    # lanes that compute nothing shift their buffer up one slot, zero-filling the last
    zero_slot = np.zeros(buf.shape[:-2] + (1, buf.shape[-1]))
    nxt = np.concatenate([buf[..., 1:, :], zero_slot], axis=-2)
    if n.any():
        fresh = np.empty_like(buf)
        tentative_sequence(plant, x, n, fresh)
        n_slot = n[..., None, None]
        fresh_slot = np.arange(buf.shape[-2])[:, None] < n_slot
        if kind.kind == "a2":  # keeps the shifted tail behind a fresh sequence
            nxt = np.where(fresh_slot, fresh, nxt)
        else:  # a1 zeroes the slots behind a fresh sequence
            nxt = np.where(n_slot >= 1, np.where(fresh_slot, fresh, 0.0), nxt)
    return nxt[..., 0, :], nxt


def effective_lengths(kind: ControllerKind, n_sched) -> np.ndarray:
    """Effective buffer length lambda(k) after each step of an N(k) schedule.

    Closed forms of the recursions lambda = max(n, lambda - 1) (a2) and
    lambda = n if n >= 1 else max(lambda - 1, 0) (a1), from lambda = 0,
    with n capped at `kind.buffer_cap`. The baseline keeps no buffer.
    """
    n = np.asarray(n_sched, dtype=np.int64)
    if kind.kind == "baseline":
        return np.zeros(n.size, dtype=np.int64)
    if kind.buffer_cap is not None:
        n = np.minimum(n, kind.buffer_cap)
    k = np.arange(n.size)
    if kind.kind == "a2":  # never negative: the running max includes n(k) + k
        return np.maximum.accumulate(n + k) - k
    last = np.maximum.accumulate(np.where(n >= 1, k, -1))  # step of the last computation
    return np.where(last >= 0, np.maximum(n[last] - (k - last), 0), 0)
