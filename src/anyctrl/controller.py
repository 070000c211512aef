"""Baseline and sequence-based anytime controllers over a ring of in-flight sequences.

When the processor allows N(k) >= 1 inputs at step k, an anytime
controller computes a tentative sequence of N(k) inputs by rolling the
nominal model forward from x(k) under the certified policy. Depth j of
that sequence (j = 1..N(k)) is first played at step k + j - 1, so it is
computed at that step: every sequence in flight advances one depth per
step, and all of them advance together.

A ring of C slots per lane (C the buffer capacity) holds the sequences in
flight: slot t mod C holds the predicted state, the end step t + N(t) and
the latest input of the sequence started at step t. Each step starts the
new sequence and then advances every in-flight row one depth with one
stacked policy / f / V call and one Lyapunov decrease test
(`tentative_sequence`).

The input played at step k is one gather from the ring, at a source
computed in closed form from the capped N schedule (`Ring.sources`).
Variant two (a2) keeps the tail of older sequences: it plays the sequence
started at k - d for the smallest d with N(k - d) > d. Variant one (a1)
wipes older sequences on every recomputation: it plays the sequence of
the last computing step if that sequence still reaches k. Without a
source the input is zero. The baseline applies the policy when
N(k) >= 1 and zero otherwise, and keeps no sequences.

This module holds the only implementation of that rule. It broadcasts over
any leading lane shape: a state is `(..., n)` and a length N(k) is `(...)`.
A single closed-loop episode runs it on `()` lanes, the batch engine on
`(runs,)` lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import CertificateViolation, ConfigError
from .plants import PlantModel

DECREASE_SLACK = 1e-9
# above this Lyapunov level the decrease test is skipped: cancellation noise
# in double precision (order eps * |x|^3 for the cubic benchmark) swamps any
# meaningful tolerance, and such states are outside every certified region
DECREASE_CHECK_LIMIT = 1e4
# steps per block of the source map, so its memory does not grow with the
# horizon; each block reads C - 1 steps of look-back
SOURCE_BLOCK = 16

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


class Ring:
    """The tentative sequences in flight on every lane: slot t mod C for the one started at step t.

    `first_run` is the run index of the first lane; a certificate violation
    names the run of the failing sequence.
    """

    def __init__(self, plant: PlantModel, capacity: int, lanes=(), first_run: int = 0):
        lanes = tuple(lanes)
        size = math.prod(lanes) * capacity
        self.capacity = capacity
        self.first_run = first_run
        self.tick = 0  # the step the next advance computes
        self.reach = 0  # the largest end step of any sequence started so far
        self.failure = None  # (start step, depth, run) of the earliest failed decrease test
        self.chi = np.zeros(lanes + (capacity, plant.n))  # predicted states
        self.end = np.zeros(lanes + (capacity,), dtype=np.int64)  # t + N(t)
        # each slot's latest input, flat, with one last row of zeros for steps without a source
        self.inputs = np.zeros((size + 1, plant.p))
        self.base = np.arange(0, size, capacity).reshape(lanes)  # flat index of each lane's slot 0
        # a fresh array, never a view: bench/tracing.py tells the engine's plant
        # step from a rollout step by its disturbance being a view
        self.w0 = np.zeros(plant.m)

    def sources(self, kind: ControllerKind, n_sched) -> Iterator:
        """Yield, for k = 0, 1, ..., the `inputs` row of u(k) on every lane.

        `n_sched` is the `(..., horizon)` schedule of N(k) before
        `kind.buffer_cap`. The map is built SOURCE_BLOCK steps at a time
        from C - 1 steps of look-back; a step of no source maps to the
        zero row. The baseline has no sources and gets None.
        """
        n_sched = np.asarray(n_sched)
        horizon, c, lanes = n_sched.shape[-1], self.capacity, self.base.shape
        if kind.kind == "baseline":
            yield from (None for _ in range(horizon))
            return
        for start in range(0, horizon, SOURCE_BLOCK):
            stop = min(start + SOURCE_BLOCK, horizon)
            lo = max(start - (c - 1), 0)
            # time-major N(t) for t = start - (c - 1) .. stop - 1, zero before step 0
            n = np.zeros((stop - start + c - 1,) + lanes, dtype=np.int64)
            n[c - 1 - (start - lo):] = np.moveaxis(n_sched[..., lo:stop], -1, 0)
            if kind.buffer_cap is not None:
                np.minimum(n, kind.buffer_cap, out=n)
            t = np.arange(start - (c - 1), stop).reshape((-1,) + (1,) * len(lanes))
            k = t[c - 1:]
            if kind.kind == "a2":  # t = k - d for the smallest d with N(k - d) > d
                d_src = np.full(k.shape[:1] + lanes, c)
                for d in range(c):  # d where N(k - d) > d, c elsewhere
                    np.minimum(d_src, d + (c - d) * (n[c - 1 - d:len(n) - d] <= d), out=d_src)
                t_src, covered = k - d_src, d_src < c
            else:  # a1: the last t with N(t) >= 1, provided t + N(t) > k
                last = np.maximum.accumulate(np.where(n >= 1, t - t[0], 0), axis=0)[c - 1:]
                t_src = t[0] + last
                covered = np.take_along_axis(n, last, axis=0) > k - t_src
            yield from np.where(covered, self.base + t_src % c, self.inputs.shape[0] - 1)

    def fail(self, rows: np.ndarray) -> None:
        """Keep the earliest (start step, depth, run) among the rows failing at this tick."""
        lane, slot = np.divmod(rows, self.capacity)
        starts = self.tick - (self.tick - slot) % self.capacity
        first = int(starts.min())
        found = (first, self.tick - first + 1, self.first_run + int(lane[starts == first].min()))
        self.failure = found if self.failure is None else min(self.failure, found)


def tentative_sequence(plant: PlantModel, ring: Ring) -> None:
    """Advance every in-flight tentative sequence one depth, at step `ring.tick`.

    Every row whose sequence reaches this step takes one step of the
    nominal model under the certified policy, with one stacked call each of
    policy, f and V, and its input becomes its slot's latest input. The
    certificate's per-step Lyapunov decrease is tested on all rows at once.
    A failure means the (V, kappa, rho) triple is inconsistent on this
    trajectory; it is recorded on the ring and raised by `drain`.
    """
    rows = (ring.end > ring.tick).ravel().nonzero()[0]
    if rows.size == 0:
        raise ConfigError(f"no tentative sequence in flight at step {ring.tick}")
    chis = ring.chi.reshape(-1, ring.chi.shape[-1])
    chi = chis.take(rows, axis=0)
    u = plant.policy(chi)
    nxt = plant.f(chi, u, ring.w0)
    v = plant.lyapunov(np.concatenate((chi, nxt)))
    v_now, v_next = v[:rows.size], v[rows.size:]
    chis[rows] = nxt
    ring.inputs[rows] = u
    bad = v_next > plant.rho * v_now + DECREASE_SLACK * np.maximum(1.0, v_now)
    if bad.any():
        bad &= v_now <= DECREASE_CHECK_LIMIT
        if bad.any():
            ring.fail(rows[bad])


def drain(plant: PlantModel, ring: Ring) -> None:
    """Advance every in-flight sequence to its end, then raise the earliest failed test.

    Afterwards every depth of every sequence started so far has been
    computed and tested, as if each had been rolled out in full at its
    start step. A CertificateViolation names the earliest start step with
    a failed test, its first failing depth and the lowest run failing there.
    """
    while ring.reach > ring.tick:
        tentative_sequence(plant, ring)
        ring.tick += 1
    if ring.failure is not None:
        start, depth, run = ring.failure
        raise CertificateViolation(depth, start, run)


def controller_step(kind: ControllerKind, plant: PlantModel, x, n, ring: Ring, src) -> np.ndarray:
    """One controller update on every lane: returns the applied input u(k).

    `n` is the number of tentative inputs the processor allows this step,
    before `kind.buffer_cap`, and `src` is this step's entry of
    `ring.sources`. The baseline controller only uses the indicator n >= 1
    and leaves the ring alone. A failed decrease test drains the ring and
    raises (see `drain`).
    """
    n = np.asarray(n)
    if kind.kind == "baseline":
        return np.where((n >= 1)[..., None], plant.policy(x), 0.0)
    if kind.buffer_cap is not None:
        n = np.minimum(n, kind.buffer_cap)
    longest = int(n.max())
    if longest > ring.capacity:
        raise ConfigError(f"sequence length {longest} exceeds buffer capacity {ring.capacity}")
    slot = ring.tick % ring.capacity  # its last sequence ended by now
    ring.chi[..., slot, :] = x
    ring.end[..., slot] = ring.tick + n
    ring.reach = max(ring.reach, ring.tick + longest)
    if ring.reach > ring.tick:
        tentative_sequence(plant, ring)
    ring.tick += 1
    if ring.failure is not None:
        drain(plant, ring)
    return ring.inputs.take(src, axis=0)


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
