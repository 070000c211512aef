"""Baseline and sequence-based anytime controllers over a ring of in-flight sequences.

When the processor allows N(k) >= 1 inputs at step k, an anytime
controller computes a tentative sequence of N(k) inputs by rolling the
nominal model forward from x(k) under the certified policy. Depth j of
that sequence (j = 1..N(k)) is first played at step k + j - 1, so it is
computed at that step: every sequence in flight advances one depth per
step, and all of them advance together.

A ring of C slots per lane (C the buffer capacity) holds the sequences in
flight: slot t mod C holds the predicted state, the end step t + N(t) and
the latest input of the sequence started at step t, in flight while
`end > tick`. Each step starts the new sequence and then advances every
in-flight row one depth with one stacked step of the nominal closed loop
(`tentative_sequence`), which has no disturbance: one call of the plant's
closed-loop map gives each row's input and next state (`PlantModel.nominal_step`),
and that is all the recursion needs. The rows are gathered through a 2-D view
of the ring's states and the advanced states and inputs scattered back as
whole rows, through 1-D views in which each float64 row is one `np.void`
item, all built once per ring; the plant's outputs are first cast to
contiguous float64, as plain assignment casts them. The Lyapunov
decrease tests of those depths are bookkeeping: the ring records each
depth's states, and the engine's block loop (`simulation._blocks`) runs
`check`, one stacked V call and one test, over each block of `Ring.block`
steps and `drain` once it stops. A failure therefore surfaces at the end
of its block, with the fields it would have had at its own step. The
block is sized by the ring's rows (lanes x C): BLOCK_ROWS // rows steps
and at least SOURCE_BLOCK, so a ring of one run pays the block's fixed
cost about once per BLOCK_ROWS row-steps, not every SOURCE_BLOCK steps.

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
from typing import Optional

import numpy as np

from .errors import CertificateViolation, ConfigError, integer
from .plants import PlantModel

DECREASE_SLACK = 1e-9
# above this Lyapunov level the decrease test is skipped: cancellation noise
# in double precision (order eps * |x|^3 for the cubic benchmark) swamps any
# meaningful tolerance, and such states are outside every certified region
DECREASE_CHECK_LIMIT = 1e4
# steps per block: the source map is built (reading C - 1 steps of look-back),
# the decrease tests run and the batch engine adds its stage costs once per
# block, so none of them costs a call per step or memory per horizon step.
# A ring of lanes x C rows takes max(SOURCE_BLOCK, BLOCK_ROWS // rows) steps:
# a one-lane ring of 4 slots runs 256, every ring of 64 rows or more runs 16.
# Batch rings gained nothing from longer blocks and lost at 8 steps; one run's
# ring gains nothing past about 256 steps, and holds a block's states meanwhile
SOURCE_BLOCK = 16
BLOCK_ROWS = 1024

KINDS = ("baseline", "a1", "a2")


@dataclass(frozen=True)
class ControllerKind:
    """Which controller to run, with an optional artificial buffer-size cap (an int >= 1).

    The one check of a config's controller section: its messages name the keys.
    """

    kind: str
    buffer_cap: Optional[int] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"controller.kind must be one of {KINDS}, got {self.kind!r}")
        if self.buffer_cap is None:
            return
        cap = integer(self.buffer_cap, "controller.buffer_cap")
        if cap < 1:
            raise ConfigError(f"controller.buffer_cap must be >= 1, got {cap}")
        object.__setattr__(self, "buffer_cap", cap)

    def capped(self, n_sched: np.ndarray) -> np.ndarray:
        """The N(k) array capped at `buffer_cap`, in the array's own type.

        A presampled schedule is stored in `availability.length_dtype`
        (uint8 up to Lambda = 255). When no cap is set or the cap is at
        least the schedule's largest entry, the schedule comes back as the
        same array. Otherwise the cap is below that entry, so it fits the
        array's type.
        """
        cap = self.buffer_cap
        if cap is None or cap >= int(n_sched.max(initial=0)):
            return n_sched
        return np.minimum(n_sched, cap)


class Ring:
    """The tentative sequences in flight on every lane: slot t mod C for the one started at step t.

    `first_run` is the run index of the first lane; a certificate violation
    names the run of the failing sequence. `block` is the steps per block
    of the engine's loop (`simulation._blocks`), one source map and one
    decrease check each, sized by the ring's rows when it is built:
    max(SOURCE_BLOCK, BLOCK_ROWS // (lanes x C)).
    """

    def __init__(self, plant: PlantModel, capacity: int, lanes=(), first_run: int = 0):
        lanes = tuple(lanes)
        size = math.prod(lanes) * capacity
        self.capacity = capacity
        self.first_run = first_run
        self.block = max(SOURCE_BLOCK, BLOCK_ROWS // size)
        self.tick = 0  # the step the next advance computes
        self.failure = None  # (start step, depth, run) of the earliest failed decrease test
        self.pending = []  # (tick, rows, states before, states after) of each untested depth
        self.chi = np.zeros(lanes + (capacity, plant.n))  # predicted states
        self.chi_flat = self.chi.reshape(size, plant.n)  # the same memory, one row per slot
        self.end = np.zeros(lanes + (capacity,), dtype=np.int64)  # t + N(t), in flight if > tick
        # each slot's latest input, flat, with one last row of zeros for steps without a source
        self.inputs = np.zeros((size + 1, plant.p))
        # the same memory with one opaque item per state or input row, for 1-D scatters
        self.chi_rows = _row_items(self.chi_flat)
        self.input_rows = _row_items(self.inputs)
        self.base = np.arange(0, size, capacity).reshape(lanes)  # flat index of each lane's slot 0

    def sources(self, kind: ControllerKind, n_sched, start: int, stop: int):
        """N(k) and the `inputs` row of u(k) on every lane, for k = start .. stop - 1, time-major.

        `n_sched` is the capped `(..., horizon)` schedule of N(k)
        (`ControllerKind.capped`). For a1 and a2 the source map is built in
        closed form from C - 1 steps of look-back, which are copied into an
        int64 buffer so that step indices add to them; the N(k) rows are that
        buffer's, and a step of no source maps to the zero row. The baseline
        has no sources: it gets its N(k) rows as stored and None for each step.
        """
        c, lanes = self.capacity, self.base.shape
        time_major = (len(lanes),) + tuple(range(len(lanes)))  # the step axis first
        if kind.kind == "baseline":
            return n_sched[..., start:stop].transpose(time_major), [None] * (stop - start)
        lo = max(start - (c - 1), 0)
        # time-major N(t) for t = start - (c - 1) .. stop - 1, zero before step 0
        n = np.zeros((stop - start + c - 1,) + lanes, dtype=np.int64)
        n[c - 1 - (start - lo):] = n_sched[..., lo:stop].transpose(time_major)
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
        return n[c - 1:], np.where(covered, self.base + t_src % c, self.inputs.shape[0] - 1)

    def in_flight(self) -> np.ndarray:
        """The flat rows whose sequence is in flight at step `tick`: `end > tick`."""
        return (self.end > self.tick).ravel().nonzero()[0]

    def fail(self, ticks: np.ndarray, rows: np.ndarray) -> None:
        """Keep the earliest (start step, depth, run) among rows failing at the given ticks."""
        lane, slot = np.divmod(rows, self.capacity)
        starts = ticks - (ticks - slot) % self.capacity
        depths = ticks - starts + 1
        i = np.lexsort((lane, depths, starts))[0]
        found = (int(starts[i]), int(depths[i]), self.first_run + int(lane[i]))
        self.failure = found if self.failure is None else min(self.failure, found)


def tentative_sequence(plant: PlantModel, ring: Ring, rows: np.ndarray) -> None:
    """Advance the in-flight tentative sequences one depth, at step `ring.tick`.

    `rows` are the flat ring rows in flight, `end > tick` (`Ring.in_flight`),
    at least one. Each takes one step of the nominal model under the
    certified policy, with one stacked `PlantModel.nominal_step` call, and
    its input becomes its slot's latest input. The states before and after
    the step are recorded on the ring for `check`, which tests the
    certificate's per-step Lyapunov decrease on them.
    """
    chi = ring.chi_flat.take(rows, axis=0)
    u, nxt = plant.nominal_step(chi)
    # a 1-D scatter of whole rows costs a quarter of numpy's row-subspace assignment
    ring.chi_rows[rows] = _as_rows(nxt, ring.chi_rows.dtype)
    ring.input_rows[rows] = _as_rows(u, ring.input_rows.dtype)
    ring.pending.append((ring.tick, rows, chi, nxt))


def _row_items(a: np.ndarray) -> np.ndarray:
    """A C-contiguous `(count, width)` array as a view of `count` opaque items, one per row."""
    return a.view(np.dtype((np.void, a.shape[-1] * a.itemsize))).reshape(-1)


def _as_rows(a, row: np.dtype) -> np.ndarray:
    """`(count, width)` values as `count` items of dtype `row`, cast to float64 as assignment is."""
    return np.ascontiguousarray(a, dtype=float).view(row).reshape(-1)


def check(plant: PlantModel, ring: Ring) -> None:
    """Test every depth recorded since the last check, with one stacked V call.

    A depth fails when V after its step exceeds rho times V before it (plus
    a slack) and V before it is at most DECREASE_CHECK_LIMIT; that means
    the (V, kappa, rho) triple is inconsistent on this trajectory. The
    earliest failure is kept on the ring (`Ring.fail`) and raised by
    `drain`. V is evaluated row by row, so its values and the
    test's outcome are those of testing each step on its own.
    """
    if not ring.pending:
        return
    ticks, rows, chis, nxts = zip(*ring.pending)
    ring.pending = []
    v = plant.lyapunov(np.concatenate(chis + nxts))
    half = len(v) // 2
    v_now, v_next = v[:half], v[half:]
    bad = v_next > plant.rho * v_now + DECREASE_SLACK * np.maximum(1.0, v_now)
    if bad.any():
        bad &= v_now <= DECREASE_CHECK_LIMIT
        if bad.any():
            sizes = [r.size for r in rows]
            ring.fail(np.repeat(ticks, sizes)[bad], np.concatenate(rows)[bad])


def drain(plant: PlantModel, ring: Ring) -> None:
    """Advance every in-flight sequence (`end > tick`) to its end, then raise the earliest failure.

    Afterwards every depth of every sequence started so far has been
    computed and tested, as if each had been rolled out in full at its
    start step. A CertificateViolation names the earliest start step with
    a failed test, its first failing depth and the lowest run failing there.
    """
    while (rows := ring.in_flight()).size:
        tentative_sequence(plant, ring, rows)
        ring.tick += 1
    check(plant, ring)
    if ring.failure is not None:
        start, depth, run = ring.failure
        raise CertificateViolation(depth, start, run)


def controller_step(kind: ControllerKind, plant: PlantModel, x, n, ring: Ring, src) -> np.ndarray:
    """One controller update on every lane: returns the applied input u(k).

    `n` and `src` are this step's N(k), at most the ring's capacity, and
    source row from `Ring.sources`: for a1 and a2, `n` is an int64 row, so
    the end step t + N(t) is written with a plain assignment. The baseline
    controller only uses the indicator n >= 1 and leaves the ring alone.
    Otherwise the step starts the new sequence, advances every row in
    flight after it (`end > tick`) one depth and gathers u(k) at `src`;
    the decrease tests of those depths wait on the ring for the engine.
    """
    if kind.kind == "baseline":
        return np.where((np.asarray(n) >= 1)[..., None], plant.policy(x), 0.0)
    slot = ring.tick % ring.capacity  # its last sequence ended by now, as N <= C
    ring.chi[..., slot, :] = x
    ring.end[..., slot] = n + ring.tick
    if (rows := ring.in_flight()).size:
        tentative_sequence(plant, ring, rows)
    ring.tick += 1
    return ring.inputs.take(src, axis=0)


def effective_lengths(kind: ControllerKind, n_sched) -> np.ndarray:
    """Effective buffer length lambda(k) after each step of an N(k) schedule.

    Closed forms of the recursions lambda = max(n, lambda - 1) (a2) and
    lambda = n if n >= 1 else max(lambda - 1, 0) (a1), from lambda = 0,
    on the capped schedule (`ControllerKind.capped`), widened to int64
    because step indices are added to it. The baseline keeps no buffer.
    """
    n = np.asarray(n_sched, dtype=np.int64)
    if kind.kind == "baseline":
        return np.zeros(n.size, dtype=np.int64)
    k = np.arange(n.size)
    if kind.kind == "a2":  # never negative: the running max includes n(k) + k
        return np.maximum.accumulate(n + k) - k
    last = np.maximum.accumulate(np.where(n >= 1, k, -1))  # step of the last computation
    return np.where(last >= 0, np.maximum(n[last] - (k - last), 0), 0)
