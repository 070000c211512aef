"""Baseline and sequence-based anytime controllers over a tentative-input buffer.

The anytime controllers store tentative future inputs in a shift buffer.
When no processor time is available (N(k) = 0) the buffer is shifted and
its head is applied; otherwise N(k) fresh tentative inputs are computed by
rolling the nominal model forward under the certified policy.

Variant one wipes the buffer on every recomputation; variant two keeps the
tail entries stemming from older computations, overwriting only the slots
covered by the new sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class BufferState:
    """Buffer of tentative inputs b_1..b_Lambda plus the effective length.

    Slots with index > effective_length hold zeros; the length is tracked
    explicitly because a legitimate control value can be exactly zero.
    """

    slots: np.ndarray  # shape (capacity, p)
    effective_length: int

    def __post_init__(self):
        if self.slots.ndim != 2:
            raise ConfigError("buffer slots must be a (capacity, p) array")
        if not (0 <= self.effective_length <= self.capacity):
            raise ConfigError(
                f"effective length {self.effective_length} outside 0..{self.capacity}")

    @property
    def capacity(self) -> int:
        return self.slots.shape[0]

    @property
    def input_dim(self) -> int:
        return self.slots.shape[1]

    @property
    def head(self) -> np.ndarray:
        return self.slots[0]


def empty_buffer(capacity: int, input_dim: int) -> BufferState:
    return BufferState(np.zeros((capacity, input_dim)), 0)


def shift(buf: BufferState) -> BufferState:
    """Move every slot up one position, zero-fill the last, decrement the length."""
    slots = np.vstack([buf.slots[1:], np.zeros((1, buf.input_dim))])
    return BufferState(slots, max(buf.effective_length - 1, 0))


@dataclass(frozen=True)
class TentativeSequence:
    """Controls computed ahead for the nominal model, with the predicted states.

    predicted_states[j] is the nominal state after applying controls[:j].
    """

    controls: np.ndarray  # shape (N, p)
    predicted_states: np.ndarray  # shape (N + 1, n)

    @property
    def length(self) -> int:
        return self.controls.shape[0]


def tentative_sequence(plant: PlantModel, x, length: int,
                       slack: float = DECREASE_SLACK) -> TentativeSequence:
    """Roll the certified policy forward `length` steps from state x.

    Each step is checked against the per-step Lyapunov decrease of the
    certificate; a failure means the supplied (V, kappa, rho) triple is
    inconsistent on this trajectory and raises CertificateViolation.
    """
    if length < 1:
        raise ConfigError(f"tentative sequence length must be >= 1, got {length}")
    x = np.asarray(x, dtype=float)
    controls = np.empty((length, plant.p))
    states = np.empty((length + 1, plant.n))
    states[0] = x
    chi = x
    v = float(plant.lyapunov(chi))
    w0 = np.zeros(plant.m)
    for j in range(length):
        u = np.asarray(plant.policy(chi), dtype=float)
        nxt = plant.f(chi, u, w0)
        v_next = float(plant.lyapunov(nxt))
        if v <= DECREASE_CHECK_LIMIT and v_next > plant.rho * v + slack * max(1.0, v):
            raise CertificateViolation(j + 1)
        controls[j] = u
        states[j + 1] = nxt
        chi, v = nxt, v_next
    return TentativeSequence(controls, states)


def controller_step(kind: ControllerKind, plant: PlantModel, x, n_avail: int,
                    buf: BufferState) -> Tuple[np.ndarray, BufferState]:
    """One controller update: returns the applied input and the next buffer.

    `n_avail` is the number of tentative inputs the processor allows this
    step; the baseline controller only uses the indicator n_avail >= 1.
    """
    if kind.kind == "baseline":
        if n_avail >= 1:
            return np.asarray(plant.policy(np.asarray(x, dtype=float)), dtype=float), buf
        return np.zeros(plant.p), buf

    n = n_avail
    if kind.buffer_cap is not None:
        n = min(n, kind.buffer_cap)
    if n > buf.capacity:
        raise ConfigError(f"sequence length {n} exceeds buffer capacity {buf.capacity}")

    if n == 0:
        nxt = shift(buf)
        return nxt.head.copy(), nxt

    seq = tentative_sequence(plant, x, n)
    slots = np.zeros_like(buf.slots)
    slots[:n] = seq.controls
    if kind.kind == "a1":
        lam = n
    else:
        # keep surviving tail entries from older computations
        slots[n:] = shift(buf).slots[n:]
        lam = max(n, buf.effective_length - 1)
    nxt = BufferState(slots, lam)
    return nxt.head.copy(), nxt


def predict_buffer_playback(plant: PlantModel, x, buf: BufferState, steps: int) -> np.ndarray:
    """Nominal state after `steps` steps of buffer playback with no recomputation.

    Inputs are read from successive buffer slots while the effective length
    lasts and are zero afterwards. Verification oracle; not on the control
    path.
    """
    x = np.asarray(x, dtype=float)
    w0 = np.zeros(plant.m)
    for _ in range(steps):
        if buf.effective_length > 0:
            u = buf.head
        else:
            u = np.zeros(plant.p)
        x = plant.f(x, u, w0)
        buf = shift(buf)
    return x


# --- literal matrix forms, used as oracles against the slot-wise updates ---

def shift_matrix(capacity: int, input_dim: int) -> np.ndarray:
    """Block shift matrix: (S b)_j = b_{j+1}, last block zero."""
    s = np.zeros((capacity * input_dim, capacity * input_dim))
    for j in range(capacity - 1):
        s[j * input_dim:(j + 1) * input_dim, (j + 1) * input_dim:(j + 2) * input_dim] = np.eye(input_dim)
    return s


def overwrite_matrix(i: int, capacity: int, input_dim: int) -> np.ndarray:
    """Block diagonal selector for the first i slots (identity when i = capacity)."""
    if not (1 <= i <= capacity):
        raise ConfigError(f"overwrite index {i} outside 1..{capacity}")
    d = np.zeros((capacity * input_dim, capacity * input_dim))
    d[: i * input_dim, : i * input_dim] = np.eye(i * input_dim)
    return d


def keep_tail_matrix(i: int, capacity: int, input_dim: int) -> np.ndarray:
    """M_i = (I - D_i) S: shifts the old buffer and zeroes the first i slots."""
    full = capacity * input_dim
    return (np.eye(full) - overwrite_matrix(i, capacity, input_dim)) @ shift_matrix(capacity, input_dim)


def a2_update_matrix_form(controls: np.ndarray, prev_slots: np.ndarray) -> np.ndarray:
    """Variant-two slot update evaluated through the literal matrix expression."""
    capacity, input_dim = prev_slots.shape
    n = controls.shape[0]
    stacked = np.zeros(capacity * input_dim)
    stacked[: n * input_dim] = controls.reshape(-1)
    out = stacked + keep_tail_matrix(n, capacity, input_dim) @ prev_slots.reshape(-1)
    return out.reshape(capacity, input_dim)
