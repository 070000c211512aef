"""Independent reference implementations used to cross-check the package.

Everything in here is deliberately written in the most literal way
possible (python loops, lists, truncated infinite sums) so that it shares
no code with the production modules it is checking. The one exception is
the masked batch engine at the end, which reads each run's disturbances
and initial state through the package's own `_run_draws` (`presample_run`):
it is the reference for the batch engine's arithmetic, not for those
draws. Its N schedules come from `sample_loop`, one step at a time, so
they check the package's sampler too.

The shift-buffer controller (`tentative_sequence` and `controller_step`)
is the kernel the package ran before it kept a ring of in-flight
sequences. It rolls every sequence out in full when it starts and keeps
the buffer of tentative inputs explicit, so it is the per-lane reference
for buffer contents, which the package no longer stores.
`ring_advance_fancy` is the ring advance with numpy's row-subspace
assignment, the reference for the package's whole-row scatters.
`sat_2d_f` and `sat_2d_policy` are the sat_2d plant's formulas written
out in their order of operations, the reference for its callables' bits.

`seq_len_prob` and `gap_pmf_series` are the gap statistics that
criteria 2 and 3 check, which no shipped code computes. `empirical_cost`
is the reference for the engine's per-run costs: it adds a trace's stage
costs one step at a time, in python floats.

`write_runs_csv`, `write_trace_csv` and `write_sweep_csv` write the CLI's
CSV files with the csv module, one `csv.writer` or `csv.DictWriter` row at
a time: the reference for the bytes of the package's bulk writers.

`validate_elementwise` tests the availability invariants of a model's
arrays with elementwise masks (`(a >= 0).all()`, `np.abs(sums - 1) > tol`),
and `model_error` turns them into the message a model's constructor
raises; `upsilon_l_loop` is the stacked upsilon pass with one
accumulation step per gap length l and one `inv` call per matrix: the
references for the models' constructors (which call
`availability.validate`) and the bits of `stability.upsilon`. Both take
their verdicts on primitivity and on the spectral radius from the
oracles here.

`lyapunov_at` and `mean_lyapunov_at` are no references: they read V at
given steps from the states the package's loop (`simulation._blocks`)
yields, for the tests that check those states.
"""

import csv

import numpy as np

from anyctrl.availability import IidAvailability, length_dtype
from anyctrl.controller import DECREASE_CHECK_LIMIT, DECREASE_SLACK
from anyctrl.errors import CertificateViolation, ConfigError
from anyctrl.experiments import SWEEP_COLUMNS
from anyctrl.simulation import OVERFLOW_GUARD, _blocks, _run_draws, presample

SERIES_TERMS = 500


# --- certificate quantities as truncated series over the gap length ---

def omega_l_series(length, p0, rho, alpha, terms=SERIES_TERMS):
    """Gap-contraction factor for a stored sequence of `length`, summed term by term.

    The closed form collapses sum_{j<=l} p0^{j-1} rho^j plus the geometric
    tail sum_{j>l} p0^{j-1} alpha^(j-l) rho^l.
    """
    total = 0.0
    for j in range(1, terms + 1):
        if j <= length:
            total += p0 ** (j - 1) * rho ** j
        else:
            total += p0 ** (j - 1) * alpha ** (j - length) * rho ** length
    return total


def omega_series(pmf, rho, alpha, terms=SERIES_TERMS):
    pmf = np.asarray(pmf, dtype=float)
    p0 = pmf[0]
    return sum(pmf[l] * omega_l_series(l, p0, rho, alpha, terms)
               for l in range(1, pmf.size))


def upsilon_series(transition, cond_pmfs, rho, alpha, terms=SERIES_TERMS):
    """Per-state gap contraction for the Markov processor model, term by term.

    For each state s with idle probability below one, sums
    (1/(1-p0|s)) * sum_l p_{l|s} * qbar_s (sum_{j<=l} Qbar^{j-1} rho^j
    + rho^l sum_{j>l} Qbar^{j-1} alpha^{j-l}) pbar.
    """
    q = np.asarray(transition, dtype=float)
    pmfs = np.asarray(cond_pmfs, dtype=float)
    g = q.shape[0]
    p0s = pmfs[:, 0]
    q_damped = np.diag(p0s) @ q
    p_bar = 1.0 - p0s
    out = np.full(g, np.nan)
    # precompute Qbar^{j-1} once, shared across states and lengths
    powers = [np.eye(g)]
    for _ in range(terms - 1):
        powers.append(powers[-1] @ q_damped)
    for s in range(g):
        if p0s[s] >= 1.0:
            continue
        acc = 0.0
        for l in range(1, pmfs.shape[1]):
            inner = np.zeros((g, g))
            for j in range(1, terms + 1):
                if j <= l:
                    inner += powers[j - 1] * rho ** j
                else:
                    inner += powers[j - 1] * rho ** l * alpha ** (j - l)
            acc += pmfs[s, l] * float(q[s] @ inner @ p_bar)
        out[s] = acc / (1.0 - p0s[s])
    return out


def seq_len_prob(pmf):
    """Pr{the next computation comes before the stored sequence runs out}, as a double sum.

    Sums Pr{N = l | N >= 1} * Pr{gap = j} over every gap j <= l, where the
    gap between computations is geometric: Pr{gap = j} = p0^(j-1) (1 - p0).
    """
    pmf = np.asarray(pmf, dtype=float)
    p0 = pmf[0]
    total = 0.0
    for l in range(1, pmf.size):
        for j in range(1, l + 1):
            total += pmf[l] / (1.0 - p0) * p0 ** (j - 1) * (1.0 - p0)
    return total


def gap_pmf_series(transition, cond_pmfs, state, gap):
    """Pr{gap between computations = gap | state at last computation}, literally.

    Enumerates nothing: multiplies out qbar_s Qbar^{gap-1} pbar with an
    explicit python product loop.
    """
    q = np.asarray(transition, dtype=float)
    p0s = np.asarray(cond_pmfs, dtype=float)[:, 0]
    vec = q[state].copy()
    for _ in range(gap - 1):
        vec = (vec * p0s) @ q
    return float(np.sum(vec * (1.0 - p0s)))


# --- the per-run cost of a trace ---

def empirical_cost(trace, q_x, r_u):
    """Per-step average of q_x*|x|^2 + r_u*|u|^2, summed in step order; inf for a diverged trace."""
    if trace.diverged:
        return float("inf")
    total = 0.0
    for x, u in zip(trace.x.tolist(), trace.u.tolist()):
        total += q_x * sum(c * c for c in x) + r_u * sum(c * c for c in u)
    return total / trace.steps


# --- the CLI's CSV files, written by the csv module ---

def write_runs_csv(summary, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "cost", "diverged"])
        for r, c in enumerate(summary.per_run_costs):
            writer.writerow([r, repr(float(c)), int(not np.isfinite(c))])


def write_trace_csv(trace, path):
    n, p = trace.x.shape[1], trace.u.shape[1]
    header = (["k"] + [f"x{i + 1}" for i in range(n)] + [f"u{i + 1}" for i in range(p)]
              + ["N", "lambda", "V"])
    columns = [range(trace.steps),
               *(map(repr, c) for c in np.concatenate((trace.x, trace.u), axis=1).T.tolist()),
               trace.n_seq.tolist(), trace.lam.tolist(), map(repr, trace.v.tolist())]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def write_sweep_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in SWEEP_COLUMNS})


# --- the sat_2d plant, one formula per component ---

def sat_2d_f(x, u, w):
    """(((x2 + u1) + sqrt(w1^2 + 5)) - sqrt(5), -sat(x1 + x2) + u2), broadcast over leading axes."""
    x1, x2, u1, u2, w1 = x[..., 0], x[..., 1], u[..., 0], u[..., 1], w[..., 0]
    first = ((x2 + u1) + np.sqrt(w1 ** 2 + 5.0)) - np.sqrt(5.0)
    second = -np.clip(x1 + x2, -1.0, 1.0) + u2
    return np.stack(np.broadcast_arrays(first, second), axis=-1)


def sat_2d_policy(x):
    """(-x2, 0.8 * sat(x1 + x2)), broadcast over leading axes."""
    x1, x2 = x[..., 0], x[..., 1]
    return np.stack((-x2, 0.8 * np.clip(x1 + x2, -1.0, 1.0)), axis=-1)


# --- the certificate kernels as they were written before stacking ---

def spectral_radius_loop(mat, iterations=200, tol=1e-12):
    """Power iteration with `np.linalg.norm`: the iterates `spectral_radius` must reproduce."""
    v = np.ones(mat.shape[0])
    radius = 0.0
    for _ in range(iterations):
        w = mat @ v
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            return 0.0
        if abs(nrm - radius) <= tol * max(1.0, radius):
            return nrm
        radius = nrm
        v = w / nrm
    return radius


def upsilon_per_state(transition, cond_pmfs, rho, alpha):
    """Per-state Upsilon, one state at a time with its own powers of rho * Qbar.

    Returns None where the power-iteration guard reports that the series
    diverges; degenerate states (p0|s = 1) are NaN.
    """
    q_bar = np.asarray(transition, dtype=float)
    pmfs = np.asarray(cond_pmfs, dtype=float)
    g = q_bar.shape[0]
    q_damped = np.diag(pmfs[:, 0]) @ q_bar
    p_bar = 1.0 - pmfs[:, 0]
    if spectral_radius_loop(alpha * q_damped) >= 1.0:
        return None
    eye = np.eye(g)
    inv_rho = np.linalg.inv(eye - rho * q_damped)
    inv_alpha = np.linalg.inv(eye - alpha * q_damped)
    rq = rho * q_damped
    out = np.full(g, np.nan)
    for s in range(g):
        p0s = pmfs[s, 0]
        if p0s >= 1.0:
            continue
        weighted = np.zeros((g, g))
        power = eye
        for l in range(1, pmfs.shape[1]):
            power = power @ rq
            weighted += pmfs[s, l] * power
        core = rho * eye + (alpha - rho) / (1.0 - p0s) * inv_alpha @ weighted
        out[s] = float(q_bar[s] @ inv_rho @ core @ p_bar)
    return out


def upsilon_l_loop(transition, cond_pmfs, rho, alpha):
    """Every live state's Upsilon in one stacked pass, accumulating over l one term at a time.

    Returns None where the power-iteration guard reports that the series
    diverges; degenerate states (p0|s = 1) are NaN.
    """
    q_bar = np.asarray(transition, dtype=float)
    pmfs = np.asarray(cond_pmfs, dtype=float)
    g = q_bar.shape[0]
    p0 = pmfs[:, 0]
    q_damped = p0[:, None] * q_bar
    if spectral_radius_loop(alpha * q_damped) >= 1.0:
        return None
    eye = np.eye(g)
    inv_rho = np.linalg.inv(eye - rho * q_damped)
    inv_alpha = np.linalg.inv(eye - alpha * q_damped)
    rq = rho * q_damped
    live = np.flatnonzero(p0 < 1.0)
    live_pmfs = pmfs[live]
    weighted = np.zeros((live.size, g, g))
    power = eye
    for l in range(1, pmfs.shape[1]):
        power = power @ rq
        weighted += live_pmfs[:, l, None, None] * power
    scale = (alpha - rho) / (1.0 - live_pmfs[:, 0])
    core = rho * eye + scale[:, None, None] * inv_alpha @ weighted
    out = np.full(g, np.nan)
    out[live] = (q_bar[live, None, :] @ inv_rho @ core @ (1.0 - p0))[:, 0]
    return out


def validate_elementwise(*arrays, tol=1e-12):
    """The violated invariants of a pmf, or of a (transition, cond_pmfs) pair, by elementwise masks."""
    problems = []
    if len(arrays) == 1:
        pmf = np.asarray(arrays[0], dtype=float)
        if not (pmf >= 0).all():
            problems.append("pmf has negative or NaN entries")
        # finite entries near 1e308 sum to inf, or to NaN where partial sums of both signs overflow
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(pmf.sum())
        if not abs(total - 1.0) <= tol:
            problems.append(f"pmf sums to {total}, not 1")
        if pmf[0] >= 1.0 - tol:
            problems.append("p0 = 1: the processor is never available")
        return problems
    q, pmfs = (np.asarray(a, dtype=float) for a in arrays)
    q_signed = (q >= 0).all()
    if not q_signed:
        problems.append("transition matrix has negative or NaN entries")
    with np.errstate(over="ignore", invalid="ignore"):
        row_sums, pmf_sums = q.sum(axis=1), pmfs.sum(axis=1)
    bad = (np.abs(row_sums - 1.0) > tol).nonzero()[0]
    for i in bad:
        problems.append(f"transition row {i} sums to {row_sums[i]}, not 1")
    if not bad.size and q_signed and not is_primitive_stepwise(q):
        problems.append("transition matrix is not irreducible and aperiodic")
    if not (pmfs >= 0).all():
        problems.append("conditional pmfs have negative or NaN entries")
    for i in (np.abs(pmf_sums - 1.0) > tol).nonzero()[0]:
        problems.append(f"conditional pmf for state {i} sums to {pmf_sums[i]}, not 1")
    if (pmfs[:, 0] >= 1.0 - tol).all():
        problems.append("every state has p0 = 1: the processor is never available")
    return problems


def model_error(*arrays):
    """The message an availability model's constructor raises on `arrays`, or None if it builds.

    `arrays` is a pmf, or a (transition, cond_pmfs) pair; an array's first
    non-finite entry (in C order) is named by its key before any invariant.
    """
    keys = ("availability.p",) if len(arrays) == 1 else ("availability.Q", "availability.P")
    for key, a in zip(keys, arrays):
        bad = np.asarray(a, dtype=float)[~np.isfinite(a)].tolist()
        if bad:
            return f"{key} must be finite, got {bad[0]!r}"
    problems = validate_elementwise(*arrays)
    if not problems:
        return None
    where = "availability.p" if len(arrays) == 1 else "availability"
    return f"{where}: invalid availability model: " + "; ".join(problems)


def is_primitive_stepwise(mat):
    """Whether one of the boolean powers b^1 .. b^(G^2 + 1) is all positive, power by power."""
    g = mat.shape[0]
    b = mat > 0
    power = b.copy()
    for _ in range(g * g):
        if power.all():
            return True
        power = power @ b
    return bool(power.all())


# --- availability draws, one clipped cdf inversion per step ---

def _clipped_pick(cdf, u):
    """Invert a cdf at u; clipped to the last index against float residue at the top."""
    return min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)


def sample_loop(model, rng, count):
    """(`count` lengths drawn one step at a time, final chain state) of a sampler on `rng`.

    A Markov model draws an unset initial state from the stationary
    distribution; an i.i.d. model has no chain state (None).
    """
    if isinstance(model, IidAvailability):
        cdf = np.cumsum(model.pmf)
        return [_clipped_pick(cdf, rng.random()) for _ in range(count)], None
    rows = np.cumsum(model.cond_pmfs, axis=1)
    trans = np.cumsum(model.transition, axis=1)
    state = model.initial_state
    if state is None:
        state = _clipped_pick(np.cumsum(model.stationary), rng.random())
    lengths = []
    for _ in range(count):
        lengths.append(_clipped_pick(rows[state], rng.random()))
        state = _clipped_pick(trans[state], rng.random())
    return lengths, state


# --- effective-length bookkeeping recursions, straight off the definitions ---

def lam_sequence_a1(n_seq):
    lam, out = 0, []
    for n in n_seq:
        lam = n if n >= 1 else max(lam - 1, 0)
        out.append(lam)
    return out


def lam_sequence_a2(n_seq):
    lam, out = 0, []
    for n in n_seq:
        lam = max(n, lam - 1) if n >= 1 else max(lam - 1, 0)
        out.append(lam)
    return out


# --- a from-scratch re-implementation of the buffered controllers ---

def naive_tentative(plant, x, length):
    """Roll the policy forward on the nominal model; no certificate checking."""
    controls = []
    chi = np.array(x, dtype=float)
    w0 = np.zeros(plant.m)
    for _ in range(length):
        u = np.atleast_1d(np.asarray(plant.policy(chi), dtype=float))
        controls.append(u)
        chi = plant.f(chi, u, w0)
    return controls


def naive_closed_loop(kind, plant, x0, n_seq, cap, buffer_cap=None, w_seq=None):
    """Simulate the buffered loop with plain python lists.

    Returns (states, inputs, lambdas, buffers) where buffers[k] is the
    buffer content after the step-k update, as a (cap, p) array.
    """
    p = plant.p
    zero = np.zeros(p)
    buf = [zero.copy() for _ in range(cap)]
    lam = 0
    x = np.array(x0, dtype=float)
    states, inputs, lams, buffers = [], [], [], []
    for k, n in enumerate(map(int, n_seq)):  # Python ints, whatever the schedule's type
        if buffer_cap is not None:
            n = min(n, buffer_cap)
        if kind == "baseline":
            u = (np.atleast_1d(np.asarray(plant.policy(x), dtype=float))
                 if n >= 1 else zero.copy())
        elif n == 0:
            buf = buf[1:] + [zero.copy()]
            lam = max(lam - 1, 0)
            u = buf[0].copy()
        else:
            fresh = naive_tentative(plant, x, n)
            if kind == "a1":
                buf = fresh + [zero.copy() for _ in range(cap - n)]
                lam = n
            else:
                shifted = buf[1:] + [zero.copy()]
                buf = fresh + shifted[n:]
                lam = max(n, lam - 1)
            u = buf[0].copy()
        states.append(x.copy())
        inputs.append(u.copy())
        lams.append(lam)
        buffers.append(np.array(buf))
        w = np.zeros(plant.m) if w_seq is None else np.asarray(w_seq[k], dtype=float)
        x = plant.f(x, u, w)
    return states, inputs, lams, buffers


def predict_buffer_playback(plant, x, slots, effective_length, steps):
    """Nominal state after `steps` steps of playing back a (capacity, p) buffer.

    Inputs are read from successive slots while the effective length lasts
    and are zero afterwards; nothing is recomputed.
    """
    x = np.asarray(x, dtype=float)
    w0 = np.zeros(plant.m)
    for j in range(steps):
        u = slots[j] if j < min(effective_length, len(slots)) else np.zeros(plant.p)
        x = plant.f(x, u, w0)
    return x


# --- the full-depth shift-buffer controller, broadcasting over leading lanes ---

def tentative_sequence(plant, x, n, out):
    """Roll the certified policy forward to depth max(n) from every lane's state.

    Writes the input applied at depth j + 1 into `out[..., j, :]`; rows at
    or past a lane's own n are scratch. The decrease test runs on the lanes
    whose n reaches each depth, and a failure raises CertificateViolation
    with the first failing depth.
    """
    n = np.asarray(n)
    depth = int(n.max())
    if depth < 1:
        raise ConfigError(f"tentative sequence length must be >= 1, got {depth}")
    if depth > out.shape[-2]:
        raise ConfigError(f"sequence length {depth} exceeds buffer capacity {out.shape[-2]}")
    chis = np.empty((depth + 1,) + np.shape(x))
    chis[0] = x
    w0 = np.zeros(plant.m)
    for j in range(depth):
        u = plant.policy(chis[j])
        out[..., j, :] = u
        chis[j + 1] = plant.f(chis[j], u, w0)
    v = plant.lyapunov(chis)
    v_now, v_next = v[:-1], v[1:]
    bad = ((v_now <= DECREASE_CHECK_LIMIT)
           & (v_next > plant.rho * v_now + DECREASE_SLACK * np.maximum(1.0, v_now)))
    bad &= n >= np.arange(1, depth + 1).reshape((depth,) + (1,) * n.ndim)
    if bad.any():
        raise CertificateViolation(int(bad.reshape(depth, -1).any(1).argmax()) + 1)


def controller_step(kind, plant, x, n, buf):
    """One shift-buffer update on every lane: returns (applied input, next buffer).

    `buf` is `(..., capacity, p)`. Lanes that compute nothing shift their
    buffer up one slot, zero-filling the last; a fresh sequence overwrites
    the first n slots, and a1 also zeroes the slots behind it. The baseline
    leaves the buffer alone.
    """
    n = np.asarray(n)
    if kind.kind == "baseline":
        return np.where((n >= 1)[..., None], plant.policy(x), 0.0), buf
    if kind.buffer_cap is not None:
        n = np.minimum(n, kind.buffer_cap)
    zero_slot = np.zeros(buf.shape[:-2] + (1, buf.shape[-1]))
    nxt = np.concatenate([buf[..., 1:, :], zero_slot], axis=-2)
    if n.any():
        fresh = np.empty_like(buf)
        tentative_sequence(plant, x, n, fresh)
        n_slot = n[..., None, None]
        fresh_slot = np.arange(buf.shape[-2])[:, None] < n_slot
        if kind.kind == "a2":
            nxt = np.where(fresh_slot, fresh, nxt)
        else:
            nxt = np.where(n_slot >= 1, np.where(fresh_slot, fresh, 0.0), nxt)
    return nxt[..., 0, :], nxt


# --- the ring advance with numpy's row-subspace scatters ---

def ring_advance_fancy(plant, ring, rows):
    """`controller.tentative_sequence` with numpy's row-subspace assignment for the scatters.

    The package scatters each ring row as one opaque item; this writes the
    same rows through `chis[rows] = nxt`, which casts and reorders as plain
    assignment does.
    """
    chis = ring.chi.reshape(-1, ring.chi.shape[-1])
    chi = chis.take(rows, axis=0)
    u = plant.policy(chi)
    nxt = plant.f(chi, u, np.zeros(plant.m))
    chis[rows] = nxt
    ring.inputs[rows] = u
    ring.pending.append((ring.tick, rows, chi, nxt))


# --- literal matrix forms of the buffer updates ---

def shift_matrix(capacity, input_dim):
    """Block shift matrix: (S b)_j = b_{j+1}, last block zero."""
    s = np.zeros((capacity * input_dim, capacity * input_dim))
    for j in range(capacity - 1):
        s[j * input_dim:(j + 1) * input_dim, (j + 1) * input_dim:(j + 2) * input_dim] = np.eye(input_dim)
    return s


def overwrite_matrix(i, capacity, input_dim):
    """Block diagonal selector for the first i slots (identity when i = capacity)."""
    if not (1 <= i <= capacity):
        raise ConfigError(f"overwrite index {i} outside 1..{capacity}")
    d = np.zeros((capacity * input_dim, capacity * input_dim))
    d[: i * input_dim, : i * input_dim] = np.eye(i * input_dim)
    return d


def keep_tail_matrix(i, capacity, input_dim):
    """M_i = (I - D_i) S: shifts the old buffer and zeroes the first i slots."""
    full = capacity * input_dim
    return (np.eye(full) - overwrite_matrix(i, capacity, input_dim)) @ shift_matrix(capacity, input_dim)


def a2_update_matrix_form(controls, prev_slots):
    """Variant-two slot update evaluated through the literal matrix expression.

    `controls` is `(..., n, p)` and `prev_slots` is `(..., capacity, p)`;
    every lane applies the same matrix M_n.
    """
    *lanes, capacity, input_dim = prev_slots.shape
    n = controls.shape[-2]
    stacked = np.zeros(lanes + [capacity * input_dim])
    stacked[..., : n * input_dim] = controls.reshape(lanes + [n * input_dim])
    tail = keep_tail_matrix(n, capacity, input_dim)
    out = stacked + (tail @ prev_slots.reshape(lanes + [capacity * input_dim])[..., None])[..., 0]
    return out.reshape(prev_slots.shape)


# --- the scalar LQR gain by iterating the Riccati recursion ---

def riccati_gain_loop(a, q, r, tol=1e-12, max_iter=100000):
    """LQR gain for x+ = a x + u from the Riccati recursion iterated from p = q.

    Stops once an iterate moves by at most `tol`. From p = 0 (q = 0) the
    recursion never moves, so it returns gain 0 even where |a| > 1.
    """
    pk = q
    for _ in range(max_iter):
        pk_next = q + a * a * pk * r / (r + pk)
        if abs(pk_next - pk) <= tol:
            pk = pk_next
            break
        pk = pk_next
    return a * pk / (r + pk)


# --- the batch engine with one masked rollout pass and decrease test per depth ---

def presample_run(config, run_index):
    """(N schedule, disturbance draws, x0) for one run, drawn from its own three streams.

    The schedule is `sample_loop`'s on the run's availability stream, stored
    as `availability.length_dtype`. `run_episode` draws nothing: it reads
    row `run_index` of a `presample` block, whose schedules one sampler
    over all runs draws. This draws that row the slow way, one step at a
    time, for the references that compare with it.
    """
    avail_rng, w, x0 = _run_draws(config, run_index)
    lengths, _ = sample_loop(config.availability, avail_rng, config.horizon)
    return np.array(lengths, dtype=length_dtype(config.availability.max_len)), w, x0


def masked_batch_simulate(config, checkpoints=(), draws=None):
    """Per-run costs and {k: V row at step k}, stepping all runs together.

    Rolls out depth by depth: each depth evaluates V before and after the
    step and tests the decrease on the runs whose N(k) reaches it, and
    only those runs advance. Every run is stepped for the whole horizon.
    `draws` replaces the per-run streams with (N, w, x0) arrays. A failed
    test raises at its step k, with the first failing depth and the
    lowest run failing there.
    """
    plant = config.plant
    horizon, runs = config.horizon, config.runs
    cap = config.buffer_capacity
    kind = config.controller
    rho, slack = plant.rho, DECREASE_SLACK

    if draws is not None:  # lengths widened to int64, as drawn below
        n_all, w_all, x = (np.array(a, dtype=t) for a, t in zip(draws, (np.int64, float, float)))
    else:
        n_all = np.empty((runs, horizon), dtype=np.int64)
        w_all = np.empty((runs, horizon, plant.m))
        x = np.empty((runs, plant.n))
        for r in range(runs):
            n_all[r], w_all[r], x[r] = presample_run(config, r)
    if kind.buffer_cap is not None:
        n_all = np.minimum(n_all, kind.buffer_cap)

    buf = np.zeros((runs, cap, plant.p))
    alive = np.ones(runs, dtype=bool)
    cost = np.zeros(runs)
    v_rows = {}
    w0 = np.zeros((runs, plant.m))
    slot_idx = np.arange(cap)[None, :, None]

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(horizon):
            n_now = np.where(alive, n_all[:, k], 0)
            if kind.kind == "baseline":
                u = np.where((n_now >= 1)[:, None], plant.policy(x), 0.0)
            else:
                shifted = np.concatenate([buf[:, 1:], np.zeros((runs, 1, plant.p))], axis=1)
                fresh = np.zeros_like(buf)
                chi = x
                for j in range(1, int(n_now.max(initial=0)) + 1):
                    act = n_now >= j
                    uj = plant.policy(chi)
                    nxt = plant.f(chi, uj, w0)
                    v, v_next = plant.lyapunov(chi), plant.lyapunov(nxt)
                    bad = (act & (v <= DECREASE_CHECK_LIMIT)
                           & (v_next > rho * v + slack * np.maximum(1.0, v)))
                    if np.any(bad):
                        raise CertificateViolation(j, k, int(np.argmax(bad)))
                    fresh[:, j - 1] = np.where(act[:, None], uj, 0.0)
                    chi = np.where(act[:, None], nxt, chi)
                tail = shifted if kind.kind == "a2" else np.zeros_like(buf)
                cand = np.where(slot_idx < n_now[:, None, None], fresh, tail)
                buf = np.where((n_now >= 1)[:, None, None], cand, shifted)
                u = buf[:, 0, :]

            if k in checkpoints:
                v_rows[k] = plant.lyapunov(x).copy()
            stage = config.q_x * np.sum(x ** 2, axis=-1) + config.r_u * np.sum(u ** 2, axis=-1)
            cost = np.where(alive, cost + stage, cost)
            x_next = plant.f(x, u, w_all[:, k])
            dead = (~np.all(np.isfinite(x_next), axis=-1)
                    | (np.linalg.norm(x_next, axis=-1) > OVERFLOW_GUARD))
            alive = alive & ~dead
            x = np.where(alive[:, None], x_next, x)

    costs = cost / horizon
    costs[~alive] = float("inf")
    return costs, v_rows


# --- V at given steps, read from the states the package's loop yields ---

def lyapunov_at(config, steps, draws=None):
    """V(x(k)) of every run at each step k in `steps`: `(len(steps), runs)`, in the order given.

    `draws` is `presample(config)`, drawn here when not given. Once every
    run has diverged the loop stops; a later step reads each run's last
    state, which a diverged run keeps.
    """
    if any(not 0 <= k < config.horizon for k in steps):
        raise ConfigError(f"steps must lie in 0..{config.horizon - 1}, got {steps}")
    n_all, w_all, x0 = presample(config) if draws is None else draws
    rows, start = {}, 0
    for states, _, _ in _blocks(config, config.controller.capped(n_all), w_all, x0):
        for k in set(steps).intersection(range(start, start + len(states))):
            rows[k] = states[k - start]
        start += len(states)
    return np.array([config.plant.lyapunov(rows.get(k, states[-1])) for k in steps])


def mean_lyapunov_at(config, steps):
    """Mean and standard error of V(x(k)) over runs at the given steps."""
    v_at = lyapunov_at(config, steps)
    return v_at.mean(axis=1), v_at.std(axis=1, ddof=1) / np.sqrt(v_at.shape[1])
