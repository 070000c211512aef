from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from anyctrl.availability import IidAvailability
from anyctrl.controller import (KINDS, ControllerKind, Ring, controller_step, drain,
                                effective_lengths, tentative_sequence)
from anyctrl.errors import CertificateViolation, ConfigError
from anyctrl.plants import DisturbanceModel, make_builtin_plant
from anyctrl.simulation import SimConfig, _blocks, run_episode

import oracles

CUBIC = make_builtin_plant("cubic_scalar")
LINEAR = make_builtin_plant("linear_scalar", a=1.2)
SAT_2D = make_builtin_plant("sat_2d")

n_sequences = st.lists(st.integers(min_value=0, max_value=4),
                       min_size=1, max_size=12)


def kernel_loop(kind, plant, n_sched, cap, buffer_cap=None, x0=None):
    """The package kernel on a forced `(lanes..., steps)` schedule without disturbance.

    Returns the played inputs `(steps, lanes..., p)` and the final state;
    the sequences still in flight are drained, so every depth is tested.
    """
    ctrl = ControllerKind(kind, buffer_cap=buffer_cap)
    n_sched = ctrl.capped(np.asarray(n_sched))
    lanes = n_sched.shape[:-1]
    x = np.ones(lanes + (plant.n,)) if x0 is None else np.asarray(x0, dtype=float)
    ring = Ring(plant, cap, lanes)
    w0 = np.zeros(plant.m)
    inputs = []
    for n, src in ring.steps(ctrl, n_sched):
        u = controller_step(ctrl, plant, x, n, ring, src)
        inputs.append(u)
        x = plant.f(x, u, w0)
    drain(plant, ring)
    return np.array(inputs), x


def oracle_loop(kind, plant, n_sched, cap, buffer_cap=None, x0=None):
    """The shift-buffer oracle on the same loop: (inputs, buffers after each step, final state)."""
    ctrl = ControllerKind(kind, buffer_cap=buffer_cap)
    n_sched = np.asarray(n_sched)
    lanes = n_sched.shape[:-1]
    x = np.ones(lanes + (plant.n,)) if x0 is None else np.asarray(x0, dtype=float)
    buf = np.zeros(lanes + (cap, plant.p))
    w0 = np.zeros(plant.m)
    inputs, buffers = [], []
    for k in range(n_sched.shape[-1]):
        u, buf = oracles.controller_step(ctrl, plant, x, n_sched[..., k], buf)
        inputs.append(u.copy())
        buffers.append(buf.copy())
        x = plant.f(x, u, w0)
    return np.array(inputs), buffers, x


def run_loop(kind, plant, n_seq, cap, buffer_cap=None):
    """Forced-schedule loop on the package kernel and on the oracle.

    Asserts that both play the same inputs and reach the same state, and
    returns (inputs, lambdas, oracle buffers, final state); lambdas are
    `effective_lengths` of a one-lane schedule and None for lanes.
    """
    inputs, x = kernel_loop(kind, plant, n_seq, cap, buffer_cap)
    want, buffers, x_want = oracle_loop(kind, plant, n_seq, cap, buffer_cap)
    np.testing.assert_array_equal(inputs, want)
    np.testing.assert_array_equal(x, x_want)
    ctrl = ControllerKind(kind, buffer_cap=buffer_cap)
    lams = (effective_lengths(ctrl, ctrl.capped(np.asarray(n_seq))).tolist()
            if np.ndim(n_seq) == 1 else None)
    return list(inputs), lams, buffers, x


def played_rollout(plant, x, n):
    """The n tentative inputs computed from state x, as the package plays them back.

    A sequence of n started at step 0 and never replaced is played whole;
    it must equal the oracle's full-depth rollout.
    """
    played, _ = kernel_loop("a2", plant, [n] + [0] * (n - 1), n, x0=x)
    want = np.empty((n, plant.p))
    oracles.tentative_sequence(plant, x, n, want)
    np.testing.assert_array_equal(played, want)
    return played


def test_controller_kind_validation():
    with pytest.raises(ConfigError, match="^controller.kind must"):
        ControllerKind("a3")


@pytest.mark.parametrize("cap", [2.5, True, "3", 0, -1, np.float64(2.0)])
def test_controller_kind_rejects_a_cap_that_is_no_integer_from_one(cap):
    """A float, a bool or a string cap once raised a TypeError inside the ring, `range` or `<`."""
    with pytest.raises(ConfigError, match="^controller.buffer_cap must"):
        ControllerKind("a1", buffer_cap=cap)


def test_controller_kind_takes_a_numpy_integer_cap_as_an_int():
    kind = ControllerKind("a2", buffer_cap=np.int64(2))
    assert type(kind.buffer_cap) is int and kind == ControllerKind("a2", buffer_cap=2)
    # a Python int cap keeps a uint8 schedule's type, where an int64 scalar would widen it
    assert kind.capped(np.array([0, 3, 1], dtype=np.uint8)).dtype == np.uint8


def test_tentative_sequence_from_one():
    ring = Ring(CUBIC, 4)
    ring.chi[0], ring.end[0] = 1.0, 3  # a sequence of three started at step 0
    # the nominal states contract by 0.99 per step; each depth's input is kappa there
    for chi in [1.0, 0.99, 0.9801]:
        rows = ring.in_flight()
        assert rows.tolist() == [0]
        tentative_sequence(CUBIC, ring, rows)
        np.testing.assert_allclose(ring.inputs[0], CUBIC.policy(np.array([chi])))
        ring.tick += 1
    assert ring.in_flight().size == 0  # the sequence ended at its end step
    np.testing.assert_allclose(ring.chi[0], [0.99 ** 3])
    # slots without a sequence in flight are left alone, and so is the zero row
    assert not ring.chi[1:].any() and not ring.inputs[1:].any()


def test_certificate_violation_reports_step():
    # a plant whose "certificate" is a lie: rho says halving, dynamics do nothing
    liar = replace(LINEAR, rho=0.01)
    with pytest.raises(CertificateViolation) as exc:
        kernel_loop("a2", liar, [3], 3)
    assert (exc.value.step_index, exc.value.start_step, exc.value.run) == (1, 0, 0)
    assert "prediction step 1 of the sequence computed at step 0 in run 0" in str(exc.value)
    with pytest.raises(CertificateViolation) as exc:
        oracles.tentative_sequence(liar, np.array([1.0]), 3, np.empty((3, 1)))
    assert exc.value.step_index == 1


def test_violation_names_the_earliest_sequence_not_the_first_detected():
    # rho = 0 fails every decrease test below DECREASE_CHECK_LIMIT. Lane 0's sequence
    # from step 0 first fails at depth 3 (step 2); lane 1's from step 1 fails at
    # depth 1 (step 1), which is seen first. Rolled out in full at their start
    # steps, lane 0's fails first, and the drain reports it.
    liar = replace(LINEAR, rho=0.0)
    x0 = np.array([[1e4 / LINEAR.rho ** 1.5], [1.0]])
    n = [[4, 0, 0, 0], [0, 1, 0, 0]]
    with pytest.raises(CertificateViolation) as exc:
        kernel_loop("a2", liar, n, 4, x0=x0)
    assert (exc.value.step_index, exc.value.start_step, exc.value.run) == (3, 0, 0)
    with pytest.raises(CertificateViolation) as exc:
        oracle_loop("a2", liar, n, 4, x0=x0)
    assert exc.value.step_index == 3


def test_baseline_ignores_buffer():
    ring = Ring(LINEAR, 2)
    u = controller_step(ControllerKind("baseline"), LINEAR, np.array([1.0]), 2, ring, None)
    np.testing.assert_allclose(u, LINEAR.policy(np.array([1.0])))
    u = controller_step(ControllerKind("baseline"), LINEAR, np.array([1.0]), 0, ring, None)
    np.testing.assert_array_equal(u, [0.0])
    assert ring.tick == 0 and not ring.end.any() and not ring.inputs.any()
    buf = np.array([[5.0], [6.0]])
    _, out = oracles.controller_step(ControllerKind("baseline"), LINEAR, np.array([1.0]), 2, buf)
    assert out is buf


def test_sequence_longer_than_buffer_rejected():
    """For a1 and a2 a capped schedule over the buffer capacity anywhere fails at the
    loop's entry, before the plant steps once; the baseline keeps no sequences and
    runs it."""
    f_calls = []

    def counted_f(x, u, w):
        f_calls.append(np.shape(x))
        return LINEAR.f(x, u, w)

    base = SimConfig(plant=replace(LINEAR, f=counted_f),
                     availability=IidAvailability([0.5, 0.3, 0.2]),  # capacity 2
                     controller=ControllerKind("a1"),
                     disturbance=DisturbanceModel(kind="none"), horizon=3, runs=2)
    # lane 1 asks for three inputs at step 1, after lane 0's first sequence
    n_sched, w, x0 = np.array([[1, 0, 0], [0, 3, 0]]), np.zeros((2, 3, 1)), np.ones((2, 1))
    for kind in KINDS:
        cfg = replace(base, controller=ControllerKind(kind))
        assert cfg.buffer_capacity == 2
        for run in (lambda: run_episode(cfg, 1, (n_sched, w, x0)),
                    lambda: list(_blocks(cfg, n_sched, w, x0))):
            f_calls.clear()
            if kind == "baseline":
                run()
                assert len(f_calls) == 3
            else:
                with pytest.raises(ConfigError, match="length 3 exceeds buffer capacity 2"):
                    run()
                assert f_calls == []
    with pytest.raises(ConfigError):
        oracles.controller_step(ControllerKind("a1"), LINEAR, np.array([1.0]), 3, np.zeros((2, 1)))


@pytest.mark.parametrize("kind", ["a1", "a2"])
@given(n_seq=n_sequences)
@settings(max_examples=80, deadline=None)
def test_loop_matches_naive_reimplementation(kind, n_seq):
    cap = 4
    inputs, lams, buffers, _ = run_loop(kind, LINEAR, n_seq, cap)
    _, naive_u, naive_lam, naive_buf = oracles.naive_closed_loop(
        kind, LINEAR, np.ones(1), n_seq, cap)
    assert lams == naive_lam
    for k in range(len(n_seq)):
        np.testing.assert_array_equal(inputs[k], naive_u[k])
        np.testing.assert_array_equal(buffers[k], naive_buf[k])


@pytest.mark.parametrize("kind", ["a1", "a2"])
@given(n_seq=n_sequences)
@settings(max_examples=80, deadline=None)
def test_lambda_recursion(kind, n_seq):
    _, lams, buffers, _ = run_loop(kind, LINEAR, n_seq, 4)
    oracle = (oracles.lam_sequence_a1 if kind == "a1"
              else oracles.lam_sequence_a2)(n_seq)
    assert lams == oracle
    # slots past the effective length hold zeros
    for lam, slots in zip(lams, buffers):
        np.testing.assert_array_equal(slots[lam:], 0.0)


@pytest.mark.parametrize("kind", KINDS)
@given(n_seq=st.lists(st.integers(min_value=0, max_value=6), max_size=20),
       buffer_cap=st.one_of(st.none(), st.integers(min_value=1, max_value=4)))
@settings(max_examples=80, deadline=None)
def test_effective_lengths_match_recursions(kind, n_seq, buffer_cap):
    ctrl = ControllerKind(kind, buffer_cap=buffer_cap)
    got = effective_lengths(ctrl, ctrl.capped(np.array(n_seq, dtype=np.int64)))
    capped = [n if buffer_cap is None else min(n, buffer_cap) for n in n_seq]
    want = {"baseline": lambda ns: [0] * len(ns), "a1": oracles.lam_sequence_a1,
            "a2": oracles.lam_sequence_a2}[kind](capped)
    assert got.dtype == np.int64 and got.tolist() == want


@given(n=arrays(st.sampled_from([np.uint8, np.uint16, np.int64]),
                array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
                elements=st.integers(min_value=0, max_value=9)),
       buffer_cap=st.one_of(st.integers(min_value=1, max_value=10),
                            st.integers(min_value=256, max_value=70_000)))
@settings(max_examples=80, deadline=None)
def test_capped_is_the_minimum_applied_once(n, buffer_cap):
    n.flags.writeable = False  # the shared draws are read-only
    ctrl = ControllerKind("a2", buffer_cap=buffer_cap)
    once = ctrl.capped(n)  # a cap outside the type's range never reaches np.minimum
    assert once.dtype == n.dtype
    np.testing.assert_array_equal(once, np.minimum(n.astype(np.int64), buffer_cap))
    # a cap that cannot bind copies nothing
    assert (once is n) == (buffer_cap >= n.max(initial=0))
    np.testing.assert_array_equal(ctrl.capped(once), once)
    # without a cap, a schedule is itself
    assert ControllerKind("a2").capped(n) is n


@given(n_seq=st.lists(st.integers(min_value=0, max_value=2),
                      min_size=1, max_size=12),
       cap=st.integers(min_value=1, max_value=2))
@settings(max_examples=80, deadline=None)
def test_small_buffers_make_both_variants_identical(n_seq, cap):
    n_seq = [min(n, cap) for n in n_seq]
    u1, lam1, buf1, x1 = run_loop("a1", LINEAR, n_seq, cap)
    u2, lam2, buf2, x2 = run_loop("a2", LINEAR, n_seq, cap)
    assert lam1 == lam2
    np.testing.assert_array_equal(np.array(u1), np.array(u2))
    np.testing.assert_array_equal(np.array(buf1), np.array(buf2))
    np.testing.assert_array_equal(x1, x2)


def test_buffer_cap_truncates():
    inputs, lams, _, _ = run_loop("a1", LINEAR, [4, 4, 0], 4, buffer_cap=2)
    assert lams == [2, 2, 1]
    capped, _, _, _ = run_loop("a1", LINEAR, [2, 2, 0], 4)
    np.testing.assert_array_equal(np.array(inputs), np.array(capped))


def test_playback_prediction_consistency():
    """During pure playback the plant follows the states predicted at computation time."""
    x0 = np.array([1.0])
    slots = played_rollout(LINEAR, x0, 4)
    predicted = oracles.predict_buffer_playback(LINEAR, x0, slots, 4, 4)
    _, _, _, x = run_loop("a2", LINEAR, [4, 0, 0, 0], 4)
    np.testing.assert_array_equal(x, predicted)
    chi = x0
    for _ in range(4):  # the nominal closed loop under kappa
        chi = LINEAR.f(chi, LINEAR.policy(chi), np.zeros(1))
    np.testing.assert_allclose(predicted, chi, atol=1e-15)


def test_matrix_oracles():
    s = oracles.shift_matrix(3, 2)
    b = np.arange(6.0).reshape(3, 2)
    np.testing.assert_array_equal((s @ b.reshape(-1)).reshape(3, 2),
                                  np.vstack([b[1:], np.zeros((1, 2))]))
    d1 = oracles.overwrite_matrix(1, 3, 2)
    assert d1.trace() == 2.0
    np.testing.assert_array_equal(oracles.overwrite_matrix(3, 3, 2), np.eye(6))
    m2 = oracles.keep_tail_matrix(2, 3, 2)
    kept = (m2 @ b.reshape(-1)).reshape(3, 2)
    np.testing.assert_array_equal(kept[:2], 0.0)
    np.testing.assert_array_equal(kept[2], b[2] * 0.0)  # slot 3 shifts in the zero fill
    with pytest.raises(ConfigError):
        oracles.overwrite_matrix(0, 3, 2)


@given(n=st.integers(min_value=1, max_value=4))
@settings(max_examples=20, deadline=None)
def test_a2_slot_update_equals_matrix_form(n):
    rng = np.random.default_rng(n)
    prev = rng.normal(size=(4, 1))
    x = np.array([1.0])
    controls = played_rollout(LINEAR, x, n)
    _, out = oracles.controller_step(ControllerKind("a2"), LINEAR, x, n, prev.copy())
    np.testing.assert_array_equal(out, oracles.a2_update_matrix_form(controls, prev))


@st.composite
def lane_schedules(draw):
    """(plant, capacity, buffer_cap, initial states, N schedule) for a few lanes."""
    plant = draw(st.sampled_from([LINEAR, SAT_2D]))
    cap = draw(st.integers(min_value=1, max_value=4))
    buffer_cap = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=cap)))
    lanes = draw(st.integers(min_value=1, max_value=5))
    steps = draw(st.integers(min_value=1, max_value=8))
    top = cap if buffer_cap is None else cap + 2  # the kernel caps at buffer_cap
    n = draw(st.lists(st.lists(st.integers(0, top), min_size=lanes, max_size=lanes),
                      min_size=steps, max_size=steps))
    coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    x0 = draw(st.lists(st.lists(coords, min_size=plant.n, max_size=plant.n),
                       min_size=lanes, max_size=lanes))
    return plant, cap, buffer_cap, np.array(x0), np.array(n).T


@pytest.mark.parametrize("kind", KINDS)
@given(case=lane_schedules())
@settings(max_examples=60, deadline=None)
def test_kernel_on_stacked_lanes_equals_kernel_per_lane(kind, case):
    plant, cap, buffer_cap, x0, n_sched = case
    inputs, x = kernel_loop(kind, plant, n_sched, cap, buffer_cap, x0)
    for r in range(x0.shape[0]):
        lane_inputs, lane_x = kernel_loop(kind, plant, n_sched[r], cap, buffer_cap, x0[r])
        np.testing.assert_array_equal(inputs[:, r], lane_inputs)
        np.testing.assert_array_equal(x[r], lane_x)
    want, _, x_want = oracle_loop(kind, plant, n_sched, cap, buffer_cap, x0)
    np.testing.assert_array_equal(inputs, want)
    np.testing.assert_array_equal(x, x_want)
