import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anyctrl.controller import (KINDS, ControllerKind, controller_step,
                                effective_lengths, tentative_sequence)
from anyctrl.errors import CertificateViolation, ConfigError
from anyctrl.plants import make_builtin_plant

import oracles

CUBIC = make_builtin_plant("cubic_scalar")
LINEAR = make_builtin_plant("linear_scalar", a=1.2)
SAT_2D = make_builtin_plant("sat_2d")

n_sequences = st.lists(st.integers(min_value=0, max_value=4),
                       min_size=1, max_size=12)


def run_loop(kind, plant, n_seq, cap, buffer_cap=None):
    """Forced-schedule loop on one lane: (inputs, lambdas, buffers, final state)."""
    ctrl = ControllerKind(kind, buffer_cap=buffer_cap)
    buf = np.zeros((cap, plant.p))
    x = np.ones(plant.n)
    inputs, buffers = [], []
    for n in n_seq:
        u, buf = controller_step(ctrl, plant, x, n, buf)
        inputs.append(u.copy())
        buffers.append(buf.copy())
        x = plant.f(x, u, np.zeros(plant.m))
    return inputs, effective_lengths(ctrl, n_seq).tolist(), buffers, x


def test_controller_kind_validation():
    with pytest.raises(ConfigError):
        ControllerKind("a3")
    with pytest.raises(ConfigError):
        ControllerKind("a1", buffer_cap=0)


def test_tentative_sequence_from_one():
    out = np.full((4, 1), np.nan)
    tentative_sequence(CUBIC, np.array([1.0]), 3, out)
    # the nominal states contract by 0.99 per step; each input is kappa there
    for j, chi in enumerate([1.0, 0.99, 0.9801]):
        np.testing.assert_allclose(out[j], CUBIC.policy(np.array([chi])))
    assert np.isnan(out[3, 0])  # rows past the sequence are left alone


def test_tentative_sequence_rejects_bad_length():
    with pytest.raises(ConfigError):
        tentative_sequence(CUBIC, np.array([1.0]), 0, np.empty((2, 1)))
    with pytest.raises(ConfigError):
        tentative_sequence(CUBIC, np.array([[1.0], [1.0]]), [0, 3], np.empty((2, 2, 1)))


def test_certificate_violation_reports_step():
    # a plant whose "certificate" is a lie: rho says halving, dynamics do nothing
    from dataclasses import replace
    liar = replace(LINEAR, rho=0.01)
    with pytest.raises(CertificateViolation) as exc:
        tentative_sequence(liar, np.array([1.0]), 3, np.empty((3, 1)))
    assert exc.value.step_index == 1


def test_baseline_ignores_buffer():
    buf = np.array([[5.0], [6.0]])
    u, out = controller_step(ControllerKind("baseline"), LINEAR, np.array([1.0]), 2, buf)
    np.testing.assert_allclose(u, LINEAR.policy(np.array([1.0])))
    assert out is buf
    u, out = controller_step(ControllerKind("baseline"), LINEAR, np.array([1.0]), 0, buf)
    np.testing.assert_array_equal(u, [0.0])


def test_sequence_longer_than_buffer_rejected():
    buf = np.zeros((2, 1))
    with pytest.raises(ConfigError):
        controller_step(ControllerKind("a1"), LINEAR, np.array([1.0]), 3, buf)


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
    got = effective_lengths(ControllerKind(kind, buffer_cap=buffer_cap), n_seq)
    capped = [n if buffer_cap is None else min(n, buffer_cap) for n in n_seq]
    want = {"baseline": lambda ns: [0] * len(ns), "a1": oracles.lam_sequence_a1,
            "a2": oracles.lam_sequence_a2}[kind](capped)
    assert got.dtype == np.int64 and got.tolist() == want


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
    slots = np.empty((4, 1))
    tentative_sequence(LINEAR, x0, 4, slots)
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
    controls = np.empty((4, 1))
    tentative_sequence(LINEAR, x, n, controls)
    _, out = controller_step(ControllerKind("a2"), LINEAR, x, n, prev.copy())
    np.testing.assert_array_equal(out, oracles.a2_update_matrix_form(controls[:n], prev))


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
    return plant, cap, buffer_cap, np.array(x0), np.array(n)


@pytest.mark.parametrize("kind", KINDS)
@given(case=lane_schedules())
@settings(max_examples=60, deadline=None)
def test_kernel_on_stacked_lanes_equals_kernel_per_lane(kind, case):
    plant, cap, buffer_cap, x, n_sched = case
    ctrl = ControllerKind(kind, buffer_cap=buffer_cap)
    lanes = x.shape[0]
    buf = np.zeros((lanes, cap, plant.p))
    rows = [(x[r].copy(), buf[r].copy()) for r in range(lanes)]
    w0 = np.zeros(plant.m)
    for n in n_sched:
        u, buf = controller_step(ctrl, plant, x, n, buf)
        for r in range(lanes):
            x_r, buf_r = rows[r]
            u_r, buf_r = controller_step(ctrl, plant, x_r, n[r], buf_r)
            np.testing.assert_array_equal(u[r], u_r)
            np.testing.assert_array_equal(buf[r], buf_r)
            rows[r] = (plant.f(x_r, u_r, w0), buf_r)
        x = plant.f(x, u, w0)
        np.testing.assert_array_equal(x, np.array([row[0] for row in rows]))
