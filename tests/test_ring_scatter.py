"""The ring's whole-row scatters equal numpy's row-subspace assignment.

`controller.tentative_sequence` writes each advanced state and input into
the ring as one opaque item per row, after casting the plant's output to
contiguous float64. Plants may return Fortran-ordered, transposed, strided
or float32 arrays; the ring and every cost must then be what the plain
`chis[rows] = nxt` assignment of `oracles.ring_advance_fancy` gives, and
the batch engine must cost a run as its own episode does.
"""

from dataclasses import replace

import numpy as np
import pytest

from anyctrl import controller
from anyctrl.availability import MarkovAvailability
from anyctrl.controller import KINDS, ControllerKind, Ring, tentative_sequence
from anyctrl.plants import DisturbanceModel, make_builtin_plant
from anyctrl.simulation import SimConfig, monte_carlo, run_episode

import oracles

SAT_2D = make_builtin_plant("sat_2d")
CUBIC = make_builtin_plant("cubic_scalar")

Q3 = [[0.85, 0.10, 0.05], [0.15, 0.70, 0.15], [0.05, 0.15, 0.80]]
P3 = [[0.05, 0.10, 0.15, 0.30, 0.40],
      [0.30, 0.30, 0.20, 0.10, 0.10],
      [0.70, 0.15, 0.08, 0.05, 0.02]]

LAYOUTS = {
    "fortran": np.asfortranarray,
    # the transpose of a C-ordered copy with the component axis first
    "transposed": lambda a: np.ascontiguousarray(np.moveaxis(a, -1, 0)).transpose(
        tuple(range(1, a.ndim)) + (0,)),
    "strided": lambda a: np.repeat(a, 2, axis=-1)[..., ::2],
    "float32": lambda a: a.astype(np.float32),
}


def laid_out(plant, layout):
    """`plant` whose policy and f return their values in the given memory layout or dtype.

    Its closed-loop map is cleared, so the rollout takes the wrapped policy and f too.
    """
    shape = LAYOUTS[layout]
    return replace(plant, policy=lambda x: shape(plant.policy(x)),
                   f=lambda x, u, w: shape(plant.f(x, u, w)), closed_loop=None)


def test_layouts_are_what_they_say():
    a = np.arange(12.0).reshape(6, 2)
    for layout, shape in LAYOUTS.items():
        out = shape(a)
        np.testing.assert_array_equal(out, a)
        assert out.dtype == (np.float32 if layout == "float32" else np.float64)
        assert out.flags.c_contiguous == (layout == "float32")


@pytest.mark.parametrize("lanes", [(), (7,)])
@pytest.mark.parametrize("plant", [SAT_2D, CUBIC], ids=["sat_2d", "cubic"])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_ring_after_each_advance_equals_fancy_assignment(layout, plant, lanes):
    plant = laid_out(plant, layout)
    rng = np.random.default_rng(11)
    cap = 4
    rings = [Ring(plant, cap, lanes), Ring(plant, cap, lanes)]
    chi = rng.uniform(-2.0, 2.0, lanes + (cap, plant.n))
    end = rng.integers(0, cap + 1, lanes + (cap,))
    end.reshape(-1)[0] = cap  # one sequence is in flight at every tick
    for ring in rings:
        ring.chi[...], ring.end[...] = chi, end
    for tick in range(cap):
        for ring, advance in zip(rings, (tentative_sequence, oracles.ring_advance_fancy)):
            ring.tick = tick
            advance(plant, ring, ring.in_flight())
        got, want = rings
        np.testing.assert_array_equal(got.chi, want.chi)
        np.testing.assert_array_equal(got.inputs, want.inputs)
        (_, rows, before, after), (_, rows_want, before_want, after_want) = (
            got.pending[-1], want.pending[-1])
        np.testing.assert_array_equal(rows, rows_want)
        np.testing.assert_array_equal(before, before_want)
        np.testing.assert_array_equal(after, after_want)
    assert got.chi.flags.c_contiguous and got.chi.dtype == np.float64


def markov_sat_2d(plant, kind):
    return SimConfig(plant=plant, availability=MarkovAvailability(Q3, P3),
                     controller=ControllerKind(kind),
                     disturbance=DisturbanceModel(kind="uniform", lo=-0.05, hi=0.05),
                     horizon=120, runs=12, master_seed=9, x0_box=(-2.0, 2.0))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_costs_equal_fancy_assignment_kernel(monkeypatch, layout, kind):
    config = markov_sat_2d(laid_out(SAT_2D, layout), kind)
    costs = monte_carlo(config).per_run_costs
    traces = [run_episode(config, r) for r in range(2)]
    # the engine's `(runs,)` lanes and one run's `()` lanes cost the plant's output alike
    np.testing.assert_array_equal(costs[:2], [oracles.empirical_cost(trace, config.q_x, config.r_u)
                                              for trace in traces])
    monkeypatch.setattr(controller, "tentative_sequence", oracles.ring_advance_fancy)
    want = monte_carlo(config).per_run_costs
    np.testing.assert_array_equal(costs, want)
    for r, trace in enumerate(traces):
        expected = run_episode(config, r)
        np.testing.assert_array_equal(trace.x, expected.x)
        np.testing.assert_array_equal(trace.u, expected.u)
        np.testing.assert_array_equal(trace.v, expected.v)

