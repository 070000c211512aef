"""Whole config documents with one broken key: every one is a config error that names it.

The strategy builds a valid `simulate`, `stability` or `sweep` document,
then breaks exactly one key: it drops a required key, gives a value of
the wrong type (a quoted number included), puts a number out of its
range (including NaN, infinities and an integer too large for a float),
adds a misspelt key that the schema does not know, or adds
a key that only another kind of its section reads. The
CLI must exit with status 2 and name the key on stderr, without a
traceback and without running anything.
"""

import contextlib
import copy
import io
import tempfile
from pathlib import Path

import yaml
from hypothesis import given, settings, strategies as st

from anyctrl.cli import main

DROP = object()
NAN, INF = float("nan"), float("inf")
# a quoted number is a string, and an integer too large for a float is not finite
WRONG_NUMBERS = ["x", [1.5], {"k": 1}, True, "0.5", 10 ** 400]
NON_FINITE = [NAN, INF, -INF]
WRONG_SECTIONS = ["x", [1], 5, True]

PLANTS = [
    {"name": "linear_scalar", "params": {"a": 1.2}},
    {"name": "cubic_scalar", "params": {"alpha": 1.5}},
    {"name": "sat_2d"},
    {"name": "log_lyapunov", "params": {"rho": 0.5}},
]
STATE_DIM = {"linear_scalar": 1, "cubic_scalar": 1, "sat_2d": 2, "log_lyapunov": 1}
AVAILABILITIES = [
    {"kind": "exec_time", "tau": 0.3},
    {"kind": "iid", "p": [0.2, 0.3, 0.5]},
    {"kind": "markov", "Q": [[0.9, 0.1], [0.2, 0.8]], "P": [[0.1, 0.9], [0.6, 0.4]],
     "initial_state": 1},
]
DISTURBANCES = [
    {"kind": "uniform", "lo": -0.05, "hi": 0.05},
    {"kind": "gaussian", "variance": 0.1},
    {"kind": "none"},
]
SCALE = {"seed": 1, "runs": 2, "horizon": 5}


@st.composite
def sim_documents(draw, plants=PLANTS, availabilities=AVAILABILITIES):
    plant = draw(st.sampled_from(plants))
    doc = {"plant": plant, "availability": draw(st.sampled_from(availabilities)),
           "controller": {"kind": draw(st.sampled_from(["baseline", "a1", "a2"]))},
           "disturbance": draw(st.sampled_from(DISTURBANCES)), **SCALE}
    if draw(st.booleans()):
        doc["controller"]["buffer_cap"] = 2
    if draw(st.booleans()):
        doc["cost"] = {"q_x": 0.2, "r_u": 2.0}
    if draw(st.booleans()):
        doc["x0_box"] = [-1.0, 1.0]
    elif draw(st.booleans()):
        doc["x0"] = [0.5] * STATE_DIM[plant["name"]]
    return copy.deepcopy(doc)


def availability_mutations(section):
    kind = section["kind"]
    out = [(("kind",), v, "availability.kind") for v in [DROP, "bogus", 5, [1]]]
    out += [(("tua",), 0.3, "availability.tua")]
    # a key of another kind
    out += [{"exec_time": (("Q",), [[1.0]], "availability.Q"),
             "iid": (("tau",), 0.3, "availability.tau"),
             "markov": (("p",), [0.5, 0.5], "availability.p")}[kind]]
    if kind == "exec_time":
        out += [(("tau",), v, "availability.tau")
                for v in [DROP, *WRONG_NUMBERS, *NON_FINITE, 0.0, 1.0, -0.3, 1.5]]
    elif kind == "iid":
        out += [(("p",), v, "availability.p")
                for v in [DROP, "x", {"k": 1}, True, [["a"]], [0.5, 0.6], [-0.1, 1.1], [1.0],
                          [], [[0.5, 0.5]], [0.5, NAN], [INF, 0.0], ["0.5", "0.5"],
                          [0.5, True], [10 ** 400, 0.0]]]
    else:
        out += [(("Q",), v, "availability.Q")
                for v in [DROP, "x", [[0.9, "q"], [0.2, 0.8]], [[NAN, 0.5], [0.2, 0.8]],
                          [["0.9", "0.1"], ["0.2", "0.8"]], [[0.9, 0.1], [0.2]]]]
        out += [(("Q",), v, "availability")
                for v in [[[0.9, 0.2], [0.2, 0.8]], [[1.0]], [[-0.1, 1.1], [0.2, 0.8]],
                          [[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]]]]
        out += [(("P",), v, "availability.P")
                for v in [DROP, "x", [[0.1, INF], [0.6, 0.4]], [["0.1", "0.9"], ["0.6", "0.4"]]]]
        out += [(("P",), v, "availability")
                for v in [[[0.1, 0.9]], [[0.1, 0.8], [0.6, 0.4]], [[1.0, 0.0], [1.0, 0.0]]]]
        out += [(("initial_state",), v, "availability.initial_state")
                for v in ["x", 1.5, True, "1"]]
        out += [(("initial_state",), v, "availability") for v in [-1, 2]]
    return [(("availability",) + path, value, key) for path, value, key in out]


def scale_mutations():
    out = []
    for key, low in (("seed", -1), ("runs", 0), ("horizon", 0)):
        out += [((key,), v, key) for v in ["x", 2.5, True, [1], None, low, low - 3]]
    return out


def sim_mutations(doc):
    """(path, new value or DROP, key the error must name) for each way to break `doc`."""
    plant, dist = doc["plant"], doc["disturbance"]
    out = []
    for section in ("plant", "availability", "controller"):
        out += [((section,), v, section) for v in [DROP, *WRONG_SECTIONS]]
    out += [(("plant", "name"), v, "plant.name") for v in [DROP, "bogus", 5, [1], {"k": 1}]]
    out += [(("plant", "params"), v, "plant.params") for v in ["x", [1], 5]]
    out += [(("plant", "params", "bogus"), 1.0, "plant.params")]
    for name in plant.get("params", {}):
        out += [(("plant", "params", name), v, f"plant.params.{name}")
                for v in [*WRONG_NUMBERS, *NON_FINITE]]
    if plant["name"] == "log_lyapunov":
        out += [(("plant", "params", "rho"), v, "plant.params") for v in [1.5, -0.5]]
    if plant["name"] == "cubic_scalar":
        out += [(("plant", "params", "alpha"), 0.5, "plant.params")]
    out += availability_mutations(doc["availability"])
    out += [(("controller", "kind"), v, "controller.kind") for v in [DROP, "a3", 5, [1]]]
    out += [(("controller", "buffer_cap"), v, "controller.buffer_cap")
            for v in ["x", 2.5, True, 0, -1]]
    out += [(("cost",), v, "cost") for v in ["x", [1], 5]]
    for key in ("q_x", "r_u"):
        out += [(("cost", key), v, f"cost.{key}") for v in [*WRONG_NUMBERS, *NON_FINITE, -0.1]]
    out += [(("disturbance",), v, "disturbance") for v in ["x", [1], 5]]
    out += [(("disturbance", "kind"), v, "disturbance.kind") for v in ["bogus", 5, [1]]]
    for key in ("lo", "hi", "mean", "variance"):
        out += [(("disturbance", key), v, f"disturbance.{key}")
                for v in [*WRONG_NUMBERS, *NON_FINITE]]
    if dist["kind"] == "uniform":
        out += [(("disturbance", "lo"), 5.0, "disturbance.lo")]
    if dist["kind"] == "gaussian":
        out += [(("disturbance", "variance"), -1.0, "disturbance.variance")]
    # a key of another kind
    out += [{"uniform": (("disturbance", "variance"), 0.1, "disturbance.variance"),
             "gaussian": (("disturbance", "lo"), -1.0, "disturbance.lo"),
             "none": (("disturbance", "hi"), 1.0, "disturbance.hi")}[dist["kind"]]]
    out += [(("x0_box",), v, "x0_box")
            for v in ["x", 5, [1.0], [0.0, "one"], [1.0, -1.0], [NAN, 1.0], [0.0, INF],
                      [0, 1, 2], ["-1", "1"], [False, True], [0.0, 10 ** 400]]]
    n = STATE_DIM[plant["name"]]
    out += [(("x0",), v, "x0") for v in ["x", [["a"]], 5.0, [0.1] * (n + 1), [NAN] * n,
                                         ["0.5"] * n, [True] * n, [[0.5], [0.5, 0.5]]]]
    # the box would replace x0: a document gives one or the other
    if "x0_box" in doc:
        out += [(("x0",), [0.5] * n, "x0_box")]
    if "x0" in doc:
        out += [(("x0_box",), [-1.0, 1.0], "x0_box")]
    # a misspelt key in each section and at the top level
    out += [(("plant", "param"), {"a": 1.2}, "plant.param"),
            (("controller", "bufer_cap"), 1, "controller.bufer_cap"),
            (("cost", "q_xx"), 0.2, "cost.q_xx"),
            (("disturbance", "varaince"), 0.1, "disturbance.varaince"),
            (("horizn",), 50, "horizn")]
    return out + scale_mutations()


@st.composite
def simulate_cases(draw):
    doc = draw(sim_documents())
    path, value, key = draw(st.sampled_from(sim_mutations(doc)))
    return "simulate", doc, path, value, (key,)


@st.composite
def stability_cases(draw):
    doc = {"rho": 0.5, "alpha": 1.618,
           "availability": copy.deepcopy(draw(st.sampled_from(AVAILABILITIES)))}
    out = [(("availability",), v, "availability") for v in [DROP, *WRONG_SECTIONS]]
    for key in ("rho", "alpha"):
        out += [((key,), v, key) for v in [DROP, *WRONG_NUMBERS, *NON_FINITE]]
    out += [(("rho",), v, "rho") for v in [1.0, -0.1, 2.0]]
    out += [(("alpha",), v, "alpha") for v in [0.5, -1.0]]
    out += [(("alhpa",), 1.618, "alhpa")]
    out += availability_mutations(doc["availability"])
    path, value, key = draw(st.sampled_from(out))
    return "stability", doc, path, value, (key,)


BAD_GRIDS = {
    "fig1": [[1.5], [0.0, 0.5], [0.2, 1.0], [NAN], [-0.1, 0.2]],
    "fig2": [[NAN], [0.9, INF], [-INF, 0.9]],
    "fig3": [[0], [1, 2.5], [NAN], [-1, 2]],
}


@st.composite
def sweep_cases(draw):
    name = draw(st.sampled_from(["fig1", "fig2", "fig3", "custom"]))
    if name != "custom":
        doc = {"experiment": name, **SCALE}
        out = [(("experiment",), v, "experiment") for v in ["fig9", 5, [1]]]
        out += [(("grid",), v, "grid")
                for v in ["x", 5, [], [True], ["0.2"], [0.3, 0.2], *BAD_GRIDS[name]]]
        # sweep and base are keys of a custom sweep only
        out += [(("gird",), [0.2], "gird"), (("sweep",), "tau", "sweep"), (("base",), {}, "base")]
        out += scale_mutations()
        path, value, key = draw(st.sampled_from(out))
        return "sweep", doc, path, value, (key,)
    sweep = draw(st.sampled_from(["tau", "a", "buffer_cap"]))
    base = draw(sim_documents(
        plants=[PLANTS[0]] if sweep == "a" else PLANTS,
        availabilities=AVAILABILITIES[:1] if sweep == "tau" else AVAILABILITIES))
    grid = {"tau": [0.2, 0.3], "a": [0.9, 1.1], "buffer_cap": [1, 2]}[sweep]
    doc = {"experiment": "custom", "sweep": sweep, "grid": grid, "base": base, **SCALE}
    out = [(("sweep",), v, "sweep") for v in [DROP, "gamma", 5]]
    out += [(("grid",), v, "grid") for v in [DROP, "x", [], [0.3, 0.2], [NAN]]]
    out += [(("base",), v, "base") for v in [DROP, *WRONG_SECTIONS]]
    out += [(("gird",), [0.2], "gird")]
    out += scale_mutations()
    if draw(st.booleans()):
        path, value, key = draw(st.sampled_from(out))
        return "sweep", doc, path, value, (key,)
    path, value, key = draw(st.sampled_from(sim_mutations(base)))
    return "sweep", doc, ("base",) + path, value, ("base", key)


def broken(doc, path, value):
    doc = copy.deepcopy(doc)
    *parents, leaf = path
    node = doc
    for key in parents:
        if not isinstance(node.get(key), dict):
            node[key] = {}
        node = node[key]
    if value is DROP:
        node.pop(leaf, None)
    else:
        node[leaf] = value
    return doc


@given(case=st.one_of(simulate_cases(), stability_cases(), sweep_cases()))
@settings(max_examples=400, deadline=None)
def test_broken_documents_are_config_errors_that_name_the_key(case):
    command, doc, path, value, keys = case
    doc = broken(doc, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.yaml"
        config.write_text(yaml.safe_dump(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(config), "--out", str(Path(tmp) / "out")])
        assert code == 2, f"{command} accepted {path} = {value!r}"
        assert not (Path(tmp) / "out").exists()
    message = err.getvalue()
    assert "Traceback" not in message
    for key in keys:
        assert key in message, f"{path} = {value!r}: {message!r} does not name {key}"
