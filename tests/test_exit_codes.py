"""The CLI's exit-code contract as a property: whatever spec document and
option list a run is handed, it exits 0, 2 or 3, and a failed run prints
one ``error:`` or ``capacity error:`` line and writes nothing.

Documents are valid specs with a few fields replaced by drawn JSON values;
option lists are the verbs' own options with drawn values that argparse
accepts, so that the spec checks, the configs and the capacity caps are what
is tried.  Shots stay small, or huge enough to be refused at once."""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from twirltomo.cli import main

VALID_DOCS = [
    {"name": "noisy-cnot", "n": 2,
     "build": [{"named_gate": "CNOT", "qubits": [1, 2]},
               {"noise": "depolarizing", "strength": 0.05, "qubits": [1]}]},
    {"name": "h", "n": 1, "build": [{"named_gate": "H", "qubits": [1]}]},
    {"name": "damped", "n": 2,
     "build": [{"noise": "amplitude_damping", "strength": 0.2, "qubits": [2]}]},
    {"name": "flip", "n": 1, "build": [{"kraus": [[[[0.0, 0.0], [1.0, 0.0]],
                                                   [[1.0, 0.0], [0.0, 0.0]]]]}]},
]

# n past the dense cap, non-integers, and sizes the checks must refuse
# before they are used; n = 4..6 would only make examples slow
N_VALUES = st.sampled_from([0, -1, 1, 2, 3, 7, 10 ** 8, 2 ** 40, 10 ** 30, 2.0, "2", True, None])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from([10 ** 30, -(2 ** 63)])
    | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)


@st.composite
def documents(draw):
    """A valid spec with up to three fields replaced, dropped or added: n,
    a top-level field, or a field of one layer."""
    doc = json.loads(json.dumps(draw(st.sampled_from(VALID_DOCS))))
    for _ in range(draw(st.integers(0, 3))):
        where = draw(st.sampled_from(["n", "top", "layer", "drop"]))
        if where == "n":
            doc["n"] = draw(N_VALUES)
        elif where == "top":
            doc[draw(st.sampled_from(["name", "build", "extra"]))] = draw(JSON_VALUES)
        elif isinstance(doc.get("build"), list) and doc["build"] \
                and isinstance(doc["build"][0], dict):
            layer = doc["build"][draw(st.integers(0, len(doc["build"]) - 1))]
            if not isinstance(layer, dict):
                continue
            field = draw(st.sampled_from(sorted(layer) + ["kraus", "noise", "named_gate"]))
            if where == "drop":
                layer.pop(field, None)
            else:
                layer[field] = draw(JSON_VALUES)
    return doc


SHOTS = st.sampled_from([40, 17, 3, 2, 1, 0, -1, 10 ** 15])
OPTIONS = {
    "exact-chi": st.just([]),
    "bounds-check": st.just([]),
    "seqpt": st.tuples(
        st.sampled_from(["select", "blind"]), SHOTS, st.sampled_from(["mub", "clifford"]),
        st.sampled_from(["ZI", None, "", "Z", "XYZ", "iX", "Q"]),
        st.sampled_from([None, None, "0.5", "1e-300", "nan"]),
        st.sampled_from([None, None, "0.1", "2"]),
    ).map(lambda t: [t[0], "--shots", str(t[1]), "--variant", t[2]]
          + (["--label", t[3]] if t[3] is not None else [])
          + (["--epsilon", t[4]] if t[4] is not None else [])
          + (["--delta", t[5]] if t[5] is not None else [])),
    "local-twirl": st.tuples(SHOTS, st.sampled_from([None, -1, 0, 1, 2, 9])).map(
        lambda t: ["--shots", str(t[0])] + (["--cutoff", str(t[1])] if t[1] is not None else [])),
}
ARGV = st.sampled_from(["seqpt", "local-twirl", "exact-chi", "bounds-check"]).flatmap(
    lambda verb: OPTIONS[verb].map(lambda opts: [verb, *opts]))
SEEDS = st.sampled_from([0, 1, 2 ** 64 - 1])


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(doc=documents(), argv=ARGV, seed=SEEDS)
@example(doc={"name": "f", "n": 10 ** 30, "build": [{"kraus": [[[[1.0, 0.0]]]]}]},
         argv=["exact-chi"], seed=0)
@example(doc={"name": "f", "n": 2 ** 40, "build": [{"kraus": [[[[1.0, 0.0]]]]}]},
         argv=["exact-chi"], seed=0)
@example(doc={"name": "f", "n": 10 ** 8, "build": [{"kraus": [[[[1.0, 0.0]]]]}]},
         argv=["exact-chi"], seed=0)
@example(doc={"name": "b", "n": 2, "build": [{"named_gate": ["CNOT"], "qubits": [1, 2]}]},
         argv=["exact-chi"], seed=0)
@example(doc={"name": "b", "n": 2,
              "build": [{"noise": {"a": 1}, "strength": 0.1, "qubits": [1]}]},
         argv=["exact-chi"], seed=0)
def test_cli_exit_code_contract(doc, argv, seed):
    """Exit 0, 2 or 3; on failure one error line on stderr and no file
    written, not even the output directory."""
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = Path(tmp) / "spec.json", Path(tmp) / "out"
        spec.write_text(json.dumps(doc))
        if argv[0] != "exact-chi" and argv[0] != "bounds-check":
            argv = [*argv, "--seed", str(seed)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--spec", str(spec), "--out", str(out)])
        assert code in (0, 2, 3), (code, stderr.getvalue())
        if code == 0:
            assert stdout.getvalue() == f"wrote results to {out}\n"
            return
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "error: " if code == 2 else "capacity error: "), lines
        assert stdout.getvalue() == ""
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["spec.json"]
