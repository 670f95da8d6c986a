import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twirltomo import channel_spec, cli, dense
from twirltomo.channel_spec import build_channel, load_channel, parse_channel_document
from twirltomo.channels import gate_unitary
from twirltomo.cli import main
from twirltomo.errors import SpecValidationError


def write_spec(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


CNOT_DOC = {"name": "cnot", "n": 2,
            "build": [{"named_gate": "CNOT", "qubits": [1, 2]}]}
DEP_DOC = {"name": "dep", "n": 1,
           "build": [{"noise": "depolarizing", "strength": 0.3, "qubits": [1]}]}
# the benchmark channel: CNOT(1,2), then 5% depolarizing noise on qubit 1
NOISY_CNOT = [{"named_gate": "CNOT", "qubits": [1, 2]},
              {"noise": "depolarizing", "strength": 0.05, "qubits": [1]}]


def test_parse_and_build_named_gate(tmp_path):
    path = write_spec(tmp_path, CNOT_DOC)
    ch = load_channel(path)
    cls = ch.classification
    assert cls.completely_positive and cls.trace_preserving
    np.testing.assert_allclose(ch.kraus[0], gate_unitary("CNOT", (0, 1), 2))


def test_build_noise_layer(tmp_path):
    ch = load_channel(write_spec(tmp_path, DEP_DOC))
    np.testing.assert_allclose(ch.chi.mat.diagonal().real,
                               [0.775, 0.075, 0.075, 0.075], atol=1e-12)


def test_build_kraus_layer(tmp_path):
    doc = {"name": "alpha", "n": 1,
           "build": [{"kraus": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]]}]}
    ch = load_channel(write_spec(tmp_path, doc))
    np.testing.assert_allclose(ch.kraus[0], [[0, 1], [1, 0]])


def test_validation_field_messages():
    with pytest.raises(SpecValidationError) as ei:
        parse_channel_document({"name": "x", "n": 1,
                                "build": [{"noise": "depolarizing",
                                           "strength": -0.1, "qubits": [1]}]})
    assert "build[0].strength" in str(ei.value)
    with pytest.raises(SpecValidationError) as ei:
        parse_channel_document({"name": "x", "n": 1,
                                "build": [{"named_gate": "CNOT", "qubits": [1, 2]}]})
    assert "qubits" in str(ei.value)
    with pytest.raises(SpecValidationError) as ei:
        parse_channel_document({"name": "x", "n": 2,
                                "build": [{"named_gate": "CNOT", "qubits": [1, 1]}]})
    assert str(ei.value) == "build[0].qubits: qubit indices must be distinct"
    with pytest.raises(SpecValidationError):
        parse_channel_document({"name": "", "n": 1, "build": [{}]})
    with pytest.raises(SpecValidationError) as ei:
        parse_channel_document({"name": "x", "n": 2,
                                "build": [{"kraus": [[[[1, 0]]]]}]})
    assert "kraus[0]" in str(ei.value)


def test_non_tp_composition_warns(tmp_path):
    doc = {"name": "leaky", "n": 1,
           "build": [{"kraus": [[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]]}]}
    warnings = []
    build_channel(parse_channel_document(doc), warnings)
    assert warnings and "trace" in warnings[0]


# the one-qubit map sqrt(0.5) I: chi_II = 0.5, not trace preserving
LEAKY_DOC = {"name": "leaky-identity", "n": 1,
             "build": [{"kraus": [[[[0.5 ** 0.5, 0], [0, 0]], [[0, 0], [0.5 ** 0.5, 0]]]]}]}


@pytest.mark.parametrize("argv", [
    ["seqpt", "select", "--variant", "mub", "--label", "I"],
    ["seqpt", "select", "--variant", "clifford", "--label", "I"],
    ["seqpt", "blind", "--variant", "mub"],
    ["seqpt", "blind", "--variant", "clifford"],
    ["local-twirl"],
])
def test_cli_sampled_protocols_reject_non_tp_map(tmp_path, capsys, argv):
    spec = write_spec(tmp_path, LEAKY_DOC)
    out = tmp_path / "o"
    assert main([*argv, "--spec", str(spec), "--out", str(out), "--shots", "200"]) == 2
    assert "trace-preserving" in capsys.readouterr().err
    assert not out.exists()


def test_cli_exact_chi_accepts_non_tp_map_with_warning(tmp_path):
    spec = write_spec(tmp_path, LEAKY_DOC)
    out = tmp_path / "o"
    assert main(["exact-chi", "--spec", str(spec), "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())
    assert abs(results["diagonal"]["I"] - 0.5) < 1e-12
    assert any("trace" in w for w in results["warnings"])


def test_document_round_trip(tmp_path):
    doc = parse_channel_document(DEP_DOC)
    (tmp_path / "saved.json").write_text(json.dumps(doc.to_json_dict()))
    ch1 = load_channel(tmp_path / "saved.json")
    ch2 = build_channel(doc)
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        rho = np.outer(v, v.conj())
        rho /= np.trace(rho)
        np.testing.assert_allclose(ch1.apply(rho), ch2.apply(rho), atol=1e-12)


def test_cli_exact_chi(tmp_path):
    spec = write_spec(tmp_path, CNOT_DOC)
    out = tmp_path / "out"
    assert main(["exact-chi", "--spec", str(spec), "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())
    assert abs(results["diagonal"]["II"] - 0.25) < 1e-12
    assert (out / "manifest.json").exists()
    # the exported matrix carries the full signed block to 1e-12
    chi_doc = json.loads((out / "chi.json").read_text())
    entries = chi_doc["entries"]
    block_idx = [0, 12, 1, 13]  # II, ZI, IX, ZX
    want = 0.25 * np.array([[1, 1, 1, -1], [1, 1, 1, -1],
                            [1, 1, 1, -1], [-1, -1, -1, 1]])
    got = np.array([[complex(*entries[i][j]) for j in block_idx] for i in block_idx])
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert (out / "chi.csv").exists()


def test_cli_validation_exit_code(tmp_path):
    bad = write_spec(tmp_path, {"name": "bad", "n": 1,
                                "build": [{"noise": "depolarizing",
                                           "strength": 2.0, "qubits": [1]}]})
    assert main(["exact-chi", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert main(["seqpt", "select", "--spec", str(bad), "--out", str(tmp_path / "o"),
                 "--shots", "10"]) == 2


def test_cli_capacity_exit_code(tmp_path):
    big = {"name": "big", "n": 7,
           "build": [{"noise": "bit_flip", "strength": 0.1, "qubits": [1]}]}
    spec = write_spec(tmp_path, big)
    assert main(["exact-chi", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 3


def test_haar_verify_past_the_cap_exits_3_before_drawing(tmp_path, monkeypatch, capsys):
    """--dim 65 is past 2^DENSE_MAX_N, and --shots past 10^7 samples, whose
    values would be held at once: exit code 3, nothing written, and no
    operator drawn."""
    def refuse(*args, **kwargs):
        raise AssertionError("haar-verify drew past its cap")

    monkeypatch.setattr(cli, "master", refuse)
    out = tmp_path / "o"
    for past in (["--dim", "65"], ["--shots", "10000001"], ["--shots", str(10 ** 15)]):
        assert main(["haar-verify", *past, "--out", str(out)]) == 3, past
        assert capsys.readouterr().err.startswith("capacity error: "), past
        assert not out.exists(), past


@pytest.mark.parametrize("n", [7, 40])
@pytest.mark.parametrize("verb", [["exact-chi"], ["bounds-check"],
                                  ["seqpt", "select", "--shots", "10", "--label", "Z"],
                                  ["seqpt", "blind", "--shots", "10"],
                                  ["local-twirl", "--shots", "10"]],
                         ids=["exact-chi", "bounds-check", "select", "blind", "local-twirl"])
def test_specs_past_the_dense_cap_exit_3_before_building(tmp_path, monkeypatch, verb, n):
    """A spec on more than 6 qubits exits with code 3 on every spec verb and
    writes nothing, before any gate unitary or channel is built: at n = 40
    no D x D matrix fits in memory."""
    def refuse(*args, **kwargs):
        raise AssertionError("a D x D matrix was built past the dense cap")

    monkeypatch.setattr(cli, "build_channel", refuse)
    monkeypatch.setattr(channel_spec, "gate_unitary", refuse)
    spec = write_spec(tmp_path, {"name": "big", "n": n, "build": [
        {"named_gate": "CNOT", "qubits": [1, 2]},
        {"noise": "depolarizing", "strength": 0.05, "qubits": [1]}]})
    argv = [*verb, "--spec", str(spec), "--out", str(tmp_path / "o")]
    if "--label" in argv:
        argv[argv.index("--label") + 1] = "Z" * n
    assert main(argv) == 3
    assert not (tmp_path / "o").exists()


def test_cli_seqpt_select_requires_label(tmp_path):
    spec = write_spec(tmp_path, DEP_DOC)
    assert main(["seqpt", "select", "--spec", str(spec), "--out",
                 str(tmp_path / "o"), "--shots", "100"]) == 2


@pytest.mark.parametrize("variant", ["mub", "clifford"])
@pytest.mark.parametrize("label", ["Z", "ZIX"])
def test_cli_seqpt_select_label_length(tmp_path, capsys, variant, label):
    spec = write_spec(tmp_path, CNOT_DOC)
    assert main(["seqpt", "select", "--spec", str(spec), "--out", str(tmp_path / "o"),
                 "--shots", "10", "--variant", variant, "--label", label]) == 2
    err = capsys.readouterr().err
    assert f"acts on {len(label)} qubits, the channel on 2" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("variant", ["mub", "clifford"])
def test_cli_seqpt_select_checks_the_label_before_drawing(tmp_path, monkeypatch, capsys,
                                                          variant):
    """--label XX on a 3-qubit spec exits with code 2, one error line and
    nothing written, before any of its 300,000 realizations is drawn."""
    def refuse(*args, **kwargs):
        raise AssertionError("realizations drawn before the label was checked")

    monkeypatch.setattr(dense.TwirlSpec, "sample", refuse)
    spec = write_spec(tmp_path, {"name": "noisy-cnot", "n": 3, "build": NOISY_CNOT})
    out = tmp_path / "o"
    assert main(["seqpt", "select", "--spec", str(spec), "--out", str(out), "--shots",
                 "300000", "--variant", variant, "--label", "XX"]) == 2
    err = capsys.readouterr().err
    assert err == "error: label XX acts on 2 qubits, the channel on 3\n", err
    assert not out.exists()


def test_cli_seqpt_select_keys_a_phased_label_by_its_pauli(tmp_path):
    """The selective estimate does not see a label's phase: --label -XZI
    and iXZI write the results.json of --label XZI byte for byte, keyed
    "XZI", and report.csv fills the oracle column for it."""
    spec = write_spec(tmp_path, {"name": "noisy-cnot", "n": 3, "build": NOISY_CNOT})
    written = {}
    for label in ("XZI", "-XZI", "iXZI"):
        out = tmp_path / label
        assert main(["seqpt", "select", "--spec", str(spec), "--out", str(out),
                     "--shots", "200", "--seed", "5", f"--label={label}"]) == 0
        written[label] = (out / "results.json").read_bytes()
        with open(out / "report.csv", newline="") as fh:
            key, _, _, oracle, ok = list(csv.reader(fh))[1]
        assert key == "XZI" and float(oracle) >= 0.0 and ok in ("True", "False"), label
    assert json.loads(written["XZI"])["label"] == "XZI"
    assert written["-XZI"] == written["XZI"] and written["iXZI"] == written["XZI"]


@pytest.mark.parametrize("n, verb", [
    (3, ["seqpt", "blind", "--variant", "mub"]),
    (3, ["seqpt", "blind", "--variant", "clifford"]),
    (3, ["seqpt", "select", "--variant", "mub", "--label", "ZXI"]),
    (5, ["seqpt", "select", "--variant", "clifford", "--label", "ZXIII"]),
    (4, ["local-twirl"])], ids=["blind-mub", "blind-clifford", "select-mub",
                                "select-clifford-n5", "local-twirl"])
def test_each_run_makes_one_law_call(tmp_path, monkeypatch, n, verb):
    """Each run asks the dense backend for its laws once, on the benchmark
    channel: the backend keeps no tables, because no later call in a run
    could reuse them."""
    calls = []
    laws = dense.DenseBackend.laws

    def counted(self, *args):
        calls.append(1)
        return laws(self, *args)

    monkeypatch.setattr(dense.DenseBackend, "laws", counted)
    spec = write_spec(tmp_path, {"name": "noisy-cnot", "n": n, "build": NOISY_CNOT})
    for seed in ("1", "2"):
        calls.clear()
        assert main([*verb, "--spec", str(spec), "--out", str(tmp_path / seed),
                     "--shots", "300", "--seed", seed]) == 0
        assert len(calls) == 1, seed


def test_cli_seqpt_blind_deterministic(tmp_path):
    spec = write_spec(tmp_path, CNOT_DOC)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["seqpt", "blind", "--spec", str(spec), "--out", str(out),
                     "--shots", "1500", "--seed", "7"]) == 0
        outs.append((out / "results.json").read_bytes())
    assert outs[0] == outs[1]


def test_cli_seqpt_config_rejected(tmp_path):
    spec = write_spec(tmp_path, DEP_DOC)
    code = main(["seqpt", "blind", "--spec", str(spec), "--out", str(tmp_path / "o"),
                 "--shots", "100", "--epsilon", "0.01"])
    assert code == 2


@pytest.mark.parametrize("extra", [["--epsilon", "1e-300"], ["--epsilon", "5e-324"],
                                   ["--epsilon", "1e-300", "--delta", "0.05"]])
def test_cli_tiny_epsilon_rejected(tmp_path, capsys, extra):
    """An epsilon whose float square underflows to 0 asks for more shots
    than any run takes: exit code 2, an error naming the bound, and no
    output directory."""
    spec = write_spec(tmp_path, DEP_DOC)
    out = tmp_path / "o"
    assert main(["seqpt", "blind", "--spec", str(spec), "--out", str(out),
                 "--shots", "100", *extra]) == 2
    assert "1/epsilon^2" in capsys.readouterr().err
    assert not out.exists()


def test_cli_local_twirl(tmp_path):
    spec = write_spec(tmp_path, DEP_DOC)
    out = tmp_path / "lt"
    assert main(["local-twirl", "--spec", str(spec), "--out", str(out),
                 "--shots", "4000", "--seed", "5"]) == 0
    results = json.loads((out / "results.json").read_text())
    assert abs(results["weight"]["values"][1] - 0.225) < 0.05
    report = (out / "report.txt").read_text()
    assert "amplification" in report


@pytest.mark.parametrize("argv", [
    ["seqpt", "select", "--shots", "10", "--label", "ZI"],
    ["seqpt", "blind", "--shots", "10"],
    ["local-twirl", "--shots", "10"],
    ["haar-verify", "--shots", "10", "--quadruples", "1"],
])
@pytest.mark.parametrize("seed", ["-1", str(2 ** 64), str(2 ** 70)])
def test_cli_seed_outside_stream_range(tmp_path, capsys, argv, seed):
    """A seed outside [0, 2^64) would run the stream of seed mod 2^64 while
    results.json records the seed given; every verb with --seed rejects it."""
    spec = [] if argv[0] == "haar-verify" else ["--spec", str(write_spec(tmp_path, CNOT_DOC))]
    out = tmp_path / "o"
    assert main([*argv, *spec, "--out", str(out), f"--seed={seed}"]) == 2
    assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_seed_top_of_range(tmp_path):
    out = tmp_path / "o"
    assert main(["local-twirl", "--spec", str(write_spec(tmp_path, DEP_DOC)),
                 "--out", str(out), "--shots", "10", "--seed", str(2 ** 64 - 1)]) == 0
    assert json.loads((out / "results.json").read_text())["config"]["seed"] == 2 ** 64 - 1


def test_cli_main_is_stateless_across_calls(tmp_path, capsys):
    """The parser is built once per process; a run of main calls (blind MUB,
    select without --label, a seed of 2^64, local twirl, --help) returns the
    documented exit codes, and each results.json equals what a fresh
    process writes."""
    spec = str(write_spec(tmp_path, CNOT_DOC))
    blind = ["seqpt", "blind", "--variant", "mub", "--spec", spec,
             "--shots", "500", "--seed", "3"]
    local = ["local-twirl", "--spec", spec, "--shots", "500"]
    calls = [(blind + ["--out", str(tmp_path / "blind")], 0),
             (["seqpt", "select", "--spec", spec, "--out", str(tmp_path / "sel"),
               "--shots", "10"], 2),
             (local + ["--out", str(tmp_path / "big"), "--seed", str(2 ** 64)], 2),
             (local + ["--out", str(tmp_path / "local"), "--seed", "4"], 0),
             (["--help"], 0)]
    for argv, code in calls:
        assert main(argv) == code, argv
    assert "usage: twirltomo" in capsys.readouterr().out
    assert not (tmp_path / "sel").exists() and not (tmp_path / "big").exists()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    for argv, name in ((blind, "blind"), (local + ["--seed", "4"], "local")):
        fresh = tmp_path / ("fresh-" + name)
        subprocess.run([sys.executable, "-m", "twirltomo.cli", *argv, "--out", str(fresh)],
                       env=env, check=True, capture_output=True, timeout=120)
        assert ((fresh / "results.json").read_bytes()
                == (tmp_path / name / "results.json").read_bytes()), name


def test_cli_bounds_check(tmp_path):
    spec = write_spec(tmp_path, CNOT_DOC)
    out = tmp_path / "bc"
    assert main(["bounds-check", "--spec", str(spec), "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())
    assert results["cp_bound_violations"] == []
    assert results["classification"]["completely_positive"] is True


def test_cli_haar_verify(tmp_path):
    out = tmp_path / "hv"
    assert main(["haar-verify", "--out", str(out), "--seed", "3", "--dim", "2",
                 "--shots", "20000", "--quadruples", "3"]) == 0
    results = json.loads((out / "results.json").read_text())
    assert len(results["quadruples"]) == 3
    assert results["all_pass"] is True


def test_cli_success_prob(tmp_path):
    out = tmp_path / "sp"
    assert main(["success-prob", "--out", str(out), "--max-n", "6"]) == 0
    results = json.loads((out / "results.json").read_text())
    rows = {r["n"]: r for r in results["table"]}
    assert abs(rows[1]["clifford"] - 1 / 3) < 1e-12
    assert abs(rows[2]["clifford"] - 22 / 45) < 1e-12
    assert all(rows[n]["clifford"] < rows[n]["mub"] for n in rows)


def test_cli_missing_spec_file(tmp_path):
    assert main(["exact-chi", "--spec", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_cli_bad_paths_exit_2(tmp_path, capsys):
    """A --spec that names a directory, or an --out that names an existing
    file, prints one error line and exits with code 2, writing nothing."""
    spec = write_spec(tmp_path, CNOT_DOC)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    for spec_arg, out in ((tmp_path, tmp_path / "o"), (spec, taken)):
        assert main(["exact-chi", "--spec", str(spec_arg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "o").exists() and taken.read_text() == "kept"


@pytest.mark.parametrize("verb", [["seqpt", "select", "--label", "ZI"],
                                  ["seqpt", "blind", "--variant", "clifford"],
                                  ["local-twirl"],
                                  ["seqpt", "blind", "--variant", "mub"]],
                         ids=["select", "blind-clifford", "local-twirl", "blind-mub"])
def test_cli_shots_past_memory_exit_3(tmp_path, capsys, verb):
    """--shots 10^15 asks for petabytes of draws at once; the allocation is
    refused at once.  Blind MUB, which draws one realization at a time, is
    refused before its laws are built, past its cap of 2^32 realizations
    (seqpt.MUB_BLIND_MAX_SHOTS).  Either way the run prints one capacity
    error line and exits with code 3, writing nothing."""
    spec = write_spec(tmp_path, CNOT_DOC)
    out = tmp_path / "o"
    argv = [*verb, "--spec", str(spec), "--out", str(out), "--shots", str(10 ** 15)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("capacity error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["exact-chi"],
    ["seqpt", "select", "--shots", "50", "--label", "ZI"],
    ["seqpt", "blind", "--shots", "50"],
    ["local-twirl", "--shots", "50"],
    ["bounds-check"],
])
def test_cli_parses_spec_once(tmp_path, monkeypatch, argv):
    calls = []
    real = channel_spec.parse_channel_document

    def counting(doc):
        calls.append(doc)
        return real(doc)

    monkeypatch.setattr(cli, "parse_channel_document", counting)
    monkeypatch.setattr(channel_spec, "parse_channel_document", counting)
    spec = write_spec(tmp_path, CNOT_DOC)
    verb = argv[:2] if argv[0] == "seqpt" else argv[:1]
    rest = argv[len(verb):]
    assert main([*verb, "--spec", str(spec), "--out", str(tmp_path / "o"), *rest]) == 0
    assert len(calls) == 1


def test_cli_bad_json_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["exact-chi", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("argv", [
    ["haar-verify", "--dim", "1"],         # closed form divides by D^2 - 1
    ["haar-verify", "--shots", "1"],       # sample variance needs two draws
    ["haar-verify", "--quadruples", "0"],  # all_pass would be vacuous
    ["success-prob", "--max-n", "512"],    # D^2 overflows to inf, NaN rates
    ["success-prob", "--max-n", "1030"],   # 2.0 ** n overflows
    ["success-prob", "--max-n", "0"],      # the table would be empty
])
def test_cli_edge_inputs_fail_loudly(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["exact-chi"],
    ["seqpt", "select", "--shots", "50", "--label", "ZI"],
    ["seqpt", "blind", "--shots", "50"],
    ["local-twirl", "--shots", "50"],
    ["bounds-check"],
    ["haar-verify", "--shots", "100", "--quadruples", "1"],
    ["success-prob", "--max-n", "2"],
])
def test_cli_prints_one_line(tmp_path, capsys, argv):
    spec = [] if argv[0] in ("haar-verify", "success-prob") else [
        "--spec", str(write_spec(tmp_path, CNOT_DOC))]
    out = tmp_path / "o"
    assert main([*argv, *spec, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote results to {out}\n"


@pytest.mark.parametrize("doc, field", [
    ({"name": "b", "n": True, "build": [{"named_gate": "H", "qubits": [1]}]}, "n"),
    ({"name": "b", "n": 1, "build": [{"named_gate": "H", "qubits": [True]}]},
     "build[0].qubits"),
    ({"name": "b", "n": 1, "build": [{"noise": "depolarizing", "strength": True,
                                      "qubits": [1]}]}, "build[0].strength"),
    ({"name": "b", "n": 1, "build": [{"kraus": [[[[True, 0], [0, 0]],
                                                 [[0, 0], [1, 0]]]]}]},
     "build[0].kraus[0]"),
    ({"name": "b", "n": 1, "build": [{"kraus": [[[[1, 0], [0, 0]],
                                                 [[0, 0], [1, False]]]]}]},
     "build[0].kraus[0]"),
])
def test_cli_rejects_bools_as_numbers(tmp_path, capsys, doc, field):
    """JSON true and false load as Python bools, which are ints; a spec
    field that wants a number refuses them (exit 2), naming the field."""
    out = tmp_path / "o"
    assert main(["exact-chi", "--spec", str(write_spec(tmp_path, doc)),
                 "--out", str(out)]) == 2
    assert f"error: {field}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("layer, field", [
    ({"named_gate": ["CNOT"], "qubits": [1, 2]}, "build[0].named_gate"),
    ({"noise": {"a": 1}, "strength": 0.1, "qubits": [1]}, "build[0].noise"),
])
def test_cli_rejects_unhashable_gate_and_noise_names(tmp_path, capsys, layer, field):
    """A gate or noise name given as a JSON array or object is refused as
    an unknown name (exit 2, one error line, nothing written), not looked
    up in the name tables, where it raised TypeError."""
    doc = {"name": "b", "n": 2, "build": [layer]}
    out = tmp_path / "o"
    assert main(["exact-chi", "--spec", str(write_spec(tmp_path, doc)),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: unknown ") and err.count("\n") == 1, err
    assert not out.exists()


#: a one-qubit Kraus map in documents of n qubits past the dense cap
KRAUS_PAST_THE_CAP = [{"name": "f", "n": n, "build": [{"kraus": [[[[1.0, 0.0]]]]}]}
                      for n in (10 ** 30, 2 ** 40, 10 ** 8)]


@pytest.mark.parametrize("doc", KRAUS_PAST_THE_CAP, ids=["1e30", "2^40", "1e8"])
def test_cli_kraus_spec_past_the_cap_exits_3(tmp_path, capsys, doc):
    """A kraus layer in a document past the dense cap is refused at the cap
    (exit 3, one line naming it, nothing written) before its 1 << n is made,
    which raised OverflowError at n = 10^30, a bare MemoryError at 2^40, and
    at 10^8 made a 12.5 MB int whose shape could not be printed (exit 2)."""
    out = tmp_path / "o"
    assert main(["exact-chi", "--spec", str(write_spec(tmp_path, doc)),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"capacity error: dense operations capped at n=6, got {doc['n']}\n", err
    assert not out.exists()


def test_cli_bare_memory_error_says_out_of_memory(tmp_path, capsys, monkeypatch):
    """A MemoryError with no message still prints a reason, ``out of
    memory``, in place of an empty capacity error line."""
    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "build_channel", refuse)
    out = tmp_path / "o"
    assert main(["exact-chi", "--spec", str(write_spec(tmp_path, CNOT_DOC)),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == "capacity error: out of memory\n"
    assert not out.exists()


@pytest.mark.parametrize("cell", [
    [1e300, 0],           # finite, but K^dag K overflows to infinity
    [float("inf"), 0],    # loads from the JSON token Infinity
    [0, float("nan")],    # loads from the JSON token NaN
])
def test_cli_rejects_non_finite_map(tmp_path, capsys, cell):
    """A Kraus map with a non-finite entry, or a non-finite sum of K^dag K,
    is refused before any output is written (exit 2)."""
    doc = {"name": "big", "n": 1, "build": [{"kraus": [[[[1, 0], [0, 0]], [[0, 0], cell]]]}]}
    out = tmp_path / "o"
    assert main(["exact-chi", "--spec", str(write_spec(tmp_path, doc)),
                 "--out", str(out)]) == 2
    assert "error: build: " in capsys.readouterr().err
    assert not out.exists()


def test_cli_writes_nothing_when_a_payload_holds_nan(tmp_path, capsys, monkeypatch):
    """Every output file is serialized, without NaN or Infinity, before the
    first is written: a result holding NaN fails the run (exit 2) with no
    file left behind."""
    real = cli._cmd_success_prob

    def with_nan(*args):
        protocol, config, results, lines, rows = real(*args)
        results["table"][0]["mub"] = float("nan")
        return protocol, config, results, lines, rows

    monkeypatch.setattr(cli, "_cmd_success_prob", with_nan)
    cli._build_parser.cache_clear()
    try:
        out = tmp_path / "o"
        assert main(["success-prob", "--max-n", "2", "--out", str(out)]) == 2
    finally:
        cli._build_parser.cache_clear()
    assert "error: results.json: " in capsys.readouterr().err
    assert not out.exists()
