"""Golden digests: SHA-256 of ``results.json`` for a fixed set of runs.

Every case runs one CLI verb at a fixed seed and compares the digest of the
``results.json`` it writes with the committed table below.  The class-pair
cap of blind discovery is not exposed on the command line, so the capped
cases call ``run_blind_discovery`` and hash ``SeqptResult.to_json()``.  The
record cases hash realizations drawn one at a time by
``sample_c1t_realization`` from ``substream(seed, i)``.

A change that alters output on purpose regenerates the table with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""
import hashlib
import json
from pathlib import Path

import pytest

from twirltomo.channel_spec import load_channel
from twirltomo.cli import main
from twirltomo.localtwirl import sample_c1t_realization
from twirltomo.rng import substream
from twirltomo.seqpt import SeqptConfig, run_blind_discovery

SPECS = {
    1: {"name": "golden-1", "n": 1,
        "build": [{"named_gate": "H", "qubits": [1]},
                  {"noise": "amplitude_damping", "strength": 0.2, "qubits": [1]}]},
    2: {"name": "golden-2", "n": 2,
        "build": [{"named_gate": "CNOT", "qubits": [1, 2]},
                  {"noise": "depolarizing", "strength": 0.05, "qubits": [1]},
                  {"noise": "amplitude_damping", "strength": 0.1, "qubits": [2]}]},
    3: {"name": "golden-3", "n": 3,
        "build": [{"named_gate": "CNOT", "qubits": [1, 2]},
                  {"named_gate": "CNOT", "qubits": [2, 3]},
                  {"noise": "depolarizing", "strength": 0.05, "qubits": [1]},
                  {"noise": "amplitude_damping", "strength": 0.1, "qubits": [3]}]},
    4: {"name": "golden-4", "n": 4,
        "build": [{"named_gate": "CNOT", "qubits": [1, 2]},
                  {"named_gate": "H", "qubits": [3]},
                  {"named_gate": "CNOT", "qubits": [3, 4]},
                  {"noise": "depolarizing", "strength": 0.05, "qubits": [1]},
                  {"noise": "amplitude_damping", "strength": 0.1, "qubits": [4]}]},
}

# case id -> (qubit count of the spec or None, CLI argv after the verb's
# positional mode; --spec and --out are filled in by the runner)
CLI_CASES = {
    "exact-chi-n2": (2, ["exact-chi"]),
    "select-mub-n2": (2, ["seqpt", "select", "--variant", "mub", "--label", "ZI",
                          "--shots", "2000", "--seed", "3"]),
    "select-clifford-n2": (2, ["seqpt", "select", "--variant", "clifford",
                               "--label", "ZX", "--shots", "300", "--seed", "4"]),
    **{f"blind-mub-n{n}": (n, ["seqpt", "blind", "--variant", "mub",
                               "--shots", "2000", "--seed", str(10 + n)])
       for n in (1, 2, 3)},
    **{f"blind-clifford-n{n}": (n, ["seqpt", "blind", "--variant", "clifford",
                                    "--shots", "300", "--seed", str(20 + n)])
       for n in (1, 2, 3)},
    **{f"local-twirl-n{n}": (n, ["local-twirl", "--shots", "2000",
                                 "--seed", str(30 + n)])
       for n in (1, 2, 3)},
    # 12^4 twirl elements outnumber the shots, as on the local-twirl benchmark
    "local-twirl-n4": (4, ["local-twirl", "--shots", "3000", "--seed", "34"]),
    "bounds-check-n2": (2, ["bounds-check"]),
    "success-prob": (None, ["success-prob", "--max-n", "6"]),
    "haar-verify": (None, ["haar-verify", "--dim", "2", "--shots", "2000",
                           "--quadruples", "2", "--seed", "5"]),
}

# case id -> (n, variant, shots, seed, pair_class_cap)
CAP_CASES = {
    "capped-mub-n3": (3, "mub", 2000, 41, 700),
    "capped-clifford-n2": (2, "clifford", 300, 42, 500),
    "capped-clifford-n3": (3, "clifford", 300, 43, 2000),
}

# case id -> (n, seed, count)
RECORD_CASES = {
    "c1t-records-n3": (3, 35, 50),
}

GOLDEN = {
    "exact-chi-n2":
        "787f53f8e01f442b2df32625fe1f8f1230dbab6f305dd6c4ed3cf01aeb24bb89",
    "select-mub-n2":
        "ba485f2eeb06039823d877ac96e2266232cc77ebbe3b02f2aa1631c5d0368838",
    "select-clifford-n2":
        "97716774e557e0a94c1bb99a91d77449c210a8c8a13805e402bf2152fe0df63e",
    "blind-mub-n1":
        "1a9b652e789a7a0e19f3a5e58d0ade88cead2d0325bd4353d3c5f939c5c14cce",
    "blind-mub-n2":
        "fbf9af71bb087ca7348e03a85db33d11ff6b1cc5688178f5ea5d89da0d997eeb",
    "blind-mub-n3":
        "6391b08c3ca0a1ef4f5094c9ceec3e47b09b29922fae10adb3948deefd189115",
    "blind-clifford-n1":
        "b4e289310e755b0dbfab06cf9bd542ca5df1edb48949662b6c74fe9b7a09796c",
    "blind-clifford-n2":
        "30d5c90a4476851ee5a27406127ca1aa0afcd901bc8047ee219af71867a39463",
    "blind-clifford-n3":
        "0461ad77bef7b768c9f76b0510d59be13c73f1a37dd8faa9a95b8ca14cc06332",
    "local-twirl-n1":
        "92aced21db0f8a7bf228305a3af234b7e5246eed62f137e81806e901e5b3a8d6",
    "local-twirl-n2":
        "d9255c894ad9765ab81216540cb6fa46275ce0171f758339bcce54349ee2d0d1",
    "local-twirl-n3":
        "7e7f5f362f38a6dca6b6c2e7902a220d06ec925ab914762213cc8a6343c9a4f4",
    "local-twirl-n4":
        "d57070ddd5a613744b6786019205551492b7589c62aab5eec99562028e6f837f",
    "bounds-check-n2":
        "d3a3fdc6bc487102972eec03976ce2f2cf33b23edd4ae883f3b4e90ad6fc0812",
    "success-prob":
        "35c952b2ce7e3d8951a4f3b848f1e5e361924ca00a0903f4906ca1516ca5cf21",
    "haar-verify":
        "423f5eb262490eb2622b2979c577597a7c38d5978efa9145190dc9ee474b0068",
    "capped-mub-n3":
        "7aaa3ad5f533f4bed69397379529bfc2ed55db07da1d1b7359cd4fe9d5235442",
    "capped-clifford-n2":
        "ae1afba2822d080b109cc5e4e696f4b5d2d7191859ab60ff14ecc5ec7cb64f66",
    "capped-clifford-n3":
        "622b9c92c0a208111f2143e3f6e448fcdaf7f2cf6716b7309663614be2758e33",
    "c1t-records-n3":
        "6a8ef72a641d44c7400b3e01dd398fa367e95280d49dacdeacded1a72c2a4286",
}


def _write_spec(tmp: Path, n: int) -> Path:
    path = tmp / f"spec-{n}.json"
    path.write_text(json.dumps(SPECS[n]))
    return path


def run_case(case: str, tmp: Path) -> bytes:
    """The bytes whose digest the table pins for one case."""
    if case in CAP_CASES:
        n, variant, shots, seed, cap = CAP_CASES[case]
        channel = load_channel(_write_spec(tmp, n))
        cfg = SeqptConfig(shots=shots, variant=variant, seed=seed, pair_class_cap=cap)
        res = run_blind_discovery(channel, cfg)
        assert not res.analyzed_exactly
        return res.to_json().encode()
    if case in RECORD_CASES:
        n, seed, count = RECORD_CASES[case]
        channel = load_channel(_write_spec(tmp, n))
        records = [sample_c1t_realization(channel, substream(seed, i))
                   for i in range(count)]
        return json.dumps([[r.descriptor, r.outcome] for r in records]).encode()
    n, argv = CLI_CASES[case]
    verb, rest = argv[0], argv[1:]
    mode = [rest.pop(0)] if verb == "seqpt" else []
    out = tmp / "out"
    spec = [] if n is None else ["--spec", str(_write_spec(tmp, n))]
    assert main([verb, *mode, *spec, "--out", str(out), *rest]) == 0
    return (out / "results.json").read_bytes()


def digest(case: str, tmp: Path) -> str:
    return hashlib.sha256(run_case(case, tmp)).hexdigest()


@pytest.mark.parametrize("case", [*CLI_CASES, *CAP_CASES, *RECORD_CASES])
def test_golden_digest(case, tmp_path):
    assert digest(case, tmp_path) == GOLDEN[case]


def test_table_covers_every_case():
    assert set(GOLDEN) == {*CLI_CASES, *CAP_CASES, *RECORD_CASES}


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    table = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for i, case in enumerate([*CLI_CASES, *CAP_CASES, *RECORD_CASES]):
            case_dir = Path(tmp) / str(i)
            case_dir.mkdir()
            table[case] = digest(case, case_dir)
    print("GOLDEN = {")
    for case, hexdigest in table.items():
        print(f'    "{case}":\n        "{hexdigest}",')
    print("}")
