"""Golden digests: SHA-256 of ``results.json`` for a fixed set of runs.

Every case runs one CLI verb at a fixed seed and compares the digest of the
``results.json`` it writes with the committed table ``GOLDEN``.  A second
table, ``OUTPUT_GOLDEN``, pins every other file a CLI case writes
(``report.txt``, ``report.csv``, ``chi.json``, ``chi.csv`` and
``manifest.json`` without its ``timestamp`` and ``spec.path``, which vary
between runs).  The record cases, the one kind that runs no CLI verb, hash
one-qubit-twirl realizations drawn one at a time by
``sample_c1t_realization`` from ``substream(seed, i)``.

A change that alters output on purpose regenerates both tables with

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
    # the benchmark channel, CNOT(1,2) then 5% depolarizing on qubit 1: built
    # from Clifford gates and Pauli noise alone, unlike the specs above
    **{f"noisy-cnot-{n}": {"name": f"noisy-cnot-n{n}", "n": n,
                           "build": [{"named_gate": "CNOT", "qubits": [1, 2]},
                                     {"noise": "depolarizing", "strength": 0.05,
                                      "qubits": [1]}]}
       for n in (3, 4)},
    # a Pauli-form spec with every gate and four noise layers, each moved
    # through a different set of later gates; the gates reach every sign
    # rule (Y under H and S, X_c Z_t under CNOT, the Pauli gates' flips)
    "signed-form-3": {"name": "signed-form-n3", "n": 3,
                      "build": [{"named_gate": "S", "qubits": [1]},
                                {"named_gate": "H", "qubits": [1]},
                                {"noise": "depolarizing", "strength": 0.06, "qubits": [1]},
                                {"named_gate": "S", "qubits": [1]},
                                {"named_gate": "H", "qubits": [2]},
                                {"named_gate": "S", "qubits": [2]},
                                {"named_gate": "CNOT", "qubits": [1, 2]},
                                {"noise": "bit_flip", "strength": 0.1, "qubits": [2, 3]},
                                {"named_gate": "Y", "qubits": [3]},
                                {"named_gate": "H", "qubits": [3]},
                                {"named_gate": "CNOT", "qubits": [2, 3]},
                                {"named_gate": "CNOT", "qubits": [3, 1]},
                                {"noise": "phase_flip", "strength": 0.08, "qubits": [1]},
                                {"named_gate": "X", "qubits": [2]},
                                {"named_gate": "Z", "qubits": [1]},
                                {"named_gate": "S", "qubits": [3]},
                                {"noise": "depolarizing", "strength": 0.04, "qubits": [3]},
                                {"named_gate": "H", "qubits": [2]}]},
}

# case id -> (the SPECS key of the spec or None, CLI argv after the verb's
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
    "noisy-cnot-select-clifford-n3": ("noisy-cnot-3", [
        "seqpt", "select", "--variant", "clifford", "--label", "ZXI",
        "--shots", "300", "--seed", "51"]),
    "noisy-cnot-blind-mub-n3": ("noisy-cnot-3", ["seqpt", "blind", "--variant", "mub",
                                                 "--shots", "2000", "--seed", "52"]),
    "noisy-cnot-blind-clifford-n3": ("noisy-cnot-3", ["seqpt", "blind", "--variant",
                                                      "clifford", "--shots", "300",
                                                      "--seed", "53"]),
    "noisy-cnot-local-twirl-n4": ("noisy-cnot-4", ["local-twirl", "--shots", "3000",
                                                   "--seed", "54"]),
    "signed-form-local-twirl-n3": ("signed-form-3", ["local-twirl", "--shots", "2000",
                                                     "--seed", "61"]),
    "signed-form-blind-clifford-n3": ("signed-form-3", ["seqpt", "blind", "--variant",
                                                        "clifford", "--shots", "300",
                                                        "--seed", "62"]),
}

# case id -> (n, seed, count)
RECORD_CASES = {
    "c1t-records-n3": (3, 35, 50),
}

GOLDEN = {
    "exact-chi-n2":
        "787f53f8e01f442b2df32625fe1f8f1230dbab6f305dd6c4ed3cf01aeb24bb89",
    "select-mub-n2":
        "f7991f48df8c243df63b2b0465c35c84e5765c1ff884c6bdfc626d2953fe146e",
    "select-clifford-n2":
        "bc2fb7ca8aa06fbe4caff2cfd19a3271271b81bdaf4a6f3a0c0f332031651e99",
    "blind-mub-n1":
        "7352a27521e3357083bd77f103dba5bfac6fbc616436e4972f01f82e39b47ac6",
    "blind-mub-n2":
        "cbd9d1e939cdef0e3b7271b3eb3a7074e2d4c7d9b17eb0d2bef2b1e06e433ff7",
    "blind-mub-n3":
        "11b59c62ad41113c95b1d6dc6f7f29c3f2c431eaffcb82df68c7361c191b7ca8",
    "blind-clifford-n1":
        "c59161fcb9aecfd0a6861fecdb716519b37cb8f1ddaa747f8ea65005c0bc17d3",
    "blind-clifford-n2":
        "8d3b6b3688fab28de618911794248beb6877cc5f476f28369bb0d925c800100e",
    "blind-clifford-n3":
        "5ed5c68299294bb7b61a978e4066459604193f604e2bde7bab04b12ee4b082ef",
    "local-twirl-n1":
        "cbd37eb6e180a463783df130d3adcd589aeaef003bcde5626fdbb6c7c5853e02",
    "local-twirl-n2":
        "cbf50ebc9c9360255b86ff3a6fc31030f7a13eaf04b0c488deed3e749747c241",
    "local-twirl-n3":
        "995df68395c2630849a86941e4e2fce69773cc103fdd0ad20df9e21d89d06434",
    "local-twirl-n4":
        "f8ce19afefe1ddac101bac0789827d5da9cca1f06d1af373e1cdddae6fbc8e58",
    "bounds-check-n2":
        "d3a3fdc6bc487102972eec03976ce2f2cf33b23edd4ae883f3b4e90ad6fc0812",
    "success-prob":
        "35c952b2ce7e3d8951a4f3b848f1e5e361924ca00a0903f4906ca1516ca5cf21",
    "haar-verify":
        "423f5eb262490eb2622b2979c577597a7c38d5978efa9145190dc9ee474b0068",
    "noisy-cnot-select-clifford-n3":
        "1accd464f203c9ebaf14f00fbb3bee5c349bcc729dfc5d3c4a7ef0ef46eedd9b",
    "noisy-cnot-blind-mub-n3":
        "753eec93c371c8f6ddfe280cc98e295a1c1c036b1fdf41de0fb69d458d512317",
    "noisy-cnot-blind-clifford-n3":
        "42fb71cc3df4677777858bd984b932e9d0395fbfe0a380f948177377d2248a00",
    "noisy-cnot-local-twirl-n4":
        "fa72bc28c46446178e4f4435c53adb20aeb28ce928bc6a8972bad9497d472d42",
    "signed-form-local-twirl-n3":
        "8101ee2ace2efdd7e5aa2900a43c152841a95bc47a3a493ba31fc707ecd71dcb",
    "signed-form-blind-clifford-n3":
        "0e8f2197f7a47f6250fad9f87e0a27a498aa2f24fbdbf967c55c9bb1a5ea4577",
    "c1t-records-n3":
        "6a8ef72a641d44c7400b3e01dd398fa367e95280d49dacdeacded1a72c2a4286",
}


# case id -> SHA-256 over the other output files of the CLI case, by name
OUTPUT_GOLDEN = {
    "exact-chi-n2":
        "2de008464e8b8eac21c73ec90e0f86eb80fa740775fb49d7486fe7f3e59130b5",
    "select-mub-n2":
        "79ddd2ff9236c1acab0d1bbbe622cbf9f0ffa0ec3c2e2d51404339872829ceae",
    "select-clifford-n2":
        "2cf1605527aeab28afaeebdca54d25da7d43b15b8419a7fbbb3e2953ff783cbd",
    "blind-mub-n1":
        "fdba0c01c59c6630f19d3ada1ecd51d08d4cfebc3c9a78d5bbff4bd57227492c",
    "blind-mub-n2":
        "285cff6acc8750605ae7e1e6f86162c35dd336b804c274638e318ac17e86c0c7",
    "blind-mub-n3":
        "86e4cbe03791d335e2abc3191915e16d0d7cc7c6fa0e7b24f844a99413599867",
    "blind-clifford-n1":
        "a17180223a1eb33a42c6e93b842c9a67b1618c9c22581e38b2910887b393c6c9",
    "blind-clifford-n2":
        "2faf214d6467feccaa6ad5ff6769516a94a5babdb85952c36b0468c154a4d6e2",
    "blind-clifford-n3":
        "db326551f4327127df91e5f37f20a3e17d188e7a11e6fa46d2a34755031a6ef1",
    "local-twirl-n1":
        "4f26e30a0d68c0c3fe6a1a62c75f3cb635c7ffc843f83032a7711cee403b298f",
    "local-twirl-n2":
        "efeb12532e4b6a47240dd73286470b488e82ea0e9ac6382aeb872e4a7499e911",
    "local-twirl-n3":
        "74e0f7ffcf534384c43393c70c1f78b23b332ffa8d88000caf649873e1ea82d9",
    "local-twirl-n4":
        "74359d857f2c0eedcb12b55043269c5f88fc446d9bd419955ec6cf4ab34fbcff",
    "bounds-check-n2":
        "754f13ebf47e548508831c15cc6a64175527b818eed78816c2a4110fea245763",
    "success-prob":
        "4ad114a47fc97bfa83bcd48dfbcdf17afd3e7a4257672cc01eb0e15cb8b21431",
    "haar-verify":
        "37a92a8d80bada610a1daf059bb770ca66f1bfdce46072def66dec1f2e0ba202",
    "noisy-cnot-select-clifford-n3":
        "ca7d40680bedf18e17254c41b2b719321a182bd98dfa76b6f591c457312c520a",
    "noisy-cnot-blind-mub-n3":
        "70d12b85e400038d045531e41f4098506732054ab34b3150023ec9decd028a46",
    "noisy-cnot-blind-clifford-n3":
        "c515b2ebaeebb426ae803e1bf895501c73c770826d8a9296f49d114c5150e6f3",
    "noisy-cnot-local-twirl-n4":
        "07a1ed4107878691713ae6b1fb17ae9812e8cd3b8aa1ff7d164462f0b59d955d",
    "signed-form-local-twirl-n3":
        "0d7787d61a12322b344a8c35d86d0ee9a476bb92ba7c838444fcac02483cbd73",
    "signed-form-blind-clifford-n3":
        "c86f60cb3fb31d0db465cfde26d65ba206e23739ba5271bc0430a380d02d2389",
}


def _write_spec(tmp: Path, key) -> Path:
    path = tmp / f"spec-{key}.json"
    path.write_text(json.dumps(SPECS[key]))
    return path


def run_case(case: str, tmp: Path) -> bytes:
    """The bytes whose digest the table pins for one case."""
    if case in RECORD_CASES:
        n, seed, count = RECORD_CASES[case]
        channel = load_channel(_write_spec(tmp, n))
        records = [sample_c1t_realization(channel, substream(seed, i))
                   for i in range(count)]
        return json.dumps([[r.descriptor, r.outcome] for r in records]).encode()
    return (run_cli_case(case, tmp) / "results.json").read_bytes()


def run_cli_case(case: str, tmp: Path) -> Path:
    """Run one CLI case; returns its output directory."""
    key, argv = CLI_CASES[case]
    verb, rest = argv[0], argv[1:]
    mode = [rest.pop(0)] if verb == "seqpt" else []
    out = tmp / "out"
    spec = [] if key is None else ["--spec", str(_write_spec(tmp, key))]
    assert main([verb, *mode, *spec, "--out", str(out), *rest]) == 0
    return out


def digest(case: str, tmp: Path) -> str:
    return hashlib.sha256(run_case(case, tmp)).hexdigest()


def output_digest(case: str, tmp: Path) -> str:
    """SHA-256 over (name, bytes) of every file of a CLI case but
    results.json, in name order, with the run-dependent manifest fields
    dropped."""
    out = run_cli_case(case, tmp)
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name == "results.json":
            continue
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            del manifest["timestamp"]
            if manifest["spec"] is not None:
                del manifest["spec"]["path"]
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


@pytest.mark.parametrize("case", [*CLI_CASES, *RECORD_CASES])
def test_golden_digest(case, tmp_path):
    assert digest(case, tmp_path) == GOLDEN[case]


def test_table_covers_every_case():
    assert set(GOLDEN) == {*CLI_CASES, *RECORD_CASES}


@pytest.mark.parametrize("case", CLI_CASES)
def test_output_files_digest(case, tmp_path):
    assert output_digest(case, tmp_path) == OUTPUT_GOLDEN[case]


def test_output_table_covers_every_cli_case():
    assert set(OUTPUT_GOLDEN) == set(CLI_CASES)


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    tables = {"GOLDEN": {}, "OUTPUT_GOLDEN": {}}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for i, case in enumerate([*CLI_CASES, *RECORD_CASES]):
            case_dir = Path(tmp) / str(i)
            case_dir.mkdir()
            tables["GOLDEN"][case] = digest(case, case_dir)
            if case in CLI_CASES:
                (case_dir / "files").mkdir()
                tables["OUTPUT_GOLDEN"][case] = output_digest(case, case_dir / "files")
    for name, table in tables.items():
        print(f"{name} = {{")
        for case, hexdigest in table.items():
            print(f'    "{case}":\n        "{hexdigest}",')
        print("}")
