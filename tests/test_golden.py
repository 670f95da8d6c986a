"""Golden digests: SHA-256 of ``results.json`` for a fixed set of runs.

Every case runs one CLI verb at a fixed seed and compares the digest of the
``results.json`` it writes with the committed table ``GOLDEN``.  A second
table, ``OUTPUT_GOLDEN``, pins every other file a CLI case writes
(``report.txt``, ``report.csv``, ``chi.json``, ``chi.csv`` and
``manifest.json`` without its ``timestamp`` and ``spec.path``, which vary
between runs).  The class-pair cap of blind discovery is not exposed on
the command line, so the capped cases call ``run_blind_discovery`` and hash
the JSON of its result as the CLI writes it.  The record cases hash
realizations drawn one at a time by ``sample_c1t_realization`` from
``substream(seed, i)``.

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
        "c4f9b93adaa908c0dc2771f1298b794fbba851cd274ff582d1a2045bda7a8f5c",
    "local-twirl-n2":
        "27749b0ba1c04cf5f146c77f183a7c97ed6528230839578198fa1fafaef389a2",
    "local-twirl-n3":
        "c5f836da081dc558ca514d837b2fa28da391d628c149e5ce8fbcd1143e53ef71",
    "local-twirl-n4":
        "4f7305110542cfd8d928893b1e21b9021e8c579c6e16a93b6f9d109c237d749f",
    "bounds-check-n2":
        "d3a3fdc6bc487102972eec03976ce2f2cf33b23edd4ae883f3b4e90ad6fc0812",
    "success-prob":
        "35c952b2ce7e3d8951a4f3b848f1e5e361924ca00a0903f4906ca1516ca5cf21",
    "haar-verify":
        "423f5eb262490eb2622b2979c577597a7c38d5978efa9145190dc9ee474b0068",
    "noisy-cnot-select-clifford-n3":
        "f10bba64009359bbfa7202467643848e0347aa0b5bc5b61e17f9b805d70383d1",
    "noisy-cnot-blind-mub-n3":
        "b85b0fa612fd8b81d9467967fa747fb22e626cb9ca9a19b7340417a924692550",
    "noisy-cnot-blind-clifford-n3":
        "691291743aacd0c5ce5f61d03838842b31f23741f734fd8677bbc5fa4fa3a209",
    "noisy-cnot-local-twirl-n4":
        "73aac1765b8cd7526bf0978daa0c48e50b9092401138476eb7cf47486a796b9e",
    "signed-form-local-twirl-n3":
        "c1c6b7dd003c8a7604b6a62ecbf31254c53e0488d3db9ae68809b4bdc2539a24",
    "signed-form-blind-clifford-n3":
        "a8d32e3c5d8a36ed197e3a66db95acfbd7fd72c295720b119b71400d529f1d35",
    "capped-mub-n3":
        "7aaa3ad5f533f4bed69397379529bfc2ed55db07da1d1b7359cd4fe9d5235442",
    "capped-clifford-n2":
        "ae1afba2822d080b109cc5e4e696f4b5d2d7191859ab60ff14ecc5ec7cb64f66",
    "capped-clifford-n3":
        "622b9c92c0a208111f2143e3f6e448fcdaf7f2cf6716b7309663614be2758e33",
    "c1t-records-n3":
        "6a8ef72a641d44c7400b3e01dd398fa367e95280d49dacdeacded1a72c2a4286",
}


# case id -> SHA-256 over the other output files of the CLI case, by name
OUTPUT_GOLDEN = {
    "exact-chi-n2":
        "2de008464e8b8eac21c73ec90e0f86eb80fa740775fb49d7486fe7f3e59130b5",
    "select-mub-n2":
        "bee0faa9ec2ca1b60c322dded7ae5eafd3c9c4ba24242e8ae965ff06a46328f2",
    "select-clifford-n2":
        "db65cee734e80f21a51edcffe04058952f89d69547af400d62b976929e675e75",
    "blind-mub-n1":
        "73f42e662191dfe0c9231e2cf48bcf972e4ae3dd1091fa6c288c493510952e2b",
    "blind-mub-n2":
        "97c965d191d79976824a2a06280ab06214e1308ee91aec4ae8367491360ccb48",
    "blind-mub-n3":
        "2d87e9b5912fa6dd7f14ad50ff26720cdf4e70bb34b47cbbc35b0c7a5edccb33",
    "blind-clifford-n1":
        "5cf912c41e899bc45e1ea9539f6d30d01eb24df1079b0a7f523c3d8f8b22d3ef",
    "blind-clifford-n2":
        "ac11a606ab65ee25807b58a670910211480c0f59d70d8601188c28992b75361c",
    "blind-clifford-n3":
        "e626861b79c33e44c35275e4ac730c1c359409d54a2e6968ac976a00cb998ffa",
    "local-twirl-n1":
        "c447d91c5c8f2417f9d1f478833a3b22b0614d5a638febf4de1c14ef76487085",
    "local-twirl-n2":
        "5ba3a835857781d31960b62acfc975e756eee887cbba5198328a8f22ff8301dc",
    "local-twirl-n3":
        "6d4e25359bd4b1f8af325dbcfddde411ca2f0b117a0110906ee5b201b0520252",
    "local-twirl-n4":
        "d2fd43c9e0778e77ea2f87268a1f81889a52bd8b2a67b7f99f1e45196ca6e93b",
    "bounds-check-n2":
        "754f13ebf47e548508831c15cc6a64175527b818eed78816c2a4110fea245763",
    "success-prob":
        "4ad114a47fc97bfa83bcd48dfbcdf17afd3e7a4257672cc01eb0e15cb8b21431",
    "haar-verify":
        "37a92a8d80bada610a1daf059bb770ca66f1bfdce46072def66dec1f2e0ba202",
    "noisy-cnot-select-clifford-n3":
        "3dfc9a72c2b31b5b7d01642f6cf76ef0a2ec4ad7cf3afab34fb0711071cc7037",
    "noisy-cnot-blind-mub-n3":
        "1c26897174dd5a3e22f24ec93a3b974e4c9a81d80ca55227501da287085a6f1e",
    "noisy-cnot-blind-clifford-n3":
        "a58dc834f9e5097b262a0d15f91ccf4e3a88c73be03edc84f1e21ccd9d8894a0",
    "noisy-cnot-local-twirl-n4":
        "50fc461b080fc6c225abad2c8069ed13104463669ad40bba58d9745289546d74",
    "signed-form-local-twirl-n3":
        "3f5d5d847d13c48c56e881cc93a37661bb4cb7ca11e940c60822ff66a5d55a1b",
    "signed-form-blind-clifford-n3":
        "d77ce5c289fb5168d814292ddf3be195e13857a91d0bed7fcaaec3ff8d088c7e",
}


def _write_spec(tmp: Path, key) -> Path:
    path = tmp / f"spec-{key}.json"
    path.write_text(json.dumps(SPECS[key]))
    return path


def run_case(case: str, tmp: Path) -> bytes:
    """The bytes whose digest the table pins for one case."""
    if case in CAP_CASES:
        n, variant, shots, seed, cap = CAP_CASES[case]
        channel = load_channel(_write_spec(tmp, n))
        cfg = SeqptConfig(shots=shots, variant=variant, seed=seed, pair_class_cap=cap)
        res = run_blind_discovery(channel, cfg)
        assert not res.analyzed_exactly
        return json.dumps(res.to_json_dict(), sort_keys=True, allow_nan=False).encode()
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


@pytest.mark.parametrize("case", [*CLI_CASES, *CAP_CASES, *RECORD_CASES])
def test_golden_digest(case, tmp_path):
    assert digest(case, tmp_path) == GOLDEN[case]


def test_table_covers_every_case():
    assert set(GOLDEN) == {*CLI_CASES, *CAP_CASES, *RECORD_CASES}


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
        for i, case in enumerate([*CLI_CASES, *CAP_CASES, *RECORD_CASES]):
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
