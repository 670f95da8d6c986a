"""The Kraus set of a spec with a Pauli form is composed on first read.

``build_channel`` keeps such a spec's :class:`PauliForm` and composes its
Kraus operators only when ``kraus``, ``chi`` or ``operator_pairs`` is first
read; the one-qubit twirl and MUB laws and the classification come from the
form.  Any other spec composes at once.
"""
import json
import sys
import threading

import numpy as np
import pytest

from test_golden import SPECS
from twirltomo import channel_spec
from twirltomo.channel_spec import build_channel, parse_channel_document
from twirltomo.channels import ChannelModel, classify
from twirltomo.cli import main
from twirltomo.errors import SpecValidationError
from twirltomo.localtwirl import LocalTwirlConfig, run_local_twirl
from twirltomo.seqpt import SeqptConfig, estimate_chi_selective

_ALL_NOISY = {"name": "cnot-all-noisy-4", "n": 4,
              "build": [{"named_gate": "CNOT", "qubits": [1, 2]},
                        {"noise": "depolarizing", "strength": 0.05,
                         "qubits": [1, 2, 3, 4]}]}
FORM_SPECS = [SPECS["noisy-cnot-3"], SPECS["noisy-cnot-4"], _ALL_NOISY]


def _count_compositions(monkeypatch) -> list:
    """A list that gains one entry per Kraus composition of a spec."""
    calls = []
    compose = channel_spec.compose

    def counted(layers):
        calls.append(len(layers))
        return compose(layers)

    monkeypatch.setattr(channel_spec, "compose", counted)
    return calls


def _doc(n, build):
    return parse_channel_document({"name": "t", "n": n, "build": build})


@pytest.mark.parametrize("spec", FORM_SPECS, ids=lambda s: s["name"])
def test_form_protocols_leave_the_kraus_set_unbuilt(monkeypatch, spec):
    """The one-qubit twirl and selective MUB runs on a spec with a Pauli
    form compose no Kraus set; the first read of it composes it once."""
    calls = _count_compositions(monkeypatch)
    channel = build_channel(parse_channel_document(spec))
    n = channel.n
    run_local_twirl(channel, LocalTwirlConfig(shots=300, seed=1))
    estimate_chi_selective(channel, "Z" * n, SeqptConfig(shots=300, seed=2))
    assert channel.classification.trace_preserving
    assert calls == []
    assert len(channel.kraus) > 0
    channel.chi, channel.operator_pairs()
    assert len(calls) == 1


@pytest.mark.parametrize("verb", [["local-twirl"], ["seqpt", "select", "--label", "ZZZZ"],
                                  ["seqpt", "blind", "--variant", "mub"]])
def test_cli_form_runs_at_n4_leave_the_kraus_set_unbuilt(monkeypatch, tmp_path, verb):
    """Past the CLI's oracle column (n <= 3), a local-twirl, selective MUB
    or blind MUB run on a spec with a Pauli form composes no Kraus set."""
    calls = _count_compositions(monkeypatch)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_ALL_NOISY))
    assert main([*verb, "--spec", str(path), "--out", str(tmp_path / "out"),
                 "--shots", "200", "--seed", "3"]) == 0
    assert calls == []


@pytest.mark.parametrize("n, build", [
    (3, SPECS["noisy-cnot-3"]["build"]),
    (4, _ALL_NOISY["build"]),
    (2, [{"named_gate": "H", "qubits": [1]},
         {"noise": "bit_flip", "strength": 0.1, "qubits": [1, 2]},
         {"named_gate": "S", "qubits": [2]},
         {"noise": "phase_flip", "strength": 0.2, "qubits": [2]},
         {"named_gate": "CNOT", "qubits": [2, 1]}]),
])
def test_kraus_built_on_read_equals_an_eager_build(n, build):
    """The Kraus set, chi, operator pairs and classification of a form's
    channel, read after its form's laws, equal bit for bit those of the
    same spec with a trailing identity ``kraus`` layer, which has no form
    and composes at once."""
    lazy = build_channel(_doc(n, build))
    run_local_twirl(lazy, LocalTwirlConfig(shots=100, seed=4))
    eye = [[[float(i == j), 0.0] for j in range(1 << n)] for i in range(1 << n)]
    eager = build_channel(_doc(n, [*build, {"kraus": [eye]}]))
    assert lazy._pauli_form is not None and eager._pauli_form is None
    assert len(lazy.kraus) == len(eager.kraus)
    assert all(np.array_equal(a, b) for a, b in zip(lazy.kraus, eager.kraus))
    assert np.array_equal(lazy.chi.mat, eager.chi.mat)
    assert all(np.array_equal(a, c) and np.array_equal(b, e) for (a, b), (c, e)
               in zip(lazy.operator_pairs(), eager.operator_pairs(), strict=True))
    assert lazy.classification == eager.classification
    assert lazy.classification == classify(ChannelModel(n, kraus=lazy.kraus))


def test_kraus_built_on_read_is_the_spec_as_built():
    """A change to the spec's dicts after build_channel does not reach the
    Kraus set that a later read composes: it is the spec's map as it was
    when the channel was built, as its form is."""
    spec = json.loads(json.dumps(SPECS["noisy-cnot-3"]))
    channel = build_channel(parse_channel_document(spec))
    want = build_channel(parse_channel_document(SPECS["noisy-cnot-3"])).kraus
    spec["build"][1]["strength"] = 0.5
    spec["build"][0]["qubits"].reverse()
    assert all(np.array_equal(a, b) for a, b in zip(channel.kraus, want, strict=True))


def test_spec_outside_the_form_builds_at_once(monkeypatch):
    """An amplitude-damping or ``kraus`` spec composes its Kraus set inside
    build_channel, and a non-finite one is still refused there."""
    calls = _count_compositions(monkeypatch)
    channel = build_channel(parse_channel_document(SPECS[2]))
    assert channel._pauli_form is None and len(calls) == 1
    kraus = [[[1, 0], [0, 0]], [[0, 0], [1e300, 0]]]
    with pytest.raises(SpecValidationError, match="non-finite"):
        build_channel(_doc(1, [{"named_gate": "H", "qubits": [1]}, {"kraus": [kraus]}]))
    assert len(calls) == 2


def test_concurrent_first_reads_compose_once(monkeypatch):
    """Threads that read the Kraus set, chi and operator pairs of a form's
    channel at once get one composed Kraus set between them."""
    calls = _count_compositions(monkeypatch)
    channel = build_channel(parse_channel_document(_ALL_NOISY))
    readers = [lambda: channel.kraus, lambda: channel.chi and channel.kraus,
               lambda: channel.operator_pairs() and channel.kraus] * 2
    seen, start = [], threading.Barrier(len(readers), timeout=60)

    def read(reader):
        start.wait()
        seen.append(reader())

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(reader,)) for reader in readers]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1
    assert len(seen) == len(readers) and all(k is seen[0] for k in seen)
