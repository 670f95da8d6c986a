"""Channel-spec documents: the JSON ingestion format of the harness.

A document looks like::

    {
      "name": "noisy-cnot",
      "n": 2,
      "build": [
        {"named_gate": "CNOT", "qubits": [1, 2]},
        {"noise": "depolarizing", "strength": 0.05, "qubits": [1, 2]},
        {"kraus": [[[[1,0],[0,0]],[[0,0],[1,0]]]]}
      ]
    }

Layers compose in order (first layer acts first).  Qubit indices are
1-based in documents; complex numbers are [re, im] pairs.  A noise layer
applies the named single-qubit channel independently to each listed qubit.
Validation failures raise :class:`SpecValidationError` naming the offending
field.  JSON ``true`` and ``false`` are not numbers here.  A composed map
with an infinite or NaN entry in its Kraus operators, or in their sum of
K^dag K, is refused (field ``build``); a spec with a Pauli form (below)
is checked on its fidelities instead.  A composition that fails the
trace-preservation check is reported through the ``warnings`` list rather
than rejected (the exact chi export takes it; the sampled protocols refuse
it).  A spec made only of named gates and depolarizing, bit-flip or
phase-flip noise leaves its :class:`PauliForm` on the channel it
builds: the dense backend reads twirl laws off it, and the channel composes
its Kraus operators only when they are first read.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import (ChannelModel, _operator_sum, amplitude_damping_kraus,
                       bit_flip_kraus, compose, depolarizing_kraus, embed_kraus,
                       gate_unitary, phase_flip_kraus)
from .errors import SpecValidationError
from .pauli import PAULI_1Q
from .stabilizer import GATES, gate_tableau

_NOISE_BUILDERS = {
    "depolarizing": depolarizing_kraus,
    "bit_flip": bit_flip_kraus,
    "phase_flip": phase_flip_kraus,
    "amplitude_damping": amplitude_damping_kraus,
}
_PAULI_NOISES = {"depolarizing", "bit_flip", "phase_flip"}


@dataclass(frozen=True)
class ChannelSpecDocument:
    name: str
    n: int
    build: tuple[dict, ...]

    def to_json_dict(self) -> dict:
        return {"name": self.name, "n": self.n, "build": list(self.build)}


def parse_channel_document(doc: dict) -> ChannelSpecDocument:
    if not isinstance(doc, dict):
        raise SpecValidationError("$", "document must be a JSON object")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise SpecValidationError("name", "must be a nonempty string")
    n = doc.get("n")
    if not _is_int(n) or n < 1:
        raise SpecValidationError("n", "must be a positive integer")
    build = doc.get("build")
    if not isinstance(build, list) or not build:
        raise SpecValidationError("build", "must be a nonempty list of layers")
    for i, layer in enumerate(build):
        _validate_layer(layer, i, n)
    return ChannelSpecDocument(name=name, n=n, build=tuple(build))


def _validate_layer(layer, i: int, n: int):
    path = f"build[{i}]"
    if not isinstance(layer, dict):
        raise SpecValidationError(path, "layer must be an object")
    kinds = [k for k in ("named_gate", "kraus", "noise") if k in layer]
    if len(kinds) != 1:
        raise SpecValidationError(path, "layer needs exactly one of named_gate/kraus/noise")
    kind = kinds[0]
    if kind == "named_gate":
        gate = layer["named_gate"]
        if not isinstance(gate, str) or gate not in GATES:
            raise SpecValidationError(f"{path}.named_gate",
                                      f"unknown gate {gate!r} (known: {sorted(GATES)})")
        _validate_qubits(layer.get("qubits"), f"{path}.qubits", n,
                         exactly=len(GATES[gate]) // 2)
    elif kind == "noise":
        noise = layer["noise"]
        if not isinstance(noise, str) or noise not in _NOISE_BUILDERS:
            raise SpecValidationError(f"{path}.noise",
                                      f"unknown noise {noise!r} (known: {sorted(_NOISE_BUILDERS)})")
        strength = layer.get("strength")
        if not _is_number(strength) or not (0.0 <= strength <= 1.0):
            raise SpecValidationError(f"{path}.strength", "must be a number in [0, 1]")
        _validate_qubits(layer.get("qubits"), f"{path}.qubits", n)
    else:
        ops = layer["kraus"]
        if not isinstance(ops, list) or not ops:
            raise SpecValidationError(f"{path}.kraus", "must be a nonempty list of matrices")
        d = 1 << n
        for k, op in enumerate(ops):
            try:
                arr = _parse_complex_matrix(op)
            except Exception as exc:
                raise SpecValidationError(f"{path}.kraus[{k}]", str(exc)) from None
            if arr.shape != (d, d):
                raise SpecValidationError(f"{path}.kraus[{k}]",
                                          f"matrix must be {d}x{d}, got {arr.shape}")


def _validate_qubits(qubits, path: str, n: int, exactly: int | None = None):
    if not isinstance(qubits, list) or not qubits:
        raise SpecValidationError(path, "must be a nonempty list of 1-based qubit indices")
    if exactly is not None and len(qubits) != exactly:
        raise SpecValidationError(path, f"expected {exactly} qubit(s)")
    for q in qubits:
        if not _is_int(q) or not (1 <= q <= n):
            raise SpecValidationError(path, f"qubit index {q!r} outside 1..{n}")
    if len(set(qubits)) != len(qubits):
        raise SpecValidationError(path, "qubit indices must be distinct")


def _is_int(value) -> bool:
    """A JSON integer.  ``true`` and ``false`` load as bools, which Python
    counts as ints, so they are excluded here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _parse_complex_matrix(rows) -> np.ndarray:
    mat = []
    for row in rows:
        out = []
        for cell in row:
            re, im = cell
            if not (_is_number(re) and _is_number(im)):
                raise ValueError(f"entry {cell!r} is not a [re, im] pair of numbers")
            out.append(complex(re, im))
        mat.append(out)
    return np.array(mat, dtype=complex)


@dataclass(frozen=True)
class PauliForm:
    """A map given by its action on Paulis, E(P) = f(U P U^dag) U P U^dag:
    a Clifford U followed by a Pauli channel, held as the images of every
    key k = x | z << n, U X^x Z^z U^dag = i^e[k] X^x' Z^z' with
    keys[k] = x' | z' << n, and f[k] the fidelity of that image."""

    keys: np.ndarray
    e: np.ndarray
    f: np.ndarray


@lru_cache(maxsize=None)
def _gate_action(name: str) -> tuple[list[int], np.ndarray]:
    """(images, e) of a named gate on its own k qubits, for every local key
    l = x | z << k: G X^x Z^z G^dag = i^e[l] X^x' Z^z', images[l] = x' | z' << k."""
    k = len(GATES[name]) // 2
    images, e = gate_tableau((name, tuple(range(k))), k).conjugate(
        np.arange(4 ** k, dtype=np.uint64))
    return images[0].tolist(), e[0]


def _pauli_form(doc: ChannelSpecDocument) -> PauliForm | None:
    """The :class:`PauliForm` of a spec of named gates and depolarizing,
    bit-flip or phase-flip noise; None for any other spec.

    One walk in build order keeps the images of every key under the gates
    so far, B, with their phases and fidelities.  A gate W acts on the bits
    of each image on its qubits alone (their factor of X^x Z^z), through its
    table of local images (:func:`_gate_action`) spread to those bits.  A
    noise layer multiplies the fidelity of key k by its own fidelity of B's
    image of k, the product over its qubits of the one-qubit channel's
    fidelity of that qubit's factor; later gates move the image and keep
    the fidelity, so each key's fidelities multiply in build order."""
    if any("kraus" in layer or "noise" in layer and layer["noise"] not in _PAULI_NOISES
           for layer in doc.build):
        return None
    n = doc.n
    keys = np.arange(4 ** n, dtype=np.uint64)
    e, f = np.zeros(4 ** n, dtype=np.int64), np.ones(4 ** n)
    for layer in doc.build:
        qubits = [q - 1 for q in layer["qubits"]]
        if "named_gate" in layer:
            images, turn = _gate_action(layer["named_gate"])
            k = len(qubits)
            # bit j of a local key is the X (j < k) or Z bit of gate qubit k - 1 - j % k
            bits = [n - 1 - q for q in reversed(qubits)] + [2 * n - 1 - q for q in reversed(qubits)]
            spread = [sum(1 << b for j, b in enumerate(bits) if l >> j & 1)
                      for l in range(4 ** k)]  # each local key's bits within a key
            mask = spread[-1]  # the gate's bits: an image's bits there index the tables
            moved, phase = np.zeros(mask + 1, dtype=np.uint64), np.zeros(mask + 1, dtype=np.int64)
            moved[spread], phase[spread] = [spread[l] for l in images], turn
            held = keys & mask
            keys ^= held
            keys |= moved[held]
            e += phase[held]
            continue
        ops = np.array(_NOISE_BUILDERS[layer["noise"]](float(layer["strength"])))
        # f(P) = Tr(P N(P)) / 2 of the one-qubit channel, by its key x | z << 1 (I, X, Z, Y)
        one = (np.einsum("pij,kjl,plm,kim->p", PAULI_1Q, ops, PAULI_1Q, ops.conj()).real
               / 2)[[0, 1, 3, 2]]
        factors = [one[keys >> n - 1 - q & 1 | (keys >> 2 * n - 1 - q & 1) << 1] for q in qubits]
        f *= factors[0] if len(factors) == 1 else np.prod(factors, axis=0)
    return PauliForm(keys, e & 3, f)


def _composed(doc: ChannelSpecDocument) -> ChannelModel:
    """The spec's map as one composed Kraus set (:func:`compose`)."""
    layers = []
    for layer in doc.build:
        if "named_gate" in layer:
            qubits = tuple(q - 1 for q in layer["qubits"])
            layers.append(ChannelModel.from_unitary(
                gate_unitary(layer["named_gate"], qubits, doc.n)))
        elif "noise" in layer:
            ops_1q = _NOISE_BUILDERS[layer["noise"]](float(layer["strength"]))
            for q in layer["qubits"]:
                layers.append(ChannelModel(doc.n, kraus=embed_kraus(ops_1q, q - 1, doc.n)))
        else:
            layers.append(ChannelModel(doc.n,
                                       kraus=[_parse_complex_matrix(op)
                                              for op in layer["kraus"]]))
    return compose(layers)


def build_channel(doc: ChannelSpecDocument,
                  warnings: list[str] | None = None) -> ChannelModel:
    """The spec's map.  A spec with a Pauli form keeps it on the channel and
    composes its Kraus set only when that is first read (the form's laws and
    classification never read it); any other spec composes at once."""
    form = _pauli_form(doc)
    if form is not None:
        # the layers are the caller's dicts: copy what _composed reads of them
        frozen = ChannelSpecDocument(doc.name, doc.n, tuple(
            {**layer, "qubits": list(layer["qubits"])} for layer in doc.build))
        channel = ChannelModel(doc.n, kraus=lambda: _composed(frozen).kraus)
        channel._pauli_form = form
        finite = np.isfinite(form.f).all()
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # checked right below
            channel = _composed(doc)
            finite = (all(np.isfinite(k).all() for k in channel.kraus)
                      and np.isfinite(_operator_sum(channel)).all())
    if not finite:
        raise SpecValidationError("build", "the composed map has a non-finite entry in "
                                  "its Kraus operators or in their sum of K^dag K")
    if warnings is not None and not channel.classification.trace_preserving:
        warnings.append("composed channel is not trace preserving")
    return channel


def load_channel(path, warnings: list[str] | None = None) -> ChannelModel:
    with open(path) as fh:
        raw = json.load(fh)
    return build_channel(parse_channel_document(raw), warnings)

