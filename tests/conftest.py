from functools import lru_cache

import numpy as np
import pytest

from twirltomo.channels import (ChannelModel, ChiMatrix, bit_flip_kraus,
                                depolarizing_kraus, gate_unitary,
                                phase_flip_kraus, amplitude_damping_kraus,
                                random_cp_channel)
from twirltomo import gf2
from twirltomo.dense import local_twirl_unitary
from twirltomo.pauli import XZ_DIGIT, Pauli
from twirltomo.stabilizer import (Clifford, Tableaux, _key_to_pauli, _spread_matrices,
                                  _swap_halves)

I_POWERS = np.array([1, 1j, -1, -1j])


def symplectic_product(a: Pauli, b: Pauli) -> int:
    """0 if the operators commute, 1 if they anticommute."""
    return ((a.x & b.z).bit_count() ^ (a.z & b.x).bit_count()) & 1


def xor_combination(basis, coeff: int) -> int:
    """XOR of the basis vectors that the bits of ``coeff`` select."""
    v = 0
    for i, b in enumerate(basis):
        if (coeff >> i) & 1:
            v ^= b
    return v


@lru_cache(maxsize=None)
def label_table(n: int) -> np.ndarray:
    """label[x, z]: integer label of the phase-free Pauli with bits x, z."""
    d = 1 << n
    x = np.arange(d)[:, None]
    z = np.arange(d)[None, :]
    label = np.zeros((d, d), dtype=np.int64)
    digit = np.array(XZ_DIGIT)
    for shift in range(n - 1, -1, -1):  # qubit 1 is the top digit
        label = (label << 2) | digit[((x >> shift) & 1) + 2 * ((z >> shift) & 1)]
    return label


def conjugated_xz_table(tableaux):
    """C X^a Z^b C^dag = i^e X^x Z^z for all (a, b) and every element C of
    the stack, as (M, D^2) arrays (x, z, e) with column a * D + b.

    Built by doubling over the 2n images: each image multiplies the table so
    far from the left, Z-images first (filling the bits of b), then X-images
    (the bits of a), so every X-image stands left of every Z-image.  In the
    XZ form the product of i^e1 X^x1 Z^z1 and i^e2 X^x2 Z^z2 is
    i^(e1+e2) (-1)^|z1 & x2| X^(x1^x2) Z^(z1^z2).
    """
    n = tableaux.n
    m = len(tableaux)
    x = np.zeros((m, 1), dtype=np.int64)
    z = np.zeros((m, 1), dtype=np.int64)
    e = np.zeros((m, 1), dtype=np.int64)
    images = [(tableaux.z[:, j], tableaux.signs[:, 2 * j + 1]) for j in range(n)][::-1]
    images += [(tableaux.x[:, j], tableaux.signs[:, 2 * j]) for j in range(n)][::-1]
    for key, sign in images:
        g_x = (key & np.uint64((1 << n) - 1)).astype(np.int64)[:, None]
        g_z = (key >> np.uint64(n)).astype(np.int64)[:, None]
        g_e = 2 * sign[:, None] + np.bitwise_count(g_x & g_z)  # Y = i X Z per qubit
        e = np.concatenate((e, e + g_e + 2 * np.bitwise_count(x & g_z)), axis=1)
        x = np.concatenate((x, x ^ g_x), axis=1)
        z = np.concatenate((z, z ^ g_z), axis=1)
    return x, z, e


def class_of(gen_keys, n: int, outcome: int) -> tuple[int, ...]:
    """Reference constraint class of one (frame, outcome) group, by one
    Python-int rref: row j is the functional of Z-image j on Pauli keys in
    bits 1.. with bit j of the outcome (qubit 1 on top) as rhs in bit 0."""
    return tuple(gf2.rref((_swap_halves(gk, n) << 1) | ((outcome >> (n - 1 - j)) & 1)
                          for j, gk in enumerate(gen_keys)))


def complete_symplectic(z_keys: list[int], n: int) -> list[int]:
    """Deterministic X-image completion of a commuting independent Z set by
    one gf2.solve_affine per qubit: x_j with <z_i, x_j> = delta_ij and
    <x_i, x_j> = 0 for the x_i found before it."""
    x_keys: list[int] = []
    for j in range(n):
        rows = [_swap_halves(k, n) for k in (*z_keys, *x_keys)]
        rhs = [1 if i == j else 0 for i in range(n)] + [0] * len(x_keys)
        sol = gf2.solve_affine(rows, rhs, 2 * n)
        assert sol is not None
        x_keys.append(sol[0])
    return x_keys


def clifford_from_z_frame(z_keys: list[int], n: int) -> Clifford:
    """A Clifford whose Z-images are the given commuting independent keys
    with +1 signs, X-images completed by :func:`complete_symplectic`."""
    return Clifford(n, tuple(_key_to_pauli(k, n) for k in complete_symplectic(z_keys, n)),
                    tuple(_key_to_pauli(k, n) for k in z_keys))


def mub_family_reference(n: int) -> Tableaux:
    """The MUB family built by GF(2) solves: basis 0 the identity, basis
    t + 1 the :func:`clifford_from_z_frame` of the Z frame whose generator
    j is X_j Z^(column j of the spread matrix A_t)."""
    bases = [Clifford.identity(n)]
    for rows in _spread_matrices(n):
        z_keys = []
        for j in range(n):
            zcol = 0
            for i in range(n):
                if (rows[i] >> j) & 1:
                    zcol |= 1 << (n - 1 - i)
            z_keys.append((1 << (n - 1 - j)) | (zcol << n))
        bases.append(clifford_from_z_frame(z_keys, n))
    return Tableaux.of(bases)


def dense_local_probs(channel, digits):
    """Reference outcome law of one one-qubit-twirl element from its own
    kron unitary and channel.apply."""
    u = local_twirl_unitary(digits)
    sigma = channel.apply(np.outer(u[:, 0], u[:, 0].conj()))
    return np.clip(np.einsum("im,ij,jm->m", u.conj(), sigma, u).real, 0.0, None)


def draw_outcome_reference(cdf: np.ndarray, u: float) -> int:
    """Reference outcome of one uniform ``u`` in [0, 1] against one
    cumulative distribution, by searchsorted: ``u`` is scaled by the total,
    a scaled draw that reaches the total is clamped to the last outcome of
    nonzero probability, and a cdf with no positive mass raises
    ``ValueError``.  ``rng._draw_outcome`` is checked against it row by row."""
    total = cdf[-1]
    if not total > 0:
        raise ValueError("outcome distribution has no positive mass")
    v = int(cdf.searchsorted(u * total, side="right"))
    return v if v < len(cdf) else int(cdf.searchsorted(total, side="left"))


def transpose_map_channel() -> ChannelModel:
    """The canonical positive-but-not-CP single-qubit map rho -> rho^T."""
    return ChannelModel.from_chi(
        ChiMatrix(1, np.diag([0.5, 0.5, -0.5, 0.5]).astype(complex)))


def mixed_z1_channel(p: float = 0.3) -> ChannelModel:
    """n=2 map rho -> (1-p) rho + p Z_1 rho Z_1."""
    z1 = gate_unitary("Z", (0,), 2)
    return ChannelModel.from_kraus([np.sqrt(1 - p) * np.eye(4), np.sqrt(p) * z1])


def cnot_channel() -> ChannelModel:
    return ChannelModel.from_unitary(gate_unitary("CNOT", (0, 1), 2))


def sparse_support_channel_n3() -> ChannelModel:
    """n=3 map whose nonzero chi diagonal sits on supports within {1, 3}."""
    z1 = gate_unitary("Z", (0,), 3)
    x3 = gate_unitary("X", (2,), 3)
    return ChannelModel.from_kraus([
        np.sqrt(0.8) * np.eye(8), np.sqrt(0.12) * z1, np.sqrt(0.08) * x3 @ z1])


def battery(max_n: int = 3) -> list[tuple[str, ChannelModel]]:
    """Small named channels exercised across the protocol tests."""
    out = [
        ("identity-1", ChannelModel.identity(1)),
        ("hadamard", ChannelModel.from_unitary(gate_unitary("H", (0,), 1))),
        ("depolarizing-0.3", ChannelModel.from_kraus(depolarizing_kraus(0.3))),
        ("bit-flip-0.2", ChannelModel.from_kraus(bit_flip_kraus(0.2))),
        ("phase-flip-0.15", ChannelModel.from_kraus(phase_flip_kraus(0.15))),
        ("amp-damp-0.25", ChannelModel.from_kraus(amplitude_damping_kraus(0.25))),
    ]
    if max_n >= 2:
        out += [
            ("identity-2", ChannelModel.identity(2)),
            ("cnot", cnot_channel()),
            ("mixed-z1", mixed_z1_channel()),
            ("x-on-1", ChannelModel.from_unitary(gate_unitary("X", (0,), 2))),
            ("random-cp-2", random_cp_channel(2, np.random.default_rng(21))),
        ]
    if max_n >= 3:
        out += [
            ("sparse-support-3", sparse_support_channel_n3()),
            ("random-cp-3", random_cp_channel(3, np.random.default_rng(31))),
        ]
    return out


@pytest.fixture(scope="session")
def channel_battery():
    return battery()
