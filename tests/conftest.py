import numpy as np
import pytest

from twirltomo.channels import (ChannelModel, ChiMatrix, bit_flip_kraus,
                                depolarizing_kraus, gate_unitary,
                                phase_flip_kraus, amplitude_damping_kraus,
                                random_cp_channel)


def xor_combination(basis, coeff: int) -> int:
    """XOR of the basis vectors that the bits of ``coeff`` select."""
    v = 0
    for i, b in enumerate(basis):
        if (coeff >> i) & 1:
            v ^= b
    return v


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
