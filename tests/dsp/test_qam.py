"""QAM constellation properties and mod/demod round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp import qam


@pytest.mark.parametrize("order", qam.QAM_ORDERS)
def test_constellation_unit_energy(order):
    c = qam.constellation(order)
    assert len(c) == order
    assert np.mean(np.abs(c) ** 2) == pytest.approx(1.0, rel=1e-5)


@pytest.mark.parametrize("order", qam.QAM_ORDERS)
def test_constellation_is_built_once_and_read_only(order):
    c = qam.constellation(order)
    assert qam.constellation(order) is c
    assert np.array_equal(c, qam._build_constellation.__wrapped__(order))
    assert not c.flags.writeable
    with pytest.raises(ValueError):
        c[0] = 0


@pytest.mark.parametrize("order", qam.QAM_ORDERS)
def test_constellation_points_distinct(order):
    c = qam.constellation(order)
    d = np.abs(c[:, None] - c[None, :])
    np.fill_diagonal(d, 1.0)
    assert d.min() > 1e-3


@pytest.mark.parametrize("order", qam.QAM_ORDERS)
def test_mod_demod_roundtrip(order):
    syms = np.arange(order, dtype=np.uint32)
    pts = qam.modulate(syms, order)
    back = qam.demodulate(pts, order)
    assert (back == syms).all()


@pytest.mark.parametrize("order", qam.QAM_ORDERS)
def test_gray_neighbours_differ_one_bit(order):
    """Gray mapping: nearest constellation neighbours differ in one bit."""
    c = qam.constellation(order)
    m = int(np.sqrt(order))
    min_d = 2 / np.sqrt(np.mean((2 * np.arange(m) - (m - 1)) ** 2) * 2)
    for i in range(order):
        for j in range(order):
            if i == j:
                continue
            if np.abs(c[i] - c[j]) < min_d * 1.01:
                assert bin(i ^ j).count("1") == 1, (i, j)


def test_bits_per_symbol():
    assert qam.bits_per_symbol(4) == 2
    assert qam.bits_per_symbol(16) == 4
    assert qam.bits_per_symbol(64) == 6


def test_modulate_rejects_out_of_range():
    with pytest.raises(ValueError):
        qam.modulate(np.array([4]), 4)
    with pytest.raises(ValueError):
        qam.constellation(8)


def test_pack_bits_to_symbols():
    # One byte 0b10110100 -> QAM-4 symbols (2 bits MSB-first): 10 11 01 00.
    syms = qam.pack_bits_to_symbols(bytes([0b10110100]), 4)
    assert syms.tolist() == [0b10, 0b11, 0b01, 0b00]


def test_pack_bits_truncates_partial_symbol():
    # 8 bits into 6-bit symbols -> only one symbol.
    syms = qam.pack_bits_to_symbols(bytes([0xFF]), 64)
    assert len(syms) == 1 and syms[0] == 0b111111


@settings(max_examples=30)
@given(st.binary(min_size=3, max_size=64),
       st.sampled_from([4, 16, 64]))
def test_bitstream_roundtrip_through_channel(data, order):
    syms = qam.pack_bits_to_symbols(data, order)
    pts = qam.modulate(syms, order)
    # Mild AWGN well inside the decision regions.
    rng = np.random.default_rng(1)
    noisy = pts + (rng.standard_normal(len(pts))
                   + 1j * rng.standard_normal(len(pts))) * 0.01
    back = qam.demodulate(noisy.astype(np.complex64), order)
    assert (back == syms).all()
