"""IMA-ADPCM codec round-trip quality and state handling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp import adpcm


def sine(n, amp=8000, w=0.05):
    return (np.sin(np.arange(n) * w) * amp).astype(np.int16)


def test_roundtrip_error_bounded_on_speechlike():
    pcm = sine(4000)
    dec = adpcm.decode(adpcm.encode(pcm))
    err = np.abs(dec.astype(np.int32) - pcm.astype(np.int32))
    assert err.mean() < 200          # well under 1% of full scale


def test_silence_stays_silent():
    dec = adpcm.decode(adpcm.encode(np.zeros(100, dtype=np.int16)))
    assert np.abs(dec.astype(np.int32)).max() < 32


def test_codes_are_4bit():
    codes = adpcm.encode(sine(500))
    assert codes.max() <= 0xF


def test_state_continuity_across_blocks():
    """Encoding in two blocks with carried state == encoding at once."""
    pcm = sine(1000)
    whole = adpcm.encode(pcm)
    st_e = adpcm.AdpcmState()
    parts = np.concatenate([adpcm.encode(pcm[:500], st_e),
                            adpcm.encode(pcm[500:], st_e)])
    assert (whole == parts).all()


def test_decode_state_continuity():
    pcm = sine(1000)
    codes = adpcm.encode(pcm)
    whole = adpcm.decode(codes)
    st_d = adpcm.AdpcmState()
    parts = np.concatenate([adpcm.decode(codes[:500], st_d),
                            adpcm.decode(codes[500:], st_d)])
    assert (whole == parts).all()


def test_step_table_monotone():
    assert (np.diff(adpcm.STEP_TABLE) > 0).all()
    assert adpcm.STEP_TABLE[-1] == 32767


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=100, max_value=800))
def test_decoder_output_always_in_range(seed, n):
    rng = np.random.default_rng(seed)
    pcm = (rng.standard_normal(n) * 15000).astype(np.int16)
    dec = adpcm.decode(adpcm.encode(pcm))
    assert dec.dtype == np.int16
    # Reconstruction tracks the signal direction: correlation positive.
    if np.std(pcm) > 0:
        assert np.corrcoef(dec.astype(float), pcm.astype(float))[0, 1] > 0.5


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=200))
def test_decode_accepts_any_code_stream(codes):
    out = adpcm.decode(np.array(codes, dtype=np.uint8))
    assert len(out) == len(codes)


def _loop_encode(pcm, state):
    """The encoder with NumPy tables and a clamp helper: the reference
    for ``adpcm.encode``."""
    def clamp(v, lo, hi):
        return lo if v < lo else (hi if v > hi else v)

    pcm = np.asarray(pcm, dtype=np.int64)
    codes = np.empty(len(pcm), dtype=np.uint8)
    pred, index = state.predictor, state.index
    for i, sample in enumerate(pcm.tolist()):
        step = int(adpcm.STEP_TABLE[index])
        diff = sample - pred
        code = 0
        if diff < 0:
            code = 8
            diff = -diff
        delta = step >> 3
        if diff >= step:
            code |= 4
            diff -= step
            delta += step
        step >>= 1
        if diff >= step:
            code |= 2
            diff -= step
            delta += step
        step >>= 1
        if diff >= step:
            code |= 1
            delta += step
        pred = clamp(pred - delta if code & 8 else pred + delta,
                     -32768, 32767)
        index = clamp(index + int(adpcm.INDEX_TABLE[code & 7]), 0, 88)
        codes[i] = code
    state.predictor, state.index = pred, index
    return codes


_SAMPLE = st.one_of(st.integers(-32768, 32767),
                    st.sampled_from([-32768, -32767, 32767, 0]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_SAMPLE, max_size=300), min_size=1, max_size=4),
       st.integers(-32768, 32767), st.integers(0, 88))
def test_encode_equals_the_loop_reference(blocks, predictor, index):
    """Codes and the carried ``(predictor, index)`` equal the reference's
    after every block, from any starting state."""
    state = adpcm.AdpcmState(predictor, index)
    ref = adpcm.AdpcmState(predictor, index)
    for block in blocks:
        pcm = np.array(block, dtype=np.int16)
        got = adpcm.encode(pcm, state)
        assert got.dtype == np.uint8
        assert got.tolist() == _loop_encode(pcm, ref).tolist()
        assert (state.predictor, state.index) == (ref.predictor, ref.index)


def test_encode_saturates_at_full_scale():
    """Alternating full-scale swings drive the predictor into both
    clamps and the step index to both ends."""
    pcm = np.array(([32767] * 40 + [-32768] * 40) * 4 + [0] * 200,
                   dtype=np.int16)
    state, ref = adpcm.AdpcmState(), adpcm.AdpcmState()
    assert adpcm.encode(pcm, state).tolist() == _loop_encode(pcm, ref).tolist()
    assert (state.predictor, state.index) == (ref.predictor, ref.index)
