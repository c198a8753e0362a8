"""GSM-style encoder: stability, reconstruction quality, bit budget."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp import gsm


def speechlike(n, seed=42):
    """AR(2) process with pitch pulses — a crude voiced-speech surrogate."""
    rng = np.random.default_rng(seed)
    exc = rng.standard_normal(n) * 50
    exc[::80] += 2000
    sig = np.zeros(n)
    for i in range(2, n):
        sig[i] = 1.5 * sig[i - 1] - 0.7 * sig[i - 2] + exc[i]
    return sig


def roundtrip(sig):
    enc, dec = gsm.GsmEncoder(), gsm.GsmDecoder()
    frames = len(sig) // gsm.FRAME
    out = [dec.decode_frame(enc.encode_frame(sig[i * gsm.FRAME:(i + 1) * gsm.FRAME]))
           for i in range(frames)]
    return np.concatenate(out)


def test_reconstruction_correlates_on_speechlike():
    sig = speechlike(160 * 10)
    rec = roundtrip(sig)
    c = np.corrcoef(rec[320:], sig[320:])[0, 1]
    assert c > 0.9


def test_stable_on_pure_tone():
    """Direct-form quantization would blow up here; LAR quantization must not."""
    sig = np.sin(np.arange(160 * 10) * 0.3) * 3000
    rec = roundtrip(sig)
    assert np.abs(rec).max() < 4 * np.abs(sig).max()
    assert np.corrcoef(rec[320:], sig[320:])[0, 1] > 0.7


def test_frame_length_enforced():
    with pytest.raises(ValueError):
        gsm.GsmEncoder().encode_frame(np.zeros(100))


def test_bit_budget_is_fixed_and_low_rate():
    code = gsm.GsmEncoder().encode_frame(speechlike(160))
    # 4 subframes; paper-era codecs are ~260 bits/20ms (13 kbit/s).
    assert code.bit_count == 8 * 6 + 4 * (7 + 2 + 2 + 6 + 3 * gsm.RPE_PULSES)
    assert code.bit_count < 400


def test_levinson_durbin_whitens():
    sig = speechlike(160)
    r = gsm.autocorrelate(sig * np.hamming(160), gsm.LPC_ORDER)
    a, ks, err = gsm.levinson_durbin(r, gsm.LPC_ORDER)
    assert err < r[0]                       # prediction reduces energy
    assert np.all(np.abs(ks) < 1.0)


def test_reflection_to_lpc_matches_levinson():
    sig = speechlike(160)
    r = gsm.autocorrelate(sig * np.hamming(160), gsm.LPC_ORDER)
    a, ks, _ = gsm.levinson_durbin(r, gsm.LPC_ORDER)
    a2 = gsm.reflection_to_lpc(ks)
    assert np.allclose(a, a2, atol=1e-6)


@given(st.lists(st.floats(min_value=-0.98, max_value=0.98),
                min_size=1, max_size=8))
def test_lar_quantization_preserves_stability(ks):
    ks = np.array(ks)
    kq = gsm.dequantize_lar(gsm.quantize_lar(ks))
    assert np.all(np.abs(kq) < 1.0)
    # Quantization error bounded.
    assert np.all(np.abs(kq - np.clip(ks, -0.984, 0.984)) < 0.1)


def test_analysis_synthesis_identity_without_quantization():
    """lpc_residual then lpc_synthesis with the same coefficients is exact."""
    sig = speechlike(160)
    r = gsm.autocorrelate(sig * np.hamming(160), gsm.LPC_ORDER)
    a, _, _ = gsm.levinson_durbin(r, gsm.LPC_ORDER)
    hist = np.zeros(gsm.LPC_ORDER)
    res = gsm.lpc_residual(sig, a, hist)
    rec = gsm.lpc_synthesis(res, a, hist)
    assert np.allclose(rec, sig, atol=1e-6)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_decoder_never_blows_up(seed):
    rng = np.random.default_rng(seed)
    sig = rng.standard_normal(160 * 4) * 5000
    rec = roundtrip(sig)
    assert np.isfinite(rec).all()
    assert np.abs(rec).max() < 1e6


def _loop_residual(frame, a, hist):
    """The short-term analysis filter as one dot product per sample: the
    reference for ``gsm.lpc_residual``."""
    x = np.concatenate((hist, frame.astype(np.float64)))
    p = len(a)
    res = np.empty(len(frame))
    for n in range(len(frame)):
        res[n] = x[p + n] + np.dot(a, x[n:p + n][::-1])
    return res


class _LoopEncoder(gsm.GsmEncoder):
    """The encoder with the LTP search as one lag at a time, strictly
    greater scores winning: the reference for the windowed search."""

    def _ltp_search(self, sub):
        hist = self._res_hist
        best_lag, best_corr, best_energy = gsm.LTP_MIN, 0.0, 1.0
        for lag in range(gsm.LTP_MIN, gsm.LTP_MAX + 1):
            past = hist[len(hist) - lag:len(hist) - lag + gsm.SUBFRAME]
            c = float(np.dot(sub, past))
            e = float(np.dot(past, past)) + 1e-9
            if c * c / e > best_corr * best_corr / best_energy:
                best_lag, best_corr, best_energy = lag, c, e
        return best_lag, best_corr, best_energy


def _codes(code):
    return (code.lar_q.tolist(),
            [(sf.ltp_lag, sf.ltp_gain_q, sf.rpe_phase, sf.rpe_scale_q,
              sf.rpe_pulses.tolist()) for sf in code.subframes])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_windowed_kernels_give_the_loop_codes(seed, monkeypatch):
    """300 frames of the workload's input: ``lar_q`` and every subframe
    code equal the loop forms' (the residual's last bits may differ,
    since its products are summed in another order)."""
    rng = np.random.default_rng(seed)
    frames = [rng.standard_normal(gsm.FRAME) * 800 for _ in range(300)]
    enc = gsm.GsmEncoder()
    got = [_codes(enc.encode_frame(f)) for f in frames]
    monkeypatch.setattr(gsm, "lpc_residual", _loop_residual)
    ref = _LoopEncoder()
    assert got == [_codes(ref.encode_frame(f)) for f in frames]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_residual_matches_the_loop_to_rounding(seed):
    """The windowed residual sums the same products as the loop; the
    bound is a few ulps of the sum of their magnitudes."""
    rng = np.random.default_rng(seed)
    frame = rng.standard_normal(gsm.FRAME) * 8000
    hist = rng.standard_normal(gsm.LPC_ORDER) * 8000
    a = rng.uniform(-2, 2, gsm.LPC_ORDER)
    x = np.abs(np.concatenate((hist, frame)))
    p = gsm.LPC_ORDER
    magnitude = x[p:] + np.array([np.abs(a) @ x[n:p + n][::-1]
                                  for n in range(gsm.FRAME)])
    err = np.abs(gsm.lpc_residual(frame, a, hist)
                 - _loop_residual(frame, a, hist))
    assert (err <= 2 * (p + 1) * np.finfo(np.float64).eps * magnitude).all()


@pytest.mark.parametrize("period, first", [(20, 40), (41, 78), (1000, 41)])
def test_ltp_search_ties_take_the_first_lag(period, first):
    """A history that repeats (every ``period`` samples, and a ramp
    modulo 7 inside) repeats its windows, so several lags tie exactly;
    small integers make every product and sum exact in both forms.  The
    first tied lag wins, as in the strict-greater scan: for the oldest
    subframe-long stretch as ``sub`` that is ``first``.  An all-zero
    subframe scores 0 at every lag."""
    n = gsm.LTP_MAX + gsm.SUBFRAME
    hist = np.resize(np.arange(period) % 7 - 3.0, n)
    enc, ref = gsm.GsmEncoder(), _LoopEncoder()
    enc._res_hist = ref._res_hist = hist
    for sub in (hist[-gsm.SUBFRAME:], hist[:gsm.SUBFRAME],
                np.zeros(gsm.SUBFRAME)):
        assert enc._ltp_search(sub) == ref._ltp_search(sub)
    assert enc._ltp_search(hist[:gsm.SUBFRAME])[0] == first
    assert enc._ltp_search(np.zeros(gsm.SUBFRAME)) == (gsm.LTP_MIN, 0.0, 1.0)
