"""GSM full-rate-style speech encoder kernel (the 'GSM encoding' workload).

A self-contained LPC + long-term-prediction + RPE encoder in the spirit of
GSM 06.10: 160-sample frames, 8th-order short-term LPC analysis (Schur-like
via Levinson-Durbin), per-subframe LTP lag search, and 3:1 decimated RPE
grid selection with block-adaptive quantization.  It is not bit-exact with
the ETSI codec (the paper only needs a realistic computational load with a
speech-codec memory profile), but it is a real encoder: the decoder below
reconstructs intelligible signals and the tests bound the reconstruction
error on synthetic speech.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

FRAME = 160          # samples per frame (20 ms @ 8 kHz)
SUBFRAME = 40
LPC_ORDER = 8
LTP_MIN, LTP_MAX = 40, 120
RPE_PHASES = 3       # candidate decimation phases
RPE_PULSES = 14      # ceil(40/3) pulses per subframe


def autocorrelate(frame: np.ndarray, order: int) -> np.ndarray:
    """Autocorrelation r[0..order] of a (windowed) frame."""
    frame = np.asarray(frame, dtype=np.float64)
    n = len(frame)
    return np.array([np.dot(frame[:n - k], frame[k:]) for k in range(order + 1)])


def levinson_durbin(r: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Solve the Toeplitz normal equations.

    Returns ``(a, k, err)``: direct-form coefficients a[1..p], reflection
    coefficients k[1..p] (all |k| < 1 for a valid autocorrelation), and the
    final prediction-error power.
    """
    a = np.zeros(order + 1)
    a[0] = 1.0
    ks = np.zeros(order)
    err = r[0] if r[0] > 0 else 1.0
    for i in range(1, order + 1):
        acc = r[i] + np.dot(a[1:i], r[1:i][::-1])
        k = -acc / err
        k = float(np.clip(k, -0.999, 0.999))
        ks[i - 1] = k
        a[1:i + 1] = a[1:i + 1] + k * np.concatenate((a[1:i][::-1], [1.0]))
        err *= (1.0 - k * k)
        if err <= 0:
            err = 1e-9
    return a[1:], ks, err


def reflection_to_lpc(k: np.ndarray) -> np.ndarray:
    """Step-up recursion: reflection coefficients -> direct-form a[1..p].

    Any |k| < 1 input yields a stable synthesis filter 1/A(z), which is why
    the encoder quantizes *these* (as log-area ratios) rather than the
    direct-form coefficients.
    """
    a = np.zeros(0)
    for ki in np.asarray(k, dtype=np.float64):
        a = np.concatenate((a + ki * a[::-1], [ki]))
    return a


def quantize_lar(k: np.ndarray) -> np.ndarray:
    """Quantize reflection coefficients as 6-bit log-area-ratio codes."""
    k = np.clip(np.asarray(k, dtype=np.float64), -0.984, 0.984)
    lar = np.log((1 + k) / (1 - k))
    return np.clip(np.round(lar * 8), -31, 31).astype(np.int32)


def dequantize_lar(lar_q: np.ndarray) -> np.ndarray:
    """Inverse of :func:`quantize_lar`; always returns |k| < 1."""
    lar = np.asarray(lar_q, dtype=np.float64) / 8.0
    return np.tanh(lar / 2.0)


def lpc_residual(frame: np.ndarray, a: np.ndarray, hist: np.ndarray) -> np.ndarray:
    """Short-term analysis filter A(z) applied with carry-over history:
    ``res[n] = x[p + n] + sum(a[k] * x[p + n - 1 - k] for k in range(p))``
    over ``x = hist ++ frame``, one windowed product for all n."""
    x = np.concatenate((hist, frame.astype(np.float64)))
    p = len(a)
    # Row n of the reversed windows is x[p + n - 1], ..., x[n].
    return x[p:] + sliding_window_view(x[:-1], p)[:, ::-1] @ a


def lpc_synthesis(res: np.ndarray, a: np.ndarray, hist: np.ndarray) -> np.ndarray:
    """Inverse filter 1/A(z) (decoder side)."""
    p = len(a)
    out = np.concatenate((hist, np.zeros(len(res))))
    for n in range(len(res)):
        out[p + n] = res[n] - np.dot(a, out[n:p + n][::-1])
    return out[p:]


@dataclass
class GsmSubframeCode:
    ltp_lag: int
    ltp_gain_q: int           # quantized to 2 bits (4 levels)
    rpe_phase: int
    rpe_scale_q: int          # 6-bit log-ish scale index
    rpe_pulses: np.ndarray    # 3-bit codes, RPE_PULSES entries


@dataclass
class GsmFrameCode:
    """Encoded parameters of one 160-sample frame."""

    lar_q: np.ndarray                     # quantized reflection-ish params
    subframes: list[GsmSubframeCode] = field(default_factory=list)

    @property
    def bit_count(self) -> int:
        # 8 LARs @ 6 bits + per subframe: 7 lag + 2 gain + 2 phase + 6 scale + 3*14.
        return 8 * 6 + len(self.subframes) * (7 + 2 + 2 + 6 + 3 * RPE_PULSES)


_LTP_GAINS = np.array([0.1, 0.35, 0.65, 1.0])


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The analysis window, the lag window that regularizes the
    autocorrelation, and the LTP search's gather indices: row k holds
    the indices into the residual history (``LTP_MAX + SUBFRAME`` long)
    of the subframe-long stretch that starts ``LTP_MIN + k`` samples
    back.  Built on first use rather than at import: a process's first
    NumPy computations cost about 0.5 MB of resident memory, which every
    process importing this module would pay, most of them never
    encoding."""
    return (np.hamming(FRAME),
            np.exp(-0.5 * (0.01 * np.arange(LPC_ORDER + 1)) ** 2),
            (LTP_MAX + SUBFRAME - np.arange(LTP_MIN, LTP_MAX + 1))[:, None]
            + np.arange(SUBFRAME))


class GsmEncoder:
    """Stateful frame encoder (short-term + long-term predictor memories)."""

    def __init__(self) -> None:
        self._stp_hist = np.zeros(LPC_ORDER)
        self._res_hist = np.zeros(LTP_MAX + SUBFRAME)

    def encode_frame(self, frame: np.ndarray) -> GsmFrameCode:
        if len(frame) != FRAME:
            raise ValueError(f"frame must be {FRAME} samples")
        frame = np.asarray(frame, dtype=np.float64)
        hamming, lag_window, _ = _tables()
        windowed = frame * hamming
        r = autocorrelate(windowed, LPC_ORDER)
        # Mild lag-windowing regularizes r so the filter stays well away
        # from the unit circle even on pure tones.
        r = r * lag_window
        _, ks, _ = levinson_durbin(r, LPC_ORDER)
        lar_q = quantize_lar(ks)
        a_q = reflection_to_lpc(dequantize_lar(lar_q))
        res = lpc_residual(frame, a_q, self._stp_hist)
        self._stp_hist = frame[-LPC_ORDER:].astype(np.float64)

        code = GsmFrameCode(lar_q=lar_q)
        for s in range(FRAME // SUBFRAME):
            sub = res[s * SUBFRAME:(s + 1) * SUBFRAME]
            code.subframes.append(self._encode_subframe(sub))
        return code

    def _ltp_search(self, sub: np.ndarray) -> tuple[int, float, float]:
        """LTP: exhaustive lag search over the reconstructed-residual
        history.  Returns the first lag in ``[LTP_MIN, LTP_MAX]`` of
        greatest corr² / energy with its correlation and energy, or
        ``(LTP_MIN, 0.0, 1.0)`` when no lag scores above 0."""
        pasts = self._res_hist[_tables()[2]]
        corr = pasts @ sub
        energy = np.einsum("ij,ij->i", pasts, pasts) + 1e-9
        score = corr * corr / energy
        k = int(score.argmax())
        if score[k] > 0.0:
            return LTP_MIN + k, float(corr[k]), float(energy[k])
        return LTP_MIN, 0.0, 1.0

    def _encode_subframe(self, sub: np.ndarray) -> GsmSubframeCode:
        hist = self._res_hist
        best_lag, best_corr, best_energy = self._ltp_search(sub)
        gain = max(0.0, min(1.2, best_corr / best_energy))
        gain_q = int(np.argmin(np.abs(_LTP_GAINS - gain)))
        past = hist[len(hist) - best_lag:len(hist) - best_lag + SUBFRAME]
        eres = sub - _LTP_GAINS[gain_q] * past

        # RPE: pick the best of RPE_PHASES decimation phases.
        best_phase, best_e = 0, -1.0
        for ph in range(RPE_PHASES):
            seq = eres[ph::RPE_PHASES]
            e = float(np.dot(seq, seq))
            if e > best_e:
                best_phase, best_e = ph, e
        seq = eres[best_phase::RPE_PHASES]
        scale = float(np.max(np.abs(seq))) if len(seq) else 0.0
        scale_q = int(np.clip(np.round(np.log1p(scale) * 8), 0, 63))
        scale_rec = float(np.expm1(scale_q / 8.0)) or 1.0
        pulses = np.clip(np.round(seq / scale_rec * 3.5 + 3.5), 0, 7).astype(np.int32)
        pulses = pulses[:RPE_PULSES]
        if len(pulses) < RPE_PULSES:
            pulses = np.pad(pulses, (0, RPE_PULSES - len(pulses)), constant_values=3)

        # Update the reconstructed-residual history the way the decoder will.
        rec = self._reconstruct(best_lag, gain_q, best_phase, scale_q, pulses)
        self._res_hist = np.concatenate((hist[SUBFRAME:], rec))
        return GsmSubframeCode(best_lag, gain_q, best_phase, scale_q, pulses)

    def _reconstruct(self, lag: int, gain_q: int, phase: int, scale_q: int,
                     pulses: np.ndarray) -> np.ndarray:
        hist = self._res_hist
        scale_rec = float(np.expm1(scale_q / 8.0)) or 1.0
        grid = np.zeros(SUBFRAME)
        vals = (pulses.astype(np.float64) - 3.5) / 3.5 * scale_rec
        idx = np.arange(phase, SUBFRAME, RPE_PHASES)[:len(vals)]
        grid[idx] = vals[:len(idx)]
        past = hist[len(hist) - lag:len(hist) - lag + SUBFRAME]
        return grid + _LTP_GAINS[gain_q] * past


class GsmDecoder:
    """Inverse of :class:`GsmEncoder` (parameter decode + synthesis filter)."""

    def __init__(self) -> None:
        self._res_hist = np.zeros(LTP_MAX + SUBFRAME)
        self._syn_hist = np.zeros(LPC_ORDER)

    def decode_frame(self, code: GsmFrameCode) -> np.ndarray:
        a_q = reflection_to_lpc(dequantize_lar(code.lar_q))
        res = np.empty(FRAME)
        for s, sf in enumerate(code.subframes):
            hist = self._res_hist
            scale_rec = float(np.expm1(sf.rpe_scale_q / 8.0)) or 1.0
            grid = np.zeros(SUBFRAME)
            vals = (sf.rpe_pulses.astype(np.float64) - 3.5) / 3.5 * scale_rec
            idx = np.arange(sf.rpe_phase, SUBFRAME, RPE_PHASES)[:len(vals)]
            grid[idx] = vals[:len(idx)]
            past = hist[len(hist) - sf.ltp_lag:len(hist) - sf.ltp_lag + SUBFRAME]
            rec = grid + _LTP_GAINS[sf.ltp_gain_q] * past
            self._res_hist = np.concatenate((hist[SUBFRAME:], rec))
            res[s * SUBFRAME:(s + 1) * SUBFRAME] = rec
        out = lpc_synthesis(res, a_q, self._syn_hist)
        self._syn_hist = out[-LPC_ORDER:]
        return out
