"""Signal-processing golden models shared by hardware-task IP cores and
software baselines: FFT, QAM and IMA-ADPCM."""

from . import adpcm, fft, qam
from .fft import FFT_SIZES
from .qam import QAM_ORDERS

__all__ = ["adpcm", "fft", "qam", "FFT_SIZES", "QAM_ORDERS"]
