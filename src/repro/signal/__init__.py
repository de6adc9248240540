"""DSP substrate built on numpy only.

This subpackage reimplements the small amount of classical signal processing
the paper's acquisition chain needs — IIR Butterworth design via the bilinear
transform into second-order sections (SOS), causal and zero-phase filtering
with a blocked state-space kernel (whole blocks of samples per matrix
product, no per-sample loop), anti-aliased decimation, full-wave
rectification, Welch PSD estimation and linear-envelope extraction — without
depending on scipy.  The test suite cross-checks the filters against
``scipy.signal`` (``sosfilt``, ``sosfiltfilt``, ``butter``) as the oracle.
"""

from repro.signal.filters import (
    IIRFilter,
    butter_bandpass,
    butter_highpass,
    butter_lowpass,
)
from repro.signal.envelope import linear_envelope, moving_average
from repro.signal.notch import notch_filter
from repro.signal.rectify import full_wave_rectify
from repro.signal.resample import decimate, downsample_to_rate
from repro.signal.spectral import band_power, welch_psd

__all__ = [
    "IIRFilter",
    "butter_bandpass",
    "butter_highpass",
    "butter_lowpass",
    "notch_filter",
    "linear_envelope",
    "moving_average",
    "full_wave_rectify",
    "decimate",
    "downsample_to_rate",
    "band_power",
    "welch_psd",
]
