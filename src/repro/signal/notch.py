"""IIR notch filter for narrow-band interference.

The paper's 20–450 Hz band-pass cannot remove 60 Hz mains hum — it sits
inside the pass-band (see :mod:`repro.emg.artifacts`).  The classical remedy
is a second-order IIR notch: a conjugate zero pair on the unit circle at the
interference frequency, with a matching pole pair pulled slightly inside to
set the notch width.  The design matches ``scipy.signal.iirnotch``
coefficient-for-coefficient, which the test-suite verifies.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SignalError
from repro.signal.filters import IIRFilter
from repro.utils.validation import check_in_range

__all__ = ["notch_filter"]


def notch_filter(freq_hz: float, fs: float, quality: float = 30.0) -> IIRFilter:
    """Design a second-order notch at ``freq_hz``.

    Parameters
    ----------
    freq_hz:
        Center frequency to reject; must lie strictly inside (0, fs/2).
    fs:
        Sampling rate in Hz.
    quality:
        Quality factor ``Q = freq / bandwidth``; Q = 30 at 60 Hz gives a
        2 Hz-wide notch.

    Returns
    -------
    IIRFilter
        A biquad with unit gain away from the notch and a null at
        ``freq_hz``.
    """
    nyq = fs / 2.0
    check_in_range(freq_hz, name="freq_hz", low=0.0, high=nyq,
                   inclusive_low=False, inclusive_high=False)
    quality = check_in_range(quality, name="quality", low=0.0,
                             high=float("inf"), inclusive_low=False)
    w0 = 2.0 * np.pi * freq_hz / fs
    # -3 dB bandwidth w0/Q expressed via the bilinear tangent mapping (the
    # same construction as scipy.signal.iirnotch, which the tests verify).
    beta = np.tan(w0 / (2.0 * quality))
    if not np.isfinite(beta) or beta <= 0:
        raise SignalError("degenerate notch design")  # pragma: no cover
    gain = 1.0 / (1.0 + beta)
    cos_w0 = np.cos(w0)
    b = gain * np.array([1.0, -2.0 * cos_w0, 1.0])
    a = np.array([1.0, -2.0 * gain * cos_w0, 2.0 * gain - 1.0])
    return IIRFilter.from_ba(b, a, description=f"notch {freq_hz:g}Hz Q={quality:g}")
