"""Muscle activation dynamics.

Neural drive does not translate into muscle electrical activity
instantaneously: activation rises with a fast time constant and decays with a
slower one (calcium dynamics).  The classical first-order model (Zajac 1989;
Thelen 2003) is used to turn the motion plans' commanded envelopes into the
drive that modulates the synthetic EMG carrier, giving the signals realistic
onset/offset asymmetry.

The recurrence is inherently sequential, so it runs on Python floats (a list
from ``tolist()``) rather than on numpy scalars, which cost several times more
per step.  Both are IEEE doubles and the operation order is kept, so the
result is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SignalError
from repro.utils.validation import check_array, check_in_range

__all__ = ["ActivationDynamics"]


@dataclass(frozen=True)
class ActivationDynamics:
    """First-order activation/deactivation filter.

    ``da/dt = (u - a) / tau``, with ``tau = tau_act`` when the drive ``u``
    exceeds the current activation (recruiting) and ``tau = tau_deact`` when
    it is below (de-recruiting).

    Attributes
    ----------
    tau_act_s:
        Activation time constant; ~15 ms physiologically.
    tau_deact_s:
        Deactivation time constant; ~50 ms physiologically.
    """

    tau_act_s: float = 0.015
    tau_deact_s: float = 0.050

    def __post_init__(self) -> None:
        check_in_range(self.tau_act_s, name="tau_act_s", low=0.0, high=1.0,
                       inclusive_low=False)
        check_in_range(self.tau_deact_s, name="tau_deact_s", low=0.0, high=1.0,
                       inclusive_low=False)

    def apply(self, drive: np.ndarray, fs: float) -> np.ndarray:
        """Filter a non-negative neural drive sampled at ``fs`` Hz.

        Parameters
        ----------
        drive:
            1-D commanded envelope (arbitrary non-negative units).
        fs:
            Sampling rate of ``drive`` in Hz.

        Returns
        -------
        numpy.ndarray
            Activation trace of the same length, starting from the first
            drive sample.
        """
        u = check_array(drive, name="drive", ndim=1, allow_empty=False)
        if np.any(u < 0):
            raise SignalError("drive must be non-negative")
        fs = check_in_range(fs, name="fs", low=0.0, high=float("inf"),
                            inclusive_low=False)
        dt = 1.0 / fs
        alpha_act = dt / (self.tau_act_s + dt)
        alpha_deact = dt / (self.tau_deact_s + dt)
        samples = u.tolist()
        a = samples[0]
        out = [a]
        for x in samples[1:]:
            alpha = alpha_act if x > a else alpha_deact
            a = a + alpha * (x - a)
            out.append(a)
        return np.array(out)
