"""Activation dynamics."""

import numpy as np
import pytest

from repro.emg.muscle import ActivationDynamics
from repro.errors import SignalError


class TestActivationDynamics:
    def test_step_response_rises_to_drive(self):
        dyn = ActivationDynamics()
        drive = np.concatenate([np.zeros(100), np.ones(400)])
        act = dyn.apply(drive, fs=1000.0)
        assert act[99] == pytest.approx(0.0, abs=1e-9)
        assert act[-1] == pytest.approx(1.0, abs=0.01)

    def test_activation_faster_than_deactivation(self):
        """tau_act < tau_deact: onset is steeper than offset."""
        dyn = ActivationDynamics(tau_act_s=0.015, tau_deact_s=0.050)
        fs = 1000.0
        pulse = np.concatenate([np.zeros(50), np.ones(300), np.zeros(400)])
        act = dyn.apply(pulse, fs)
        # Samples needed to reach 63% on the way up vs to fall to 37% down.
        up = np.argmax(act[50:] >= 0.63)
        down = np.argmax(act[350:] <= 0.37)
        assert up < down

    def test_smooths_sharp_edges(self):
        dyn = ActivationDynamics()
        square = np.concatenate([np.zeros(20), np.ones(20)] * 10)
        act = dyn.apply(square, fs=1000.0)
        assert np.abs(np.diff(act)).max() < np.abs(np.diff(square)).max()

    def test_output_bounded_by_drive_range(self):
        dyn = ActivationDynamics()
        rng = np.random.default_rng(0)
        drive = np.abs(rng.normal(size=500))
        act = dyn.apply(drive, fs=1000.0)
        assert act.min() >= 0.0
        assert act.max() <= drive.max() + 1e-12

    def test_constant_drive_is_fixed_point(self):
        dyn = ActivationDynamics()
        drive = np.full(200, 0.6)
        act = dyn.apply(drive, fs=1000.0)
        np.testing.assert_allclose(act, 0.6, atol=1e-12)

    def test_rejects_negative_drive(self):
        with pytest.raises(SignalError):
            ActivationDynamics().apply(np.array([0.1, -0.1]), fs=1000.0)

    def test_rejects_bad_time_constants(self):
        with pytest.raises(Exception):
            ActivationDynamics(tau_act_s=0.0)
        with pytest.raises(Exception):
            ActivationDynamics(tau_deact_s=-0.1)

    def test_starts_from_first_sample(self):
        act = ActivationDynamics().apply(np.full(10, 0.5), fs=100.0)
        assert act[0] == 0.5


def numpy_scalar_recurrence(dyn, drive, fs):
    """The recurrence as it ran on numpy scalars, kept as the oracle."""
    u = np.asarray(drive, dtype=np.float64)
    dt = 1.0 / fs
    a = np.empty_like(u)
    a[0] = u[0]
    alpha_act = dt / (dyn.tau_act_s + dt)
    alpha_deact = dt / (dyn.tau_deact_s + dt)
    for i in range(1, len(u)):
        alpha = alpha_act if u[i] > a[i - 1] else alpha_deact
        a[i] = a[i - 1] + alpha * (u[i] - a[i - 1])
    return a


class TestPythonFloatRecurrence:
    """``apply`` runs on Python floats; it must match the numpy-scalar loop
    byte for byte."""

    @pytest.mark.parametrize("length", [1, 2, 5000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_drive_byte_equal(self, length, seed):
        dyn = ActivationDynamics()
        drive = np.abs(np.random.default_rng(seed).normal(size=length))
        got = dyn.apply(drive, fs=1000.0)
        want = numpy_scalar_recurrence(dyn, drive, 1000.0)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_plateaus_and_ties_byte_equal(self):
        """Plateaus drive the trace to settle exactly, so ties
        ``u[i] == a[i-1]`` occur; the step there is ``alpha * 0`` on either
        branch, and the trace must stay put bit for bit."""
        dyn = ActivationDynamics(tau_act_s=0.02, tau_deact_s=0.08)
        drive = np.concatenate([
            np.zeros(50), np.full(3000, 0.75), np.full(500, 0.25),
            np.full(200, 1.5), [1.5, 0.0, 0.0, 1.5], np.zeros(1000),
        ])
        got = dyn.apply(drive, fs=500.0)
        want = numpy_scalar_recurrence(dyn, drive, 500.0)
        # The plateau settles exactly, so the tie case is exercised.
        assert np.any(want[:-1] == drive[1:])
        assert got.tobytes() == want.tobytes()

    def test_constant_drive_is_exact(self):
        drive = np.full(7, 0.3)
        got = ActivationDynamics().apply(drive, fs=100.0)
        assert got.tobytes() == drive.tobytes()
