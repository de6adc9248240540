"""Filter design and application, validated against the scipy oracle.

The library itself never imports scipy; these tests do, to prove the
from-scratch second-order-section design and the blocked filtering kernel
match ``scipy.signal`` (``butter``, ``sosfilt``, ``sosfiltfilt``).

Tolerances are relative to the largest reference magnitude; each is stated
next to the worst deviation measured over 20 seeds of the test matrix below.
"""

import numpy as np
import pytest
import scipy.signal as ss

from repro.errors import SignalError, ValidationError
from repro.signal.filters import (
    BLOCK,
    IIRFilter,
    _butterworth,
    butter_bandpass,
    butter_highpass,
    butter_lowpass,
)
from repro.signal.notch import notch_filter


def assert_close(got, want, rel):
    """``got`` matches ``want`` to ``rel`` of the reference's largest value."""
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=rel * np.abs(want).max())


def writable_sos(filt):
    """A writable copy of ``filt.sos``: scipy's Cython ``sosfilt`` rejects
    the read-only arrays that shared filters expose."""
    return np.array(filt.sos)


def zero_phase_oracle(filt, x, axis=0):
    """``sosfiltfilt`` with the library's padding rule, 3 * (order + 1)."""
    padlen = min(3 * (filt.order + 1), x.shape[axis] - 1)
    return ss.sosfiltfilt(writable_sos(filt), x, axis=axis, padlen=padlen)


# The pipeline's filters: the Myomonitor 20-450 Hz band, the 1000 -> 120 Hz
# anti-alias low-pass (48 Hz, order 8), the 6 Hz linear envelope and the
# 60 Hz mains notch, each with its relative tolerance.
PIPELINE_FILTERS = {
    # Measured worst: 9.3e-15.
    "bandpass-20-450-o4": (lambda: butter_bandpass(20.0, 450.0, 1000.0, order=4), 1e-13),
    # Measured worst: 1.4e-14.
    "lowpass-48-o8": (lambda: butter_lowpass(48.0, 1000.0, order=8), 1e-13),
    # Measured worst: 1.9e-12; poles near z = 1 cost digits in the block sums.
    "lowpass-6-o4": (lambda: butter_lowpass(6.0, 1000.0, order=4), 2e-11),
    # Measured worst: 5.7e-15.
    "notch-60": (lambda: notch_filter(60.0, 1000.0), 1e-13),
}


# Around the block length, at and inside the padding, and long.
LENGTHS = [BLOCK - 1, BLOCK, BLOCK + 1, 2, "pad", "pad+1", 1500]


def _resolve_length(case, filt):
    pad = 3 * (filt.order + 1)
    return {"pad": pad, "pad+1": pad + 1}.get(case, case)


class TestDesignAgainstScipy:
    @pytest.mark.parametrize("order", [1, 2, 4, 6])
    @pytest.mark.parametrize("cutoff", [6.0, 50.0, 400.0])
    def test_lowpass_coefficients(self, order, cutoff):
        mine = butter_lowpass(cutoff, 1000.0, order=order)
        b_ref, a_ref = ss.butter(order, cutoff, btype="lowpass", fs=1000.0)
        np.testing.assert_allclose(mine.b, b_ref, atol=1e-10)
        np.testing.assert_allclose(mine.a, a_ref, atol=1e-10)

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_highpass_coefficients(self, order):
        mine = butter_highpass(20.0, 1000.0, order=order)
        b_ref, a_ref = ss.butter(order, 20.0, btype="highpass", fs=1000.0)
        np.testing.assert_allclose(mine.b, b_ref, atol=1e-10)
        np.testing.assert_allclose(mine.a, a_ref, atol=1e-10)

    @pytest.mark.parametrize("order", [2, 4])
    def test_paper_bandpass_coefficients(self, order):
        """The paper's 20-450 Hz band at 1000 Hz."""
        mine = butter_bandpass(20.0, 450.0, 1000.0, order=order)
        b_ref, a_ref = ss.butter(order, [20.0, 450.0], btype="bandpass", fs=1000.0)
        np.testing.assert_allclose(mine.b, b_ref, atol=1e-9)
        np.testing.assert_allclose(mine.a, a_ref, atol=1e-9)

    def test_bandpass_order_doubles(self):
        filt = butter_bandpass(20.0, 450.0, 1000.0, order=4)
        assert filt.order == 8

    def test_cutoff_must_be_below_nyquist(self):
        with pytest.raises(Exception):
            butter_lowpass(600.0, 1000.0)

    def test_band_edges_must_be_ordered(self):
        with pytest.raises(SignalError):
            butter_bandpass(450.0, 20.0, 1000.0)


class TestSosDesign:
    @pytest.mark.parametrize("design, ref", [
        (lambda: butter_bandpass(20.0, 450.0, 1000.0, order=4),
         lambda: ss.butter(4, [20.0, 450.0], btype="bandpass", fs=1000.0, output="sos")),
        (lambda: butter_lowpass(48.0, 1000.0, order=8),
         lambda: ss.butter(8, 48.0, fs=1000.0, output="sos")),
        (lambda: butter_lowpass(6.0, 1000.0, order=3),
         lambda: ss.butter(3, 6.0, fs=1000.0, output="sos")),
        (lambda: butter_highpass(20.0, 1000.0, order=5),
         lambda: ss.butter(5, 20.0, btype="highpass", fs=1000.0, output="sos")),
    ])
    def test_sections_match_scipy_nearest_pairing(self, design, ref):
        # Measured: at most 1.3e-15 absolute.
        np.testing.assert_allclose(design().sos, ref(), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("order", [1, 3, 4, 8])
    @pytest.mark.parametrize("cutoff", [2.0, 48.0, 400.0])
    def test_section_product_matches_butter_ba(self, order, cutoff):
        mine = butter_lowpass(cutoff, 1000.0, order=order)
        b_ref, a_ref = ss.butter(order, cutoff, fs=1000.0)
        assert mine.sos.shape == ((order + 1) // 2, 6)
        # Measured: at most 7.5e-16 relative (b of order 8 at 2 Hz is ~1e-19).
        assert_close(mine.b, b_ref, 1e-13)
        assert_close(mine.a, a_ref, 1e-13)

    def test_gain_in_first_section_and_sections_normalized(self):
        filt = butter_lowpass(6.0, 1000.0, order=4)
        np.testing.assert_array_equal(filt.sos[:, 3], 1.0)
        np.testing.assert_array_equal(filt.sos[1:, 0], 1.0)

    def test_biquad_from_ba_is_one_section(self):
        filt = notch_filter(60.0, 1000.0)
        b, a = ss.iirnotch(60.0, 30.0, fs=1000.0)
        assert filt.sos.shape == (1, 6)
        np.testing.assert_allclose(filt.sos[0], np.concatenate([b, a]), atol=1e-15)

    def test_from_ba_rejects_higher_orders(self):
        with pytest.raises(SignalError):
            IIRFilter.from_ba([1.0, 0.0, 0.0, 1.0], [1.0])

    def test_rejects_malformed_sections(self):
        with pytest.raises(SignalError):
            IIRFilter(sos=np.ones((2, 5)))


class TestFrequencyResponse:
    def test_matches_scipy_freqz(self):
        filt = butter_bandpass(20.0, 450.0, 1000.0, order=4)
        freqs, resp = filt.frequency_response(512, fs=1000.0)
        w_ref, h_ref = ss.freqz(filt.b, filt.a, worN=512, fs=1000.0)
        np.testing.assert_allclose(freqs, w_ref)
        np.testing.assert_allclose(resp, h_ref, atol=1e-9)

    def test_passband_and_stopband_magnitudes(self):
        filt = butter_bandpass(20.0, 450.0, 1000.0, order=4)
        freqs, resp = filt.frequency_response(2048, fs=1000.0)
        mag = np.abs(resp)
        in_band = (freqs > 60) & (freqs < 350)
        below = freqs < 5
        assert mag[in_band].min() > 0.9
        assert mag[below].max() < 0.05


class TestBlockKernelAgainstScipy:
    """The blocked kernel against ``sosfiltfilt`` / ``sosfilt``, on the
    pipeline's filters, for 1-D and 2-D input along either axis and for
    lengths around the block size and the padding."""

    @pytest.mark.parametrize("name", sorted(PIPELINE_FILTERS))
    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("layout", ["1d", "2d", "axis1"])
    def test_zero_phase_and_causal(self, name, length, layout, rng):
        make, rel = PIPELINE_FILTERS[name]
        filt = make()
        n = _resolve_length(length, filt)
        shape, axis = {"1d": ((n,), 0), "2d": ((n, 3), 0), "axis1": ((3, n), 1)}[layout]
        x = rng.normal(size=shape)
        assert_close(filt.apply_zero_phase(x, axis=axis), zero_phase_oracle(filt, x, axis),
                     rel)
        assert_close(filt.apply(x, axis=axis), ss.sosfilt(writable_sos(filt), x, axis=axis),
                     rel)

    @pytest.mark.parametrize("name", sorted(PIPELINE_FILTERS))
    def test_empty_input(self, name):
        filt = PIPELINE_FILTERS[name][0]()
        assert filt.apply_zero_phase(np.zeros(0)).shape == (0,)
        assert filt.apply(np.zeros((0, 2))).shape == (0, 2)

    def test_single_sample_is_dc_gain(self):
        filt = butter_lowpass(6.0, 1000.0, order=4)
        np.testing.assert_allclose(filt.apply_zero_phase(np.array([2.5])), [2.5])

    def test_unit_step_passes_through_settled(self):
        """Steady-state seeding: a step leaves a low-pass unchanged end to end."""
        for filt in (butter_lowpass(6.0, 1000.0, order=4),
                     butter_lowpass(48.0, 1000.0, order=8)):
            step = np.ones(3 * BLOCK + 7)
            # Measured: at most 9.3e-13.
            np.testing.assert_allclose(filt.apply_zero_phase(step), step, atol=1e-11)


class TestNarrowLowpassStability:
    """An order-8, 2 Hz low-pass at 1000 Hz (decimation by 200) is unstable
    as a single (b, a) polynomial; as sections it matches the oracle."""

    def test_matches_sosfiltfilt(self, rng):
        x = np.abs(rng.normal(size=6000))
        got = butter_lowpass(2.0, 1000.0, order=8).apply_zero_phase(x)
        want = ss.sosfiltfilt(ss.butter(8, 2.0, fs=1000.0, output="sos"), x, padlen=27)
        # Measured: at most 5.1e-11 relative over 20 seeds.
        assert_close(got, want, 1e-9)


class TestLfilter:
    """Causal filtering (``IIRFilter.apply``), which replaced ``lfilter``."""

    def test_matches_scipy_multichannel(self, rng):
        filt = butter_bandpass(20.0, 450.0, 1000.0, order=4)
        x = rng.normal(size=(500, 3))
        np.testing.assert_allclose(
            filt.apply(x), ss.lfilter(filt.b, filt.a, x, axis=0), atol=1e-10,
        )

    def test_fir_case(self, rng):
        """A 4-tap moving average (no poles) as two FIR sections."""
        b = np.ones(4) / 4
        filt = IIRFilter(sos=[[0.25, 0.25, 0.0, 1.0, 0.0, 0.0],
                              [1.0, 0.0, 1.0, 1.0, 0.0, 0.0]])
        np.testing.assert_allclose(filt.b, b)
        x = rng.normal(size=150)
        np.testing.assert_allclose(filt.apply(x), ss.lfilter(b, [1.0], x), atol=1e-12)

    def test_passthrough(self, rng):
        x = rng.normal(size=20)
        np.testing.assert_allclose(IIRFilter.from_ba([1.0], [1.0]).apply(x), x)

    def test_initial_state(self, rng):
        """The kernel started from a scaled steady state matches ``sosfilt``'s zi."""
        filt = butter_lowpass(10.0, 1000.0, order=4)
        x = rng.normal(size=100)
        zi = ss.sosfilt_zi(filt.sos) * x[0]
        kernel = filt._kernel
        mine = kernel.run(x[:, None], np.outer(kernel.steady_state, x[0]))
        ref, _ = ss.sosfilt(writable_sos(filt), x, zi=zi)
        np.testing.assert_allclose(mine.ravel(), ref, atol=1e-10)

    def test_rejects_zero_leading_denominator(self):
        with pytest.raises(SignalError):
            IIRFilter(sos=[[1.0, 0.0, 0.0, 0.0, 1.0, 0.0]])

    def test_empty_input(self):
        out = IIRFilter.from_ba([1.0, 0.5], [1.0]).apply(np.zeros(0))
        assert out.size == 0

    def test_axis_argument(self, rng):
        filt = butter_lowpass(10.0, 1000.0, order=2)
        x = rng.normal(size=(3, 200))
        got = filt.apply(x, axis=1)
        want = ss.lfilter(filt.b, filt.a, x, axis=1)
        np.testing.assert_allclose(got, want, atol=1e-10)


class TestLfilterZi:
    """The steady-state initial state, which replaced ``lfilter_zi``."""

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_matches_scipy(self, order):
        filt = butter_lowpass(15.0, 1000.0, order=order)
        np.testing.assert_allclose(
            filt._kernel.steady_state, ss.sosfilt_zi(filt.sos).ravel(), atol=1e-10
        )

    def test_step_response_starts_settled(self):
        """Seeding with the steady state makes a unit step pass through unchanged."""
        filt = butter_lowpass(15.0, 1000.0, order=4)
        kernel = filt._kernel
        step = np.ones((100, 1))
        out = kernel.run(step, kernel.steady_state[:, None])
        np.testing.assert_allclose(out.ravel(), step.ravel(), atol=1e-9)


class TestFiltfilt:
    """Zero-phase filtering (``IIRFilter.apply_zero_phase``), which replaced
    ``filtfilt``."""

    def test_matches_scipy(self, rng):
        filt = butter_bandpass(20.0, 450.0, 1000.0, order=4)
        x = rng.normal(size=(800, 2))
        np.testing.assert_allclose(
            filt.apply_zero_phase(x),
            ss.filtfilt(filt.b, filt.a, x, axis=0),
            atol=1e-9,
        )

    def test_zero_phase_on_sinusoid(self):
        """A passband sinusoid comes out with no phase shift."""
        fs = 1000.0
        t = np.arange(2000) / fs
        x = np.sin(2 * np.pi * 100 * t)
        filt = butter_bandpass(20.0, 450.0, fs, order=4)
        y = filt.apply_zero_phase(x)
        # Ignore the edges; interior should match closely with zero lag.
        np.testing.assert_allclose(y[200:-200], x[200:-200], atol=0.01)

    def test_short_signal_does_not_crash(self):
        filt = butter_lowpass(10.0, 1000.0, order=4)
        out = filt.apply_zero_phase(np.ones(5))
        assert out.shape == (5,)
        assert np.all(np.isfinite(out))

    def test_empty_signal(self):
        filt = butter_lowpass(10.0, 1000.0, order=2)
        assert filt.apply_zero_phase(np.zeros(0)).size == 0


class TestIIRFilterClass:
    def test_normalizes_a0(self):
        filt = IIRFilter.from_ba(b=[2.0, 0.0], a=[2.0, 1.0])
        assert filt.a[0] == 1.0
        np.testing.assert_allclose(filt.b, [1.0, 0.0])

    def test_rejects_zero_a0(self):
        with pytest.raises(SignalError):
            IIRFilter.from_ba(b=[1.0], a=[0.0, 1.0])

    def test_order_property(self):
        assert butter_lowpass(10.0, 1000.0, order=4).order == 4

    def test_apply_equals_lfilter(self, rng):
        filt = butter_lowpass(10.0, 1000.0, order=2)
        x = rng.normal(size=100)
        np.testing.assert_allclose(filt.apply(x), ss.lfilter(filt.b, filt.a, x),
                                   atol=1e-12)


class TestSharedDesigns:
    """``butter_*`` memoize the design: equal arguments share one immutable
    filter, identical to a fresh design."""

    def test_equal_normalized_arguments_share_one_filter(self):
        assert butter_bandpass(20, 450, 1000) is butter_bandpass(20.0, 450.0, 1000.0)
        assert butter_lowpass(48.0, 1000.0, order=8) is butter_lowpass(
            np.float64(48.0), 1000, order=np.int64(8))
        assert butter_highpass(30.0, 1000.0) is butter_highpass(30, 1000.0, 4)

    def test_different_arguments_give_different_filters(self):
        assert butter_lowpass(48.0, 1000.0) is not butter_lowpass(48.0, 1000.0, order=8)
        assert butter_lowpass(48.0, 1000.0) is not butter_highpass(48.0, 1000.0)

    def test_sections_and_transfer_function_are_read_only(self):
        filt = butter_bandpass(20.0, 450.0, 1000.0)
        with pytest.raises(ValueError):
            filt.sos[0, 0] = 1.0
        with pytest.raises(ValueError):
            filt.b[0] = 1.0
        with pytest.raises(ValueError):
            filt.a[0] = 1.0
        for array in vars(filt._kernel).values():
            assert not array.flags.writeable

    def test_construction_does_not_freeze_the_callers_array(self):
        sos = ss.butter(2, 10.0, fs=1000.0, output="sos")
        IIRFilter(sos=sos)
        assert sos.flags.writeable

    @pytest.mark.parametrize("kind, edges, order", [
        ("bandpass", (20.0, 450.0), 4),
        ("lowpass", (48.0,), 8),
        ("lowpass", (6.0,), 4),
        ("highpass", (30.0,), 3),
    ])
    def test_memoized_design_byte_equal_to_uncached(self, kind, edges, order):
        make = {"bandpass": butter_bandpass, "lowpass": butter_lowpass,
                "highpass": butter_highpass}[kind]
        shared = make(*edges, 1000.0, order=order)
        fresh = _butterworth.__wrapped__(kind, edges, 1000.0, order)
        assert fresh is not shared
        assert fresh.description == shared.description
        assert fresh.sos.tobytes() == shared.sos.tobytes()
        x = np.random.default_rng(0).normal(size=700)
        assert (fresh.apply_zero_phase(x).tobytes()
                == shared.apply_zero_phase(x).tobytes())

    @pytest.mark.parametrize("call, error", [
        (lambda: butter_lowpass(0.0, 1000.0), ValidationError),
        (lambda: butter_lowpass(500.0, 1000.0), ValidationError),
        (lambda: butter_lowpass(float("nan"), 1000.0), ValidationError),
        (lambda: butter_lowpass("ten", 1000.0), ValidationError),
        (lambda: butter_lowpass(10.0, 1000.0, order=0), ValidationError),
        (lambda: butter_lowpass(10.0, 1000.0, order=2.0), ValidationError),
        (lambda: butter_highpass(-1.0, 1000.0), ValidationError),
        (lambda: butter_bandpass(450.0, 20.0, 1000.0), SignalError),
        (lambda: butter_bandpass(20.0, 20.0, 1000.0), SignalError),
        (lambda: butter_bandpass(20.0, 600.0, 1000.0), ValidationError),
    ])
    def test_invalid_arguments_still_raise(self, call, error):
        with pytest.raises(error):
            call()
