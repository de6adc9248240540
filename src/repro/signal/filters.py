"""IIR Butterworth filters as second-order sections, designed and run on numpy.

The Delsys Myomonitor system in the paper band-pass filters raw EMG to
20–450 Hz before sampling at 1000 Hz.  We reproduce that conditioning with a
digital Butterworth filter designed here via the classical analog-prototype →
frequency-transform → bilinear-transform route (Oppenheim & Schafer).

Design route
------------
1. Analog low-pass Butterworth prototype of order ``N``: poles equally spaced
   on the unit left-half circle.
2. Frequency transform (lp→lp, lp→hp, or lp→bp) at the pre-warped analog
   frequencies.
3. Bilinear transform to the digital domain.
4. Conversion from zpk to second-order sections (SOS): poles are paired
   nearest the unit circle first, each pair takes its nearest zeros, and the
   gain goes in the first section.  A single high-order (b, a) polynomial
   loses the poles of a narrow low-pass to rounding (an order-8, 2 Hz
   low-pass at 1000 Hz is unstable in that form); the cascade does not.

Application
-----------
The cascade of direct-form-II-transposed sections is one state space
(A, B, C, D).  Over a block of :data:`BLOCK` samples, the output is a
lower-triangular Toeplitz matrix of the impulse response times the block's
input plus a state-to-output matrix times its initial state, and the state
advances by ``A**BLOCK`` plus an input-to-state matrix.  A pass is a few
matrix products over all blocks at once and one small mat-vec per block.

:meth:`IIRFilter.apply` is causal from rest.  :meth:`IIRFilter.apply_zero_phase`
runs the cascade forward and backward over an odd reflection of
``3 * (order + 1)`` samples at each end, seeded with the steady-state initial
state scaled by the edge sample — the conventions of
``scipy.signal.sosfiltfilt``, which the test suite uses as the oracle.  The
library itself stays numpy-only.

Sharing
-------
A design depends only on ``(kind, edges, fs, order)``, so ``butter_*``
validate their arguments, normalize them to Python numbers and memoize the
design in a small bounded cache: equal arguments return the same
:class:`IIRFilter`, and its block kernel is built once.  Filters are
immutable — ``sos``, ``b``/``a`` and the kernel's arrays are read-only — so
the shared object is safe to hand to every caller.  (scipy's ``sosfilt``
wants a writable buffer: give it ``np.array(filt.sos)``.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Tuple

import numpy as np

from repro.errors import SignalError
from repro.obs.config import span
from repro.utils.validation import check_in_range, check_positive_int, shapes

__all__ = [
    "IIRFilter",
    "butter_lowpass",
    "butter_highpass",
    "butter_bandpass",
]

#: Samples per block of the filtering kernel.
BLOCK = 64

#: Distinct Butterworth designs kept by the memo (the pipeline uses a few).
DESIGN_CACHE_SIZE = 32


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` with writes disabled, so a shared filter cannot be altered."""
    array.flags.writeable = False
    return array


def _analog_lowpass_prototype(order: int) -> np.ndarray:
    """Poles of the analog Butterworth low-pass prototype (cutoff 1 rad/s)."""
    k = np.arange(1, order + 1)
    theta = np.pi * (2 * k - 1) / (2 * order) + np.pi / 2
    return np.exp(1j * theta)


def _zpk_bilinear(
    zeros: np.ndarray, poles: np.ndarray, gain: float, fs2: float
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Bilinear transform of an analog zpk system; ``fs2`` is ``2 * fs``."""
    degree = len(poles) - len(zeros)
    if degree < 0:
        raise SignalError("analog system must have at least as many poles as zeros")
    z_d = (fs2 + zeros) / (fs2 - zeros)
    p_d = (fs2 + poles) / (fs2 - poles)
    # Zeros at analog infinity map to z = -1.
    z_d = np.append(z_d, -np.ones(degree))
    k_d = gain * np.real(np.prod(fs2 - zeros) / np.prod(fs2 - poles))
    return z_d, p_d, k_d


def _zpk_to_sos(zeros: np.ndarray, poles: np.ndarray, gain: float) -> np.ndarray:
    """Second-order sections of a digital zpk system whose zeros are real.

    Poles are taken nearest the unit circle first.  A complex pole is paired
    with its conjugate, a real one with the next real pole, and each pair
    takes the two remaining zeros nearest to it.  The sections run with the
    poles nearest the unit circle last, and the gain sits in the first —
    the ``nearest`` pairing of ``scipy.signal.zpk2sos``.
    """
    n_sections = (max(len(zeros), len(poles)) + 1) // 2
    # Roots at the origin fill the sections up to two zeros and two poles.
    zeros = np.concatenate([np.real(zeros), np.zeros(2 * n_sections - len(zeros))])
    poles = np.concatenate([poles, np.zeros(2 * n_sections - len(poles))])
    is_real = np.abs(poles.imag) <= 100 * np.finfo(float).eps * np.abs(poles)
    upper = poles[~is_real & (poles.imag > 0)]
    if 2 * len(upper) != np.count_nonzero(~is_real):
        raise SignalError("pole set is not conjugate-symmetric")

    def distance_to_circle(p: np.ndarray) -> np.ndarray:
        return np.abs(1.0 - np.abs(p))

    reals = np.real(poles[is_real])
    reals = reals[np.argsort(distance_to_circle(reals), kind="stable")]
    pairs = [(p, np.conj(p)) for p in upper]
    pairs += [(reals[i], reals[i + 1]) for i in range(0, len(reals), 2)]
    pairs.sort(key=lambda pair: distance_to_circle(pair[0]))

    remaining = list(zeros)
    sections = []
    for p1, p2 in pairs:
        pair_zeros = []
        for _ in range(2):
            nearest = int(np.argmin(np.abs(np.asarray(remaining) - p1)))
            pair_zeros.append(remaining.pop(nearest))
        num = np.real(np.poly(pair_zeros))
        den = np.real(np.poly([p1, p2]))
        sections.append(np.concatenate([num, den]))
    sos = np.array(sections[::-1])
    sos[0, :3] *= gain
    return sos


def _state_space(sos: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """State space (A, B, C, D) of a cascade of direct-form-II-transposed sections.

    The state is the two delay registers of each section in cascade order,
    the layout of ``scipy.signal.sosfilt``'s ``zi``.
    """
    n = 2 * len(sos)
    a_mat = np.zeros((n, n))
    b_vec = np.zeros(n)
    # The current section's input as c_in @ state + d_in * x.
    c_in = np.zeros(n)
    d_in = 1.0
    for i, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        j = 2 * i
        drive = np.array([b1 - a1 * b0, b2 - a2 * b0])
        a_mat[j : j + 2] += np.outer(drive, c_in)
        a_mat[j : j + 2, j : j + 2] += [[-a1, 1.0], [-a2, 0.0]]
        b_vec[j : j + 2] = drive * d_in
        c_in = b0 * c_in
        c_in[j] += 1.0
        d_in = b0 * d_in
    return a_mat, b_vec, c_in, d_in


def _steady_state(sos: np.ndarray) -> np.ndarray:
    """State of the cascade after a unit step has settled (``sosfilt_zi``).

    A section with DC input ``u`` settles at output ``u * g`` with
    ``g = sum(b) / sum(a)``, so its registers hold ``u * (g - b0)`` and
    ``u * (b2 - a2 * g)``.  Solving ``(I - A) s = B`` for the whole cascade
    instead loses digits when poles sit near z = 1: narrow low-passes.
    """
    b0, b1, b2, a0, a1, a2 = sos.T
    denominator = a0 + a1 + a2
    if np.any(np.abs(denominator) <= np.finfo(float).tiny):
        raise SignalError("filter has a pole at z = 1; no steady state")
    gain = (b0 + b1 + b2) / denominator
    level = np.concatenate([[1.0], np.cumprod(gain)[:-1]])
    return (level[:, None] * np.stack([gain - b0, b2 - a2 * gain], axis=1)).ravel()


@dataclass(frozen=True)
class _BlockKernel:
    """Precomputed block matrices of a state space (see the module docstring)."""

    impulse: np.ndarray  # (BLOCK, BLOCK) lower-triangular Toeplitz
    state_to_output: np.ndarray  # (BLOCK, n)
    input_to_state: np.ndarray  # (n, BLOCK)
    advance: np.ndarray  # (n, n): A ** BLOCK
    steady_state: np.ndarray  # (n,): the state a unit step settles to

    @shapes(x="(t, m)", state="(n, m)")
    def run(self, x: np.ndarray, state: np.ndarray) -> np.ndarray:
        """Filter the columns of ``x`` (frames, signals) from ``state`` (n, signals)."""
        n_frames, n_signals = x.shape
        n_blocks = -(-n_frames // BLOCK)
        padded = np.zeros((n_blocks * BLOCK, n_signals))
        padded[:n_frames] = x
        # Columns are (block, signal) pairs: one GEMM covers every block.
        blocks = padded.reshape(n_blocks, BLOCK, n_signals).transpose(1, 0, 2)
        blocks = blocks.reshape(BLOCK, n_blocks * n_signals)
        drive = (self.input_to_state @ blocks).reshape(-1, n_blocks, n_signals)
        states = np.empty_like(drive)
        for k in range(n_blocks):
            states[:, k] = state
            state = self.advance @ state + drive[:, k]
        y = self.impulse @ blocks + self.state_to_output @ states.reshape(
            -1, n_blocks * n_signals
        )
        y = y.reshape(BLOCK, n_blocks, n_signals).transpose(1, 0, 2)
        return y.reshape(n_blocks * BLOCK, n_signals)[:n_frames]


def _block_kernel(sos: np.ndarray) -> _BlockKernel:
    """The block matrices of a cascade of sections."""
    a_mat, b_vec, c_vec, d = _state_space(sos)
    n = len(b_vec)
    # Rows C A^j and columns A^j B for j = 0 .. BLOCK - 1.
    c_powers = np.empty((BLOCK, n))
    b_powers = np.empty((n, BLOCK))
    row, col = c_vec, b_vec
    for j in range(BLOCK):
        c_powers[j] = row
        b_powers[:, j] = col
        row = row @ a_mat
        col = a_mat @ col
    response = np.concatenate([[d], c_powers[:-1] @ b_vec])
    lag = np.arange(BLOCK)[:, None] - np.arange(BLOCK)[None, :]
    impulse = np.where(lag >= 0, response[np.maximum(lag, 0)], 0.0)
    return _BlockKernel(
        impulse=_read_only(impulse),
        state_to_output=_read_only(c_powers),
        input_to_state=_read_only(b_powers[:, ::-1]),
        advance=_read_only(np.linalg.matrix_power(a_mat, BLOCK)),
        steady_state=_read_only(_steady_state(sos)),
    )


@dataclass(frozen=True)
class IIRFilter:
    """A designed digital IIR filter: a cascade of second-order sections.

    ``sos`` has one row ``[b0, b1, b2, a0, a1, a2]`` per section; rows are
    normalized to ``a0 = 1``.  A biquad given as ``(b, a)`` is one section
    (:meth:`from_ba`).  Instances are immutable, arrays included (``sos``,
    ``b`` and ``a`` are read-only); apply them with
    :meth:`apply` (causal) or :meth:`apply_zero_phase` (forward-backward, no
    phase distortion — what a biomechanics pipeline uses offline).
    """

    sos: np.ndarray
    description: str = field(default="iir", compare=False)

    def __post_init__(self) -> None:
        sos = np.atleast_2d(np.asarray(self.sos, dtype=np.float64))
        if sos.ndim != 2 or sos.shape[1] != 6 or len(sos) == 0:
            raise SignalError(f"sos must have shape (n_sections, 6), got {sos.shape}")
        if np.any(sos[:, 3] == 0):
            raise SignalError("leading denominator coefficient must be nonzero")
        object.__setattr__(self, "sos", _read_only(sos / sos[:, 3:4]))

    @classmethod
    def from_ba(cls, b, a, description: str = "iir") -> "IIRFilter":
        """A filter of at most second order from transfer-function ``(b, a)``."""
        b = np.atleast_1d(np.asarray(b, dtype=np.float64))
        a = np.atleast_1d(np.asarray(a, dtype=np.float64))
        if len(b) > 3 or len(a) > 3:
            raise SignalError("(b, a) must be a biquad; give higher orders as sections")
        section = np.zeros(6)
        section[: len(b)] = b
        section[3 : 3 + len(a)] = a
        return cls(sos=section[None, :], description=description)

    @property
    def b(self) -> np.ndarray:
        """Numerator of the transfer function (the sections' product)."""
        return self._transfer_function[0]

    @property
    def a(self) -> np.ndarray:
        """Denominator of the transfer function (the sections' product)."""
        return self._transfer_function[1]

    @cached_property
    def _transfer_function(self) -> Tuple[np.ndarray, np.ndarray]:
        b, a = np.ones(1), np.ones(1)
        for section in self.sos:
            b = np.convolve(b, section[:3])
            a = np.convolve(a, section[3:])
        # Sections padded with roots at the origin leave trailing zeros.
        keep = max(np.flatnonzero(b).max(initial=0), np.flatnonzero(a).max()) + 1
        return _read_only(b[:keep]), _read_only(a[:keep])

    @property
    def order(self) -> int:
        """Filter order (denominator degree)."""
        return len(self.a) - 1

    @cached_property
    def _kernel(self) -> _BlockKernel:
        return _block_kernel(self.sos)

    def apply(self, x: np.ndarray, axis: int = 0) -> np.ndarray:  # lint: ignore[R5]
        """Causal filtering along ``axis``, starting from rest."""
        x = np.asarray(x, dtype=np.float64)
        if x.size == 0:
            return x.copy()
        moved = np.moveaxis(x, axis, 0)
        flat = moved.reshape(moved.shape[0], -1)
        rest = np.zeros((len(self._kernel.steady_state), flat.shape[1]))
        out = self._kernel.run(flat, rest).reshape(moved.shape)
        return np.moveaxis(out, 0, axis)

    def apply_zero_phase(self, x: np.ndarray, axis: int = 0) -> np.ndarray:  # lint: ignore[R5]
        """Zero-phase forward-backward filtering along ``axis``.

        The signal is extended at both ends by ``3 * (order + 1)`` samples of
        odd reflection (fewer for a shorter signal), and each pass starts
        from the steady state scaled by its first sample, which suppresses
        edge transients.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.size == 0:
            return x.copy()
        with span("signal.filtfilt", n_frames=x.shape[axis], order=self.order):
            moved = np.moveaxis(x, axis, 0)
            flat = moved.reshape(moved.shape[0], -1)
            n = flat.shape[0]
            pad = min(3 * (self.order + 1), n - 1)
            ext = np.concatenate([
                2 * flat[0] - flat[pad:0:-1],
                flat,
                2 * flat[-1] - flat[-2 : -pad - 2 : -1],
            ])
            kernel = self._kernel
            fwd = kernel.run(ext, np.outer(kernel.steady_state, ext[0]))
            rev = fwd[::-1]
            bwd = kernel.run(rev, np.outer(kernel.steady_state, rev[0]))[::-1]
            out = bwd[pad : pad + n].reshape(moved.shape)
            return np.moveaxis(out, 0, axis)

    def frequency_response(
        self, n_points: int = 512, fs: float = 2.0 * np.pi
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Complex frequency response on ``n_points`` frequencies in [0, fs/2].

        Returns ``(freqs, response)``; with the default ``fs`` the frequencies
        are in rad/sample, otherwise in the same unit as ``fs``.
        """
        n_points = check_positive_int(n_points, name="n_points")
        w = np.linspace(0.0, np.pi, n_points, endpoint=False)
        powers = np.exp(-1j * np.outer(np.arange(3), w))  # z^0, z^-1, z^-2
        sections = (self.sos[:, :3] @ powers) / (self.sos[:, 3:] @ powers)
        return w * fs / (2.0 * np.pi), np.prod(sections, axis=0)


def _prewarp(cutoff_hz: float, fs: float) -> float:
    """Pre-warped analog angular frequency for a digital cutoff."""
    return 2.0 * fs * np.tan(np.pi * cutoff_hz / fs)


def _check_cutoff(cutoff_hz: float, fs: float) -> float:
    """A cutoff strictly inside (0, fs/2), as a float."""
    return check_in_range(cutoff_hz, name="cutoff_hz", low=0.0, high=fs / 2.0,
                          inclusive_low=False, inclusive_high=False)


@lru_cache(maxsize=DESIGN_CACHE_SIZE)
def _butterworth(
    kind: str, edges: Tuple[float, ...], fs: float, order: int
) -> IIRFilter:
    """The Butterworth design for validated, normalized arguments (memoized)."""
    proto = _analog_lowpass_prototype(order)
    if kind == "lowpass":
        warped = _prewarp(edges[0], fs)
        zeros, poles, gain = np.array([]), warped * proto, warped**order
    elif kind == "highpass":
        # lp -> hp transform: s -> warped / s.  For the unit-gain Butterworth
        # prototype prod(-p) = 1, so the transformed gain is exactly 1.
        warped = _prewarp(edges[0], fs)
        zeros, poles, gain = np.zeros(order, dtype=complex), warped / proto, 1.0
    else:
        w1, w2 = _prewarp(edges[0], fs), _prewarp(edges[1], fs)
        bw = w2 - w1
        w0 = np.sqrt(w1 * w2)
        # lp -> bp transform: s -> (s^2 + w0^2) / (bw * s); each prototype
        # pole p becomes the two roots of s^2 - (p * bw) s + w0^2 = 0.
        p_bw = proto * bw / 2.0
        disc = np.sqrt(p_bw**2 - w0**2)
        poles = np.concatenate([p_bw + disc, p_bw - disc])
        zeros, gain = np.zeros(order, dtype=complex), bw**order
    z, p, k = _zpk_bilinear(zeros, poles, gain, 2.0 * fs)
    band = "-".join(f"{edge:g}" for edge in edges)
    return IIRFilter(sos=_zpk_to_sos(z, p, k),
                     description=f"butterworth {kind} {band}Hz order {order}")


def butter_lowpass(cutoff_hz: float, fs: float, order: int = 4) -> IIRFilter:
    """Digital Butterworth low-pass filter, shared between equal calls.

    Parameters
    ----------
    cutoff_hz:
        −3 dB cutoff in Hz; must lie strictly inside (0, fs/2).
    fs:
        Sampling rate in Hz.
    order:
        Filter order (number of analog prototype poles).
    """
    order = check_positive_int(order, name="order")
    cutoff_hz = _check_cutoff(cutoff_hz, fs)
    return _butterworth("lowpass", (cutoff_hz,), float(fs), int(order))


def butter_highpass(cutoff_hz: float, fs: float, order: int = 4) -> IIRFilter:
    """Digital Butterworth high-pass filter (see :func:`butter_lowpass`)."""
    order = check_positive_int(order, name="order")
    cutoff_hz = _check_cutoff(cutoff_hz, fs)
    return _butterworth("highpass", (cutoff_hz,), float(fs), int(order))


def butter_bandpass(
    low_hz: float, high_hz: float, fs: float, order: int = 4
) -> IIRFilter:
    """Digital Butterworth band-pass filter, shared between equal calls.

    ``order`` is the prototype order; the resulting digital filter has order
    ``2 * order``, matching the scipy convention where ``butter(N, ..,
    'bandpass')`` yields a 2N-order filter.
    """
    order = check_positive_int(order, name="order")
    if not low_hz < high_hz:
        raise SignalError(f"band edges must satisfy low < high, got {low_hz} >= {high_hz}")
    edges = (_check_cutoff(low_hz, fs), _check_cutoff(high_hz, fs))
    return _butterworth("bandpass", edges, float(fs), int(order))
