"""Raised-cosine passband pulse generation and spectral analysis.

The transmitted pulse is a raised-cosine envelope on a carrier whose phase
is keyed by a binary sequence (one bit per symbol period, 0 or pi). The
receiver is assumed to know the pulse exactly, so the same configuration
object is used on both the synthesis and the estimation side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .exceptions import ValidationError

__all__ = [
    "PulseConfig",
    "SampledWaveform",
    "Spectrum",
    "generate_pulse",
    "spectrum",
    "unwrap_phase",
]


@dataclass
class PulseConfig:
    """Parameters of the keyed raised-cosine pulse.

    Parameters
    ----------
    rolloff : float
        Excess-bandwidth factor, 0 < rolloff <= 1.
    carrier_freq : float
        Carrier frequency in cycles per symbol period, >= 0.
    symbol_count : int
        Number of symbol periods covered by the sample window.
    oversample : int
        Samples per symbol period.
    bits : sequence of {0, 1}, optional
        Phase-keying bit per symbol period. Drawn from ``bits_seed``
        when omitted.
    bits_seed : int, optional
        Seed for the generator that draws ``bits`` when they are not
        supplied. Defaults to 0 so a bare config is still deterministic.
    """

    rolloff: float
    carrier_freq: float
    symbol_count: int
    oversample: int
    bits: Optional[Sequence[int]] = None
    bits_seed: Optional[int] = None

    @property
    def num_samples(self) -> int:
        return self.symbol_count * self.oversample

    def validate(self) -> None:
        if not 0.0 < self.rolloff <= 1.0:
            raise ValidationError(f"rolloff must be in (0, 1], got {self.rolloff}")
        if not (np.isfinite(self.carrier_freq) and self.carrier_freq >= 0.0):
            raise ValidationError(f"carrier_freq must be finite and >= 0, got {self.carrier_freq}")
        if self.symbol_count < 1:
            raise ValidationError(f"symbol_count must be >= 1, got {self.symbol_count}")
        if self.oversample < 1:
            raise ValidationError(f"oversample must be >= 1, got {self.oversample}")
        if self.bits is not None:
            bits = np.asarray(self.bits)
            if bits.shape != (self.symbol_count,):
                raise ValidationError(
                    f"bits must have length symbol_count={self.symbol_count}, "
                    f"got shape {bits.shape}"
                )
            if not np.isin(bits, (0, 1)).all():
                raise ValidationError("bits must contain only 0 and 1")

    def resolve_bits(self) -> np.ndarray:
        """Return the bit sequence, drawing it from ``bits_seed`` if needed."""
        self.validate()
        if self.bits is not None:
            return np.asarray(self.bits, dtype=int)
        seed = 0 if self.bits_seed is None else self.bits_seed
        rng = np.random.default_rng(seed)
        return rng.integers(0, 2, size=self.symbol_count)


@dataclass
class SampledWaveform:
    """A real waveform on a uniform time grid (time in symbol periods)."""

    t: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.t.ndim != 1 or self.t.shape != self.values.shape:
            raise ValidationError("t and values must be 1-D arrays of equal length")
        if len(self.t) >= 2:
            steps = np.diff(self.t)
            if steps.min() <= 0 or not np.allclose(steps, steps[0], rtol=1e-12, atol=0):
                raise ValidationError("time grid must be uniform and strictly increasing")
        if not np.isfinite(self.values).all():
            raise ValidationError("waveform contains non-finite samples")

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class Spectrum:
    """DFT of a sampled waveform.

    ``omega`` holds the digital radian frequency of each bin mapped to
    (-pi, pi], in natural DFT bin order (bin q of an N-point transform).
    ``phase_unwrapped`` covers only the bins in ``passband``: the
    contiguous run of positive-frequency bins where the magnitude is
    non-negligible. Outside that band the phase carries no information.
    """

    omega: np.ndarray
    values: np.ndarray
    magnitude: np.ndarray
    phase: np.ndarray
    passband: np.ndarray
    phase_unwrapped: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def _omega_grid(n: int) -> np.ndarray:
    """Radian frequencies of an n-point DFT mapped to (-pi, pi], bin order."""
    q = np.arange(n)
    w = 2.0 * np.pi * q / n
    return np.where(q <= n // 2, w, w - 2.0 * np.pi)


def _positive_band(magnitude: np.ndarray, threshold_ratio: float) -> np.ndarray:
    """Contiguous run of positive-frequency bins around the magnitude peak.

    Returns the natural-order bin indices q in 1..n//2 whose magnitude is
    at least ``threshold_ratio`` times the global maximum, grown outward
    from the peak bin so the run is contiguous and contains the maximum.
    """
    if not 0.0 <= threshold_ratio < 1.0:
        raise ValidationError(
            f"band threshold must be in [0, 1), got {threshold_ratio}"
        )
    n = len(magnitude)
    lo, hi = 1, n // 2  # bins with omega > 0, inclusive
    if hi < lo:
        raise ValidationError("spectrum too short to contain positive frequencies")
    level = threshold_ratio * magnitude.max()
    peak = lo + int(np.argmax(magnitude[lo : hi + 1]))
    start = peak
    while start > lo and magnitude[start - 1] >= level:
        start -= 1
    stop = peak
    while stop < hi and magnitude[stop + 1] >= level:
        stop += 1
    return np.arange(start, stop + 1)


def _band_slice(band: np.ndarray, n: int, min_bins: int = 1) -> slice:
    """The band, a run of at least ``min_bins`` >= 1 consecutive bins in 0..n-1, as a slice."""
    band = np.asarray(band, dtype=int)
    if band.size < min_bins or np.any(np.diff(band) != 1):
        raise ValidationError(f"band must be a run of at least {min_bins} consecutive bins")
    if band[0] < 0 or band[-1] >= n:
        raise ValidationError("band indices outside the spectrum")
    return slice(int(band[0]), int(band[-1]) + 1)


def generate_pulse(cfg: PulseConfig) -> SampledWaveform:
    """Sample the keyed raised-cosine pulse on its symmetric time grid.

    The grid is t_n = (n - N/2) / oversample for n = 0..N-1 with
    N = symbol_count * oversample, so the pulse peak sits at t = 0 in the
    middle of the window. The removable singularities of the raised-cosine
    factors (t = 0 and |t| = 1/(2*rolloff)) are replaced by their limits.

    Raises
    ------
    ValidationError
        If N is odd, or if some grid point maps outside the bit array
        (which happens for odd symbol counts).
    """
    cfg.validate()
    bits = cfg.resolve_bits()
    n_total = cfg.num_samples
    if n_total % 2 != 0:
        raise ValidationError(
            f"total sample count must be even for a symmetric grid, got {n_total}"
        )
    t = (np.arange(n_total) - n_total / 2) / cfg.oversample

    # One bit per symbol period [k, k+1); the window spans symbol_count periods
    # centred on t = 0, so the index shift is symbol_count / 2.
    idx_f = np.floor(t) + cfg.symbol_count / 2
    idx = idx_f.astype(int)
    if np.any(idx_f != idx) or idx.min() < 0 or idx.max() >= cfg.symbol_count:
        raise ValidationError(
            "time grid does not map onto the bit array; use an even symbol_count"
        )
    keyed_phase = np.pi * bits[idx]

    # sin(pi t)/(pi t) with the t=0 limit handled by numpy's sinc.
    sinc_term = np.sinc(t)

    rho = cfg.rolloff
    denom = 1.0 - 4.0 * rho * rho * t * t
    singular = np.isclose(np.abs(t), 1.0 / (2.0 * rho), rtol=0.0, atol=1e-12)
    safe_denom = np.where(singular, 1.0, denom)
    rolloff_term = np.where(singular, np.pi / 4.0, np.cos(np.pi * rho * t) / safe_denom)

    values = sinc_term * rolloff_term * np.cos(2.0 * np.pi * cfg.carrier_freq * t + keyed_phase)
    return SampledWaveform(t=t, values=values)


def spectrum(w: SampledWaveform, band_threshold: float = 0.1) -> Spectrum:
    """Compute the DFT of a waveform with magnitude and unwrapped phase.

    ``band_threshold`` sets the magnitude ratio (relative to the peak)
    that defines the positive-frequency passband over which the phase is
    unwrapped.
    """
    n = len(w)
    if n < 2:
        raise ValidationError("waveform must have at least 2 samples")
    values = np.fft.fft(w.values)
    omega = _omega_grid(n)
    magnitude = np.abs(values)
    phase = np.angle(values)
    passband = _positive_band(magnitude, band_threshold)
    phase_unwrapped = unwrap_phase(phase[passband])
    return Spectrum(
        omega=omega,
        values=values,
        magnitude=magnitude,
        phase=phase,
        passband=passband,
        phase_unwrapped=phase_unwrapped,
    )


def unwrap_phase(phi: Union[Sequence[float], np.ndarray], axis: int = -1) -> np.ndarray:
    """Remove artificial 2*pi jumps from a principal-value phase sequence.

    The first element is kept as-is; every successive difference is shifted
    by the integer multiple of 2*pi that places it in (-pi, pi]. The output
    differs from the input by an exact multiple of 2*pi elementwise.
    """
    phi = np.asarray(phi, dtype=float)
    if not np.isfinite(phi).all():
        raise ValidationError("phase sequence contains non-finite values")
    if phi.shape[axis] <= 1:
        return phi.copy()
    diffs = np.diff(phi, axis=axis)
    # k is the per-step wrap count that maps each difference into (-pi, pi].
    k = np.ceil((diffs - np.pi) / (2.0 * np.pi))
    offsets = np.cumsum(k, axis=axis)
    pad_shape = list(phi.shape)
    pad_shape[axis] = 1
    offsets = np.concatenate([np.zeros(pad_shape), offsets], axis=axis)
    return phi - 2.0 * np.pi * offsets
