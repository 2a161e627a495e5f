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
        Number of symbol periods covered by the sample window; even, so
        the window centred on t = 0 starts on a symbol boundary.
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
        if self.symbol_count < 2 or self.symbol_count % 2:
            raise ValidationError(f"symbol_count must be even and >= 2, got {self.symbol_count}")
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
    The passband is chosen from ``magnitude`` by
    :func:`jade.correlation.select_band`.
    """

    omega: np.ndarray
    values: np.ndarray
    magnitude: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def _omega_grid(n: int) -> np.ndarray:
    """Radian frequencies of an n-point DFT mapped to (-pi, pi], bin order."""
    q = np.arange(n)
    w = 2.0 * np.pi * q / n
    return np.where(q <= n // 2, w, w - 2.0 * np.pi)


def generate_pulse(cfg: PulseConfig) -> SampledWaveform:
    """Sample the keyed raised-cosine pulse on its symmetric time grid.

    The grid is t_n = (n - N/2) / oversample for n = 0..N-1 with
    N = symbol_count * oversample, so the pulse peak sits at t = 0 in the
    middle of the window. The removable singularities of the raised-cosine
    factors (t = 0 and |t| = 1/(2*rolloff)) are replaced by their limits.
    """
    cfg.validate()
    bits = cfg.resolve_bits()
    n_total = cfg.num_samples
    t = (np.arange(n_total) - n_total / 2) / cfg.oversample

    # One bit per symbol period [k, k+1); the window spans symbol_count periods
    # centred on t = 0, so the index shift is symbol_count / 2.
    idx = np.floor(t).astype(int) + cfg.symbol_count // 2
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
    """Compute the DFT of a waveform with its magnitude."""
    # band_threshold is unused; perfbench's traced replay still passes it positionally.
    n = len(w)
    if n < 2:
        raise ValidationError("waveform must have at least 2 samples")
    values = np.fft.fft(w.values)
    return Spectrum(omega=_omega_grid(n), values=values, magnitude=np.abs(values))


def unwrap_phase(phi: Union[Sequence[float], np.ndarray], axis: int = -1) -> np.ndarray:
    """Remove artificial 2*pi jumps from a principal-value phase sequence.

    The first element is kept as-is; every successive difference is shifted
    by the integer multiple of 2*pi that places it in (-pi, pi]. The output
    differs from the input by an exact multiple of 2*pi elementwise.
    """
    phi = np.asarray(phi, dtype=float)
    if not np.isfinite(phi).all():
        raise ValidationError("phase sequence contains non-finite values")
    # k is the per-step wrap count that maps each difference into (-pi, pi].
    k = np.ceil((np.diff(phi, axis=axis) - np.pi) / (2.0 * np.pi))
    out = phi.copy()
    rest = [slice(None)] * phi.ndim
    rest[axis] = slice(1, None)
    out[tuple(rest)] -= 2.0 * np.pi * np.cumsum(k, axis=axis)
    return out
