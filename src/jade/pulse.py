"""Raised-cosine passband pulse generation and spectral analysis.

The transmitted pulse is a raised-cosine envelope on a carrier whose phase
is keyed by a binary sequence (one bit per symbol period, 0 or pi). The
receiver is assumed to know the pulse exactly, so the same configuration
object is used on both the synthesis and the estimation side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exceptions import ValidationError

__all__ = [
    "PulseConfig",
    "generate_pulse",
    "omega_grid",
    "spectrum",
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
        supplied; one of the two must be given.
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

    @property
    def times(self) -> np.ndarray:
        """Sample times t_n = (n - N/2) / oversample in symbol periods, n = 0..N-1."""
        n = self.num_samples
        return (np.arange(n) - n / 2) / self.oversample

    def validate(self) -> None:
        if not 0.0 < self.rolloff <= 1.0:
            raise ValidationError(f"rolloff must be in (0, 1], got {self.rolloff}")
        if not (np.isfinite(self.carrier_freq) and self.carrier_freq >= 0.0):
            raise ValidationError(f"carrier_freq must be finite and >= 0, got {self.carrier_freq}")
        if self.symbol_count < 2 or self.symbol_count % 2:
            raise ValidationError(f"symbol_count must be even and >= 2, got {self.symbol_count}")
        if self.oversample < 1:
            raise ValidationError(f"oversample must be >= 1, got {self.oversample}")
        if self.bits_seed is not None and self.bits_seed < 0:
            raise ValidationError(f"bits_seed must be >= 0, got {self.bits_seed}")
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
        if self.bits_seed is None:
            raise ValidationError("a pulse needs bits or a bits_seed")
        return np.random.default_rng(self.bits_seed).integers(0, 2, size=self.symbol_count)


def omega_grid(n: int) -> np.ndarray:
    """Radian frequencies of an n-point DFT mapped to (-pi, pi], in natural bin order."""
    q = np.arange(n)
    w = 2.0 * np.pi * q / n
    return np.where(q <= n // 2, w, w - 2.0 * np.pi)


def generate_pulse(cfg: PulseConfig) -> np.ndarray:
    """Sample the keyed raised-cosine pulse on its symmetric time grid.

    Returns the N = symbol_count * oversample samples at the times
    ``cfg.times``, t_n = (n - N/2) / oversample, so the pulse peak sits at
    t = 0 in the middle of the window. The removable singularities of the
    raised-cosine factors (t = 0 and |t| = 1/(2*rolloff)) are replaced by
    their limits.
    """
    try:
        bits = cfg.resolve_bits()
        t = cfg.times

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

        return sinc_term * rolloff_term * np.cos(2.0 * np.pi * cfg.carrier_freq * t + keyed_phase)
    except MemoryError as exc:  # the sizes are settings: too large is a bad setting
        raise ValidationError(
            f"symbols={cfg.symbol_count} at oversample={cfg.oversample}: {exc}") from exc


def spectrum(wave: np.ndarray, band_threshold: float = 0.1) -> np.ndarray:
    """The complex DFT of a real waveform, bin q at ``omega_grid(len(wave))[q]``.

    The waveform must be 1-D and finite, with at least 2 samples.
    """
    # band_threshold is unused; perfbench's traced replay still passes it positionally.
    wave = np.asarray(wave, dtype=float)
    if wave.ndim != 1 or len(wave) < 2:
        raise ValidationError(f"waveform must be 1-D with >= 2 samples, got shape {wave.shape}")
    if not np.isfinite(wave).all():
        raise ValidationError("waveform contains non-finite samples")
    return np.fft.fft(wave)
