"""Cross-sensor frequency-domain correlation at equal spatial lags.

For block fading the expected product of two sensors' spectra depends only
on the sensor index difference (the spatial lag) and takes the form of a
sum of complex exponentials in sin(angle), one per path, with real
positive amplitudes. The estimator below averages that product over every
snapshot, every in-band frequency bin, and every sensor pair at the same
lag, which is the maximal averaging consistent with that structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .pulse import Spectrum, _band_slice, _positive_band
from .channel import SnapshotSet

__all__ = ["CorrelationSequence", "select_band", "estimate_correlation"]


@dataclass
class CorrelationSequence:
    """Spatial-lag correlation c_l for lags l = 0..M-1.

    Negative lags are implied by conjugate symmetry, c_{-l} = conj(c_l);
    :meth:`two_sided` materializes the full sequence. ``spacing`` is the
    array element spacing in wavelengths, carried along so downstream
    stages can map exponential phase increments back to angles.
    """

    values: np.ndarray
    spacing: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 1 or len(self.values) < 2:
            raise ValidationError("correlation sequence must be 1-D with >= 2 lags")
        c0 = self.values[0]
        if c0.real < 0 or abs(c0.imag) > 1e-9 * max(abs(c0), 1e-300):
            raise ValidationError(f"lag-0 correlation must be real and >= 0, got {c0}")

    @property
    def num_lags(self) -> int:
        return len(self.values)

    def two_sided(self) -> np.ndarray:
        """Full sequence over lags -(M-1)..(M-1) via conjugate symmetry."""
        return np.concatenate([np.conj(self.values[:0:-1]), self.values])


def select_band(g_spec: Spectrum, eta: float) -> np.ndarray:
    """Positive-frequency bins where the pulse spectrum has energy.

    Returns the contiguous run of bins (natural DFT order) containing the
    magnitude peak where |g| >= eta * max|g|. Averaging the correlation
    outside this band would only add terms with no signal content.
    """
    if not 0.0 <= eta < 1.0:
        raise ValidationError(f"eta must be in [0, 1), got {eta}")
    return _positive_band(g_spec.magnitude, eta)


def estimate_correlation(snaps: SnapshotSet, band: np.ndarray) -> CorrelationSequence:
    """Average x_k(w) * conj(x_m(w)) over snapshots, band bins and pairs.

    Lag l collects every ordered sensor pair (k, k-l); the estimate at lag
    l therefore averages S * |band| * (M - l) terms. Lag 0 is a mean of
    squared magnitudes and comes out exactly real and non-negative. The
    band must be a contiguous run of bins, as :func:`select_band` returns.
    """
    m = snaps.num_sensors
    rows = snaps.bins[_band_slice(band, snaps.num_samples)].reshape(-1, m)

    # Every (bin, snapshot) pair contributes one length-M sensor vector x; the
    # lag-l sum is the l-th superdiagonal of the Gram sum_r conj(x_r) x_r^T. Seen
    # as real (re, im) columns X, the band's contiguous rows give the real Gram
    # X^T X in one BLAS syrk, whose quarters make (RR + II) + j(RI - IR).
    xf = rows.view(float)
    g = xf.T @ xf
    gram = (g[0::2, 0::2] + g[1::2, 1::2]) + 1j * (g[0::2, 1::2] - g[1::2, 0::2])
    values = np.array([np.trace(gram, offset=lag) for lag in range(m)])
    # The diagonal sums |x_k|^2; a Gram not filled symmetrically could leave
    # a rounding residue in its imaginary part, which is dropped.
    values[0] = values[0].real
    values /= len(rows) * (m - np.arange(m))
    return CorrelationSequence(values=values, spacing=snaps.array.spacing)
