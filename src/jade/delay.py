"""Per-path beamforming and phase-slope delay estimation.

Steering the array at an estimated angle isolates that path's spectrum up
to the fading coefficient and a small leakage term from the other paths.
Dividing out the known pulse spectrum leaves a residual whose phase is a
straight line in frequency with slope equal to minus the delay; the
constant fading phase lands in the intercept. Each snapshot is fitted
independently and the per-snapshot delays are aggregated afterwards,
because averaging the beamformer output across fading snapshots first
would cancel the signal (the fading coefficients have zero mean).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import ValidationError
from .pulse import Spectrum, unwrap_phase
from .channel import SnapshotSet
from .correlation import _band_slice

__all__ = ["DelayEstimate", "beamform", "fit_delay"]

# Below this coefficient of determination a per-snapshot line fit is
# considered unreliable and flagged.
RSQ_RELIABLE = 0.5


def median0(x: np.ndarray) -> np.ndarray:
    """``np.median(x, axis=0)`` bit for bit, NaN included, without importing ``numpy.ma``.

    ``np.median``'s NaN check imports ``numpy.ma``, which stays resident.
    """
    n = len(x)
    part = np.partition(x, [(n - 1) // 2, n // 2, -1], axis=0)
    mid = np.mean(part[(n - 1) // 2:n // 2 + 1], axis=0)
    return np.where(np.isnan(part[-1]), part[-1], mid)


@dataclass
class DelayEstimate:
    """Per-snapshot phase-slope delay fits and their aggregates.

    The per-snapshot delay is ``-slope``; ``intercept`` absorbs the
    per-snapshot fading phase (modulo 2*pi). ``phase`` is the unwrapped
    in-band residual phase the lines were fitted to, shaped (snapshot,
    path, bin). ``reliable`` marks fits whose r-squared reaches
    :data:`RSQ_RELIABLE`.
    """

    delay_median: np.ndarray
    delay_mean: np.ndarray
    slope: np.ndarray
    intercept: np.ndarray
    rsq: np.ndarray
    band: range
    reliable: np.ndarray
    phase: np.ndarray


def beamform(snaps: SnapshotSet, sines: Sequence[float]) -> np.ndarray:
    """Steer the array at each sin(angle) value and average over sensors.

    Returns the complex (snapshot, path, bin) array whose path i, bin q is
    (1/M) * sum_k exp(-j*2*pi*spacing*(k-1)*s_i) * x_k(w_q).
    """
    sines = np.asarray(sines, dtype=float)
    if sines.ndim != 1 or sines.size == 0:
        raise ValidationError("need a non-empty 1-D list of sin(angle) values")
    if np.abs(sines).max() > 1.0:
        raise ValidationError("|sin(angle)| values must not exceed 1")
    n, s_count, m = snaps.bins.shape
    k = np.arange(m)
    weights = np.exp(-2j * np.pi * snaps.array.spacing * np.outer(sines, k)) / m
    # One GEMM over all (bin, snapshot) rows; as rows @ weights.T it left 25 MB more resident.
    values = (weights @ snaps.bins.reshape(-1, m).T).reshape(-1, n, s_count)
    return values.transpose(2, 0, 1)


def fit_delay(
    beams: np.ndarray,
    g_spec: Spectrum,
    band: range,
    # Inert: perfbench's replay still passes it by position; delete it once the
    # replay traces run_pipeline instead (ROADMAP item 1).
    weighted: bool = False,
) -> DelayEstimate:
    """Fit the in-band residual phase slope per snapshot and path.

    The (snapshot, path, bin) ``beams`` of :func:`beamform` are deconvolved
    by the known pulse spectrum (which removes the pulse phase without a
    second unwrapping pass), the residual phase is unwrapped across the
    band, and an ordinary least-squares line in omega gives the delay as
    minus the slope. Aggregates over snapshots are the median (robust to
    deep fades) and the mean.
    """
    if weighted:
        raise ValidationError("the |g|^2-weighted delay fit was removed; weighted must be False")
    bins = _band_slice(band, len(g_spec), min_bins=3)
    g_band = g_spec.values[bins]
    if np.any(g_band == 0):
        raise ValidationError("pulse spectrum vanishes inside the band")

    omega = g_spec.omega[bins]
    residual = beams[:, :, bins] * (np.conj(g_band) / np.abs(g_band) ** 2)
    phase = unwrap_phase(np.angle(residual), axis=-1)

    # Least squares of phase against omega, vectorized over (snapshot, path); the
    # means are dot products with uniform w, whose rounding the reports depend on.
    w = np.full(len(omega), 1.0 / len(omega))
    x_mean = np.dot(w, omega)
    x_centered = omega - x_mean
    x_var = np.dot(w, x_centered**2)
    y_mean = phase @ w
    y_centered = phase - y_mean[..., None]
    slope = (y_centered * x_centered) @ w / x_var
    intercept = y_mean - slope * x_mean

    fitted = slope[..., None] * omega + intercept[..., None]
    ss_res = ((phase - fitted) ** 2) @ w
    ss_tot = (y_centered**2) @ w
    # A perfectly flat phase (zero delay, exact data) has no variance to
    # explain; treat it as a perfect fit.
    rsq = np.where(ss_tot > 1e-30, 1.0 - ss_res / np.maximum(ss_tot, 1e-300), 1.0)
    rsq = np.clip(rsq, 0.0, 1.0)

    return DelayEstimate(
        delay_median=median0(-slope),
        delay_mean=np.mean(-slope, axis=0),
        slope=slope,
        intercept=intercept,
        rsq=rsq,
        band=range(bins.start, bins.stop),
        reliable=rsq >= RSQ_RELIABLE,
        phase=phase,
    )
