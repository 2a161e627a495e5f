"""Per-path beamforming and maximum-likelihood delay estimation.

Each path's beam is its row of the steering matrix's left inverse: unit gain
at its estimated angle and nulls at the others', so it holds that path's
spectrum up to the fading coefficient. Matched-filtering the beam by the known
pulse spectrum and phase-aligning it at a trial delay tau gives one sum per
snapshot; the powers of those sums, added over the snapshots, form the delay
periodogram J(tau), whose maximum is the path's delay. This is the delay half
of Li & Stoica's RELAX (IEEE TSP 1996) and of Vanderveen, Papadias & Paulraj's
JADE (IEEE Commun. Lett. 1997). Powers are added rather than beams, because
averaging the beams across fading snapshots would cancel the signal (the
fading coefficients have zero mean).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import ValidationError
from .channel import SnapshotSet
from .correlation import _band_slice

__all__ = ["DelayEstimate", "beamform", "fit_delay"]

# The coarse search evaluates J every 1/GRID_FACTOR samples; NEWTON_STEPS
# steps then refine its peak.
GRID_FACTOR = 2
NEWTON_STEPS = 3


@dataclass
class DelayEstimate:
    """One delay per path from its delay periodogram.

    ``delay_median`` holds the delays, under the name the benchmark reads.
    ``reliable`` is False for a path whose Newton refinement met a
    non-concave J or left the coarse peak by more than one grid step; its
    delay is then the coarse peak. ``objective`` is each path's J on the
    coarse grid ``tau_grid`` (samples, ascending, one period [-N/2, N/2)),
    shaped (path, grid point).
    """

    delay_median: np.ndarray
    # No report carries it; perfbench's replay reads it (ROADMAP item 1 retires it).
    reliable: np.ndarray
    tau_grid: np.ndarray
    objective: np.ndarray


def beamform(snaps: SnapshotSet, sines: Sequence[float]) -> np.ndarray:
    """Zero-forced beams: unit gain at each sin(angle) value, nulls at the others.

    Returns the complex (snapshot, path, bin) array sum_k W[i, k] * x_k(w_q), where
    W = pinv(A) for the (M, L) steering matrix A[k, i] = exp(j*2*pi*spacing*(k-1)*s_i),
    so W @ A = I; for one path W is the matched exp(-j*2*pi*spacing*(k-1)*s) / M.
    """
    sines = np.asarray(sines, dtype=float)
    if sines.ndim != 1 or sines.size == 0:
        raise ValidationError("need a non-empty 1-D list of sin(angle) values")
    if np.abs(sines).max() > 1.0:
        raise ValidationError("|sin(angle)| values must not exceed 1")
    n, s_count, m = snaps.bins.shape
    steer = np.exp(2j * np.pi * snaps.spacing * np.outer(np.arange(m), sines))  # (M, L)
    weights = np.linalg.pinv(steer)
    # One GEMM over all (bin, snapshot) rows; as rows @ weights.T it left 25 MB more resident.
    values = (weights @ snaps.bins.reshape(-1, m).T).reshape(-1, n, s_count)
    return values.transpose(2, 0, 1)


def fit_delay(
    beams: np.ndarray,
    g_spec: np.ndarray,
    band: range,
    # Inert: perfbench's replay still passes it by position; delete it once the
    # replay traces run_pipeline instead (ROADMAP item 1).
    weighted: bool = False,
) -> DelayEstimate:
    """Maximise each path's delay periodogram over all snapshots at once.

    Each band bin of the (snapshot, path, bin) ``beams`` of :func:`beamform`
    is matched-filtered by the pulse's DFT ``g_spec``, h_sq = z_sq * conj(g_q),
    and J(tau) = sum_s |sum_q h_sq * exp(j*omega_q*tau)|^2 is searched on a grid
    of 1/:data:`GRID_FACTOR` samples, then refined by :data:`NEWTON_STEPS`
    Newton steps. Only the band's bins are read.
    """
    if weighted:
        raise ValidationError("the |g|^2-weighted delay fit was removed; weighted must be False")
    bins = _band_slice(band, len(g_spec), min_bins=3)
    g_band = g_spec[bins]
    if np.any(g_band == 0):
        raise ValidationError("pulse spectrum vanishes inside the band")

    n, b = len(g_spec), bins.stop - bins.start
    h = beams[:, :, bins] * np.conj(g_band)
    # Frequency-lag sums c(D) = sum_s sum_q h_s,q+D * conj(h_sq), D = 0..B-1, from
    # autocorrelations padded to 2B against wrap-around.
    h_fft = np.fft.fft(h, 2 * b)
    lag_sums = np.fft.ifft(np.sum(h_fft.real**2 + h_fft.imag**2, axis=0))[:, :b]
    # The band's bins are 2*pi/N apart and c(-D) = conj(c(D)), so
    # J(tau) = Re sum_D coef_D * exp(j*lag_omega_D*tau) over D = 0..B-1.
    coef = np.concatenate([lag_sums[:, :1], 2 * lag_sums[:, 1:]], axis=1)
    lag_omega = 2 * np.pi / n * np.arange(b)

    k = GRID_FACTOR * n
    objective = np.fft.fftshift(k * np.fft.ifft(coef, k).real, axes=-1)
    tau_grid = (np.arange(k) - k // 2) / GRID_FACTOR
    coarse = tau_grid[np.argmax(objective, axis=1)]

    tau = coarse
    concave = np.ones(len(tau), dtype=bool)
    for _ in range(NEWTON_STEPS):
        terms = coef * np.exp(1j * np.outer(tau, lag_omega))
        gradient = (terms @ (1j * lag_omega)).real
        curvature = -(terms @ lag_omega**2).real
        concave &= curvature < 0
        tau = tau - np.divide(gradient, curvature, out=np.zeros_like(tau), where=concave)
    reliable = concave & (np.abs(tau - coarse) <= 1 / GRID_FACTOR)
    return DelayEstimate(
        delay_median=np.where(reliable, tau, coarse),
        reliable=reliable,
        tau_grid=tau_grid,
        objective=objective,
    )
