"""Matrix-pencil fit of the exponential modes of the correlation sequence.

The two-sided spatial correlation is a sum of undamped complex
exponentials whose phase increments are 2*pi*spacing*sin(angle). Its
Hankel matrix has rank equal to the number of modes, and the leading
right singular vectors span a shift-invariant subspace: shifting their
rows by one multiplies each mode by its exponential. The eigenvalues of
that shift, solved in least squares, are the modes (Hua & Sarkar,
"Matrix pencil method for estimating parameters of exponentially
damped/undamped sinusoids in noise", IEEE TASSP 1990). No polynomial is
rooted and no root has to be selected; a mode whose modulus strays from
the unit circle flags the fit instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import EstimationError, ValidationError
from .correlation import CorrelationSequence

__all__ = [
    "PronyConfig",
    "ModeEstimate",
    "svd_prony",
]

# A mode with max |log|z|| above this is not an undamped path; it flags the fit.
_DAMPING_TOL = 1e-2
# |sin| overshoots below this are silent clamps; larger ones flag the fit.
_CLAMP_TOL = 1e-6


@dataclass
class PronyConfig:
    """Free parameters of the exponential-mode estimator.

    ``num_modes`` is the number of paths (assumed known); the pencil order
    follows from it and the sequence length (:meth:`order`). The two-sided
    sequence is conjugate-symmetric, so its backward Hankel matrix equals
    the forward one and there is no forward-backward variant.
    """

    num_modes: int
    # Not a field: perfbench's replay still reads it to size the SVD; delete it
    # once the replay sizes the SVD from the matrix shape (ROADMAP item 1).
    forward_backward = False

    def order(self, num_lags: int) -> int:
        """The pencil order p = max(L, (2M-1)//3) for M = ``num_lags`` one-sided lags.

        One third of the two-sided length where that holds the L modes, else
        L itself; both need L < M, so that the (2M-1-p) x (p+1) Hankel matrix
        has rank L.
        """
        paths = self.num_modes
        if paths < 1:
            raise ValidationError(f"num_modes must be >= 1, got {paths}")
        if paths >= num_lags:
            raise ValidationError(
                f"{paths} paths need at least {paths + 1} sensors, got M={num_lags}"
            )
        return max(paths, (2 * num_lags - 1) // 3)


@dataclass
class ModeEstimate:
    """Recovered exponential modes mapped to arrival angles.

    ``sines`` holds sin(angle) per mode, sorted ascending, and ``roots``
    the pencil eigenvalues in the same order; ``amplitudes`` are the real
    parts of the least-squares mode amplitudes, which are real up to
    rounding because the two-sided sequence is Hermitian. A sine clipped to
    ±1 reads as an angle of exactly ±90°. ``valid`` is False when a mode
    left the unit circle or a |sin| overshoot was too large to clip silently.
    """

    sines: np.ndarray
    angles_deg: np.ndarray
    amplitudes: np.ndarray
    roots: np.ndarray
    singular_values: np.ndarray
    valid: bool = True


def svd_prony(corr: CorrelationSequence, cfg: PronyConfig) -> ModeEstimate:
    """Estimate sin(angle) per path from the correlation sequence.

    Takes the SVD of the (T-p) x (p+1) Hankel matrix of the two-sided
    sequence (T = 2M-1 lags, p from :meth:`PronyConfig.order`), solves the
    shift of its top ``num_modes`` right singular vectors in least squares
    and takes the eigenvalues as the modes, then fits real mode amplitudes
    by least squares.
    """
    order = cfg.order(corr.num_lags)
    two_sided = corr.two_sided()

    windows = np.lib.stride_tricks.sliding_window_view(two_sided, order + 1)
    _, sing, vh = np.linalg.svd(windows, full_matrices=False)
    if not sing[0] > 0:
        raise EstimationError("prony", "Hankel matrix is numerically zero")
    basis = vh[: cfg.num_modes].T
    shift, *_ = np.linalg.lstsq(basis[:-1], basis[1:], rcond=None)
    roots = np.linalg.eigvals(shift)

    sines = np.angle(roots) / (2.0 * np.pi * corr.spacing)
    sort = np.argsort(sines)
    sines = sines[sort]
    roots = roots[sort]

    with np.errstate(divide="ignore"):  # a white sequence (c_0 alone) gives z = 0
        damping = np.abs(np.log(np.abs(roots))).max()
    overshoot = np.abs(sines) - 1.0
    valid = not (damping > _DAMPING_TOL or np.any(overshoot > _CLAMP_TOL))
    sines_c = np.clip(sines, -1.0, 1.0)
    angles_deg = np.degrees(np.arcsin(sines_c))

    lags = np.arange(-(corr.num_lags - 1), corr.num_lags)
    modes = np.exp(1j * np.outer(lags, np.angle(roots)))
    amp, *_ = np.linalg.lstsq(modes, two_sided, rcond=None)
    return ModeEstimate(
        sines=sines_c,
        angles_deg=angles_deg,
        amplitudes=amp.real,
        roots=roots,
        singular_values=sing,
        valid=valid,
    )
