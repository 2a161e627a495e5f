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

import warnings
from dataclasses import dataclass, replace
from typing import Optional

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

    ``num_modes`` is the number of paths (assumed known). The pencil order
    p defaults to one third of the two-sided sequence length; the Hankel
    matrix has p + 1 columns. The two-sided sequence is
    conjugate-symmetric, so its backward Hankel matrix equals the forward
    one and there is no forward-backward variant.
    """

    num_modes: int
    prediction_order: Optional[int] = None
    # Not a field: perfbench's replay still reads it to size the SVD; delete it
    # once the replay sizes the SVD from the matrix shape (ROADMAP item 1).
    forward_backward = False

    def resolved(self, num_lags: int) -> "PronyConfig":
        """Fill defaults for a sequence with ``num_lags`` one-sided lags, and check they fit it."""
        total = 2 * num_lags - 1
        order = total // 3 if self.prediction_order is None else self.prediction_order
        if self.num_modes < 1:
            raise ValidationError(f"num_modes must be >= 1, got {self.num_modes}")
        if self.num_modes > order:
            hint = ""
            if self.prediction_order is None:
                # (2M-1)//3 >= L first holds at M = ceil((3L+1)/2); M lags hold orders up to M-1
                paths = self.num_modes
                hint = (f": the default prediction_order (2M-1)//3 is {order} at M={num_lags} "
                        f"sensors; {paths} paths need at least {(3 * paths + 2) // 2} sensors"
                        + (f", or set prediction_order={paths}" if paths < num_lags else ""))
            raise ValidationError(
                f"need num_modes <= prediction_order, got {self.num_modes} <= {order}{hint}"
            )
        if order > (total - 1) // 2:
            raise ValidationError(
                f"prediction_order {order} exceeds (sequence length - 1)/2 = {(total - 1) // 2}"
            )
        return replace(self, prediction_order=order)


@dataclass
class ModeEstimate:
    """Recovered exponential modes mapped to arrival angles.

    ``sines`` holds sin(angle) per mode, sorted ascending, and ``roots``
    the pencil eigenvalues in the same order; ``amplitudes`` are the real
    parts of the least-squares mode amplitudes, which are real up to
    rounding because the two-sided sequence is Hermitian. ``valid`` is
    False when a mode left the unit circle or a |sin| overshoot was too
    large to clamp silently.
    """

    sines: np.ndarray
    angles_deg: np.ndarray
    amplitudes: np.ndarray
    roots: np.ndarray
    singular_values: np.ndarray
    clamped: bool = False
    valid: bool = True


def svd_prony(corr: CorrelationSequence, cfg: PronyConfig) -> ModeEstimate:
    """Estimate sin(angle) per path from the correlation sequence.

    Takes the SVD of the (T-p) x (p+1) Hankel matrix of the two-sided
    sequence (T = 2M-1 lags, p the order), solves the shift of its top
    ``num_modes`` right singular vectors in least squares and takes the
    eigenvalues as the modes, then fits real mode amplitudes by least
    squares.
    """
    cfg = cfg.resolved(corr.num_lags)
    two_sided = corr.two_sided()
    order = cfg.prediction_order

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
    clamped = bool(np.any(overshoot > 0))
    problems = []
    if damping > _DAMPING_TOL:
        problems.append(f"a mode has |log|z|| = {damping:.3e} > {_DAMPING_TOL} "
                        "(off the unit circle: noise, or a path count the data does not hold)")
    if np.any(overshoot > _CLAMP_TOL):
        problems.append(f"|sin(angle)| overshoots 1 by up to {overshoot.max():.3e} "
                        "(spatial aliasing or failed fit)")
    for problem in problems:
        warnings.warn(f"{problem}; estimate flagged invalid", stacklevel=2)
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
        clamped=clamped,
        valid=not problems,
    )
