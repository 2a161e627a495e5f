"""SVD-truncated linear prediction (Prony) over the correlation sequence.

The two-sided spatial correlation is a sum of undamped complex
exponentials whose phase increments are 2*pi*spacing*sin(angle). A large
forward linear-prediction system is solved with a rank-truncated
pseudoinverse; the signal exponentials appear as the prediction-polynomial
roots closest to the unit circle. Truncation pushes the extraneous roots
of the minimum-norm predictor strictly inside the circle, which is what
makes the root selection rule reliable.
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
    "roots_of_polynomial",
]

# Roots outside this modulus window cannot be unit-modulus signal modes.
_ROOT_SANITY = (0.5, 2.0)
# |sin| overshoots below this are silent clamps; larger ones flag the fit.
_CLAMP_TOL = 1e-6


@dataclass
class PronyConfig:
    """Free parameters of the exponential-mode estimator.

    ``num_modes`` is the number of paths (assumed known). The prediction
    order defaults to one third of the two-sided sequence length, the
    classic robust choice for truncated-SVD linear prediction, and the
    truncation rank defaults to the number of modes.
    """

    num_modes: int
    prediction_order: Optional[int] = None
    rank: Optional[int] = None
    forward_backward: bool = False

    def resolved(self, num_lags: int) -> "PronyConfig":
        """Fill defaults for a sequence with ``num_lags`` one-sided lags, and check they fit it."""
        total = 2 * num_lags - 1
        order = total // 3 if self.prediction_order is None else self.prediction_order
        rank = self.num_modes if self.rank is None else self.rank
        if self.num_modes < 1:
            raise ValidationError(f"num_modes must be >= 1, got {self.num_modes}")
        if not self.num_modes <= rank <= order:
            hint = ""
            if self.prediction_order is None and self.rank is None:
                # (2M-1)//3 >= L first holds at M = ceil((3L+1)/2); M lags hold orders up to M-1
                hint = (f": the default prediction_order (2M-1)//3 is {order} at M={num_lags} "
                        f"sensors; {rank} paths need at least {(3 * rank + 2) // 2} sensors"
                        + (f", or set prediction_order={rank}" if rank < num_lags else ""))
            raise ValidationError(
                f"need num_modes <= rank <= prediction_order, got "
                f"{self.num_modes} <= {rank} <= {order}{hint}"
            )
        if order > (total - 1) // 2:
            raise ValidationError(
                f"prediction_order {order} exceeds (sequence length - 1)/2 = {(total - 1) // 2}"
            )
        return replace(self, prediction_order=order, rank=rank)


@dataclass
class ModeEstimate:
    """Recovered exponential modes mapped to arrival angles.

    ``sines`` holds sin(angle) per mode, sorted ascending; ``amplitudes``
    are the real parts of the least-squares mode amplitudes, which are real
    up to rounding because the two-sided sequence is Hermitian. ``valid``
    is False when a |sin| overshoot was too large to clamp silently.
    """

    sines: np.ndarray
    angles_deg: np.ndarray
    amplitudes: np.ndarray
    roots: np.ndarray
    singular_values: np.ndarray
    all_roots: Optional[np.ndarray] = None
    clamped: bool = False
    valid: bool = True


def roots_of_polynomial(coeffs: np.ndarray) -> np.ndarray:
    """All complex roots of a polynomial given by descending coefficients.

    Wraps the companion-matrix eigenvalue solver and enforces a normalized
    residual bound on every root; a violation is reported together with
    the offending polynomial rather than returned silently.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1 or len(coeffs) < 2:
        raise ValidationError("polynomial must have degree >= 1")
    if coeffs[0] == 0:
        raise ValidationError("leading coefficient must be nonzero")
    roots = np.roots(coeffs)
    degree = len(coeffs) - 1
    scale = degree * np.abs(coeffs).max()
    residual = np.abs(np.polyval(coeffs, roots))
    bound = scale * np.maximum(1.0, np.abs(roots)) ** degree
    worst = np.max(residual / bound)
    if worst >= 1e-8:
        raise EstimationError(
            "rooting",
            f"root residual {worst:.3e} exceeds 1e-8 for coefficients {coeffs.tolist()}",
        )
    return roots


def _prediction_system(two_sided: np.ndarray, order: int, forward_backward: bool):
    """Forward (optionally plus backward) linear-prediction system."""
    total = len(two_sided)
    rows = total - order
    a_mat = np.empty((rows, order), dtype=complex)
    for i in range(order):
        # column i holds c_{l-1-i}: a window sliding back through the sequence
        a_mat[:, i] = two_sided[order - 1 - i : total - 1 - i]
    rhs = -two_sided[order:]
    if forward_backward:
        b_mat = np.empty((rows, order), dtype=complex)
        for i in range(order):
            b_mat[:, i] = np.conj(two_sided[i + 1 : rows + i + 1])
        a_mat = np.vstack([a_mat, b_mat])
        rhs = np.concatenate([rhs, -np.conj(two_sided[:rows])])
    return a_mat, rhs


def svd_prony(corr: CorrelationSequence, cfg: PronyConfig) -> ModeEstimate:
    """Estimate sin(angle) per path from the correlation sequence.

    Solves the over-determined forward prediction system with a
    pseudoinverse truncated to ``cfg.rank`` singular values, roots the
    prediction polynomial, keeps the ``num_modes`` roots nearest the unit
    circle, and finally fits real mode amplitudes by least squares.
    """
    cfg = cfg.resolved(corr.num_lags)
    two_sided = corr.two_sided()
    order = cfg.prediction_order

    a_mat, rhs = _prediction_system(two_sided, order, cfg.forward_backward)
    u, sing, vh = np.linalg.svd(a_mat, full_matrices=False)
    # Never divide by numerically-zero singular values even if rank asks for them.
    effective = min(cfg.rank, int(np.sum(sing > sing[0] * max(a_mat.shape) * np.finfo(float).eps)))
    if effective < 1:
        raise EstimationError("prony", "prediction matrix is numerically zero")
    coeffs_lp = vh[:effective].conj().T @ ((u[:, :effective].conj().T @ rhs) / sing[:effective])

    roots = roots_of_polynomial(np.concatenate([[1.0 + 0.0j], coeffs_lp]))
    moduli = np.abs(roots)
    sane = (moduli >= _ROOT_SANITY[0]) & (moduli <= _ROOT_SANITY[1])
    candidates = roots[sane]
    if len(candidates) < cfg.num_modes:
        raise EstimationError(
            "prony",
            f"only {len(candidates)} of {len(roots)} roots fall in the modulus "
            f"window {_ROOT_SANITY}; cannot select {cfg.num_modes} modes "
            f"(roots: {np.round(roots, 4).tolist()})",
        )

    # Rank by distance from the unit circle; exact ties keep root order.
    order_idx = np.argsort(np.abs(1.0 - np.abs(candidates)), kind="stable")
    selected = candidates[order_idx[: cfg.num_modes]]

    phase_inc = np.angle(selected)
    sines = phase_inc / (2.0 * np.pi * corr.spacing)
    sort = np.argsort(sines)
    sines = sines[sort]
    selected = selected[sort]

    overshoot = np.abs(sines) - 1.0
    clamped = bool(np.any(overshoot > 0))
    valid = True
    if np.any(overshoot > _CLAMP_TOL):
        valid = False
        warnings.warn(
            f"|sin(angle)| overshoots 1 by up to {overshoot.max():.3e}; "
            "estimate flagged invalid (spatial aliasing or failed fit)",
            stacklevel=2,
        )
    sines_c = np.clip(sines, -1.0, 1.0)
    angles_deg = np.degrees(np.arcsin(sines_c))

    lags = np.arange(-(corr.num_lags - 1), corr.num_lags)
    modes = np.exp(1j * np.outer(lags, np.angle(selected)))
    amp, *_ = np.linalg.lstsq(modes, two_sided, rcond=None)
    return ModeEstimate(
        sines=sines_c,
        angles_deg=angles_deg,
        amplitudes=amp.real,
        roots=selected,
        singular_values=sing,
        all_roots=roots,
        clamped=clamped,
        valid=valid,
    )

