"""Multipath array-signal synthesis with per-snapshot fading.

Each snapshot is one full record of the known pulse arriving over L
propagation paths at a uniform linear array. A path contributes the pulse
delayed by its arrival time, phased across sensors by its arrival angle,
and scaled by a random fading coefficient that is constant within the
snapshot (block fading) and independent across snapshots and paths.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import ValidationError, open_text
from .pulse import omega_grid, spectrum

__all__ = [
    "ArrayConfig",
    "PathParam",
    "FadingModel",
    "SnapshotSet",
    "steering_vector",
    "synthesize",
    "save_dataset",
    "load_dataset",
]

DATASET_MAGIC = "JADE1"
# every byte but the two separators, deleted from a data line to check their order
_NOT_A_SEPARATOR = bytes(set(range(256)) - set(b":,"))

# Noise is drawn about this many (snapshot, bin) sensor vectors at a time, 1 MB
# at 64 sensors, so a block is still in cache when it is written into ``bins``.
NOISE_ROWS = 1024


@dataclass
class ArrayConfig:
    """Uniform linear array geometry.

    ``spacing`` is the element spacing in wavelengths. Spacings above half
    a wavelength alias angles within +/-90 degrees; that is allowed but
    warned about.
    """

    num_sensors: int
    spacing: float

    def validate(self) -> None:
        if self.num_sensors < 2:
            raise ValidationError(f"need at least 2 sensors, got {self.num_sensors}")
        if not (np.isfinite(self.spacing) and self.spacing > 0):
            raise ValidationError(f"spacing must be positive and finite, got {self.spacing}")
        if self.spacing > 0.5:
            # one source line for every caller, so the default filter shows it once a process
            warnings.warn(
                f"element spacing {self.spacing} wavelengths exceeds 0.5; "
                "angles may alias spatially"
            )


@dataclass
class PathParam:
    """One propagation path: arrival angle (degrees) and delay (samples).

    The delay may be fractional or negative; it is applied to the pulse
    spectrum as exp(-j*omega*delay).
    """

    angle_deg: float
    delay: float

    def validate(self, num_samples: int) -> None:
        if not -90.0 < self.angle_deg < 90.0:
            raise ValidationError(
                f"angle must lie strictly inside (-90, 90) degrees, got {self.angle_deg}"
            )
        if not np.isfinite(self.delay):
            raise ValidationError("delay must be finite")
        if abs(self.delay) >= num_samples / 2:
            raise ValidationError(
                f"|delay| = {abs(self.delay)} must be below half the window "
                f"({num_samples / 2} samples)"
            )

    @property
    def sin_angle(self) -> float:
        return float(np.sin(np.radians(self.angle_deg)))


@dataclass
class FadingModel:
    """Per-snapshot multiplicative fading coefficient distribution.

    Variants
    --------
    deterministic : fixed complex coefficient ``beta`` (no randomness).
    rayleigh : real and imaginary parts i.i.d. N(0, sigma^2), so the
        amplitude is Rayleigh and the phase uniform. E|beta|^2 = 2 sigma^2.
    rician : line-of-sight amplitude ``nu`` plus a complex Gaussian
        scatter term with per-component std ``sigma``, rotated by a
        uniformly random global phase. K-factor = nu^2 / (2 sigma^2).
    suzuki : Rayleigh amplitude shadowed by a lognormal factor
        10^(X/20), X ~ N(mean_db, std_db^2), with uniform random phase.
    """

    kind: str = "rayleigh"
    beta: complex = 1.0 + 0.0j
    sigma: float = 1.0
    nu: float = 0.0
    mean_db: float = 0.0
    std_db: float = 6.0

    _KINDS = ("deterministic", "rayleigh", "rician", "suzuki")

    def validate(self) -> None:
        if self.kind not in self._KINDS:
            raise ValidationError(f"unknown fading kind {self.kind!r}; one of {self._KINDS}")
        for name in ("beta", "sigma", "nu", "mean_db", "std_db"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kind in ("rayleigh", "rician", "suzuki") and self.sigma <= 0:
            raise ValidationError(f"sigma must be positive, got {self.sigma}")
        if self.kind == "rician" and self.nu < 0:
            raise ValidationError(f"nu must be >= 0, got {self.nu}")
        if self.kind == "suzuki" and self.std_db < 0:
            raise ValidationError(f"std_db must be >= 0, got {self.std_db}")

    def draw(self, rng: np.random.Generator, shape: int | tuple) -> np.ndarray:
        """Draw i.i.d. fading coefficients of ``shape`` (a count or a tuple).

        Every kind is built from standard normals only, k per coefficient
        and laid out last, so a (snapshot, path) draw is snapshot-major and
        a draw of fewer snapshots is a prefix of a draw of more.
        """
        self.validate()
        if self.kind == "deterministic":
            return np.full(shape, self.beta, dtype=complex)
        k = {"rayleigh": 2, "rician": 4, "suzuki": 3}[self.kind]
        z = rng.standard_normal((*np.atleast_1d(shape), k))
        scatter = self.sigma * (z[..., 0] + 1j * z[..., 1])
        if self.kind == "rician":
            # the phase of a circular Gaussian is exactly uniform
            u = z[..., 2] + 1j * z[..., 3]
            return (self.nu + scatter) * (u / np.abs(u))
        if self.kind == "suzuki":
            return scatter * 10.0 ** ((self.mean_db + self.std_db * z[..., 2]) / 20.0)
        return scatter


@dataclass
class SnapshotSet:
    """Synthesized (or loaded) array snapshots, stored as per-sensor spectra.

    ``bins`` is C-contiguous (frequency bin, snapshot, sensor), so the sensor
    vectors of a run of bins are one block. It is the only in-memory form:
    the time series exists only in a dataset file, written and read one
    snapshot at a time. The sensor count is ``bins.shape[2]``; ``spacing``
    is that of the :class:`ArrayConfig` checked before the set was built.
    ``half`` marks a set of bins 0..N/2 only (``synthesize(half=True)``),
    whose ``num_samples`` counts those bins; it cannot be saved.
    """

    bins: np.ndarray
    spacing: float
    half: bool = False

    @property
    def num_snapshots(self) -> int:
        return self.bins.shape[1]

    @property
    def num_sensors(self) -> int:
        return self.bins.shape[2]

    @property
    def num_samples(self) -> int:
        return self.bins.shape[0]


def steering_vector(arr: ArrayConfig, angle_deg: float | Sequence[float]) -> np.ndarray:
    """Array response to unit plane waves: (M,) for one angle, (L, M) for L angles.

    Element k (1-based) is exp(j*2*pi*spacing*(k-1)*sin(angle)).
    """
    arr.validate()
    sin_theta = np.sin(np.radians(angle_deg))
    k = np.arange(arr.num_sensors)
    return np.exp(2j * np.pi * arr.spacing * k * sin_theta[..., None])


def delayed_pulse_spectrum(g: np.ndarray, delays: Sequence[float]) -> np.ndarray:
    """(N, L) spectra of the pulse with DFT ``g`` circularly delayed by each of L ``delays``."""
    return g[:, None] * np.exp(-1j * omega_grid(len(g))[:, None] * delays)


def synthesize(
    pulse: np.ndarray,
    paths: Sequence[PathParam],
    arr: ArrayConfig,
    fading: FadingModel,
    num_snapshots: int,
    noise_var: float = 0.0,
    seed: int = 0,
    *,
    half: bool = False,
) -> SnapshotSet:
    """Generate array snapshots of the pulse samples ``pulse`` for the given paths, fading, noise.

    Spectra are formed directly: snapshot s is G^T (A diag beta_s), with G
    the (L, N) delayed pulse spectra and A the (M, L) steering matrix.
    Delays enter as exp(-j*omega*delay), so they may be fractional or
    negative, matching the estimator's convention. Noise, when requested,
    is circular complex white Gaussian with variance ``noise_var`` per time
    sample. Fading is drawn from the stream ``default_rng([seed, 0])``,
    the noise of bins 0..N/2 from ``default_rng([seed, 1])`` and that of
    bins N/2+1..N-1 from ``default_rng([seed, 2])``, each in snapshot order
    with a fixed count per snapshot. So a shorter run is a prefix of a
    longer one with the same seed, and the fading coefficients do not
    depend on ``noise_var``, M or N.

    ``half`` keeps only bins 0..N/2, which equal the full set's bit for bit;
    it never draws from stream 2, so it draws half the normals.
    """
    n = len(pulse)
    if len(paths) == 0:
        raise ValidationError("at least one path is required")
    for p in paths:
        p.validate(num_samples=n)
    if num_snapshots < 1:
        raise ValidationError(f"snapshots must be >= 1, got {num_snapshots}")
    if not (np.isfinite(noise_var) and noise_var >= 0):
        raise ValidationError(f"noise_var must be finite and >= 0, got {noise_var}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    upper = n // 2 + 1  # stream 2's first bin
    kept = upper if half else n

    m = arr.num_sensors
    try:
        # fixed across snapshots; steering_vector checks the array and draw the fading model
        delayed = delayed_pulse_spectrum(spectrum(pulse), [p.delay for p in paths])
        steering = steering_vector(arr, [p.angle_deg for p in paths])
        betas = fading.draw(np.random.default_rng([seed, 0]), (num_snapshots, len(paths)))
        if noise_var == 0:
            # one GEMM: (kept, L) delayed spectra by C-ordered (L, S*M) coefficients, no copy
            coef = np.multiply(betas.T[:, :, None], steering[:, None, :], order="C")
            bins = (delayed[:kept] @ coef.reshape(len(paths), -1)).reshape(kept, num_snapshots, m)
        else:
            coef = betas[:, :, None] * steering
            # The DFT of white CN(0, noise_var) samples is white CN(0, N * noise_var) per bin.
            # Each stream fills its bins in snapshot order into one reused block, stored
            # transposed; stream 2 is never built when no bin of it is kept.
            bins = np.empty((kept, num_snapshots, m), dtype=complex)
            streams = ((1, 0, upper), (2, upper, kept)) if kept > upper else ((1, 0, upper),)
            for key, first, stop in streams:
                noise_rng = np.random.default_rng([seed, key])
                step = max(1, NOISE_ROWS // (stop - first))
                chunk = np.empty((min(step, num_snapshots), stop - first, m), dtype=complex)
                for start in range(0, num_snapshots, step):
                    block = chunk[: num_snapshots - start]
                    noise_rng.standard_normal(out=block.view(float))
                    block *= np.sqrt(n * noise_var / 2.0)
                    block += delayed[first:stop] @ coef[start:start + len(block)]
                    bins[first:stop, start:start + len(block)] = block.transpose(1, 0, 2)
    except MemoryError as exc:  # the sizes are settings: too large is a bad setting
        raise ValidationError(f"snapshots={num_snapshots} on {m} sensors: {exc}") from exc

    return SnapshotSet(bins=bins, spacing=arr.spacing, half=half)


def save_dataset(snaps: SnapshotSet, path) -> None:
    """Write snapshots as text: a header line, then one sensor per line.

    Format: ``JADE1 M=<sensors> N=<samples> S=<snapshots> delta=<spacing>``
    followed by S*M lines (snapshot-major), each holding N comma-separated
    ``re:im`` complex samples. A half set has no time series to write.
    """
    if snaps.half:
        raise ValidationError("a half set (bins 0..N/2 only) cannot be saved as a dataset")
    n, s_count, m = snaps.bins.shape
    with open(path, "w") as fh:
        fh.write(f"{DATASET_MAGIC} M={m} N={n} S={s_count} delta={float(snaps.spacing)!r}\n")
        for s in range(s_count):
            for row in np.fft.ifft(snaps.bins[:, s].T, axis=-1):
                fh.write(
                    ",".join(f"{float(v.real)!r}:{float(v.imag)!r}" for v in row)
                )
                fh.write("\n")


def _parse_header(line: str) -> dict:
    parts = line.split()
    if not parts or parts[0] != DATASET_MAGIC:
        raise ValidationError(f"not a {DATASET_MAGIC} dataset (bad header)")
    fields = dict(tok.partition("=")[::2] for tok in parts[1:])
    try:
        if len(parts) != 5 or fields.keys() != {"M", "N", "S", "delta"}:
            raise ValueError("need M, N, S and delta, each once, and nothing else")
        return {
            "M": int(fields["M"]),
            "N": int(fields["N"]),
            "S": int(fields["S"]),
            "delta": float(fields["delta"]),
        }
    except ValueError as exc:
        raise ValidationError(f"malformed dataset header: {line!r}") from exc


def load_dataset(path) -> SnapshotSet:
    """Read a dataset written by :func:`save_dataset`.

    Each snapshot's M lines are parsed into one reused (M, N) buffer whose
    DFT is stored into ``bins``, so the full time series is never held.
    """
    with open_text(path) as fh:
        header = _parse_header(fh.readline().strip())
        m, n, s_count = header["M"], header["N"], header["S"]
        ArrayConfig(num_sensors=m, spacing=header["delta"]).validate()
        if s_count < 1 or n < 2:
            raise ValidationError(
                f"dataset header needs S >= 1 and N >= 2, got S={s_count} N={n}"
            )
        try:
            bins = np.empty((n, s_count, m), dtype=complex)
        except MemoryError as exc:
            raise ValidationError(f"dataset header M={m} N={n} S={s_count}: {exc}") from exc
        series = np.empty((m, n), dtype=complex)
        separators = b":," * (n - 1) + b":"  # what a line holds once its numbers are deleted
        for s in range(s_count):
            for k in range(m):
                line = fh.readline()
                if not line:
                    raise ValidationError(
                        f"dataset truncated at snapshot {s}, sensor {k}"
                    )
                if line.encode().translate(None, _NOT_A_SEPARATOR) != separators:
                    raise ValidationError(
                        f"expected {n} comma-separated re:im pairs (snapshot {s}, sensor {k})"
                    )
                cells = line.strip().replace(":", ",").split(",")
                try:
                    # the re, im pairs are a complex row's memory layout
                    series[k] = np.asarray(cells, dtype=float).view(complex)
                except ValueError as exc:
                    raise ValidationError(
                        f"non-numeric sample at snapshot {s}, sensor {k}"
                    ) from exc
                if not np.isfinite(series[k]).all():
                    raise ValidationError(f"non-finite sample at snapshot {s}, sensor {k}")
            bins[:, s] = np.fft.fft(series, axis=-1).T
        if any(line.strip() for line in fh):
            raise ValidationError(f"dataset has data lines beyond the header's S={s_count}")
    return SnapshotSet(bins=bins, spacing=header["delta"])
