import numpy as np
import pytest

from jade import PulseConfig, generate_pulse, spectrum


@pytest.fixture(scope="session")
def keyed_pulse():
    """Default-scenario pulse with a fixed bit draw."""
    cfg = PulseConfig(rolloff=0.35, carrier_freq=0.25, symbol_count=32, oversample=4, bits_seed=1)
    wave = generate_pulse(cfg)
    return cfg, wave, spectrum(wave)


@pytest.fixture(scope="session")
def plain_pulse():
    """Same pulse with all-zero bits: no phase keying, clean passband."""
    cfg = PulseConfig(
        rolloff=0.35, carrier_freq=0.25, symbol_count=32, oversample=4, bits=[0] * 32
    )
    wave = generate_pulse(cfg)
    return cfg, wave, spectrum(wave)


def wrap_to_principal(phi):
    """Map angles to (-pi, pi] (test-local reference implementation)."""
    phi = np.asarray(phi, dtype=float)
    wrapped = np.angle(np.exp(1j * phi))
    # np.angle returns [-pi, pi]; fold exact -pi up to +pi for (-pi, pi]
    return np.where(wrapped == -np.pi, np.pi, wrapped)


def spectra(snaps):
    """(snapshot, sensor, bin) view of a snapshot set's bin-major spectra."""
    return snaps.bins.transpose(1, 2, 0)


def time_series(snaps):
    """(snapshot, sensor, time) series of a snapshot set: the inverse DFT of its spectra."""
    return np.fft.ifft(spectra(snaps), axis=-1)
