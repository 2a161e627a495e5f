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


def fading_power(fading):
    """E|beta|^2 of a FadingModel in closed form (reference for the power checks and CRBs)."""
    if fading.kind == "deterministic":
        return abs(fading.beta) ** 2
    scatter = 2.0 * fading.sigma**2
    if fading.kind == "rayleigh":
        return scatter
    if fading.kind == "rician":
        return fading.nu**2 + scatter
    # suzuki: E[10^(X/10)] for X ~ N(mean_db, std_db^2) is the lognormal mean
    ln10 = np.log(10.0)
    return scatter * np.exp((fading.std_db * ln10 / 10.0) ** 2 / 2.0 + fading.mean_db * ln10 / 10.0)


def spectra(snaps):
    """(snapshot, sensor, bin) view of a snapshot set's bin-major spectra."""
    return snaps.bins.transpose(1, 2, 0)


def time_series(snaps):
    """(snapshot, sensor, time) series of a snapshot set: the inverse DFT of its spectra."""
    return np.fft.ifft(spectra(snaps), axis=-1)
