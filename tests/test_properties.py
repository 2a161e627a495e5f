"""Property tests: every scenario that validates round-trips through its echo."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from jade import scenario_from_dict  # noqa: E402
from jade.cli import _load_scenario, build_parser  # noqa: E402


def finite(lo=-1e6, hi=1e6, **kw):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False, **kw)


def optional(strategy):
    return st.one_of(st.none(), strategy)


# the parameters of each fading kind, each left out or set to a legal value
FADING_PARAMS = {
    "deterministic": {"beta_re": finite(), "beta_im": finite()},
    "rayleigh": {"sigma": finite(0.0, 1e3, exclude_min=True)},
    "rician": {"nu": finite(0.0, 1e3), "sigma": finite(0.0, 1e3, exclude_min=True)},
    "suzuki": {"sigma": finite(0.0, 1e3, exclude_min=True), "mean_db": finite(-60.0, 60.0),
               "std_db": finite(0.0, 30.0)},
}


@st.composite
def scenario_keys(draw):
    """A key map that validates: 1-6 paths with fractional or negative delays."""
    symbols = 2 * draw(st.integers(1, 32))  # the pulse window needs an even symbol count
    oversample = draw(st.integers(1, 8))
    half = symbols * oversample / 2
    sensors = draw(st.integers(2, 256))
    # the pencil order max(L, (2M-1)//3) fits the 2M-1 lags for L <= M-1 paths
    paths = draw(st.lists(
        st.tuples(finite(-90.0, 90.0, exclude_min=True, exclude_max=True),
                  finite(-half, half, exclude_min=True, exclude_max=True)),
        min_size=1, max_size=min(6, sensors - 1)))
    kind = draw(st.sampled_from(sorted(FADING_PARAMS)))
    raw = {
        "rolloff": draw(finite(0.0, 1.0, exclude_min=True)),
        "carrier_freq": draw(finite(0.0, 10.0)),
        "symbols": symbols,
        "oversample": oversample,
        "sensors": sensors,
        "spacing": draw(finite(0.0, 0.5, exclude_min=True)),
        "angles_deg": [a for a, _ in paths],
        "delays": [d for _, d in paths],
        "fading": kind,
        "snapshots": draw(st.integers(1, 10_000)),
        "noise_var": draw(finite(0.0, 1e4)),
        "band_threshold": draw(finite(0.0, 1.0, exclude_max=True)),
        "seed": draw(st.integers(0, 2**32)),
        # bits, a bits seed or neither: a seed beside the bits is rejected
        **draw(st.one_of(st.just({}),
                         st.fixed_dictionaries({"bits": st.text("01", min_size=symbols,
                                                                max_size=symbols)}),
                         st.fixed_dictionaries({"bits_seed": st.integers(0, 2**32)}))),
        **{key: draw(optional(value)) for key, value in FADING_PARAMS[kind].items()},
    }
    return {key: value for key, value in raw.items() if value is not None}


def as_text(echo):
    """The echo as the strings a config file or ``--set`` delivers."""
    return {k: ",".join(map(str, v)) if isinstance(v, list) else str(v) for k, v in echo.items()}


@settings(max_examples=300, deadline=None)
@given(scenario_keys())
def test_echo_rebuilds_the_scenario(raw):
    cfg = scenario_from_dict(raw)
    echo = cfg.to_dict()
    again = scenario_from_dict(echo)
    assert again.to_dict() == echo
    assert again == cfg
    assert scenario_from_dict(as_text(echo)).to_dict() == echo


@settings(max_examples=100, deadline=None)
@given(scenario_keys())
def test_echo_rebuilds_the_scenario_through_set(raw):
    echo = scenario_from_dict(raw).to_dict()
    argv = ["run", *[arg for k, v in as_text(echo).items() for arg in ("--set", f"{k}={v}")]]
    assert _load_scenario(build_parser().parse_args(argv)).to_dict() == echo
