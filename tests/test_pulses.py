import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lambdadet.errors import LambdaModeError
from lambdadet.pulses import (
    KIND_FLAT_TOP,
    KIND_GAUSSIAN,
    ROLE_DRIVE,
    ROLE_RESET,
    ROLE_SIGNAL,
    PulseEnvelope,
    auto_drive_length,
    detection_schedule,
    flat_top_drive,
    flat_top_input,
    gaussian_signal,
    reset_schedule,
    stage_duration,
)

TWO_PI = 2.0 * np.pi


@settings(max_examples=20, deadline=None)
@given(
    t_s=st.floats(min_value=10e-9, max_value=500e-9),
    nbar=st.floats(min_value=1e-3, max_value=50.0),
)
def test_gaussian_photon_normalization(t_s, nbar):
    env = gaussian_signal(nbar, t_s, center=1e-6, carrier=0.0)
    lo, hi = env.support()
    integral, _ = quad(lambda t: env.value(t) ** 2, lo, hi, limit=200)
    assert integral == pytest.approx(nbar, rel=1e-6)


def test_flat_top_photon_normalization():
    env = flat_top_input(43.0, 380e-9, center=1e-6, carrier=0.0, t_rise=15e-9)
    lo, hi = env.support()
    integral, _ = quad(lambda t: env.value(t) ** 2, lo, hi, limit=400)
    assert integral == pytest.approx(43.0, rel=1e-9)


def test_gaussian_truncation():
    env = gaussian_signal(1.0, 100e-9, center=0.0, carrier=0.0)
    sigma = env.sigma
    assert env.value(4.001 * sigma) == 0.0
    assert env.value(3.999 * sigma) > 0.0


def test_flat_top_continuity():
    env = flat_top_drive(1e8, 200e-9, center=0.0, carrier=0.0, t_rise=15e-9)
    ts = np.linspace(*env.support(), 4001)
    vals = env.values(ts)
    # continuous: adjacent samples never jump by more than the local slope allows
    assert np.max(np.abs(np.diff(vals))) < 0.02 * env.amplitude
    assert env.value(0.0) == env.amplitude
    assert env.value(99.9e-9) == env.amplitude


def test_auto_drive_length():
    assert auto_drive_length(85e-9) == pytest.approx(177.5e-9)
    assert stage_duration(auto_drive_length(85e-9), 15e-9) == pytest.approx(207.5e-9)
    assert stage_duration(380e-9, 15e-9) == pytest.approx(410e-9)


def test_detection_schedule_layout(params, cfg, detect):
    sched = detection_schedule(params, dataclasses.replace(detect, rabi=1e8))
    # the entries are the tones only; the readout is an event time
    assert [role for role, _ in sched.entries] == [ROLE_DRIVE, ROLE_SIGNAL]
    envelopes = dict(sched.entries)
    drive, signal = envelopes[ROLE_DRIVE], envelopes[ROLE_SIGNAL]
    assert drive.width == pytest.approx(auto_drive_length(85e-9))
    assert drive.center == pytest.approx(signal.center)
    # drive plateau covers the signal-pulse FWHM
    assert drive.width / 2 > signal.width / 2
    assert sched.marker_times == (drive.center + drive.width / 2 + detect.t_rise,)
    assert sched.pi_times == ()
    assert sched.frame.qubit_ref == cfg.omega_d
    assert sched.frame.resonator_ref == cfg.get("signal_freq")


def test_reset_schedule_layout(params, reset):
    sched = reset_schedule(params, dataclasses.replace(reset, rabi_dr=1e8))
    assert [role for role, _ in sched.entries] == [ROLE_DRIVE, ROLE_RESET]
    assert sched.pi_times == (0.0,)
    assert len(sched.marker_times) == 1
    no_pi = reset_schedule(params, reset, with_initial_pi=False)
    assert no_pi.pi_times == () and no_pi.marker_times == sched.marker_times
    envelopes = dict(sched.entries)
    drive, reset = envelopes[ROLE_DRIVE], envelopes[ROLE_RESET]
    assert drive.center == reset.center
    assert drive.width == reset.width
    integral, _ = quad(lambda t: reset.value(t) ** 2, *reset.support(), limit=400)
    assert integral == pytest.approx(43.0, rel=1e-9)


def test_builders_check_nesting(params, detect, reset):
    """Both builders reject a drive outside 0 < omega_ge - omega_d < 2 chi;
    the detection builder only when the drive is on."""
    omega_d = params.omega_ge - 3.0 * params.chi
    with pytest.raises(LambdaModeError):
        detection_schedule(params, dataclasses.replace(detect, omega_d=omega_d))
    with pytest.raises(LambdaModeError):
        reset_schedule(params, dataclasses.replace(reset, omega_d=omega_d))
    with pytest.raises(LambdaModeError):
        reset_schedule(params, dataclasses.replace(reset, rabi_dr=0.0, omega_d=omega_d))
    off = detection_schedule(params, dataclasses.replace(detect, rabi=0.0, omega_d=omega_d))
    assert off.frame.qubit_ref == omega_d


@pytest.mark.parametrize(
    "bad, message", [({"t_s": 0.0}, "t_s must be > 0"), ({"nbar_s": -1.0}, "nbar must be >= 0")]
)
def test_bad_signal_fails_before_a_bad_drive(params, detect, bad, message):
    """The detection builder takes its t_s and nbar_s checks from
    ``gaussian_signal``: a bad value raises a plain ValueError even when the
    drive is also outside the nesting condition."""
    settings = dataclasses.replace(detect, omega_d=params.omega_ge - 3.0 * params.chi, **bad)
    with pytest.raises(ValueError, match=message) as raised:
        detection_schedule(params, settings)
    assert raised.type is ValueError


def test_envelope_validation():
    with pytest.raises(ValueError):
        PulseEnvelope("wiggle", 0.0, 1e-9)
    with pytest.raises(ValueError):
        PulseEnvelope(KIND_GAUSSIAN, 0.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_signal(-1.0, 85e-9, 0.0, 0.0)


def test_flat_top_edges_match_value_and_slope():
    env = flat_top_drive(1e8, 100e-9, center=0.0, carrier=0.0, t_rise=15e-9)
    edge = 50e-9
    eps = 1e-12
    inside = env.value(edge - eps)
    outside = env.value(edge + eps)
    assert inside == pytest.approx(env.amplitude)
    assert outside == pytest.approx(env.amplitude, rel=1e-6)
    # slope continuous at the plateau boundary (zero on both sides)
    d_out = (env.value(edge + 2e-12) - env.value(edge + 1e-12)) / 1e-12
    assert abs(d_out) < 1e-3 * env.amplitude / 15e-9
