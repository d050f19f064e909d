import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from lambdadet import response
from lambdadet.dressed import dressed_states, matching_amplitude, transition_frequency
from lambdadet.dynamics import steady_state
from lambdadet.errors import DipResolutionError, LambdaDetError
from lambdadet.hilbert import annihilation, build_space
from lambdadet.model import (
    Frame,
    collapse_operators,
    drive_noise_channels,
    hamiltonian_static,
    input_quadratures,
)
from lambdadet.response import (
    PASSIVITY_TOL,
    ReflectionMap,
    calibrate_signal_power,
    calibration_params,
    default_probe_amplitude,
    dip_map,
    find_matching_point,
    pdiff_spectrum,
    reflection_coefficient,
    reflection_row,
    signal_flux_of_dbm,
)

TWO_PI = 2.0 * np.pi


def probe_converged(params, omega_d, rabi, omega_s, probe_amp, tol=1e-3, **kw):
    """True when halving the probe amplitude moves |r| by less than tol."""
    r_full = reflection_coefficient(params, omega_d, rabi, omega_s, probe_amp, **kw)
    r_half = reflection_coefficient(params, omega_d, rabi, omega_s, probe_amp / 2.0, **kw)
    return abs(abs(r_full) - abs(r_half)) < tol


def kron_built_r(params, omega_d, rabi, omega_s, probe_amp, n_max):
    """r from steady_state on the kron-built Liouvillian of one point."""
    space = build_space(n_max)
    frame = Frame(omega_d, omega_s)
    h = hamiltonian_static(params, frame, rabi, omega_d, space=space).matrix
    h = h + math.sqrt(params.kappa_ext) * probe_amp * input_quadratures(space)[0]
    collapses = collapse_operators(params, space) + drive_noise_channels(params, space, rabi)
    rho = steady_state(h, collapses, frame=frame, space=space)
    a_mean = complex(np.trace(annihilation(space) @ rho.matrix))
    return -1.0 + math.sqrt(params.kappa_ext) * a_mean / probe_amp


def test_hbar_is_scipys():
    """response.HBAR comes from the SI's exact h, so that the package need
    not load scipy.constants; it is scipy's value bit for bit."""
    from scipy.constants import hbar

    assert response.HBAR == hbar


class TestReflectionCoefficient:
    def test_far_detuned_full_reflection(self, clean_params, omega_d, n_max):
        p = clean_params
        r = reflection_coefficient(p, omega_d, 0.0, p.omega_r + 150 * p.kappa, n_max=n_max)
        assert abs(r) == pytest.approx(1.0, abs=1e-3)

    def test_empty_cavity_one_port_formula(self, clean_params, omega_d, n_max):
        p = clean_params
        r = reflection_coefficient(p, omega_d, 0.0, p.omega_r, n_max=n_max)
        expected = (p.kappa_ext - p.kappa_int) / p.kappa
        assert expected == pytest.approx(2 * 0.964 - 1)
        assert abs(r) == pytest.approx(expected, abs=1e-4)

    def test_matched_point_dip(self, params, omega_d, n_max):
        """Near the matched drive the resonant probe is almost fully absorbed.

        Internal loss and qubit decay shift the deepest dip slightly off the
        balanced amplitude, so locate it with a local map first.
        """
        pd = np.linspace(-77.5, -74.5, 13)
        freqs = TWO_PI * np.linspace(10.262e9, 10.272e9, 11)
        point = find_matching_point(dip_map(params, omega_d, pd, freqs, n_max=n_max))
        r = reflection_coefficient(
            params, omega_d, params.rabi_of_dbm(point.p_d_dbm), point.omega_s, n_max=n_max
        )
        assert 20 * math.log10(abs(r)) < -25.0

    def test_probe_convergence(self, params, omega_d, n_max):
        rabi = params.rabi_of_dbm(-75.7)
        omega_s = TWO_PI * 10.268e9
        amp = default_probe_amplitude(params)
        assert probe_converged(params, omega_d, rabi, omega_s, amp, n_max=n_max)


def test_row_stack_matches_point_solves(params, omega_d, n_max):
    """A map row solved as one stack gives each point's own steady-state r."""
    rabi = params.rabi_of_dbm(-75.5)
    freqs = TWO_PI * np.linspace(10.243e9, 10.293e9, 21)
    amps = [math.sqrt(signal_flux_of_dbm(-145.65, w)) for w in freqs]
    r, errors = reflection_row(params, omega_d, rabi, freqs, amps, n_max=n_max)
    assert errors == [None] * len(freqs)
    for value, w, amp in zip(r, freqs, amps):
        assert abs(value - kron_built_r(params, omega_d, rabi, w, amp, n_max)) <= 1e-12


@pytest.fixture(scope="module")
def small_map(params, omega_d, n_max):
    pd = np.linspace(-77.5, -74.5, 7)
    freqs = TWO_PI * np.linspace(10.262e9, 10.272e9, 7)
    return dip_map(params, omega_d, pd, freqs, n_max=n_max)


class TestDipMap:
    def test_passivity(self, small_map):
        assert np.max(np.abs(small_map.r)) <= 1.0 + PASSIVITY_TOL

    def test_probe_linearity(self, params, omega_d, small_map, n_max):
        half = dip_map(
            params,
            omega_d,
            small_map.p_d_dbm,
            small_map.omega_s,
            small_map.probe_amp / 2.0,
            n_max=n_max,
        )
        assert np.max(np.abs(np.abs(half.r) - np.abs(small_map.r))) < 1e-3

    def test_zero_drive_column_is_bare_lorentzian(self, clean_params, omega_d, n_max):
        p = clean_params
        freqs = p.omega_r + np.linspace(-3, 3, 41) * p.kappa
        mags = [abs(reflection_coefficient(p, omega_d, 0.0, w, n_max=n_max)) for w in freqs]
        # single symmetric dip centered on the bare resonance
        assert np.argmin(mags) == 20
        detuning = freqs - p.omega_r
        expected = np.abs(-1 + p.kappa_ext / (p.kappa / 2 - 1j * detuning))
        assert np.max(np.abs(np.array(mags) - expected)) < 1e-3

    def test_monotone_grid_required(self, params, omega_d, n_max):
        with pytest.raises(ValueError):
            dip_map(params, omega_d, [-76.0, -76.0], TWO_PI * np.array([10.26e9, 10.27e9]),
                    n_max=n_max)

    def test_find_matching_point(self, small_map):
        point = find_matching_point(small_map)
        assert not point.on_boundary
        assert point.min_abs_r <= np.nanmin(np.abs(small_map.r))

    def test_find_matching_point_all_nan(self):
        r = np.full((2, 2), complex(np.nan, np.nan))
        rmap = ReflectionMap(
            np.array([-76.0, -75.0]), TWO_PI * np.array([10.26e9, 10.27e9]), r,
            1.0, [(0, 0, "solve failed")],
        )
        with pytest.raises(LambdaDetError, match="solve failed"):
            find_matching_point(rmap)

    def test_dip_frequency_matches_dressed_transition(self, params, omega_d, n_max):
        """At matched power the |r| minimum sits on the |1~> -> |4~> line.

        Checked at the acceptance-map resolution (2.5 MHz steps); the loss
        channels pull the scattering resonance about 1.7 MHz below the bare
        dressed frequency, which stays within one grid step.
        """
        rabi = matching_amplitude(params, omega_d)
        w14 = transition_frequency(dressed_states(params, omega_d, rabi), 1, 4)
        freqs = TWO_PI * np.linspace(10.243e9, 10.293e9, 21)
        step = freqs[1] - freqs[0]
        mags = [abs(reflection_coefficient(params, omega_d, rabi, w, n_max=n_max)) for w in freqs]
        assert abs(freqs[int(np.argmin(mags))] - w14) < step

    def test_two_dips_along_frequency(self, params, omega_d, n_max):
        """At matched power, the |4~> and |3~> branches each show a dip."""
        rabi = matching_amplitude(params, omega_d)
        p_dbm = params.dbm_of_rabi(rabi)
        freqs = TWO_PI * np.linspace(10.215e9, 10.285e9, 141)
        mags = np.array(
            [abs(reflection_coefficient(params, omega_d, rabi, w, n_max=n_max)) for w in freqs]
        )
        interior = (mags[1:-1] < mags[:-2]) & (mags[1:-1] < mags[2:])
        minima = freqs[1:-1][interior & (mags[1:-1] < 0.5)]
        assert len(minima) == 2
        ladder = dressed_states(params, omega_d, rabi)
        w13 = transition_frequency(ladder, 1, 3)
        w14 = transition_frequency(ladder, 1, 4)
        assert abs(minima[0] - w13) < TWO_PI * 3e6
        assert abs(minima[1] - w14) < TWO_PI * 3e6


class TestPdiff:
    def test_flux_conversion(self):
        # -145.65 dBm at 10.23 GHz is about 4.0e5 photons per second
        flux = signal_flux_of_dbm(-145.65, TWO_PI * 10.23e9)
        assert flux == pytest.approx(4.0e5, rel=0.02)

    def test_weak_signal_lossless_limit(self, clean_params, pdiff_omega_d, n_max):
        """Both dips coincide without internal loss at vanishing signal.

        The linear-response regime needs the photon flux well below the
        qubit return rate, so the probe sits at -195 dBm against a 10 kHz
        decay rate (flux / Gamma ~ 1e-6).
        """
        p = dataclasses.replace(
            clean_params, kappa_ext_ratio=1.0, gamma=TWO_PI * 1e4
        )
        res = pdiff_spectrum(p, pdiff_omega_d, -195.0, n_max=n_max)
        assert res.p_diff_db < 0.25

    def test_monotone_in_signal_power(self, params, cfg, pdiff_omega_d, n_max):
        cal = calibration_params(params, cfg.get("gamma_calibration"))
        ladder = [-151.0, -148.0, -145.65, -143.5]
        values = [
            pdiff_spectrum(
                cal, pdiff_omega_d, ps, power_points=17, freq_points=15,
                power_halfspan_db=7.0, n_max=n_max,
            ).p_diff_db
            for ps in ladder
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_unresolved_dips_error(self, params, cfg, pdiff_omega_d, n_max):
        cal = calibration_params(params, cfg.get("gamma_calibration"))
        with pytest.raises(DipResolutionError):
            # window too narrow to contain the strongly separated dips
            pdiff_spectrum(
                cal, pdiff_omega_d, -138.0, power_halfspan_db=1.5, power_points=7, n_max=n_max
            )

    def test_shared_power_scan_gives_the_same_result(self, params, cfg, pdiff_omega_d, n_max):
        cal = calibration_params(params, cfg.get("gamma_calibration"))
        p_s = cfg.get("pdiff_signal_power")
        alone = pdiff_spectrum(cal, pdiff_omega_d, p_s, power_points=17, freq_points=15,
                               n_max=n_max)
        scan = response._power_scan(cal, pdiff_omega_d, 6.0, 17)
        assert response._dip_separation(cal, scan, p_s, n_max=n_max, freq_points=15) == alone

    def test_dip_frequencies_match_reported_cross_sections(self, params, cfg, pdiff_omega_d,
                                                           n_max):
        """The two branch dips sit at the reported 10.227 / 10.262 GHz."""
        cal = calibration_params(params, cfg.get("gamma_calibration"))
        res = pdiff_spectrum(cal, pdiff_omega_d, cfg.get("pdiff_signal_power"), n_max=n_max)
        assert res.omega_dip3 == pytest.approx(TWO_PI * 10.227e9, abs=TWO_PI * 3e6)
        assert res.omega_dip4 == pytest.approx(TWO_PI * 10.262e9, abs=TWO_PI * 3e6)


def _cubic(p_s):
    """A synthetic P_diff, monotone in P_s, that crosses 6 dB at -146.3 dBm."""
    x = p_s + 146.3
    return 6.0 + 0.6 * x + 0.05 * x**3


@pytest.fixture
def fake_pdiff(monkeypatch):
    """Replaces the calibration's P_diff at one signal power by a synthetic
    P_diff, and the power scan it shares by nothing; returns the powers it
    saw. The calibration's params and drive frequency then go unused, and
    the tests pass None."""
    calls = []

    def install(p_diff):
        def fake(params, scan, p_s, **kw):
            calls.append(p_s)
            return SimpleNamespace(p_diff_db=p_diff(p_s))

        monkeypatch.setattr(response, "_dip_separation", fake)
        monkeypatch.setattr(response, "_power_scan", lambda *args: None)
        return calls

    return install


class TestCalibrateSignalPower:
    def test_stops_at_the_first_power_within_tol(self, fake_pdiff, n_max):
        calls = fake_pdiff(_cubic)
        cal = calibrate_signal_power(None, None, n_max=n_max)
        # bisection on the same bracket evaluates 7 powers
        assert calls == pytest.approx([-150.0, -141.0, -147.2182, -146.8449, -146.3701], abs=1e-4)
        assert cal.p_s_dbm == calls[-1]
        assert cal.p_diff_db == _cubic(cal.p_s_dbm)
        assert cal.residual_db == pytest.approx(cal.p_diff_db - 6.0)
        assert abs(cal.residual_db) < 0.05
        assert all(abs(_cubic(p) - 6.0) >= 0.05 for p in calls[:-1])
        assert cal.flags == ""

    @pytest.mark.parametrize("end, n_calls", [(-150.0, 1), (-141.0, 2)])
    def test_a_bracket_end_within_tol_is_returned(self, fake_pdiff, end, n_calls, n_max):
        calls = fake_pdiff(lambda p_s: 6.0 + 0.3 * (p_s - end))
        cal = calibrate_signal_power(None, None, n_max=n_max)
        assert len(calls) == n_calls
        assert (cal.p_s_dbm, cal.p_diff_db, cal.flags) == (end, 6.0, "")

    def test_xtol_fallback_returns_the_best_evaluated_point(self, fake_pdiff, n_max):
        calls = fake_pdiff(_cubic)
        cal = calibrate_signal_power(None, None, tol_db=1e-9, n_max=n_max)
        residuals = [_cubic(p) - 6.0 for p in calls]
        best = min(range(len(calls)), key=lambda k: abs(residuals[k]))
        assert best != len(calls) - 1  # the last power is not the closest one
        assert (cal.p_s_dbm, cal.residual_db) == (calls[best], residuals[best])
        assert cal.flags == f"p_diff-unconverged:{residuals[best]:.2e};"

    def test_every_pdiff_call_shares_one_power_scan(self, monkeypatch, n_max):
        scans, seen = [], []

        def scan(*args):
            scans.append(args)
            return "scan"

        def fake(params, built, p_s, **kw):
            seen.append(built)
            return SimpleNamespace(p_diff_db=_cubic(p_s))

        monkeypatch.setattr(response, "_power_scan", scan)
        monkeypatch.setattr(response, "_dip_separation", fake)
        calibrate_signal_power(None, None, n_max=n_max)
        assert scans == [(None, None, 8.0, 33)] and seen == ["scan"] * 5

    @pytest.mark.parametrize("bracket", [(-141.0, -150.0), (-146.0, -146.0), (math.nan, -141.0)])
    def test_empty_bracket(self, fake_pdiff, bracket, n_max):
        calls = fake_pdiff(_cubic)
        with pytest.raises(DipResolutionError, match="empty"):
            calibrate_signal_power(None, None, bracket_dbm=bracket, n_max=n_max)
        assert calls == []

    @pytest.mark.parametrize("shift", [-20.0, 20.0])
    def test_bracket_that_does_not_straddle(self, fake_pdiff, shift, n_max):
        fake_pdiff(lambda p_s: _cubic(p_s) + shift)
        with pytest.raises(DipResolutionError, match="does not straddle"):
            calibrate_signal_power(None, None, n_max=n_max)

    @pytest.mark.parametrize("bad_end", [-150.0, -141.0])
    @pytest.mark.parametrize("bad_value", [math.nan, math.inf])
    def test_non_finite_pdiff_at_a_bracket_end(self, fake_pdiff, bad_end, bad_value, n_max):
        calls = fake_pdiff(lambda p_s: bad_value if p_s == bad_end else _cubic(p_s))
        with pytest.raises(DipResolutionError, match="not finite"):
            calibrate_signal_power(None, None, n_max=n_max)
        assert calls[-1] == bad_end
