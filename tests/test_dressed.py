import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdadet.dressed import (
    dressed_states,
    fit_drive_calibration,
    matching_amplitude,
    raman_rates,
    transition_frequency,
)
from lambdadet.errors import LambdaModeError, MatchingPointError

TWO_PI = 2.0 * np.pi


def two_level_eigs(delta, rabi):
    """Closed-form 2x2 diagonalization oracle for [[0, r/2], [r/2, delta]]."""
    root = math.sqrt(delta * delta + rabi * rabi)
    return 0.5 * (delta - root), 0.5 * (delta + root)


def two_level_angle(delta, rabi):
    """Mixing angle of the same block: tan(2 theta) = rabi / delta."""
    return 0.5 * math.atan2(rabi, delta)


def test_zero_drive_bare_states(params, omega_d):
    ladder = dressed_states(params, omega_d, 0.0)
    delta = params.omega_ge - omega_d
    assert ladder.energy(1) == pytest.approx(0.0, abs=1.0)
    assert ladder.energy(2) == pytest.approx(delta, rel=1e-12)
    # eigenvectors equal the bare basis states
    assert abs(ladder.vector(1)[0]) == pytest.approx(1.0)
    assert abs(ladder.vector(2)[1]) == pytest.approx(1.0)
    assert abs(ladder.vector(3)[3]) == pytest.approx(1.0)
    assert abs(ladder.vector(4)[2]) == pytest.approx(1.0)


def test_lower_doublet_splitting_closed_form(params, omega_d):
    delta = params.omega_ge - omega_d
    for rabi in (TWO_PI * 5e6, TWO_PI * 31e6, TWO_PI * 80e6):
        ladder = dressed_states(params, omega_d, rabi)
        split = ladder.energy(2) - ladder.energy(1)
        assert split == pytest.approx(math.hypot(delta, rabi), rel=1e-12)


def test_general_solver_matches_closed_form(params, omega_d):
    """Both doublets match the independent 2x2 analytic diagonalization."""
    delta0 = params.omega_ge - omega_d
    delta1 = delta0 - 2.0 * params.chi
    offset = params.omega_r - omega_d
    for rabi in np.linspace(TWO_PI * 1e6, TWO_PI * 120e6, 25):
        ladder = dressed_states(params, omega_d, rabi)
        lo0, hi0 = two_level_eigs(delta0, rabi)
        lo1, hi1 = two_level_eigs(delta1, rabi)
        scale = abs(offset)
        assert ladder.energy(1) == pytest.approx(lo0, abs=1e-10 * scale)
        assert ladder.energy(2) == pytest.approx(hi0, abs=1e-10 * scale)
        # upper doublet: |3~> is the |e,1>-like (lower) branch
        assert ladder.energy(3) == pytest.approx(offset + lo1, abs=1e-10 * scale)
        assert ladder.energy(4) == pytest.approx(offset + hi1, abs=1e-10 * scale)


def test_orthonormality(params, omega_d):
    ladder = dressed_states(params, omega_d, TWO_PI * 31e6)
    gram = ladder.vectors.conj().T @ ladder.vectors
    assert np.max(np.abs(gram - np.eye(4))) < 1e-10


def test_nesting_violation_raises(params):
    with pytest.raises(LambdaModeError):
        dressed_states(params, params.omega_ge + TWO_PI * 1e6, 1e6)
    with pytest.raises(LambdaModeError):
        dressed_states(params, params.omega_ge - 3 * params.chi, 1e6)


def test_zero_drive_rates(params, omega_d):
    rates = raman_rates(dressed_states(params, omega_d, 0.0), params)
    assert rates.k41 == pytest.approx(params.kappa, rel=1e-12)
    assert rates.k42 == pytest.approx(0.0, abs=1e-9 * params.kappa)


@settings(max_examples=30, deadline=None)
@given(rabi=st.floats(min_value=1e5, max_value=2e9))
def test_sum_rule_property(cfg, rabi):
    params, omega_d = cfg.params, cfg.omega_d
    rates = raman_rates(dressed_states(params, omega_d, rabi), params)
    assert rates.k31 + rates.k32 == pytest.approx(params.kappa, rel=1e-9)
    assert rates.k41 + rates.k42 == pytest.approx(params.kappa, rel=1e-9)


def test_sum_rule_grid(params, omega_d):
    for rabi in np.linspace(TWO_PI * 1e6, TWO_PI * 200e6, 50):
        rates = raman_rates(dressed_states(params, omega_d, rabi), params)
        assert rates.k41 + rates.k42 == pytest.approx(params.kappa, rel=1e-9)
        assert rates.k31 + rates.k32 == pytest.approx(params.kappa, rel=1e-9)


def test_monotonicity_before_crossing(params, omega_d):
    grid = np.linspace(TWO_PI * 1e6, TWO_PI * 150e6, 60)
    k41 = []
    k42 = []
    for rabi in grid:
        rates = raman_rates(dressed_states(params, omega_d, rabi), params)
        k41.append(rates.k41)
        k42.append(rates.k42)
    assert np.all(np.diff(k41) < 0)
    assert np.all(np.diff(k42) > 0)


def test_eigenvector_continuity(params, omega_d):
    grid = np.linspace(TWO_PI * 1e6, TWO_PI * 150e6, 200)
    prev = dressed_states(params, omega_d, grid[0])
    for rabi in grid[1:]:
        cur = dressed_states(params, omega_d, rabi)
        for i in range(1, 5):
            overlap = abs(np.vdot(prev.vector(i), cur.vector(i)))
            assert overlap > 0.999
        prev = cur


def test_matching_amplitude_unique_and_balanced(params, omega_d):
    """Bisection oracle: single sign change of k41 - k42 on (0, 10 * 2 chi]."""
    rabi_star = matching_amplitude(params, omega_d)
    grid = np.linspace(1e5, 10 * 2 * params.chi, 200)
    signs = []
    for rabi in grid:
        rates = raman_rates(dressed_states(params, omega_d, rabi), params)
        signs.append(np.sign(rates.k41 - rates.k42))
    assert np.count_nonzero(np.diff(signs)) == 1
    rates = raman_rates(dressed_states(params, omega_d, rabi_star), params)
    assert abs(rates.k41 - rates.k42) / params.kappa < 1e-6
    assert rates.k41 == pytest.approx(params.kappa / 2, rel=1e-5)
    # independent closed form: theta0 + theta1 = pi/4 at Omega* =
    # sqrt(delta * (2 chi - delta))
    delta = params.omega_ge - omega_d
    analytic = math.sqrt(delta * (2 * params.chi - delta))
    assert rabi_star == pytest.approx(analytic, rel=1e-5)


def test_no_matching_point_error(params):
    # delta > 2 chi has no nesting, so use a legal delta but an absurdly
    # small scan ceiling that cannot bracket the crossing
    omega_d = params.omega_ge - TWO_PI * 49e6
    with pytest.raises(MatchingPointError) as err:
        matching_amplitude(params, omega_d, rabi_max=TWO_PI * 1e6)
    assert err.value.scan_rabi is not None


def test_calibration_anchor(params, omega_d):
    constant = fit_drive_calibration(params, omega_d, anchor_dbm=-75.7)
    rabi_star = matching_amplitude(params, omega_d)
    assert constant * 10 ** (-75.7 / 20) == pytest.approx(rabi_star, rel=1e-9)
    # reported value: kappa_41 / kappa = 0.49 at -75.5 dBm
    calibrated = params.with_calibration(constant)
    rates = raman_rates(
        dressed_states(params, omega_d, calibrated.rabi_of_dbm(-75.5)), params
    )
    assert rates.k41 / params.kappa == pytest.approx(0.49, abs=0.02)


def test_transition_frequencies_bare(params, omega_d):
    ladder = dressed_states(params, omega_d, 0.0)
    assert transition_frequency(ladder, 1, 4) == pytest.approx(params.omega_r, rel=1e-12)
    assert transition_frequency(ladder, 2, 3) == pytest.approx(
        params.omega_r - 2 * params.chi, rel=1e-12
    )
    with pytest.raises(ValueError):
        transition_frequency(ladder, 1, 2)
    with pytest.raises(ValueError):
        transition_frequency(ladder, 3, 4)


def test_transition_frequency_reported_anchors(params, omega_d):
    """Matched-point signal frequency and reset transition frequency."""
    rabi_star = matching_amplitude(params, omega_d)
    w14 = transition_frequency(dressed_states(params, omega_d, rabi_star), 1, 4)
    assert abs(w14 - TWO_PI * 10.268e9) < TWO_PI * 3e6

    rabi_rst = params.rabi_of_dbm(-72.1)
    w23 = transition_frequency(dressed_states(params, omega_d, rabi_rst), 2, 3)
    assert abs(w23 - TWO_PI * 10.162e9) < TWO_PI * 5e6
