import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdadet.errors import NonStaticFrameError
from lambdadet.hilbert import build_space
from lambdadet.model import Frame, collapse_operators, hamiltonian_static

TWO_PI = 2.0 * np.pi


def diag(params, frame, rabi, omega_d, n_max=1):
    space = build_space(n_max)
    h = hamiltonian_static(params, frame, rabi, omega_d, space=space)
    return np.real(np.diag(h.matrix)), h


def test_diagonal_in_protocol_frame(params, cfg):
    omega_d = cfg.omega_d
    omega_s = cfg.get("signal_freq")
    delta = params.omega_ge - omega_d
    d, h = diag(params, Frame(omega_d, omega_s), 0.0, omega_d)
    expect = [
        0.0,
        delta,
        params.omega_r - omega_s,
        delta + params.omega_r - 2 * params.chi - omega_s,
    ]
    assert np.allclose(d, expect, atol=1e-3)
    assert np.max(np.abs(h.matrix - h.matrix.conj().T)) < 1e-12


def test_nested_ordering(params, cfg):
    """In the frame rotating at the drive, the four levels are nested."""
    omega_d = cfg.omega_d
    d, _ = diag(params, Frame(omega_d, omega_d), 0.0, omega_d)
    g0, e0, g1, e1 = d
    assert g0 < e0 < e1 < g1


def test_nesting_boundary(params):
    """At delta = 2*chi the |e,1> and |g,1> levels are degenerate."""
    omega_d = params.omega_ge - 2.0 * params.chi
    d, _ = diag(params, Frame(omega_d, omega_d), 0.0, omega_d)
    assert d[3] == pytest.approx(d[2], abs=1e-3)


def test_on_resonance_frame(params):
    d, _ = diag(params, Frame(params.omega_ge, params.omega_r), 0.0, params.omega_ge)
    assert np.allclose(d, [0.0, 0.0, 0.0, -2.0 * params.chi], atol=1e-3)


def test_non_static_error(params):
    with pytest.raises(NonStaticFrameError):
        hamiltonian_static(
            params,
            Frame(params.omega_ge, params.omega_r),
            1e6,
            params.omega_ge - TWO_PI * 49e6,
            space=build_space(1),
        )


@settings(max_examples=25, deadline=None)
@given(
    rabi=st.floats(min_value=0.0, max_value=1e9),
    qref=st.floats(min_value=-1e10, max_value=1e10),
    rref=st.floats(min_value=-1e10, max_value=1e10),
)
def test_hermiticity_property(rabi, qref, rref):
    from lambdadet.params import SystemParams

    params = SystemParams(
        omega_ge=TWO_PI * 5.5e9,
        omega_r=TWO_PI * 10.2e9,
        chi=TWO_PI * 30e6,
        kappa=TWO_PI * 16e6,
        kappa_ext_ratio=0.9,
        gamma=1e6,
    )
    omega_d = qref  # keep the drive static in this frame
    h = hamiltonian_static(
        params, Frame(qref, rref), rabi, omega_d, space=build_space(2)
    )
    assert np.max(np.abs(h.matrix - h.matrix.conj().T)) < 1e-12


def test_frame_covariance(params, cfg):
    """Within-doublet eigenvalue differences are resonator-frame invariant."""
    omega_d = cfg.omega_d
    rabi = TWO_PI * 30e6
    space = build_space(1)
    diffs = []
    for rref in (omega_d, params.omega_r, 0.12345):
        h = hamiltonian_static(params, Frame(omega_d, rref), rabi, omega_d, space=space)
        m = h.matrix.real
        for n in (0, 1):
            idx = [space.index(0, n), space.index(1, n)]
            vals = np.linalg.eigvalsh(m[np.ix_(idx, idx)])
            diffs.append(vals[1] - vals[0])
    diffs = np.array(diffs).reshape(3, 2)
    spread = np.max(np.abs(diffs - diffs[0]), axis=0)
    assert np.all(spread <= 1e-9 * np.abs(diffs[0]))


def test_collapse_set(params):
    space = build_space(2)
    ops = collapse_operators(params, space)
    # (a, kappa), (sm, gamma), plus the equilibrium excitation channel
    assert len(ops) == 3
    assert ops[0][1] == params.kappa
    assert ops[1][1] == params.gamma
    p = params.init_excited_pop
    assert ops[2][1] == pytest.approx(params.gamma * p / (1 - p))
    # the rate gamma p / (1 - p) has no value at p = 1
    with pytest.raises(ValueError, match=r"init_excited_pop must lie in \[0, 1\)"):
        dataclasses.replace(params, init_excited_pop=1.0)


def test_collapse_dephasing_channel(params):
    space = build_space(1)
    noisy = dataclasses.replace(params, gamma_phi=TWO_PI * 1e5, init_excited_pop=0.0)
    ops = collapse_operators(noisy, space)
    assert len(ops) == 3
    assert ops[2][1] == pytest.approx(2.0 * noisy.gamma_phi)


def test_kappa_from_quality_factor(params):
    assert params.kappa == pytest.approx(params.omega_r / 630.0, rel=1e-7)
    assert params.kappa / TWO_PI == pytest.approx(16.28e6, rel=1e-3)


def test_kappa_split(params):
    assert params.kappa_ext_ratio == pytest.approx(0.964)
    assert params.kappa_int / params.kappa == pytest.approx(0.036, abs=1e-12)


def test_gamma_zero_keeps_excited(cfg):
    """Without qubit decay the excited state survives free evolution."""
    import lambdadet.dynamics as dyn
    from lambdadet.pulses import PulseSchedule

    p = dataclasses.replace(cfg.params, gamma=0.0, init_excited_pop=0.0)
    space = build_space(1)
    frame = Frame(p.omega_ge, p.omega_r)
    rho0 = dyn.mixed_initial_state(space, 1.0, frame)
    sched = PulseSchedule((), frame, 200e-9)
    traj = dyn.propagate(rho0, sched, p, dyn.IntegratorOptions(max_step=0.5e-9))
    assert traj.p_excited[-1] == pytest.approx(1.0, abs=1e-12)
