import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import reference
from lambdadet import dynamics
from lambdadet.dynamics import (
    DensityState,
    TERM_DEPHASING,
    TERM_DRIVE,
    TERM_FLIP,
    IntegratorOptions,
    _plan,
    _SampleLog,
    _StackedRHS,
    _flip,
    _commutator_superop,
    _csr_product,
    _frame_static,
    _dissipator_superop,
    _schedule_terms,
    hermitian_basis,
    liouvillian,
    mixed_initial_state,
    propagate,
    propagate_batch,
    real_form,
    steady_state,
    steady_state_stack,
    superoperators,
)
from lambdadet.errors import IntegrationError, SteadyStateError
from lambdadet.hilbert import annihilation, build_space, qubit_lowering, qubit_number
from lambdadet.model import (
    Frame,
    collapse_operators,
    drive_noise_channels,
    drive_quadratures,
    hamiltonian_static,
    input_quadratures,
    qubit_flip,
)
from lambdadet.pulses import (
    GAUSS_TRUNC_SIGMAS,
    KIND_GAUSSIAN,
    KIND_RECT,
    ROLE_DRIVE,
    ROLE_RESET,
    ROLE_SIGNAL,
    PulseEnvelope,
    SIGMA_PER_FWHM,
    PulseSchedule,
    flat_top_drive,
    reset_schedule,
)
from lambdadet.response import default_probe_amplitude, reflection_row

TWO_PI = 2.0 * np.pi


def rect(role_amp_carrier, duration):
    amp, carrier = role_amp_carrier
    return PulseEnvelope(KIND_RECT, duration / 2, duration, 0.0, amp, carrier)


def _rhs(rho, h, collapses):
    """drho/dt of the production superoperator, liouvillian(...) @ vec(rho)."""
    return (liouvillian(h, collapses) @ rho.reshape(-1)).reshape(rho.shape)


class TestLindbladRhs:
    def test_decay_rate(self):
        space = build_space(1)
        sm = qubit_lowering(space)
        rho = np.zeros((4, 4), complex)
        rho[space.index(1, 0), space.index(1, 0)] = 1.0
        gamma = 2.0e6
        drho = _rhs(rho, np.zeros((4, 4)), [(sm, gamma)])
        nq = qubit_number(space)
        assert np.trace(nq @ drho).real == pytest.approx(-gamma)

    def test_maximally_mixed_stationary_under_h(self):
        space = build_space(1)
        rng = np.random.default_rng(7)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        rho = np.eye(4, dtype=complex) / 4.0
        assert np.max(np.abs(_rhs(rho, h, []))) < 1e-12

    def test_coherent_cavity_damping(self):
        space = build_space(2)
        a = annihilation(space)
        kappa = 1.0e8
        # coherent-ish state with <a> != 0
        psi = np.zeros(space.dim, complex)
        psi[space.index(0, 0)] = math.sqrt(0.8)
        psi[space.index(0, 1)] = math.sqrt(0.2)
        rho = np.outer(psi, psi.conj())
        drho = _rhs(rho, np.zeros((space.dim, space.dim)), [(a, kappa)])
        a_dot = np.trace(a @ drho)
        a_mean = np.trace(a @ rho)
        assert a_dot == pytest.approx(-kappa / 2 * a_mean, rel=1e-12)


    @settings(max_examples=40, deadline=None)
    @given(
        n_max=st.integers(min_value=1, max_value=3),
        h_scale=st.floats(min_value=0.0, max_value=1e10),
        rates=st.lists(st.floats(min_value=0.0, max_value=1e9), max_size=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_superoperator_matches_matrix_form(self, n_max, h_scale, rates, seed):
        """liouvillian(h, collapses) acting on vec(rho) is the matrix-form
        right-hand side of perfbench's reference."""
        d = build_space(n_max).dim
        rng = np.random.default_rng(seed)

        def gaussian():
            return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

        h = gaussian()
        h = h_scale * (h + h.conj().T)
        collapses = [(gaussian(), rate) for rate in rates]
        root = gaussian()
        rho = root @ root.conj().T
        rho /= np.trace(rho).real

        vec = liouvillian(h, collapses) @ rho.reshape(-1)
        expected = reference.master_equation_rhs(rho, h, collapses).reshape(-1)
        scale = np.linalg.norm(h) + sum(r * np.linalg.norm(c) ** 2 for c, r in collapses)
        assert np.max(np.abs(vec - expected)) <= 1e-12 * (scale + 1.0)


def _cw_oracle(params, omega_d, rabi, omega_s, input_amp, n_max):
    """Kron-built Liouvillian of a drive at omega_d and an input tone at omega_s."""
    space = build_space(n_max)
    h = hamiltonian_static(params, Frame(omega_d, omega_s), rabi, omega_d, space=space).matrix
    h = h + input_amp * input_quadratures(space)[0]
    collapses = collapse_operators(params, space) + drive_noise_channels(params, space, rabi)
    return liouvillian(h, collapses)


class TestSuperoperators:
    @settings(max_examples=40, deadline=None)
    @given(
        n_max=st.integers(min_value=1, max_value=3),
        detunings=st.tuples(*[st.floats(min_value=-2e9, max_value=2e9)] * 2),
        rabi=st.floats(min_value=0.0, max_value=5e8),
        input_amp=st.floats(min_value=0.0, max_value=1e4),
        noise=st.tuples(*[st.floats(min_value=0.0, max_value=1e-10)] * 2),
        init_excited_pop=st.floats(min_value=0.0, max_value=0.3),
        gamma_phi=st.floats(min_value=0.0, max_value=1e7),
    )
    def test_affine_assembly_matches_kron_build(
        self, params, n_max, detunings, rabi, input_amp, noise, init_excited_pop, gamma_phi
    ):
        """The record's CW Liouvillian is liouvillian(...) of the same model."""
        p = dataclasses.replace(
            params,
            drive_noise_per_rabi2=noise[0],
            drive_dephasing_per_rabi2=noise[1],
            init_excited_pop=init_excited_pop,
            gamma_phi=gamma_phi,
        )
        omega_d, omega_s = p.omega_ge - detunings[0], p.omega_r - detunings[1]
        (sup,) = superoperators(p, n_max).cw_liouvillians(omega_d, rabi, [omega_s], [input_amp])
        oracle = real_form(_cw_oracle(p, omega_d, rabi, omega_s, input_amp, n_max))
        assert np.max(np.abs(sup - oracle)) <= 1e-13 * np.linalg.norm(oracle)

    def test_schedule_terms_equal_kron_build(self, params, cfg):
        """The pulsed static part is the kron-built ``liouvillian``, and the
        record holds the real forms of its pieces bit for bit: the static
        part is the kron-built dissipator sum, whose ``real_form`` is the
        record's ``dissipators``, plus the frame's diagonal; the term
        superoperators the coefficients index in ``pulse_terms`` are the real
        forms of the kron build; and CW assembly reads these arrays
        themselves. Its real CW assembly at zero Rabi gives the static
        part's real form."""
        params = dataclasses.replace(
            params, drive_noise_per_rabi2=1e-12, drive_dephasing_per_rabi2=1e-12
        )
        space = build_space(3)
        frame = Frame(params.omega_ge, params.omega_r)
        drive = rect((TWO_PI * 30e6, cfg.omega_d), 100e-9)
        signal = rect((1e4, cfg.get("signal_freq")), 100e-9)
        sched = PulseSchedule(((ROLE_DRIVE, drive), (ROLE_SIGNAL, signal)), frame, 100e-9)
        static = _frame_static(frame, params, space)
        coefficients = _schedule_terms(sched, params)
        pulse_terms = superoperators(params, 3).pulse_terms

        h0 = hamiltonian_static(params, frame, 0.0, frame.qubit_ref, space=space).matrix
        assert np.array_equal(static, liouvillian(h0, collapse_operators(params, space)))
        ops = superoperators(params, 3)
        h_diag = (
            (params.omega_ge - frame.qubit_ref) * ops.n_q
            + (params.omega_r - frame.resonator_ref) * ops.n_ph
            - 2.0 * params.chi * ops.n_q * ops.n_ph
        )
        diag = np.arange(space.dim**2)
        frame_part = -(h_diag[:, None] - h_diag[None, :]).reshape(-1)
        assert np.array_equal(static.imag[diag, diag], frame_part)
        dissipators = np.zeros_like(static)
        for op, rate in collapse_operators(params, space):
            dissipators = dissipators + _dissipator_superop(op.matrix, rate)
        without_frame = static.copy()
        without_frame.imag[diag, diag] = 0.0
        assert np.array_equal(without_frame, dissipators)
        assert np.array_equal(ops.dissipators, real_form(dissipators))
        (real_static,) = ops.cw_liouvillians(frame.qubit_ref, 0.0, [frame.resonator_ref], [0.0])
        want = real_form(static)
        assert np.max(np.abs(real_static - want)) <= 1e-13 * np.linalg.norm(want)

        sm = qubit_lowering(space)
        x_q, y_q = drive_quadratures(space)
        p_r, q_r = input_quadratures(space)
        root_kext = math.sqrt(params.kappa_ext)
        expected = [
            _dissipator_superop(sm.conj().T, 1.0) + _dissipator_superop(sm, 1.0),
            _dissipator_superop(qubit_number(space), 1.0),
            _commutator_superop(0.5 * x_q),
            _commutator_superop(0.5 * y_q),
            _commutator_superop(root_kext * p_r),
            _commutator_superop(root_kext * q_r),
        ]
        assert len(coefficients) == len(expected)
        for c, want in zip(coefficients, expected):
            assert np.array_equal(pulse_terms[c.block], real_form(want))
        # CW assembly reads the record's own arrays
        assert ops.cw_pieces.dissipators is ops.dissipators
        for name, block in (("flip", TERM_FLIP), ("dephasing", TERM_DEPHASING),
                            ("drive", TERM_DRIVE)):
            assert getattr(ops.cw_pieces, name) is pulse_terms[block]

    def test_batch_static_parts_are_dissipators_plus_diagonals(self, params, detect, reset):
        """A batch of the detection schedule and the reset schedule, whose
        frames differ: the RHS's shared block is the record's real
        dissipator sum, and each column's frame part turns each off-diagonal
        pair of coordinates by the negated imaginary part of that schedule's
        kron-built diagonal, bit for bit. Together they are the
        ``real_form`` of the schedule's own kron-built ``liouvillian``."""
        from lambdadet.pulses import detection_schedule

        params = dataclasses.replace(params, drive_noise_per_rabi2=1e-12)
        space = build_space(3)
        d = space.dim
        schedules = [detection_schedule(params, detect), reset_schedule(params, reset)]
        assert schedules[0].frame != schedules[1].frame
        rhs = _StackedRHS(schedules, params, space)
        assert rhs._dissipators is superoperators(params, 3).dissipators
        assert not np.array_equal(rhs.omega[:, 0], rhs.omega[:, 1])
        j, k = np.triu_indices(d, 1)
        for b, sched in enumerate(schedules):
            frame = sched.frame
            h0 = hamiltonian_static(params, frame, 0.0, frame.qubit_ref, space=space).matrix
            want = liouvillian(h0, collapse_operators(params, space))
            turn = -want.diagonal().imag[j * d + k]
            assert not rhs.omega[:d, b].any()
            assert np.array_equal(rhs.omega[d::2, b], turn)
            assert np.array_equal(rhs.omega[d + 1 :: 2, b], turn)
            static = rhs._dissipators + rhs._rotation * rhs.omega[:, b]
            oracle = real_form(want)
            assert np.max(np.abs(static - oracle)) <= 1e-13 * np.linalg.norm(oracle)

    def test_real_rhs_matches_kron_build(self, params, detect, reset):
        """A batch that mixes the detection frame and the reset frame: at a
        random row of its coefficient table, each column's real RHS is the
        ``real_form`` of its kron-built ``liouvillian`` plus sum_k f_k times
        the kron-built term superoperators, applied to random coordinates."""
        from lambdadet.pulses import detection_schedule

        params = dataclasses.replace(
            params, drive_noise_per_rabi2=1e-12, drive_dephasing_per_rabi2=1e-12
        )
        space = build_space(3)
        schedules = [detection_schedule(params, detect), reset_schedule(params, reset)]
        rhs = _StackedRHS(schedules, params, space)
        sm = qubit_lowering(space)
        root_kext = math.sqrt(params.kappa_ext)
        kron_terms = [
            _dissipator_superop(sm.conj().T, 1.0) + _dissipator_superop(sm, 1.0),
            _dissipator_superop(qubit_number(space), 1.0),
            *(_commutator_superop(0.5 * q) for q in drive_quadratures(space)),
            *(_commutator_superop(root_kext * q) for q in input_quadratures(space)),
        ]
        terms = [(_frame_static(sched.frame, params, space), _schedule_terms(sched, params))
                 for sched in schedules]
        blocks = sorted({c.block for _, coefficients in terms for c in coefficients})
        rng = np.random.default_rng(32)
        duration = min(sched.duration for sched in schedules)
        table = rhs.table(np.sort(rng.uniform(0.0, duration, 64)))
        row = table[rng.choice(np.flatnonzero((table != 0.0).all(axis=(1, 2))))]
        x = rng.normal(size=(space.dim**2, 2))
        rhs.state()[...] = x
        y = rhs(row)
        for b, (static, coefficients) in enumerate(terms):
            sup = static.copy()
            for block in {c.block for c in coefficients}:
                sup = sup + row[blocks.index(block), b] * kron_terms[block]
            oracle = real_form(sup)
            err = np.linalg.norm(y[:, b] - oracle @ x[:, b])
            assert err <= 1e-13 * np.linalg.norm(oracle) * np.linalg.norm(x[:, b])

    @pytest.mark.parametrize("width", [1, 2, 12, 24])
    def test_csr_product_is_the_operator_product(self, params, detect, width):
        """The RHS forms its stage products by calling scipy's CSR kernel
        directly; on the detection batch's block it equals ``matrix @ z``
        bit for bit at every width, so a change to that private kernel fails
        here instead of moving a result."""
        from lambdadet.pulses import detection_schedule

        rhs = _StackedRHS([detection_schedule(params, detect)], params, build_space(3))
        z = np.random.default_rng(width).normal(size=(rhs.matrix.shape[1], width))
        assert np.array_equal(_csr_product(rhs.matrix)(z), rhs.matrix @ z)

    @pytest.mark.parametrize("n_max", [1, 2, 3])
    def test_pi_pulse_is_a_signed_permutation(self, n_max):
        """The pi pulse on real coordinates, sign * r[perm], is T^H vec(F rho F)
        bit for bit, for random Hermitian rho."""
        space = build_space(n_max)
        d = space.dim
        t = hermitian_basis(d)
        perm, sign = _flip(space)
        flip = qubit_flip(space)
        rng = np.random.default_rng(n_max)
        for _ in range(4):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = g + g.conj().T
            r = (t.conj().T @ rho.reshape(-1)).real
            want = (t.conj().T @ (flip @ rho @ flip).reshape(-1)).real
            assert np.array_equal(sign[:, 0] * r[perm], want)

    def test_record_is_cached_and_read_only(self, params):
        ops = superoperators(params, 2)
        assert superoperators(params, 2) is ops
        with pytest.raises(ValueError):
            ops.dissipators[0, 0] = 1.0

    def test_pulsed_path_builds_no_cw_only_pieces(self, clean_params):
        """A propagation reads the record's real pieces only: the pieces
        that only CW assembly needs are not built."""
        p = dataclasses.replace(clean_params, gamma_phi=1.234e5)  # a record of its own
        frame = Frame(p.omega_ge, p.omega_r)
        drive = rect((TWO_PI * 30e6, p.omega_ge), 20e-9)
        signal = rect((1e3, p.omega_r + TWO_PI * 2e6), 20e-9)
        sched = PulseSchedule(((ROLE_DRIVE, drive), (ROLE_SIGNAL, signal)), frame, 20e-9)
        rho0 = mixed_initial_state(build_space(2), 0.0, frame)
        (traj,) = propagate_batch([rho0], [sched], p, IntegratorOptions())
        assert not isinstance(traj, IntegrationError)
        ops = superoperators(p, 2)
        assert all(term.dtype == float for term in (ops.dissipators, *ops.pulse_terms))
        assert "cw_pieces" not in vars(ops)


class TestSampleLog:
    def test_each_failed_check_is_named_and_its_column_zeroed(self, clean_params, monkeypatch):
        """One block of five columns of real coordinates: a trace error, an
        anti-Hermitian part, a negative eigenvalue, a NaN entry and a clean
        state. rho = T r is Hermitian for every real r, so the anti-Hermitian
        part is added to the built rho of its column, to show that the kept
        check fires. Each failed column keeps the message of its first
        failed check and is zeroed; the clean column goes on, and a later
        defect of a failed column does not replace its message."""
        space = build_space(1)
        d = space.dim
        t = hermitian_basis(d)
        states = [np.diag([1.0 + 2e-6, 0, 0, 0]), np.diag([1.0, 0, 0, 0]),
                  np.diag([1.1, -0.1, 0, 0]), np.diag([1.0, 0, 0, 0]),
                  np.diag([0.9, 0.1, 0, 0])]
        x = np.stack([(t.conj().T @ rho.reshape(-1)).real for rho in states], axis=1)
        x[d + 5, 3] = np.nan  # the imaginary coordinate of the pair (2, 3)
        log = _SampleLog(superoperators(clean_params, 1), len(states))
        build = log.matrices

        def anti_hermitian_in_column_1(block):
            rhos = build(block)
            if len(rhos) == len(states):
                rhos[1, 0, 1] += 1e-3
                rhos[1, 1, 0] -= 1e-3
            return rhos

        monkeypatch.setattr(log, "matrices", anti_hermitian_in_column_1)
        log.record(1e-9, x)
        assert [str(error) for error in log.errors[:4]] == [
            "trace error 2.00e-06 exceeds 1e-09 at t=1.000e-09",
            "hermiticity error 2.00e-03 at t=1.000e-09",
            "negative eigenvalue -1.00e-01 at t=1.000e-09",
            "non-finite density matrix at t=1.000e-09",
        ]
        assert all(isinstance(error, IntegrationError) for error in log.errors[:4])
        assert log.errors[4] is None and log.live == [4]
        assert np.array_equal(x[:, :4], np.zeros((d * d, 4)))
        assert np.array_equal(x[:, 4], np.diag(states[4]).tolist() + [0.0] * (d * d - d))

        x[0, 0] = np.nan  # not live: no longer checked
        log.record(2e-9, x)
        assert str(log.errors[0]) == "trace error 2.00e-06 exceeds 1e-09 at t=1.000e-09"
        frames = [Frame(0.0, 0.0)] * len(states)
        *failed, clean = log.trajectories(np.array([1e-9, 2e-9]), x, frames)
        assert failed == log.errors[:4]
        assert clean.p_excited.tolist() == [0.1, 0.1]
        assert np.array_equal(clean.final.matrix, states[4])


class TestHermitianBasis:
    @pytest.mark.parametrize("n_max", [1, 2, 3, 4])
    def test_unitary_and_round_trip(self, n_max):
        """T is unitary. A Hermitian rho has exactly real coordinates whose
        first d entries sum to its trace, and T r is exactly Hermitian with
        rho's diagonal; off the diagonal it is rho to 2 ulps, since
        fl(sqrt(1/2))^2 is not 1/2."""
        d = build_space(n_max).dim
        t = hermitian_basis(d)
        assert hermitian_basis(d) is t and not t.flags.writeable
        assert np.max(np.abs(t.conj().T @ t - np.eye(d * d))) <= 2 * np.finfo(float).eps
        rng = np.random.default_rng(n_max)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = 0.5 * (g + g.conj().T)
        coords = t.conj().T @ rho.reshape(-1)
        assert np.array_equal(coords.imag, np.zeros(d * d))
        r = coords.real
        assert math.fsum(r[:d]) == math.fsum(np.diag(rho).real)
        back = (t @ r).reshape(d, d)
        assert np.array_equal(back, back.conj().T)
        assert np.array_equal(np.diag(back), np.diag(rho))
        assert np.max(np.abs(back - rho)) <= 2 * np.finfo(float).eps * np.max(np.abs(rho))

    @settings(max_examples=40, deadline=None)
    @given(
        n_max=st.integers(min_value=1, max_value=3),
        h_scale=st.floats(min_value=0.0, max_value=1e10),
        rates=st.lists(st.floats(min_value=0.0, max_value=1e9), max_size=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_lindblad_generators_are_real_in_the_basis(self, n_max, h_scale, rates, seed):
        """T^H L T of a kron-built Lindblad generator is real to rounding,
        so ``real_form`` drops nothing but rounding."""
        d = build_space(n_max).dim
        rng = np.random.default_rng(seed)

        def gaussian():
            return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

        h = gaussian()
        sup = liouvillian(h_scale * (h + h.conj().T), [(gaussian(), rate) for rate in rates])
        t = hermitian_basis(d)
        imag = (t.conj().T @ sup @ t).imag
        # an entry of T^H L T sums at most 4 entries of L, each times a
        # factor of modulus at most 1; tiny is the floor of rounding among
        # subnormals
        bound = 16 * np.finfo(float).eps * np.max(np.abs(sup)) + np.finfo(float).tiny
        assert np.max(np.abs(imag)) <= bound


class TestSteadyStateStack:
    def test_failed_point_is_isolated(self, clean_params, omega_d):
        """A Liouvillian without dissipators fails alone, with the error that
        steady_state gives for it; the other points keep their solutions."""
        p = clean_params
        space = build_space(2)
        rabi = TWO_PI * 30e6
        freqs = p.omega_r + TWO_PI * np.array([-5e6, 0.0, 5e6])
        amps = [30.0] * 3
        sups = superoperators(p, 2).cw_liouvillians(omega_d, rabi, freqs, amps)
        good, good_errors = steady_state_stack(sups.copy())
        assert good_errors == [None] * 3

        h = hamiltonian_static(p, Frame(omega_d, freqs[1]), rabi, omega_d, space=space).matrix
        with pytest.raises(SteadyStateError) as alone:
            steady_state(h, [])
        assert alone.value.nullity > 1
        sups[1] = real_form(liouvillian(h, []))
        rhos, errors = steady_state_stack(sups)
        assert errors[0] is None and errors[2] is None
        assert str(errors[1]) == str(alone.value)
        assert errors[1].nullity == alone.value.nullity
        assert np.all(np.isnan(rhos[1]))
        assert np.array_equal(rhos[[0, 2]], good[[0, 2]])

    def test_random_points_match_the_svd_reference(self, params, omega_d):
        """r from one stacked solve of random points is the r of
        perfbench's kron-built SVD null vector, point by point."""
        rng = np.random.default_rng(2024)
        amp = default_probe_amplitude(params)
        for _ in range(3):
            rabi = TWO_PI * rng.uniform(0.0, 60e6)
            freqs = params.omega_r + TWO_PI * rng.uniform(-30e6, 30e6, size=4)
            r, errors = reflection_row(params, omega_d, rabi, freqs, [amp] * 4, n_max=3)
            assert errors == [None] * 4
            for omega_s, value in zip(freqs, r):
                want, gap = reference.reflection(
                    params, omega_d=omega_d, rabi=rabi, omega_s=omega_s, probe_amp=amp, n_max=3
                )
                assert gap < 1e-8
                assert abs(value - want) <= 1e-10


class TestPropagate:
    def test_free_decay_analytic(self, clean_params):
        space = build_space(1)
        frame = Frame(clean_params.omega_ge, clean_params.omega_r)
        rho0 = mixed_initial_state(space, 1.0, frame)
        sched = PulseSchedule((), frame, 1.4e-6)
        traj = propagate(rho0, sched, clean_params, IntegratorOptions(max_step=0.5e-9))
        expected = np.exp(-clean_params.gamma * traj.times)
        assert np.max(np.abs(traj.p_excited - expected)) < 1e-6

    def test_resonant_rabi_analytic(self, clean_params):
        p = dataclasses.replace(clean_params, gamma=0.0)
        space = build_space(1)
        frame = Frame(p.omega_ge, p.omega_r)
        rabi = TWO_PI * 50e6
        duration = 3 * TWO_PI / rabi
        drive = rect((rabi, p.omega_ge), duration)
        sched = PulseSchedule(((ROLE_DRIVE, drive),), frame, duration)
        rho0 = mixed_initial_state(space, 0.0, frame)
        traj = propagate(rho0, sched, p, IntegratorOptions(max_step=0.1e-9))
        expected = np.sin(rabi * traj.times / 2) ** 2
        assert np.max(np.abs(traj.p_excited - expected)) < 1e-4

    def test_default_step_meets_the_rabi_closed_form(self, clean_params):
        """At the default step a 20 MHz resonant Rabi flop over 100 ns stays
        within 1e-7 of sin^2(Omega t / 2), the bound of perfbench's
        closed-form check. A step of 1/3 ns or more misses it."""
        p = dataclasses.replace(clean_params, gamma=0.0)
        frame = Frame(p.omega_ge, p.omega_r)
        rabi, duration = TWO_PI * 20e6, 100e-9
        sched = PulseSchedule(((ROLE_DRIVE, rect((rabi, p.omega_ge), duration)),), frame, duration)
        rho0 = mixed_initial_state(build_space(1), 0.0, frame)
        traj = propagate(rho0, sched, p, IntegratorOptions())
        assert np.max(np.abs(traj.p_excited - np.sin(rabi * traj.times / 2) ** 2)) < 1e-7

    def test_driven_cavity_reaches_analytic_steady_state(self, clean_params):
        p = clean_params
        space = build_space(3)
        alpha = math.sqrt(1e-4 * p.kappa)
        delta = TWO_PI * 3e6  # omega_s - omega_r
        omega_s = p.omega_r + delta
        frame = Frame(p.omega_ge, omega_s)
        duration = 30 / p.kappa
        sig = rect((alpha, omega_s), duration)
        sched = PulseSchedule(((ROLE_SIGNAL, sig),), frame, duration)
        traj = propagate(
            mixed_initial_state(space, 0.0, frame), sched, p,
            IntegratorOptions(max_step=0.5e-9),
        )
        expected = math.sqrt(p.kappa_ext) * alpha / (p.kappa / 2 - 1j * delta)
        assert abs(traj.field[-1] - expected) / abs(expected) < 1e-5

    def test_invariants_along_trajectory(self, params, detect):
        from lambdadet.pulses import detection_schedule

        space = build_space(3)
        sched = detection_schedule(params, detect)
        rho0 = mixed_initial_state(space, params.init_excited_pop, sched.frame)
        opts = IntegratorOptions(max_step=0.1e-9)
        traj = propagate(rho0, sched, params, opts)
        # propagate validates every sample; the kept record is checked here
        assert np.max(traj.trace_error) < 1e-9
        assert traj.final.time == traj.times[-1] == sched.duration
        at_marker = propagate(rho0, sched, params, opts, until=sched.marker_times[-1])
        for state in (at_marker.final, traj.final):
            rho = state.matrix
            assert abs(np.trace(rho).real - 1.0) < 1e-9
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
            assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0] > -1e-8

    def test_final_state_is_hermitian_with_unit_trace(self, params, detect, reset):
        """``final`` is rho = T r of the run's real coordinates: exactly
        Hermitian, with unit trace to 1e-12, after a detection run and after
        a reset run, which starts with a pi pulse."""
        from lambdadet.pulses import detection_schedule

        for sched in (detection_schedule(params, detect), reset_schedule(params, reset)):
            rho0 = mixed_initial_state(build_space(3), params.init_excited_pop, sched.frame)
            rho = propagate(rho0, sched, params).final.matrix
            assert np.array_equal(rho, rho.conj().T)
            assert abs(np.trace(rho) - 1.0) <= 1e-12

    def test_pi_pulse_swaps(self, clean_params):
        space = build_space(1)
        frame = Frame(clean_params.omega_ge, clean_params.omega_r)
        sched = PulseSchedule((), frame, 10e-9, pi_times=(0.0,))
        rho0 = mixed_initial_state(space, 0.05, frame)
        traj = propagate(rho0, sched, clean_params, IntegratorOptions(max_step=0.5e-9))
        assert traj.p_excited[0] == pytest.approx(0.95)

    def test_step_underflow_not_triggered_on_normal_runs(self, clean_params):
        # oversized steps break positivity or trace instead of silently passing
        p = dataclasses.replace(clean_params, gamma=0.0)
        space = build_space(1)
        frame = Frame(p.omega_ge, p.omega_r)
        rabi = TWO_PI * 50e6
        duration = 3 * TWO_PI / rabi
        drive = rect((rabi, p.omega_ge), duration)
        sched = PulseSchedule(((ROLE_DRIVE, drive),), frame, duration)
        rho0 = mixed_initial_state(space, 0.0, frame)
        with pytest.raises(IntegrationError):
            propagate(rho0, sched, p, IntegratorOptions(max_step=20e-9, sample_dt=20e-9))

    def test_step_underflow_fails_every_column(self, clean_params):
        """A readout marker one ulp after a 1 ns sample leaves a gap no step
        can cover: every column of the batch fails with the timeline's
        error, and ``propagate`` raises it."""
        space = build_space(1)
        frame = Frame(clean_params.omega_ge, clean_params.omega_r)
        sched = PulseSchedule((), frame, 10e-9, marker_times=(np.nextafter(1e-9, 1.0),))
        rho0 = mixed_initial_state(space, 0.0, frame)
        opts = IntegratorOptions(sample_dt=1e-9)
        batch = propagate_batch([rho0, rho0], [sched, sched], clean_params, opts)
        assert [str(run) for run in batch] == ["step size underflow"] * 2
        assert all(isinstance(run, IntegrationError) for run in batch)
        with pytest.raises(IntegrationError, match="step size underflow"):
            propagate(rho0, sched, clean_params, opts)

    @pytest.mark.parametrize(
        "batch, message",
        [
            pytest.param(lambda r, s: ([r], [dataclasses.replace(s, frame=Frame(1.0, 1.0))],
                                       {}), "frame does not match", id="frame"),
            pytest.param(lambda r, s: ([r, r], [s, dataclasses.replace(s, marker_times=(5e-9,))],
                                       {}), "one timeline", id="marker-times"),
            pytest.param(lambda r, s: ([r, r], [s, dataclasses.replace(s, pi_times=(0.0,))], {}),
                         "one timeline", id="pi-times"),
            pytest.param(lambda r, s: ([r, dataclasses.replace(r, time=1e-9)], [s, s], {}),
                         "time and space", id="initial-time"),
            pytest.param(lambda r, s: ([r, mixed_initial_state(build_space(2), 0.0, s.frame)],
                                       [s, s], {}), "time and space", id="initial-space"),
            pytest.param(lambda r, s: ([r], [s], {"until": -1e-9}), "ends before",
                         id="until-before-start"),
            pytest.param(lambda r, s: ([dataclasses.replace(r, matrix=np.triu(np.ones((4, 4))))],
                                       [s], {}), "not Hermitian", id="non-hermitian"),
            pytest.param(lambda r, s: ([r, r], [s], {}), "shorter", id="unequal-lengths"),
            pytest.param(lambda r, s: ([], [], {}), "at least one", id="empty"),
        ],
    )
    def test_batch_rejects_inconsistent_inputs(self, clean_params, batch, message):
        """Inputs that do not make one batch raise ValueError, each its own."""
        frame = Frame(clean_params.omega_ge, clean_params.omega_r)
        sched = PulseSchedule((), frame, 10e-9, marker_times=(4e-9,))
        rho0s, schedules, kwargs = batch(mixed_initial_state(build_space(1), 0.0, frame), sched)
        with pytest.raises(ValueError, match=message):
            propagate_batch(rho0s, schedules, clean_params, **kwargs)

    def test_a_run_stopped_early_is_the_full_run_up_to_there(self, params, detect):
        """``until`` ends a run and moves no sample before it: stopped at a
        sample time t before the schedule's end, the run is the full run up
        to t, bit for bit."""
        from lambdadet.pulses import detection_schedule

        sched = detection_schedule(params, detect)
        rho0 = mixed_initial_state(build_space(3), params.init_excited_pop, sched.frame)
        full = propagate(rho0, sched, params)
        k = len(full.times) // 2
        early = propagate(rho0, sched, params, until=float(full.times[k]))
        assert early.final.time == full.times[k] < sched.duration
        for name in ("times", "p_excited", "photon_number", "field", "trace_error"):
            assert np.array_equal(getattr(early, name), getattr(full, name)[: k + 1])

    @pytest.fixture
    def plans(self, monkeypatch):
        """The ``_plan`` of every batch propagated in the test, in order."""
        plans = []

        def spy(rhs, times, max_step):
            plans.append(_plan(rhs, times, max_step))
            return plans[-1]

        monkeypatch.setattr(dynamics, "_plan", spy)
        return plans

    def test_step_maps_match_stage_by_stage_rk4(self, params, reset, plans):
        """A reset schedule holds its drive and reset tone flat for 380 ns and
        ends in a zero tail up to the click; ``_plan`` advances those
        intervals by step maps. The states of runs that end at the readout
        marker and at the click equal a stage-by-stage RK4 on the same step
        grid, run here on the kron-built ``liouvillian``."""
        space = build_space(3)
        sched = reset_schedule(params, reset)
        t_click = sched.marker_times[-1] + 100e-9
        opts = IntegratorOptions()
        rho0 = mixed_initial_state(space, params.init_excited_pop, sched.frame)
        traj = propagate(rho0, sched, params, opts, until=t_click)
        (plan,) = plans
        assert sum(bool(gap.mapped) for gap in plan) > len(traj.times) / 2
        at_marker = propagate(rho0, sched, params, opts, until=sched.marker_times[-1])

        # both tones sit on the frame's references, so
        # L(t) = L0 + v_d L_drive + v_d^2 L_noise + v_r L_reset
        frame, envelopes = sched.frame, dict(sched.entries)
        assert envelopes[ROLE_DRIVE].carrier == frame.qubit_ref
        assert envelopes[ROLE_RESET].carrier == frame.resonator_ref
        h0 = hamiltonian_static(params, frame, 0.0, frame.qubit_ref, space=space).matrix
        l0 = liouvillian(h0, collapse_operators(params, space))
        l_drive = liouvillian(drive_quadratures(space)[0] / 2.0, [])
        l_noise = liouvillian(np.zeros_like(h0), drive_noise_channels(params, space, 1.0))
        l_reset = liouvillian(math.sqrt(params.kappa_ext) * input_quadratures(space)[0], [])
        generators = {}

        def generator(t):
            v_d, v_r = envelopes[ROLE_DRIVE].value(t), envelopes[ROLE_RESET].value(t)
            if (v_d, v_r) not in generators:
                generators[v_d, v_r] = l0 + v_d * l_drive + v_d**2 * l_noise + v_r * l_reset
            return generators[v_d, v_r]

        flip = qubit_flip(space)  # the reset stage's pi pulse at t = 0
        # each run on its own sample grid: the marker run's spans the
        # schedule, the click run's reaches on to the click
        for run in (at_marker, traj):
            x = (flip @ rho0.matrix @ flip).reshape(-1)
            for t, t_next in zip(run.times[:-1], run.times[1:]):
                n = max(1, math.ceil((t_next - t) / opts.max_step))
                edges = t + (t_next - t) * (np.arange(n + 1) / n)
                edges[-1] = t_next
                for ta, tb in zip(edges[:-1], edges[1:]):
                    h, tm = tb - ta, ta + 0.5 * (tb - ta)
                    k1 = generator(ta) @ x
                    k2 = generator(tm) @ (x + 0.5 * h * k1)
                    k3 = generator(tm) @ (x + 0.5 * h * k2)
                    k4 = generator(tb) @ (x + h * k3)
                    x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            assert np.max(np.abs(run.final.matrix.reshape(-1) - x)) <= 1e-12

    def test_reset_row_columns_do_not_depend_on_batch_width(self, params, reset, plans):
        """A reset-map row, the no-reset baseline and five reset tones, run
        at batch widths 6, 3 and 1 up to 100 ns after the marker: every
        column's state, its final state and its trace error at every sample,
        is the same bit for bit. Each column's step map changes mid run,
        from the plateau's to the zero tail's, so the kept stack of step
        maps is rebuilt per column between batch mates' products. (The
        observable series are read from the block by one product over its
        columns, which rounds by width in the last bit.)"""
        no_reset = dataclasses.replace(reset, nbar_rst=0.0)
        row = [no_reset] + [
            dataclasses.replace(reset, omega_rst=reset.omega_rst + TWO_PI * mhz * 1e6)
            for mhz in (-6.0, -3.0, 0.0, 3.0, 6.0)
        ]
        schedules = [reset_schedule(params, settings) for settings in row]
        rho0s = [mixed_initial_state(build_space(3), params.init_excited_pop, s.frame)
                 for s in schedules]
        until = schedules[0].marker_times[-1] + 100e-9

        def run(cols):
            return propagate_batch([rho0s[b] for b in cols], [schedules[b] for b in cols],
                                   params, until=until)

        wide = run(range(6))
        remaps = [sum(b in gap.remap for gap in plans[0]) for b in range(6)]
        assert min(remaps) >= 2
        narrow = run(range(3)) + run(range(3, 6))
        alone = [traj for b in range(6) for traj in run([b])]
        for b, traj in enumerate(wide):
            for other in (narrow[b], alone[b]):
                assert np.array_equal(traj.times, other.times)
                assert np.array_equal(traj.trace_error, other.trace_error)
                assert np.array_equal(traj.final.matrix, other.final.matrix)

    def test_checks_fire_inside_step_map_intervals(self, clean_params, monkeypatch):
        """Rect drives are constant, so every interval runs on a step map. At
        a 20 ns step the 50 MHz column breaks positivity: it fails with the
        message ``propagate`` raises for it alone, and the 5 MHz column beside
        it is its B = 1 run."""

        def no_stages(*args):
            raise AssertionError("a constant interval ran stage by stage")

        monkeypatch.setattr(_StackedRHS, "__call__", no_stages)
        p = dataclasses.replace(clean_params, gamma=0.0)
        space = build_space(1)
        frame = Frame(p.omega_ge, p.omega_r)
        duration = 60e-9
        strong, weak = (
            PulseSchedule(((ROLE_DRIVE, rect((TWO_PI * mhz * 1e6, p.omega_ge), duration)),),
                          frame, duration)
            for mhz in (50.0, 5.0)
        )
        rho0 = mixed_initial_state(space, 0.0, frame)
        opts = IntegratorOptions(max_step=20e-9, sample_dt=20e-9)
        batch = propagate_batch([rho0, rho0], [strong, weak], p, opts)
        with pytest.raises(IntegrationError) as alone:
            propagate(rho0, strong, p, opts)
        assert str(alone.value).startswith("negative eigenvalue")
        assert isinstance(batch[0], IntegrationError)
        assert str(batch[0]) == str(alone.value)
        weak_alone = propagate(rho0, weak, p, opts)
        assert np.array_equal(batch[1].times, weak_alone.times)
        assert np.array_equal(batch[1].p_excited, weak_alone.p_excited)
        assert np.array_equal(batch[1].final.matrix, weak_alone.final.matrix)

    def test_checks_fire_inside_staged_intervals(self, clean_params, monkeypatch):
        """A Gaussian drive whose support spans the run changes in every
        interval, so every interval runs stage by stage. At a 20 ns step the
        100 MHz column breaks positivity: it fails with the message
        ``propagate`` raises for it alone, and the 5 MHz column beside it is
        its B = 1 run, bit for bit."""

        def no_maps(*args):
            raise AssertionError("a varying interval ran on a step map")

        monkeypatch.setattr(_StackedRHS, "step_map", no_maps)
        p = dataclasses.replace(clean_params, gamma=0.0)
        space = build_space(1)
        frame = Frame(p.omega_ge, p.omega_r)
        duration = 80e-9
        fwhm = duration / 2 / (GAUSS_TRUNC_SIGMAS * SIGMA_PER_FWHM)
        strong, weak = (
            PulseSchedule(((ROLE_DRIVE, PulseEnvelope(KIND_GAUSSIAN, duration / 2, fwhm, 0.0,
                                                      TWO_PI * mhz * 1e6, p.omega_ge)),),
                          frame, duration)
            for mhz in (100.0, 5.0)
        )
        rho0 = mixed_initial_state(space, 0.2, frame)
        opts = IntegratorOptions(max_step=20e-9, sample_dt=20e-9)
        batch = propagate_batch([rho0, rho0], [strong, weak], p, opts)
        with pytest.raises(IntegrationError) as alone:
            propagate(rho0, strong, p, opts)
        assert str(alone.value).startswith("negative eigenvalue")
        assert isinstance(batch[0], IntegrationError)
        assert str(batch[0]) == str(alone.value)
        weak_alone = propagate(rho0, weak, p, opts)
        for name in ("times", "p_excited", "photon_number", "field", "trace_error"):
            assert np.array_equal(getattr(batch[1], name), getattr(weak_alone, name))
        assert np.array_equal(batch[1].final.matrix, weak_alone.final.matrix)

    @pytest.mark.parametrize("envelope", [
        PulseEnvelope(KIND_GAUSSIAN, 150e-9, 60e-9, 0.0, TWO_PI * 20e6),
        flat_top_drive(TWO_PI * 20e6, 100e-9, 150e-9, 0.0, 15e-9),
        flat_top_drive(TWO_PI * 20e6, 100e-9, 150e-9, 0.0, 0.0),
        PulseEnvelope(KIND_RECT, 150e-9, 100e-9, 0.0, TWO_PI * 20e6),
    ], ids=["gaussian", "flat_top", "flat_top_sharp", "rect"])
    def test_planned_table_is_value_at_every_stage_time(self, clean_params, envelope):
        """The coefficient table a batch plans at once holds, at every RK4
        stage time of every interval (as ``_rk4_interval`` placed them one
        interval at a time), ``PulseEnvelope.value`` bit for bit. Sample
        times sit on the support and plateau edges and one ulp either side,
        where ``values`` decides between 0, the plateau and ``value``."""
        frame = Frame(clean_params.omega_ge, clean_params.omega_r)
        envelope = dataclasses.replace(envelope, carrier=frame.qubit_ref)
        duration = 300e-9
        sched = PulseSchedule(((ROLE_DRIVE, envelope),), frame, duration)
        half = envelope.width / 2
        edges = [*envelope.support(), envelope.center - half, envelope.center + half]
        near = [np.nextafter(t, side) for t in edges for side in (0.0, 1.0)]
        times = np.unique(np.concatenate([np.linspace(0.0, duration, 31), edges, near]))
        max_step = 3e-9
        rhs = _StackedRHS([sched], clean_params, build_space(1))
        plan = _plan(rhs, times, max_step)
        assert len(plan) == len(times) - 1
        stage_times = []
        for t, t_next, gap in zip(times[:-1], times[1:], plan):
            n = max(1, math.ceil((t_next - t) / max_step))
            steps = t + (t_next - t) * (np.arange(n + 1) / n)
            steps[-1] = t_next
            ta, tb = steps[:-1], steps[1:]
            tm = ta + 0.5 * (tb - ta)
            stages = np.stack([ta, tm, tm, tb], axis=1).reshape(-1)
            assert gap.table.shape == (4 * n, 1, 1)
            assert gap.table[:, 0, 0].tolist() == [envelope.value(s) for s in stages.tolist()]
            stage_times += stages.tolist()
        assert set(edges) <= set(stage_times)

    def test_equal_gaps_share_step_maps(self, params, reset, monkeypatch):
        """The default reset run holds its tones flat for 380 ns and ends in a
        zero tail; its 1 ns gaps differ in their last bits. It builds one
        step map per distinct (column, coefficients, step count, gap length),
        the gap length taken to 1 fs."""
        step_map, keys, runs = _StackedRHS.step_map, set(), set()

        def spy(rhs, b, coefficients, h, n):
            runs.add(rhs)
            keys.add((b, coefficients.tobytes(), n, round(h * n / 1e-15)))
            return step_map(rhs, b, coefficients, h, n)

        monkeypatch.setattr(_StackedRHS, "step_map", spy)
        sched = reset_schedule(params, reset)
        rho0 = mixed_initial_state(build_space(3), params.init_excited_pop, sched.frame)
        propagate(rho0, sched, params, until=sched.marker_times[-1] + 100e-9)
        (rhs,) = runs
        builds = len(rhs._maps)
        assert 0 < builds == len(keys)

    def test_rk4_click_matches_dop853(self, params, detect, capsys, readout, n_max):
        """The default-step RK4 clicks of ``detection_run`` at the paper's
        point, signal and dark, against DOP853 on the same schedules, within
        the 1e-7 click budget of ``IntegratorOptions`` (a tenth of
        perfbench's reference tolerance)."""
        from lambdadet.protocols import detection_run
        from lambdadet.pulses import detection_schedule
        from test_protocols import CLICK_BUDGET, _dop853_click

        out = detection_run(params, detect, readout=readout, n_max=n_max)
        errors = {
            name: abs(click - _dop853_click(params, detection_schedule(params, d), readout, n_max))
            for name, click, d in (
                ("signal", out.p_e, detect),
                ("dark", out.p_dark, dataclasses.replace(detect, nbar_s=0.0)),
            )
        }
        with capsys.disabled():
            print("\ndetection click error against DOP853: "
                  + ", ".join(f"{name} {err:.2e}" for name, err in errors.items()))
        assert max(errors.values()) <= CLICK_BUDGET

    def test_bit_identical_repeat(self, params, detect, readout, n_max):
        from lambdadet.protocols import detection_run

        opts = IntegratorOptions(max_step=0.2e-9)
        a = detection_run(params, detect, readout=readout, opts=opts, n_max=n_max)
        b = detection_run(params, detect, readout=readout, opts=opts, n_max=n_max)
        assert a.p_e == b.p_e and a.p_dark == b.p_dark and a.eta == b.eta


    @settings(max_examples=6, deadline=None)
    @given(
        rabi_mhz=st.floats(0.0, 25.0),
        delta_mhz=st.floats(25.0, 60.0),
        detuning_mhz=st.floats(-8.0, 8.0),
        flux=st.floats(0.0, 0.1),
    )
    def test_constant_envelopes_relax_to_steady_state(
        self, params, rabi_mhz, delta_mhz, detuning_mhz, flux
    ):
        """Under a drive and a signal that stay on, a long propagation ends in
        the steady state of the same Liouvillian (noise channels included)."""
        p = dataclasses.replace(params, gamma=TWO_PI * 2e6)
        space = build_space(2)
        omega_d = p.omega_ge - TWO_PI * delta_mhz * 1e6
        omega_s = p.omega_r + TWO_PI * detuning_mhz * 1e6
        rabi, alpha = TWO_PI * rabi_mhz * 1e6, math.sqrt(flux * p.kappa)
        frame = Frame(omega_d, omega_s)
        h = hamiltonian_static(p, frame, rabi, omega_d, space=space).matrix
        h = h + math.sqrt(p.kappa_ext) * alpha * input_quadratures(space)[0]
        collapses = collapse_operators(p, space) + drive_noise_channels(p, space, rabi)
        rho_ss = steady_state(h, collapses).matrix
        # run for 20 e-folds of the slowest relaxation
        rates = np.sort(-np.linalg.eigvals(liouvillian(h, collapses)).real)
        duration = 20.0 / rates[1]
        sched = PulseSchedule(
            ((ROLE_DRIVE, rect((rabi, omega_d), duration)),
             (ROLE_SIGNAL, rect((alpha, omega_s), duration))),
            frame,
            duration,
        )
        traj = propagate(
            mixed_initial_state(space, p.init_excited_pop, frame), sched, p,
            IntegratorOptions(max_step=0.5e-9, sample_dt=duration / 20),
        )
        assert np.max(np.abs(traj.final.matrix - rho_ss)) < 1e-7


class TestSteadyState:
    def test_undriven_ground_state(self, clean_params):
        space = build_space(2)
        frame = Frame(clean_params.omega_ge, clean_params.omega_r)
        h = hamiltonian_static(
            clean_params, frame, 0.0, frame.qubit_ref, space=space
        )
        rho = steady_state(h, collapse_operators(clean_params, space))
        expected = np.zeros((space.dim, space.dim))
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho.matrix - expected)) < 1e-10

    def test_driven_cavity_analytic(self, clean_params):
        p = clean_params
        space = build_space(3)
        alpha = math.sqrt(1e-4 * p.kappa)
        delta = TWO_PI * 3e6
        frame = Frame(p.omega_ge, p.omega_r + delta)
        h = hamiltonian_static(p, frame, 0.0, frame.qubit_ref, space=space).matrix
        p_quad, _ = input_quadratures(space)
        h = h + math.sqrt(p.kappa_ext) * alpha * p_quad
        rho = steady_state(h, collapse_operators(p, space), frame=frame, space=space)
        a_mean = np.trace(annihilation(space) @ rho.matrix)
        expected = math.sqrt(p.kappa_ext) * alpha / (p.kappa / 2 - 1j * delta)
        assert abs(a_mean - expected) / abs(expected) < 1e-5

    def test_residual_bound(self, clean_params):
        space = build_space(2)
        frame = Frame(clean_params.omega_ge, clean_params.omega_r)
        h = hamiltonian_static(clean_params, frame, 0.0, frame.qubit_ref, space=space)
        collapses = collapse_operators(clean_params, space)
        rho = steady_state(h, collapses)
        sup = liouvillian(h, collapses)
        assert np.linalg.norm(sup @ rho.matrix.reshape(-1)) < 1e-10 * np.linalg.norm(sup)

    def test_degenerate_liouvillian_flagged(self, clean_params):
        # gamma = 0 with a drive: both dressed n=0 states are dark to the
        # cavity decay, so the kernel is degenerate
        p = dataclasses.replace(clean_params, gamma=0.0)
        omega_d = p.omega_ge - TWO_PI * 49e6
        space = build_space(1)
        frame = Frame(omega_d, omega_d)
        h = hamiltonian_static(p, frame, TWO_PI * 30e6, omega_d, space=space)
        with pytest.raises(SteadyStateError) as err:
            steady_state(h, collapse_operators(p, space))
        assert err.value.nullity >= 2

    def test_matched_point_low_photon_number(self, clean_params, omega_d):
        from lambdadet.dressed import matching_amplitude
        from lambdadet.response import default_probe_amplitude

        p = clean_params
        space = build_space(3)
        rabi = matching_amplitude(p, omega_d)
        omega_s = TWO_PI * 10.268e9
        frame = Frame(omega_d, omega_s)
        h = hamiltonian_static(p, frame, rabi, omega_d, space=space).matrix
        p_quad, _ = input_quadratures(space)
        h = h + math.sqrt(p.kappa_ext) * default_probe_amplitude(p) * p_quad
        rho = steady_state(h, collapse_operators(p, space), frame=frame, space=space)
        n_op = np.diag(np.arange(space.dim) // 2).astype(complex)
        assert np.trace(n_op @ rho.matrix).real < 1.0

    def test_long_time_propagation_agrees(self, clean_params, omega_d):
        """Steady-state solve matches t = 20/kappa propagation on <a>.

        Uses the CW reflection configuration whose slowest relaxation is the
        cavity ramp (drive off); with the qubit drive on, the transient is
        governed by the much slower qubit saturation instead.
        """
        p = clean_params
        space = build_space(3)
        alpha = math.sqrt(1e-4 * p.kappa)
        omega_s = TWO_PI * 10.268e9
        frame = Frame(omega_d, omega_s)
        h = hamiltonian_static(p, frame, 0.0, omega_d, space=space).matrix
        p_quad, _ = input_quadratures(space)
        h_tot = h + math.sqrt(p.kappa_ext) * alpha * p_quad
        rho_ss = steady_state(h_tot, collapse_operators(p, space), frame=frame, space=space)
        a_ss = np.trace(annihilation(space) @ rho_ss.matrix)

        duration = 20 / p.kappa
        sched = PulseSchedule(
            ((ROLE_SIGNAL, rect((alpha, omega_s), duration)),), frame, duration
        )
        traj = propagate(
            mixed_initial_state(space, 0.0, frame), sched, p,
            IntegratorOptions(max_step=0.2e-9),
        )
        assert abs(traj.field[-1] - a_ss) / abs(a_ss) < 1e-4


def test_free_decay_helper(clean_params):
    """With every pulse off, ``propagate`` gives the exponential of the
    kron-built Liouvillian: pure T1 decay from |e>."""
    space = build_space(1)
    frame = Frame(clean_params.omega_ge, clean_params.omega_r)
    state = mixed_initial_state(space, 1.0, frame)
    later = propagate(state, PulseSchedule((), frame, 200e-9), clean_params).final
    h0 = hamiltonian_static(clean_params, frame, 0.0, frame.qubit_ref, space=space).matrix
    sup = liouvillian(h0, collapse_operators(clean_params, space))
    exact = (expm(sup * 200e-9) @ state.matrix.reshape(-1)).reshape(space.dim, space.dim)
    assert np.max(np.abs(later.matrix - exact)) <= 1e-9
    p_e = np.trace(qubit_number(space) @ later.matrix).real
    assert p_e == pytest.approx(math.exp(-clean_params.gamma * 200e-9), rel=1e-9)
    assert later.time == pytest.approx(200e-9)


class TestInFrame:
    """A frame change is an exact diagonal phase on the density matrix."""

    FRAMES = (
        Frame(TWO_PI * 6.2e9, TWO_PI * 10.162e9),
        Frame(TWO_PI * 6.2e9, TWO_PI * 10.268e9),
        Frame(TWO_PI * 6.21e9, TWO_PI * 10.3e9),
    )

    @staticmethod
    def _state(frame, seed=3, n_max=3, time=446e-9):
        """A random full-rank density matrix with every coherence nonzero."""
        rng = np.random.default_rng(seed)
        space = build_space(n_max)
        g = rng.normal(size=(space.dim,) * 2) + 1j * rng.normal(size=(space.dim,) * 2)
        rho = g @ g.conj().T
        return DensityState(rho / np.trace(rho).real, time, frame, space)

    def test_round_trip(self):
        a, b, _ = self.FRAMES
        state = self._state(a)
        back = state.in_frame(b).in_frame(a)
        assert back.frame == a and back.time == state.time
        assert np.max(np.abs(back.matrix - state.matrix)) <= 1e-15

    def test_composes(self):
        # phases of up to ~1e3 rad at t = 446 ns, so rounding allows ~1e-13
        a, b, c = self.FRAMES
        state = self._state(a)
        via_b = state.in_frame(b).in_frame(c)
        assert np.max(np.abs(via_b.matrix - state.in_frame(c).matrix)) <= 1e-12
        assert np.max(np.abs(state.in_frame(c).matrix - state.matrix)) > 0.01

    def test_trace_hermiticity_and_spectrum_unchanged(self):
        a, _, c = self.FRAMES
        state = self._state(a)
        moved = state.in_frame(c)
        assert np.array_equal(np.diag(moved.matrix), np.diag(state.matrix))
        assert np.trace(moved.matrix).real == np.trace(state.matrix).real
        assert np.max(np.abs(moved.matrix - moved.matrix.conj().T)) <= 1e-16
        assert np.allclose(
            np.linalg.eigvalsh(moved.matrix), np.linalg.eigvalsh(state.matrix), rtol=0, atol=1e-15
        )
