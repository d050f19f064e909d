import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lambdadet import protocols
from lambdadet.dynamics import (
    IntegratorOptions,
    liouvillian,
    mixed_initial_state,
    propagate,
    propagate_batch,
)
from lambdadet.errors import IntegrationError, LambdaModeError
from lambdadet.hilbert import build_space
from lambdadet.model import (
    collapse_operators,
    drive_noise_channels,
    drive_quadratures,
    hamiltonian_static,
    input_quadratures,
    qubit_flip,
)
from lambdadet.protocols import (
    ReadoutModel,
    _clicks,
    _cycle_schedule,
    _p_excited,
    dark_counts,
    detection_run,
    detection_trace,
    efficiency_map,
    efficiency_scan,
    full_cycle,
    reset_map,
    reset_run,
)
from lambdadet.pulses import (
    KIND_FLAT_TOP,
    ROLE_DRIVE,
    ROLE_RESET,
    ROLE_SIGNAL,
    detection_schedule,
    reset_schedule,
)
from lambdadet.sweep import row_blocks

OPTS = IntegratorOptions(max_step=0.2e-9)
CLICK_BUDGET = 1e-7  # the default step's error budget, stated on IntegratorOptions
ETA_BUDGET = 2e-7


class TestDetection:
    def test_vacuum_probability_formula(self):
        # eta normalizes by the coherent-pulse vacuum probability exp(-nbar)
        nbar = 0.1
        assert 1.0 - math.exp(-nbar) == pytest.approx(0.09516, abs=1e-5)

    def test_dark_run_identity(self, params, detect, readout, n_max):
        out = detection_run(params, dataclasses.replace(detect, nbar_s=0.0), readout=readout,
                            opts=OPTS, n_max=n_max)
        assert out.p_e == out.p_dark
        assert math.isnan(out.eta)

    def test_eta_subtracts_dark(self, params, detect, readout, n_max):
        out = detection_run(params, detect, readout=readout, opts=OPTS, n_max=n_max)
        expected = (out.p_e - out.p_dark) / (1.0 - math.exp(-0.1))
        assert out.eta == pytest.approx(expected, rel=1e-12)

    def test_no_drive_no_clicks(self, clean_params, detect, readout, n_max):
        out = detection_run(clean_params, dataclasses.replace(detect, rabi=0.0), readout=readout,
                            opts=OPTS, n_max=n_max)
        assert out.eta < 0.02
        assert out.p_dark < 1e-6

    def test_dark_count_drive_off_perfect_init(self, clean_params, detect, readout, n_max):
        dark = dataclasses.replace(detect, rabi=0.0, nbar_s=0.0)
        assert detection_run(clean_params, dark, readout=readout, opts=OPTS,
                             n_max=n_max).p_dark < 1e-6

    def test_readout_model_linearity(self, params, detect, readout, n_max):
        errors = dataclasses.replace(readout, eps_ge=0.04, eps_eg=0.12)
        plain = detection_run(params, detect, readout=readout, opts=OPTS, n_max=n_max)
        dressed = detection_run(params, detect, readout=errors, opts=OPTS, n_max=n_max)
        expected = (1 - 0.12) * plain.p_e + 0.04 * (1 - plain.p_e)
        assert dressed.p_e == pytest.approx(expected, rel=1e-9)

    def test_readout_model_validation(self, readout):
        with pytest.raises(ValueError):
            dataclasses.replace(readout, eps_ge=0.5)
        with pytest.raises(ValueError):
            dataclasses.replace(readout, eps_eg=-0.1)

    def test_eta_invariant_under_calibration_constant(self, params, detect, readout, n_max):
        """Expressing the op point in Omega gives bit-identical results."""
        rescaled = dataclasses.replace(
            params, drive_power_to_rabi=params.drive_power_to_rabi * 3.7
        )
        a = detection_run(params, detect, readout=readout, opts=OPTS, n_max=n_max)
        b = detection_run(rescaled, detect, readout=readout, opts=OPTS, n_max=n_max)
        assert a.p_e == b.p_e and a.eta == b.eta

    def test_nesting_enforced(self, params, detect, readout, n_max):
        bad = dataclasses.replace(detect, rabi=1e8, omega_d=params.omega_ge - 3 * params.chi)
        with pytest.raises(LambdaModeError):
            detection_run(params, bad, readout=readout, opts=OPTS, n_max=n_max)

    def test_fock_convergence_flag_clean(self, params, detect, readout, n_max):
        opts = dataclasses.replace(OPTS, fock_convergence=True)
        out = detection_run(params, detect, readout=readout, opts=opts, n_max=n_max)
        assert out.flags == ""

    def test_trace_has_marker_and_observables(self, params, detect, readout, n_max):
        out, traj = detection_trace(params, detect, readout=readout, opts=OPTS, n_max=n_max)
        assert out == detection_run(params, detect, readout=readout, opts=OPTS, n_max=n_max)
        # the run ends at the click, one latch delay after the readout
        # marker, which is a sample
        marker = detection_schedule(params, detect).marker_times[-1]
        t_click = traj.times[-1]
        assert t_click - marker == pytest.approx(readout.latch_delay)
        assert traj.final.time == t_click and marker in traj.times
        assert len(traj.times) > 100
        assert np.all(traj.trace_error < 1e-9)

    def test_dark_monotone_in_power(self, params, detect, readout, n_max):
        """Dark counts grow with drive power over the scanned range."""
        values = [
            detection_run(
                params,
                dataclasses.replace(detect, rabi=params.rabi_of_dbm(p_dbm), nbar_s=0.0),
                readout=readout, opts=OPTS, n_max=n_max,
            ).p_dark
            for p_dbm in (-78.0, -76.5, -75.0, -73.5)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestPhotonNumberScan:
    def test_zero_omega_d_is_not_the_default(self, params, detect, readout, n_max):
        """An explicit omega_d = 0 is checked, not replaced by the default."""
        zero = dataclasses.replace(detect, omega_d=0.0)
        with pytest.raises(LambdaModeError):
            efficiency_scan(params, zero, (85e-9,), (zero.nbar_s,), readout=readout, opts=OPTS,
                            n_max=n_max)
        with pytest.raises(LambdaModeError):
            efficiency_scan(params, zero, (zero.t_s,), (0.1,), readout=readout, opts=OPTS,
                            n_max=n_max)

    def test_weak_limit_extrapolation(self, params, detect, readout, n_max):
        """Richardson-style nbar -> 0 extrapolation matches the 0.1 value."""
        outs = efficiency_scan(params, detect, (detect.t_s,), (0.025, 0.05, 0.1), readout=readout,
                               opts=OPTS, n_max=n_max)
        etas = np.array([o.eta for o in outs])
        # linear fit in nbar, extrapolated to zero
        coeffs = np.polyfit([0.025, 0.05, 0.1], etas, 1)
        eta0 = coeffs[1]
        assert eta0 == pytest.approx(etas[2], rel=0.05)


class TestReset:
    def test_reset_outcome_fields(self, params, reset, detect, readout_stage, readout, n_max):
        out = reset_run(params, reset, readout=readout, opts=OPTS, n_max=n_max,
                        detect_stage=detect.stage, readout_stage=readout_stage)
        assert 0.0 <= out.p_e_after_reset <= 1.0
        assert out.reset_stage == pytest.approx(410e-9)
        assert out.period == pytest.approx(410e-9 + 207.5e-9 + 140e-9)
        assert out.rate == pytest.approx(1.0 / out.period)

    def test_reset_without_pi_equivalent(self, params, reset, detect, readout_stage, readout,
                                         n_max):
        kw = dict(readout=readout, opts=OPTS, n_max=n_max, detect_stage=detect.stage,
                  readout_stage=readout_stage)
        with_pi = reset_run(params, reset, True, **kw)
        without = reset_run(params, reset, False, **kw)
        assert abs(with_pi.p_e_after_reset - without.p_e_after_reset) < 0.01

    def test_zero_drive_free_decay_only(self, clean_params, reset, detect, readout_stage, readout,
                                        n_max):
        """Without the drive the excited state only relaxes with T1."""
        idle = dataclasses.replace(reset, rabi_dr=0.0, nbar_rst=0.0)
        out = reset_run(clean_params, idle, readout=readout, opts=OPTS, n_max=n_max,
                        detect_stage=detect.stage, readout_stage=readout_stage)
        sigma_e = 2 * 15e-9 / (2 * math.sqrt(2 * math.log(2)))
        t_click = 4 * sigma_e + 380e-9 + 15e-9 + 100e-9
        assert out.p_e_after_reset == pytest.approx(
            math.exp(-clean_params.gamma * t_click), rel=1e-3
        )


class TestFullCycle:
    def test_reset_drive_outside_nesting_raises(self, params, detect, reset, readout_stage,
                                                readout, n_max):
        """The cycle checks its reset drive as ``reset_run`` does."""
        bad = dataclasses.replace(reset, omega_d=params.omega_ge - 3 * params.chi)
        with pytest.raises(LambdaModeError):
            full_cycle(params, detect, bad, readout=readout, opts=OPTS, n_max=n_max,
                       readout_stage=readout_stage)

    def test_detection_drive_outside_nesting_raises_before_propagating(
        self, params, detect, reset, readout_stage, monkeypatch, readout, n_max
    ):
        def no_propagation(*args, **kwargs):
            raise AssertionError("propagate_batch ran before the nesting check")

        monkeypatch.setattr(protocols, "propagate_batch", no_propagation)
        bad = dataclasses.replace(detect, omega_d=params.omega_ge - 3 * params.chi)
        with pytest.raises(LambdaModeError):
            full_cycle(params, bad, reset, readout=readout, opts=OPTS, n_max=n_max,
                       readout_stage=readout_stage)

    def test_fock_check_flags_a_low_cutoff(self, params, detect, reset, readout_stage, readout):
        """At n_max = 1 the cutoff check of the cycle flags, so
        ``cycle --strict`` can fail."""
        opts = dataclasses.replace(OPTS, fock_convergence=True)
        out = full_cycle(params, detect, reset, readout=readout, opts=opts, n_max=1,
                         readout_stage=readout_stage)
        assert out.flags.startswith("fock-unconverged:cycle_p_e:")

    @pytest.mark.parametrize("max_step", [0.2e-9, 0.5e-9])
    def test_coarse_steps_pass_the_checks(self, params, detect, reset, readout_stage,
                                          cycle_fine_reference, max_step, readout, n_max):
        """Each stage runs in a frame where its strong tone is static, so
        coarse steps pass every per-sample check and land on the click of
        the fine 0.1 ns reference run. In one frame both steps break
        positivity."""
        out = full_cycle(params, detect, reset, readout=readout,
                         opts=IntegratorOptions(max_step=max_step), n_max=n_max,
                         readout_stage=readout_stage)
        assert abs(out.p_e_after_reset - cycle_fine_reference.p_e_after_reset) <= 1e-6
        assert abs(out.eta_after_reset - cycle_fine_reference.eta_after_reset) <= 1e-6

    def test_stages_share_the_cycle_events(self, params, detect, reset):
        """Both stages hold every tone and the same events: the detection
        stage's marker and the reset stage's pi pulse. The first stage ends
        at the reset stage's marker."""
        first, second = _cycle_schedule(params, detect, reset=reset)
        r_sched = reset_schedule(params, reset)
        d_sched = detection_schedule(params, detect, start=r_sched.marker_times[-1])
        for stage in (first, second):
            assert stage.entries == r_sched.entries + d_sched.entries
            assert stage.marker_times == d_sched.marker_times
            assert stage.pi_times == (0.0,)
        assert first.duration == r_sched.marker_times[-1]
        assert second.duration == d_sched.duration

    def test_two_stages_beat_one_frame_against_dop853(self, params, detect, reset,
                                                      dop853_clicks, capsys, readout, n_max):
        """The cycle click, signal and dark, in both frames against DOP853 on
        the same schedule: the two-stage run is within 2e-8 and no worse
        than the one-frame run, where the reset tone oscillates."""
        opts = IntegratorOptions(max_step=0.1e-9)
        errors = {}
        dark = dataclasses.replace(detect, nbar_s=0.0)
        for d, run in ((detect, "cycle signal"), (dark, "cycle dark")):
            _, one_frame = _cycle_schedule(params, d, reset=reset)
            reference = dop853_clicks[run]
            errors[d.nbar_s] = (
                abs(_click_alone(params, one_frame, opts, readout, n_max) - reference),
                abs(_cycle_click_alone(params, d, reset, opts, readout, n_max) - reference),
            )
        with capsys.disabled():
            for nbar_s, (one, two) in errors.items():
                print(f"\ncycle click, nbar_s = {nbar_s}: error against DOP853 "
                      f"{one:.2e} in one frame, {two:.2e} in two stages")
        for one, two in errors.values():
            assert two <= 2e-8 and two <= one


class TestRowBatches:
    """A block of consecutive map rows propagates as one batch; each of its
    points gives the click it gives alone through ``propagate``, and each
    row the values it gives alone."""

    FREQS = 2 * np.pi * np.array([10.264e9, 10.268e9, 10.272e9])

    def test_detection_row_matches_single_runs(self, params, detect, readout, n_max):
        emap = efficiency_map(params, detect, [-75.5], self.FREQS, readout=readout, opts=OPTS,
                              n_max=n_max)
        dark = detection_run(
            params, dataclasses.replace(detect, omega_s=self.FREQS[0], nbar_s=0.0),
            readout=readout, opts=OPTS, n_max=n_max,
        )
        for j, omega_s in enumerate(self.FREQS):
            alone = detection_run(params, dataclasses.replace(detect, omega_s=omega_s),
                                  readout=readout, opts=OPTS, n_max=n_max)
            assert abs(emap.p_e[0, j] - alone.p_e) <= 1e-12
            assert abs(emap.p_dark[0, j] - dark.p_dark) <= 1e-12
            assert abs(emap.eta[0, j] - alone.eta) <= 1e-12

    def test_reset_row_matches_single_runs(self, params, reset, detect, readout_stage, readout,
                                           n_max):
        freqs = 2 * np.pi * np.array([10.159e9, 10.165e9])
        rmap = reset_map(params, reset, [-72.1], freqs, readout=readout, opts=OPTS, n_max=n_max)
        kw = dict(readout=readout, opts=OPTS, n_max=n_max, detect_stage=detect.stage,
                  readout_stage=readout_stage)
        baseline = reset_run(params, dataclasses.replace(reset, omega_rst=freqs[0]), **kw)
        assert abs(rmap.p_e_no_reset[0] - baseline.p_e_no_reset) <= 1e-12
        for j, omega_rst in enumerate(freqs):
            alone = reset_run(params, dataclasses.replace(reset, omega_rst=omega_rst), **kw)
            assert abs(rmap.p_e[0, j] - alone.p_e_after_reset) <= 1e-12

    def test_map_rows_match_each_row_alone(self, params, detect, reset, readout, n_max):
        """Several drive powers in one batch give, bit for bit, the values
        of each power's row run alone: no row couples to another."""
        powers = [-76.0, -75.5, -75.0]
        assert row_blocks(len(powers), 1 + len(self.FREQS)) == [range(3)]
        emap = efficiency_map(params, detect, powers, self.FREQS, readout=readout, opts=OPTS,
                              n_max=n_max)
        for i, p in enumerate(powers):
            alone = efficiency_map(params, detect, [p], self.FREQS, readout=readout, opts=OPTS,
                                   n_max=n_max)
            for name in ("p_e", "p_dark", "eta"):
                assert np.array_equal(getattr(emap, name)[i], getattr(alone, name)[0])
        powers = [-72.6, -72.1]
        freqs = 2 * np.pi * np.array([10.159e9, 10.165e9])
        rmap = reset_map(params, reset, powers, freqs, readout=readout, opts=OPTS, n_max=n_max)
        for i, p in enumerate(powers):
            alone = reset_map(params, reset, [p], freqs, readout=readout, opts=OPTS, n_max=n_max)
            assert np.array_equal(rmap.p_e[i], alone.p_e[0])
            assert rmap.p_e_no_reset[i] == alone.p_e_no_reset[0]

    def test_cycle_schedules_batch_with_oscillating_terms(self, params, detect, reset):
        """In each stage of the cycle a tone sits off the frame (cos and sin
        terms): the signal pulse's rising tail in the reset tone's frame,
        the reset tone's falling tail in the detection frame. The signal and
        dark runs of each stage share one timeline and batch as they run
        alone."""
        firsts, scheds = zip(*(
            _cycle_schedule(params, d, reset=reset)
            for d in (detect, dataclasses.replace(detect, nbar_s=0.0))
        ))
        space = build_space(3)
        rho0s = [mixed_initial_state(space, params.init_excited_pop, s.frame) for s in firsts]
        for stage in (firsts, scheds):
            batch = propagate_batch(rho0s, stage, params, OPTS)
            # one read-only times array, shared by the batch
            assert batch[0].times is batch[1].times and not batch[0].times.flags.writeable
            for rho0, sched, traj in zip(rho0s, stage, batch):
                alone = propagate(rho0, sched, params, OPTS)
                assert np.array_equal(traj.times, alone.times)
                assert np.max(np.abs(traj.p_excited - alone.p_excited)) <= 1e-12
                assert np.max(np.abs(traj.final.matrix - alone.final.matrix)) <= 1e-12
            rho0s = [traj.final.in_frame(s.frame) for traj, s in zip(batch, scheds)]

    def test_failed_column_is_isolated(self, params, detect, readout, n_max):
        """A signal 3 GHz off the resonator breaks RK4 at a 0.25 ns step: that
        point is NaN and flagged with the message propagate raises for it
        alone, and the other points are untouched."""
        opts = IntegratorOptions(max_step=0.25e-9)
        freqs = np.append(self.FREQS[:2], 2 * np.pi * 13.3e9)
        emap = efficiency_map(params, detect, [-75.5], freqs, readout=readout, opts=opts,
                              n_max=n_max)
        with pytest.raises(IntegrationError) as alone:
            detection_run(params, dataclasses.replace(detect, omega_s=freqs[2]), readout=readout,
                          opts=opts, n_max=n_max)
        assert emap.flags == [(0, 2, str(alone.value))]
        assert np.isnan(emap.eta[0, 2]) and np.isnan(emap.p_e[0, 2])
        good = efficiency_map(params, detect, [-75.5], freqs[:2], readout=readout, opts=opts,
                              n_max=n_max)
        assert np.array_equal(emap.p_e[:, :2], good.p_e)
        assert np.array_equal(emap.eta[:, :2], good.eta)

    def test_column_failed_in_the_first_stage_is_isolated(self, params, detect, readout, n_max):
        """Two-stage runs: a signal 3 GHz off the resonator breaks RK4 at a
        0.25 ns step in the first stage. That column fails with the message
        ``propagate`` raises for its first stage alone; the other column
        gives the click of its two stages run alone."""
        opts = IntegratorOptions(max_step=0.25e-9)
        runs = (detect, dataclasses.replace(detect, omega_s=2 * np.pi * 13.3e9))
        firsts = [detection_schedule(params, d) for d in runs]
        scheds = [detection_schedule(params, d, start=firsts[0].duration) for d in runs]
        good, bad = _clicks(scheds, params, readout, opts, n_max, first=firsts)
        rho0s = [mixed_initial_state(build_space(n_max), params.init_excited_pop, s.frame)
                 for s in firsts]
        with pytest.raises(IntegrationError) as alone:
            propagate(rho0s[1], firsts[1], params, opts)
        assert bad.failed and str(bad.run) == str(alone.value) and math.isnan(bad.value)
        mid = propagate(rho0s[0], firsts[0], params, opts).final.in_frame(scheds[0].frame)
        assert good.value == _click_alone(params, scheds[0], opts, readout, n_max, rho0=mid)


def _click_alone(params, sched, opts, readout, n_max, rho0=None):
    """The click of one schedule through a B = 1 ``propagate``, from the
    initial mixture at t = 0 or from ``rho0``."""
    t_click = sched.marker_times[-1] + readout.latch_delay
    if rho0 is None:
        rho0 = mixed_initial_state(build_space(n_max), params.init_excited_pop, sched.frame)
    traj = propagate(rho0, sched, params, opts, until=t_click)
    return readout.click_probability(_p_excited(traj.final))


def _cycle_click_alone(params, detect, reset, opts, readout, n_max):
    """The click of the two-stage cycle through B = 1 ``propagate`` calls."""
    first, sched = _cycle_schedule(params, detect, reset=reset)
    rho0 = mixed_initial_state(build_space(n_max), params.init_excited_pop, first.frame)
    mid = propagate(rho0, first, params, opts).final.in_frame(sched.frame)
    return _click_alone(params, sched, opts, readout, n_max, rho0=mid)


def _dop853_click(params, sched, readout, n_max):
    """The click of a schedule by DOP853 (rtol 1e-11) on a Liouvillian
    built here from kron products, split at every support and plateau edge
    and at its pi pulses, which flip the qubit exactly. The carriers follow
    the conventions of ``drive_quadratures`` and ``input_quadratures``."""
    space = build_space(n_max)
    frame = sched.frame
    h0 = hamiltonian_static(params, frame, 0.0, frame.qubit_ref, space=space).matrix
    root_kext = math.sqrt(params.kappa_ext)
    blocks = [liouvillian(h0, collapse_operators(params, space))]
    terms = []  # (envelope, detuning, noise) for the blocks after the static one
    for role, env in sched.entries:
        if env.amplitude == 0.0:
            continue
        if role == ROLE_DRIVE:
            detuning, quads = env.carrier - frame.qubit_ref, drive_quadratures(space)
            blocks += [liouvillian(q / 2.0, []) for q in quads]
            blocks.append(liouvillian(np.zeros_like(h0), drive_noise_channels(params, space, 1.0)))
            terms.append((env, detuning, True))
        elif role in (ROLE_SIGNAL, ROLE_RESET):
            detuning, quads = env.carrier - frame.resonator_ref, input_quadratures(space)
            blocks += [liouvillian(root_kext * q, []) for q in quads]
            terms.append((env, detuning, False))
    stacked = np.concatenate(blocks)

    def rhs(t, x):
        coefficients = [1.0]
        for env, detuning, noise in terms:
            v = env.value(t)
            coefficients += [v * math.cos(detuning * t), v * math.sin(detuning * t)]
            if noise:
                coefficients.append(v * v)
        return np.asarray(coefficients) @ (stacked @ x).reshape(len(blocks), -1)

    t_click = sched.marker_times[-1] + readout.latch_delay
    pi_times = set(sched.pi_times)
    edges = {0.0, t_click, *sched.marker_times} | pi_times
    for _, env in sched.entries:
        edges.update(env.support())
        if env.kind == KIND_FLAT_TOP:
            edges.update((env.center - env.width / 2.0, env.center + env.width / 2.0))
    edges = sorted(t for t in edges if 0.0 <= t <= t_click)
    flip = qubit_flip(space)
    x = mixed_initial_state(space, params.init_excited_pop, frame).matrix.reshape(-1)
    for ta, tb in zip(edges[:-1], edges[1:]):
        if ta in pi_times:
            x = (flip @ x.reshape(space.dim, space.dim) @ flip).reshape(-1)
        sol = solve_ivp(rhs, (ta, tb), x, method="DOP853", rtol=1e-11, atol=1e-13)
        assert sol.success, sol.message
        x = sol.y[:, -1]
    p_e = np.real(np.diag(x.reshape(space.dim, space.dim)))[1::2].sum()
    return readout.click_probability(float(p_e))


@pytest.fixture(scope="module")
def cycle_fine_reference(params, detect, reset, readout_stage, readout, n_max):
    """``full_cycle`` at the paper's point and a fine 0.1 ns step, the
    reference run of the coarse-step tests."""
    return full_cycle(params, detect, reset, readout=readout,
                      opts=IntegratorOptions(max_step=0.1e-9), n_max=n_max,
                      readout_stage=readout_stage)


@pytest.fixture(scope="module")
def dop853_clicks(params, detect, reset, readout, n_max):
    """The DOP853 clicks of the paper's point by run: detection signal and
    dark, reset and its no-reset baseline, and the cycle's signal and dark
    runs, each cycle run on its whole schedule in the detection frame."""
    dark = dataclasses.replace(detect, nbar_s=0.0)
    schedules = {
        "detect signal": detection_schedule(params, detect),
        "detect dark": detection_schedule(params, dark),
        "reset": reset_schedule(params, reset),
        "reset baseline": reset_schedule(params, dataclasses.replace(reset, nbar_rst=0.0)),
        "cycle signal": _cycle_schedule(params, detect, reset=reset)[1],
        "cycle dark": _cycle_schedule(params, dark, reset=reset)[1],
    }
    return {run: _dop853_click(params, s, readout, n_max) for run, s in schedules.items()}


def _check_step_budget(label, quantities, references, capsys):
    """Runs ``quantities(opts)`` at the default step and at half of it and
    checks each default-step value against its DOP853 reference and its
    half-step value: within ETA_BUDGET for an eta, CLICK_BUDGET for a
    click."""
    default = quantities(IntegratorOptions())
    half = quantities(IntegratorOptions(max_step=IntegratorOptions().max_step / 2))
    errors = {name: (value - references[name], value - half[name])
              for name, value in default.items()}
    with capsys.disabled():
        print(f"\n{label} at the default step, error against DOP853 / against half the step: "
              + ", ".join(f"{name} {ref:+.1e} / {hlf:+.1e}" for name, (ref, hlf) in errors.items()))
    for name, (against_reference, against_half) in errors.items():
        budget = ETA_BUDGET if name.startswith("eta") else CLICK_BUDGET
        assert abs(against_reference) <= budget and abs(against_half) <= budget, name


class TestStepBudget:
    """At the paper's point and the default step, every click lies within
    CLICK_BUDGET and every eta within ETA_BUDGET of DOP853 and of the run
    at half the step."""

    def test_detection(self, params, detect, dop853_clicks, capsys, readout, n_max):
        signal, dark = dop853_clicks["detect signal"], dop853_clicks["detect dark"]
        vacuum = 1.0 - math.exp(-detect.nbar_s)

        def quantities(opts):
            out = detection_run(params, detect, readout=readout, opts=opts, n_max=n_max)
            return {"signal": out.p_e, "dark": out.p_dark, "eta": out.eta}

        references = {"signal": signal, "dark": dark, "eta": (signal - dark) / vacuum}
        _check_step_budget("detection_run", quantities, references, capsys)

    def test_reset(self, params, detect, reset, readout_stage, dop853_clicks, capsys, readout,
                   n_max):
        def quantities(opts):
            out = reset_run(params, reset, readout=readout, opts=opts, n_max=n_max,
                            detect_stage=detect.stage, readout_stage=readout_stage)
            return {"reset": out.p_e_after_reset, "no-reset baseline": out.p_e_no_reset}

        references = {"reset": dop853_clicks["reset"],
                      "no-reset baseline": dop853_clicks["reset baseline"]}
        _check_step_budget("reset_run", quantities, references, capsys)

    def test_cycle(self, params, detect, reset, readout_stage, dop853_clicks, capsys, readout,
                   n_max):
        vacuum = 1.0 - math.exp(-detect.nbar_s)

        def quantities(opts):
            out = full_cycle(params, detect, reset, readout=readout, opts=opts, n_max=n_max,
                             readout_stage=readout_stage)
            return {
                "signal": out.p_e_after_reset + out.eta_after_reset * vacuum,
                "dark": out.p_e_after_reset,
                "eta": out.eta_fresh,
                "eta after reset": out.eta_after_reset,
            }

        clicks = dop853_clicks
        references = {
            "signal": clicks["cycle signal"],
            "dark": clicks["cycle dark"],
            "eta": (clicks["detect signal"] - clicks["detect dark"]) / vacuum,
            "eta after reset": (clicks["cycle signal"] - clicks["cycle dark"]) / vacuum,
        }
        _check_step_budget("full_cycle", quantities, references, capsys)


class TestSinglePointBatches:
    """Runs on one timeline propagate as one batch; each click equals the
    B = 1 ``propagate`` click bit for bit."""

    def test_detection_signal_and_dark(self, params, detect, readout, n_max):
        out = detection_run(params, detect, readout=readout, opts=OPTS, n_max=n_max)
        dark = dataclasses.replace(detect, nbar_s=0.0)
        assert out.p_e == _click_alone(params, detection_schedule(params, detect), OPTS,
                                       readout, n_max)
        assert out.p_dark == _click_alone(params, detection_schedule(params, dark), OPTS,
                                          readout, n_max)

    def test_reset_and_baseline(self, params, reset, detect, readout_stage, readout, n_max):
        out = reset_run(params, reset, readout=readout, opts=OPTS, n_max=n_max,
                        detect_stage=detect.stage, readout_stage=readout_stage)
        baseline = dataclasses.replace(reset, nbar_rst=0.0)
        assert out.p_e_after_reset == _click_alone(params, reset_schedule(params, reset), OPTS,
                                                   readout, n_max)
        assert out.p_e_no_reset == _click_alone(params, reset_schedule(params, baseline), OPTS,
                                                readout, n_max)

    def test_cycle_signal_and_dark(self, params, detect, reset, cycle_fine_reference, readout,
                                   n_max):
        """The cycle's dark click equals the two-stage chain run alone."""
        opts = IntegratorOptions(max_step=0.1e-9)
        out = cycle_fine_reference
        dark = dataclasses.replace(detect, nbar_s=0.0)
        assert out.p_e_after_reset == _cycle_click_alone(params, dark, reset, opts, readout, n_max)
        assert out.eta_fresh == detection_run(params, detect, readout=readout, opts=opts,
                                              n_max=n_max).eta

    def test_photon_number_scan(self, params, detect, readout, n_max):
        nbars = (0.05, 0.1, 0.3)
        outs = efficiency_scan(params, detect, (detect.t_s,), nbars, readout=readout, opts=OPTS,
                               n_max=n_max)
        for nbar, out in zip(nbars, outs):
            alone = detection_run(params, dataclasses.replace(detect, nbar_s=nbar),
                                  readout=readout, opts=OPTS, n_max=n_max)
            assert out == alone

    def test_dark_counts(self, params, detect, readout, n_max):
        rabis = [params.rabi_of_dbm(p) for p in (-77.0, -75.5)] + [0.0]
        outs = dark_counts(params, detect, rabis, readout=readout, opts=OPTS, n_max=n_max)
        for rabi, out in zip(rabis, outs):
            alone = detection_run(params, dataclasses.replace(detect, rabi=rabi, nbar_s=0.0),
                                  readout=readout, opts=OPTS, n_max=n_max)
            assert (out.rabi, out.p_e, out.p_dark) == (rabi, alone.p_e, alone.p_dark)

    def test_failed_column_raises_its_propagate_error(self, params, detect, readout, n_max):
        """A signal 3 GHz off the resonator breaks RK4 at a 0.25 ns step; its
        dark run does not. The batch raises what propagate raises for the
        signal schedule alone."""
        opts = IntegratorOptions(max_step=0.25e-9)
        off = dataclasses.replace(detect, omega_s=2 * np.pi * 13.3e9)
        with pytest.raises(IntegrationError) as alone:
            _click_alone(params, detection_schedule(params, off), opts, readout, n_max)
        dark = detection_schedule(params, dataclasses.replace(off, nbar_s=0.0))
        _click_alone(params, dark, opts, readout, n_max)
        with pytest.raises(IntegrationError) as batched:
            detection_run(params, off, readout=readout, opts=opts, n_max=n_max)
        assert str(batched.value) == str(alone.value)
