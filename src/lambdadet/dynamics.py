"""Lindblad master-equation engine.

Time propagation runs on the vectorized density matrix: the right-hand side
is assembled once per schedule as a static superoperator plus one
superoperator per time-dependent quadrature, so each evaluation is a handful
of small matrix-vector products. The pieces the Liouvillian is affine in are
built once per (params, n_max) in a read-only ``Superoperators`` record;
CW reflection assembles a whole row of Liouvillians from it and solves the
stack at once. ``liouvillian`` builds one Liouvillian from kron products and
is the oracle the record is checked against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationError, SteadyStateError
from .hilbert import (
    ComplexOperator,
    HilbertSpace,
    annihilation,
    build_space,
    photon_number,
    qubit_lowering,
    qubit_number,
)
from .model import (
    Frame,
    collapse_operators,
    drive_noise_channels,
    drive_quadratures,
    hamiltonian_static,
    input_quadratures,
    qubit_flip,
)
from .params import SystemParams
from .pulses import ROLE_DRIVE, ROLE_RESET, ROLE_SIGNAL, PulseSchedule

TRACE_TOL = 1e-9
HERM_TOL = 1e-10
POSITIVITY_TOL = -1e-8
TRACE_DRIFT_LIMIT = 1e-6

METHOD_FIXED_RK4 = "fixed_rk4"
METHOD_ADAPTIVE_RK45 = "adaptive_rk45"


@dataclass(frozen=True)
class IntegratorOptions:
    """Propagation controls.

    ``max_step`` bounds both the fixed RK4 step and the adaptive solver's
    step. ``fock_convergence`` asks protocol-level callers to re-run at
    n_max + 1 and compare scalar outputs.
    """

    method: str = METHOD_FIXED_RK4
    max_step: float = 0.1e-9
    rtol: float = 1e-8
    atol: float = 1e-10
    sample_dt: float = 1.0e-9
    fock_convergence: bool = False

    def __post_init__(self):
        if self.method not in (METHOD_FIXED_RK4, METHOD_ADAPTIVE_RK45):
            raise ValueError(f"unknown integrator_method {self.method!r}")
        for name in ("max_step", "rtol", "atol", "sample_dt"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name):g}")


@dataclass
class DensityState:
    """Density matrix with time and frame tags."""

    matrix: np.ndarray
    time: float
    frame: Frame
    space: HilbertSpace

    def trace_error(self) -> float:
        return abs(float(np.trace(self.matrix).real) - 1.0)

    def hermiticity_error(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def min_eigenvalue(self) -> float:
        herm = 0.5 * (self.matrix + self.matrix.conj().T)
        return float(np.linalg.eigvalsh(herm)[0])

    def validate(self, trace_tol=TRACE_TOL, herm_tol=HERM_TOL, pos_tol=POSITIVITY_TOL):
        if self.trace_error() > trace_tol:
            raise IntegrationError(
                f"trace error {self.trace_error():.2e} exceeds {trace_tol:.0e} at t={self.time:.3e}"
            )
        if self.hermiticity_error() > herm_tol:
            raise IntegrationError(
                f"hermiticity error {self.hermiticity_error():.2e} at t={self.time:.3e}"
            )
        if self.min_eigenvalue() < pos_tol:
            raise IntegrationError(
                f"negative eigenvalue {self.min_eigenvalue():.2e} at t={self.time:.3e}"
            )


def mixed_initial_state(space: HilbertSpace, excited_pop: float, frame: Frame) -> DensityState:
    """(1 - p)|g,0><g,0| + p|e,0><e,0| at t = 0."""
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    rho[space.index(0, 0), space.index(0, 0)] = 1.0 - excited_pop
    rho[space.index(1, 0), space.index(1, 0)] = excited_pop
    return DensityState(rho, 0.0, frame, space)


def lindblad_rhs(rho: np.ndarray, hamiltonian: np.ndarray | None, collapses) -> np.ndarray:
    """drho/dt = -i[H, rho] + sum_k gamma_k (L rho L' - {L'L, rho}/2).

    ``collapses`` is an iterable of (operator, rate) pairs where the operator
    may be a ComplexOperator or a plain ndarray.
    """
    out = np.zeros_like(rho)
    if hamiltonian is not None:
        h = hamiltonian.matrix if isinstance(hamiltonian, ComplexOperator) else hamiltonian
        out += -1j * (h @ rho - rho @ h)
    for op, rate in collapses:
        if rate == 0.0:
            continue
        c = op.matrix if isinstance(op, ComplexOperator) else op
        cdc = c.conj().T @ c
        out += rate * (c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc))
    return out


def _commutator_superop(h: np.ndarray) -> np.ndarray:
    # row-major vectorization: vec(A rho B) = kron(A, B.T) vec(rho)
    d = h.shape[0]
    eye = np.eye(d)
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


def _dissipator_superop(c: np.ndarray, rate: float) -> np.ndarray:
    d = c.shape[0]
    eye = np.eye(d)
    cdc = c.conj().T @ c
    return rate * (
        np.kron(c, c.conj()) - 0.5 * np.kron(cdc, eye) - 0.5 * np.kron(eye, cdc.T)
    )


def liouvillian(hamiltonian, collapses) -> np.ndarray:
    """Dense superoperator acting on the row-major vectorized density matrix."""
    if isinstance(hamiltonian, ComplexOperator):
        h = hamiltonian.matrix
    else:
        h = np.asarray(hamiltonian, dtype=complex)
    sup = _commutator_superop(h)
    for op, rate in collapses:
        if rate == 0.0:
            continue
        c = op.matrix if isinstance(op, ComplexOperator) else np.asarray(op, dtype=complex)
        sup = sup + _dissipator_superop(c, rate)
    return sup


@dataclass(frozen=True)
class Superoperators:
    """Superoperator pieces the Liouvillian is affine in, for one (params, n_max).

    The pieces are the commutators of n_q, n_ph and n_q n_ph, of the drive
    quadratures (X, Y) and of the input quadratures (P, Q); the dissipator
    sum of ``collapse_operators``; and the drive-noise dissipators at unit
    rate, which a pulse schedule scales by the instantaneous noise rate.
    The number-operator commutators are diagonal, so the record keeps
    the operators' diagonals and forms the Hamiltonian's diagonal before its
    commutator, as ``liouvillian`` does. A commutator piece touches only
    entries the dissipators leave zero, or on the diagonal only the
    imaginary part, which they leave zero; summed in the order of
    ``liouvillian``, the pieces give the kron build bit for bit. Read-only;
    get it from ``superoperators``.
    """

    params: SystemParams
    space: HilbertSpace
    n_q: np.ndarray
    n_ph: np.ndarray
    n_q_n_ph: np.ndarray
    drive: tuple  # -i[X, .], -i[Y, .]
    input: tuple  # -i[P, .], -i[Q, .]
    dissipators: np.ndarray
    flip_up: np.ndarray  # D[sigma_plus] at unit rate, for the drive-line noise
    flip_down: np.ndarray  # D[sigma_minus] at unit rate
    dephasing: np.ndarray  # D[n_q] at unit rate

    def cw_liouvillians(self, omega_d: float, rabi: float, omega_s, input_amp) -> np.ndarray:
        """(B, D, D) Liouvillians of a drive at omega_d and B input tones.

        Tone k sits at omega_s[k] with sqrt(kappa_ext) times its amplitude
        equal to input_amp[k], in the frame (omega_d, omega_s[k]). Equals
        ``liouvillian`` of ``hamiltonian_static`` plus input_amp[k] P, with
        ``collapse_operators`` and ``drive_noise_channels``.
        """
        if rabi < 0:
            raise ValueError("rabi must be >= 0")
        omega_s = np.asarray(omega_s, dtype=float)
        base = self.dissipators
        for op, rate in drive_noise_channels(self.params, self.space, rabi):
            base = base + _dissipator_superop(op.matrix, rate)
        if rabi > 0:
            base = base + (rabi / 2.0) * self.drive[0]
        sups = np.empty((len(omega_s),) + base.shape, dtype=complex)
        sups[:] = base
        # the input commutator's entries, where every other piece is zero
        rows, cols = np.nonzero(self.input[0])
        amps = np.asarray(input_amp, dtype=float)[:, None]
        sups[:, rows, cols] = amps * self.input[0][rows, cols]
        p = self.params
        h_diag = (
            (p.omega_ge - omega_d) * self.n_q
            + (p.omega_r - omega_s[:, None]) * self.n_ph
            - 2.0 * p.chi * self.n_q_n_ph
        )
        diag = np.arange(base.shape[0])
        commutator_diag = -(h_diag[:, :, None] - h_diag[:, None, :])
        sups.imag[:, diag, diag] = commutator_diag.reshape(len(omega_s), -1)
        return sups


@functools.lru_cache(maxsize=8)
def superoperators(params: SystemParams, n_max: int) -> Superoperators:
    """The ``Superoperators`` record of (params, n_max), built on first use."""
    space = build_space(n_max)
    sm = qubit_lowering(space)
    n_q = qubit_number(space)
    n_ph = photon_number(space)
    dissipators = np.zeros((space.dim**2,) * 2, dtype=complex)
    for op, rate in collapse_operators(params, space):
        if rate != 0.0:
            dissipators = dissipators + _dissipator_superop(op.matrix, rate)
    pieces = dict(
        n_q=np.real(np.diag(n_q)),
        n_ph=np.real(np.diag(n_ph)),
        n_q_n_ph=np.real(np.diag(n_q @ n_ph)),
        drive=tuple(_commutator_superop(q) for q in drive_quadratures(space)),
        input=tuple(_commutator_superop(q) for q in input_quadratures(space)),
        dissipators=dissipators,
        flip_up=_dissipator_superop(sm.conj().T, 1.0),
        flip_down=_dissipator_superop(sm, 1.0),
        dephasing=_dissipator_superop(n_q, 1.0),
    )
    for value in pieces.values():
        for array in value if isinstance(value, tuple) else (value,):
            array.flags.writeable = False
    return Superoperators(params, space, **pieces)


def steady_state(hamiltonian, collapses, *, frame: Frame | None = None,
                 space: HilbertSpace | None = None) -> DensityState:
    """Solve L rho = 0 with unit trace by a dense linear solve.

    The B = 1 case of ``steady_state_stack`` on the kron-built Liouvillian.
    Raises SteadyStateError with a nullity estimate when the Liouvillian
    kernel is degenerate or the solve fails the residual check.
    """
    if isinstance(hamiltonian, ComplexOperator):
        if space is None:
            space = hamiltonian.space
        h = hamiltonian.matrix
    else:
        h = np.asarray(hamiltonian, dtype=complex)
    (rho,), (error,) = steady_state_stack(liouvillian(h, collapses)[None])
    if error is not None:
        raise error
    fr = frame if frame is not None else Frame(0.0, 0.0)
    sp = space if space is not None else HilbertSpace(h.shape[0] // 2 - 1)
    return DensityState(rho, math.inf, fr, sp)


def steady_state_stack(sups: np.ndarray):
    """Unit-trace kernels of a (B, D, D) stack of Liouvillians.

    One stacked linear solve, with the first row of each Liouvillian
    replaced by the trace; each point's residual is checked against that
    point's own norm. A point that fails the check, or a stack that LAPACK
    reports singular, goes to the SVD nullity estimate. ``sups`` is changed
    during the solve and restored. Returns the (B, d, d) density matrices,
    symmetrised and normalised (NaN where the solve failed), and per point
    None or its SteadyStateError.
    """
    n_points, n, _ = sups.shape
    d = math.isqrt(n)
    flat = sups.view(np.float64).reshape(n_points, -1)
    sup_norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    first_rows = sups[:, 0, :].copy()
    try:
        sups[:, 0, :] = 0.0
        sups[:, 0, :: d + 1] = 1.0  # trace row
        rhs = np.zeros((n_points, n, 1), dtype=complex)
        rhs[:, 0, 0] = 1.0
        xs = np.linalg.solve(sups, rhs)
        # L x: rows 1.. are the solved system's; row 0 is the saved one
        lx = np.matmul(sups, xs)[..., 0]
        xs = xs[..., 0]
        lx[:, 0] = np.einsum("ij,ij->i", first_rows, xs)
    except np.linalg.LinAlgError:
        xs = None
    finally:
        sups[:, 0, :] = first_rows
    if xs is None and n_points > 1:
        points = [steady_state_stack(sups[k : k + 1]) for k in range(n_points)]
        return np.concatenate([rho for rho, _ in points]), [err for _, (err,) in points]

    rhos = np.full((n_points, d, d), np.nan, dtype=complex)
    errors = [None] * n_points
    if xs is not None:
        lx = lx.view(np.float64)
        ok = np.sqrt(np.einsum("ij,ij->i", lx, lx)) < 1e-10 * sup_norms
        rho = xs[ok].reshape(-1, d, d)
        rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
        rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
        rhos[ok] = rho
    else:
        ok = np.zeros(n_points, dtype=bool)
    for k in np.flatnonzero(~ok):
        singular_values = np.linalg.svd(sups[k], compute_uv=False)
        nullity = int(np.sum(singular_values < 1e-10 * singular_values[0]))
        errors[k] = SteadyStateError(
            f"steady state not unique or solve failed (kernel nullity ~ {nullity})",
            nullity=nullity,
        )
    return rhos, errors


@dataclass
class Trajectory:
    """Sampled propagation result.

    ``pinned`` maps readout-marker times, caller-requested sample times and
    the end time to their exact states; ``final`` is the state at the end.
    """

    times: np.ndarray
    p_excited: np.ndarray
    photon_number: np.ndarray
    field: np.ndarray
    trace_error: np.ndarray
    final: DensityState
    pinned: dict = field(default_factory=dict)


def _schedule_terms(schedule: PulseSchedule, params: SystemParams, space: HilbertSpace):
    """Static superoperator plus (superop, f(t)) pairs for every envelope.

    The term superoperators come from the ``superoperators`` record. The
    static part is the kron-built ``liouvillian``, which the record
    reproduces bit for bit (see ``Superoperators``).
    """
    frame = schedule.frame
    h0 = hamiltonian_static(params, frame, 0.0, frame.qubit_ref, space=space).matrix
    static = liouvillian(h0, collapse_operators(params, space))

    ops = superoperators(params, space.n_max)
    root_kext = math.sqrt(params.kappa_ext)
    flip_sup = ops.flip_up + ops.flip_down

    terms = []
    for role, env in schedule.entries:
        if env.amplitude == 0.0:
            continue
        if role == ROLE_DRIVE:
            detuning = env.carrier - frame.qubit_ref
            sup_cos, sup_sin = (0.5 * sup for sup in ops.drive)
            # drive-line noise: incoherent rates tracking the instantaneous
            # drive power
            for sup, const in (
                (flip_sup, params.drive_noise_per_rabi2),
                (ops.dephasing, params.drive_dephasing_per_rabi2),
            ):
                if const > 0:

                    def f_noise(t, env=env, c=const):
                        v = env.value(t)
                        return c * v * v

                    terms.append((sup, f_noise))
        elif role in (ROLE_SIGNAL, ROLE_RESET):
            detuning = env.carrier - frame.resonator_ref
            sup_cos, sup_sin = (root_kext * sup for sup in ops.input)
        else:
            continue

        if detuning == 0.0:
            terms.append((sup_cos, env.value))
        else:
            def f_cos(t, env=env, d=detuning):
                return env.value(t) * math.cos(d * t)

            def f_sin(t, env=env, d=detuning):
                return env.value(t) * math.sin(d * t)

            terms.append((sup_cos, f_cos))
            terms.append((sup_sin, f_sin))
    return static, terms


def _segment_boundaries(schedule: PulseSchedule, t0: float, t1: float):
    """Pi-pulse times split the integration into segments."""
    events = sorted(t for t in schedule.pi_times() if t0 <= t <= t1)
    bounds = [t0] + events + [t1]
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)], events


def _sample_times(schedule: PulseSchedule, t0: float, t1: float, sample_dt: float, extra=()):
    n = max(1, int(math.ceil((t1 - t0) / sample_dt)))
    times = np.linspace(t0, t1, n + 1)
    pins = [t for t in list(schedule.marker_times()) + list(extra) if t0 < t < t1]
    if pins:
        times = np.concatenate([times, np.array(pins)])
    return np.unique(times)


def propagate(
    rho0: DensityState,
    schedule: PulseSchedule,
    params: SystemParams,
    opts: IntegratorOptions = IntegratorOptions(),
    *,
    until: float | None = None,
    extra_samples=(),
) -> Trajectory:
    """Propagate over a schedule, sampling observables along the way.

    Instantaneous pi pulses are applied as exact qubit flips at their times.
    Trace, Hermiticity and positivity are checked at every sample; trace
    drift beyond 1e-6 raises IntegrationError. ``until`` extends the run past
    the schedule (free dynamics once envelopes end); ``extra_samples`` pins
    exact sample times, retrievable from Trajectory.pinned.
    """
    space = rho0.space
    if rho0.frame != schedule.frame:
        raise ValueError("initial state frame does not match the schedule frame")
    static, terms = _schedule_terms(schedule, params, space)
    flip = qubit_flip(space)

    def rhs(t, x):
        y = static @ x
        for sup, f in terms:
            v = f(t)
            if v != 0.0:
                y += v * (sup @ x)
        return y

    t_end = schedule.duration if until is None else max(until, schedule.duration)
    t_start = rho0.time
    if t_end < t_start:
        raise ValueError("schedule ends before the initial state's time tag")
    sample_times = _sample_times(schedule, t_start, t_end, opts.sample_dt, extra_samples)
    pin_times = set(schedule.marker_times()) | set(extra_samples) | {t_end}

    x = rho0.matrix.reshape(-1).astype(complex)
    segments, pi_events = _segment_boundaries(schedule, t_start, t_end)

    times_out, p_e, n_ph, a_exp, tr_err = [], [], [], [], []
    pinned = {}
    nq = np.real(np.diag(qubit_number(space)))
    a_op = annihilation(space)
    n_op = np.arange(space.dim) // 2

    def record(t, x):
        rho = x.reshape(space.dim, space.dim)
        state = DensityState(rho.copy(), t, schedule.frame, space)
        state.validate()
        drift = state.trace_error()
        if drift > TRACE_DRIFT_LIMIT:
            raise IntegrationError(f"trace drift {drift:.2e} exceeds {TRACE_DRIFT_LIMIT:.0e}")
        pops = np.real(np.diag(rho))
        times_out.append(t)
        p_e.append(float(pops @ nq))
        n_ph.append(float(pops @ n_op))
        a_exp.append(complex(np.trace(a_op @ rho)))
        tr_err.append(drift)
        if t in pin_times:
            pinned[t] = state

    # pi pulse exactly at the start acts before any evolution
    for t_pi in pi_events:
        if t_pi == t_start:
            rho = x.reshape(space.dim, space.dim)
            x = (flip @ rho @ flip).reshape(-1)
    record(t_start, x)

    for seg_start, seg_end in segments:
        if seg_end > seg_start:
            seg_samples = sample_times[(sample_times > seg_start) & (sample_times <= seg_end)]
            if len(seg_samples) == 0 or seg_samples[-1] != seg_end:
                seg_samples = np.append(seg_samples, seg_end)
            if opts.method == METHOD_FIXED_RK4:
                t = seg_start
                for t_next in seg_samples:
                    span = t_next - t
                    nsteps = max(1, int(math.ceil(span / opts.max_step)))
                    if span / nsteps < 1e-18:
                        raise IntegrationError("step size underflow")
                    # stage times interpolated from the exact endpoints so the
                    # last stage never lands past an envelope edge at t_next
                    t_lo = t
                    for i in range(nsteps):
                        ta = t_lo + span * (i / nsteps)
                        tb = t_next if i == nsteps - 1 else t_lo + span * ((i + 1) / nsteps)
                        h = tb - ta
                        tm = ta + 0.5 * h
                        k1 = rhs(ta, x)
                        k2 = rhs(tm, x + 0.5 * h * k1)
                        k3 = rhs(tm, x + 0.5 * h * k2)
                        k4 = rhs(tb, x + h * k3)
                        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    t = t_next
                    record(t, x)
            else:
                sol = solve_ivp(
                    rhs,
                    (seg_start, seg_end),
                    x,
                    method="RK45",
                    t_eval=seg_samples,
                    rtol=opts.rtol,
                    atol=opts.atol,
                )
                if not sol.success:
                    raise IntegrationError(f"adaptive integrator failed: {sol.message}")
                for t_i, x_i in zip(sol.t, sol.y.T):
                    record(t_i, x_i)
                x = sol.y[:, -1]
        if seg_end in pi_events and seg_end > t_start:
            rho = x.reshape(space.dim, space.dim)
            x = (flip @ rho @ flip).reshape(-1)

    return Trajectory(
        times=np.array(times_out),
        p_excited=np.array(p_e),
        photon_number=np.array(n_ph),
        field=np.array(a_exp),
        trace_error=np.array(tr_err),
        final=pinned[t_end],
        pinned=pinned,
    )


def free_decay(state: DensityState, params: SystemParams, duration: float) -> DensityState:
    """Evolve under the static frame Hamiltonian and dissipators only.

    Used for the readout stage, where all pulses are off. Computed exactly
    through the Liouvillian exponential.
    """
    if duration <= 0:
        return state
    from scipy.linalg import expm

    space = state.space
    h0 = hamiltonian_static(
        params, state.frame, 0.0, state.frame.qubit_ref, space=space
    ).matrix
    sup = liouvillian(h0, collapse_operators(params, space))
    x = expm(sup * duration) @ state.matrix.reshape(-1)
    return DensityState(
        x.reshape(space.dim, space.dim), state.time + duration, state.frame, space
    )
