"""Lindblad master-equation engine.

A Lindblad generator maps Hermitian matrices to Hermitian matrices, so in
an orthonormal basis of Hermitian matrices (``hermitian_basis``, the
generalised Bloch or Gell-Mann representation; Alicki and Lendi, *Quantum
Dynamical Semigroups and Applications*, ch. 2) it is a real matrix of the
same order: ``real_form``. Both propagation and the steady states run on
the real coordinates r = T^H vec(rho) of that basis; states enter and
leave as complex density matrices.

Time propagation runs fixed-step RK4 over a (D, B) block of real
coordinates: B schedules that share one timeline advance together (the
columns of a block of map rows, or the runs of one operating point such as
a signal run and its dark run). Each schedule's right-hand side is the
dissipator sum, one superoperator per time-dependent quadrature, and its
frame's rotation of each off-diagonal pair of coordinates; the batch
stacks them into one real sparse ``[dissipators | terms... | rotation]``
block, so each evaluation is one product with the coefficient- and
frequency-scaled state block, made by scipy's CSR kernel without the
operator dispatch (``_csr_product``). Each batch plans its timeline once
(``_plan``): every interval's RK4 steps, one coefficient table over all
stage times, one row per stage, which columns are exactly constant over
which interval, and where such a column's step map changes. Such a column
(a pulse plateau, or the zero tail after the pulses) advances by one
cached real matrix, its RK4 step map R(hL)^n: the same method, without
the stage-by-stage products; equal gaps share one map. The batch keeps a
(B, D, D) stack of the columns' current maps, rewrites a column's row only
where its map changes, and applies the stack in one stacked product per
interval. A pi pulse is a signed permutation of the coordinates.
``propagate`` is the B = 1 case. The pieces the generator is affine in are
built once per (params, n_max) as real matrices in a read-only
``Superoperators`` record, and every reader takes them from there: the
pulsed RHS, the sample log, and CW reflection, which assembles a whole row
of Liouvillians from them and solves the stack at once. ``liouvillian``
builds one complex Liouvillian from kron products; it gives each
schedule's frame and is the oracle the record is checked against.

A real LU or a dense real step map of that order takes a quarter of the
floating-point operations of a complex one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from itertools import compress
from typing import ClassVar, NamedTuple

import numpy as np

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
    drive_quadratures,
    hamiltonian_static,
    input_quadratures,
    qubit_flip,
)
from .params import SystemParams
from .pulses import ROLE_DRIVE, PulseEnvelope, PulseSchedule

TRACE_TOL = 1e-9
HERM_TOL = 1e-10
POSITIVITY_TOL = -1e-8


@dataclass(frozen=True)
class IntegratorOptions:
    """Propagation controls, and the defaults of the matching config keys.

    ``max_step`` bounds the step of fixed-step RK4, the one integrator; each
    gap between samples takes ceil(gap / max_step) equal steps.
    ``fock_convergence`` asks protocol-level callers to re-run at n_max + 1
    and compare scalar outputs.

    The default step is set by an error budget at the paper's operating
    point: every click probability within 1e-7 of DOP853 (rtol 1e-11) and
    every eta within 2e-7, since eta divides a click difference by
    1 - exp(-nbar_s) ~ 0.095. At 0.25 ns the detection clicks are off by
    1.6e-8 and 1.8e-8 (eta 1.7e-8), the reset click by 3.0e-9, and the
    detect-reset cycle's dark click by 4.9e-8 and its eta after reset by
    9.7e-8. 0.25 ns is 4 steps per 1 ns sample interval; any step up to
    1/3 ns takes as many, and from 1/3 ns on the resonant-Rabi closed form
    (20 MHz, 100 ns) misses 1e-7 (3.4e-8 at 0.25 ns, 4.9e-7 at 0.5 ns).
    """

    method: ClassVar[str] = "fixed_rk4"
    max_step: float = 0.25e-9
    sample_dt: float = 1.0e-9
    fock_convergence: bool = False

    def __post_init__(self):
        for name in ("max_step", "sample_dt"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name):g}")


@dataclass
class DensityState:
    """Density matrix with time and frame tags."""

    matrix: np.ndarray
    time: float
    frame: Frame
    space: HilbertSpace

    def in_frame(self, frame: Frame) -> DensityState:
        """The same state in ``frame``, exactly: with Delta = (new - old
        resonator reference) n_ph + (new - old qubit reference) n_q on the
        basis states and t the time tag, element (j, k) gains the phase
        exp(+i (Delta_j - Delta_k) t). A diagonal unitary, so trace,
        Hermiticity and eigenvalues are unchanged; the diagonal is kept
        bit for bit."""
        d_ph = frame.resonator_ref - self.frame.resonator_ref
        d_q = frame.qubit_ref - self.frame.qubit_ref
        n_ph, n_q = (np.real(np.diag(op(self.space))) for op in (photon_number, qubit_number))
        delta = d_ph * n_ph + d_q * n_q
        phase = np.exp(1j * np.subtract.outer(delta, delta) * self.time)
        return DensityState(phase * self.matrix, self.time, frame, self.space)


def mixed_initial_state(space: HilbertSpace, excited_pop: float, frame: Frame) -> DensityState:
    """(1 - p)|g,0><g,0| + p|e,0><e,0| at t = 0."""
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    rho[space.index(0, 0), space.index(0, 0)] = 1.0 - excited_pop
    rho[space.index(1, 0), space.index(1, 0)] = excited_pop
    return DensityState(rho, 0.0, frame, space)


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


def _pair_coordinates(d: int):
    """(j, k, s) of every pair j < k of a d x d matrix, in ``hermitian_basis``
    order: s is the coordinate of (E_jk + E_kj)/sqrt(2) and s + 1 that of
    i(E_jk - E_kj)/sqrt(2)."""
    j, k = np.triu_indices(d, 1)
    return j, k, d + 2 * np.arange(len(j))


@functools.lru_cache(maxsize=8)
def hermitian_basis(d: int) -> np.ndarray:
    """(d^2, d^2) unitary T whose columns are the row-major vecs of an
    orthonormal basis of the Hermitian d x d matrices: E_jj for every j,
    then (E_jk + E_kj)/sqrt(2) and i(E_jk - E_kj)/sqrt(2) for each j < k.

    A Hermitian rho has the real coordinates r = T^H vec(rho), and
    vec(rho) = T r. The diagonal coordinates come first, so Tr rho is the
    sum of the first d entries of r. Read-only, built once per d.
    """
    j, k, sym = _pair_coordinates(d)
    root_half = math.sqrt(0.5)
    t = np.zeros((d * d, d * d), dtype=complex)
    t[np.arange(d) * (d + 1), np.arange(d)] = 1.0
    t[j * d + k, sym] = t[k * d + j, sym] = root_half
    t[j * d + k, sym + 1] = 1j * root_half
    t[k * d + j, sym + 1] = -1j * root_half
    t.flags.writeable = False
    return t


def real_form(sup: np.ndarray) -> np.ndarray:
    """Re(T^H S T) of a (D, D) superoperator S that maps Hermitian matrices
    to Hermitian matrices, with T the ``hermitian_basis``: S acting on the
    real coordinates. For such an S the imaginary part dropped here is
    rounding."""
    t = hermitian_basis(math.isqrt(sup.shape[0]))
    return np.ascontiguousarray((t.conj().T @ sup @ t).real)


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


# blocks of ``Superoperators.pulse_terms``; a quadrature's sine term is at +1
TERM_FLIP, TERM_DEPHASING, TERM_DRIVE, TERM_INPUT = 0, 1, 2, 4


class CWPieces(NamedTuple):
    """The real forms (``real_form``) that CW assembly reads, with the index
    sets of its per-point pieces. ``dissipators``, ``flip``, ``dephasing``
    and ``drive`` are the record's own arrays; the others are CW-only."""

    dissipators: np.ndarray
    flip: np.ndarray  # of D[s+] + D[s-] at unit rate
    dephasing: np.ndarray  # of D[n_q] at unit rate
    drive: np.ndarray  # of -i[X/2, .]
    input: np.ndarray  # of -i[P, .]
    n_q: np.ndarray  # of -i[n_q, .]
    n_ph: np.ndarray  # of -i[n_ph, .]
    n_q_n_ph: np.ndarray  # of -i[n_q n_ph, .]
    n_ph_index: tuple  # (rows, cols) of the non-zero entries of n_ph
    input_index: tuple  # (rows, cols) of the non-zero entries of input


@dataclass(frozen=True)
class Superoperators:
    """The pieces the Lindblad generator is affine in, for one (params, n_max),
    as real matrices on the coordinates of ``hermitian_basis``.

    ``n_q`` and ``n_ph`` are the diagonals of the number operators, and
    ``a_row`` the row with <a> = Tr(a rho) = a_row . vec(rho); the sample log
    reads P_e and the photon number with the first two, and the field
    through ``a_row @ T``. ``dissipators`` is
    the ``real_form`` of the dissipator sum of ``collapse_operators``. At
    zero Rabi the Hamiltonian is diagonal, so a schedule's kron-built static
    part is that sum plus an imaginary diagonal, the frame's rotation of
    each off-diagonal pair. ``pulse_terms`` holds the real forms of the term
    superoperators of a pulse schedule, indexed by the ``TERM_*`` blocks:
    the drive-line flips D[s+] + D[s-] and dephasing D[n_q] at unit rate,
    which a schedule scales by the instantaneous noise rate; -i[X/2, .] and
    -i[Y/2, .] of the drive; and sqrt(kappa_ext) times -i[P, .] and -i[Q, .]
    of the inputs. CW assembly reads ``cw_pieces``: these, and the CW-only
    pieces built on its first use. Read-only; get it from ``superoperators``.
    """

    params: SystemParams
    space: HilbertSpace
    n_q: np.ndarray
    n_ph: np.ndarray
    a_row: np.ndarray
    dissipators: np.ndarray
    pulse_terms: tuple

    @functools.cached_property
    def cw_pieces(self) -> CWPieces:
        """The real forms CW assembly reads, with the index sets of its
        per-point pieces."""
        real = dict(input=real_form(_commutator_superop(input_quadratures(self.space)[0])))
        for name, diagonal in (("n_q", self.n_q), ("n_ph", self.n_ph),
                               ("n_q_n_ph", self.n_q * self.n_ph)):
            real[name] = real_form(_commutator_superop(np.diag(diagonal)))
        pieces = CWPieces(
            dissipators=self.dissipators,
            flip=self.pulse_terms[TERM_FLIP],
            dephasing=self.pulse_terms[TERM_DEPHASING],
            drive=self.pulse_terms[TERM_DRIVE],
            **real,
            n_ph_index=np.nonzero(real["n_ph"]),
            input_index=np.nonzero(real["input"]),
        )
        for array in pieces:
            for part in array if isinstance(array, tuple) else (array,):
                part.flags.writeable = False
        return pieces

    def cw_liouvillians(self, omega_d: float, rabi: float, omega_s, input_amp) -> np.ndarray:
        """(B, D, D) real forms of the Liouvillians of a drive at omega_d and
        B input tones.

        Tone k sits at omega_s[k] with sqrt(kappa_ext) times its amplitude
        equal to input_amp[k], in the frame (omega_d, omega_s[k]). Equals
        ``real_form`` of ``liouvillian`` of ``hamiltonian_static`` plus
        input_amp[k] P, with ``collapse_operators`` and
        ``drive_noise_channels``: the drive-line noise is the unit-rate
        ``flip`` and ``dephasing`` terms at the channels' rates. The part the
        tones share is summed once; each tone adds its n_ph and input terms
        at their non-zero entries.
        """
        if rabi < 0:
            raise ValueError("rabi must be >= 0")
        omega_s = np.asarray(omega_s, dtype=float)
        p = self.params
        real = self.cw_pieces
        base = real.dissipators
        if rabi > 0:
            flip_rate = p.drive_noise_per_rabi2 * rabi * rabi
            if flip_rate > 0:
                base = base + flip_rate * real.flip
            deph_rate = p.drive_dephasing_per_rabi2 * rabi * rabi
            if deph_rate > 0:
                base = base + deph_rate * real.dephasing
            base = base + rabi * real.drive
        base = base + (p.omega_ge - omega_d) * real.n_q - 2.0 * p.chi * real.n_q_n_ph
        sups = np.empty((len(omega_s),) + base.shape)
        sups[:] = base
        rows, cols = real.n_ph_index
        sups[:, rows, cols] += (p.omega_r - omega_s)[:, None] * real.n_ph[rows, cols]
        rows, cols = real.input_index
        amps = np.asarray(input_amp, dtype=float)[:, None]
        sups[:, rows, cols] += amps * real.input[rows, cols]
        return sups


@functools.lru_cache(maxsize=8)
def superoperators(params: SystemParams, n_max: int) -> Superoperators:
    """The ``Superoperators`` record of (params, n_max), built on first use."""
    space = build_space(n_max)
    sm = qubit_lowering(space)
    n_q = qubit_number(space)
    dissipators = np.zeros((space.dim**2,) * 2, dtype=complex)
    for op, rate in collapse_operators(params, space):
        if rate != 0.0:
            dissipators = dissipators + _dissipator_superop(op.matrix, rate)
    root_kext = math.sqrt(params.kappa_ext)
    pulse_terms = tuple(real_form(term) for term in (
        _dissipator_superop(sm.conj().T, 1.0) + _dissipator_superop(sm, 1.0),
        _dissipator_superop(n_q, 1.0),
        *(0.5 * _commutator_superop(q) for q in drive_quadratures(space)),
        *(root_kext * _commutator_superop(q) for q in input_quadratures(space)),
    ))
    record = Superoperators(
        params,
        space,
        n_q=np.real(np.diag(n_q)),
        n_ph=np.real(np.diag(photon_number(space))),
        a_row=annihilation(space).T.reshape(-1),
        dissipators=real_form(dissipators),
        pulse_terms=pulse_terms,
    )
    for array in (record.n_q, record.n_ph, record.a_row, record.dissipators, *pulse_terms):
        array.flags.writeable = False
    return record


def steady_state(hamiltonian, collapses, *, frame: Frame | None = None,
                 space: HilbertSpace | None = None) -> DensityState:
    """Solve L rho = 0 with unit trace by a dense linear solve.

    The B = 1 case of ``steady_state_stack`` on the ``real_form`` of the
    kron-built Liouvillian. Raises SteadyStateError with a nullity estimate
    when the Liouvillian kernel is degenerate or the solve fails the
    residual check.
    """
    (rho,), (error,) = steady_state_stack(real_form(liouvillian(hamiltonian, collapses))[None])
    if error is not None:
        raise error
    return DensityState(rho, math.inf, frame or Frame(0.0, 0.0),
                        space or HilbertSpace(len(rho) // 2 - 1))


def steady_state_stack(sups: np.ndarray):
    """Unit-trace kernels of a (B, D, D) stack of real Liouvillians.

    The Liouvillians act on the real coordinates of ``hermitian_basis``
    (``real_form``; ``Superoperators.cw_liouvillians`` assembles them).
    One stacked real linear solve, with the first row of each Liouvillian
    replaced by the trace, which is 1 on the first d coordinates; each
    point's residual ||L x|| is checked against 1e-10 times that point's
    Frobenius norm ||L||_F. A point that fails the check, or a stack that
    LAPACK reports singular, goes to the SVD nullity estimate: singular
    values below 1e-10 times the largest. The basis is orthonormal, so the
    residual norm, the Frobenius norm and the singular values equal those
    of the complex Liouvillian on vec(rho), and both checks equal the
    complex ones in exact arithmetic. ``sups`` is changed during the solve
    and restored. Returns the (B, d, d) complex density matrices rho = T r,
    Hermitian for real r, normalised (NaN where the solve failed), and per
    point None or its SteadyStateError.
    """
    n_points, n, _ = sups.shape
    d = math.isqrt(n)
    flat = sups.reshape(n_points, -1)
    sup_norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    first_rows = sups[:, 0, :].copy()
    try:
        sups[:, 0, :] = 0.0
        sups[:, 0, :d] = 1.0  # trace row
        rhs = np.zeros((n_points, n, 1))
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
        ok = np.sqrt(np.einsum("ij,ij->i", lx, lx)) < 1e-10 * sup_norms
        # T x is exactly Hermitian for real x
        rho = (xs[ok] @ hermitian_basis(d).T).reshape(-1, d, d)
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
    """Sampled propagation result: the observables at every sample time and
    ``final``, the state at the last one, where the run stopped. ``times``
    is read-only and shared by the trajectories of one batch.
    """

    times: np.ndarray
    p_excited: np.ndarray
    photon_number: np.ndarray
    field: np.ndarray
    trace_error: np.ndarray
    final: DensityState


class TermCoefficient(NamedTuple):
    """f(t) of one schedule term, whose superoperator is ``pulse_terms[block]``.

    c v(t)^2 for drive-line noise (``noise`` = c > 0); otherwise the envelope
    v(t), times cos or sin of ``detuning`` t for a carrier off the frame.
    """

    block: int
    envelope: PulseEnvelope
    noise: float = 0.0
    detuning: float = 0.0
    sine: bool = False

    def of(self, v: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The coefficient at times t, from the envelope's values v there."""
        if self.noise:
            return self.noise * v * v
        if self.detuning == 0.0:
            return v
        return v * (np.sin if self.sine else np.cos)(self.detuning * t)


def _frame_static(frame: Frame, params: SystemParams, space: HilbertSpace) -> np.ndarray:
    """The static superoperator of a schedule in ``frame``: the kron-built
    ``liouvillian``, the record's dissipator sum plus the frame's rotation on
    its diagonal (see ``Superoperators``)."""
    h0 = hamiltonian_static(params, frame, 0.0, frame.qubit_ref, space=space).matrix
    return liouvillian(h0, collapse_operators(params, space))


def _schedule_terms(schedule: PulseSchedule, params: SystemParams) -> list:
    """The TermCoefficient of every envelope term of a schedule; a term's
    superoperator is the record's ``pulse_terms[block]``."""
    frame = schedule.frame
    coefficients = []
    for role, env in schedule.entries:
        if env.amplitude == 0.0:
            continue
        if role == ROLE_DRIVE:
            block, detuning = TERM_DRIVE, env.carrier - frame.qubit_ref
            # drive-line noise: incoherent rates tracking the instantaneous
            # drive power
            for noise_block, const in (
                (TERM_FLIP, params.drive_noise_per_rabi2),
                (TERM_DEPHASING, params.drive_dephasing_per_rabi2),
            ):
                if const > 0:
                    coefficients.append(TermCoefficient(noise_block, env, noise=const))
        else:
            block, detuning = TERM_INPUT, env.carrier - frame.resonator_ref
        coefficients.append(TermCoefficient(block, env, detuning=detuning))
        if detuning != 0.0:
            coefficients.append(TermCoefficient(block + 1, env, detuning=detuning, sine=True))
    return coefficients


def _csr_product(matrix):
    """z -> matrix @ z for a real CSR array and C-contiguous (N, B) float
    blocks z, bit for bit: scipy's kernel ``csr_matvecs``, which that product
    ends in, called directly, so a product skips the operator dispatch. At
    B = 1 scipy calls ``csr_matvec``, which sums each row in the same order."""
    from scipy.sparse._sparsetools import csr_matvecs

    n_row, n_col = matrix.shape
    arrays = (matrix.indptr, matrix.indices, matrix.data)

    def product(z: np.ndarray) -> np.ndarray:
        out = np.zeros((n_row, z.shape[1]))
        csr_matvecs(n_row, n_col, z.shape[1], *arrays, z.ravel(), out.ravel())
        return out

    return product


class _StackedRHS:
    """Right-hand side of B schedules on one timeline, as one real sparse
    product on the coordinates r of ``hermitian_basis``.

    Column b evolves under the record's dissipator sum, plus
    sum_k f_bk(t) T_k over the batch's term superoperators T_k, plus its
    frame's rotation: the static Hamiltonian is diagonal, so -i[H0, .]
    turns each off-diagonal pair (s, s + 1) of coordinates by its
    frequency w_b, the negated imaginary part of the kron-built diagonal
    (``_frame_static``, built once per distinct frame of the batch), as
    dr_s/dt = w_b r_{s+1} and dr_{s+1}/dt = -w_b r_s. With J that signed
    swap of each pair, the CSR block [dissipators | T_1 ... T_K | J] acts on
    the stacked state block [r; f_1 r; ...; f_K r; w r], through
    ``_csr_product``. ``map_stack`` holds each column's current step map,
    (B, D, D), for the mapped intervals of ``_rk4_interval``.
    """

    def __init__(self, schedules, params: SystemParams, space: HilbertSpace):
        from scipy import sparse  # loaded at the first propagation, not at import

        ops = superoperators(params, space.n_max)
        d, dim = space.dim, space.dim**2
        j, k, sym = _pair_coordinates(d)
        turns = {}  # frame -> its pair frequencies
        for sched in schedules:
            if sched.frame not in turns:
                static = _frame_static(sched.frame, params, space)
                turns[sched.frame] = -static.diagonal().imag[j * d + k]
        self.omega = np.zeros((dim, len(schedules)))  # (D, B) pair frequencies
        for b, sched in enumerate(schedules):
            self.omega[sym, b] = self.omega[sym + 1, b] = turns[sched.frame]
        columns = [_schedule_terms(sched, params) for sched in schedules]
        self._rotation = np.zeros((dim, dim))
        self._rotation[sym, sym + 1] = 1.0
        self._rotation[sym + 1, sym] = -1.0

        blocks = sorted({c.block for terms in columns for c in terms})
        self._dissipators = ops.dissipators
        self._terms = [ops.pulse_terms[k] for k in blocks]
        self.matrix = sparse.hstack(
            [sparse.csr_array(m) for m in (self._dissipators, *self._terms, self._rotation)],
            format="csr",
        )
        self._product = _csr_product(self.matrix)

        # (block position, column, coefficient, shape index) of every term;
        # an envelope's value is its amplitude times that of its unit-amplitude
        # shape (``PulseEnvelope.value`` multiplies by the amplitude last) and
        # does not depend on its carrier, so the terms whose envelopes differ
        # only in amplitude and carrier share one shape
        shapes = {}
        self._entries = [
            (blocks.index(c.block), b, c,
             shapes.setdefault(replace(c.envelope, amplitude=1.0, carrier=0.0), len(shapes)))
            for b, terms in enumerate(columns)
            for c in terms
        ]
        self._shapes = list(shapes)
        self._shape = (len(blocks), len(schedules))
        self._dim = dim
        self._blocks = {}  # columns -> ``_block`` of that sub-block
        self._maps = {}  # (column, planned h, n, coefficients) -> R(hL)^n
        self.map_stack = np.zeros((len(schedules), dim, dim))

    def table(self, times: np.ndarray) -> np.ndarray:
        """(len(times), K, B) coefficients: each distinct envelope shape is
        evaluated once per time and scaled by each amplitude, bit for bit
        ``PulseEnvelope.values``, and every term that shares an envelope
        reuses its value."""
        out = np.zeros((len(times),) + self._shape)
        shapes = [shape.values(times) for shape in self._shapes]
        values = {}  # (shape index, amplitude) -> the envelope's values
        for k, b, c, e in self._entries:
            amplitude = c.envelope.amplitude
            if (e, amplitude) not in values:
                values[e, amplitude] = shapes[e] * amplitude
            out[:, k, b] += c.of(values[e, amplitude], times)
        return out

    def _block(self, cols):
        """(z, z_terms, z_frame, omega) of the columns ``cols``: their
        stacked input block [r; f_1 r; ...; f_K r; w r], its term rows, its
        frame rows and their pair frequencies, made on first use."""
        if cols not in self._blocks:
            omega = self.omega[:, list(cols)] if cols else self.omega
            k, d, width = self._shape[0], self._dim, omega.shape[1]
            z = np.empty(((k + 2) * d, width))
            self._blocks[cols] = (z, z[d : (k + 1) * d].reshape(k, d, width),
                                  z[(k + 1) * d :], omega)
        return self._blocks[cols]

    def state(self, cols=()) -> np.ndarray:
        """The (D, B') rows of the stacked input block that hold the state r
        of the columns ``cols`` (all when empty): write a state there, then
        call the RHS."""
        return self._block(cols)[0][: self._dim]

    def __call__(self, coefficients: np.ndarray, cols=()) -> np.ndarray:
        """dr/dt of the columns ``cols`` (all when empty), whose (D, B')
        state r is in ``state(cols)``, under one (K, B') table row."""
        z, z_terms, z_frame, omega = self._block(cols)
        x = z[: self._dim]
        np.multiply(coefficients[:, None, :], x, out=z_terms)
        np.multiply(omega, x, out=z_frame)
        return self._product(z)

    def step_map(self, b: int, coefficients: np.ndarray, h: float, n: int) -> np.ndarray:
        """R(hL)^n: n RK4 steps of size h of column b under its constant (K,)
        coefficients, as one real matrix.

        On a linear system with constant coefficients one RK4 step is the
        stability polynomial R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 of hL,
        where L is the column's dense real Liouvillian. Cached per (b, h, n,
        coefficients) for the life of the batch; ``_plan`` gives every gap of
        one length the same h, so equal gaps share a map.
        """
        key = (b, h, n, coefficients.tobytes())
        if key not in self._maps:
            generator = self._dissipators + self._rotation * self.omega[:, b]
            for f, term in zip(coefficients.tolist(), self._terms):
                if f:
                    generator = generator + f * term
            step = h * generator
            eye = np.eye(self._dim)
            poly = eye + step / 4.0
            for k in (3.0, 2.0, 1.0):  # Horner form
                poly = eye + (step @ poly) / k
            self._maps[key] = np.linalg.matrix_power(poly, n)
        return self._maps[key]


def _sample_times(schedule: PulseSchedule, t0: float, until: float, sample_dt: float):
    """Samples every ~sample_dt over [t0, max(until, duration)], pinned at
    the schedule's event times (readout markers, pi pulses) and ``until``, up
    to ``until``: the samples before a stop do not depend on where it is."""
    t1 = max(until, schedule.duration)
    n = max(1, int(math.ceil((t1 - t0) / sample_dt)))
    times = np.linspace(t0, t1, n + 1)
    pins = [t for t in (*schedule.marker_times, *schedule.pi_times, until) if t0 < t < t1]
    if pins:
        times = np.concatenate([times, np.array(pins)])
    times = np.unique(times)
    return times[times <= until]


class _Interval(NamedTuple):
    """One sample interval of a batch's timeline plan."""

    span: float  # t_next - t
    n: int  # RK4 steps, ceil(span / max_step) and at least 1
    h: float  # step of its step maps: one per (gap length, n)
    table: np.ndarray  # (4n, K, B) coefficients, one row per RK4 stage
    steps: np.ndarray  # the n step sizes
    mapped: list  # columns whose coefficients are constant over it
    staged: tuple  # the other columns
    remap: list  # mapped columns whose step map differs from their last one


def _plan(rhs: _StackedRHS, times: np.ndarray, max_step: float) -> list:
    """The ``_Interval`` of every gap between the sample ``times``.

    Each gap of span s takes n = ceil(s / max_step) RK4 steps; the step
    edges are interpolated from the exact endpoints, so the last stage never
    lands past an envelope edge at the gap's end. The coefficient table of
    all stage times is built at once. A column whose table rows are all
    exactly equal over a gap has constant coefficients there and advances by
    a step map R(hL)^n, with one h per (gap length, n): the sample times
    round to about an ulp of the latest time, so gaps of one length differ
    by a few of its ulps, and each takes the h of the first such gap. A
    mapped column is remapped at its first mapped gap and wherever its
    (h, n, coefficients) differ from those of its last mapped gap; in
    between, its row of ``map_stack`` holds its map.
    """
    t, t_next = times[:-1], times[1:]
    if not len(t):
        return []
    spans = t_next - t
    counts = np.maximum(1, np.ceil(spans / max_step)).astype(int)
    starts = np.concatenate([[0], np.cumsum(counts)])
    gap = np.repeat(np.arange(len(spans)), counts)
    j = np.arange(starts[-1]) - starts[gap]
    ta = t[gap] + spans[gap] * (j / counts[gap])
    tb = t[gap] + spans[gap] * ((j + 1) / counts[gap])
    tb[starts[1:] - 1] = t_next
    steps = tb - ta
    tm = ta + 0.5 * steps
    table = rhs.table(np.stack([ta, tm, tm, tb], axis=1).reshape(-1))
    # a gap's rows are all equal when each equals the next; the pair that
    # straddles two gaps does not count
    same = (table[1:] == table[:-1]).all(axis=1)
    same[4 * starts[1:-1] - 1] = True
    constant = np.logical_and.reduceat(same, 4 * starts[:-1], axis=0)

    tol = 4.0 * math.ulp(float(np.abs(times).max()))
    lengths = {}  # n -> the first span of each gap length with n steps
    hs = []
    for span, n in zip(spans.tolist(), counts.tolist()):
        known = lengths.setdefault(n, [])
        length = next((s for s in known if abs(span - s) <= tol), None)
        if length is None:
            known.append(length := span)
        hs.append(length / n)

    # a column's step map is keyed by (h, n, coefficients); per gap and
    # column, compare the key with that of the column's last mapped gap
    n_gaps, n_cols = constant.shape
    last = np.maximum.accumulate(np.where(constant, np.arange(n_gaps)[:, None], -1), axis=0)
    before = np.concatenate([np.full((1, n_cols), -1), last[:-1]])
    prev = np.maximum(before, 0)
    h, first = np.array(hs), table[4 * starts[:-1]]  # first: (gaps, K, B)
    moved = (h[prev] != h[:, None]) | (counts[prev] != counts[:, None])
    moved |= (np.take_along_axis(first, prev[:, None, :], axis=0) != first).any(axis=1)
    remap = constant & ((before < 0) | moved)

    cols = range(n_cols)
    return [
        _Interval(span, n, h, table[4 * a : 4 * b], steps[a:b], list(compress(cols, mapped)),
                  tuple(compress(cols, staged)), list(compress(cols, new)))
        for span, n, h, a, b, mapped, staged, new in zip(
            spans.tolist(), counts.tolist(), hs, starts[:-1].tolist(), starts[1:].tolist(),
            constant.tolist(), (~constant).tolist(), remap.tolist())
    ]


def _rk4_interval(rhs: _StackedRHS, x: np.ndarray, gap: _Interval) -> np.ndarray:
    """Fixed-step RK4 of the block x over one planned interval.

    The columns ``_plan`` remaps here get their step maps (cached) in
    ``rhs.map_stack``; then every column advances by its row of the stack in
    one stacked product, the same RK4 as one matrix product per column, and
    the staged ones are redone stage by stage as one sub-block. Each
    column's product is the one matrix-vector product of its own map and
    state, so a column's result does not depend on its batch mates. x may
    be overwritten.
    """
    if gap.span / gap.n < 1e-18:
        raise IntegrationError("step size underflow")
    if not gap.mapped:
        return _rk4_stages(rhs, x, gap.table, gap.steps)
    for b in gap.remap:
        rhs.map_stack[b] = rhs.step_map(b, gap.table[0, :, b], gap.h, gap.n)
    # one contiguous row per column, so each product is the one at B = 1
    states = np.ascontiguousarray(x.T)[:, :, None]
    out = np.matmul(rhs.map_stack, states)[:, :, 0].T.copy()
    if gap.staged:
        cols = gap.staged
        out[:, cols] = _rk4_stages(rhs, x[:, cols], gap.table[:, :, cols], gap.steps, cols)
    return out


def _rk4_stages(rhs: _StackedRHS, x: np.ndarray, table: np.ndarray, steps: np.ndarray,
                cols=()):
    """RK4 of the columns ``cols`` (all when empty) stage by stage: x is
    their (D, B') block, updated in place, and table their (4 len(steps),
    K, B') coefficients. Each stage state is written straight into the
    RHS's input block, in the operation order of
    x + (h / 6) (k1 + 2 k2 + 2 k3 + k4) with k2 = f(x + (h / 2) k1)."""
    state = rhs.state(cols)
    for i, h in enumerate(steps.tolist()):
        half = 0.5 * h
        state[...] = x
        k1 = rhs(table[4 * i], cols)
        np.multiply(k1, half, out=state)
        state += x
        k2 = rhs(table[4 * i + 1], cols)
        np.multiply(k2, half, out=state)
        state += x
        k3 = rhs(table[4 * i + 2], cols)
        np.multiply(k3, h, out=state)
        state += x
        k4 = rhs(table[4 * i + 3], cols)
        k2 *= 2.0
        k1 += k2
        k3 *= 2.0
        k1 += k3
        k1 += k4
        k1 *= h / 6.0
        x += k1
    return x


def _check_message(t, trace_error, herm_error, min_eigenvalue) -> str:
    """The first per-sample check a state fails, as ``propagate`` reports it,
    or an empty string."""
    if trace_error > TRACE_TOL:
        return f"trace error {trace_error:.2e} exceeds {TRACE_TOL:.0e} at t={t:.3e}"
    if herm_error > HERM_TOL:
        return f"hermiticity error {herm_error:.2e} at t={t:.3e}"
    if min_eigenvalue < POSITIVITY_TOL:
        return f"negative eigenvalue {min_eigenvalue:.2e} at t={t:.3e}"
    return ""


class _SampleLog:
    """Checks and observables of a (D, B) block of real coordinates r at
    every sample.

    Every check runs at every sample on every live column: the trace, the
    Hermiticity and, through ``eigvalsh``, the positivity of its state. The
    trace and the observables are read from r: the first d coordinates are
    the populations, so P_e, the photon number and the trace come from
    them with the record's ``n_q`` and ``n_ph``, and <a> from the row
    ``a_row @ T``. rho = T r is built once per sample by an index scatter,
    for ``eigvalsh`` and the Hermiticity check only. That rho is Hermitian
    for any real r, so the Hermiticity check can no longer fail; it is kept
    as a check on the basis. The columns are tested at once: while every
    state is finite, by the extreme of each check over the block; the
    per-column failures, and the first failed check of a column
    (``_check_message``), are worked out only when some column fails. A
    column that fails a check keeps that first error and is zeroed, so it
    stays finite and costs nothing in later checks; the other columns go
    on.
    """

    def __init__(self, ops: Superoperators, n_cols: int):
        self.ops = ops
        basis = hermitian_basis(ops.space.dim)
        self.field_row = ops.a_row @ basis
        # vec(rho) = T r read as floats, the real and imaginary part of
        # each entry: each float is one coordinate times 1, +-sqrt(1/2) or 0
        rows = np.stack([basis.real, basis.imag], axis=1).reshape(-1, len(basis))
        self.source = np.abs(rows).argmax(axis=1)
        self.scale = rows[np.arange(len(rows)), self.source]
        self.errors = [None] * n_cols
        self.live = list(range(n_cols))  # the columns without an error
        self.p_e, self.photons, self.field, self.drift = [], [], [], []

    def matrices(self, x: np.ndarray) -> np.ndarray:
        """(B', d, d) complex rho = T r of the columns of x."""
        d = self.ops.space.dim
        rhos = np.empty((x.shape[1], 2 * d * d))
        np.multiply(x.T[:, self.source], self.scale, out=rhos)
        return rhos.view(complex).reshape(-1, d, d)

    def record(self, t: float, x: np.ndarray):
        d, live = self.ops.space.dim, self.live
        every = len(live) == x.shape[1]
        states = x if every else x[:, live]
        rhos = self.matrices(states)
        # one contiguous row of populations per column: the trace's
        # summation order does not depend on the batch width
        drift = np.abs(np.ascontiguousarray(states[:d].T).sum(axis=1) - 1.0)
        herm = np.abs(rhos - rhos.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        finite = np.isfinite(herm)  # false for a state with a non-finite entry
        if finite.all():
            min_eig = np.linalg.eigvalsh(rhos)[:, 0]
            # with every state finite, every check passes unless an extreme
            # crosses its tolerance (``initial`` covers a block of no columns)
            passed = (drift.max(initial=0.0) <= TRACE_TOL and herm.max(initial=0.0) <= HERM_TOL
                      and min_eig.min(initial=0.0) >= POSITIVITY_TOL)
        else:
            min_eig = np.full(len(live), np.nan)
            if finite.any():
                min_eig[finite] = np.linalg.eigvalsh(rhos[finite])[:, 0]
            passed = False
        if not passed:
            failed = ~finite | (drift > TRACE_TOL) | (herm > HERM_TOL)
            failed |= min_eig < POSITIVITY_TOL
            for k in np.flatnonzero(failed).tolist():
                if np.isfinite(rhos[k]).all():
                    message = _check_message(t, drift[k], herm[k], min_eig[k])
                else:
                    message = f"non-finite density matrix at t={t:.3e}"
                if message:
                    self.errors[live[k]] = IntegrationError(message)
                    x[:, live[k]] = 0.0
            self.live = [b for b, error in enumerate(self.errors) if error is None]
        pops = x[:d]
        trace_error = drift
        if not every:
            trace_error = np.full(x.shape[1], np.nan)
            trace_error[live] = drift
        self.p_e.append(self.ops.n_q @ pops)
        self.photons.append(self.ops.n_ph @ pops)
        self.field.append(self.field_row @ x)
        self.drift.append(trace_error)

    def trajectories(self, times: np.ndarray, x: np.ndarray, frames) -> list:
        """Per column: its Trajectory over the recorded ``times``, ending in
        its state rho = T r in the last recorded block x, or the
        IntegrationError it failed with."""
        space, t = self.ops.space, float(times[-1])
        series = (self.p_e, self.photons, self.field, self.drift)
        p_e, photons, field_, drift = map(np.array, series)
        rhos = self.matrices(x)
        return [
            error if error is not None else Trajectory(
                times=times,
                p_excited=p_e[:, b],
                photon_number=photons[:, b],
                field=field_[:, b],
                trace_error=drift[:, b],
                final=DensityState(rhos[b], t, frame, space),
            )
            for b, (frame, error) in enumerate(zip(frames, self.errors))
        ]


def _flip(space: HilbertSpace):
    """(perm, sign) with sign * r[perm] the coordinates of F rho F for the
    qubit flip F, a permutation matrix: a signed permutation, since F maps
    a pair (j, k) to (p_j, p_k), whose order may be reversed."""
    d = space.dim
    p = np.argmax(qubit_flip(space).real, axis=1)
    j, k, sym = _pair_coordinates(d)
    pair = np.zeros((d, d), dtype=int)
    pair[j, k] = pair[k, j] = sym
    perm, sign = np.empty(d * d, dtype=int), np.ones(d * d)
    perm[:d] = p
    perm[sym] = pair[p[j], p[k]]
    perm[sym + 1] = perm[sym] + 1
    sign[sym + 1] = np.where(p[j] < p[k], 1.0, -1.0)
    return perm, sign[:, None]


def propagate_batch(
    rho0s,
    schedules,
    params: SystemParams,
    opts: IntegratorOptions = IntegratorOptions(),
    *,
    until: float | None = None,
) -> list:
    """Propagate B schedules that share one timeline as one (D, B) block
    to ``until``, as ``propagate`` does one.

    The schedules must share duration and event times (``marker_times``,
    ``pi_times``), and the initial states their time tag and space. They may differ in amplitudes,
    carriers and the frame's references: the columns of a block of map
    rows, a signal run and its dark run, a reset run and its no-reset
    baseline. Each column is checked at every sample as ``propagate``
    checks its state; a column that fails a check stops there, and the
    others go on. Returns per column its Trajectory, whose ``final`` is the
    state at ``until``, or the IntegrationError it failed with. A failure of
    the timeline itself (step-size underflow) fails every column that has
    not failed before; inconsistent inputs, an initial state that is not
    Hermitian or an empty batch raise ValueError.

    The work that does not depend on the step is done once per batch: the
    frames' static parts, the RHS block, the timeline plan with its
    coefficient table and its step-map changes, and the stack of step
    maps; each interval then costs one stacked map product and the RK4
    stages of its staged columns, and each sample one ``_SampleLog.record``.
    """
    if not schedules:
        raise ValueError("a batch needs at least one schedule")
    first = schedules[0]
    for rho0, sched in zip(rho0s, schedules, strict=True):
        if rho0.frame != sched.frame:
            raise ValueError("initial state frame does not match the schedule frame")
        timeline = (sched.duration, sched.marker_times, sched.pi_times)
        if timeline != (first.duration, first.marker_times, first.pi_times):
            raise ValueError("the schedules of a batch must share one timeline")
        if (rho0.time, rho0.space) != (rho0s[0].time, rho0s[0].space):
            raise ValueError("the initial states of a batch must share time and space")
        # the real coordinates keep only the Hermitian part of a state
        if np.abs(rho0.matrix - rho0.matrix.conj().T).max() > HERM_TOL:
            raise ValueError("an initial state is not Hermitian")
    space = rho0s[0].space
    rhs = _StackedRHS(schedules, params, space)
    until = first.duration if until is None else until
    t_start = rho0s[0].time
    if until < t_start:
        raise ValueError("run ends before the initial state's time tag")
    times = _sample_times(first, t_start, until, opts.sample_dt)
    times.flags.writeable = False
    log = _SampleLog(superoperators(params, space.n_max), len(schedules))
    perm, sign = _flip(space)

    vecs = np.stack([rho0.matrix.reshape(-1) for rho0 in rho0s], axis=1)
    x = np.ascontiguousarray((hermitian_basis(space.dim).conj().T @ vecs).real)
    pi_times = set(first.pi_times)
    if t_start in pi_times:  # acts before the first record
        x = sign * x[perm]
    log.record(t_start, x)
    # each sample is recorded, then a pi pulse due at its time flips the
    # qubit; one due at ``until`` acts after the run
    for t_next, gap in zip(times[1:].tolist(), _plan(rhs, times, opts.max_step)):
        try:
            x = _rk4_interval(rhs, x, gap)
        except IntegrationError as exc:
            log.errors = [error or exc for error in log.errors]
            break
        log.record(t_next, x)
        if t_next in pi_times and t_next < until:
            x = sign * x[perm]
    return log.trajectories(times, x, [s.frame for s in schedules])


def propagate(
    rho0: DensityState,
    schedule: PulseSchedule,
    params: SystemParams,
    opts: IntegratorOptions = IntegratorOptions(),
    *,
    until: float | None = None,
) -> Trajectory:
    """Propagate over a schedule to ``until``, sampling observables on the way.

    Instantaneous pi pulses are applied as exact qubit flips at their times.
    Trace, Hermiticity and positivity are checked at every sample; a failed
    check, a non-finite state or a step-size underflow raises
    IntegrationError. ``until`` ends the run (the schedule's end by
    default; later runs free dynamics once the envelopes end), and
    ``final`` is the state there. The B = 1 case of ``propagate_batch``.
    """
    (result,) = propagate_batch([rho0], [schedule], params, opts, until=until)
    if isinstance(result, IntegrationError):
        raise result
    return result
