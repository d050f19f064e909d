"""Pulse envelopes and timed schedules for the detection and reset protocols.

Envelope widths follow the experiment's conventions: a Gaussian signal pulse
is specified by its FWHM t_s in voltage amplitude, flat-top drive edges are
half-Gaussians with FWHM 2*t_rise, and Gaussians are truncated at +-4 sigma.
Readout markers and instantaneous pi pulses are a schedule's event times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Frame
from .params import SystemParams

SIGMA_PER_FWHM = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
GAUSS_TRUNC_SIGMAS = 4.0

KIND_GAUSSIAN = "gaussian"
KIND_FLAT_TOP = "flat_top_gaussian_edges"
KIND_RECT = "rect"

ROLE_DRIVE = "drive"
ROLE_SIGNAL = "signal"
ROLE_RESET = "reset"

# drive plateau covering rule used throughout the protocol
DRIVE_LENGTH_SLOPE = 1.5
DRIVE_LENGTH_OFFSET = 50e-9


def auto_drive_length(t_s: float) -> float:
    """Drive plateau duration that covers a signal pulse of FWHM t_s."""
    return DRIVE_LENGTH_SLOPE * t_s + DRIVE_LENGTH_OFFSET


@dataclass(frozen=True)
class PulseEnvelope:
    """One timed envelope.

    ``width`` is the FWHM for gaussian kind, the plateau duration for
    flat-top, and the full duration for rect. ``amplitude`` is a peak Rabi
    amplitude (rad/s) for qubit drives or sqrt(photons/s) for resonator
    inputs. ``carrier`` is the tone's angular frequency.
    """

    kind: str
    center: float
    width: float
    edge_fwhm: float = 0.0
    amplitude: float = 0.0
    carrier: float = 0.0

    def __post_init__(self):
        if self.kind not in (KIND_GAUSSIAN, KIND_FLAT_TOP, KIND_RECT):
            raise ValueError(f"unknown envelope kind {self.kind!r}")
        if self.width < 0 or self.edge_fwhm < 0:
            raise ValueError("durations must be >= 0")
        if self.kind == KIND_GAUSSIAN and self.width <= 0:
            raise ValueError("gaussian envelope needs a positive FWHM")

    @property
    def sigma(self) -> float:
        """Gaussian sigma of the body (gaussian) or the edges (flat-top)."""
        if self.kind == KIND_GAUSSIAN:
            return self.width * SIGMA_PER_FWHM
        return self.edge_fwhm * SIGMA_PER_FWHM

    def support(self) -> tuple[float, float]:
        """Interval outside which the envelope is identically zero."""
        if self.kind == KIND_GAUSSIAN:
            half = GAUSS_TRUNC_SIGMAS * self.sigma
        elif self.kind == KIND_FLAT_TOP:
            half = self.width / 2.0 + GAUSS_TRUNC_SIGMAS * self.sigma
        else:
            half = self.width / 2.0
        return self.center - half, self.center + half

    def value(self, t: float) -> float:
        """Real envelope value at time t (scalar)."""
        dt = t - self.center
        if self.kind == KIND_GAUSSIAN:
            s = self.sigma
            if abs(dt) > GAUSS_TRUNC_SIGMAS * s:
                return 0.0
            return self.amplitude * math.exp(-0.5 * (dt / s) ** 2)
        if self.kind == KIND_FLAT_TOP:
            half = self.width / 2.0
            edge = abs(dt) - half
            if edge <= 0.0:
                return self.amplitude
            s = self.sigma
            if s == 0.0 or edge > GAUSS_TRUNC_SIGMAS * s:
                return 0.0
            return self.amplitude * math.exp(-0.5 * (edge / s) ** 2)
        return self.amplitude if abs(dt) <= self.width / 2.0 else 0.0

    def values(self, t: np.ndarray) -> np.ndarray:
        """``value`` at every time of t, bit for bit. Where ``value``'s own
        tests give 0 (outside the support) or the amplitude (a flat-top's
        plateau), the value is set by those tests in numpy and ``value`` is
        not called."""
        t = np.atleast_1d(t)
        offset = np.abs(t - self.center)
        out = np.zeros(len(t))
        if self.kind == KIND_GAUSSIAN:
            inside = ~(offset > GAUSS_TRUNC_SIGMAS * self.sigma)
        elif self.kind == KIND_FLAT_TOP:
            edge = offset - self.width / 2.0
            plateau = edge <= 0.0
            out[plateau] = self.amplitude
            s = self.sigma
            inside = ~plateau & ~(edge > GAUSS_TRUNC_SIGMAS * s) & (s != 0.0)
        else:
            inside = offset <= self.width / 2.0
        out[inside] = [self.value(ti) for ti in t[inside].tolist()]
        return out


def gaussian_signal(nbar: float, t_s: float, center: float, carrier: float) -> PulseEnvelope:
    """Gaussian input pulse whose integrated photon flux equals nbar."""
    if t_s <= 0:
        raise ValueError("t_s must be > 0")
    if nbar < 0:
        raise ValueError("nbar must be >= 0")
    sigma = t_s * SIGMA_PER_FWHM
    norm = sigma * math.sqrt(math.pi) * math.erf(GAUSS_TRUNC_SIGMAS)
    amp = math.sqrt(nbar / norm)
    return PulseEnvelope(KIND_GAUSSIAN, center, t_s, 0.0, amp, carrier)


def flat_top_drive(
    rabi: float, plateau: float, center: float, carrier: float, t_rise: float
) -> PulseEnvelope:
    return PulseEnvelope(KIND_FLAT_TOP, center, plateau, 2.0 * t_rise, rabi, carrier)


def flat_top_input(
    nbar: float, plateau: float, center: float, carrier: float, t_rise: float
) -> PulseEnvelope:
    """Flat-top resonator input carrying nbar photons in total."""
    sigma = 2.0 * t_rise * SIGMA_PER_FWHM
    norm = plateau + sigma * math.sqrt(math.pi) * math.erf(GAUSS_TRUNC_SIGMAS)
    amp = math.sqrt(nbar / norm)
    return PulseEnvelope(KIND_FLAT_TOP, center, plateau, 2.0 * t_rise, amp, carrier)


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered (role, envelope) pairs in the frame they are expressed in, and
    the times of the readout markers and the instantaneous pi pulses."""

    entries: tuple[tuple[str, PulseEnvelope], ...]
    frame: Frame
    duration: float
    marker_times: tuple[float, ...] = ()
    pi_times: tuple[float, ...] = ()


@dataclass(frozen=True)
class DetectionSettings:
    """Operating point of the detection stage: the drive (``rabi`` at
    ``omega_d``) and the Gaussian signal pulse (``nbar_s`` photons at
    ``omega_s`` with FWHM ``t_s``)."""

    rabi: float
    omega_s: float
    t_s: float
    nbar_s: float
    omega_d: float
    t_rise: float

    @property
    def stage(self) -> float:
        """Nominal duration of the stage (see ``stage_duration``)."""
        return stage_duration(auto_drive_length(self.t_s), self.t_rise)


@dataclass(frozen=True)
class ResetSettings:
    """Operating point of the reset stage: the drive (``rabi_dr`` at
    ``omega_d``) and the reset tone (``nbar_rst`` photons at ``omega_rst``),
    both with plateau ``t_dr``."""

    rabi_dr: float
    omega_rst: float
    nbar_rst: float
    t_dr: float
    omega_d: float
    t_rise: float

    @property
    def stage(self) -> float:
        """Nominal duration of the stage (see ``stage_duration``)."""
        return stage_duration(self.t_dr, self.t_rise)


def detection_schedule(
    params: SystemParams, settings: DetectionSettings, *, start: float = 0.0
) -> PulseSchedule:
    """Drive + signal pulse pair of the single-photon detection stage.

    The drive plateau (duration t_d = 1.5 t_s + 50 ns) is centered on the
    Gaussian signal pulse; the readout marker sits at t_d/2 + t_rise after
    the common center. A drive (rabi > 0) must meet the nesting condition
    (``SystemParams.check_nesting``).
    """
    s = settings
    if s.t_s <= 0:
        raise ValueError("t_s must be > 0")
    if s.nbar_s < 0:
        raise ValueError("nbar_s must be >= 0")
    if s.rabi > 0:
        params.check_nesting(s.omega_d)
    t_d = auto_drive_length(s.t_s)
    center, marker_t = _stage_times(start, t_d, s.t_rise)
    entries = (
        (ROLE_DRIVE, flat_top_drive(s.rabi, t_d, center, s.omega_d, s.t_rise)),
        (ROLE_SIGNAL, gaussian_signal(s.nbar_s, s.t_s, center, s.omega_s)),
    )
    duration = max([marker_t] + [env.support()[1] for _, env in entries])
    return PulseSchedule(entries, Frame(s.omega_d, s.omega_s), duration, (marker_t,))


def reset_schedule(
    params: SystemParams, settings: ResetSettings, *, with_initial_pi: bool = True
) -> PulseSchedule:
    """Reset stage: optional instantaneous pi pulse, then drive + reset tone.

    The reset tone is a flat-top co-terminated with the drive and carries
    nbar_rst photons in total. The drive must meet the nesting condition
    (``SystemParams.check_nesting``), whatever its amplitude.
    """
    s = settings
    if s.t_dr <= 0:
        raise ValueError("t_dr must be > 0")
    params.check_nesting(s.omega_d)
    center, marker_t = _stage_times(0.0, s.t_dr, s.t_rise)
    entries = ((ROLE_DRIVE, flat_top_drive(s.rabi_dr, s.t_dr, center, s.omega_d, s.t_rise)),)
    if s.nbar_rst > 0:
        tone = flat_top_input(s.nbar_rst, s.t_dr, center, s.omega_rst, s.t_rise)
        entries += ((ROLE_RESET, tone),)
    duration = max([marker_t] + [env.support()[1] for _, env in entries])
    pi_times = (0.0,) if with_initial_pi else ()
    return PulseSchedule(entries, Frame(s.omega_d, s.omega_rst), duration, (marker_t,), pi_times)


def _stage_times(start: float, plateau: float, t_rise: float) -> tuple[float, float]:
    """Plateau center and readout marker, t_rise after the plateau, of a stage from ``start``."""
    lead = GAUSS_TRUNC_SIGMAS * (2.0 * t_rise * SIGMA_PER_FWHM)
    center = start + lead + plateau / 2.0
    return center, center + plateau / 2.0 + t_rise


def stage_duration(t_plateau: float, t_rise: float) -> float:
    """Nominal stage duration bookkeeping: plateau plus one t_rise per edge."""
    return t_plateau + 2.0 * t_rise
