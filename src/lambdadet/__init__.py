"""Simulator for an impedance-matched Lambda-system microwave photon detector.

A driven superconducting qubit dispersively coupled to a resonator forms a
nested four-level ladder whose dressed states realize a Lambda system with
tunable radiative rates. This package models the device with a dense
Lindblad master equation and reproduces its reflection spectroscopy,
single-photon detection efficiency, dark counts, and fast-reset protocol.
"""

from .config import (
    GridSpec,
    RunConfig,
    load_config,
    parse_config,
    serialize_config,
)
from .dressed import (
    DressedLadder,
    RamanRates,
    dressed_states,
    fit_drive_calibration,
    matching_amplitude,
    raman_rates,
    transition_frequency,
)
from .dynamics import (
    DensityState,
    IntegratorOptions,
    Trajectory,
    liouvillian,
    mixed_initial_state,
    propagate,
    propagate_batch,
    steady_state,
)
from .hilbert import ComplexOperator, HilbertSpace, build_space
from .model import Frame, collapse_operators, hamiltonian_static
from .params import SystemParams
from .protocols import (
    CycleOutcome,
    DetectionOutcome,
    DetectionSettings,
    ReadoutModel,
    ResetOutcome,
    ResetSettings,
    dark_counts,
    detection_run,
    efficiency_map,
    efficiency_scan,
    full_cycle,
    reset_map,
    reset_run,
)
from .pulses import PulseEnvelope, PulseSchedule, detection_schedule, reset_schedule
from .response import (
    ReflectionMap,
    calibrate_signal_power,
    dip_map,
    find_matching_point,
    pdiff_spectrum,
    reflection_coefficient,
)

__version__ = "0.1.0"
