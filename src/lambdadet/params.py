"""Device parameter set: renormalized frequencies, decay rates, coupling ratios.

All frequencies and rates are angular (rad/s); times are seconds. Convenience
unit-suffixed keys exist only at the configuration-file boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class SystemParams:
    """Renormalized device constants of the qubit-resonator system.

    Attributes
    ----------
    omega_ge : float
        Qubit transition frequency (rad/s), renormalized.
    omega_r : float
        Resonator frequency with the qubit in |g> (rad/s), renormalized.
    chi : float
        Half the dispersive pull (rad/s); the full qubit-state pull is 2*chi.
    kappa : float
        Total resonator energy decay rate (rad/s).
    kappa_ext_ratio : float
        External-coupling fraction kappa_ext / kappa, in [0, 1].
    gamma : float
        Qubit energy decay rate (rad/s).
    gamma_phi : float
        Qubit pure dephasing rate (rad/s), default 0.
    init_excited_pop : float
        Residual excited-state population after initialization, in [0, 1).
    drive_power_to_rabi : float or None
        Calibration constant c with Omega = c * 10**(P_dBm / 20). None until
        fitted (see dressed.fit_drive_calibration).
    drive_noise_per_rabi2 : float
        Drive-line amplitude noise constant (seconds): incoherent qubit
        flips at rate drive_noise_per_rabi2 * Omega(t)**2 while the drive is
        on, anchored to the measured dark count at the operating point.
    drive_dephasing_per_rabi2 : float
        Drive-line phase noise constant (seconds): qubit dephasing at rate
        drive_dephasing_per_rabi2 * Omega(t)**2 while the drive is on.
    """

    omega_ge: float
    omega_r: float
    chi: float
    kappa: float
    kappa_ext_ratio: float
    gamma: float
    gamma_phi: float = 0.0
    init_excited_pop: float = 0.0
    drive_power_to_rabi: float | None = None
    drive_noise_per_rabi2: float = 0.0
    drive_dephasing_per_rabi2: float = 0.0

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")
        if self.chi <= 0:
            raise ValueError(f"chi must be > 0, got {self.chi}")
        if self.gamma < 0 or self.gamma_phi < 0:
            raise ValueError("decay rates must be >= 0")
        if not 0.0 <= self.kappa_ext_ratio <= 1.0:
            raise ValueError(
                f"kappa_ext_ratio must lie in [0, 1], got {self.kappa_ext_ratio}"
            )
        if not 0.0 <= self.init_excited_pop < 1.0:
            raise ValueError(
                f"init_excited_pop must lie in [0, 1), got {self.init_excited_pop}"
            )
        if self.drive_noise_per_rabi2 < 0 or self.drive_dephasing_per_rabi2 < 0:
            raise ValueError("drive noise constants must be >= 0")

    @property
    def kappa_ext(self) -> float:
        return self.kappa * self.kappa_ext_ratio

    @property
    def kappa_int(self) -> float:
        return self.kappa - self.kappa_ext

    def rabi_of_dbm(self, p_dbm: float) -> float:
        """Drive Rabi amplitude (rad/s) for a drive power in dBm."""
        c = self.require_calibration()
        return c * 10.0 ** (p_dbm / 20.0)

    def dbm_of_rabi(self, rabi: float) -> float:
        """Inverse of rabi_of_dbm."""
        c = self.require_calibration()
        if rabi <= 0:
            raise ValueError("rabi must be > 0 to express in dBm")
        return 20.0 * np.log10(rabi / c)

    def require_calibration(self) -> float:
        if self.drive_power_to_rabi is None or self.drive_power_to_rabi <= 0:
            raise ValueError(
                "drive_power_to_rabi is not set; fit it with "
                "dressed.fit_drive_calibration or load a calibrated config"
            )
        return self.drive_power_to_rabi

    def with_calibration(self, constant: float) -> "SystemParams":
        return replace(self, drive_power_to_rabi=constant)

    def check_nesting(self, omega_d: float) -> None:
        """Validate 0 < omega_ge - omega_d < 2*chi for Lambda-mode operation."""
        from .errors import LambdaModeError

        detuning = self.omega_ge - omega_d
        if not 0.0 < detuning < 2.0 * self.chi:
            raise LambdaModeError(
                "nesting condition violated: need 0 < omega_ge - omega_d < 2*chi, "
                f"got (omega_ge - omega_d)/2pi = {detuning / TWO_PI / 1e6:.3f} MHz "
                f"with 2*chi/2pi = {2 * self.chi / TWO_PI / 1e6:.3f} MHz"
            )
