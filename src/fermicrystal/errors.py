"""Exception types shared across the package.

Every failure mode the command line maps to a distinct exit code gets its
own class here, so library users can discriminate without string matching.
"""

from __future__ import annotations


class FermicrystalError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(FermicrystalError):
    """Grid or coefficient data does not match the torus it claims to live on."""


class NeutralityError(FermicrystalError):
    """Poisson source carries net charge beyond tolerance.

    The residual ``|rho_hat(0)|`` is stored on the instance.
    """

    def __init__(self, residual: float, tolerance: float):
        self.residual = float(residual)
        self.tolerance = float(tolerance)
        super().__init__(
            f"source is not neutral: |rho_hat(0)| = {residual:.3e} "
            f"exceeds tolerance {tolerance:.3e}"
        )


class InvalidDensityError(FermicrystalError):
    """Ion charge density violates a structural requirement (charge, symmetry)."""


class FrequencyDomainError(FermicrystalError):
    """A frequency argument lies outside the domain an operation is defined on."""


class CapacityError(FermicrystalError):
    """Requested enumeration exceeds the configured size budget."""


class AdmissibilityError(FermicrystalError):
    """A state violates an admissibility requirement of the model."""


class ModelRefusalError(FermicrystalError):
    """The model refuses to build the requested object; diagnostics in args."""


class IntegratorError(FermicrystalError):
    """Time stepping failed; diagnostics (row, step, time, residual) on the instance.

    ``row`` is the failing row of a batched ``evolve`` (0 for a single state).
    """

    def __init__(self, message: str, *, row: int = 0, step: int, time: float,
                 residual: float):
        self.row = int(row)
        self.step = int(step)
        self.time = float(time)
        self.residual = float(residual)
        super().__init__(
            f"{message} (row {row}, step {step}, t = {time:.6g}, "
            f"residual = {residual:.3e})"
        )


class ConfigError(FermicrystalError):
    """Run configuration is missing, malformed, or inconsistent."""
