"""Data-driven barrier certificates for discrete-time systems.

The package certifies safety of a system from sampled transitions: fit a
polynomial barrier between the initial and unsafe regions by linear
programming over the samples, bound the mismatch introduced by finite
sampling with a Lipschitz argument, and report either a deterministic or a
high-confidence probabilistic guarantee.  A physics-consistency filter can
drop samples that disagree with a nominal model before fitting, which
shrinks the data while keeping the guarantee sound with respect to the
filtered set.
"""

from .barrier import (
    BarrierCertificate,
    BarrierTemplate,
    ConstraintSystem,
    ResidualReport,
    assemble,
    check_certificate,
)
from .certify import (
    CertificationReport,
    GeometryFactor,
    beta_inc,
    beta_inc_inv,
    check_deterministic,
    check_probabilistic,
    min_violation_level,
)
from .config import (
    MODE_DETERMINISTIC,
    MODE_PROBABILISTIC,
    RunConfig,
    apply_overrides,
    preset,
)
from .errors import (
    CapacityError,
    DatasetParseError,
    DegenerateDataError,
    DomainError,
    GeometrySaturationError,
    InsufficientSamplesError,
    InvalidStateError,
    ModelMismatchError,
    NoCoverError,
    PhysbcError,
    RegionViolationError,
    SolverInternalError,
)
from .filtering import FilterConfig, FilterOutcome, apply_filter, discrepancy_profile
from .lipschitz import (
    LipschitzConfig,
    LipschitzEstimate,
    estimate_extreme_value,
    estimate_pairwise,
)
from .models import (
    PerturbationField,
    RegionBox,
    SafetyCheck,
    SystemModel,
    check_safety_empirically,
    logistic_growth,
    supply_demand,
)
from .pipeline import RunArtifacts, region_cover, run, write_artifacts
from .sampling import (
    Dataset,
    covering_radius,
    load_dataset,
    sample_grid,
    sample_iid,
    save_dataset,
)
from .solver import SolveResult, solve, solve_minmax_direct

__version__ = "0.1.0"

__all__ = [
    "BarrierCertificate",
    "BarrierTemplate",
    "CapacityError",
    "CertificationReport",
    "ConstraintSystem",
    "Dataset",
    "DatasetParseError",
    "DegenerateDataError",
    "DomainError",
    "FilterConfig",
    "FilterOutcome",
    "GeometryFactor",
    "GeometrySaturationError",
    "InsufficientSamplesError",
    "InvalidStateError",
    "LipschitzConfig",
    "LipschitzEstimate",
    "MODE_DETERMINISTIC",
    "MODE_PROBABILISTIC",
    "ModelMismatchError",
    "NoCoverError",
    "PerturbationField",
    "PhysbcError",
    "RegionBox",
    "RegionViolationError",
    "ResidualReport",
    "RunArtifacts",
    "RunConfig",
    "SafetyCheck",
    "SolveResult",
    "SolverInternalError",
    "SystemModel",
    "apply_filter",
    "apply_overrides",
    "assemble",
    "beta_inc",
    "beta_inc_inv",
    "check_certificate",
    "check_deterministic",
    "check_probabilistic",
    "check_safety_empirically",
    "covering_radius",
    "discrepancy_profile",
    "estimate_extreme_value",
    "estimate_pairwise",
    "load_dataset",
    "logistic_growth",
    "min_violation_level",
    "preset",
    "region_cover",
    "run",
    "sample_grid",
    "sample_iid",
    "save_dataset",
    "solve",
    "solve_minmax_direct",
    "supply_demand",
    "write_artifacts",
]
