"""Two-competitor population dynamics with two exclusive disease strains.

The package covers the full analysis loop for the four-compartment model
(first competitor, susceptibles, and one class per strain): trajectory
integration, the closed-form equilibrium catalog with feasibility
margins, analytic and numeric stability verdicts, transcritical crossing
location, and basin-of-attraction geometry with separatrix surface
reconstruction.
"""

from .model import (
    ModelParameters,
    StateVector,
    BoundednessCertificate,
    PARAMETER_KEYS,
    rhs,
    jacobian,
    total_population,
    boundedness_certificate,
)
from .integrate import (
    IntegrationConfig,
    Trajectory,
    StepFailureError,
    ReachResult,
    UNDECIDED,
    write_trajectory_csv,
)
from .equilibria import (
    DegenerateEquilibriumError,
    EquilibriumRecord,
    EQUILIBRIUM_IDS,
    FACE_EQUILIBRIUM_IDS,
    compute_equilibrium,
    catalog,
    equilibrium_residual,
    records_to_jsonl,
)
from .stability import (
    EigenSolverError,
    StabilityVerdict,
    numeric_eigenvalues,
    analytic_eigenvalues,
    classify,
    classify_eigenvalues,
    verdicts_to_jsonl,
)
from .bifurcation import (
    SweepResult,
    SweepRow,
    TranscriticalPoint,
    UnsupportedPairError,
    NoSignChangeError,
    SUPPORTED_PAIRS,
    sweep,
    find_transcritical,
    write_sweep_csv,
)
from .basin import (
    BasinGrid,
    SeparatrixSample,
    SeparatrixModel,
    DegenerateGeometryError,
    FitResidualError,
    classify_grid,
    boundary_edge_segments,
    separatrix_points,
    fit_surface,
    probe_surface_sides,
    reconstruct_separatrix,
)
from .config import ConfigError, RunConfig, parse_config, load_config, dump_config
from .figures import PRESETS, FIGURE_NAMES, reproduce

__version__ = "0.1.0"
