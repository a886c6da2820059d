"""Quantum dynamics of a polar rigid rotor driven by a rectangular electric pulse."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .core import (
    MatrixKind,
    OperatorMatrix,
    PulseSpec,
    RotorBasis,
    Wavepacket,
    build_cos2_matrix,
    build_cos_matrix,
    build_hamiltonian,
    build_j2_matrix,
    dimensionless_from_physical,
)
from .propagate import (
    ConvergenceError,
    Method,
    PropagationReport,
    converge_basis,
    delta_kick,
    propagate_ode,
    propagate_spectral,
)
from .observables import (
    ObservableSet,
    alignment,
    coherence_products,
    compute_all,
    kinetic_energy,
    orientation,
    populations,
)
from .analytic import (
    TwoLevelSolution,
    ZeroLocus,
    coefficient_c1_of_0,
    coefficient_c2_of_1,
    existence_threshold,
    sinc,
    two_level_solution,
    zero_loci,
)
from .sweep import (
    LineFit,
    PointRecord,
    SweepGrid,
    SweepResult,
    compare_drops_to_analytic,
    detect_drops,
    detect_surface_minima,
    evaluate_point,
    evaluate_points,
    fit_minima_line,
    nearest_parabola_index,
    run_sweep,
)

# Importing the names above also binds their submodules (core, sweep, ...) here;
# those stay importable as rotorkick.<module> but are not star-exported.
__all__ = [name for name, obj in globals().items()
           if not name.startswith("_") and not isinstance(obj, _ModuleType)]
