"""Thomas-Fermi and Kohn-Sham LDA solvers for Born-Oppenheimer surfaces."""

from .bo import BOCurve, BOSample, GammaEstimate, GridPolicy, bo_ks, bo_tf, gamma_limit, tf_sweep
from .grids import Grid3D, GridError, RadialGrid, ScalarField, SolverError
from .ks_checks import check_exchange_bound, kinetic_scaling_check
from .ks_common import KSState, SCFError
from .ks_molecule import scf_molecule
from .ks_radial import scf_atom
from .minsearch import MinSearchResult, min_distance_search, subadditivity_check
from .outside import UniformBall, outside_decomposition_check, qij_tf
from .screening import screened_compare
from .tf_atom import AtomicTFSolution, UniversalTF, atomic_tf, solve_universal, universal_profile
from .tf_molecule import (
    ConvergenceError,
    NuclearConfiguration,
    RegionMask,
    TFSolution,
    exterior_tf,
    solve_tf,
)
from .xc import XCFunctional, XCValidationError, make_functional

__version__ = "0.1.0"

__all__ = [
    "AtomicTFSolution",
    "BOCurve",
    "BOSample",
    "ConvergenceError",
    "GammaEstimate",
    "Grid3D",
    "GridError",
    "GridPolicy",
    "KSState",
    "MinSearchResult",
    "NuclearConfiguration",
    "RadialGrid",
    "RegionMask",
    "SCFError",
    "ScalarField",
    "SolverError",
    "TFSolution",
    "UniformBall",
    "UniversalTF",
    "XCFunctional",
    "XCValidationError",
    "__version__",
    "atomic_tf",
    "bo_ks",
    "bo_tf",
    "check_exchange_bound",
    "exterior_tf",
    "gamma_limit",
    "kinetic_scaling_check",
    "make_functional",
    "min_distance_search",
    "outside_decomposition_check",
    "qij_tf",
    "scf_atom",
    "scf_molecule",
    "screened_compare",
    "solve_tf",
    "solve_universal",
    "subadditivity_check",
    "tf_sweep",
    "universal_profile",
]
