"""Exact Gauss-Manin connection matrices for degenerating hyperplane arrangements.

The package computes, in exact arithmetic, the connection matrices that
describe how the top local-system cohomology of a hyperplane arrangement
complement varies along a one-parameter degeneration of the arrangement:

* ``exact`` — rationals, sparse multivariate polynomials and reduced
  rational functions in the weights; polynomials in the deformation
  parameter ``t`` are the one-variable sparse polynomials in ``t``.
* ``arrangement`` — realization matrices, minors, combinatorial types,
  matroid data (circuits, frames, nbc/betanbc sets), flats, dense edges,
  Betti numbers and the nonresonance check.
* ``orlik_solomon`` — the graded algebra with its no-broken-circuit basis,
  straightening, the twisted differential, cocycles and the projection
  matrix onto the degenerate type's top cohomology.
* ``aomoto_kita`` — general-position connection matrices for each dependent
  index set.
* ``gauss_manin`` — degeneration paths, vanishing-order multiplicities, the
  combined connection of a degeneration, the connection matrix in the
  degenerate basis (read off the unit rows of the projection and verified on
  every row), and the codimension-one closed form.
* ``cli`` — file formats and the ``gmarr`` command-line tool.
"""

__version__ = "0.1.0"

from .aomoto_kita import ConnectionMatrix, epsilon, omega_general
from .arrangement import (
    CombinatorialType,
    NotMatroidal,
    Realization,
    RealizationError,
    Weights,
    affine_circuits,
    betanbc_frames,
    betti_and_euler,
    compute_type,
    dense_edges,
    frames,
    general_position_type,
    nbc_sets,
    stv_check,
)
from .gauss_manin import (
    COVER_CAVEAT,
    DegenerationPath,
    InconsistentSystem,
    MultiplicityTable,
    PathError,
    codim1_projection_closed_form,
    combined_omega,
    connection_for_path,
    multiplicities,
    normalize_codim1_type,
    relative_dep,
    solve_connection,
)
from .orlik_solomon import (
    OSElement,
    ProjectionMatrix,
    ResonantWeights,
    SpanDefect,
    a_lambda_matrix,
    projection_matrix,
    straighten,
    zeta,
)

__all__ = [
    "COVER_CAVEAT",
    "CombinatorialType",
    "ConnectionMatrix",
    "DegenerationPath",
    "InconsistentSystem",
    "MultiplicityTable",
    "NotMatroidal",
    "OSElement",
    "PathError",
    "ProjectionMatrix",
    "Realization",
    "RealizationError",
    "ResonantWeights",
    "SpanDefect",
    "Weights",
    "affine_circuits",
    "a_lambda_matrix",
    "betanbc_frames",
    "betti_and_euler",
    "codim1_projection_closed_form",
    "combined_omega",
    "compute_type",
    "connection_for_path",
    "dense_edges",
    "epsilon",
    "frames",
    "general_position_type",
    "multiplicities",
    "nbc_sets",
    "normalize_codim1_type",
    "omega_general",
    "projection_matrix",
    "relative_dep",
    "solve_connection",
    "stv_check",
    "straighten",
    "zeta",
    "__version__",
]
