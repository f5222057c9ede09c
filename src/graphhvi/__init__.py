"""Hemivariational inequality solver on finite weighted graphs."""

from .calculus import (EmbeddingDiagnostics, SobolevNormReport, difference,
                       embedding_diagnostics, inner_product_nodes,
                       lp_norm_edges, lp_norm_nodes, sobolev_norms,
                       w_hilbert_norm)
from .graphs import (GraphFormatError, NodeTable, WeightedGraph, ball,
                     degrees, from_data, load_graph, node_function, volume)
from .operators import (AssembledOperator, OperatorConstants, apply,
                        assemble, bilinear_form, constants)
from .solvers import (Certificate, EllipticProblem, ParabolicProblem,
                      ParabolicResult, SolveReport, SolverOptions, certify,
                      energy, hvi_residual, solve_elliptic, solve_parabolic,
                      sum_directional_bound, sum_functional, verify_inclusion)
from .superpotential import (PiecewiseDensity, Superpotential,
                             SuperpotentialSchedule, build, mollify,
                             relaxed_monotonicity_constant)
from .exhaustion import (ExhaustionReport, GraphGenerator, WeightLaw,
                         exhaust, truncate)

__version__ = "0.1.0"
