"""fractalcut: triangle-fractal instance selectors and branching solvers for
length-bounded cut problems.

The package builds self-similar triangle graphs whose minimum terminal cuts
act as instance selectors, machine-verifies their structural properties,
decides three length-bounded deletion problems with fixed-parameter
branching solvers backed by exhaustive oracles, composes many instances
into one (an executable OR-composition), and carries out the vertex-cover
reduction to planar length-bounded cut.
"""

from types import ModuleType as _ModuleType

from .composer import (CompositionArtifact, EquivalenceClass, check_equivalent,
                       compose_dsct, compose_lbec, compose_mded,
                       pad_to_power_of_two, trivial_no_instance)
from .errors import (EquivalenceError, FractalcutError, InputError, ParseError,
                     ResourceBudgetError, UnsupportedParameterError)
from .fractal import (TFractal, build_fractal, cut_for_instance,
                      enumerate_min_cuts, selected_instance)
from .graph import (CutCertificate, Edge, Graph, UNREACHABLE, bfs_distance,
                    is_connected, is_edge_cut, is_minimal_edge_cut,
                    is_strongly_connected, min_cut)
from .reducer import (TwoPageEmbedding, VcInstance, reduce_vc_to_planar_lbec,
                      solve_vc_bruteforce, validate_embedding)
from .serialize import fractal_to_dot, parse, to_dimacs, to_dot, to_json
from .solvers import (ProblemInstance, Verdict, check_witness,
                      instance_predicate, solve_bruteforce,
                      solve_bruteforce_costaware, solve_dsct_fpt, solve_fpt,
                      solve_lbec_fpt, solve_mded_fpt)

__version__ = "0.1.0"

# The names imported above; the submodules that the imports bind are left out.
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, _ModuleType))
