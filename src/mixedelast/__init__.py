"""2D mixed finite elements for elastodynamics with weakly imposed stress symmetry."""

from .assembly import (BlockSystem, MaterialModel, assemble, assemble_body_load,
                       assemble_dirichlet_load)
from .dynamics import CN, RADAU2_NAME, SemidiscreteState, TrajectorySummary, integrate
from .errors import ConfigError, GeometryError, MixedElastError, SingularSystemError
from .mesh import Mesh, build_uniform_square_mesh, mesh_diameter
from .quadrature import QuadratureRule, edge_rule, triangle_rule
from .spaces import DiscreteSpaces, build_spaces, l2_project_velocity
from .statics import InitialData, build_initial_data, infsup_constant
from .verification import (ConvergenceTable, MmsCase, builtin_case, convergence_study,
                           l2_error, locking_study, run_case)

__version__ = "0.1.0"
