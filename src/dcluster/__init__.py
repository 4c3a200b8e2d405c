"""Higher cluster categories of Dynkin quivers, computed exactly over F_p."""

__version__ = "0.1.0"

from .quiver import (DynkinQuiver, coxeter_data, fomin_reading_count,
                     parse_quiver, positive_roots)
from .reps import ModuleCategory
from .orbit import OrbitCategory
from .tilting import (TiltingContext, complete_to_tilting, enumerate_tilting,
                      is_maximal_rigid, is_rigid, is_tilting,
                      maximal_rigid_sets, verify_equivalence)
from .mutation import (complements, fan_of, is_exchange_team, mutate,
                       mutation_graph_checks, triangles_of)
from .complex import (ClusterComplex, build_complex, f_vector, facet_stats,
                      gamma, gamma_is_bijection)
from .verify import CHECK_IDS, load_context, report_to_json, run_checks
