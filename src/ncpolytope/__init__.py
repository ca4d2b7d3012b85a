"""Exact computation of generalized-noncontextual polytopes.

Given a prepare-and-measure scenario with fixed operational equivalences,
this package enumerates the extremal noncontextual measurement
assignments, projects the resulting model constraints onto data-table
space to obtain the noncontextual polytope (affine-hull equalities plus
irredundant facet inequalities), decides whether a numeric data table
admits a noncontextual model (producing either an explicit model or a
verified infeasibility certificate translated into a violated
inequality), optimizes linear functionals of the table over the polytope,
and classifies facets into orbits under equivalence-respecting relabeling
groups.  All arithmetic is exact rational.
"""

__version__ = "0.1.0"

from .linalg import EQ, GEQ, LinRow, canonicalize_row
from .scenario import DataTable, Scenario, validate_scenario, validate_table
from .measurement_polytope import (VertexSet, build_measurement_h,
                                   enumerate_vertices)
from .ncsystem import build_f2, bind_table, reconstruct_table
from .projection import NCPolytope, project_to_nc_polytope
from .feasibility import (Certificate, Feasible, Infeasible, check_table,
                          farkas_certificate, certificate_to_inequality,
                          optimize)
from .symmetry import (Relabeling, RelabelingGroup, act_on_row,
                       classify_orbits, expand_orbit, flip_outcomes,
                       generate_group, swap_measurements, swap_preparations)
