"""berger-lab: exact-arithmetic verification of curvature spaces, Berger
closures, and prolongations for holonomy candidates on realified
pseudo-quaternionic-Hermitian spaces."""

__version__ = "0.1.0"  # the one place the version is set; see pyproject.toml

from .exactlin import RealMatrix, Subspace, span_of
from .quatspace import QuaternionicSpace, build_space, realify
from .liealg import (LieAlgebra, algebra_by_name, build_glq, build_h0, build_sp,
                     build_sp1, build_sp_parabolic, direct_sum)
from .curvature import (CurvatureElement, CurvatureSpace, act, bianchi_kernel,
                        build_r0, build_r1, derivative_space,
                        restrict_check_degenerate, scalar)
from .prolong import (ProlongationSpace, first_prolongation, restrict_action,
                      second_prolongation)
from .berger import BergerReport, berger_report, holonomy_case_split
