"""Exact operator algebra for dihedral differential-difference operators.

The package builds the radial and angular deformed derivatives attached to
the dihedral group of order 4k, normal-orders arbitrary polynomial
expressions in them over an exact cyclotomic scalar field, and verifies
every structural identity (commutators, adjoints, squares, invariance,
projections, trigonometric summation lemmas) with exact zero residuals plus
an independent numeric witness.

Layers, bottom to top:

- ``cyclofield``: the field Q(zeta_N), N = lcm(4, 2k), exact.
- ``coeffring``: rational functions of z = e^{i phi} with factored
  denominators, and the full coefficient ring (powers of r, parameters
  a, b, w2).
- ``opalgebra``: normal-ordered operator expressions and their product,
  adjoint, and identity-representation projection.
- ``builders``: the named operators (Dr, Dphi, Hk, Xk, the invariant
  extension, the group-algebra counterterm) for any k, plus the names of
  two seeded defects for fail-path testing.
- ``identities``: the check registry, run row by row into exact residual
  reports.
- ``oracle``: the analytic-on-test-functions numeric second witness; it is
  the only module that needs numpy, and it is imported on first use.
- ``exprparse``: the expression grammar and round-tripping printer.
- ``cli``: the ``dunklops`` command.
"""

from .errors import (AlgebraError, CoeffError, DunklopsError, FieldError,
                     OracleError, ParseError, ScalarInversionError)
from .cyclofield import (DEFAULT_MAX_K, CycloScalar, FieldCtx, ctx_new,
                         max_k_ceiling)
from .coeffring import Coefficient, ZRat, trig
from .opalgebra import (OpExpr, commutator, op_I, op_R, op_coeff, op_dphi,
                        op_dr, op_one, op_param, op_product, op_r, op_sum,
                        op_zero)
from .builders import (MUTATIONS, OPERATORS, build_counterterm, build_Dphi,
                       build_Dphi_squared_expanded, build_Dr,
                       build_extended_Hk, build_Hk, build_reflection_tail,
                       build_S, build_Xk)
from .identities import (CHECK_IDS, DEFAULT_CHECK_IDS, DEFAULT_SEED,
                         CheckReport, applicable, run_check, run_suite,
                         shadow_reports)
from .exprparse import (elaborate, parse, parse_op, pretty,
                        pretty_coefficient, pretty_zrat)

__version__ = "0.1.0"

# The oracle imports numpy, so its names are resolved on first access.
_ORACLE_NAMES = ("OracleReport", "numeric_check", "numeric_check_spec")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_ORACLE_NAMES))


__all__ = [
    "AlgebraError", "CoeffError", "DunklopsError", "FieldError",
    "OracleError", "ParseError", "ScalarInversionError",
    "DEFAULT_MAX_K", "CycloScalar", "FieldCtx", "ctx_new", "max_k_ceiling",
    "Coefficient", "ZRat", "trig",
    "OpExpr", "commutator", "op_I", "op_R", "op_coeff", "op_dphi", "op_dr",
    "op_one", "op_param", "op_product", "op_r", "op_sum", "op_zero",
    "MUTATIONS", "OPERATORS", "build_counterterm", "build_Dphi",
    "build_Dphi_squared_expanded", "build_Dr", "build_extended_Hk",
    "build_Hk", "build_reflection_tail", "build_S", "build_Xk",
    "CHECK_IDS", "DEFAULT_CHECK_IDS", "CheckReport", "applicable",
    "run_check", "run_suite", "shadow_reports",
    "DEFAULT_SEED", "OracleReport", "numeric_check", "numeric_check_spec",
    "elaborate", "parse", "parse_op", "pretty", "pretty_coefficient",
    "pretty_zrat",
    "__version__",
]
