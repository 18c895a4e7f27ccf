"""Builders: the general-k constructors, their mutations and registries."""

import pytest

from dunklops.builders import (MUTATIONS, OPERATORS, OperatorSet,
                               build_counterterm, build_Dphi,
                               build_Dphi_squared_expanded, build_Dr,
                               build_Hk, build_reflection_tail, build_S,
                               build_Xk, operator_set)
from dunklops.coeffring import Coefficient, trig
from dunklops.cyclofield import ctx_new
from dunklops.errors import AlgebraError, FieldError
from dunklops.opalgebra import (OpExpr, op_I, op_R, op_coeff, op_dphi, op_dr,
                                op_one, op_param, op_r, op_zero)


def one_term(ctx, key, coeff):
    return OpExpr(ctx, {key: coeff} if coeff else {})


def test_angular_square_closed_form_is_the_square():
    for k in range(1, 5):
        dphi = build_Dphi(k)
        assert build_Dphi_squared_expanded(k) == dphi * dphi


def test_radial_operator_shape():
    for k in range(1, 6):
        ctx = ctx_new(k)
        tail = build_reflection_tail(ctx)
        assert build_Dr(ctx) == op_dr(ctx) - op_r(ctx, -1) * tail
        # the tail is (a R + b) (sum of even rotations) I, literally
        a = op_coeff(ctx, Coefficient.monomial(ctx, a=1))
        b = op_coeff(ctx, Coefficient.monomial(ctx, b=1))
        evens = op_zero(ctx)
        for i in range(k):
            evens = evens + op_R(ctx, 2 * i)
        assert tail == (a * op_R(ctx) + b) * evens * op_I(ctx)
        assert tail.term_count() == 2 * k


def test_angular_operator_reduces_to_plain_derivative():
    # with the multipliers zeroed out nothing but dphi survives; here just
    # check the identity-sector coefficient and the group support
    for k in (1, 2, 3, 4):
        dphi = build_Dphi(k)
        assert dphi.terms[(0, 1, 0, 0)] == Coefficient.one(ctx_new(k))
        for (p, q, i, e) in dphi.terms:
            assert (p, q, i, e) == (0, 1, 0, 0) or (q == 0 and e == 1)


def test_invariant_hamiltonian_assembly():
    for k in (1, 2, 3):
        ctx = ctx_new(k)
        k2 = k * k
        pot = (k2 * op_param(ctx, "a", 2) - k2 * op_param(ctx, "a")) \
            * op_coeff(ctx, trig(ctx, "sec2_k")) \
            + (k2 * op_param(ctx, "b", 2) - k2 * op_param(ctx, "b")) \
            * op_coeff(ctx, trig(ctx, "csc2_k"))
        direct = (-op_dr(ctx) * op_dr(ctx) - op_r(ctx, -1) * op_dr(ctx)
                  - op_r(ctx, -2) * op_dphi(ctx) * op_dphi(ctx)
                  + op_r(ctx, -2) * pot
                  + op_r(ctx, 2) * op_param(ctx, "w2"))
        assert build_Hk(k) == direct
        assert build_Xk(k) == -op_dphi(ctx) * op_dphi(ctx) + pot


def test_angular_reference_operator_even_only():
    for k in (1, 3, 5):
        with pytest.raises(AlgebraError):
            build_S(k)
    ctx = ctx_new(2)
    assert build_S(2) == op_one(ctx)
    ctx4 = ctx_new(4)
    assert build_S(4) == op_one(ctx4) + op_R(ctx4, 4)
    ctx6 = ctx_new(6)
    assert build_S(6) == op_one(ctx6) + op_R(ctx6, 4) + op_R(ctx6, 8)


def test_extension_rejects_an_unknown_form():
    with pytest.raises(AlgebraError):
        OperatorSet(ctx_new(2)).hk_ext("sideways")


@pytest.mark.parametrize("mutation", [None, "b-shift", "dr-drop"])
def test_extension_keeps_the_chained_term_order(mutation):
    """Both assemblies equal the chained sums and keep their insertion order
    of terms and monomials, which is the order the oracle sums weights in."""
    for k in (1, 2, 3, 4, 5):
        ctx = ctx_new(k)
        dr, dphi = build_Dr(ctx, mutation), build_Dphi(ctx, mutation)
        dphi2 = dphi * dphi
        inv_r, inv_r2, osc = op_r(ctx, -1), op_r(ctx, -2), \
            op_r(ctx, 2) * op_param(ctx, "w2")
        radial = -op_dr(ctx) * op_dr(ctx) - inv_r * op_dr(ctx)
        bracket = op_one(ctx) + 2 * build_reflection_tail(ctx)
        chained = {
            "HkExtPhi": radial - inv_r2 * (dphi2 - build_counterterm(ctx))
            + osc,
            "HkExtDr": -(dr * dr) - inv_r * (bracket * dr) - inv_r2 * dphi2
            + osc,
        }
        for member, want in chained.items():
            got = getattr(OperatorSet(ctx, mutation), member)
            assert got == want
            assert list(got.terms) == list(want.terms)
            for key, c in got.terms.items():
                assert list(c.terms) == list(want.terms[key].terms)


def test_builders_accept_ctx_or_k():
    ctx = ctx_new(3)
    assert build_Dr(ctx) == build_Dr(3)
    assert build_Dphi(ctx) == build_Dphi(3)
    assert build_S(ctx_new(4)) == build_S(4)
    with pytest.raises(FieldError):
        build_Dr(0)


def test_unknown_mutation_rejected():
    with pytest.raises(AlgebraError):
        build_Dr(3, mutation="oops")
    with pytest.raises(AlgebraError):
        operator_set(3, "oops")


def test_mutation_registry_metadata():
    # the checks each defect must fail live in the tests that assert them
    assert MUTATIONS == ("b-shift", "dr-drop")


def test_b_shift_changes_exactly_one_summand():
    for k in (1, 2, 3, 4):
        ctx = ctx_new(k)
        diff = build_Dphi(k, "b-shift") - build_Dphi(k)
        expect = one_term(ctx, (0, 0, 0, 1),
                          Coefficient.monomial(ctx,
                                               -trig(ctx, "cot_shift", 0)))
        assert diff == expect


def test_dr_drop_removes_last_rotation_pair():
    for k in (1, 2, 4):
        ctx = ctx_new(k)
        diff = build_Dr(k, "dr-drop") - build_Dr(k)
        a_c = Coefficient.monomial(ctx, m=-1, a=1)
        b_c = Coefficient.monomial(ctx, m=-1, b=1)
        expect = one_term(ctx, (0, 0, (2 * k - 1) % (2 * k), 1), a_c) \
            + one_term(ctx, (0, 0, 2 * (k - 1) % (2 * k), 1), b_c)
        assert diff == expect


def test_operator_registry_names_and_values():
    assert list(OPERATORS) == ["R", "I", "S", "Dr", "Dphi", "Hk", "Xk",
                               "HkExt", "HkExtViaDr"]
    ctx = ctx_new(4)
    fresh = OperatorSet(ctx)
    assert OPERATORS["R"](ctx) == op_R(ctx)
    assert OPERATORS["I"](ctx) == op_I(ctx)
    assert OPERATORS["S"](ctx) == build_S(4)
    assert OPERATORS["Dr"](ctx) == build_Dr(4)
    assert OPERATORS["HkExt"](ctx) == fresh.HkExtPhi
    assert OPERATORS["HkExtViaDr"](ctx) == fresh.HkExtDr
    with pytest.raises(AlgebraError):
        OPERATORS["S"](ctx_new(3))
