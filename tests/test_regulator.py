import json
import math
from fractions import Fraction as F

import pytest

from mevreg.eisenstein import EllipticParam
from mevreg import mev as M
from mevreg import regulator as RG

from oracles import eta_quadrature

X = EllipticParam


def test_boundary_rejection():
    with pytest.raises(ValueError):
        RG.goncharov_mev(X(0, F(1, 5)), X(F(1, 5), F(1, 5)))
    # a + b hitting a zero coordinate is also a boundary case
    with pytest.raises(ValueError):
        RG.goncharov_mev(X(F(1, 5), F(1, 5)), X(F(4, 5), F(1, 5)))
    with pytest.raises(ValueError):
        RG.goncharov_lvalue(X(F(1, 5), 0), X(F(1, 5), F(1, 5)))


def test_component_labels():
    assert RG.component_label(X(F(1, 5), F(1, 5)), X(F(2, 5), F(3, 5))) == "D--"
    assert RG.component_label(X(F(4, 5), F(4, 5)), X(F(2, 5), F(3, 5))) == "D++"
    assert RG.component_label(X(F(4, 5), F(1, 5)), X(F(2, 5), F(3, 5))) == "D+-"


def test_symmetry_in_a_b():
    a, b = X(F(1, 5), F(2, 5)), X(F(2, 5), F(1, 5))
    assert abs(RG.goncharov_mev(a, b) - RG.goncharov_mev(b, a)) < 1e-8


def test_vanishing_on_diagonal():
    a = X(F(1, 5), F(2, 5))
    assert abs(RG.goncharov_mev(a, a)) < 1e-8


def test_sigma_antisymmetry():
    a, b = X(F(1, 5), F(1, 5)), X(F(2, 5), F(3, 5))
    lhs = RG.goncharov_mev(a, b)
    rhs = -RG.goncharov_mev(a.sigma(), b.sigma())
    assert abs(lhs - rhs) < 1e-8


def test_both_pipelines_agree():
    for a, b in [
        (X(F(1, 5), F(2, 5)), X(F(2, 5), F(1, 5))),
        (X(F(1, 5), F(1, 5)), X(F(2, 5), F(3, 5))),
        (X(F(1, 7), F(2, 7)), X(F(3, 7), F(1, 7))),
    ]:
        g1 = RG.goncharov_mev(a, b)
        g2 = RG.goncharov_lvalue(a, b)
        assert abs(g1 - g2) < 1e-7


def test_zeta3_term_symmetric_cancellation():
    # vanishes when a1 = a2 and b1 = b2
    a, b = X(F(1, 5), F(1, 5)), X(F(2, 7), F(2, 7))
    assert RG.zeta3_term(a, b) == pytest.approx(0.0, abs=1e-16)


def test_beilinson_bridge_and_scaling():
    a, b = X(F(1, 5), F(1, 5)), X(F(2, 5), F(3, 5))
    g = RG.goncharov_mev(a, b)
    bl = RG.beilinson(a, b, 5)
    z3 = RG.zeta3_term(a, b)
    assert abs(g - (25.0 / 6.0) * bl + z3) < 1e-7
    # proportionality between the two L-value normalisations:
    # lvalue-part of G equals (N^2/6) * beilinson
    lpart = RG.goncharov_lvalue(a, b) + z3
    assert lpart == pytest.approx((25.0 / 6.0) * bl, abs=1e-12)
    assert RG.beilinson(b, a, 5) == pytest.approx(bl, abs=1e-12)
    with pytest.raises(ValueError):
        RG.beilinson(a, b, 7)  # not 7-torsion


def test_derivative_three_routes():
    # the five-point difference is off by 3e-14 (N = 5) and 8e-12 (N = 7);
    # a three-point one would be off by 1.4e-7 and 1.1e-6
    for a, b in (
        (X(F(1, 5), F(2, 5)), X(F(2, 5), F(1, 5))),
        (X(F(1, 7), F(1, 7)), X(F(2, 7), F(3, 7))),
    ):
        cmpres = RG.dg_da2(a, b)
        assert abs(cmpres.finite_difference - cmpres.iterated_integral) < 1e-9
        assert abs(cmpres.iterated_integral - cmpres.mellin_closed) < 1e-9
        assert cmpres.spread < 1e-9


def test_derivative_reduction_four_term_instances():
    # the two four-term product relations used to collapse the derivative,
    # instantiated exactly as in the reduction: (x1,y1,u2,v2) = (c1,a1,a2,-c2)
    # and (c1,b1,b2,-c2); both are exact identities
    from mevreg import identities as ID

    a, b = X(F(1, 5), F(1, 5)), X(F(2, 5), F(3, 5))
    c = -(a + b)
    assert ID.check_bg_g1(c.x1, a.x1, a.x2, -c.x2).residual == 0.0
    assert ID.check_bg_g1(c.x1, b.x1, b.x2, -c.x2).residual == 0.0


def test_derivative_component_guard():
    # stepping across x2 = 0 is refused
    a, b = X(F(1, 5), F(1, 4096)), X(F(2, 5), F(1, 5))
    with pytest.raises(ValueError):
        RG.dg_da2(a, b)


def test_k2_reduces_to_double_value():
    a, b = X(F(1, 5), F(1, 5)), X(F(2, 5), F(3, 5))
    val = RG.k2_regulator(a, b)
    double = M.lambda_mev([a, b]).value
    assert val == pytest.approx(double.imag, abs=1e-12)


def test_k2_antisymmetry():
    a, b = X(F(1, 5), F(2, 5)), X(F(2, 7), F(1, 7))
    assert RG.k2_regulator(a, b) == pytest.approx(-RG.k2_regulator(b, a), abs=1e-12)


def test_k2_quadrature_oracle():
    for a, b in [
        (X(F(1, 5), F(1, 5)), X(F(2, 5), F(3, 5))),
        (X(F(1, 7), F(2, 7)), X(F(3, 7), F(6, 7))),
    ]:
        assert abs(RG.k2_regulator(a, b) - eta_quadrature(a, b)) < 1e-7


def test_k2_allows_zero_coordinates():
    val = RG.k2_regulator(X(0, F(1, 3)), X(F(2, 5), F(1, 5)))
    assert math.isfinite(val)
    with pytest.raises(ValueError):
        RG.k2_regulator(X(0, 0), X(F(1, 5), F(1, 5)))


def test_report_shape_and_json():
    a, b = X(F(1, 5), F(1, 5)), X(F(2, 5), F(3, 5))
    rep = RG.regulator_report(a, b)
    assert rep.level == 5
    assert rep.c == X(F(2, 5), F(1, 5))
    assert rep.residual_thm1 < 1e-7
    assert rep.residual_thm2 < 1e-7
    assert rep.truncation_bound < 1e-11
    payload = json.loads(rep.to_json())
    assert payload["schema"] == 1
    assert payload["component"] == "D--"
    assert len(payload["lambda_breakdown"]) == 11
    # both pipeline values are present and close
    assert abs(payload["g_mev"] - payload["g_lvalue"]) < 1e-7
    # measured ratio of the two regulators' L-parts: N^2/6 on the nose here
    assert payload["measured_ratio"] == pytest.approx(25.0 / 6.0, abs=1e-6)


def test_continuity_within_component():
    # a 1/4096 perturbation inside one component moves G by a bounded
    # multiple of the step (no discontinuity is crossed)
    a, b = X(F(1, 5), F(1, 5)), X(F(2, 5), F(3, 5))
    step = F(1, 4096)
    base = RG.goncharov_mev(a, b)
    shifted = RG.goncharov_mev(X(a.x1, a.x2 + step), b)
    assert RG.component_label(X(a.x1, a.x2 + step), b) == RG.component_label(a, b)
    assert abs(shifted - base) / float(step) < 50.0


def test_report_uses_one_mellin_value_for_both_l_values():
    # the report computes M(G1 G1-sum, -1) once; its L-value and companion
    # regulator must equal the public two-call route bit for bit
    a, b = X(F(2, 7), F(3, 7)), X(F(1, 7), F(5, 7))
    rep = RG.regulator_report(a, b, 7)
    assert rep.g_lvalue == RG.goncharov_lvalue(a, b)
    assert rep.beilinson == RG.beilinson(a, b, 7)
    with pytest.raises(ValueError):
        RG.regulator_report(a, b, 5)  # not 5-torsion
