"""Polarized projective pairs: construction routes, divisor
classification, and the projective enlargement."""

from fractions import Fraction

import pytest

from toricdeform import projective
from toricdeform.datum import build_datum, build_tilde
from toricdeform.lattice import primitive, vneg, vscale
from toricdeform.polyhedral import Cone, Fan, Polyhedron, convex_hull
from toricdeform.presets import (
    ca1_sigma,
    p2_p114_family,
    p2_polytope,
)
from toricdeform.projective import (
    DivisorClass,
    NonPrimitiveVertexError,
    OriginNotInteriorError,
    PolarizedToricVariety,
    check_fano_polytope,
    classify_divisor,
    cox_comparison,
    polytope_in_M,
    projective_tilde,
)


P2_CONE = Cone.from_generators(3, [(1, 0, 1), (0, 1, 1), (-1, -1, 1)])


# ------------------------------------------------------------ construction


def test_p2_from_cone_frozen():
    v = PolarizedToricVariety.from_cone(P2_CONE)
    assert v.n == 2
    assert set(v.fan.rays) == {(1, 0), (0, 1), (-1, -1)}
    assert all(rd.b == 1 for rd in v.ray_data)
    assert all(rd.phi == -1 for rd in v.ray_data)
    assert classify_divisor(v) == DivisorClass.CARTIER
    assert str(classify_divisor(v)) == "Cartier"
    assert cox_comparison(v) == (1, 1, 1)


def test_p2_three_routes_agree():
    a = PolarizedToricVariety.from_cone(P2_CONE)
    b = PolarizedToricVariety.from_fano_polytope(p2_polytope())
    c = PolarizedToricVariety.from_support_function(a.fan, a.phi_values)
    assert a.tau == b.tau == c.tau
    assert a.fan.rays == b.fan.rays == c.fan.rays
    ints = PolarizedToricVariety.from_support_function(a.fan, (-1, -1, -1))
    assert ints.tau == a.tau
    # the lattice number contract: a float or a string is a TypeError
    for bad in (-1.0, "-1/2"):
        with pytest.raises(TypeError, match="int or Fraction"):
            PolarizedToricVariety.from_support_function(
                a.fan, (bad,) + a.phi_values[1:])


def test_from_support_function_rejections():
    # P^2 blown up at a point
    fan = Fan(rank=2, rays=((1, 0), (1, 1), (0, 1), (-1, -1)),
              maximal_cones=((0, 1), (1, 2), (2, 3), (0, 3)))
    v = PolarizedToricVariety.from_support_function(fan, (-1, -1, -1, -1))
    assert set(v.fan.rays) == set(fan.rays)
    assert len(v.fan.maximal_cones) == 4
    # linear across the ray (1, 1): that ray leaves tau and the fan
    with pytest.raises(ValueError, match="not strictly convex"):
        PolarizedToricVariety.from_support_function(fan, (-1, -2, -1, -1))
    with pytest.raises(ValueError, match="need one value per fan ray"):
        PolarizedToricVariety.from_support_function(fan, (-1, -1, -1))


def test_p2_polytope_in_M():
    v = PolarizedToricVariety.from_cone(P2_CONE)
    pm = polytope_in_M(v)
    assert set(pm.vertices) == {(-1, -1), (-1, 2), (2, -1)}
    assert pm.is_lattice


def test_facet_data_matches_M_vertices():
    # each facet normal g of tau, read at e0-height 1, is a vertex of the
    # moment polytope
    v = PolarizedToricVariety.from_cone(P2_CONE)
    assert all(g[v.n] > 0 for g in v.tau.pointed_facets)
    us = {tuple(Fraction(x, g[v.n]) for x in g[:v.n])
          for g in v.tau.pointed_facets}
    assert us == {(-1, -1), (-1, 2), (2, -1)}


def test_fan_covers_p2_cones():
    v = PolarizedToricVariety.from_cone(P2_CONE)
    idx = {r: i for i, r in enumerate(v.fan.rays)}
    cones = {frozenset(c) for c in v.fan.maximal_cones}
    want = {
        frozenset({idx[(1, 0)], idx[(0, 1)]}),
        frozenset({idx[(1, 0)], idx[(-1, -1)]}),
        frozenset({idx[(0, 1)], idx[(-1, -1)]}),
    }
    assert cones == want


# ------------------------------------------------------------ classification


def test_weil_but_not_cartier():
    # divisor polytope has the fractional vertex (0, 1/2) yet the
    # divisor itself is integral: one cone with a height-2 facet normal
    tau = Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (-1, -2, 1)])
    v = PolarizedToricVariety.from_cone(tau)
    assert cox_comparison(v) == (1, 1, 1)
    assert classify_divisor(v) == DivisorClass.QCARTIER_Z_DIVISOR
    pm = polytope_in_M(v)
    assert set(pm.vertices) == {(0, 0), (1, 0), (0, Fraction(1, 2))}


def test_fractional_divisor():
    tau = Cone.from_generators(2, [(2, 1), (-1, 1)])
    v = PolarizedToricVariety.from_cone(tau)
    assert v.fan.rays == ((-1,), (1,))
    assert cox_comparison(v) == (1, 2)
    assert classify_divisor(v) == DivisorClass.QCARTIER_Q_DIVISOR
    pm = polytope_in_M(v)
    assert set(pm.vertices) == {(Fraction(-1, 2),), (1,)}


def test_divisor_class_ordering():
    assert DivisorClass.CARTIER > DivisorClass.QCARTIER_Z_DIVISOR
    assert DivisorClass.QCARTIER_Z_DIVISOR > DivisorClass.QCARTIER_Q_DIVISOR


# ------------------------------------------------------------ rejection


def test_from_cone_needs_interior_height_vector():
    with pytest.raises(OriginNotInteriorError):
        PolarizedToricVariety.from_cone(ca1_sigma())


NOT_INTERIOR = (OriginNotInteriorError, "OriginNotInterior: distinguished vector not interior")
NOT_STRONGLY_CONVEX = (ValueError, "cone is not strongly convex")


def _reaches(tau, defect):
    n = tau.rank - 1
    e0 = (0,) * n + (1,)
    parts = [xi[:n] for xi in tau.rays if any(xi[:n])]
    return {"facet not positive on e0": any(g[n] <= 0 for g in tau.pointed_facets),
            "ray +e0": e0 in tau.rays,
            "ray -e0": vneg(e0) in tau.rays,
            "two rays with one N-part": len(set(map(primitive, parts))) < len(parts),
            }[defect]


# Each cone has a defect that from_cone once refused on its own; the
# strong-convexity and interior checks decide each first, so the defect
# is refused with their messages
@pytest.mark.parametrize("gens, defect, refusal", [
    ([(1, 0, 0), (0, 1, 0), (-1, -1, -1)], "facet not positive on e0", NOT_INTERIOR),
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], "ray +e0", NOT_INTERIOR),
    ([(1, 0, 0), (0, 1, 0), (-1, -1, 1), (0, 0, -1)], "ray -e0", NOT_STRONGLY_CONVEX),
    ([(1, 0, 1), (1, 0, -1), (0, 1, 0)], "two rays with one N-part", NOT_INTERIOR),
    ([(1, 1), (1, -1)], "two rays with one N-part", NOT_INTERIOR),
])
def test_from_cone_defects_are_decided_by_interiority(gens, defect, refusal):
    tau = Cone.from_generators(len(gens[0]), gens)
    assert _reaches(tau, defect)
    with pytest.raises(refusal[0]) as err:
        PolarizedToricVariety.from_cone(tau)
    assert str(err.value) == refusal[1]


def test_fano_polytope_checks():
    check_fano_polytope(p2_polytope())
    with pytest.raises(OriginNotInteriorError):
        check_fano_polytope(convex_hull(2, [(1, 0), (0, 1), (1, 1)]))
    with pytest.raises(NonPrimitiveVertexError):
        check_fano_polytope(convex_hull(2, [(2, 0), (0, 2), (-2, -2)]))
    with pytest.raises(NonPrimitiveVertexError):
        check_fano_polytope(
            convex_hull(2, [(1, 0), (0, 1), (Fraction(-1, 2), -1)]))
    with pytest.raises(ValueError):
        check_fano_polytope(
            Polyhedron.from_points_and_rays(2, [(0, 0)], [(1, 0)]))


# ------------------------------------------------------------ enlargement


def test_projective_tilde_frozen_rays():
    pt = projective_tilde(p2_p114_family().induced_datum)
    assert set(pt.tilde.rays) == {(0, 1, 1, 0), (-1, -1, 1, -1),
                                  (0, 0, 0, 1), (2, 1, 0, 1)}
    assert set(pt.fan.rays) == {(0, 1, 0), (-1, -1, -1),
                                (0, 0, 1), (2, 1, 1)}
    assert sorted(pt.cox.weights()) == [1, 1, 1, 2]
    assert len(pt.trinomials) == 1 and len(pt.binomials) == 1
    assert pt.boundary is not None
    assert polytope_in_M(pt.variety).is_bounded
    assert polytope_in_M(pt.variety).affine_dimension() == 3


def test_projective_tilde_equations_specialize():
    pt = projective_tilde(p2_p114_family().induced_datum)
    tri = pt.trinomials[0]
    assert tri.substitute({"t1": 0}).terms == pt.binomials[0].terms


def test_projective_tilde_rejects_nonzero_height_component():
    d = p2_p114_family().induced_datum
    bad = build_datum(d.sigma, list(d.summands), (d.w[0], d.w[1], 1),
                      boundary=False)
    with pytest.raises(ValueError, match="zero e0-component"):
        projective_tilde(bad)


def test_projective_tilde_boundary_needs_integral_polarization():
    tau = Cone.from_generators(2, [(2, 1), (-1, 1)])
    q0 = convex_hull(2, [(-1, 1)])
    q1 = convex_hull(2, [(0, 0)])
    d = build_datum(tau, [q0, q1], (1, 0), boundary=True)
    with pytest.raises(ValueError, match="Q-divisor"):
        projective_tilde(d)
    plain = build_datum(tau, [q0, q1], (1, 0), boundary=False)
    pt = projective_tilde(plain)
    assert pt.boundary is None
    assert len(pt.trinomials) == 1


@pytest.mark.parametrize("e0_sign", [1, -1])
def test_projective_tilde_refuses_an_enlarged_cone_without_e0_inside(
        monkeypatch, e0_sign):
    # with condition (i) and e0 interior to sigma, (e0, 0) is interior to
    # the enlarged cone; a faulted enlargement that puts it on the boundary
    # (a ray of the orthant) or outside is refused by the second from_cone
    def faulty(d):
        t = build_tilde(d)
        rank = t.cone.rank
        units = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
        units[d.rank - 1] = vscale(e0_sign, units[d.rank - 1])
        return t._replace(cone=Cone.from_generators(rank, units))

    monkeypatch.setattr(projective, "build_tilde", faulty)
    with pytest.raises(OriginNotInteriorError):
        projective_tilde(p2_p114_family().induced_datum)
