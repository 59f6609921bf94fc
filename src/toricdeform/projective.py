"""Polarized projective toric pairs via cones over polytopes.

The ambient lattice is N0 = N + Z e0 with e0 the LAST coordinate.  A
polarized pair is a strongly convex full-dimensional cone tau in N0 with
e0 in its strict interior; each ray xi of tau is b*rho - a*e0 with rho a
primitive vector of N and the support function value on rho equal to
a/b.  Slicing the dual cone at e0-height 1 recovers the moment polytope.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .cox import (
    CoxSystem,
    PairingData,
    binomials,
    boundary_monomial,
    cox_system,
    trinomials,
)
from .datum import DeformationDatum, TildeData, _fmt_point, build_tilde, require_valid
from .lattice import as_fraction, content, dot, is_integral, primitive
from .polyhedral import Cone, Fan, Polyhedron


class OriginNotInteriorError(ValueError):
    def __init__(self, detail=""):
        msg = "OriginNotInterior"
        if detail:
            msg += ": " + detail
        super().__init__(msg)


class NonPrimitiveVertexError(ValueError):
    def __init__(self, vertex):
        self.vertex = tuple(vertex)
        shown = self.vertex if is_integral(self.vertex) else _fmt_point(self.vertex)
        super().__init__("NonPrimitiveVertex: %s" % (shown,))


class DivisorClass(enum.IntEnum):
    """Ordered so that stronger conditions compare larger."""

    QCARTIER_Q_DIVISOR = 0
    QCARTIER_Z_DIVISOR = 1
    CARTIER = 2

    def __str__(self):
        return {
            DivisorClass.CARTIER: "Cartier",
            DivisorClass.QCARTIER_Z_DIVISOR: "QCartierZDivisor",
            DivisorClass.QCARTIER_Q_DIVISOR: "QCartierQDivisor",
        }[self]


class RayData(NamedTuple):
    xi: tuple  # primitive generator of the tau-ray
    rho: tuple  # primitive N-part
    b: int  # positive: xi = b*rho - a*e0
    a: int

    @property
    def phi(self) -> Fraction:
        return Fraction(self.a, self.b)


class PolarizedToricVariety(NamedTuple):
    n: int
    tau: Cone
    fan: Fan
    ray_data: tuple  # aligned with fan.rays

    @property
    def phi_values(self) -> tuple:
        return tuple(rd.phi for rd in self.ray_data)

    @classmethod
    def from_cone(cls, tau: Cone) -> "PolarizedToricVariety":
        """The pair of tau.  With e0 interior, every facet normal is
        positive on e0, no ray is +e0 (on the boundary) or -e0 (a line),
        and no two rays share an N-part rho: tau meets span(rho, e0) in a
        cone with e0 inside, extreme in tau on one ray on the rho side."""
        n = tau.rank - 1
        if n < 1:
            raise ValueError("ambient rank must be at least 2")
        if not tau.is_strongly_convex():
            raise ValueError("cone is not strongly convex")
        if tau.dimension() != tau.rank:
            raise ValueError("cone is not full-dimensional")
        e0 = (0,) * n + (1,)
        if not tau.interior_contains(e0):
            raise OriginNotInteriorError("distinguished vector not interior")
        aligned = tuple(sorted((RayData(xi=xi, rho=primitive(xi[:n]), b=content(xi[:n]), a=-xi[n])
                                for xi in tau.rays), key=lambda rd: rd.rho))
        rays = tuple(rd.rho for rd in aligned)
        cones = set()
        for g in tau.pointed_facets:
            tight = tuple(sorted(
                i for i, rd in enumerate(aligned) if dot(g, rd.xi) == 0))
            cones.add(tight)
        fan = Fan(rank=n, rays=rays, maximal_cones=tuple(sorted(cones)))
        return cls(n=n, tau=tau, fan=fan, ray_data=aligned)

    @classmethod
    def from_fano_polytope(cls, p: Polyhedron) -> "PolarizedToricVariety":
        check_fano_polytope(p)
        v = cls.from_cone(p.cone)
        expected = tuple(sorted(vv + (1,) for vv in p.lattice_vertices()))
        if v.tau.rays != expected:
            raise AssertionError("cone over the polytope lost a vertex ray")
        return v

    @classmethod
    def from_support_function(cls, fan: Fan,
                              phi: Sequence) -> "PolarizedToricVariety":
        """Build from per-ray rational values; verifies strict convexity
        by re-deriving the fan from the resulting cone."""
        if len(phi) != len(fan.rays):
            raise ValueError("need one value per fan ray")
        gens = [tuple(val.denominator * x for x in rho) + (-val.numerator,)
                for rho, val in zip(fan.rays, map(as_fraction, phi))]
        tau = Cone.from_generators(fan.rank + 1, gens)
        v = cls.from_cone(tau)
        if v.fan.rays != tuple(sorted(fan.rays)) or set(
                v.fan.maximal_cones) != _reindexed_cones(fan):
            raise ValueError("support function is not strictly convex "
                             "on the given fan")
        return v


def _reindexed_cones(fan: Fan) -> set:
    order = tuple(sorted(fan.rays))
    lookup = {r: i for i, r in enumerate(order)}
    return {
        tuple(sorted(lookup[fan.rays[i]] for i in cone))
        for cone in fan.maximal_cones
    }


def check_fano_polytope(p: Polyhedron) -> Polyhedron:
    """Bounded, full-dimensional, lattice, 0 strictly interior, all
    vertices primitive."""
    if p.is_empty or not p.is_bounded:
        raise ValueError("polytope must be bounded and nonempty")
    if p.affine_dimension() != p.rank:
        raise OriginNotInteriorError("polytope is not full-dimensional")
    if not p.is_lattice:
        raise NonPrimitiveVertexError(
            next(v for v in p.vertices if not is_integral(v)))
    for _, c in p.inequalities:
        if c <= 0:
            raise OriginNotInteriorError("0 lies on or outside a facet")
    for v in p.lattice_vertices():
        if content(v) != 1:
            raise NonPrimitiveVertexError(v)
    return p


def polytope_in_M(v: PolarizedToricVariety) -> Polyhedron:
    """Slice of the dual cone at e0-height one.  With e0 interior to tau,
    every ray of the dual cone lies above height 0, so the dual cone is the
    cone over the slice and no hull runs."""
    return Polyhedron(v.tau.dual())


def classify_divisor(v: PolarizedToricVariety) -> DivisorClass:
    if all(g[v.n] == 1 for g in v.tau.pointed_facets):
        return DivisorClass.CARTIER
    if all(rd.b == 1 for rd in v.ray_data):
        return DivisorClass.QCARTIER_Z_DIVISOR
    return DivisorClass.QCARTIER_Q_DIVISOR


def cox_comparison(v: PolarizedToricVariety) -> tuple:
    """Exponents of the comparison map x_rho -> x_xi^b, per fan ray."""
    return tuple(rd.b for rd in v.ray_data)


# ---------------------------------------------------------------------------
# Projective deformation


class ProjectiveTilde(NamedTuple):
    variety: PolarizedToricVariety  # the enlarged polarized pair
    tilde: TildeData  # affine layer data in rank n+1+k
    pairings: PairingData  # over the fan rays of the enlarged pair
    cox: CoxSystem
    binomials: tuple
    trinomials: tuple
    boundary: Optional[object]

    @property
    def fan(self) -> Fan:
        return self.variety.fan


def projective_tilde(d: DeformationDatum) -> ProjectiveTilde:
    """Polarize by the datum's cone, run the enlargement inside N0 + Z^k
    and re-polarize with e0 last.

    The datum's cone must hold e0 in its interior and its functional must
    kill e0; the boundary monomial is only emitted when the polarization
    is at least an integral divisor.
    """
    v = PolarizedToricVariety.from_cone(d.sigma)
    n = v.n
    if d.w[n] != 0:
        raise ValueError("functional must have zero e0-component")
    require_valid(d)
    t = build_tilde(d)
    k = d.k
    e0_tilde = (0,) * n + (1,) + (0,) * k
    if not t.cone.interior_contains(e0_tilde):
        raise OriginNotInteriorError("enlarged cone lost interiority")
    perm = list(range(n)) + list(range(n + 1, n + 1 + k)) + [n]
    vt = PolarizedToricVariety.from_cone(t.cone.permuted(perm))
    w_cox = tuple(t.w_tilde[:n]) + tuple(t.w_tilde[n + 1:])
    pd = PairingData(n=n, k=k,
                     rays=tuple(vt.fan.rays), w_tilde=w_cox)
    sys = cox_system(pd.rays, n + k)
    bs = binomials(pd)
    ts = trinomials(pd)
    mono = None
    if d.boundary:
        if classify_divisor(v) < DivisorClass.QCARTIER_Z_DIVISOR:
            raise ValueError(
                "boundary requested on a polarization that is only a "
                "Q-divisor")
        mono = boundary_monomial(pd)
    return ProjectiveTilde(variety=vt, tilde=t, pairings=pd, cox=sys,
                           binomials=bs, trinomials=ts, boundary=mono)
