"""Mutations of Fano polytopes and the induced one-parameter pencil.

A mutation datum on a Fano polytope P is a primitive direction w plus a
lattice polytope F orthogonal to w.  Every vertex v of P at a negative
height h must be covered: v = g + (-h)f for a vertex f of F and a
lattice point g with g + (-h)F inside P.  The mutation is the hull of
those g and of the vertices u + <w, u>f of P above level zero shifted
along F; it does not depend on which admissible factors are chosen
(Akhtar-Coates-Galkin-Kasprzyk, SIGMA 8 (2012) 094), so the vertices of
P and F are all it reads.  The pencil glues the original and mutated
polytopes into one polytope Q~ one dimension up; its normal fan, the fan
of the induced polarized pair, carries a trinomial a,b,c family whose
distinguished fibers recover both toric pairs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .cox import (
    CoxPolynomial,
    CoxSystem,
    Term,
    disjoint_support_regular_sequence,
    is_homogeneous,
    monomial,
)
from .datum import DeformationDatum, build_datum
from .lattice import (
    as_fraction, as_int_vector, dot, primitive, vadd, vneg, vscale, vsub)
from .polyhedral import Cone, Fan, Polyhedron, convex_hull
from .projective import (
    ProjectiveTilde, check_fano_polytope, polytope_in_M, projective_tilde)


class MutationDatumError(ValueError):
    def __init__(self, height, detail):
        self.height = height
        super().__init__("NoFactorAtHeight %d: %s" % (height, detail))


class MutationFamilyError(ValueError):
    pass


class OutsideVError(ValueError):
    def __init__(self, point):
        self.point = point
        super().__init__(
            "OutsideV: parameter point [%s] is deleted from the base"
            % ":".join(str(x) for x in point))


class FanoPolytope(NamedTuple):
    polytope: Polyhedron

    @property
    def n(self) -> int:
        return self.polytope.rank

    def vertices(self) -> tuple:
        return self.polytope.lattice_vertices()


def validate_fano(p: Polyhedron) -> FanoPolytope:
    check_fano_polytope(p)
    return FanoPolytope(polytope=p)


class WitnessLayer(NamedTuple):
    """The factor G_h at a negative height h that holds a vertex of P:
    the hull of the lattice points g covering a vertex v = g + (-h)f of P
    at h, with g + (-h)F inside P."""

    height: int
    factor_part: Polyhedron  # G_h


class MutationDatum(NamedTuple):
    w: tuple
    factor: Polyhedron
    witnesses: tuple  # WitnessLayer per negative vertex height, increasing
    hmin: int


def validate_mutation_datum(fano: FanoPolytope, w: Sequence[int],
                            factor: Polyhedron) -> MutationDatum:
    """Cover every vertex of P at a negative height, or fail naming the
    height.

    A vertex v at height h is covered iff some vertex f of F gives
    g = v - (-h)f with g + (-h)f' in P for every vertex f' of F; then
    g + (-h)F lies in the slice of P at h, by convexity.  G_h is the hull
    of the covering g, so v is a vertex of G_h + (-h)F inside P.  Heights
    that hold no vertex of P get no layer: an empty factor is admissible
    there, and the mutation does not depend on the choice.
    """
    n = fano.n
    if len(w) != n:
        raise ValueError("w has length %d, expected %d" % (len(w), n))
    w = as_int_vector(w)
    if not any(w):
        raise ValueError("direction must be nonzero")
    if primitive(w) != w:
        raise ValueError("direction %s is not primitive" % (w,))
    if factor.rank != n or factor.is_empty:
        raise ValueError("factor must be a nonempty polytope of full rank")
    if not factor.is_bounded or not factor.is_lattice:
        raise ValueError("factor must be a bounded lattice polytope")
    for v in factor.lattice_vertices():
        if dot(w, v) != 0:
            raise ValueError(
                "factor vertex %s does not pair to zero with the direction"
                % (v,))

    by_height = {}
    for v in fano.vertices():
        by_height.setdefault(dot(w, v), []).append(v)
    fverts = factor.lattice_vertices()
    layers = []
    for h in sorted(x for x in by_height if x < 0):
        shifts = [vscale(-h, f) for f in fverts]
        cover = []
        for v in by_height[h]:
            found = [g for g in (vsub(v, t) for t in shifts)
                     if all(fano.polytope.contains(vadd(g, s))
                            for s in shifts)]
            if not found:
                raise MutationDatumError(h, "uncovered vertex %s" % (v,))
            cover += found
        layers.append(WitnessLayer(h, convex_hull(n, cover)))
    return MutationDatum(w=w, factor=factor, witnesses=tuple(layers),
                         hmin=min(by_height))


def mutate(fano: FanoPolytope, d: MutationDatum) -> FanoPolytope:
    """Hull of the factors G_h and of u + <w, u>f for the vertices u of P
    at heights >= 0 and f of F; the result must again be Fano.

    No hull of P above level zero is needed: the point at height zero of
    an edge a -> b with h_a < 0 < h_b, a = g_a + (-h_a)f, is
    lam*g_a + (1 - lam)(b + h_b f) with lam = h_b / (h_b - h_a).
    """
    fverts = d.factor.lattice_vertices()
    pts = [g for layer in d.witnesses
           for g in layer.factor_part.lattice_vertices()]
    for u in fano.vertices():
        h = dot(d.w, u)
        if h >= 0:
            pts += [vadd(u, vscale(h, f)) for f in fverts]
    return validate_fano(convex_hull(fano.n, pts))


class MutationFamily(NamedTuple):
    fano: FanoPolytope
    datum: MutationDatum
    mutated: FanoPolytope
    q_tilde: Polyhedron
    fan: Fan
    cox: CoxSystem
    trinomial: CoxPolynomial
    monomial: CoxPolynomial
    induced: ProjectiveTilde
    induced_datum: DeformationDatum

    def weights(self) -> tuple:
        return self.cox.weights()


def induced_boundary_datum(fano: FanoPolytope,
                           d: MutationDatum) -> DeformationDatum:
    """Lift the witness factors to height one and package them as a
    two-summand boundary datum over the cone of the polytope."""
    n = fano.n
    # the lift of a vertex v of G_h is (v, 1) / -h, with the row (v, 1, -h)
    rows = [v + (1, -layer.height) for layer in d.witnesses
            for v in layer.factor_part.lattice_vertices()]
    if not rows:
        raise MutationFamilyError("no negative-height factors to lift")
    g = Polyhedron(Cone.from_generators(n + 2, rows))
    # F^ = F x {0}: its cone is F's with a zero inserted before the height
    f_hat = Polyhedron(d.factor.cone.with_zero_at(n))
    w_bar = tuple(d.w) + (0,)
    return build_datum(fano.polytope.cone, [g, f_hat], w_bar, boundary=True)


def mutation_family(fano: FanoPolytope, d: MutationDatum) -> MutationFamily:
    """Glue P and its mutation into Q~; read the a,b,c pencil off its fan.

    Q~ is the induced pair's moment polytope.  That pair's cone has the
    rays (r, 1) for the predicted r above and below w = 0 and (r, 0) for
    those on F, so the one ray check makes the predicted rows Q~'s facets.
    The homogeneity and ``_cross_check_equations`` checks stay independent.
    The disjoint-support check cannot fire here (the a, b and c terms sit
    on rays whose last coordinate is 0, negative and 1); it is kept as the
    paper's regularity criterion.
    """
    mutated = mutate(fano, d)
    # the lifted normals: (v, 0) above w = 0, (v, <w, v>) below, (f, 1)
    up = [v + (0,) for v in fano.vertices() if dot(d.w, v) >= 0]
    down = [v + (dot(d.w, v),) for v in mutated.vertices() if dot(d.w, v) < 0]
    top = [f + (1,) for f in d.factor.lattice_vertices()]
    predicted = tuple(sorted(set(up + down + top)))

    datum = induced_boundary_datum(fano, d)
    induced = projective_tilde(datum)
    fan = induced.fan
    if fan.rays != predicted:
        raise MutationFamilyError(
            "normal fan rays %s differ from the predicted list %s"
            % (fan.rays, predicted))

    index = {r: j for j, r in enumerate(predicted)}
    m = len(predicted)

    def exps(assign) -> tuple:
        out = [0] * m
        for ray, e in assign:
            out[index[ray]] = e
        return tuple(out)

    a_term = Term(Fraction(1), "a", exps((r, dot(d.w, r[:-1])) for r in up))
    b_term = Term(Fraction(1), "b", exps((r, -r[-1]) for r in down))
    c_term = Term(Fraction(1), "c", exps((r, 1) for r in top))
    trinomial = CoxPolynomial(terms=(a_term, b_term, c_term))
    mono = monomial(exps((r, 1) for r in up + down))

    if not disjoint_support_regular_sequence([trinomial], mono):
        raise MutationFamilyError("trinomial and monomial share a variable "
                                  "in every term")
    if not is_homogeneous(induced.cox, trinomial)[0]:
        raise MutationFamilyError("trinomial is not grading-homogeneous")
    _cross_check_equations(induced, trinomial, mono)

    return MutationFamily(fano=fano, datum=d, mutated=mutated,
                          q_tilde=polytope_in_M(induced.variety), fan=fan,
                          cox=induced.cox, trinomial=trinomial,
                          monomial=mono, induced=induced, induced_datum=datum)


def _cross_check_equations(induced: ProjectiveTilde,
                           trinomial: CoxPolynomial,
                           mono: CoxPolynomial) -> None:
    """The pencil trinomial must be the induced trinomial under the
    parameter dictionary a = -t1, b = -1, c = +1, exponent for exponent;
    likewise the monomials must agree."""
    tri = induced.trinomials[0]
    y_term, z_term, t_term = tri.terms
    a_term, b_term, c_term = trinomial.terms
    if y_term.exps != c_term.exps or z_term.exps != b_term.exps \
            or t_term.exps != a_term.exps:
        raise MutationFamilyError(
            "pencil equations disagree with the induced construction")
    if induced.boundary is None \
            or induced.boundary.terms[0].exps != mono.terms[0].exps:
        raise MutationFamilyError(
            "pencil monomial disagrees with the induced boundary monomial")


# ---------------------------------------------------------------------------
# Fibers


class FiberReport(NamedTuple):
    point: tuple
    polynomial: CoxPolynomial
    monomial: CoxPolynomial
    kind: str  # "original", "mutated", or "generic"
    matched: Optional[bool]
    detail: str

    def to_json(self) -> dict:
        return {"point": [str(x) for x in self.point],
                "polynomial": self.polynomial.to_json(),
                "monomial": self.monomial.to_json(),
                "kind": self.kind,
                "matched": self.matched,
                "detail": self.detail}


def normalize_parameter_point(point) -> tuple:
    """The primitive integer triple on the ray of [a:b:c], first nonzero
    entry positive.  Entries are ints, Fractions or "p/q" strings; floats
    raise TypeError."""
    vals = [Fraction(x) if isinstance(x, str) else as_fraction(x) for x in point]
    if len(vals) != 3 or all(x == 0 for x in vals):
        raise ValueError("need a homogeneous triple, not all zero")
    ints = primitive(vals)
    return vneg(ints) if next(x for x in ints if x) < 0 else ints


def specialize_fiber(fam: MutationFamily, point) -> FiberReport:
    """Substitute [a:b:c]; the two distinguished points are compared
    against the binomials of the corresponding toric pairs."""
    norm = normalize_parameter_point(point)
    if norm in ((1, 0, 0), (0, 1, 0)):
        raise OutsideVError(norm)
    a, b, c = norm
    poly = fam.trinomial.substitute({"a": a, "b": b, "c": c})
    if norm == (0, 1, -1):
        target = fam.induced.binomials[0]
        matched = poly.proportional(target)
        return FiberReport(point=norm, polynomial=poly, monomial=fam.monomial,
                           kind="original", matched=matched,
                           detail="compared against the binomial of the "
                                  "height-one construction")
    if norm == (1, 0, -1):
        matched, detail = _compare_with_inverse(fam, poly)
        return FiberReport(point=norm, polynomial=poly, monomial=fam.monomial,
                           kind="mutated", matched=matched, detail=detail)
    return FiberReport(point=norm, polynomial=poly, monomial=fam.monomial,
                       kind="generic", matched=None,
                       detail="fiber of the pencil at a generic point")


def _compare_with_inverse(fam: MutationFamily, poly: CoxPolynomial):
    """Transport along (nu, m) -> (nu, m - <w, nu>) into the family of the
    inverse mutation and compare with its induced binomial."""
    n = fam.fano.n
    w = fam.datum.w
    inv_datum = validate_mutation_datum(
        fam.mutated, tuple(-x for x in w), fam.datum.factor)
    inv_fam = mutation_family(fam.mutated, inv_datum)
    if inv_fam.mutated.polytope != fam.fano.polytope:
        return False, "inverse mutation failed to recover the polytope"
    mapped = {}
    for j, ray in enumerate(fam.fan.rays):
        img = ray[:n] + (ray[n] - dot(w, ray[:n]),)
        mapped[j] = img
    index = {r: j for j, r in enumerate(inv_fam.fan.rays)}
    terms = []
    for t in poly.terms:
        out = [0] * len(inv_fam.fan.rays)
        for j, e in enumerate(t.exps):
            if not e:
                continue
            img = mapped[j]
            if img not in index:
                return False, ("support ray %s has no image in the inverse "
                               "family" % (img,))
            out[index[img]] = e
        terms.append(Term(t.coeff, t.param, tuple(out)))
    transported = CoxPolynomial(terms=tuple(terms))
    target = inv_fam.induced.binomials[0]
    return transported.proportional(target), (
        "transported into the inverse family and compared against its "
        "height-one binomial")
