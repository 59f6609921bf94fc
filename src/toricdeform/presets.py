"""Shipped worked examples with frozen expected values.

Each preset bundles the input data, the alias table that makes the
printed equations readable, and a verify function comparing the whole
pipeline against embedded golden values.  PRESETS is the one table from
preset names to stand-in payloads, alias tables and verify reports.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .cox import (
    AliasTable,
    binomials,
    boundary_monomial,
    pretty,
    trinomials,
)
from .datum import (
    DeformationDatum,
    build_datum,
    build_tilde,
    check_tilde_structure,
    validate_datum,
)
from .mutation import (
    induced_boundary_datum,
    mutate,
    mutation_family,
    specialize_fiber,
    validate_fano,
    validate_mutation_datum,
)
from .oracle import hilbert_basis
from .polyhedral import Cone, convex_hull
from .projective import PolarizedToricVariety


# ---------------------------------------------------------------------------
# cA1


def ca1_sigma() -> Cone:
    return Cone.from_generators(3, [(1, 1, 0), (-1, 1, 0), (0, 0, 1)])


def ca1_datum(p: int = 3) -> DeformationDatum:
    if p < 0:
        raise ValueError("exponent must be non-negative")
    q0 = convex_hull(3, [(Fraction(-1, 2), Fraction(1, 2), 0)])
    q1 = convex_hull(3, [(0, 0, 0), (1, 0, 0)])
    return build_datum(ca1_sigma(), [q0, q1], (0, -2, p), boundary=True)


def ca1_alias(rays) -> AliasTable:
    return AliasTable.from_pairs(
        [((0, 0, 0, 1), "x"), ((1, 0, 0, 1), "y"),
         ((0, 0, 1, 0), "z"), ((-1, 1, 0, -2), "u")], rays)


# ---------------------------------------------------------------------------
# toy plane


def toy_plane_datum() -> DeformationDatum:
    sigma = Cone.from_generators(2, [(1, 0), (0, 1)])
    q0 = convex_hull(2, [(0, 1)])
    q1 = convex_hull(2, [(0, 0)])
    return build_datum(sigma, [q0, q1], (0, -1), boundary=True)


# ---------------------------------------------------------------------------
# the mutation example


def p2_polytope():
    return convex_hull(2, [(1, 0), (0, 1), (-1, -1)])


def p2_p114_inputs():
    """Polytope, direction, factor of the quadratic mutation."""
    return p2_polytope(), (-1, 2), convex_hull(2, [(0, 0), (2, 1)])


def _p2_p114_mutation():
    p, w, f = p2_p114_inputs()
    fano = validate_fano(p)
    return fano, validate_mutation_datum(fano, w, f)


def p2_p114_family():
    return mutation_family(*_p2_p114_mutation())


def p2_p114_alias(rays) -> AliasTable:
    return AliasTable.from_pairs(
        [((0, 1, 0), "x"), ((-1, -1, -1), "y"),
         ((0, 0, 1), "z0"), ((2, 1, 1), "z1")], rays)


# ---------------------------------------------------------------------------
# hexagon


def hexagon_polygon():
    return convex_hull(
        2, [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)])


def hexagon_sigma() -> Cone:
    return Cone.from_generators(
        3, [v + (1,) for v in hexagon_polygon().lattice_vertices()])


def hexagon_data() -> tuple:
    """Two Minkowski decompositions of the hexagon at height one: three
    segments, or two opposite triangles."""
    sigma = hexagon_sigma()
    w = (0, 0, -1)
    a = build_datum(sigma, [
        convex_hull(3, [(0, 0, 1), (1, 0, 1)]),
        convex_hull(3, [(0, 0, 0), (0, 1, 0)]),
        convex_hull(3, [(0, 0, 0), (-1, -1, 0)]),
    ], w, boundary=True)
    b = build_datum(sigma, [
        convex_hull(3, [(0, 0, 1), (1, 1, 1), (0, 1, 1)]),
        convex_hull(3, [(0, 0, 0), (-1, -1, 0), (0, -1, 0)]),
    ], w, boundary=True)
    return a, b


# ---------------------------------------------------------------------------
# verification against the goldens


class Check(NamedTuple):
    name: str
    ok: bool
    got: str
    want: str

    def to_json(self) -> dict:
        return {"check": self.name, "ok": self.ok,
                "got": self.got, "want": self.want}


class VerifyReport(NamedTuple):
    example: str
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {"example": self.example, "ok": self.ok,
                "checks": [c.to_json() for c in self.checks]}

    def lines(self) -> list:
        out = []
        for c in self.checks:
            if c.ok:
                out.append("ok   %s: %s" % (c.name, c.got))
            else:
                out.append("FAIL %s: got %s, want %s"
                           % (c.name, c.got, c.want))
        out.append("%s: %s" % (self.example,
                               "PASS" if self.ok else "FAIL"))
        return out


def _eq(checks, name, got, want):
    checks.append(Check(name=name, ok=got == want,
                        got=_shown(got), want=_shown(want)))


def _shown(v) -> str:
    # a set prints its elements sorted: its iteration order is no part of
    # its value, and that of a constant set display can change when the
    # compiled module is marshalled to bytecode and read back
    if isinstance(v, (set, frozenset)):
        return "{%s}" % ", ".join(map(repr, sorted(v)))
    return str(v)


def verify_ca1(p: int = 3) -> VerifyReport:
    checks = []
    d = ca1_datum(p)
    _eq(checks, "datum valid", validate_datum(d).ok, True)
    t = build_tilde(d)
    _eq(checks, "ray count", len(t.rays), 4)
    _eq(checks, "rays", set(t.rays),
        {(-1, 1, 0, -2), (0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 1)})
    _eq(checks, "structure", check_tilde_structure(t).ok, True)
    alias = ca1_alias(t.rays)
    tri = trinomials(t)[0]
    # pretty drops a zero exponent and writes z^1 as z
    _eq(checks, "trinomial", pretty(tri, t.rays, alias),
        {0: "x*y - u^2 - t1", 1: "x*y - u^2 - t1*z"}.get(
            p, "x*y - u^2 - t1*z^%d" % p))
    ray_pos = {r: j for j, r in enumerate(t.rays)}

    def expvec(assign):
        out = [0] * 4
        for ray, e in assign.items():
            out[ray_pos[ray]] = e
        return tuple(out)

    _eq(checks, "term xy", tri.terms[0].exps,
        expvec({(0, 0, 0, 1): 1, (1, 0, 0, 1): 1}))
    _eq(checks, "term u^2", tri.terms[1].exps, expvec({(-1, 1, 0, -2): 2}))
    _eq(checks, "term z^p", tri.terms[2].exps, expvec({(0, 0, 1, 0): p}))
    mono = boundary_monomial(t)
    _eq(checks, "boundary monomial", pretty(mono, t.rays, alias), "z*u")
    hb = hilbert_basis(ca1_sigma().dual())
    _eq(checks, "hilbert basis", set(hb.generators),
        {(1, 1, 0), (-1, 1, 0), (0, 0, 1), (0, 1, 0)})
    return VerifyReport(example="cA1", checks=tuple(checks))


def verify_toy_plane() -> VerifyReport:
    checks = []
    d = toy_plane_datum()
    _eq(checks, "datum valid", validate_datum(d).ok, True)
    t = build_tilde(d)
    _eq(checks, "rays", set(t.rays), {(0, 0, 1), (0, 1, -1), (1, 0, 0)})
    _eq(checks, "structure", check_tilde_structure(t).ok, True)
    _eq(checks, "trinomial", pretty(trinomials(t)[0], t.rays), "x0 - x1 - t1")
    _eq(checks, "binomial", pretty(binomials(t)[0], t.rays), "x0 - x1")
    _eq(checks, "boundary monomial",
        pretty(boundary_monomial(t), t.rays), "x1*x2")
    return VerifyReport(example="toy-plane", checks=tuple(checks))


def verify_p2_p114() -> VerifyReport:
    checks = []
    p, w, f = p2_p114_inputs()
    fano = validate_fano(p)
    d = validate_mutation_datum(fano, w, f)
    mut = mutate(fano, d)
    _eq(checks, "mutated polytope", set(mut.vertices()),
        {(-1, -1), (0, 1), (4, 3)})
    fam = mutation_family(fano, d)
    _eq(checks, "family rays", set(fam.fan.rays),
        {(0, 1, 0), (-1, -1, -1), (0, 0, 1), (2, 1, 1)})
    wt = fam.weights()
    _eq(checks, "weights", tuple(sorted(wt)), (1, 1, 1, 2))
    _eq(checks, "weight of y", wt[fam.fan.rays.index((-1, -1, -1))], 2)
    alias = p2_p114_alias(fam.fan.rays)
    _eq(checks, "trinomial", pretty(fam.trinomial, fam.fan.rays, alias),
        "a*x^2 + b*y + c*z0*z1")
    _eq(checks, "monomial", pretty(fam.monomial, fam.fan.rays, alias), "x*y")
    _eq(checks, "induced cone rays", set(fam.induced.tilde.rays),
        {(0, 1, 1, 0), (-1, -1, 1, -1), (0, 0, 0, 1), (2, 1, 0, 1)})
    fib0 = specialize_fiber(fam, (0, 1, -1))
    _eq(checks, "fiber [0:1:-1]", fib0.matched, True)
    fib1 = specialize_fiber(fam, (1, 0, -1))
    _eq(checks, "fiber [1:0:-1]", fib1.matched, True)
    inv = validate_mutation_datum(mut, tuple(-x for x in w), f)
    _eq(checks, "inverse mutation", mutate(mut, inv).polytope == p, True)
    return VerifyReport(example="p2-p114", checks=tuple(checks))


def verify_hexagon() -> VerifyReport:
    checks = []
    a, b = hexagon_data()
    _eq(checks, "decomposition A valid", validate_datum(a).ok, True)
    _eq(checks, "decomposition B valid", validate_datum(b).ok, True)
    _eq(checks, "same total polytope", a.q == b.q, True)
    _eq(checks, "total is the hexagon at height one",
        set(a.q.lattice_vertices()),
        set(v + (1,) for v in hexagon_polygon().lattice_vertices()))
    ta, tb = build_tilde(a), build_tilde(b)
    _eq(checks, "structure A", check_tilde_structure(ta).ok, True)
    _eq(checks, "structure B", check_tilde_structure(tb).ok, True)
    tris_a = {pretty(f, ta.rays) for f in trinomials(ta)}
    tris_b = {pretty(f, tb.rays) for f in trinomials(tb)}
    _eq(checks, "trinomial counts", (len(tris_a), len(tris_b)), (2, 1))
    _eq(checks, "distinct trinomial sets", tris_a != tris_b, True)
    return VerifyReport(example="hexagon", checks=tuple(checks))


# ---------------------------------------------------------------------------
# the preset table


# kind -> name -> (builder of the stand-in payload, called with the cA1
# exponent p; shipped alias table or None).  The payload kinds are what the
# workbench's readers return; an "example" builds its verification report.
PRESETS = {
    "datum": {
        "cA1": (ca1_datum, ca1_alias),
        "toy-plane": (lambda p: toy_plane_datum(), None),
        "hexagon-a": (lambda p: hexagon_data()[0], None),
        "hexagon-b": (lambda p: hexagon_data()[1], None),
        # the p2-p114 alias names the family fan, not this enlarged cone
        "p2-p114": (lambda p: induced_boundary_datum(*_p2_p114_mutation()), None),
    },
    "cone": {"cA1": (lambda p: ca1_sigma().dual(), None)},
    "polarize": {
        "p2-p114": (lambda p: partial(PolarizedToricVariety.from_fano_polytope,
                                      p2_polytope()), None),
    },
    "mutation": {"p2-p114": (lambda p: p2_p114_inputs(), p2_p114_alias)},
    "example": {
        "cA1": (verify_ca1, None),
        "p2-p114": (lambda p: verify_p2_p114(), None),
        "hexagon": (lambda p: verify_hexagon(), None),
        "toy-plane": (lambda p: verify_toy_plane(), None),
    },
}

PRESET_NAMES = tuple(PRESETS["example"])


def preset(kind: str, name: str, p: int = 3):
    """(payload, shipped alias table or None) of a preset name, or None if
    the kind has no preset of that name."""
    entry = PRESETS[kind].get(name)
    return None if entry is None else (entry[0](p), entry[1])
