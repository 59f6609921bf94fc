"""Top-level acceptance gate: eight criteria, one verdict line each.

Every test prints "[ACCEPTANCE] criterion N (...): PASS|FAIL" so the
suite output doubles as a release checklist.  Criteria collect failures
into a list instead of asserting midway, so the verdict line always
appears.
"""

import time
from fractions import Fraction
from itertools import product

from toricdeform.cox import (
    boundary_monomial,
    disjoint_support_regular_sequence,
    fischer_shapiro_check,
    pretty,
    trinomials,
)
from toricdeform.datum import (
    build_tilde,
    check_tilde_structure,
    floor_min_identity,
    validate_datum,
)
from toricdeform.mutation import (
    WitnessLayer,
    mutate,
    mutation_family,
    specialize_fiber,
    validate_fano,
    validate_mutation_datum,
)
from toricdeform.oracle import (
    boundary_equality_check,
    degree_zero_equality_check,
    hilbert_basis,
)
from toricdeform.polyhedral import (
    convex_hull,
    lattice_points,
    minkowski_sum,
)
from toricdeform.presets import (
    ca1_alias,
    ca1_datum,
    ca1_sigma,
    p2_p114_alias,
    p2_p114_family,
    toy_plane_datum,
)

import corpus
import oracles


def _verdict(num, label, bad):
    status = "PASS" if not bad else "FAIL"
    print("\n[ACCEPTANCE] criterion %d (%s): %s" % (num, label, status))
    assert not bad, "; ".join(str(b) for b in bad[:5])


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


# the shared randomized corpus: n <= 3, k <= 2, all coordinates <= 5
_CORPUS = None


def _acceptance_corpus():
    global _CORPUS
    if _CORPUS is not None:
        return _CORPUS

    def small(d, cap=5):
        pts = [v for s in d.summands for v in s.vertices]
        pts += list(d.q.vertices)
        pts += list(d.sigma.rays)
        pts.append(d.w)
        return all(abs(Fraction(x)) <= cap for v in pts for x in v)

    _CORPUS = [d for d in corpus.random_valid_data(777, 200)
               if len(d.summands) - 1 <= 2 and small(d)]
    return _CORPUS


def test_criterion_1_affine_end_to_end():
    bad = []
    t0 = time.perf_counter()
    try:
        d = ca1_datum(3)
        if not validate_datum(d).ok:
            bad.append("datum invalid")
        t = build_tilde(d)
        if len(t.rays) != 4:
            bad.append("expected 4 rays, got %d" % len(t.rays))
        det = oracles._int_det([list(r) for r in t.rays])
        if abs(det) != 1:
            bad.append("ray determinant %s" % det)

        tris = trinomials(t)
        if len(tris) != 1:
            bad.append("expected one trinomial")
        tri = tris[0]
        u_ray, z_ray = (-1, 1, 0, -2), (0, 0, 1, 0)
        xy = {r: (1 if r[3] > 0 else 0) for r in t.rays}
        uu = {r: (2 if r == u_ray else 0) for r in t.rays}
        zp = {r: (3 if r == z_ray else 0) for r in t.rays}
        got = [dict(zip(t.rays, term.exps)) for term in tri.terms]
        if got != [xy, uu, zp]:
            bad.append("trinomial exponents %s" % got)
        coeffs = [(term.coeff, term.param) for term in tri.terms]
        if coeffs != [(1, None), (-1, None), (-1, "t1")]:
            bad.append("trinomial coefficients %s" % coeffs)

        mono = boundary_monomial(t)
        zu = {r: (1 if r in (u_ray, z_ray) else 0) for r in t.rays}
        if dict(zip(t.rays, mono.terms[0].exps)) != zu:
            bad.append("boundary exponents")

        alias = ca1_alias(t.rays)
        if pretty(tri, t.rays, alias) != "x*y - u^2 - t1*z^3":
            bad.append("trinomial string %r" % pretty(tri, t.rays, alias))
        if pretty(mono, t.rays, alias) != "z*u":
            bad.append("monomial string %r" % pretty(mono, t.rays, alias))
    except Exception as e:
        bad.append("crashed: %r" % e)
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        bad.append("took %.2fs" % elapsed)
    _verdict(1, "cA1 smoothing end-to-end", bad)


def test_criterion_2_mutation_end_to_end():
    bad = []
    t0 = time.perf_counter()
    try:
        fano = validate_fano(convex_hull(2, [(1, 0), (0, 1), (-1, -1)]))
        d = validate_mutation_datum(fano, (-1, 2),
                                    convex_hull(2, [(0, 0), (2, 1)]))
        mut = mutate(fano, d)
        if set(mut.vertices()) != {(-1, -1), (0, 1), (4, 3)}:
            bad.append("mutant vertices %s" % sorted(mut.vertices()))

        fam = mutation_family(fano, d)
        want_rays = {(0, 1, 0), (-1, -1, -1), (0, 0, 1), (2, 1, 1)}
        if set(fam.fan.rays) != want_rays:
            bad.append("family rays %s" % sorted(fam.fan.rays))
        weights = dict(zip(fam.fan.rays, fam.weights()))
        if sorted(weights.values()) != [1, 1, 1, 2]:
            bad.append("weights %s" % weights)
        if weights.get((-1, -1, -1)) != 2:
            bad.append("weight 2 sits on %s" % weights)

        alias = p2_p114_alias(fam.fan.rays)
        tri = pretty(fam.trinomial, fam.fan.rays, alias)
        if tri != "a*x^2 + b*y + c*z0*z1":
            bad.append("trinomial %r" % tri)
        if pretty(fam.monomial, fam.fan.rays, alias) != "x*y":
            bad.append("monomial mismatch")

        rep = specialize_fiber(fam, (0, 1, -1))
        if rep.matched is not True:
            bad.append("fiber at [0:1:-1] not matched")
        if not rep.polynomial.proportional(fam.induced.binomials[0]):
            bad.append("fiber differs from the induced binomial")
    except Exception as e:
        bad.append("crashed: %r" % e)
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        bad.append("took %.2fs" % elapsed)
    _verdict(2, "polygon mutation end-to-end", bad)


def test_criterion_3_structure_suite():
    bad = []
    try:
        data = _acceptance_corpus()
        if len(data) < 50:
            bad.append("only %d corpus data" % len(data))
        for i, d in enumerate(data):
            if not validate_datum(d).ok:
                bad.append("datum %d invalid" % i)
                continue
            t = build_tilde(d)
            struct = check_tilde_structure(t)
            if not struct.ok:
                bad.append("datum %d: %s" % (i, struct.detail))
            if not fischer_shapiro_check(t):
                bad.append("datum %d fails the column criterion" % i)
    except Exception as e:
        bad.append("crashed: %r" % e)
    _verdict(3, "tilde structure on random corpus", bad)


def test_criterion_4_floor_min_identity():
    bad = []
    checked = 0
    try:
        for i, d in enumerate(_acceptance_corpus()):
            n = d.sigma.rank
            for u in product(range(-5, 6), repeat=n):
                if any(_dot(u, ray) < 0 for ray in d.sigma.rays):
                    continue
                checked += 1
                if not floor_min_identity(d, u):
                    bad.append("datum %d at u=%s" % (i, u))
        if checked < 1000:
            bad.append("only %d dual points checked" % checked)
    except Exception as e:
        bad.append("crashed: %r" % e)
    _verdict(4, "floor-min identity on random corpus", bad)


def test_criterion_5_oracle_suite():
    bad = []
    t0 = time.perf_counter()
    try:
        jobs = [("cA1 p=%d" % p, build_tilde(ca1_datum(p)), 8)
                for p in (1, 2, 3)]
        jobs.append(("toy plane", build_tilde(toy_plane_datum()), 6))
        jobs.append(("induced", p2_p114_family().induced.tilde, 8))
        for name, t, bound in jobs:
            r0 = degree_zero_equality_check(t, bound=bound)
            rb = boundary_equality_check(t, bound=bound)
            if not r0.ok:
                bad.append("%s: %d degree-zero failures"
                           % (name, len(r0.failures)))
            if not rb.ok:
                bad.append("%s: %d boundary failures"
                           % (name, len(rb.failures)))
            if r0.checked < 200:
                bad.append("%s: only %d pairs" % (name, r0.checked))
    except Exception as e:
        bad.append("crashed: %r" % e)
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        bad.append("took %.2fs" % elapsed)
    _verdict(5, "bounded ideal-equality oracles", bad)


def test_criterion_6_convexity_properties():
    bad = []
    try:
        r = corpus.rng(640)
        for i in range(1000):
            rank = 2 if i % 3 else 3
            c = corpus.random_pointed_cone(r, rank)
            if c.dual().dual() != c:
                bad.append("dual-dual case %d" % i)

        r = corpus.rng(641)
        for i in range(1000):
            rank = 2 if i % 3 else 3
            p = corpus.random_polytope(r, rank)
            if convex_hull(rank, p.vertices) != p:
                bad.append("hull idempotence case %d" % i)

        r = corpus.rng(642)
        for i in range(1000):
            if i % 20 == 0:
                rank, mp, lo, hi = 3, 4, -2, 2
            else:
                rank, mp, lo, hi = 2, 4, -3, 3
            a = corpus.random_polytope(r, rank, max_pts=mp, lo=lo, hi=hi)
            b = corpus.random_polytope(r, rank, max_pts=mp, lo=lo, hi=hi)
            c = corpus.random_polytope(r, rank, max_pts=mp, lo=lo, hi=hi)
            if minkowski_sum(a, b) != minkowski_sum(b, a):
                bad.append("commutativity case %d" % i)
            left = minkowski_sum(minkowski_sum(a, b), c)
            if left != minkowski_sum(a, minkowski_sum(b, c)):
                bad.append("associativity case %d" % i)

        r = corpus.rng(643)
        for i in range(1000):
            rank = 2 if i % 4 else 3
            p = corpus.random_polytope(r, rank, max_pts=5, lo=-3, hi=3)
            mine = set(lattice_points(p))
            brute = set(oracles.brute_lattice_points(
                rank, list(p.inequalities)))
            if mine != brute:
                bad.append("lattice points case %d" % i)
    except Exception as e:
        bad.append("crashed: %r" % e)
    _verdict(6, "convexity kernel properties", bad)


def _reference_witnesses(fano, d):
    """The same mutation datum with each factor G_h replaced by the hull
    of every admissible lattice translate (oracles.mutation_point_sets),
    at every negative height where there is one."""
    points = oracles.brute_lattice_points(
        fano.n, list(fano.polytope.inequalities))
    msg, factors, _ = oracles.mutation_point_sets(
        points, fano.vertices(), d.w, d.factor.lattice_vertices())
    assert msg is None, msg
    layers = tuple(WitnessLayer(h, convex_hull(fano.n, gpts))
                   for h, gpts in sorted(factors.items()))
    return d._replace(witnesses=layers)


def test_criterion_7_mutation_properties():
    bad = []
    try:
        fano = validate_fano(convex_hull(2, [(1, 0), (0, 1), (-1, -1)]))
        d = validate_mutation_datum(fano, (-1, 2),
                                    convex_hull(2, [(0, 0), (2, 1)]))
        cases = [(fano, d)] + corpus.random_mutation_cases(10)
        other_factors = 0
        for i, (f, md) in enumerate(cases):
            mut = mutate(f, md)
            dinv = validate_mutation_datum(
                mut, tuple(-x for x in md.w), md.factor)
            if mutate(mut, dinv).polytope != f.polytope:
                bad.append("case %d does not invert" % i)
            for g, gd, want in ((f, md, mut), (mut, dinv, f)):
                alt_datum = _reference_witnesses(g, gd)
                other_factors += alt_datum.witnesses != gd.witnesses
                if mutate(g, alt_datum).polytope != want.polytope:
                    bad.append("case %d depends on the witness choice" % i)
            for g, gd in ((f, md), (mut, dinv)):
                fam = mutation_family(g, gd)
                if not disjoint_support_regular_sequence(
                        (fam.trinomial,), fam.monomial):
                    bad.append("case %d trinomial/monomial share "
                               "a variable" % i)
        if not other_factors:
            bad.append("no case offers a second witness choice")
    except Exception as e:
        bad.append("crashed: %r" % e)
    _verdict(7, "mutation properties", bad)


def test_criterion_8_hilbert_basis():
    bad = []
    try:
        hb = hilbert_basis(ca1_sigma().dual())
        want = {(1, 1, 0), (-1, 1, 0), (0, 0, 1), (0, 1, 0)}
        if set(hb.generators) != want:
            bad.append("generators %s" % sorted(hb.generators))
        if not hb.complete:
            bad.append("enumeration not certified complete")
    except Exception as e:
        bad.append("crashed: %r" % e)
    _verdict(8, "four semigroup generators", bad)
