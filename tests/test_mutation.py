"""Polytope mutations: datum validation, the mutation map, the pencil
over P^1, induced boundary data and fiber specialization."""

import itertools
import math
import sys
from fractions import Fraction

import pytest

from toricdeform.cox import (
    cox_system,
    disjoint_support_regular_sequence,
    is_homogeneous,
    pretty,
)
from toricdeform.mutation import (
    FanoPolytope,
    MutationDatum,
    MutationDatumError,
    MutationFamilyError,
    WitnessLayer,
    OutsideVError,
    induced_boundary_datum,
    mutate,
    mutation_family,
    normalize_parameter_point,
    specialize_fiber,
    validate_fano,
    validate_mutation_datum,
)
from toricdeform.lattice import dot, primitive, vadd, vneg, vscale, vsub
from toricdeform.polyhedral import (
    Cone, Polyhedron, convex_hull, lattice_points, minkowski_sum)
from toricdeform.presets import p2_p114_alias, p2_p114_inputs, p2_polytope

from toricdeform.projective import (
    PolarizedToricVariety, polytope_in_M, projective_tilde)
import toricdeform.mutation as mutation_module
from toricdeform import polyhedral, presets

import corpus
import oracles


def p114_setup():
    p, w, f = p2_p114_inputs()
    fano = validate_fano(p)
    return fano, validate_mutation_datum(fano, w, f), f


# ------------------------------------------------------------ validation


def test_fano_validation_rejects():
    with pytest.raises(ValueError):
        validate_fano(convex_hull(2, [(1, 0), (0, 1), (1, 1)]))
    with pytest.raises(ValueError):
        validate_fano(convex_hull(2, [(2, 0), (0, 2), (-2, -2)]))


def test_fano_rank_is_the_polytope_rank():
    # n is read off the polytope, never stored beside it
    for p in (p2_polytope(), convex_hull(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                              (-1, -1, -1)])):
        fano = validate_fano(p)
        assert fano.n == fano.polytope.rank == p.rank
        with pytest.raises(TypeError):
            type(fano)(polytope=p, n=p.rank + 1)


def test_datum_rejects_nonprimitive_direction():
    fano = validate_fano(p2_polytope())
    with pytest.raises(ValueError, match="primitive"):
        validate_mutation_datum(fano, (0, 2), convex_hull(2, [(0, 0)]))


def test_datum_rejects_direction_of_wrong_length():
    fano = validate_fano(p2_polytope())
    point = convex_hull(2, [(0, 0)])
    for w in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError, match=r"^w has length %d, expected 2$" % len(w)):
            validate_mutation_datum(fano, w, point)


def test_datum_rejects_non_integral_direction():
    # (-3/2, 2) must not be truncated to the valid direction (-1, 2)
    fano = validate_fano(p2_polytope())
    _, _, f = p114_setup()
    with pytest.raises(ValueError, match="non-integral"):
        validate_mutation_datum(fano, (Fraction(-3, 2), 2), f)


def test_datum_rejects_factor_off_the_wall():
    fano = validate_fano(p2_polytope())
    with pytest.raises(ValueError, match="pair to zero"):
        validate_mutation_datum(fano, (0, 1), convex_hull(2, [(1, 1)]))
    _, _, f = p114_setup()
    with pytest.raises(ValueError, match="pair to zero"):
        validate_mutation_datum(fano, (2, -1), f)


def test_datum_rejects_uncovered_vertex():
    fano = validate_fano(p2_polytope())
    long_factor = convex_hull(2, [(0, 0), (4, 2)])
    with pytest.raises(MutationDatumError,
                       match=r"NoFactorAtHeight -1: uncovered vertex"):
        validate_mutation_datum(fano, (-1, 2), long_factor)


def test_p114_datum_layers_frozen():
    fano, d, _ = p114_setup()
    assert (d.hmin, max(dot(d.w, v) for v in fano.vertices())) == (-1, 2)
    assert len(d.witnesses) == 1
    layer = d.witnesses[0]
    assert layer.height == -1
    assert set(map(tuple, layer.factor_part.vertices)) == {(-1, -1)}


# ------------------------------------------------------------ the map


def test_p114_mutation_frozen():
    fano, d, _ = p114_setup()
    mut = mutate(fano, d)
    assert set(mut.vertices()) == {(-1, -1), (0, 1), (4, 3)}


def test_p114_inverse_recovers_triangle():
    fano, d, f = p114_setup()
    mut = mutate(fano, d)
    dinv = validate_mutation_datum(mut, (1, -2), f)
    assert dinv.hmin == -2
    # height -1 holds no vertex of the mutant, so it has no layer
    assert [layer.height for layer in dinv.witnesses] == [-2]
    assert set(map(tuple, dinv.witnesses[0].factor_part.vertices)) == {(0, 1)}
    assert mutate(mut, dinv).polytope == fano.polytope


def test_point_factor_is_identity():
    fano = validate_fano(p2_polytope())
    d = validate_mutation_datum(fano, (0, 1), convex_hull(2, [(0, 0)]))
    assert mutate(fano, d).polytope == fano.polytope


def test_random_mutations_invert():
    cases = corpus.random_mutation_cases(10)
    assert len(cases) == 10
    for fano, d in cases:
        mut = mutate(fano, d)
        factor = d.factor
        minus_w = tuple(-x for x in d.w)
        dinv = validate_mutation_datum(mut, minus_w, factor)
        back = mutate(mut, dinv)
        assert back.polytope == fano.polytope, (
            fano.vertices(), d.w, factor.vertices)


# ------------------------------------------------------------ the factors


def _reference_difference_regions(fano, d):
    """D_h at each negative height by the polyhedral route: the slice
    polyhedron, the lattice hull of its points, and D_h from that hull's
    inequalities, {x : x + (-h)f in the hull for every vertex f of F}."""
    n = fano.n
    fverts = d.factor.lattice_vertices()
    regions = {}
    for layer in d.witnesses:
        h = layer.height
        ineqs = list(fano.polytope.inequalities)
        ineqs += [(d.w, -h), (vneg(d.w), h)]
        spts = lattice_points(Polyhedron.from_inequalities(n, ineqs))
        if not spts:
            regions[h] = None
            continue
        shull = convex_hull(n, spts)
        regions[h] = Polyhedron.from_inequalities(
            n, [(u, c - h * dot(u, f))
                for u, c in shull.inequalities for f in fverts])
    return regions


def _reference_factor_parts(fano, d):
    out = {}
    for h, region in _reference_difference_regions(fano, d).items():
        pts = lattice_points(region) if region is not None else ()
        out[h] = convex_hull(fano.n, pts) if pts else None
    return out


def _with_inverses(cases):
    out = list(cases)
    for fano, d in cases:
        mut = mutate(fano, d)
        out.append((mut, validate_mutation_datum(mut, vneg(d.w), d.factor)))
    return out


def test_factor_parts_match_polyhedral_reference():
    # G_h lies in the polyhedral reference G_h (the hull of every
    # admissible lattice translate), G_h + (-h)F lies in P and covers
    # every vertex of P at h, and only the heights holding a vertex of P
    # have a layer
    fano, d, _ = p114_setup()
    cases = _with_inverses(corpus.random_mutation_cases(10) + [(fano, d)])
    assert len(cases) == 22
    for fano, d in cases:
        want = _reference_factor_parts(fano, d)
        heights = sorted({dot(d.w, v) for v in fano.vertices()})
        assert [layer.height for layer in d.witnesses] == [
            h for h in heights if h < 0]
        for layer in d.witnesses:
            g, h = layer.factor_part, layer.height
            assert all(want[h].contains(x) for x in g.vertices), (
                fano.vertices(), d.w, h)
            summed = minkowski_sum(g, convex_hull(fano.n, [
                vscale(-h, f) for f in d.factor.lattice_vertices()]))
            assert all(fano.polytope.contains(x) for x in summed.vertices)
            assert all(summed.contains(v) for v in fano.vertices()
                       if dot(d.w, v) == h)


def _hull_verdict(fano, w, factor):
    """The re-check by hulls: at each negative height h, the hull of
    G_h + (-h)F must contain every vertex of P at h, and every vertex of
    that hull must be a lattice point of the slice.  Returns the message
    of the first failure, or None."""
    n = fano.n
    fverts = factor.lattice_vertices()
    slices = {}
    for x in lattice_points(fano.polytope):
        slices.setdefault(dot(w, x), set()).add(x)
    heights = [dot(w, v) for v in fano.vertices()]
    for h in range(min(heights), 0):
        at_h = [v for v in fano.vertices() if dot(w, v) == h]
        spts = slices.get(h, set())
        shifts = [vscale(-h, f) for f in fverts]
        gpts = [x for x in (vsub(s, shifts[0]) for s in sorted(spts))
                if all(vadd(x, t) in spts for t in shifts)]
        if not gpts:
            if at_h:
                return "NoFactorAtHeight %d: uncovered vertex %s" % (h, at_h[0])
            continue
        summed = minkowski_sum(convex_hull(n, gpts), convex_hull(n, shifts))
        for v in at_h:
            if not summed.contains(v):
                return "NoFactorAtHeight %d: uncovered vertex %s" % (h, v)
        for mv in summed.vertices:
            if mv not in spts:
                return "NoFactorAtHeight %d: witness escapes the slice hull at %s" % (
                    h, tuple(int(x) for x in mv))
    return None


def test_mutation_verdicts_match_hull_reference():
    verdicts = {"valid": 0, "rejected": 0}
    for fano in corpus.small_fano_polygons():
        for w in corpus.DIRECTIONS:
            perp = primitive((-w[1], w[0]))
            for m in (1, 2, 3):
                factor = convex_hull(2, [(0, 0), vscale(m, perp)])
                want = _hull_verdict(fano, w, factor)
                try:
                    validate_mutation_datum(fano, w, factor)
                    got = None
                except MutationDatumError as e:
                    got = str(e)
                assert got == want, (fano.vertices(), w, m)
                verdicts["valid" if got is None else "rejected"] += 1
    assert min(verdicts.values()) > 0, verdicts


SIMPLEX_3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
OCTAHEDRON = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
              (0, 0, -1)]


CUBE = list(itertools.product((-1, 1), repeat=3))


def _rank3_triples(polytopes=(SIMPLEX_3, OCTAHEDRON)):
    """Every (P, w, segment conv(0, e)) with w, e in {-1, 0, 1}^3 and
    <w, e> = 0, on the simplex and the octahedron by default."""
    units = [v for v in itertools.product((-1, 0, 1), repeat=3) if any(v)]
    return [(fano, w, convex_hull(3, [(0, 0, 0), e]))
            for fano in (validate_fano(convex_hull(3, verts))
                         for verts in polytopes)
            for w in units for e in units if not dot(w, e)]


def _rank3_cases(polytopes=(SIMPLEX_3, OCTAHEDRON)):
    """The valid rank-3 triples, as (P, datum)."""
    cases = []
    for fano, w, factor in _rank3_triples(polytopes):
        try:
            cases.append((fano, validate_mutation_datum(fano, w, factor)))
        except MutationDatumError:
            continue
    return cases


def _corpus_triples():
    """The small Fano polygons x the directions x segment factors of
    lattice length 1-3, then the rank-3 triples."""
    out = []
    for fano in corpus.small_fano_polygons():
        for w in corpus.DIRECTIONS:
            perp = primitive((-w[1], w[0]))
            out += [(fano, w, convex_hull(2, [(0, 0), vscale(m, perp)]))
                    for m in (1, 2, 3)]
    return out + _rank3_triples()


class _PointSetReference:
    """The mutation on lattice point sets (oracles.mutation_point_sets),
    with the lattice points of each polytope enumerated once by the
    package-free oracle."""

    def __init__(self):
        self._points = {}

    def __call__(self, fano, w, factor):
        """(message, datum, mutation): the reference verdict, and for a
        valid triple a MutationDatum with one layer per height whose
        reference G_h is nonempty, and the hull of the reference cloud."""
        key = fano.vertices()
        if key not in self._points:
            self._points[key] = oracles.brute_lattice_points(
                fano.n, list(fano.polytope.inequalities))
        msg, factors, cloud = oracles.mutation_point_sets(
            self._points[key], key, w, factor.lattice_vertices())
        if msg is not None:
            return msg, None, None
        heights = [dot(w, v) for v in key]
        layers = tuple(WitnessLayer(h, convex_hull(fano.n, gpts))
                       for h, gpts in sorted(factors.items()))
        datum = MutationDatum(w=tuple(w), factor=factor, witnesses=layers,
                              hmin=min(heights))
        return None, datum, validate_fano(convex_hull(fano.n, cloud))


def _verdict(fano, w, factor):
    try:
        return None, validate_mutation_datum(fano, w, factor)
    except MutationDatumError as e:
        return str(e), None


def test_mutations_match_point_set_reference():
    reference = _PointSetReference()
    counts = {"valid": 0, "rejected": 0}
    for fano, w, factor in _corpus_triples():
        want_msg, _, want = reference(fano, w, factor)
        msg, d = _verdict(fano, w, factor)
        assert msg == want_msg, (fano.vertices(), w, factor.vertices)
        if d is None:
            counts["rejected"] += 1
            continue
        counts["valid"] += 1
        mut = mutate(fano, d)
        assert mut.polytope == want.polytope, (fano.vertices(), w)
        inv_msg, _, inv_want = reference(mut, vneg(w), factor)
        msg, dinv = _verdict(mut, vneg(w), factor)
        assert msg is None and inv_msg is None, (mut.vertices(), w)
        back = mutate(mut, dinv)
        assert back.polytope == inv_want.polytope == fano.polytope
    assert counts == {"valid": 197, "rejected": 1507}


def _dual_points(fano, k):
    """The lattice points of k P^dual = {u : <u, v> >= -k on P's vertices}."""
    return set(lattice_points(Polyhedron.from_inequalities(
        fano.n, [(v, k) for v in fano.vertices()])))


def test_mutations_follow_their_map_on_m():
    # the dual lattice points of the mutant are the images of P's, at every
    # dilation: so the Ehrhart series of P^dual, the Hilbert series of
    # (X_P, -K), is a mutation invariant, as flatness of the family needs
    octahedron = validate_fano(convex_hull(3, [
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]))
    cases = corpus.random_mutation_cases(40) + [
        p114_setup()[:2],
        (octahedron, validate_mutation_datum(
            octahedron, (0, 1, 1), convex_hull(3, [(0, 0, 0), (0, 1, -1)])))]
    assert len(cases) == 42
    for fano, d in cases:
        mut = mutate(fano, d)
        fverts = d.factor.lattice_vertices()
        for k in (1, 2, 3):
            points = _dual_points(fano, k)
            image = {oracles.mutation_dual_map(u, d.w, fverts) for u in points}
            assert len(image) == len(points)
            assert image == _dual_points(mut, k), (fano.vertices(), d.w, k)


def _large_unimodular(r, rank):
    """A random unimodular matrix with entries between 10^6 and 10^8, and
    its inverse."""
    while True:
        u, u_inv = corpus.random_unimodular(r, rank, steps=64)
        if 10 ** 6 <= max(abs(x) for row in u for x in row) <= 10 ** 8:
            return u, u_inv


def test_mutations_are_unimodular_covariant():
    # x -> Ux sends P, F to UP, UF and w to w U^-1: every verdict, failing
    # height and mutated polytope must follow, with no reference needed
    r = corpus.rng(1609)
    moved = {}
    counts = {"valid": 0, "rejected": 0}
    for fano, w, factor in _corpus_triples():
        n, key = fano.n, fano.vertices()
        if key not in moved:
            u, u_inv = _large_unimodular(r, n)
            moved[key] = u, u_inv, validate_fano(
                convex_hull(n, [corpus.matmul_vec(u, v) for v in key]))
        u, u_inv, ufano = moved[key]
        ufactor = convex_hull(n, [corpus.matmul_vec(u, f)
                                  for f in factor.lattice_vertices()])
        uw = corpus.functional_after(u_inv, w)
        verdicts = []
        for p, pw, pf in ((fano, w, factor), (ufano, uw, ufactor)):
            try:
                verdicts.append(validate_mutation_datum(p, pw, pf))
            except MutationDatumError as e:
                verdicts.append(e.height)
        d, ud = verdicts
        if isinstance(d, int):
            assert ud == d, (key, w, factor.vertices)
            counts["rejected"] += 1
            continue
        want = convex_hull(n, [corpus.matmul_vec(u, v)
                               for v in mutate(fano, d).vertices()])
        assert mutate(ufano, ud).polytope == want, (key, w)
        counts["valid"] += 1
    assert counts == {"valid": 197, "rejected": 1507}


def _pencil_outputs(fam):
    fibres = [specialize_fiber(fam, point) for point in ((0, 1, -1),
                                                          (1, 0, -1))]
    return (fam.fan.rays, fam.weights(), fam.trinomial, fam.monomial,
            fam.induced.tilde.cone, fam.q_tilde,
            [(f.polynomial, f.matched) for f in fibres])


def test_pencils_match_point_set_reference():
    # the factors differ (the reference has layers at heights without a
    # vertex, and G_h from every admissible translate), the pencil does not
    reference = _PointSetReference()
    cases, other_factors = 0, 0
    for fano, w, factor in _corpus_triples():
        if reference(fano, w, factor)[1] is None:
            continue
        mut = mutate(fano, validate_mutation_datum(fano, w, factor))
        for p, u in ((fano, w), (mut, vneg(w))):
            d = validate_mutation_datum(p, u, factor)
            ref_datum = reference(p, u, factor)[1]
            got = _pencil_outputs(mutation_family(p, d))
            assert got == _pencil_outputs(mutation_family(p, ref_datum)), (
                p.vertices(), u)
            assert got[-1][0][1] is True and got[-1][1][1] is True
            cases += 1
            other_factors += d.witnesses != ref_datum.witnesses
    assert cases == 2 * 197
    assert other_factors > 0


def test_rank3_mutations():
    # the alternative datum takes the reference factors (the hull of every
    # admissible translate), built without validate_mutation_datum.  On all
    # 36 cases they equal the covering hulls: the factor at each height is
    # forced, so here no other witness choice exists to compare against
    reference = _PointSetReference()
    cases = _rank3_cases()
    assert len(cases) == 36
    for fano, d in cases:
        mut = mutate(fano, d)
        dinv = validate_mutation_datum(mut, vneg(d.w), d.factor)
        assert mutate(mut, dinv).polytope == fano.polytope, d.w
        ref_datum = reference(fano, d.w, d.factor)[1]
        alt = mutate(fano, ref_datum)
        assert alt.polytope == mut.polytope, d.w
        assert ref_datum.witnesses == d.witnesses, d.w
        fam = mutation_family(fano, d)
        assert specialize_fiber(fam, (1, 0, -1)).matched is True, d.w
    # on the cube the slices are wider: for some cases the reference G_h
    # differs from the covering hull, and the mutation must not notice
    cube_cases = _rank3_cases([CUBE])
    other_factors = 0
    for fano, d in cube_cases:
        ref_datum = reference(fano, d.w, d.factor)[1]
        if ref_datum.witnesses == d.witnesses:
            continue
        other_factors += 1
        mut = mutate(fano, d)
        assert mutate(fano, ref_datum).polytope == mut.polytope, d.w
        fam = mutation_family(fano, ref_datum)
        assert specialize_fiber(fam, (1, 0, -1)).matched is True, d.w
        dinv = validate_mutation_datum(mut, vneg(d.w), d.factor)
        assert mutate(mut, dinv).polytope == fano.polytope, d.w
    assert len(cube_cases) == 48 and other_factors > 0


# ------------------------------------------------------------ the pencil


def test_p114_family_frozen():
    fano, d, _ = p114_setup()
    fam = mutation_family(fano, d)
    assert set(fam.fan.rays) == {(0, 1, 0), (-1, -1, -1), (0, 0, 1),
                                 (2, 1, 1)}
    assert set(map(tuple, fam.q_tilde.vertices)) == {
        (Fraction(1, 2), -1, 0), (2, -1, 0), (-1, -1, 3), (-1, 2, 0)}
    wt = fam.weights()
    assert sorted(wt) == [1, 1, 1, 2]
    assert wt[fam.fan.rays.index((-1, -1, -1))] == 2


def test_p114_family_strings():
    fano, d, _ = p114_setup()
    fam = mutation_family(fano, d)
    alias = p2_p114_alias(fam.fan.rays)
    assert pretty(fam.trinomial, fam.fan.rays, alias) == \
        "a*x^2 + b*y + c*z0*z1"
    assert pretty(fam.monomial, fam.fan.rays, alias) == "x*y"


def test_p3_family_from_point_factor():
    fano = validate_fano(p2_polytope())
    d = validate_mutation_datum(fano, (0, 1), convex_hull(2, [(0, 0)]))
    fam = mutation_family(fano, d)
    assert set(fam.fan.rays) == {(1, 0, 0), (0, 1, 0), (-1, -1, -1),
                                 (0, 0, 1)}
    assert sorted(fam.weights()) == [1, 1, 1, 1]
    assert all(sum(t.exps) == 1 for t in fam.trinomial.terms)
    mono = fam.monomial.terms[0].exps
    assert sum(mono) == 3
    assert mono[fam.fan.rays.index((0, 0, 1))] == 0


def test_family_weights_pinned():
    # weights() prints the first free row of the Smith transform of the
    # fan's rays; at free rank 2 or more that basis is an implementation
    # choice, and the mutation-census benchmark prints it, so its values
    # on 5-7 rays (one with torsion) are pinned here
    hexagon = [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)]
    cases = [
        ([(-1, -2), (-1, 2), (1, 0), (1, 2)], (0, -1), (1, 0),
         (1, 1, 2, 2, 0), "Z + Z + Z/2"),
        ([(-1, -1), (-1, 0), (0, 1), (1, -2)], (1, -1), (1, 1),
         (2, -3, -3, -1, 0), "Z + Z"),
        ([(-1, -2), (-1, 2), (1, 0), (1, 2)], (-1, 1), (-1, -1),
         (2, 1, 0, 1, 3, 0), "Z + Z + Z"),
        (hexagon, (-1, 1), (-1, -1), (1, -1, 0, 1, 0, 0, 0), "Z + Z + Z + Z"),
    ]
    for verts, w, f, weights, group in cases:
        fano = validate_fano(convex_hull(2, verts))
        fam = mutation_family(
            fano, validate_mutation_datum(fano, w, convex_hull(2, [(0, 0), f])))
        assert (fam.weights(), str(fam.cox.group)) == (weights, group), w


def test_family_polynomials_regular_and_homogeneous():
    cases = corpus.random_mutation_cases(10)
    for fano, d in cases:
        fam = mutation_family(fano, d)
        flag, _ = is_homogeneous(fam.cox, fam.trinomial)
        assert flag
        flag, _ = is_homogeneous(fam.cox, fam.monomial)
        assert flag
        assert disjoint_support_regular_sequence(
            (fam.trinomial,), fam.monomial)


def test_family_vertex_split():
    # (1, 0) sits at height -1, so only (0, 1) survives on the upper side
    fano, d, _ = p114_setup()
    fam = mutation_family(fano, d)
    w = fam.datum.w
    assert {v for v in fam.fano.vertices() if dot(w, v) >= 0} == {(0, 1)}
    assert {v for v in fam.mutated.vertices() if dot(w, v) < 0} == {(-1, -1)}


def test_pencil_shares_the_induced_cone_and_cox_system():
    # the references for what mutation_family reuses of the induced
    # construction instead of computing it again
    fano, d, _ = p114_setup()
    cases = corpus.random_mutation_cases(10) + [(fano, d)] + _rank3_cases()
    assert len(cases) == 47
    for fano, d in cases:
        fam = mutation_family(fano, d)
        assert fam.cox == cox_system(fam.fan.rays, fano.n + 1), d.w
        tau = PolarizedToricVariety.from_fano_polytope(fano.polytope).tau
        assert fam.induced_datum.sigma == tau, d.w


def test_family_fan_is_the_normal_fan_of_q_tilde():
    # the fan is the induced pair's; it must be the normal fan of the
    # glued polytope, maximal cones included
    fano, d, _ = p114_setup()
    for fano, d in [(fano, d)] + corpus.random_mutation_cases(10):
        fam = mutation_family(fano, d)
        assert (fam.fan.rays, fam.fan.maximal_cones) == \
            oracles.normal_fan_reference(fam.q_tilde), d.w


def test_pencil_enumerates_no_lattice_points(monkeypatch):
    # validation, the mutation, the pencil and both special fibres read
    # the vertices of P and F alone
    enumerated = []

    def counting_lattice_points(p):
        enumerated.append(p)
        return lattice_points(p)

    assert not hasattr(mutation_module, "lattice_points")
    for module in list(sys.modules.values()):
        if getattr(module, "lattice_points", None) is lattice_points:
            monkeypatch.setattr(module, "lattice_points",
                                counting_lattice_points)
    built = []
    from_inequalities = Polyhedron.from_inequalities

    def counting_from_inequalities(rank, inequalities):
        built.append(rank)
        return from_inequalities(rank, inequalities)

    monkeypatch.setattr(Polyhedron, "from_inequalities",
                        staticmethod(counting_from_inequalities))
    p, w, f = p2_p114_inputs()
    fano = validate_fano(p)
    d = validate_mutation_datum(fano, w, f)
    mutate(fano, d)
    fam = mutation_family(fano, d)
    assert built == [3]  # the glued polytope Q~ of the pencil
    projective_tilde(fam.induced_datum)
    assert built == [3]
    for point in ((0, 1, -1), (1, 0, -1)):
        assert specialize_fiber(fam, point).matched is True
    assert enumerated == []


# ------------------------------------------------------------ induced


def test_induced_boundary_datum_frozen():
    fano, d, _ = p114_setup()
    ind = induced_boundary_datum(fano, d)
    assert ind.sigma == Cone.from_generators(
        3, [(1, 0, 1), (0, 1, 1), (-1, -1, 1)])
    assert ind.w == (-1, 2, 0)
    assert ind.boundary
    g0, f0 = ind.summands
    assert set(map(tuple, g0.vertices)) == {(-1, -1, 1)}
    assert set(map(tuple, f0.vertices)) == {(0, 0, 0), (2, 1, 0)}


def test_cones_over_polytopes_are_read_not_hulled(monkeypatch):
    # tau over a hulled polygon and the moment polytope read cones the hulls
    # already built; the induced datum hulls G^ alone, in two passes, and
    # reads F^ off F's cone
    passes = []
    dd = polyhedral.dual_description

    def counted_dd(*args):
        passes.append(args)
        return dd(*args)

    cases = corpus.random_mutation_cases(6) + [p114_setup()[:2]]
    monkeypatch.setattr(polyhedral, "dual_description", counted_dd)
    for fano, d in cases:
        del passes[:]
        v = PolarizedToricVariety.from_fano_polytope(fano.polytope)
        pm = polytope_in_M(v)
        assert passes == []
        ind = induced_boundary_datum(fano, d)
        assert len(passes) == 2
        n = fano.n
        assert v.tau == ind.sigma == Cone.from_generators(
            n + 1, [u + (1,) for u in fano.vertices()])
        assert pm == Polyhedron.from_inequalities(
            n, [(xi[:n], xi[n]) for xi in v.tau.rays])
        # G^ is the hull of the lifted Fraction points (v, 1) / -h
        lifted = [tuple(Fraction(x, -layer.height) for x in u + (1,))
                  for layer in d.witnesses for u in layer.factor_part.vertices]
        assert ind.summands[0] == convex_hull(n + 1, lifted)
        # F^ is the hull of F x {0}
        f_hat = convex_hull(n + 1, [u + (0,) for u in d.factor.lattice_vertices()])
        assert ind.summands[1] == f_hat
        assert ind.summands[1].cone == f_hat.cone


def test_family_carries_induced_enlargement():
    fano, d, _ = p114_setup()
    fam = mutation_family(fano, d)
    assert fam.induced_datum == induced_boundary_datum(fano, d)
    assert set(fam.induced.tilde.rays) == {
        (0, 1, 1, 0), (-1, -1, 1, -1), (0, 0, 0, 1), (2, 1, 0, 1)}


def test_datum_preset_builds_no_pencil(monkeypatch):
    # the p2-p114 datum preset is the induced datum alone: it needs no
    # pencil, so a mutation_family that cannot run does not reach it
    expected = presets.p2_p114_family().induced_datum

    def refuse(*args):
        raise AssertionError("mutation_family called")

    monkeypatch.setattr(mutation_module, "mutation_family", refuse)
    monkeypatch.setattr(presets, "mutation_family", refuse)
    got, alias = presets.preset("datum", "p2-p114")
    assert got == expected and alias is None


# ------------------------------------------------------------ cross-checks
#
# Each check of mutation_family and of the inverse comparison, shown
# catching a fault seeded in one of its inputs.  The disjoint-support
# check is not among them: the a, b and c terms use the rays whose last
# coordinate is 0, negative and 1, so no variable divides all three
# terms, whatever the inputs.


def _moved_vertex(old, new):
    # mutate, with one vertex of the mutated polytope moved
    def faulty(fano, d):
        return FanoPolytope(convex_hull(fano.n, [
            new if v == old else v for v in mutate(fano, d).vertices()]))
    return faulty


def _doubled_ray(rays):
    return (tuple(2 * x for x in rays[0]),) + tuple(rays[1:])


def _induced_fan_moved(d):
    pt = projective_tilde(d)
    fan = pt.variety.fan._replace(rays=_doubled_ray(pt.variety.fan.rays))
    return pt._replace(variety=pt.variety._replace(fan=fan))


def _induced_cox_moved(d):
    pt = projective_tilde(d)
    return pt._replace(cox=cox_system(_doubled_ray(pt.cox.rays), pt.cox.rank))


def _induced_trinomial_reversed(d):
    pt = projective_tilde(d)
    tri = pt.trinomials[0]
    return pt._replace(trinomials=(tri._replace(terms=tri.terms[::-1]),))


def _flat_hull(cls, rank, inequalities):
    return convex_hull(rank, [(0,) * rank, (1,) + (0,) * (rank - 1)])


@pytest.mark.parametrize("owner, name, fault, message", [
    # the lower vertex (-1, -1) lifted to height 0 leaves Q~ no floor
    (mutation_module, "mutate", _moved_vertex((-1, -1), (-1, 0)),
     "glued polytope is not bounded"),
    # Q~ holds a neighbourhood of (0, t) for small t > 0, whatever P, F and
    # the mutation are, so only a fault in its hull makes it flat
    (Polyhedron, "from_inequalities", classmethod(_flat_hull),
     "glued polytope is not full-dimensional"),
    (mutation_module, "mutate", _moved_vertex((-1, -1), (-2, -2)),
     "normal fan rays ((-1, -1, -1), (0, 0, 1), (0, 1, 0), (2, 1, 1)) differ "
     "from the predicted list ((-2, -2, -2), (0, 0, 1), (0, 1, 0), (2, 1, 1))"),
    # a fault in the induced datum fails its validation first, so the fan
    # check is reached through the induced pair
    (mutation_module, "projective_tilde", _induced_fan_moved,
     "induced construction produced different ambient rays"),
    (mutation_module, "projective_tilde", _induced_cox_moved,
     "trinomial is not grading-homogeneous"),
    (mutation_module, "projective_tilde", _induced_trinomial_reversed,
     "pencil equations disagree with the induced construction"),
    (mutation_module, "projective_tilde",
     lambda d: projective_tilde(d)._replace(boundary=None),
     "pencil monomial disagrees with the induced boundary monomial"),
])
def test_family_cross_checks_catch_a_seeded_fault(monkeypatch, owner, name, fault,
                                                  message):
    fano, d, _ = p114_setup()
    mutation_family(fano, d)
    monkeypatch.setattr(owner, name, fault)
    with pytest.raises(MutationFamilyError) as err:
        mutation_family(fano, d)
    assert str(err.value) == message


def test_induced_datum_needs_a_negative_height_factor():
    fano, d, _ = p114_setup()
    with pytest.raises(MutationFamilyError, match="^no negative-height factors to lift$"):
        induced_boundary_datum(fano, d._replace(witnesses=()))


def test_inverse_comparison_catches_a_seeded_fault():
    fano, d, _ = p114_setup()
    fam = mutation_family(fano, d)
    assert specialize_fiber(fam, (1, 0, -1)).matched is True
    # the family claims another polytope than its inverse recovers
    other = FanoPolytope(convex_hull(2, [(1, 0), (0, 1), (-1, -2)]))
    got = specialize_fiber(fam._replace(fano=other), (1, 0, -1))
    assert (got.matched, got.detail) == (
        False, "inverse mutation failed to recover the polytope")
    # a support ray of the [1:0:-1] fibre moved off the family's fan
    rays = tuple((0, 1, 5) if r == (0, 1, 0) else r for r in fam.fan.rays)
    got = specialize_fiber(fam._replace(fan=fam.fan._replace(rays=rays)), (1, 0, -1))
    assert (got.matched, got.detail) == (
        False, "support ray (0, 1, 3) has no image in the inverse family")


# ------------------------------------------------------------ fibers


def test_parameter_point_normalization():
    assert normalize_parameter_point(("1/2", "-1/3", 0)) == (3, -2, 0)
    assert normalize_parameter_point((-2, 4, 0)) == (1, -2, 0)
    assert normalize_parameter_point((0, 0, 5)) == (0, 0, 1)
    with pytest.raises(ValueError):
        normalize_parameter_point((0, 0, 0))
    assert normalize_parameter_point((Fraction(1, 2), 1, -1)) == (1, 2, -2)
    for floats in ((0.1, 1, -1), (0.0, 0, 0), (1, 2, 3.0)):
        with pytest.raises(TypeError, match="int or Fraction"):
            normalize_parameter_point(floats)


def test_fiber_kinds_on_p114():
    fano, d, _ = p114_setup()
    fam = mutation_family(fano, d)
    fib0 = specialize_fiber(fam, (0, 1, -1))
    assert fib0.kind == "original" and fib0.matched is True
    fib1 = specialize_fiber(fam, (1, 0, -1))
    assert fib1.kind == "mutated" and fib1.matched is True
    gen = specialize_fiber(fam, (1, 1, 1))
    assert gen.kind == "generic" and gen.matched is None
    assert len(gen.polynomial.terms) == 3


def test_fiber_scaling_invariance():
    fano, d, _ = p114_setup()
    fam = mutation_family(fano, d)
    a = specialize_fiber(fam, (0, 1, -1))
    b = specialize_fiber(fam, ("0", "-1/2", "1/2"))
    assert a.point == b.point
    assert a.polynomial.proportional(b.polynomial)
    with pytest.raises(TypeError, match="int or Fraction"):
        specialize_fiber(fam, (0.1, 1, -1))


def test_deleted_base_points():
    fano, d, _ = p114_setup()
    fam = mutation_family(fano, d)
    for bad in ((1, 0, 0), (0, 1, 0), ("2", "0", "0")):
        with pytest.raises(OutsideVError, match="OutsideV"):
            specialize_fiber(fam, bad)


def test_special_fibers_match_on_random_cases():
    for fano, d in corpus.random_mutation_cases(6):
        fam = mutation_family(fano, d)
        assert specialize_fiber(fam, (0, 1, -1)).matched is True
        assert specialize_fiber(fam, (1, 0, -1)).matched is True


def test_fiber_report_json():
    fano, d, _ = p114_setup()
    fam = mutation_family(fano, d)
    data = specialize_fiber(fam, (0, 1, -1)).to_json()
    assert data["kind"] == "original"
    assert data["point"] == ["0", "1", "-1"]
    assert data["matched"] is True
    assert "terms" in data["polynomial"]


# ------------------------------------------------------------ the Markov tree
#
# Mutating the fan triangle of P^2 at its edges walks the Markov tree:
# every triangle is the fan polygon of P(a^2, b^2, c^2) with
# a^2 + b^2 + c^2 = 3abc (Hacking-Prokhorov, Compositio Math. 146, 2010),
# and an edge at lattice distance m from the origin faces the vertex of
# weight m^2.  The weights come from the Cox system alone, an oracle
# independent of the mutation code; the coordinates grow without bound.


def _edge_data(verts):
    """(w, F, height, opposite vertex) per edge of a lattice triangle: w
    the primitive inner normal, F the primitive segment along the edge,
    height the edge's lattice distance from the origin."""
    out = []
    for i in range(3):
        a, b, c = verts[i], verts[(i + 1) % 3], verts[(i + 2) % 3]
        e = primitive(vsub(b, a))
        w = (-e[1], e[0])
        if dot(w, c) < dot(w, a):
            w = vneg(w)
        out.append((w, convex_hull(2, [(0, 0), e]), -dot(w, a), c))
    return out


def _check_markov_node(fano):
    verts = fano.vertices()
    assert len(verts) == 3, verts
    weights = cox_system(verts, 2).weights()
    assert all(x > 0 for x in weights) or all(x < 0 for x in weights)
    roots = {v: math.isqrt(abs(x)) for v, x in zip(verts, weights)}
    assert all(r * r == abs(x) for r, x in zip(roots.values(), weights))
    a, b, c = roots.values()
    assert a * a + b * b + c * c == 3 * a * b * c, verts
    for _, _, height, opposite in _edge_data(verts):
        assert height == roots[opposite], verts
    return tuple(sorted(roots.values()))


def _markov_step(fano, w, factor, height):
    """Mutate at one edge; check the pencil's special fibres and the
    inverse mutation, and return the child triangle."""
    d = validate_mutation_datum(fano, w, factor)
    assert d.hmin == -height
    fam = mutation_family(fano, d)
    for point in ((0, 1, -1), (1, 0, -1)):
        assert specialize_fiber(fam, point).matched is True, fano.vertices()
    child = fam.mutated
    dinv = validate_mutation_datum(child, vneg(w), factor)
    assert mutate(child, dinv).polytope == fano.polytope
    return child


def test_markov_tree_to_depth_four():
    level = [validate_fano(p2_polytope())]
    triples = {_check_markov_node(level[0])}
    nodes = 1
    for _ in range(4):
        level = [_markov_step(fano, w, factor, height)
                 for fano in level
                 for w, factor, height, _ in _edge_data(fano.vertices())]
        nodes += len(level)
        triples |= {_check_markov_node(fano) for fano in level}
    assert nodes == 121
    assert {(1, 1, 1), (1, 1, 2), (1, 2, 5), (1, 5, 13), (2, 5, 29),
            (1, 13, 34), (5, 13, 194), (5, 29, 433)} <= triples


def test_markov_pell_branch():
    # keep the Markov number 2 and replace the other non-maximal one: the
    # triples (1, 1, 2), (1, 2, 5), (2, 5, 29), (2, 29, 169), ...
    fano = validate_fano(p2_polytope())
    triple = _check_markov_node(fano)
    for step in range(1, 31):
        w, factor, height, _ = min(
            (e for e in _edge_data(fano.vertices()) if e[2] != 2),
            key=lambda e: e[2])
        fano = _markov_step(fano, w, factor, height)
        rest = list(triple)
        rest.remove(height)
        triple = _check_markov_node(fano)
        assert triple == tuple(sorted(rest + [3 * rest[0] * rest[1] - height]))
        assert step < 3 or triple[0] == 2
    assert 10 ** 20 < height < 10 ** 21  # |hmin| at step 30
