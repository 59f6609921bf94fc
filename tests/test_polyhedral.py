"""Polyhedral layer: cones, polyhedra, conversions, enumeration."""

import itertools
import json
import math
from fractions import Fraction

import pytest

from toricdeform import polyhedral
from toricdeform.lattice import ZeroVectorError, hermite_normal_form, primitive, vneg
from toricdeform.mutation import mutate
from toricdeform.polyhedral import (
    Cone,
    Fan,
    Polyhedron,
    UnboundedError,
    _canonical_vrep,
    _level_inequalities,
    convex_hull,
    dual_description,
    lattice_points,
    membership_scaling,
    min_functional,
    minkowski_sum,
)
from toricdeform.presets import PRESETS, p2_p114_family, p2_polytope, preset
from toricdeform.projective import OriginNotInteriorError, PolarizedToricVariety

import corpus
from oracles import (
    _int_det,
    brute_facets_from_rays,
    brute_lattice_points,
    brute_rays_from_normals,
    invariant_factors_oracle,
    dot,
    fm_minimize,
    normal_fan_reference,
    prim,
    rational_kernel,
    rational_rank,
    saturate_rowspan,
    vertex_splits_oracle,
)


# ---------------------------------------------------------------- cones


def test_cone_canonical_rays():
    c = Cone.from_generators(2, [(2, 0), (1, 1), (0, 3), (1, 2)])
    assert c.rays == ((0, 1), (1, 0))
    assert c.facets == ((0, 1), (1, 0))


def test_cone_dual_frozen():
    # expected rays computed with the subset-kernel enumeration oracle
    expected = brute_rays_from_normals(2, [(1, 0), (1, 2)])
    assert expected == ((0, 1), (2, -1))
    d = Cone.from_generators(2, [(1, 0), (1, 2)]).dual()
    assert d.rays == expected


def test_cone_with_line_spans():
    c = Cone.from_generators(2, [(1, 0), (-1, 0), (0, 1)])
    assert not c.is_strongly_convex()
    assert c.dimension() == 2
    assert c.lines == ((1, 0),)
    assert c.facets == ((0, 1),)


def test_ray_representative_is_orthogonal_projection():
    # the Hermite basis (1, 0, -1, 0), (0, 1, 1, 0) is not orthogonal, so
    # subtracting each basis row's own projection would land elsewhere
    c = Cone.from_generators(3, [(1, 1, 0), (-1, -1, 0), (1, 0, 1)])
    assert c.lines == ((1, 1, 0),)
    assert c.pointed_rays == ((1, -1, 2),)
    c = Cone.from_generators(4, [(1, 1, 0, 0), (-1, -1, 0, 0), (0, 1, 1, 0),
                                 (0, -1, -1, 0), (1, 0, 0, 1)])
    assert c.lines == ((1, 0, -1, 0), (0, 1, 1, 0))
    assert c.pointed_rays == ((1, -1, 1, 3),)
    assert all(dot(r, l) == 0 for r in c.pointed_rays for l in c.lines)
    # against Fraction Gram-Schmidt, on the unprojected rays that the double
    # description gives for both hull passes, and on permuted cones
    r = corpus.rng(110)
    seen = set()
    for _ in range(150):
        rank = r.randint(2, 5)
        # lines in x_last = 0, the other generators above it: 0-3 lines
        lines = [corpus.random_vector(r, rank - 1, -3, 3) + (0,)
                 for _ in range(r.randint(0, min(3, rank - 1)))]
        gens = [corpus.random_vector(r, rank - 1, -3, 3) + (r.randint(1, 3),)
                for _ in range(r.randint(1, rank + 1))]
        gens += lines + [tuple(-x for x in l) for l in lines]
        c = Cone.from_generators(rank, gens)
        perm = list(range(rank))
        r.shuffle(perm)
        p = c.permuted(perm)
        for rows, got, got_lines, moved in (
                (gens, c.pointed_facets, c.facet_lines, p.pointed_facets),
                (c.facets, c.pointed_rays, c.lines, p.pointed_rays)):
            rays, lin = dual_description(rank, rows)
            assert rational_rank(list(got_lines) + lin) == len(got_lines) == len(lin)
            assert got == tuple(sorted({projection_reference(v, lin) for v in rays}))
            assert moved == tuple(sorted({
                projection_reference([v[i] for i in perm], [[l[i] for i in perm] for l in lin])
                for v in rays}))
        seen.add(len(c.lines))
    assert seen == {0, 1, 2, 3}
    with pytest.raises(ZeroVectorError):  # a ray in the lineality span
        _canonical_vrep([(1, 2, 0)], [(1, 0, 0), (0, 1, 0)])


def projection_reference(v, lines):
    """The primitive integer vector on v's orthogonal projection off
    span(lines), by Gram-Schmidt in Fractions."""
    basis = []
    for l in lines:
        e = [Fraction(x) for x in l]
        for b in basis:
            e = [x - dot(e, b) / dot(b, b) * y for x, y in zip(e, b)]
        if any(e):
            basis.append(e)
    w = [Fraction(x) for x in v]
    for b in basis:
        w = [x - dot(w, b) / dot(b, b) * y for x, y in zip(w, b)]
    den = math.lcm(*[x.denominator for x in w])
    return prim([int(x * den) for x in w])


def test_zero_cone():
    c = Cone.from_generators(3, [])
    assert c.rays == ()
    assert c.dimension() == 0
    assert c.contains((0, 0, 0))
    assert not c.contains((1, 0, 0))


def test_halfspace_roundtrip():
    c = Cone.from_inequalities(2, [(0, 1)])
    assert c.lines == ((1, 0),)
    assert c.pointed_rays == ((0, 1),)
    back = Cone.from_generators(2, c.rays)
    assert back == c


def test_cone_contains_and_interior():
    c = Cone.from_generators(3, [(1, 1, 0), (-1, 1, 0), (0, 0, 1)])
    assert c.contains((0, 2, 5))
    assert not c.contains((2, 1, 0))
    assert c.interior_contains((0, 1, 1))
    assert not c.interior_contains((1, 1, 0))
    assert not c.interior_contains((0, 0, 0))


def test_cone_facets_against_oracle():
    r = corpus.rng(101)
    for _ in range(120):
        rank = r.choice([2, 3, 4, 5])
        c = corpus.random_pointed_cone(r, rank, max_rays=rank + 2)
        assert c.facets == brute_facets_from_rays(rank, c.rays)


def test_cone_rays_against_oracle():
    r = corpus.rng(102)
    for _ in range(120):
        rank = r.choice([2, 3, 4, 5])
        c = corpus.random_pointed_cone(r, rank, max_rays=rank + 2)
        rebuilt = Cone.from_inequalities(rank, c.facets)
        assert rebuilt.rays == brute_rays_from_normals(rank, c.facets)
        assert rebuilt == c


def degenerate_generator_sets(seed, count, ranks=(2, 3, 4, 5)):
    """Generator sets in the given ranks, drawn in the span of 1..rank
    random vectors: lower-dimensional and non-pointed cones come up often."""
    r = corpus.rng(seed)
    for _ in range(count):
        rank = r.choice(ranks)
        basis = [corpus.random_vector(r, rank, -2, 2)
                 for _ in range(r.randint(1, rank))]
        gens = []
        for _ in range(r.randint(1, rank + 2)):
            coeffs = [r.randint(-2, 2) for _ in basis]
            gens.append(tuple(sum(c * b[i] for c, b in zip(coeffs, basis))
                              for i in range(rank)))
        if r.random() < 0.3:
            gens.append(tuple(-x for x in gens[0]))
        yield rank, gens


def test_cone_dimension_against_oracle():
    kinds = set()
    for rank, gens in degenerate_generator_sets(104, 150):
        c = Cone.from_generators(rank, gens)
        assert c.dimension() == rational_rank(c.rays) == rational_rank(gens)
        kinds.add((c.dimension() == rank, c.is_strongly_convex()))
    assert len(kinds) == 4  # every mix of full/lower-dimensional, pointed or not


def test_cone_from_inequalities_is_dual_of_generators():
    for rank, gens in degenerate_generator_sets(105, 150):
        h = Cone.from_inequalities(rank, gens)
        d = Cone.from_generators(rank, gens).dual()
        assert (h.rank, h.pointed_rays, h.lines, h.pointed_facets, h.facet_lines) \
            == (d.rank, d.pointed_rays, d.lines, d.pointed_facets, d.facet_lines)
        assert h.dimension() == rational_rank(h.rays)


def test_cone_permuted_against_hull():
    # the permuted canonical parts against a fresh double description of
    # the permuted rays, in all five parts
    r = corpus.rng(106)
    kinds = set()
    for rank, gens in degenerate_generator_sets(107, 3000, ranks=(1, 2, 3, 4, 5)):
        c = Cone.from_generators(rank, gens)
        perm = list(range(rank))
        r.shuffle(perm)
        got = c.permuted(perm)
        want = Cone.from_generators(
            rank, [tuple(x[i] for i in perm) for x in c.rays])
        assert (got.rank, got.pointed_rays, got.lines, got.pointed_facets,
                got.facet_lines) == (want.rank, want.pointed_rays, want.lines,
                                     want.pointed_facets, want.facet_lines)
        kinds.add((rank, c.dimension() == rank, c.is_strongly_convex()))
    assert {k[0] for k in kinds} == {1, 2, 3, 4, 5}
    assert {k[1:] for k in kinds} == {(True, True), (True, False),
                                     (False, True), (False, False)}


def test_cone_with_zero_at_against_hull():
    # the zero-inserted canonical parts against a fresh double description
    # of the zero-inserted rays, in all five parts, at every position
    kinds = set()
    for rank, gens in degenerate_generator_sets(108, 400, ranks=(1, 2, 3, 4)):
        c = Cone.from_generators(rank, gens)
        for i in range(rank + 1):
            got = c.with_zero_at(i)
            want = Cone.from_generators(
                rank + 1, [x[:i] + (0,) + x[i:] for x in c.rays])
            assert (got.rank, got.pointed_rays, got.lines, got.pointed_facets,
                    got.facet_lines) == (want.rank, want.pointed_rays, want.lines,
                                         want.pointed_facets, want.facet_lines)
        kinds.add((rank, c.dimension() == rank, c.is_strongly_convex()))
    assert {k[0] for k in kinds} == {1, 2, 3, 4}
    assert {k[1:] for k in kinds} == {(True, True), (True, False),
                                     (False, True), (False, False)}


def test_polytope_times_zero_read_off_its_cone():
    # F x {0} from F's cone against the hull of F's vertices with a 0
    # appended, on points, segments, lower- and full-dimensional polytopes
    r = corpus.rng(109)
    dims = set()
    for _ in range(300):
        n = r.randint(1, 3)
        base = corpus.random_vector(r, n, -3, 3)
        span = [corpus.random_vector(r, n, -2, 2) for _ in range(r.randint(0, n))]
        pts = [tuple(b + sum(r.randint(-2, 2) * d[j] for d in span)
                     for j, b in enumerate(base)) for _ in range(r.randint(1, n + 3))]
        f = convex_hull(n, pts)
        got = Polyhedron(f.cone.with_zero_at(n))
        want = convex_hull(n + 1, [v + (0,) for v in f.vertices])
        assert got == want
        assert got.cone == want.cone and got.inequalities == want.inequalities
        assert list(got.inequalities) == sorted(got.inequalities)
        assert got.affine_dimension() == want.affine_dimension() == f.affine_dimension()
        dims.add((n, f.affine_dimension()))
    assert {d for _, d in dims} == {0, 1, 2, 3}
    assert {n for n, _ in dims} == {1, 2, 3}


def _fold_reference(pointed, lines):
    return tuple(sorted(set(pointed) | set(lines) | {vneg(l) for l in lines}))


def test_rays_and_facets_fold_on_first_read():
    kinds = set()
    for rank, gens in degenerate_generator_sets(110, 200):
        c = Cone.from_generators(rank, gens)
        assert c._rays is None and c._facets is None
        rays, facets = c.rays, c.facets
        assert rays == _fold_reference(c.pointed_rays, c.lines)
        assert facets == _fold_reference(c.pointed_facets, c.facet_lines)
        assert c.rays is rays and c.facets is facets  # cached
        # with no lines the pointed tuple is its own fold, not a copy
        assert (rays is c.pointed_rays) == (not c.lines)
        assert (facets is c.pointed_facets) == (not c.facet_lines)
        kinds.add((bool(c.lines), bool(c.facet_lines)))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_cone_double_dual_identity():
    r = corpus.rng(103)
    for _ in range(150):
        rank = r.choice([2, 3])
        gens = [corpus.random_vector(r, rank, -3, 3) for _ in range(r.randint(1, 5))]
        c = Cone.from_generators(rank, gens)
        d = Cone.from_generators(rank, c.dual().rays)
        dd = Cone.from_generators(rank, d.dual().rays)
        assert dd == c


def test_cone_generator_order_irrelevant():
    gens = [(1, 1, 0), (-1, 1, 0), (0, 0, 1), (0, 2, 1)]
    a = Cone.from_generators(3, gens)
    b = Cone.from_generators(3, [(0, 4, 2), (0, 0, 2)] + gens[::-1])
    assert a == b
    assert hash(a) == hash(b)


def test_cone_json_roundtrip():
    c = Cone.from_generators(2, [(1, 0), (1, 2)])
    blob = json.dumps(c.to_json(), sort_keys=True)
    again = Cone.from_json(json.loads(blob))
    assert again == c
    assert json.dumps(again.to_json(), sort_keys=True) == blob


@pytest.mark.parametrize("ray, why", [
    ((0, 0), "zero"), ((-2, -2), "not primitive"), ((1, 0), "repeated")])
def test_fan_json_rejects_bad_ray(ray, why):
    # each used to reach polarize, which then blamed the support function
    data = {"rays": [[1, 0], [0, 1], list(ray)],
            "maximal_cones": [[0, 1], [1, 2], [0, 2]]}
    with pytest.raises(ValueError,
                       match=r"fan ray \[%d, %d\] is %s$" % (ray + (why,))):
        Fan.from_json(data)


def test_cone_rejects_bad_rank():
    # the whole message: the row, named by what the caller gave, in the
    # caller's rank (a polyhedron's rows before homogenizing)
    for build, label in [
            (lambda: Cone.from_generators(2, [(1, 0), (1, 0, 0)]), "generator"),
            (lambda: Cone.from_inequalities(2, [(1, 0), (1, 0, 0)]), "normal"),
            (lambda: Polyhedron.from_inequalities(2, [((1, 0), 0), ((1, 0, 0), 1)]), "normal"),
            (lambda: Polyhedron.from_points_and_rays(2, [(0, 0), (1, 0, 0)]), "point or ray"),
            (lambda: Polyhedron.from_points_and_rays(2, [(0, 0)], [(1, 0, 0)]), "point or ray")]:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == "%s (1, 0, 0) does not live in rank 2" % label


# ------------------------------------------------- double description


def dd_inputs(seed, count):
    """Inequality lists in ranks 2-6, drawn in the span of 1..rank random
    vectors (so the cone often has lineality), with extra rows that make
    it lower-dimensional (a and -a), redundant (sums, positive multiples,
    zero rows) or duplicated, in random order."""
    r = corpus.rng(seed)
    for _ in range(count):
        rank = r.choice([2, 3, 4, 5, 6])
        basis = [corpus.random_vector(r, rank, -2, 2)
                 for _ in range(rank if r.random() < 0.5 else r.randint(1, rank))]
        rows = [tuple(sum(r.randint(-2, 2) * b[i] for b in basis) for i in range(rank))
                for _ in range(r.randint(1, rank + 2))]
        for _ in range(r.randint(0, 2)):
            a, b = r.choice(rows), r.choice(rows)
            rows.append(r.choice([tuple(-x for x in a), tuple(x + y for x, y in zip(a, b)),
                                  tuple(2 * x for x in a), a, (0,) * rank]))
        r.shuffle(rows)
        yield rank, rows


def cube_and_cross_cones():
    """Cones over the 3- and 4-cube and the 3- and 4-dimensional
    cross-polytopes: degenerate, non-simplicial inputs in which many
    non-adjacent ray pairs pass the popcount prefilter."""
    for d in (3, 4):
        yield d + 1, [v + (1,) for v in itertools.product((-1, 1), repeat=d)]
        yield d + 1, [tuple(s if j == i else 0 for j in range(d)) + (1,)
                      for i in range(d) for s in (-1, 1)]


def pointed_part(rank, normals):
    """Extreme rays of {x : <a, x> >= 0} cut down to the orthogonal
    complement of its lineality space, by subset enumeration."""
    return brute_rays_from_normals(rank, normals, equations=rational_kernel(normals, rank))


def check_dual_description(rank, normals, expected):
    """dual_description returns as many rays as the expected extreme-ray
    list, each extreme and on its own face, and a basis of the kernel;
    every ray and lineality row is a primitive tuple of plain ints, which
    canonicalization takes for granted."""
    rays, lines = dual_description(rank, normals)
    for v in rays + lines:
        assert type(v) is tuple and len(v) == rank
        assert all(type(x) is int for x in v) and math.gcd(*v) == 1, v
    assert len(lines) == rank - rational_rank(normals) == rational_rank(lines)
    assert all(dot(a, l) == 0 for a in normals for l in lines)
    faces = set()
    for v in rays:
        assert all(dot(a, v) >= 0 for a in normals)
        tight = frozenset(a for a in normals if dot(a, v) == 0)
        assert rational_rank(list(tight)) == rank - len(lines) - 1  # extreme modulo lines
        faces.add(tight)
    assert len(faces) == len(rays) == len(expected)


def check_against_subset_enumeration(rank, rows):
    """Both hull directions on rows against the subset enumeration; returns
    (full rank, pointed dual) for the caller's coverage count."""
    expected = pointed_part(rank, rows)
    check_dual_description(rank, rows, expected)
    h = Cone.from_inequalities(rank, rows)
    assert h.pointed_rays == expected
    assert Cone.from_generators(rank, rows).pointed_facets == expected
    if rational_rank(rows) == rank:
        assert h.dual().facets == brute_facets_from_rays(rank, rows)
    return rational_rank(rows) == rank, rational_rank(expected) == rational_rank(rows)


def test_dual_description_against_subset_enumeration():
    kinds = set()
    for rank, rows in dd_inputs(106, 250):
        kinds.add((rank,) + check_against_subset_enumeration(rank, rows))
    # every rank 2-6 occurs; lineality and lower-dimensional cones both occur
    assert {k[0] for k in kinds} == {2, 3, 4, 5, 6}
    assert {k[1:] for k in kinds} == {(True, True), (True, False), (False, True), (False, False)}


def test_dual_description_degenerate_polytope_cones():
    r = corpus.rng(108)
    for rank, gens in cube_and_cross_cones():
        c = Cone.from_generators(rank, gens)
        facets = brute_facets_from_rays(rank, gens)
        assert c.pointed_rays == tuple(sorted(gens))  # every vertex is extreme
        assert c.facets == facets
        assert Cone.from_inequalities(rank, facets) == c
        for rows, expected in ((gens, facets), (facets, gens)):
            rows = list(rows) + list(rows[:2])
            for _ in range(3):
                r.shuffle(rows)
                check_dual_description(rank, rows, expected)


def datum_shaped_inputs(seed, count):
    """Hull inputs shaped like a datum's in rank 3: a polygon of 1-5
    lattice points in [-2, 2]^2 lifted to height 0 or 1, often collinear
    and so lower-dimensional, or its pairwise sums with a second polygon
    of 1-3 points, a Minkowski candidate set that keeps its interior
    points.  Each comes homogenized to (p, 1) in rank 4, and as rank-3
    generators with the origin dropped."""
    r = corpus.rng(seed)

    def polygon(size):
        h = r.randint(0, 1)
        if r.random() < 0.5:  # on a random lattice line
            a, d = corpus.random_vector(r, 2, -2, 2), corpus.random_vector(r, 2, -1, 1)
            return [(a[0] + t * d[0], a[1] + t * d[1], h)
                    for t in r.sample(range(-2, 3), r.randint(1, 3))]
        return [corpus.random_vector(r, 2, -2, 2) + (h,) for _ in range(r.randint(1, size))]

    for _ in range(count):
        pts = polygon(5)
        if r.random() < 0.5:
            pts = [tuple(x + y for x, y in zip(p, q)) for p in pts for q in polygon(3)]
        yield 4, [p + (1,) for p in pts]
        pts = [p for p in pts if any(p)]
        if pts:
            yield 3, pts


def test_dual_description_on_datum_shaped_inputs():
    kinds = set()
    for rank, rows in datum_shaped_inputs(109, 100):
        kinds.add((rank,) + check_against_subset_enumeration(rank, rows))
    assert {k[0] for k in kinds} == {3, 4}
    assert {k[1:] for k in kinds} == {(True, True), (True, False), (False, True), (False, False)}


def saturated_lineality_inputs(seed):
    """(rank, rows): the generator sets of test_cone_permuted_against_hull's
    generator in ranks 2-6, each also as the folded facets that a hull's
    second pass reads, then single points and segments with denominators
    1-3, lifted to rank 3-4."""
    for rank, gens in degenerate_generator_sets(seed, 200, ranks=(2, 3, 4, 5, 6)):
        yield rank, gens
        yield rank, list(Cone.from_generators(rank, gens).facets)
    r = corpus.rng(seed)
    for _ in range(80):
        rank = r.choice([2, 3])
        ends = [primitive(corpus.random_vector(r, rank, -5, 5) + (r.randint(1, 3),))
                for _ in range(2)]
        yield rank + 1, ends[:1]
        yield rank + 1, ends


def test_dual_description_keeps_lineality_saturated():
    # after every prefix of the normals the lineality rows span the kernel
    # and are a basis of its saturated lattice: their Hermite form is the
    # saturation of their span, and (independently of the package's
    # Hermite form) every invariant factor of a basis of the right rank
    # orthogonal to the rows is 1
    lines = set()
    for rank, rows in saturated_lineality_inputs(1301):
        for k in range(len(rows) + 1):
            _, lin = dual_description(rank, rows[:k])
            assert len(lin) == rank - rational_rank(rows[:k])
            assert all(dot(a, l) == 0 for a in rows[:k] for l in lin)
            assert hermite_normal_form(lin) == saturate_rowspan(lin), (rows[:k], lin)
            assert invariant_factors_oracle(lin) == (1,) * len(lin), (rows[:k], lin)
        lines.add(len(lin))
    assert lines >= {0, 1, 2, 3}


def _reference_dual(rank, rows):
    """(pointed, lines) by the reference path: one double description
    pass, the oracle saturation of its lineality, then Fraction
    Gram-Schmidt projection."""
    rays, lin = dual_description(rank, rows)
    lines = saturate_rowspan(lin)
    return tuple(sorted({projection_reference(v, lines) for v in rays})), tuple(lines)


def _reference_hull(rank, gens):
    """(pointed rays, lines, pointed facets, facet lines) of cone(gens)."""
    fac_p, fac_l = _reference_dual(rank, gens)
    folded = set(fac_p) | set(fac_l) | {tuple(-x for x in l) for l in fac_l}
    return _reference_dual(rank, sorted(folded)) + (fac_p, fac_l)


def test_hull_parts_match_saturation_reference():
    r = corpus.rng(1302)
    kinds = set()
    for rank, gens in saturated_lineality_inputs(1303):
        want = _reference_hull(rank, gens)
        c = Cone.from_generators(rank, gens)
        assert (c.pointed_rays, c.lines, c.pointed_facets, c.facet_lines) == want
        h = Cone.from_inequalities(rank, gens)
        assert (h.pointed_facets, h.facet_lines, h.pointed_rays, h.lines) == want
        perm = list(range(rank))
        r.shuffle(perm)
        p = c.permuted(perm)
        assert (p.pointed_rays, p.lines, p.pointed_facets, p.facet_lines) == \
            _reference_hull(rank, [tuple(x[i] for i in perm) for x in c.rays])
        kinds.add((len(c.lines), len(c.facet_lines)))
    assert {k[0] for k in kinds} >= {0, 1, 2, 3} and {k[1] for k in kinds} >= {0, 1, 2, 3}


# ----------------------------------------------------------- polyhedra


def test_hull_drops_interior_points():
    p = convex_hull(2, [(-1, -1), (0, 1), (4, 3), (2, 2), (0, 0)])
    assert p.vertices == (
        (Fraction(-1), Fraction(-1)),
        (Fraction(0), Fraction(1)),
        (Fraction(4), Fraction(3)),
    )
    assert p.rays == ()
    assert p.is_bounded


def test_hull_idempotent_random():
    r = corpus.rng(104)
    for _ in range(150):
        rank = r.choice([2, 3])
        p = corpus.random_polytope(r, rank)
        again = convex_hull(rank, p.vertices)
        assert again == p


def test_hull_rational_points():
    p = convex_hull(2, [(Fraction(1, 2), 0), (Fraction(3, 2), 0), (1, 1)])
    assert (Fraction(1, 2), Fraction(0)) in p.vertices
    assert p.contains((1, Fraction(1, 2)))
    assert not p.contains((0, 0))


def test_empty_polyhedron():
    e = Polyhedron.empty(3)
    assert e.is_empty
    assert e.affine_dimension() == -1
    assert not e.contains((0, 0, 0))
    assert lattice_points(e) == ()
    f = Polyhedron.from_inequalities(2, [((1, 0), 0), ((-1, 0), -1)])
    assert f.is_empty
    assert f == Polyhedron.empty(2)


def test_constant_rows_take_the_main_path():
    # a row with a zero normal reads c >= 0: c < 0 empties the hull, and
    # c >= 0 (c > 0 repeats the homogenizing row) changes nothing
    square = [((1, 0), 0), ((0, 1), 0), ((-1, 0), 1), ((0, -1), 1)]
    assert Polyhedron.from_inequalities(2, square + [((0, 0), -1)]) \
        == Polyhedron.empty(2)
    assert Polyhedron.from_inequalities(1, [((0,), Fraction(-1, 2))]) \
        == Polyhedron.empty(1)
    p = Polyhedron.from_inequalities(2, square)
    for extra in ([((0, 0), 0)], [((0, 0), 3)], [((0, 0), 0), ((0, 0), 3)]):
        q = Polyhedron.from_inequalities(2, square + extra)
        assert q == p and q.homogeneous == p.homogeneous
        assert q.affine_dimension() == 2
    assert Polyhedron.from_inequalities(2, [((0, 0), 3)]) \
        == Polyhedron.from_inequalities(2, [])


def test_from_points_and_rays_requires_points():
    with pytest.raises(ValueError):
        Polyhedron.from_points_and_rays(2, [])
    with pytest.raises(ZeroVectorError):
        Polyhedron.from_points_and_rays(2, [(0, 0)], [(0, 0)])


@pytest.mark.parametrize("build", [
    lambda: Cone.from_generators(2, [(0.5, 1), (1, 0)]),
    lambda: Cone.from_inequalities(2, [(0.5, 1), (1, 0)]),
    lambda: Polyhedron.from_inequalities(2, [((0.5, 1), 0), ((1, 0), 1)]),
    lambda: convex_hull(2, [(0.5, 1), (1, 0)]),
], ids=["cone-generators", "cone-inequalities", "polyhedron-inequalities",
        "convex-hull"])
def test_float_coordinates_raise_type_error(build):
    with pytest.raises(TypeError, match="must be int or Fraction"):
        build()


def test_unbounded_slice_shape():
    ineqs = [
        ((1, 1, 0), 0),
        ((-1, 1, 0), 0),
        ((0, 0, 1), 0),
        ((0, -1, 0), 1),
        ((0, 1, 0), -1),
    ]
    s = Polyhedron.from_inequalities(3, ineqs)
    assert s.vertices == (
        (Fraction(-1), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1), Fraction(0)),
    )
    assert s.rays == ((0, 0, 1),)
    assert not s.is_bounded


def test_minkowski_segment_sum_hexagon():
    segs = [
        convex_hull(2, [(0, 0), (1, 0)]),
        convex_hull(2, [(0, 0), (0, 1)]),
        convex_hull(2, [(0, 0), (1, 1)]),
    ]
    total = segs[0]
    for s in segs[1:]:
        total = minkowski_sum(total, s)
    got = {tuple(int(x) for x in v) for v in total.vertices}
    assert got == {(0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2)}


def test_minkowski_commutes_and_associates():
    r = corpus.rng(105)
    for _ in range(100):
        rank = r.choice([2, 3])
        a = corpus.random_polytope(r, rank, max_pts=4)
        b = corpus.random_polytope(r, rank, max_pts=4)
        c = corpus.random_polytope(r, rank, max_pts=4)
        assert minkowski_sum(a, b) == minkowski_sum(b, a)
        assert minkowski_sum(minkowski_sum(a, b), c) == minkowski_sum(
            a, minkowski_sum(b, c)
        )


def test_minkowski_with_empty_absorbs():
    p = convex_hull(2, [(0, 0), (1, 0)])
    assert minkowski_sum(p, Polyhedron.empty(2)).is_empty


def test_min_functional_frozen():
    q = convex_hull(
        3, [(Fraction(-1, 2), Fraction(1, 2), 0), (Fraction(1, 2), Fraction(1, 2), 0)]
    )
    res = min_functional(q, (0, -2, 3))
    assert res.value == Fraction(-1)
    assert res.floor == -1
    assert res.argmin == (Fraction(-1, 2), Fraction(1, 2), Fraction(0))
    # ties go to the lex-least vertex
    square = convex_hull(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert min_functional(square, (0, 1)).argmin == (0, 0)
    assert min_functional(square, (-1, 0)).argmin == (1, 0)
    edge = convex_hull(2, [(Fraction(1, 2), 1), (Fraction(-1, 3), 1), (0, 2)])
    res = min_functional(edge, (Fraction(0), Fraction(1, 2)))
    assert res.value == Fraction(1, 2) and res.floor == 0
    assert res.argmin == (Fraction(-1, 3), Fraction(1))


def test_min_functional_against_fm():
    r = corpus.rng(106)
    for _ in range(120):
        rank = r.choice([2, 3])
        p = corpus.random_polytope(r, rank)
        w = corpus.random_vector(r, rank, -4, 4)
        res = min_functional(p, w)
        status, val = fm_minimize(rank, p.inequalities, w)
        assert status == "ok"
        assert val == res.value
        assert dot(w, res.argmin) == res.value


def test_min_functional_unbounded():
    p = Polyhedron.from_points_and_rays(2, [(0, 0)], [(1, 0)])
    with pytest.raises(UnboundedError, match="UnboundedBelow"):
        min_functional(p, (-1, 0))
    res = min_functional(p, (1, 1))
    assert res.value == 0


# ------------------------------------------------------ homogeneous rows


def _row_cases(seed):
    """Seeded polyhedra in ranks 1-5: rational vertices, recession rays,
    lines, lower-dimensional hulls, inequality systems and empty ones."""
    r = corpus.rng(seed)
    out = [Polyhedron.empty(3),
           Polyhedron.from_inequalities(2, [((1, 0), 0), ((-1, 0), -1)])]
    for rank in range(1, 6):
        for _ in range(6):
            pts = [tuple(_small_rational(r) for _ in range(rank))
                   for _ in range(r.randint(1, rank + 2))]
            rays = [corpus.random_vector(r, rank, -2, 2)
                    for _ in range(r.randint(0, 2))]
            out.append(Polyhedron.from_points_and_rays(rank, pts, rays))
            line = corpus.random_vector(r, rank, -2, 2)
            out.append(Polyhedron.from_points_and_rays(
                rank, pts, [line, tuple(-x for x in line)]))
            ineqs = [(corpus.random_vector(r, rank, -3, 3), r.randint(-3, 3))
                     for _ in range(rank + 2)]
            out.append(Polyhedron.from_inequalities(rank, ineqs))
        for dim in range(rank):
            out.append(_flat_polytope(r, rank, dim))
    return out


def test_homogeneous_rows_match_vertices():
    kinds = set()
    for p in _row_cases(1201):
        assert len(p.homogeneous) == len(p.vertices)
        for v, h in zip(p.vertices, p.homogeneous):
            assert all(type(x) is int for x in h)
            assert h[-1] > 0 and math.gcd(*h) == 1
            assert tuple(Fraction(x, h[-1]) for x in h[:-1]) == v
        # lattice_vertices reads the rows, which with lines are the
        # representatives: is_lattice may hold while one of them is not
        if all(h[-1] == 1 for h in p.homogeneous):
            assert p.lattice_vertices() == tuple(
                tuple(int(x) for x in v) for v in p.vertices)
            assert all(type(x) is int for v in p.lattice_vertices() for x in v)
        else:
            with pytest.raises(ValueError, match="non-integral"):
                p.lattice_vertices()
        kinds.add("empty" if p.is_empty else "lines" if p.lines
                  else "rays" if p.rays
                  else "flat" if p.affine_dimension() < p.rank else "full")
        if any(h[-1] > 1 for h in p.homogeneous):
            kinds.add("rational")
    assert kinds == {"empty", "lines", "rays", "flat", "full", "rational"}
    assert Polyhedron.empty(2).homogeneous == ()


def test_vertex_order_is_fraction_order():
    # the integer keys sort the rows as sorted() sorts the Fraction vertices,
    # whatever order the rows come in
    r = corpus.rng(1304)
    cases = [Polyhedron.empty(rank) for rank in (1, 2, 3, 4)]
    for _ in range(200):
        rank = r.randint(1, 4)
        pts = [tuple(Fraction(r.randint(-9, 9), r.randint(1, 7)) for _ in range(rank))
               for _ in range(r.randint(1, rank + 3))]
        cases += [convex_hull(rank, pts), convex_hull(rank, pts[:1])]
    dens = set()
    for p in cases:
        want = sorted((tuple(Fraction(x, h[-1]) for x in h[:-1]), h) for h in p.homogeneous)
        c = p.cone
        rows = list(c.pointed_rays)  # the vertex rows: the hulls have no rays
        r.shuffle(rows)
        q = Polyhedron(Cone(c.rank, rows, c.lines, c.pointed_facets, c.facet_lines))
        for got in (p, q):
            assert got.vertices == tuple(v for v, _ in want)
            assert got.homogeneous == tuple(h for _, h in want)
            assert all(type(x) is Fraction for v in got.vertices for x in v)
        if p.is_lattice:
            assert p.lattice_vertices() == tuple(tuple(x.numerator for x in v) for v, _ in want)
        else:
            with pytest.raises(ValueError, match="non-integral"):
                p.lattice_vertices()
        dens |= {h[-1] for h in p.homogeneous}
    assert Polyhedron.empty(3).vertices == Polyhedron.empty(3).homogeneous == ()
    assert dens >= set(range(1, 8))


def _min_reference(p, u):
    """The Fraction loop over p.vertices: least value, lex-least argmin."""
    best = arg = None
    for v in p.vertices:
        val = Fraction(dot(u, v))
        if best is None or val < best or (val == best and v < arg):
            best, arg = val, v
    return best, math.floor(best), arg


def test_min_functional_against_fraction_reference():
    r = corpus.rng(1202)
    ties = 0
    for p in _row_cases(1202):
        if p.is_empty:
            continue
        # facet normals tie on every vertex of their facet
        functionals = [u for u, _ in p.inequalities]
        functionals += [corpus.random_vector(r, p.rank, -3, 3) for _ in range(3)]
        functionals += [tuple(Fraction(x, r.choice((1, 2, 3))) for x in u)
                        for u in functionals[-2:]]
        for u in functionals:
            if any(dot(u, x) < 0 for x in p.rays) or any(dot(u, x) for x in p.lines):
                with pytest.raises(UnboundedError, match="UnboundedBelow"):
                    min_functional(p, u)
                continue
            res = min_functional(p, u)
            assert (res.value, res.floor, res.argmin) == _min_reference(p, u)
            assert type(res.value) is Fraction and type(res.floor) is int
            ties += sum(dot(u, v) == res.value for v in p.vertices) > 1
        with pytest.raises(ValueError, match="length mismatch in dot: %d vs %d"
                           % (p.rank + 1, p.rank)):
            min_functional(p, (1,) * (p.rank + 1))
    assert ties > 50


def _count_fractions(monkeypatch):
    """Record every Fraction built: through __new__, and on Python 3.12+
    also through _from_coprime_ints, which builds arithmetic results
    without calling __new__."""
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    coprime = getattr(Fraction, "_from_coprime_ints", None)
    if coprime is not None:
        def counting_coprime(cls, *args):
            made.append(args)
            return coprime.__func__(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    return made


def test_min_functional_builds_one_fraction(monkeypatch):
    q = _flat_polytope(corpus.rng(1203), 4, 4)
    assert len(q.vertices) > 3 and not q.is_lattice
    made = _count_fractions(monkeypatch)
    min_functional(q, (1, -2, 3, 1))
    assert len(made) == 1


def _minkowski_reference(a, b):
    """The Fraction hull: every pairwise vertex sum, the rays and +/- lines."""
    if a.is_empty or b.is_empty:
        return Polyhedron.empty(a.rank)
    pts = [tuple(x + y for x, y in zip(u, v)) for u in a.vertices for v in b.vertices]
    rays = list(a.rays + b.rays)
    for l in a.lines + b.lines:
        rays += [l, tuple(-x for x in l)]
    return Polyhedron.from_points_and_rays(a.rank, pts, rays)


def test_minkowski_sum_against_fraction_reference():
    r = corpus.rng(1204)
    by_rank = {}
    for p in _row_cases(1204):
        if p.rank <= 4:
            by_rank.setdefault(p.rank, []).append(p)
    kinds = set()
    for rank, ps in sorted(by_rank.items()):
        ps.append(convex_hull(rank, [tuple(_small_rational(r) for _ in range(rank))]))
        for a in ps:
            b = r.choice(ps)
            got, want = minkowski_sum(a, b), _minkowski_reference(a, b)
            assert got == want and got.homogeneous == want.homogeneous, (a, b)
            for p in (a, b):
                kinds.add("empty" if p.is_empty else "lines" if p.lines
                          else "rays" if p.rays else "point" if len(p.vertices) == 1
                          else "flat" if p.affine_dimension() < rank else "full")
                if not p.is_lattice:
                    kinds.add("rational")
    assert kinds == {"empty", "lines", "rays", "point", "flat", "full", "rational"}


def test_minkowski_sum_records_each_vertex_split():
    """split pairs each vertex of a + b with the one pair of vertices of a
    and b that adds up to it, as a search over all pairs finds it; a sum
    with lines, and an empty sum, record none."""
    r = corpus.rng(1206)
    cases = [p for p in _row_cases(1206) if p.rank <= 4]
    kinds = set()
    for a in cases:
        b = r.choice([p for p in cases if p.rank == a.rank])
        s = minkowski_sum(a, b)
        if s.lines or s.is_empty:
            assert s.split == ()
            kinds.add("lines" if s.lines else "empty")
            continue
        assert len(s.split) == len(s.homogeneous)
        for v, (i, j) in zip(s.vertices, s.split):
            want = vertex_splits_oracle(v, [a.vertices, b.vertices], 2)
            assert want == [(a.vertices[i], b.vertices[j])], (a, b, v)
        kinds.add("rays" if s.rays else "bounded")
        kinds.update(("rational",) * (not (a.is_lattice and b.is_lattice)))
    assert kinds == {"empty", "lines", "rays", "bounded", "rational"}


def test_minkowski_sum_builds_only_its_vertices(monkeypatch):
    r = corpus.rng(1205)
    a, b = _flat_polytope(r, 3, 3), _flat_polytope(r, 3, 2)
    assert not a.is_lattice and not b.is_lattice
    made = _count_fractions(monkeypatch)
    Fraction(1, 2) + Fraction(1, 3)  # the count sees arithmetic results too
    assert len(made) == 3
    del made[:]
    s = minkowski_sum(a, b)
    assert len(s.vertices) > 3 and len(made) == s.rank * len(s.vertices)


def test_lattice_points_segment():
    seg = convex_hull(2, [(0, 1), (4, 3)])
    assert lattice_points(seg) == ((0, 1), (2, 2), (4, 3))


def test_lattice_points_in_rank_0():
    # the one point of R^0 is the empty tuple; the empty polytope has none
    assert lattice_points(convex_hull(0, [()])) == ((),)
    assert lattice_points(Polyhedron.empty(0)) == ()


def test_lattice_points_against_oracle():
    r = corpus.rng(107)
    for _ in range(100):
        rank = r.choice([2, 3])
        p = corpus.random_polytope(r, rank, lo=-3, hi=3)
        assert lattice_points(p) == brute_lattice_points(rank, p.inequalities)


def _box_scan(p):
    """Reference enumeration: every point of the vertices' bounding box."""
    if p.is_empty:
        return ()
    box = [range(math.floor(min(v[i] for v in p.vertices)),
                 math.ceil(max(v[i] for v in p.vertices)) + 1)
           for i in range(p.rank)]
    return tuple(x for x in itertools.product(*box) if p.contains(x))


def _small_rational(r):
    return Fraction(r.randint(-3, 3), r.choice((1, 2, 3)))


def _flat_polytope(r, rank, dim):
    """Hull of rational points in a random affine subspace of dimension <= dim."""
    base = [_small_rational(r) for _ in range(rank)]
    dirs = [[r.randint(-1, 1) for _ in range(rank)] for _ in range(dim)]
    pts = []
    for _ in range(r.randint(dim + 1, dim + 3)):
        cs = [_small_rational(r) for _ in dirs]
        pts.append(tuple(b + sum(c * d[i] for c, d in zip(cs, dirs))
                         for i, b in enumerate(base)))
    return convex_hull(rank, pts)


def test_lattice_points_match_box_scan_every_dimension():
    r = corpus.rng(511)
    seen = set()
    lattice_free = 0
    for rank in range(1, 6):
        per_dim = {4: 16, 5: 10}.get(rank, 30)
        for dim in range(rank + 1):
            for _ in range(per_dim):
                p = _flat_polytope(r, rank, dim)
                pts = lattice_points(p)
                assert pts == _box_scan(p), p
                seen.add((rank, p.affine_dimension()))
                lattice_free += not pts
        for empty in (Polyhedron.empty(rank),
                      Polyhedron.from_inequalities(
                          rank, [((1,) + (0,) * (rank - 1), -1),
                                 ((-1,) + (0,) * (rank - 1), 0)])):
            assert empty.is_empty and lattice_points(empty) == ()
    assert seen == {(rank, d) for rank in range(1, 6) for d in range(rank + 1)}
    assert lattice_free > 0


def test_level_inequalities_match_projected_hulls():
    # each level of lattice_points: the inequalities of the hull of the
    # vertices cut to their first i coordinates, in the same order
    r = corpus.rng(512)
    rational = 0
    for rank in range(1, 6):
        for dim in range(rank + 1):
            for _ in range({4: 16, 5: 10}.get(rank, 30)):
                p = _flat_polytope(r, rank, dim)
                rational += not p.is_lattice
                for i in range(1, rank):
                    got = _level_inequalities(p, i)
                    hull = Polyhedron.from_points_and_rays(i, {v[:i] for v in p.vertices})
                    assert list(got) == list(hull.inequalities), (p, i)
    assert rational > 0


def _implied_rows(rows):
    """The rows outside an equation pair whose normal lies in the span of
    the equation normals: on a nonempty polyhedron's affine hull each is
    a positive constant, so the equation pairs imply it."""
    rows = set(rows)
    equations = [u for u, c in rows if (vneg(u), -c) in rows]
    return sorted((u, c) for u, c in rows if (vneg(u), -c) not in rows
                  and rational_rank(equations + [u]) == rational_rank(equations))


def test_no_inequality_is_implied_by_the_equations():
    # the height row's canonical representative is its projection off the
    # facet lines, here (0, 0, 1, 5): the cone keeps it, the rows do not
    p = convex_hull(3, [(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))],
                    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)])
    assert p.inequalities == (((0, 0, -5), 1), ((0, 0, 5), -1))
    assert (0, 0, 1, 5) in p.cone.facets
    r = corpus.rng(514)
    flats = [_flat_polytope(r, rank, dim)
             for rank in range(1, 6) for dim in range(rank + 1)]
    cases = [p] + [q for q in _row_cases(1203) if not q.is_empty] + flats
    kinds = set()
    for q in cases:
        assert _implied_rows(q.inequalities) == [], q
        for i in range(1, q.rank) if q.is_bounded else ():
            assert _implied_rows(_level_inequalities(q, i)) == [], (q, i)
        kinds.add("lines" if q.lines else "rays" if q.rays
                  else "flat" if q.affine_dimension() < q.rank else "full")
    assert kinds == {"lines", "rays", "flat", "full"}


def _levels(p):
    # the rows lattice_points reads at each level, the last being p's own
    return [_level_inequalities(p, i) for i in range(1, p.rank)] + [p.inequalities]


def test_lattice_points_with_rows_that_do_not_bound_a_level():
    # lift reads at level i only the rows with u[i] != 0; a row with
    # u[i] = 0 holds on the projection that the previous level cuts out.
    # Boxes and prisms have such rows, and so do polytopes inside a
    # hyperplane whose equation is vertical at some level; each is
    # checked with its unimodular images against the Fourier-Motzkin box
    # scan, and the images also against the mapped points
    half = Fraction(1, 2)
    bases = [
        convex_hull(3, itertools.product((0, 2), (-1, 1), (1, 3))),
        convex_hull(3, itertools.product((-half, Fraction(5, 2)), (0, 1), (-1, half))),
        convex_hull(4, itertools.product((0, 1), (-1, 1), (0, 2), (1, 2))),
        convex_hull(3, [(x, y, z) for x, y in ((0, 0), (3, 0), (0, 2)) for z in (-1, 2)]),
        convex_hull(3, [(x, y, z) for x in (-1, 2) for y, z in ((0, 0), (3, 1), (1, 3))]),
        convex_hull(3, [(1, 0, 0), (1, 3, 0), (1, 0, 2)]),
        convex_hull(3, [(0, 1, 0), (3, 4, 1), (1, 2, 3)]),
        convex_hull(3, [(1, 2, -2), (1, 2, 3)]),
        convex_hull(3, [(half, 0, 0), (half, 2, 0), (2, 2, 1)]),
    ]
    r = corpus.rng(515)
    vertical = 0
    for p in bases:
        pts = lattice_points(p)
        assert pts == brute_lattice_points(p.rank, p.inequalities), p
        images = [p]
        for _ in range(4):
            m, _ = corpus.random_unimodular(r, p.rank)
            image = convex_hull(p.rank, [tuple(sum(a * x for a, x in zip(row, v)) for row in m)
                                         for v in p.vertices])
            got = lattice_points(image)
            assert got == brute_lattice_points(image.rank, image.inequalities), image
            assert got == tuple(sorted(tuple(dot(row, x) for row in m) for x in pts))
            images.append(image)
        vertical += sum(any(not u[i] for u, _ in rows)
                        for q in images for i, rows in enumerate(_levels(q)))
    assert vertical >= 2 * len(bases)


def test_lattice_points_builds_no_hull(monkeypatch):
    # one double description pass per projected level, and no Polyhedron
    r = corpus.rng(513)
    ps = [_flat_polytope(r, rank, dim) for rank in range(1, 6) for dim in range(rank + 1)]
    hulls, passes = [], []
    hull = Polyhedron.from_points_and_rays.__func__
    dd = polyhedral.dual_description

    def counted_hull(cls, *args, **kwargs):
        hulls.append(args)
        return hull(cls, *args, **kwargs)

    def counted_dd(*args):
        passes.append(args)
        return dd(*args)

    monkeypatch.setattr(Polyhedron, "from_points_and_rays", classmethod(counted_hull))
    monkeypatch.setattr(polyhedral, "dual_description", counted_dd)
    for p in ps:
        del passes[:]
        assert lattice_points(p) == _box_scan(p)
        assert len(passes) == p.rank - 1
    assert hulls == []


def _random_rational_points(r, rank, count, bound, dens):
    return [tuple(Fraction(r.randint(-bound, bound), r.choice(dens))
                  for _ in range(rank))
            for _ in range(count)]


def _check_lineality_entries(rank, pts):
    """The lineality rows that the hull's first double description pass
    returns stay within twice the largest maximal minor of its generator
    rows, the size of a Cramer's-rule basis of the same kernel."""
    rows = sorted({primitive(p + (1,)) for p in pts})
    _, lin = dual_description(rank + 1, rows)
    k = rational_rank(rows)
    minor = max(abs(_int_det([[a[j] for j in cols] for a in sub]))
                for sub in itertools.combinations(rows, k)
                for cols in itertools.combinations(range(rank + 1), k))
    assert max((abs(x) for l in lin for x in l), default=0) <= 2 * minor, (pts, lin)


def test_lower_dimensional_hull_lineality_stays_small():
    # the double description keeps the lineality of a lower-dimensional
    # hull saturated by Euclid steps, which reduce no row by a gcd; no
    # entry may grow with every step
    f = Fraction
    p = corpus.within(5, convex_hull, 4, [
        (1, -4, 0, -3), (f(-4, 3), f(2, 3), f(2, 3), 2), (0, f(-3, 2), f(-4, 3), 0)])
    assert p.affine_dimension() == 2 and len(p.vertices) == 3
    r = corpus.rng(5)
    for _ in range(150):
        rank = r.choice([4, 5])
        dens = r.choice([(1,), (1, 1, 2, 3)])
        pts = _random_rational_points(r, rank, r.randint(2, rank), 4, dens)
        hull = corpus.within(2, convex_hull, rank, pts)
        assert all(hull.contains(x) for x in pts)
        _check_lineality_entries(rank, pts)
    r = corpus.rng(8)
    for _ in range(40):
        pts = _random_rational_points(r, 6, r.randint(2, 6), 50, (1, 2, 3))
        hull = corpus.within(2, convex_hull, 6, pts)
        assert all(hull.contains(x) for x in pts)
        _check_lineality_entries(6, pts)
    # rank 6-7 with two-digit entries: a Smith-based saturation stalled here
    r = corpus.rng(6)
    for _ in range(60):
        rank = r.choice([6, 7])
        pts = _random_rational_points(r, rank, r.randint(2, rank), 99, (1, 2, 3))
        hull = corpus.within(2, convex_hull, rank, pts)
        assert all(hull.contains(x) for x in pts)
        assert hull.affine_dimension() == rational_rank(
            [[a - b for a, b in zip(x, pts[0])] for x in pts[1:]])


def _check_lower_dimensional_cone(rank, gens):
    c = corpus.within(2, Cone.from_generators, rank, gens)
    assert c.dimension() == rational_rank(gens)
    assert len(c.facet_lines) == rank - c.dimension()
    assert all(dot(h, g) == 0 for h in c.facet_lines for g in gens)


def test_lower_dimensional_cone_in_high_rank():
    _check_lower_dimensional_cone(6, [(-31, -71, 60, -52, -11, -25),
                                      (-82, -57, -59, -34, 36, -56)])
    r = corpus.rng(7)
    for _ in range(60):
        rank = r.randint(4, 7)
        _check_lower_dimensional_cone(rank, [
            corpus.random_vector(r, rank, -99, 99)
            for _ in range(r.randint(1, rank - 1))])


def test_lattice_points_unbounded_raises():
    p = Polyhedron.from_points_and_rays(2, [(0, 0)], [(1, 1)])
    with pytest.raises(UnboundedError, match="Unbounded"):
        lattice_points(p)


def test_membership_scaling_cases():
    q = convex_hull(
        3, [(Fraction(-1, 2), Fraction(1, 2), 0), (Fraction(1, 2), Fraction(1, 2), 0)]
    )
    assert membership_scaling(q, (0, 1, 0))
    assert not membership_scaling(q, (0, 0, 1))
    assert not membership_scaling(q, (0, 0, 0))
    assert not membership_scaling(Polyhedron.empty(3), (1, 0, 0))
    ray = Polyhedron.from_points_and_rays(1, [(1,)], [(1,)])
    assert membership_scaling(ray, (1,))
    assert not membership_scaling(ray, (-1,))


def test_membership_scaling_against_sampling():
    r = corpus.rng(108)
    for _ in range(120):
        rank = 2
        p = corpus.random_polytope(r, rank, lo=-3, hi=3)
        v = corpus.random_vector(r, rank, -3, 3)
        got = membership_scaling(p, v)
        # candidate scalings where some inequality switches sign
        cands = set()
        for u, c in p.inequalities:
            a = dot(u, v)
            if a != 0 and c != 0:
                lam = Fraction(-c, a)
                if lam > 0:
                    cands.add(lam)
        cands.add(Fraction(1))
        pts = sorted(cands)
        probes = list(pts)
        for x, y in zip(pts, pts[1:]):
            probes.append((x + y) / 2)
        probes.append(pts[-1] + 1)
        probes.append(pts[0] / 2)
        expected = any(
            p.contains(tuple(lam * x for x in v)) for lam in probes if lam > 0
        )
        assert got == expected


def _scaling_reference(q, v):
    """The Fraction loop: each bound -<u, v> / c built as a Fraction."""
    if not any(v):
        return False
    lower = []
    upper = []
    for u, c in q.inequalities:
        s = Fraction(dot(u, v))
        if c == 0:
            if s < 0:
                return False
        elif c > 0:
            lower.append(-s / c)
        else:
            upper.append(s / -c)
    if not upper:
        return True
    hi = min(upper)
    lo = max(lower) if lower else Fraction(0)
    if lo > 0:
        return lo <= hi
    return hi > 0


def test_membership_scaling_against_fraction_reference():
    r = corpus.rng(1301)
    cases = _row_cases(1301)
    for rank in range(1, 5):
        for _ in range(4):
            # a vertex at 0 gives rows with c = 0
            pts = [(0,) * rank, corpus.random_vector(r, rank, -2, 2)]
            rays = [corpus.random_vector(r, rank, -2, 2) for _ in range(r.randint(0, rank))]
            cases.append(Polyhedron.from_points_and_rays(rank, pts, rays))
    kinds = set()
    verdicts = set()
    for q in cases:
        vs = [corpus.random_vector(r, q.rank, -3, 3) for _ in range(6)]
        vs += [h[:-1] for h in q.homogeneous] + list(q.rays) + list(q.lines)
        vs += [tuple(Fraction(x, 2) for x in v) for v in vs[:2]]
        vs.append((0,) * q.rank)
        for v in vs:
            got = membership_scaling(q, v)
            assert got == _scaling_reference(q, v), (q, v)
            verdicts.add(got)
        kinds.add("empty" if q.is_empty else "lines" if q.lines
                  else "rays" if q.rays else "bounded")
        if any(c == 0 and any(u) for u, c in q.inequalities):
            kinds.add("c = 0")
    assert kinds == {"empty", "lines", "rays", "bounded", "c = 0"}
    assert verdicts == {True, False}


def test_membership_scaling_builds_no_fraction(monkeypatch):
    q = _flat_polytope(corpus.rng(1302), 3, 3)
    assert q.affine_dimension() == 3 and not q.is_lattice
    vs = [h[:-1] for h in q.homogeneous] + [(1, 0, 0), (0, -1, 2)]
    made = _count_fractions(monkeypatch)
    for v in vs:
        membership_scaling(q, v)
    assert made == []


def _normal_fan(p):
    """The normal fan of a full-dimensional polytope as the fan of its
    polarized pair: the dual of the cone over p, moved so that the
    barycentre of its vertices is the origin."""
    shift = tuple(Fraction(-sum(x), len(p.vertices)) for x in zip(*p.vertices))
    q = corpus.translated(p, shift)
    tau = Cone.from_generators(p.rank + 1, q.homogeneous).dual()
    return PolarizedToricVariety.from_cone(tau).fan


def test_normal_fan_triangle():
    tri = convex_hull(2, [(0, 0), (1, 0), (0, 1)])
    fan = _normal_fan(tri)
    assert fan.rays == ((-1, -1), (0, 1), (1, 0))
    assert len(fan.maximal_cones) == 3
    for cone_idx in fan.maximal_cones:
        assert len(cone_idx) == 2


def test_normal_fan_hexagon():
    segs = [
        convex_hull(2, [(0, 0), (1, 0)]),
        convex_hull(2, [(0, 0), (0, 1)]),
        convex_hull(2, [(0, 0), (1, 1)]),
    ]
    total = segs[0]
    for s in segs[1:]:
        total = minkowski_sum(total, s)
    fan = _normal_fan(total)
    assert set(fan.rays) == {
        (1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1),
    }
    assert len(fan.maximal_cones) == 6


def test_normal_fan_against_fraction_reference():
    r = corpus.rng(1303)
    checked = 0
    for rank in range(1, 5):
        for _ in range(8):
            p = _flat_polytope(r, rank, rank)
            if p.affine_dimension() != rank:
                continue
            fan = _normal_fan(p)
            assert (fan.rays, fan.maximal_cones) == normal_fan_reference(p)
            checked += 1
    assert checked > 15


def test_affine_dimension_against_vertex_differences():
    # the dimension is recorded by each constructor's hull: the seeded
    # cases, their Minkowski sums, translates and (bounded) scales
    r = corpus.rng(1304)
    cases = _row_cases(1304)
    made = list(cases)
    for p in cases:
        made.append(minkowski_sum(p, r.choice([q for q in cases if q.rank == p.rank])))
        made.append(corpus.translated(
            p, tuple(_small_rational(r) for _ in range(p.rank))))
        if p.is_bounded:
            f = Fraction(r.randint(1, 5), r.randint(1, 3))
            if not p.is_empty:
                made.append(convex_hull(p.rank, [[f * x for x in v]
                                                 for v in p.vertices]))
    kinds = set()
    for p in made:
        if p.is_empty:
            assert p.affine_dimension() == -1
            continue
        v0 = p.vertices[0]
        rows = [tuple(a - b for a, b in zip(v, v0)) for v in p.vertices[1:]]
        assert p.affine_dimension() == rational_rank(rows + list(p.rays + p.lines))
        kinds.add("flat" if p.affine_dimension() < p.rank else "full")
    assert kinds == {"flat", "full"}


def test_normal_fan_requires_bounded_full_dim():
    # a flat polytope's cone has a dual with a line; a recession ray puts
    # e0 on the boundary of the dual
    flat = Cone.from_generators(3, [(0, 0, 1), (1, 0, 1)]).dual()
    with pytest.raises(ValueError, match="strongly convex"):
        PolarizedToricVariety.from_cone(flat)
    ray = Cone.from_generators(3, [(0, 0, 1), (1, 0, 0), (0, 1, 1)]).dual()
    with pytest.raises(OriginNotInteriorError):
        PolarizedToricVariety.from_cone(ray)


def test_polyhedron_json_roundtrip():
    p = convex_hull(2, [(Fraction(1, 2), 0), (1, 1), (0, 0)])
    blob = json.dumps(p.to_json(), sort_keys=True)
    again = Polyhedron.from_json(json.loads(blob))
    assert again == p
    assert json.dumps(again.to_json(), sort_keys=True) == blob


def test_polyhedron_json_with_rays_and_empty():
    p = Polyhedron.from_points_and_rays(2, [(0, 0), (1, 0)], [(0, 1)])
    assert Polyhedron.from_json(p.to_json()) == p
    e = Polyhedron.empty(2)
    assert Polyhedron.from_json(e.to_json()) == e


def test_polyhedron_json_rejects_non_integral_num_den():
    with pytest.raises(ValueError, match="non-integral coordinate 1/2"):
        Polyhedron.from_json({"vertices": [[[1, 2], [0, 1]], [[0.5, 1], [1, 1]]]})
    with pytest.raises(ValueError, match="non-integral coordinate 3/2"):
        Polyhedron.from_json({"vertices": [[[1, 1], [1, 1.5]]]})
    p = Polyhedron.from_json({"vertices": [[[1, 2], [0, 1]], [["3", 1], [1, 1.0]]]})
    assert p.vertices == ((Fraction(1, 2), 0), (3, 1))


def test_is_lattice():
    assert convex_hull(2, [(0, 0), (3, 1)]).is_lattice
    assert not convex_hull(2, [(Fraction(1, 2), 0), (1, 1)]).is_lattice
    # the representative of (1, 0) + R(1, 1) is (1/2, -1/2), but the line
    # meets the lattice; (1/2, 0) + R(1, 1) and (1/3, 0, 0) + R(1, 2, 0) do not
    f = Fraction
    for pt, line, want in [((1, 0), (1, 1), True), ((f(1, 2), 0), (1, 1), False),
                           ((f(1, 3), 0, 0), (1, 2, 0), False)]:
        p = convex_hull(len(pt), [pt], [line, vneg(line)])
        assert p.is_lattice is want and _is_lattice_reference(p) is want, p


def _is_lattice_reference(p):
    """Every minimal face v + L meets the lattice, searched along the
    lines: with l_1..l_m a Z-basis of the lattice of L, some v + sum of
    (j_i/d)*l_i with 0 <= j_i < d is integral, d the denominator of v."""
    for h in p.homogeneous:
        d = h[-1]
        if not any(all((x + sum(j * l[i] for j, l in zip(js, p.lines))) % d == 0
                       for i, x in enumerate(h[:-1]))
                   for js in itertools.product(range(d), repeat=len(p.lines))):
            return False
    return True


def test_is_lattice_with_lines_against_reference():
    r = corpus.rng(1208)
    cases = [p for p in _row_cases(1208) if p.lines]
    for _ in range(60):
        rank = r.randint(2, 4)
        pts = [tuple(_small_rational(r) for _ in range(rank)) for _ in range(r.randint(1, 3))]
        lines = [corpus.random_vector(r, rank, -2, 2) for _ in range(r.randint(1, min(2, rank - 1)))]
        cases.append(convex_hull(rank, pts, lines + [vneg(l) for l in lines]))
    seen = set()
    for p in cases:
        want = _is_lattice_reference(p)
        assert p.is_lattice is want, p
        seen.add((want, all(h[-1] == 1 for h in p.homogeneous), len(p.lines) > 1))
    # lattice faces with rational representatives, and faces with two lines
    assert {(True, False), (False, False), (True, True)} <= {s[:2] for s in seen}
    assert any(s[2] for s in seen)


# ------------------------------------------------------ the carried cone


def test_polyhedron_keeps_the_cone_over_it():
    cases = _row_cases(1206)
    cases += [minkowski_sum(a, b) for a, b in zip(cases[::2], cases[1::2]) if a.rank == b.rank]
    kinds = set()
    for p in cases:
        rows = list(p.homogeneous) + [x + (0,) for x in p.rays]
        rows += [s + (0,) for l in p.lines for s in (l, vneg(l))]
        assert p.cone == Cone.from_generators(p.rank + 1, rows), p
        back = Polyhedron(p.cone)
        assert back == p and back.to_json() == p.to_json(), p
        assert back.cone is p.cone or p.is_empty
        kinds.add("empty" if p.is_empty else "lines" if p.lines
                  else "rays" if p.rays
                  else "flat" if p.affine_dimension() < p.rank else "bounded")
        if any(h[-1] > 1 for h in p.homogeneous):
            kinds.add("rational")
    assert kinds == {"empty", "lines", "rays", "flat", "bounded", "rational"}
    assert Polyhedron.empty(3).cone == Cone.from_generators(4, [])


def test_polyhedron_refuses_cones_below_height_zero():
    for gens in ([(0, 1), (1, -1)], [(1, 1), (-1, -1), (0, 1)],
                 [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 0, -1)]):
        with pytest.raises(ValueError, match="below height 0"):
            Polyhedron(Cone.from_generators(len(gens[0]), gens))
    # rays at height 0 alone: the slice at height 1 is empty, its cone {0}
    p = Polyhedron(Cone.from_generators(3, [(1, 0, 0), (0, 1, 0)]))
    assert p.is_empty and p == Polyhedron.empty(2)
    assert p.cone == Cone.from_generators(3, [])


def _fraction_gram_schmidt(rows):
    ortho = []
    for b in rows:
        b = [Fraction(x) for x in b]
        for o in ortho:
            b = _off(b, o)
        ortho.append(b)
    return ortho


def _off(v, o):
    # v less its projection on o, in Fractions
    return [x - dot(v, o) / dot(o, o) * y for x, y in zip(v, o)]


def _prim_fraction(v):
    den = math.lcm(*[Fraction(x).denominator for x in v])
    return prim([int(x * den) for x in v])


def _inequality_reference(p):
    """(the inequalities, whether the height row was a facet) of a nonempty
    p, by checking, in Fractions, that its cone's pointed facets F are
    every facet of K = cone(generator rows) + S, S the complement of
    their span.  Each f in F is primitive, orthogonal to S, nonnegative
    on the generators and tight on generators of rank rank - 1 with S: a
    facet of K.  F and S leave exactly the span L of p's lines as
    lineality, and every extreme ray of the pointed cone
    {x in (S + L)^perp : F >= 0} (brute_rays_from_normals, whose cost
    follows the facets, not the generators) is a generator's projection
    off L: so F cuts out K and misses no facet.  The facets of the cone
    over p x {1} are then F and +/- the saturated Hermite basis of S,
    less the facet parallel to e_last's projection off S, if that is
    one."""
    rank = p.rank + 1
    gens = list(p.homogeneous) + [r + (0,) for r in p.rays]
    gens += [s + (0,) for l in p.lines for s in (l, vneg(l))]
    lines = [l + (0,) for l in p.lines]
    perp = list(saturate_rowspan(rational_kernel(gens, rank)))
    pointed = list(p.cone.pointed_facets)
    for f in pointed:
        assert prim(f) == f and all(dot(f, s) == 0 for s in perp), f
        assert all(dot(f, g) >= 0 for g in gens), f
        assert rational_rank([g for g in gens if dot(f, g) == 0] + perp) == rank - 1, f
    assert rational_rank(pointed + perp) == rank - len(lines)
    ortho_lines = _fraction_gram_schmidt(lines)
    projected = set()
    for g in gens:
        for o in ortho_lines:
            g = _off(g, o)
        if any(g):
            projected.add(_prim_fraction(g))
    rays = brute_rays_from_normals(rank, pointed, perp + lines)
    assert rays and set(rays) <= projected, p
    folded = [s for b in perp for s in (b, vneg(b))]
    facets = set(pointed) | set(folded)
    height = [Fraction(int(i == rank - 1)) for i in range(rank)]
    for o in _fraction_gram_schmidt(perp):
        height = _off(height, o)
    height = _prim_fraction(height)
    found = height in facets
    return sorted((f[:-1], f[-1]) for f in facets - {height}), found


def test_polyhedron_is_its_cone():
    # Polyhedron(c) reads every part off c; the inequalities drop the
    # height row where it is a facet: over single points, translated cones
    # and half-lines, each with and without lines
    r = corpus.rng(1208)
    cases = _row_cases(1208) + [Polyhedron.empty(rank) for rank in range(1, 5)]
    sums = []
    for name in PRESETS["datum"]:
        d = preset("datum", name)[0]
        cases += list(d.summands)
        sums.append(d.q)
    cases += [p2_polytope(), p2_p114_family().q_tilde]
    for fano, md in corpus.random_mutation_cases(4):
        cases += [fano.polytope, md.factor, mutate(fano, md).polytope]
        cases += [layer.factor_part for layer in md.witnesses]
    for _ in range(8):
        for rank in (1, 2, 3):
            pt = tuple(_small_rational(r) for _ in range(rank))
            line = corpus.random_vector(r, rank, -2, 2)
            for rays in ([], [corpus.random_vector(r, rank, -2, 2)],
                         [corpus.random_vector(r, rank, -2, 2) for _ in range(rank + 1)]):
                rays = [x for x in rays if any(x)]
                cases.append(Polyhedron.from_points_and_rays(rank, [pt], rays))
                if any(line):
                    cases.append(Polyhedron.from_points_and_rays(
                        rank, [pt], rays + [line, vneg(line)]))
    kinds = set()
    for p in cases:
        c = p.cone
        q = Polyhedron(c)
        assert q == p and q.cone is c and p.split is None and q.split is None, p
        assert hash(q) == hash(p) == hash(c)
        assert q.homogeneous == p.homogeneous and q.inequalities == p.inequalities
        assert p.rank == c.rank - 1 and p.affine_dimension() == c.dimension() - 1
        for o in cases[::17]:
            assert (o == p) == (o.cone == c)
        if p.is_empty:
            assert p.inequalities == (((0,) * p.rank, -1),)
            assert c == Cone.from_generators(p.rank + 1, [])
            continue
        # the height row is a facet iff the recession cone has P's dimension
        rec = [r + (0,) for r in p.rays + p.lines]
        facet = rational_rank(rec) == rational_rank(rec + list(p.homogeneous)) - 1
        if not facet:
            assert p.inequalities == tuple((f[:-1], f[-1]) for f in c.facets)
        want, dropped = _inequality_reference(p)
        assert list(p.inequalities) == want and dropped == facet, p
        if facet:
            kinds.add(("point" if not p.rays else "half-line" if len(p.rays) == 1
                       else "cone", bool(p.lines)))
    assert kinds == {(k, l) for k in ("point", "half-line", "cone") for l in (False, True)}
    assert convex_hull(2, [(0, 0)]).split is None
    for q in sums:  # only minkowski_sum records a split
        back = Polyhedron(q.cone)
        assert back == q and hash(back) == hash(q)
        assert q.split is not None and back.split is None


def test_lattice_hull_builds_no_fraction_until_vertices_are_read(monkeypatch):
    r = corpus.rng(1207)
    pts = [corpus.random_vector(r, 3, -3, 3) for _ in range(8)]
    made = _count_fractions(monkeypatch)
    p, q = convex_hull(3, pts), convex_hull(3, pts[::-1])
    assert p.lattice_vertices() and p.is_lattice and not p.is_empty
    assert p == q and hash(p) == hash(q)
    assert made == []
    assert len(p.vertices) > 3 and len(made) == p.rank * len(p.vertices)
