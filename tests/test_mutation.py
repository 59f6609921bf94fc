"""Polytope mutations: datum validation, the mutation map, the pencil
over P^1, induced boundary data and fiber specialization."""

import dataclasses
import itertools
from fractions import Fraction

import pytest

from toricdeform.cox import (
    cox_system,
    disjoint_support_regular_sequence,
    is_homogeneous,
    pretty,
)
from toricdeform.mutation import (
    MutationDatumError,
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

from toricdeform.projective import PolarizedToricVariety, projective_tilde
import toricdeform.mutation as mutation_module

import corpus


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
    assert (d.hmin, d.hmax) == (-1, 2)
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
    by_h = {layer.height: layer for layer in dinv.witnesses}
    assert set(map(tuple, by_h[-2].factor_part.vertices)) == {(0, 1)}
    assert by_h[-1].factor_part is None
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
    fano, d, _ = p114_setup()
    cases = _with_inverses(corpus.random_mutation_cases(10) + [(fano, d)])
    assert len(cases) == 22
    for fano, d in cases:
        want = _reference_factor_parts(fano, d)
        got = {layer.height: layer.factor_part for layer in d.witnesses}
        assert got == want, (fano.vertices(), d.w, d.factor.vertices)


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


def _rank3_cases():
    """Every valid (w, segment conv(0, e)) with w, e in {-1, 0, 1}^3 on
    the simplex and the octahedron."""
    units = [v for v in itertools.product((-1, 0, 1), repeat=3) if any(v)]
    cases = []
    for verts in (SIMPLEX_3, OCTAHEDRON):
        fano = validate_fano(convex_hull(3, verts))
        for w in units:
            for e in units:
                if dot(w, e):
                    continue
                try:
                    d = validate_mutation_datum(
                        fano, w, convex_hull(3, [(0, 0, 0), e]))
                except MutationDatumError:
                    continue
                cases.append((fano, d))
    return cases


def _covering_witnesses(fano, d):
    """The datum with each factor replaced by the hull of the translates
    v - (-h)f of vertices v of P that lie in the reference D_h."""
    regions = _reference_difference_regions(fano, d)
    fverts = d.factor.lattice_vertices()
    layers = []
    for layer in d.witnesses:
        h = layer.height
        cover = [x for v in layer.polytope_vertices for f in fverts
                 for x in [vadd(v, vscale(h, f))] if regions[h].contains(x)]
        if cover:
            layer = dataclasses.replace(
                layer, factor_part=convex_hull(fano.n, cover))
        layers.append(layer)
    return dataclasses.replace(d, witnesses=tuple(layers))


def test_rank3_mutations():
    cases = _rank3_cases()
    assert len(cases) == 36
    for fano, d in cases:
        mut = mutate(fano, d)
        dinv = validate_mutation_datum(mut, vneg(d.w), d.factor)
        assert mutate(mut, dinv).polytope == fano.polytope, d.w
        alt = mutate(fano, _covering_witnesses(fano, d))
        assert alt.polytope == mut.polytope, d.w
        fam = mutation_family(fano, d)
        assert specialize_fiber(fam, (1, 0, -1)).matched is True, d.w


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
    assert set(fam.upper_vertices) == {(0, 1)}
    assert set(fam.lower_vertices) == {(-1, -1)}


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


def test_pencil_enumerates_each_polytope_once(monkeypatch):
    enumerated = []

    def counting_lattice_points(p):
        enumerated.append(p)
        return lattice_points(p)

    monkeypatch.setattr(mutation_module, "lattice_points",
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
    assert enumerated == [fano.polytope]
    assert built == [3]  # the glued polytope Q~ of the pencil
    v = PolarizedToricVariety.from_cone(fam.induced_datum.sigma)
    projective_tilde(v, fam.induced_datum)
    assert built == [3]


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


def test_family_carries_induced_enlargement():
    fano, d, _ = p114_setup()
    fam = mutation_family(fano, d)
    assert fam.induced_datum == induced_boundary_datum(fano, d)
    assert set(fam.induced.tilde.rays) == {
        (0, 1, 1, 0), (-1, -1, 1, -1), (0, 0, 0, 1), (2, 1, 0, 1)}


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
