"""Cox-coordinate layer: equation emission, grading, regularity
certificates, aliasing and the printer."""

import random
from fractions import Fraction
from operator import add

import pytest

from toricdeform.cox import (
    AliasTable,
    CoxPolynomial,
    NegativeExponentError,
    PairingData,
    Term,
    binomials,
    boundary_monomial,
    cox_system,
    disjoint_support_regular_sequence,
    fischer_shapiro_check,
    is_degenerate_monomial,
    is_homogeneous,
    monomial,
    pretty,
    term_degree,
    trinomials,
)
from toricdeform.datum import build_tilde
from toricdeform.lattice import AbelianGroupPresentation, dot
from toricdeform.presets import (
    PRESETS,
    ca1_alias,
    ca1_datum,
    hexagon_data,
    preset,
    toy_plane_datum,
)

import corpus
from oracles import (
    affine_regular_sequence, integer_kernel, invariant_factors_oracle)


# ------------------------------------------------------------ equations


def test_ca1_equations_frozen():
    t = build_tilde(ca1_datum(3))
    bs = binomials(t)
    assert len(bs) == 1
    by_ray = dict(zip(t.rays, bs[0].terms[0].exps))
    assert by_ray[(0, 0, 0, 1)] == 1 and by_ray[(1, 0, 0, 1)] == 1
    neg = dict(zip(t.rays, bs[0].terms[1].exps))
    assert neg[(-1, 1, 0, -2)] == 2
    ts = trinomials(t)
    assert len(ts) == 1
    third = ts[0].terms[2]
    assert third.param == "t1" and third.coeff == -1
    assert dict(zip(t.rays, third.exps))[(0, 0, 1, 0)] == 3
    mono = boundary_monomial(t)
    got = dict(zip(t.rays, mono.terms[0].exps))
    assert got == {(-1, 1, 0, -2): 1, (0, 0, 0, 1): 0, (0, 0, 1, 0): 1,
                   (1, 0, 0, 1): 0}
    assert not is_degenerate_monomial(mono)


def test_ca1_pretty_strings():
    for p, ztail in ((1, "z"), (2, "z^2"), (3, "z^3"), (5, "z^5")):
        t = build_tilde(ca1_datum(p))
        alias = ca1_alias(t.rays)
        assert pretty(trinomials(t)[0], t.rays, alias) == \
            "x*y - u^2 - t1*" + ztail
        assert pretty(binomials(t)[0], t.rays, alias) == "x*y - u^2"
        assert pretty(boundary_monomial(t), t.rays, alias) == "z*u"


def test_toy_plane_strings():
    t = build_tilde(toy_plane_datum())
    assert pretty(trinomials(t)[0], t.rays) == "x0 - x1 - t1"
    assert pretty(binomials(t)[0], t.rays) == "x0 - x1"
    assert pretty(boundary_monomial(t), t.rays) == "x1*x2"


def test_hexagon_equation_counts():
    a, b = hexagon_data()
    ta, tb = build_tilde(a), build_tilde(b)
    assert (len(trinomials(ta)), len(trinomials(tb))) == (2, 1)
    assert (len(binomials(ta)), len(binomials(tb))) == (2, 1)


def test_trinomial_negative_exponent_rejected():
    # nonsense pairing: <w~, ray> + z-part goes negative
    fake = PairingData(n=1, k=1, rays=((2, -1),), w_tilde=(-1, 0))
    with pytest.raises(NegativeExponentError, match="NegativeExponent"):
        trinomials(fake)


# ------------------------------------------------------------ polynomials


def test_substitute_parameter_to_zero_gives_binomial():
    for d in (ca1_datum(2), toy_plane_datum(), *hexagon_data()):
        t = build_tilde(d)
        for tri, bi in zip(trinomials(t), binomials(t)):
            assert tri.substitute({"t1": 0, "t2": 0}).terms == bi.terms


def test_substitute_merges_and_cancels():
    f = CoxPolynomial(terms=(
        Term(Fraction(1), None, (1, 0)),
        Term(Fraction(-1), "t1", (1, 0)),
    ))
    assert f.substitute({"t1": 1}).terms == ()
    g = f.substitute({"t1": -2})
    assert g.terms == (Term(Fraction(3), None, (1, 0)),)
    assert f.substitute({"t1": Fraction(1, 2)}).terms == (
        Term(Fraction(1, 2), None, (1, 0)),)
    for bad in (0.1, 1.0):
        with pytest.raises(TypeError, match="int or Fraction"):
            f.substitute({"t1": bad})


def test_proportional_up_to_scalar():
    f = CoxPolynomial(terms=(
        Term(Fraction(2), None, (1, 0)), Term(Fraction(-4), "t1", (0, 1))))
    g = CoxPolynomial(terms=(
        Term(Fraction(-1), None, (1, 0)), Term(Fraction(2), "t1", (0, 1))))
    h = CoxPolynomial(terms=(
        Term(Fraction(1), None, (1, 0)), Term(Fraction(2), "t1", (0, 1))))
    assert f.proportional(g)
    assert not f.proportional(h)
    assert not f.proportional(monomial((1, 0)))


def test_proportional_normalises_terms():
    # zero terms drop out and like terms merge before the comparison
    f = CoxPolynomial(terms=(Term(Fraction(0), None, (1, 0)),
                             Term(Fraction(1), None, (0, 1))))
    assert f.proportional(f)
    assert f.proportional(CoxPolynomial(terms=(Term(Fraction(3), None, (0, 1)),)))
    x = monomial((1, 0))
    assert CoxPolynomial(terms=x.terms * 2).proportional(
        CoxPolynomial(terms=(Term(Fraction(2), None, (1, 0)),)))
    assert not CoxPolynomial(terms=x.terms * 2).proportional(
        CoxPolynomial(terms=x.terms + monomial((0, 1)).terms))


def test_negative_exponent_polynomial_rejected():
    with pytest.raises(ValueError, match="negative exponent"):
        CoxPolynomial(terms=(Term(Fraction(1), None, (1, -1)),))


def test_polynomial_to_json():
    # one coefficient string per branch of _coeff_string: a bare number, a
    # parameter alone, and a parameter with a magnitude
    polys = [
        monomial((1, 0, 2)),
        CoxPolynomial(terms=(Term(Fraction(-1, 2), None, (0, 1, 0)),)),
        CoxPolynomial(terms=(Term(Fraction(5), "t1", (2, 0, 0)),)),
        CoxPolynomial(terms=(
            Term(Fraction(1), None, (1, 1, 0)),
            Term(Fraction(-1), None, (0, 0, 2)),
            Term(Fraction(-3, 7), "a", (0, 3, 0)),
        )),
    ]
    assert [f.to_json() for f in polys] == [
        {"terms": [{"coeff": "+1", "exps": [1, 0, 2]}]},
        {"terms": [{"coeff": "-1/2", "exps": [0, 1, 0]}]},
        {"terms": [{"coeff": "+5*t1", "exps": [2, 0, 0]}]},
        {"terms": [{"coeff": "+1", "exps": [1, 1, 0]},
                   {"coeff": "-1", "exps": [0, 0, 2]},
                   {"coeff": "-3/7*a", "exps": [0, 3, 0]}]},
    ]
    t = build_tilde(ca1_datum())
    assert [f.to_json() for f in (*binomials(t), *trinomials(t),
                                  boundary_monomial(t))] == [
        {"terms": [{"coeff": "+1", "exps": [0, 1, 0, 1]},
                   {"coeff": "-1", "exps": [2, 0, 0, 0]}]},
        {"terms": [{"coeff": "+1", "exps": [0, 1, 0, 1]},
                   {"coeff": "-1", "exps": [2, 0, 0, 0]},
                   {"coeff": "-t1", "exps": [0, 0, 3, 0]}]},
        {"terms": [{"coeff": "+1", "exps": [1, 0, 1, 0]}]},
    ]


def test_degenerate_monomial_flag():
    assert is_degenerate_monomial(monomial((0, 0)))
    assert not is_degenerate_monomial(monomial((0, 1)))


# ------------------------------------------------------------ grading


def test_equations_homogeneous_on_corpus():
    for d in corpus.random_valid_data(911, 10):
        t = build_tilde(d)
        sys = cox_system(t.rays, t.n + t.k)
        for f in (*binomials(t), *trinomials(t)):
            flag, deg = is_homogeneous(sys, f)
            assert flag, (f, deg)


def test_term_degree_additive():
    # the degree of a product is the class of the sum of the factors'
    # representatives
    t = build_tilde(ca1_datum())
    sys = cox_system(t.rays, t.n + t.k)
    a = Term(Fraction(1), None, (1, 0, 2, 0))
    b = Term(Fraction(1), None, (0, 3, 0, 1))
    ab = Term(Fraction(1), None, (1, 3, 2, 1))
    da, db, dab = (term_degree(sys, x) for x in (a, b, ab))
    summed = Term(Fraction(1), None, tuple(map(add, da, db)))
    assert term_degree(sys, summed) == dab
    assert term_degree(sys, Term(Fraction(1), None, dab)) == dab


def test_inhomogeneous_detected():
    sys = cox_system(((1, 0), (0, 1), (-1, -1)), 2)
    f = CoxPolynomial(terms=(
        Term(Fraction(1), None, (1, 0, 0)),
        Term(Fraction(-1), None, (2, 0, 0)),
    ))
    flag, deg = is_homogeneous(sys, f)
    assert not flag and deg is None
    with pytest.raises(ValueError, match="2 exponents for 3 variables"):
        term_degree(sys, Term(Fraction(1), None, (1, 0)))


def test_cox_system_rejects_nonspanning_rays():
    for rays, rank in [
            (((1, 0), (2, 0)), 2),  # parallel
            (((1, 0, 0), (0, 1, 0), (-1, -1, 0), (2, 3, 0)), 3),  # in a plane
            (((1, 0, 0), (0, 1, 0)), 3),  # fewer rays than the rank
            ((), 2)]:  # no rays
        with pytest.raises(ValueError) as err:
            cox_system(rays, rank)
        assert str(err.value) == (
            "rays do not span; the quotient would pick up a torus factor")


def test_cox_system_is_unimodular_covariant():
    # a change of the whole lattice by U with entries between 10^3 and 10^4
    # moves every ray by U: the relations (<ray_j, m>)_j, m in M, stay the
    # same lattice, so the class group, the Hermite relations and every
    # degree stay.  The printed weights read the Smith basis of the rays,
    # which is not covariant, so they are checked only at free rank 1,
    # against the primitive relation of the moved rays
    r = corpus.rng(1904)
    cases = [(build_tilde(d).rays, d.rank + d.k)
             for d in (ca1_datum(), toy_plane_datum(), *hexagon_data())]
    cases += [(p.vertices(), 2) for p in corpus.small_fano_polygons(12)]
    free_ranks = set()
    for rays, rank in cases:
        u, _ = corpus.large_unimodular(r, rank)
        moved = [corpus.matmul_vec(u, x) for x in rays]
        a = cox_system(rays, rank)
        b = corpus.within(1, cox_system, moved, rank)
        assert corpus.within(1, getattr, b, "group") == a.group
        assert b.relations == a.relations
        relations = integer_kernel(list(zip(*rays)))
        assert integer_kernel(list(zip(*moved))) == relations
        assert all(corpus.matmul_vec(list(zip(*moved)), c) == (0,) * rank for c in relations)
        if a.group.free_rank == 1:
            assert a.weights() == relations[0]
        free_ranks.add(a.group.free_rank)
    assert 1 in free_ranks and max(free_ranks) >= 2


def _budget_cases():
    """The random rank-4 ray matrices on which the Smith transform of the
    rays blew up (5-8 rays, entries in [-50, 50]), and every preset's
    enlarged cone moved by three large unimodular maps."""
    r = random.Random(11)
    cases = [([tuple(r.randint(-50, 50) for _ in range(4))
               for _ in range(r.randint(5, 8))], 4) for _ in range(150)]
    r = corpus.rng(2311)
    for d in (ca1_datum(), toy_plane_datum(), *hexagon_data()):
        rays, rank = build_tilde(d).rays, d.rank + d.k
        for _ in range(3):
            u, _ = corpus.large_unimodular(r, rank)
            cases.append(([corpus.matmul_vec(u, x) for x in rays], rank))
    return cases


def test_cox_system_within_budget():
    # the grading, the class group and the degrees need no Smith basis of
    # the rays, so each stays fast where that basis blows up; weights()
    # still reads it and is not called here
    r = corpus.rng(2312)
    cases = _budget_cases()
    assert len(cases) == 162
    for rays, rank in cases:
        sys = corpus.within(1, cox_system, rays, rank)
        factors = invariant_factors_oracle(rays)
        assert len(factors) == rank
        assert corpus.within(1, getattr, sys, "group") == AbelianGroupPresentation(
            len(rays) - rank, tuple(x for x in factors if x >= 2))
        e = Term(Fraction(1), None, tuple(r.randint(0, 9) for _ in rays))
        m = tuple(r.randint(-3, 3) for _ in range(rank))
        shifted = Term(Fraction(1), None,
                       tuple(x + dot(ray, m) for x, ray in zip(e.exps, rays)))
        assert (corpus.within(1, term_degree, sys, e)
                == corpus.within(1, term_degree, sys, shifted))


# ------------------------------------------------------------ regularity


def test_fischer_shapiro_on_corpus():
    for d in corpus.random_valid_data(912, 15):
        assert fischer_shapiro_check(build_tilde(d))


def test_fischer_shapiro_reads_a_tilde_as_its_pairings():
    # a TildeData is a NamedTuple, so a tuple, but not a pairing matrix:
    # it, its PairingData and its matrix give one verdict
    data = [preset("datum", name)[0] for name in PRESETS["datum"]]
    for d in data + list(corpus.random_valid_data(912, 15)):
        t = build_tilde(d)
        verdicts = {fischer_shapiro_check(x)
                    for x in (t, t.pairings, t.pairings.matrix)}
        assert len(verdicts) == 1, t.rays


def test_fischer_shapiro_rejects():
    assert not fischer_shapiro_check(((1, 1, 0), (1, -1, 0)))
    assert not fischer_shapiro_check(((1, 2), (2, 4)))
    assert fischer_shapiro_check(((1, -1, 0), (-1, 0, 1)))


def affine_certificate(polys, mono):
    """The reference certificate on the binomials' exponent vectors."""
    return affine_regular_sequence(
        [(f.terms[0].exps, f.terms[1].exps) for f in polys], mono.terms[0].exps)


def binomial(y, z):
    return CoxPolynomial(terms=(Term(Fraction(1), None, y),
                                Term(Fraction(-1), None, z)))


def test_regular_sequence_affine_shape():
    # every preset's binomials share their second monomial
    for d in (ca1_datum(), toy_plane_datum(), *hexagon_data()):
        t = build_tilde(d)
        bs = binomials(t)
        assert len({f.terms[1].exps for f in bs}) == 1
        assert affine_certificate(bs, boundary_monomial(t))
    # distinct second monomials: x0 - x2 and x1 - x3 with the monomial
    # x3*x4, whose x3 is already a group of its own
    f = binomial((1, 0, 0, 0, 0), (0, 0, 1, 0, 0))
    g = binomial((0, 1, 0, 0, 0), (0, 0, 0, 1, 0))
    assert affine_certificate((f, g), monomial((0, 0, 0, 1, 1)))


def test_regular_sequence_rejects_shared_support():
    f = binomial((1, 0, 0), (0, 0, 1))
    g = binomial((1, 1, 0), (0, 0, 1))
    # first monomials of f and g share the first variable
    assert not affine_certificate((f, g), monomial((0, 0, 0)))
    # distinct second monomials x2 and x2*x3 share x2
    f = binomial((1, 0, 0, 0), (0, 0, 1, 0))
    g = binomial((0, 1, 0, 0), (0, 0, 1, 1))
    assert not affine_certificate((f, g), monomial((0, 0, 0, 0)))


def test_regular_sequence_pencil_shape():
    tri = CoxPolynomial(terms=(
        Term(Fraction(1), "a", (2, 0, 0, 0)),
        Term(Fraction(1), "b", (0, 1, 0, 0)),
        Term(Fraction(1), "c", (0, 0, 1, 1)),
    ))
    assert disjoint_support_regular_sequence((tri,), monomial((1, 1, 0, 0)))
    shared = CoxPolynomial(terms=(
        Term(Fraction(1), "a", (2, 1, 0, 0)),
        Term(Fraction(1), "b", (1, 1, 0, 0)),
        Term(Fraction(1), "c", (1, 0, 1, 1)),
    ))
    # first variable divides every term
    assert not disjoint_support_regular_sequence(
        (shared,), monomial((1, 0, 0, 0)))


def test_regular_sequence_odd_shape_rejected():
    tri = CoxPolynomial(terms=(
        Term(Fraction(1), None, (1, 0)),
        Term(Fraction(-1), None, (0, 1)),
        Term(Fraction(-1), "t1", (0, 0)),
    ))
    with pytest.raises(ValueError, match="shape"):
        disjoint_support_regular_sequence((tri, tri), monomial((0, 0)))
    # the affine binomials are no pencil either
    t = build_tilde(ca1_datum())
    with pytest.raises(ValueError, match="shape"):
        disjoint_support_regular_sequence(binomials(t), boundary_monomial(t))


# ------------------------------------------------------------ printer


def test_alias_table_orders_output():
    t = build_tilde(ca1_datum())
    table = ca1_alias(t.rays)
    # boundary monomial prints in table order, z before u
    assert [table.name(r) for r in table.rays] == ["x", "y", "z", "u"]
    default = AliasTable.default(t.rays)
    assert default.names == ("x0", "x1", "x2", "x3")


def test_alias_unknown_ray_rejected():
    t = build_tilde(toy_plane_datum())
    with pytest.raises(ValueError, match="unknown ray"):
        AliasTable.from_pairs([((9, 9, 9), "bad")], t.rays)


def test_alias_ray_listed_twice_rejected():
    t = build_tilde(ca1_datum())
    with pytest.raises(ValueError, match="aliased twice"):
        AliasTable.from_pairs([(t.rays[3], "A"), (t.rays[3], "B")], t.rays)


def test_alias_name_given_to_two_rays_rejected():
    t = build_tilde(ca1_datum())
    with pytest.raises(ValueError, match="'A' is given to two rays"):
        AliasTable.from_pairs([(t.rays[0], "A"), (t.rays[3], "A")], t.rays)
    # a default name counts: ray 0 keeps x0 while ray 3 is called x0
    with pytest.raises(ValueError, match="'x0' is given to two rays"):
        AliasTable.from_pairs([(t.rays[3], "x0")], t.rays)


def test_pretty_coefficients():
    rays = ((1, 0), (0, 1))
    f = CoxPolynomial(terms=(
        Term(Fraction(3), None, (2, 0)),
        Term(Fraction(-1, 2), None, (0, 1)),
        Term(Fraction(-1), "t1", (0, 0)),
        Term(Fraction(5), "a", (1, 1)),
    ))
    assert pretty(f, rays) == "3*x0^2 - 1/2*x1 - t1 + 5*a*x0*x1"
    # a term with no variable and no parameter prints as its coefficient
    f = CoxPolynomial(terms=(Term(Fraction(1), None, (1, 0)),
                             Term(Fraction(-3), None, (0, 0))))
    assert pretty(f, rays) == "x0 - 3"
    lone = CoxPolynomial(terms=(Term(Fraction(-3), None, (0, 0)),))
    assert pretty(lone, rays) == "-3"


def test_pretty_zero_polynomial():
    assert pretty(CoxPolynomial(terms=()), ((1, 0),)) == "0"
