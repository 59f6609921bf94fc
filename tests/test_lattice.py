"""Integer linear algebra layer: normal forms, kernels, quotient gradings."""

import math
import random
from fractions import Fraction

import pytest

import corpus
from toricdeform import cox, lattice
from toricdeform.cox import Term, cox_system, is_homogeneous, term_degree
from toricdeform.lattice import (
    AbelianGroupPresentation,
    ZeroVectorError,
    as_fraction,
    as_int,
    as_int_vector,
    content,
    elementary_divisors,
    hermite_normal_form,
    is_integral,
    matrix_rank,
    primitive,
    saturate_rowspan,
    smith_normal_form,
    vector_from_json,
)
from toricdeform.polyhedral import Cone

import oracles
from oracles import _int_det, invariant_factors_oracle, rational_rank


def random_matrix(r, rows, cols, lo=-9, hi=9):
    return [[r.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_primitive_examples():
    assert primitive((2, -4, 6)) == (1, -2, 3)
    assert primitive((0, 5)) == (0, 1)
    assert primitive((-3,)) == (-1,)
    assert primitive((Fraction(1, 2), Fraction(3, 4))) == (2, 3)
    with pytest.raises(ZeroVectorError):
        primitive((0, 0, 0))


def test_primitive_fixes_scale_not_sign():
    # primitive keeps the direction, so opposite inputs stay opposite
    assert primitive((-2, 4)) == (-1, 2)
    assert primitive((2, -4)) == (1, -2)


# Fraction-based references: every coordinate goes through Fraction first.


def ref_primitive(u):
    fracs = [Fraction(a) for a in u]
    if all(f == 0 for f in fracs):
        raise ZeroVectorError("zero vector")
    den = math.lcm(*[f.denominator for f in fracs])
    ints = [int(f * den) for f in fracs]
    g = math.gcd(*ints)
    return tuple(a // g for a in ints)


def ref_is_integral(u):
    return all(Fraction(a).denominator == 1 for a in u)


def random_exact_vector(r):
    """Mixed int / Fraction coordinates: zeros, negatives, large values,
    bools, integral Fractions and proper fractions."""
    out = []
    for _ in range(r.randint(1, 6)):
        kind = r.randrange(7)
        if kind == 6:
            out.append(r.random() < 0.5)
            continue
        if kind == 0:
            out.append(0)
        elif kind == 1:
            out.append(r.randint(-9, 9))
        elif kind == 2:
            out.append(r.choice([-1, 1]) * r.randint(10 ** 20, 10 ** 30))
        elif kind == 3:
            out.append(Fraction(r.randint(-9, 9)))
        elif kind == 4:
            out.append(Fraction(r.randint(-50, 50), r.choice([2, 3, 4, 6, 7])))
        else:
            out.append(Fraction(r.randint(-10 ** 25, 10 ** 25),
                                r.randint(1, 10 ** 12)))
    return tuple(out)


def test_number_path_matches_fraction_reference():
    r = random.Random(911)
    kinds = set()
    for _ in range(3000):
        u = random_exact_vector(r)
        if r.random() < 0.05:
            u = tuple(0 * a for a in u)
        types = {type(a) for a in u}
        kinds.add("bool" if bool in types else "int" if types == {int}
                  else "Fraction" if types == {Fraction} else "mixed")
        if ref_is_integral(u):
            assert is_integral(u)
            cast = as_int_vector(u)
            assert cast == tuple(int(a) for a in u)
            assert all(type(a) is int for a in cast)
        else:
            assert not is_integral(u)
            with pytest.raises(ValueError, match="non-integral"):
                as_int_vector(u)
        try:
            expected = ref_primitive(u)
        except ZeroVectorError:
            with pytest.raises(ZeroVectorError):
                primitive(u)
            continue
        got = primitive(u)
        assert got == expected
        assert all(type(a) is int for a in got)
    assert kinds == {"bool", "int", "Fraction", "mixed"}


def test_number_path_edge_cases():
    for zero in ((), (0,), (0, 0, 0), (Fraction(0), 0)):
        with pytest.raises(ZeroVectorError):
            primitive(zero)
    assert is_integral(()) and as_int_vector(()) == ()
    assert as_int(Fraction(-6, 3)) == -2 and type(as_int(Fraction(4))) is int
    assert as_int(-7) == -7
    with pytest.raises(ValueError, match="non-integral"):
        as_int(Fraction(1, 2))
    assert as_fraction(3) == 3 and type(as_fraction(3)) is Fraction
    assert as_fraction(Fraction(-2, 4)) == Fraction(-1, 2)
    for bad in (0.5, 1.0, "1/2", None):
        with pytest.raises(TypeError, match="int or Fraction"):
            as_fraction(bad)
        with pytest.raises(TypeError, match="int or Fraction"):
            as_int(bad)
    for bad in ((0.5, 1), (1, 2.0)):
        with pytest.raises(TypeError, match="int or Fraction"):
            primitive(bad)
    assert primitive((True, False, True)) == (1, 0, 1)
    assert all(type(a) is int for a in primitive((True, 2)) + primitive((4, 6)))
    assert content((4, -6, 0)) == 2 and content(()) == 0
    with pytest.raises(TypeError):
        content((Fraction(3, 2), 3))
    # the normal forms cast through as_int: a non-integral entry raises,
    # never truncates (x/2 + y saturates to (1, 2), not to (0, 1))
    for nonintegral in (saturate_rowspan, smith_normal_form, hermite_normal_form):
        with pytest.raises(ValueError, match="non-integral coordinate 1/2"):
            nonintegral([[Fraction(1, 2), 1]])
    with pytest.raises(TypeError, match="int or Fraction"):
        smith_normal_form([[1.5, 2]])
    with pytest.raises(TypeError, match="int or Fraction"):
        hermite_normal_form([[1, 2.0]])
    assert saturate_rowspan([[Fraction(2), 4]]) == saturate_rowspan([[2, 4]]) == ((1, 2),)
    assert all(type(x) is int for x in saturate_rowspan([[Fraction(2), 4]])[0])
    for ragged in (saturate_rowspan, smith_normal_form):
        with pytest.raises(ValueError, match="ragged matrix"):
            ragged([[1, 2], [3]])
    assert all(type(x) is int for r in smith_normal_form([[Fraction(2), 4]]) for row in r
               for x in row)


@pytest.mark.parametrize("x, want, kind", [
    (3, 3, int), (0, 0, int), (-7, -7, int), (10**30, 10**30, int),
    ("3", 3, Fraction), ("-1/2", Fraction(-1, 2), Fraction),
    ([6, 4], Fraction(3, 2), Fraction), ([-4, 2], -2, Fraction),
    (2.0, 2, Fraction), (-0.0, 0, Fraction)])
def test_vector_from_json_types(x, want, kind):
    # a JSON integer stays an int; every other form reads as a Fraction
    got = vector_from_json([x, 1], "v")
    assert got == (want, 1)
    assert type(got[0]) is kind and type(got[1]) is int


def test_vector_from_json_errors():
    for bad, text in ((0.5, "non-integral coordinate 1/2"), ([1, 0], "bad coordinate"),
                      (True, "bad coordinate True"), ("x", "bad coordinate"),
                      ([1, 2, 3], "bad coordinate"), ([1.5, 1], "non-integral"),
                      (None, "bad coordinate None")):
        with pytest.raises(ValueError, match=text):
            vector_from_json([1, bad], "v")
    for empty in ([], 3, None):
        with pytest.raises(ValueError, match="v must be a non-empty coordinate list"):
            vector_from_json(empty, "v")


def smith_rows_check(a, u, d):
    """U is unimodular and U a = D V^-1 for a unimodular V: row i of U a
    is d_i times a primitive row, and those rows are saturated together."""
    ua = corpus.matmul(u, tuple(map(tuple, a)))
    assert _int_det(list(map(list, u))) in (1, -1)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    diag += [0] * (len(a) - len(diag))
    assert [content(row) for row in ua] == diag
    scaled = [[x // g for x in row] for row, g in zip(ua, diag) if g]
    if scaled:
        assert invariant_factors_oracle(scaled) == (1,) * len(scaled)


def test_smith_normal_form_single_row():
    u, d = smith_normal_form([[4, 6]])
    assert d == ((2, 0),)
    smith_rows_check([[4, 6]], u, d)


def test_smith_normal_form_divisibility_fix():
    u, d = smith_normal_form([[2, 0], [0, 3]])
    assert d == ((1, 0), (0, 6))
    smith_rows_check([[2, 0], [0, 3]], u, d)


def test_smith_normal_form_chain_step():
    # the first pass gives diag(2, 3); adding column 1 to column 0 and
    # running the pivot loop again from step 0 gives diag(1, 6), and the
    # free row of U is the first pass's
    a = ((2, 0), (0, 3), (-2, -3))
    u, d = smith_normal_form(a)
    assert d == ((1, 0), (0, 6), (0, 0))
    assert u[2] == (1, 1, 1)
    smith_rows_check(a, u, d)
    sys = cox_system(a, 2)
    assert str(sys.group) == "Z + Z/6"
    assert sys.weights() == (1, 1, 1)


# Rays drawn from random.Random(913) (entries in [-9, 9], 2-3 more rays
# than the rank) whose first Smith pass breaks d_1 | d_2 | ...; the
# weights were recorded when the chain came from a 2x2 Bezout transform.
# A chain step that touched the free rows of U would move them.
CHAIN_STEP_WEIGHTS = [
    (((-6, 2, -1), (-6, -3, 0), (-4, -2, -5), (2, -6, 9), (1, -7, 2)),
     "Z + Z + Z/3", (107, -96, 0, -5, 76)),
    (((1, 1, -9, 0), (-6, 5, -2, -6), (2, 6, 6, 2), (3, 1, -5, 2),
      (-1, -1, -3, -5), (2, 6, 0, 0), (5, -5, 3, 5)),
     "Z + Z + Z + Z/2", (5333, -1926, 1880, -6783, 350, 25, 0)),
    (((-5, 2, -5), (-9, 6, 3), (8, 4, 2), (9, 6, -9), (5, 5, 1)),
     "Z + Z + Z/6", (201, -11, 360, -66, -276)),
    (((2, 0), (-8, -7), (-4, -2), (4, 6)),
     "Z + Z + Z/2", (6, -2, 7, 0)),
]


@pytest.mark.parametrize("rays, group, weights", CHAIN_STEP_WEIGHTS)
def test_weights_pinned_through_the_chain_step(rays, group, weights):
    sys = cox_system(rays, len(rays[0]))
    assert str(sys.group) == group
    assert sys.weights() == weights
    u, d = smith_normal_form(rays)
    smith_rows_check(rays, u, d)


def test_smith_normal_form_properties_random():
    r = random.Random(901)
    for _ in range(350):
        m = r.randint(1, 4)
        n = r.randint(1, 4)
        a = random_matrix(r, m, n)
        u, d = smith_normal_form(a)
        assert len(d) == m and all(len(row) == n for row in d)
        smith_rows_check(a, u, d)
        diag = [d[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        nonzero = [x for x in diag if x]
        assert all(x > 0 for x in nonzero)
        for small, big in zip(nonzero, nonzero[1:]):
            assert big % small == 0
        assert tuple(nonzero) == invariant_factors_oracle(a)


def test_elementary_divisors_match_minor_gcds():
    r = random.Random(902)
    for _ in range(150):
        a = random_matrix(r, r.randint(1, 3), r.randint(1, 3), -7, 7)
        assert elementary_divisors(a) == invariant_factors_oracle(a)


def test_hermite_normal_form_shape():
    h = hermite_normal_form([[2, 4], [2, 2]])
    assert h == ((2, 0), (0, 2))
    h = hermite_normal_form([[0, 0], [3, 6]])
    assert h == ((3, 6),)


def test_hermite_normal_form_canonical_random():
    r = random.Random(903)
    for _ in range(200):
        a = random_matrix(r, r.randint(1, 4), r.randint(1, 4), -6, 6)
        h = hermite_normal_form(a)
        assert hermite_normal_form(list(map(list, h))) == h
        assert rational_rank([list(x) for x in h]) == rational_rank(a)
        # pivots positive, entries above each pivot reduced
        for i, row in enumerate(h):
            piv = next(j for j, x in enumerate(row) if x)
            assert row[piv] > 0
            for above in range(i):
                assert 0 <= h[above][piv] < row[piv]


def dependent_matrix(r, rows, cols, lo, hi):
    """A random matrix whose rows past a random rank are small integer
    combinations of the rows before them."""
    rank = r.randint(1, rows)
    a = random_matrix(r, rank, cols, lo, hi)
    for _ in range(rows - rank):
        cs = [r.randint(-3, 3) for _ in a]
        a.append([sum(c * row[j] for c, row in zip(cs, a)) for j in range(cols)])
    r.shuffle(a)
    return a


def widened_matrices(r, count):
    """Shapes up to 5 x 7, two-digit entries, with dependent rows."""
    return [dependent_matrix(r, r.randint(1, 5), r.randint(2, 7), -99, 99)
            for _ in range(count)]


def test_integer_kernel_is_saturated():
    # the kernel reference in oracles, and the package's saturate_rowspan
    # against the oracle's kernel of that kernel
    r = random.Random(904)
    small = [random_matrix(r, r.randint(1, 3), r.randint(2, 4), -5, 5)
             for _ in range(200)]
    for a in small + widened_matrices(random.Random(908), 60):
        m, n = len(a), len(a[0])
        ker = corpus.within(1, oracles.integer_kernel, a)
        for v in ker:
            assert all(
                sum(a[i][j] * v[j] for j in range(n)) == 0 for i in range(m)
            )
        assert len(ker) == n - rational_rank(a)
        if ker:
            # a saturated sublattice has all invariant factors equal to one
            assert invariant_factors_oracle([list(v) for v in ker]) == (
                (1,) * len(ker)
            )
        sat = corpus.within(1, saturate_rowspan, a)
        assert sat == oracles.saturate_rowspan(a) == hermite_normal_form(sat)
        assert len(sat) == rational_rank(a) == rational_rank(list(a) + list(sat))
        assert all(sum(x * y for x, y in zip(s, v)) == 0 for s in sat for v in ker)


def test_group_presentation_str():
    assert str(AbelianGroupPresentation(free_rank=1, torsion=())) == "Z"
    assert str(AbelianGroupPresentation(2, (2, 4))) == "Z + Z + Z/2 + Z/4"
    assert str(AbelianGroupPresentation(0, ())) == "0"


def in_row_lattice(rows, x):
    """x in the row lattice of rows, by ranks and minor gcds: adding x keeps
    the rank and the product of the invariant factors (the index)."""
    grown = list(rows) + [list(x)]
    return (rational_rank(grown) == rational_rank(rows)
            and math.prod(invariant_factors_oracle(grown))
            == math.prod(invariant_factors_oracle(rows)))


def test_cox_system_degrees_kill_relations():
    # the relations (<ray_j, m>)_j are the integer combinations of the
    # columns of the ray matrix: two exponent vectors get the same degree
    # iff their difference is one, and the degree is a reduced
    # representative of the class
    r = random.Random(905)
    spanning = 0
    for _ in range(200):
        m = r.randint(1, 5)
        n = r.randint(1, 4)
        a = random_matrix(r, m, n, -6, 6)
        if rational_rank(a) < n:
            with pytest.raises(ValueError, match="rays do not span"):
                cox_system(a, n)
            continue
        spanning += 1
        sys = cox_system(a, n)
        cols = [list(c) for c in zip(*a)]
        factors = invariant_factors_oracle(a)
        assert sys.group == AbelianGroupPresentation(
            m - len(factors), tuple(x for x in factors if x >= 2))
        e = tuple(r.randint(0, 9) for _ in range(m))
        deg = term_degree(sys, Term(Fraction(1), None, e))
        for row in sys.relations:
            p = next(j for j, x in enumerate(row) if x)
            assert 0 <= deg[p] < row[p]
        for _ in range(4):
            j = r.randrange(m)
            delta = r.choice([(0,) * m, tuple(int(i == j) for i in range(m)),
                              tuple(r.randint(-2, 2) for _ in range(m))])
            coeffs = [r.randint(-2, 2) for _ in cols]
            rel = [sum(k * c[i] for k, c in zip(coeffs, cols)) for i in range(m)]
            f = tuple(x + y + z for x, y, z in zip(e, rel, delta))
            same = term_degree(sys, Term(Fraction(1), None, f)) == deg
            assert same == in_row_lattice(cols, delta), (a, delta)
        flag, zero = is_homogeneous(sys, cox.CoxPolynomial(terms=()))
        assert flag and zero == (0,) * m
    assert spanning >= 100


def test_cox_system_weights_are_normalized():
    sys = cox_system([[0, 1, 0], [-1, -1, -1], [0, 0, 1], [2, 1, 1]], 3)
    assert sys.group == AbelianGroupPresentation(1, ())
    assert sys.weights() == (1, 2, 1, 1)
    assert cox_system([[1, 0], [0, 1]], 2).weights() == (0, 0)


def test_matrix_rank_matches_reference():
    r = random.Random(907)
    for _ in range(150):
        a = random_matrix(r, r.randint(1, 4), r.randint(1, 4), -5, 5)
        assert matrix_rank(a) == rational_rank(a)
    r = random.Random(909)
    for a in widened_matrices(r, 100):
        assert corpus.within(1, matrix_rank, a) == rational_rank(a)
        # dividing a row by an integer keeps the rank
        frac = [[Fraction(x, r.randint(1, 7)) for x in row] for row in a]
        assert corpus.within(1, matrix_rank, frac) == rational_rank(frac)


def test_smith_normal_form_runs_only_for_class_groups(monkeypatch):
    # the Cox system and its degrees run the Hermite form alone; the group
    # runs the Smith form on that Hermite basis, and only the printed
    # weights read the Smith basis of the rays
    calls = []

    def counting(a):
        calls.append(tuple(map(tuple, a)))
        return smith_normal_form(a)

    monkeypatch.setattr(lattice, "smith_normal_form", counting)
    monkeypatch.setattr(cox, "smith_normal_form", counting)
    a = [[2, 4, -6, 1], [1, 2, -3, 0], [3, 6, -9, 1]]
    assert saturate_rowspan(a) and matrix_rank(a) == 2
    assert Cone.from_generators(4, [(1, 2, 0, -3), (0, 5, 1, 1)]).dimension() == 2
    assert calls == []
    sys = cox_system(((1, 0), (0, 1), (-1, -1)), 2)
    assert term_degree(sys, Term(Fraction(1), None, (1, 2, 0))) == (0, 0, 3)
    assert calls == []
    assert sys.group == AbelianGroupPresentation(1, ())
    assert calls == [sys.relations] == [((1, 0, -1), (0, 1, -1))]
    assert sys.weights() == (1, 1, 1)
    assert calls[1:] == [sys.rays]
