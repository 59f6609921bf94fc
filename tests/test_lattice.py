"""Integer linear algebra layer: normal forms, kernels, quotient gradings."""

import math
import random
from fractions import Fraction

import pytest

import corpus
from toricdeform import lattice
from toricdeform.cox import cox_system
from toricdeform.lattice import (
    AbelianGroupPresentation,
    ZeroVectorError,
    as_fraction,
    as_int,
    as_int_vector,
    cokernel,
    cokernel_map,
    content,
    elementary_divisors,
    hermite_normal_form,
    integer_kernel,
    is_integral,
    matrix_rank,
    primitive,
    saturate_rowspan,
    smith_normal_form,
)
from toricdeform.polyhedral import Cone

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
    # never truncates (x/2 + y = 0 has kernel (2, -1), not (1, 0))
    for nonintegral in (integer_kernel, cokernel, smith_normal_form, hermite_normal_form):
        with pytest.raises(ValueError, match="non-integral coordinate 1/2"):
            nonintegral([[Fraction(1, 2), 1]])
    with pytest.raises(ValueError, match="non-integral coordinate 3/2"):
        cokernel([[Fraction(3, 2), 0], [0, 2]])
    with pytest.raises(TypeError, match="int or Fraction"):
        smith_normal_form([[1.5, 2]])
    with pytest.raises(TypeError, match="int or Fraction"):
        hermite_normal_form([[1, 2.0]])
    assert integer_kernel([[Fraction(2), 4]]) == integer_kernel([[2, 4]]) == ((2, -1),)
    with pytest.raises(ValueError, match="ragged matrix"):
        integer_kernel([[1, 2], [3]])
    assert all(type(x) is int for r in smith_normal_form([[Fraction(2), 4]]) for row in r
               for x in row)


def test_smith_normal_form_single_row():
    u, d, v = smith_normal_form([[4, 6]])
    assert d == ((2, 0),)
    assert corpus.matmul(corpus.matmul(u, ((4, 6),)), v) == d


def test_smith_normal_form_divisibility_fix():
    u, d, v = smith_normal_form([[2, 0], [0, 3]])
    assert d == ((1, 0), (0, 6))


def test_smith_normal_form_properties_random():
    r = random.Random(901)
    for _ in range(350):
        m = r.randint(1, 4)
        n = r.randint(1, 4)
        a = random_matrix(r, m, n)
        u, d, v = smith_normal_form(a)
        assert corpus.matmul(corpus.matmul(u, tuple(map(tuple, a))), v) == d
        assert _int_det(list(map(list, u))) in (1, -1)
        assert _int_det(list(map(list, v))) in (1, -1)
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
    r = random.Random(904)
    small = [random_matrix(r, r.randint(1, 3), r.randint(2, 4), -5, 5)
             for _ in range(200)]
    for a in small + widened_matrices(random.Random(908), 60):
        m, n = len(a), len(a[0])
        ker = corpus.within(1, integer_kernel, a)
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


def test_cokernel_free_part():
    g = cokernel([[1, 0], [-1, 0]])
    assert g == AbelianGroupPresentation(free_rank=1, torsion=())
    assert str(g) == "Z"


def test_cokernel_torsion():
    assert cokernel([[1, 0], [1, 2]]) == AbelianGroupPresentation(0, (2,))
    assert cokernel([[2, 0], [0, 3]]) == AbelianGroupPresentation(0, (6,))
    assert str(AbelianGroupPresentation(2, (2, 4))) == "Z + Z + Z/2 + Z/4"
    assert str(AbelianGroupPresentation(0, ())) == "0"


def test_cokernel_map_kills_relations():
    # the image of A is spanned by its columns; each column must map to
    # zero in the quotient grading
    r = random.Random(905)
    for _ in range(200):
        m = r.randint(1, 4)
        n = r.randint(1, 4)
        a = random_matrix(r, m, n, -6, 6)
        cm = cokernel_map(a)
        fr = cm.group.free_rank
        tor = cm.group.torsion
        for c in range(n):
            img_free = [0] * fr
            img_tor = [0] * len(tor)
            for i in range(m):
                free, tors = cm.degree(i)
                for t in range(fr):
                    img_free[t] += a[i][c] * free[t]
                for t in range(len(tor)):
                    img_tor[t] += a[i][c] * tors[t]
            assert all(x == 0 for x in img_free)
            assert all(x % d == 0 for x, d in zip(img_tor, tor))


def test_cokernel_map_degrees_are_normalized():
    cm = cokernel_map([[0, 1, 0], [-1, -1, -1], [0, 0, 1], [2, 1, 1]])
    assert cm.group == AbelianGroupPresentation(1, ())
    assert [d[0] for d in cm.degrees] == [(1,), (2,), (1,), (1,)]
    assert all(d[1] == () for d in cm.degrees)


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
    calls = []

    def counting(a):
        calls.append(a)
        return smith_normal_form(a)

    monkeypatch.setattr(lattice, "smith_normal_form", counting)
    a = [[2, 4, -6, 1], [1, 2, -3, 0], [3, 6, -9, 1]]
    assert integer_kernel(a) and saturate_rowspan(a) and matrix_rank(a) == 2
    assert Cone.from_generators(4, [(1, 2, 0, -3), (0, 5, 1, 1)]).dimension() == 2
    assert calls == []
    cox_system(((1, 0), (0, 1), (-1, -1)), 2)
    assert len(calls) == 1

