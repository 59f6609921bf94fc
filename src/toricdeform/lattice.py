"""Exact integer and rational linear algebra over lattices.

Everything here works on tuples of Python ints or fractions.Fraction;
no floating point is ever introduced.  Vectors are immutable tuples,
matrices are tuples of row tuples.

One elimination, the Hermite normal form, gives rank, saturation, the
relations of a cokernel and the fundamental parallelepipeds of
oracle.hilbert_basis (the Hermite form of a simplex's transposed ray
matrix, solved row by row modulo its determinant).  The
Smith normal form runs only where its own output is the product:
elementary divisors (the property cox.CoxSystem.group takes them of
its Hermite relations on each read) and the transform U behind the
printed Cox weights (cox.CoxSystem.weights).  It is one pivot loop,
re-entered from step i wherever d_i does not divide d_{i+1}.

Number contract: a coordinate is an int or a Fraction, normalised
(primitive) and cast (as_int, as_int_vector, as_fraction) here only,
through its .numerator and .denominator; an int has both, with
denominator 1.  JSON numbers become ints and Fractions at one boundary,
vector_from_json, under every payload reader.  Floats are not accepted:
primitive, which every cone and polyhedron constructor calls on its
input, as_int, through which the normal forms read their entries, and
as_fraction, which reads every other rational parameter, raise TypeError
for them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import add, mul, neg, sub
from typing import Iterable, NamedTuple, Sequence

IntVector = tuple  # tuple[int, ...]
RationalVector = tuple  # tuple[Fraction, ...]
IntMatrix = tuple  # tuple[IntVector, ...]


class ZeroVectorError(ValueError):
    """Raised when a direction is requested for the zero vector."""


def dot(u: Sequence, v: Sequence):
    """Pairing <u, v>, as sum(map(mul, u, v)) (math.sumprod is 3.12+).
    Lengths must agree: map alone would stop at the shorter one."""
    if len(u) != len(v):
        raise ValueError("length mismatch in dot: %d vs %d" % (len(u), len(v)))
    return sum(map(mul, u, v))


def vadd(u: Sequence, v: Sequence) -> tuple:
    return tuple(map(add, u, v))


def vsub(u: Sequence, v: Sequence) -> tuple:
    return tuple(map(sub, u, v))


def vneg(u: Sequence) -> tuple:
    return tuple(map(neg, u))


def vscale(c, u: Sequence) -> tuple:
    return tuple(map(mul, repeat(c), u))


def is_zero(u: Sequence) -> bool:
    return not any(u)


def is_integral(u: Sequence) -> bool:
    """True if every coordinate is an integer (int or integral Fraction)."""
    return all(a.denominator == 1 for a in u)


def as_int(a) -> int:
    """Cast an integral int or Fraction to a plain int; a non-integral one
    raises ValueError, and any other type, floats included, TypeError."""
    try:
        den = a.denominator
    except AttributeError:
        raise TypeError("a lattice coordinate must be an int or Fraction, got %r"
                        % (a,)) from None
    if den != 1:
        raise ValueError("non-integral coordinate %s" % (a,))
    return a.numerator


def as_fraction(a) -> Fraction:
    """An int or Fraction as a Fraction; any other type, floats included,
    raises TypeError."""
    try:
        return Fraction(a.numerator, a.denominator)
    except AttributeError:
        raise TypeError("a rational must be an int or Fraction, got %r" % (a,)) from None


def as_int_vector(u: Sequence) -> IntVector:
    """Cast an integral vector to plain ints; error if any coordinate is not integral."""
    return tuple(map(as_int, u))


def vector_from_json(v, what: str) -> RationalVector:
    """Read a JSON coordinate vector: the one rule for JSON numbers.

    A coordinate is an int, a "p/q" string or a [num, den] pair of integers.
    Every JSON number must have an integer value: 1.0 reads as 1, and 0.5
    raises "non-integral coordinate 1/2", never truncates.  Bools are not
    numbers.  Anything malformed raises ValueError.  An int comes back as
    it is; every other form comes back as a Fraction.
    """
    if not isinstance(v, (list, tuple)) or not v:
        raise ValueError("%s must be a non-empty coordinate list, got %r" % (what, v))
    out = []
    for x in v:
        if isinstance(x, int) and not isinstance(x, bool):
            out.append(x)
            continue
        pair = isinstance(x, (list, tuple))
        parts = []
        for y in (x if pair else [x]):
            if isinstance(y, bool) or not isinstance(y, (int, float, str)):
                raise ValueError("bad coordinate %r" % (x,))
            try:
                parts.append(Fraction(y))
            except (ValueError, ZeroDivisionError, OverflowError):
                raise ValueError("bad coordinate %r" % (x,)) from None
            if pair or isinstance(y, float):
                as_int(parts[-1])
        if pair and (len(parts) != 2 or parts[1] == 0):
            raise ValueError("bad coordinate %r" % (x,))
        out.append(parts[0] / parts[1] if pair else parts[0])
    return tuple(out)


def content(u: Sequence[int]) -> int:
    """gcd of the int coordinates (non-negative); a Fraction raises TypeError."""
    return math.gcd(*u)


def primitive(u: Sequence) -> IntVector:
    """Primitive integer vector spanning the same ray (positive multiple of u).

    Accepts int or Fraction coordinates; any other type raises TypeError.
    All-int input (bools included) is divided by its gcd alone, and a
    tuple of plain ints whose gcd is 1 comes back as it is; only a vector
    with a Fraction is first scaled by the lcm of its denominators.  The
    result is plain ints.  The zero vector has no direction.
    """
    try:
        g = math.gcd(*u)  # a Fraction or a float raises TypeError here
        if g == 1 and type(u) is tuple and {*map(type, u)} == {int}:
            return u
        ints = u
    except TypeError:
        try:
            den = math.lcm(*[a.denominator for a in u])
        except AttributeError:
            raise TypeError("coordinates must be int or Fraction, got %r"
                            % (tuple(u),)) from None
        ints = [a.numerator * (den // a.denominator) for a in u]
        g = math.gcd(*ints)
    if g == 0:
        raise ZeroVectorError("ZeroVector: the zero vector spans no ray")
    return tuple([a // g for a in ints])


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def matrix_rank(rows: Iterable[Sequence]) -> int:
    """Rank over Q: the number of rows of the Hermite normal form.

    Rows may contain Fractions; primitive scales each to integers first
    (scaling does not change the rank).
    """
    return len(hermite_normal_form([primitive(r) for r in rows if not is_zero(r)]))


# ---------------------------------------------------------------------------
# Smith normal form and friends


def _swap_rows(m, u, i, j):
    m[i], m[j] = m[j], m[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _addmul_row(m, u, dst, src, q):
    # row_dst += q * row_src
    m[dst] = [a + q * b for a, b in zip(m[dst], m[src])]
    u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]


def _addmul_col(m, dst, src, q):
    for row in m:
        row[dst] += q * row[src]


def _eliminate(m, u, t):
    """The pivot loop from step t on: each step moves the smallest nonzero
    entry (by absolute value, ties by row then column) of the trailing
    block to (t, t) and clears its row and column by Euclid, applying the
    row operations to u too.  It stops at an all-zero trailing block."""
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    for t in range(t, min(nrows, ncols)):
        # locate the smallest nonzero entry of the trailing block
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = m[i][j]
                if x != 0 and (best is None or abs(x) < abs(best[0])):
                    best = (x, i, j)
        if best is None:
            return
        _, bi, bj = best
        if bi != t:
            _swap_rows(m, u, t, bi)
        if bj != t:
            _swap_cols(m, t, bj)
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, nrows):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    if q:
                        _addmul_row(m, u, i, t, -q)
                    if m[i][t] != 0:
                        # remainder became the new smallest pivot
                        _swap_rows(m, u, t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    if q:
                        _addmul_col(m, j, t, -q)
                    if m[t][j] != 0:
                        _swap_cols(m, t, j)
                        dirty = True
            if not dirty:
                break
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]


def smith_normal_form(a: Sequence[Sequence[int]]):
    """Smith normal form: returns (U, D) with U a V = D for some unimodular
    V, U unimodular.

    D is diagonal with non-negative entries d_1 | d_2 | ... .  One
    deterministic pivot loop (_eliminate) diagonalizes; where d_i does not
    divide d_{i+1}, column i+1 is added to column i and the loop runs again
    from step i.  The column operations (V) are applied to D only.  Entries
    are cast by as_int: a non-integral one raises.
    """
    m = [list(map(as_int, row)) for row in a]
    if any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    u = [list(r) for r in identity_matrix(len(m))]
    _eliminate(m, u, 0)
    # A rerun from i leaves the diagonal before i alone and ends with (i, i)
    # below d_i: its pivot search sees d_i or a smaller entry, and d_{i+1},
    # now at (i+1, i), leaves a nonzero remainder mod d_i.  So the diagonal
    # falls lexicographically and the loop ends.  The rows of m from the
    # rank on are zero after the first pass, and a rerun only searches,
    # clears and flips rows with a nonzero entry, so those rows of u (the
    # first of them gives cox.CoxSystem.weights) are the first pass's.
    steps = range(min(len(m), len(m[0]) if m else 0) - 1)
    while True:
        i = next((i for i in steps
                  if m[i][i] and m[i + 1][i + 1] % m[i][i]), None)
        if i is None:
            return tuple(tuple(r) for r in u), tuple(tuple(r) for r in m)
        _addmul_col(m, i, i + 1, 1)
        _eliminate(m, u, i)


def elementary_divisors(a: Sequence[Sequence[int]]) -> tuple:
    _, d = smith_normal_form(a)
    lim = min(len(d), len(d[0]) if d else 0)
    return tuple(d[i][i] for i in range(lim))


def saturate_rowspan(rows: Sequence[Sequence[int]]) -> tuple:
    """Basis of span_Q(rows) ∩ Z^n, in Hermite normal form.

    With H the Hermite form of the rows (r of them) and T the r x r
    Hermite form of H^T, H^T = V [T; 0] for a unimodular V, so the rows
    of (T^T)^-1 H are r rows of the unimodular V^T: a basis of the
    saturated lattice.  |det T| is the gcd of the maximal minors of H, so
    H is saturated iff T has unit pivots, and then H is the answer (the
    double description's lineality always is); otherwise forward
    substitution through T^T gives those rows.  A ragged matrix raises
    ValueError.
    """
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    h = hermite_normal_form(rows)
    t = hermite_normal_form(list(zip(*h)))
    if all(t[i][i] == 1 for i in range(len(t))):
        return h
    basis = []
    for i, row in enumerate(h):
        for j, b in enumerate(basis):
            if t[j][i]:
                row = [x - t[j][i] * y for x, y in zip(row, b)]
        basis.append([x // t[i][i] for x in row])
    return hermite_normal_form(basis)


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> tuple:
    """Row-style Hermite normal form of any integer matrix: its nonzero rows.

    Pivots are positive, entries above a pivot are reduced into [0, pivot).
    The result is the canonical basis of the row lattice; a rank-deficient
    input loses its zero rows, so the length is the rank.  Entries are cast
    by as_int: a non-integral one raises.
    """
    work = [list(map(as_int, r)) for r in rows]
    nrows = len(work)
    if nrows == 0:
        return ()
    ncols = len(work[0])
    row = 0
    for col in range(ncols):
        piv = None
        for i in range(row, nrows):
            if work[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        # gcd-out the column below the pivot
        for i in range(row + 1, nrows):
            while work[i][col] != 0:
                q = work[row][col] // work[i][col]
                work[row] = [a - q * b for a, b in zip(work[row], work[i])]
                work[row], work[i] = work[i], work[row]
        if work[row][col] < 0:
            work[row] = [-x for x in work[row]]
        for i in range(row):
            q = work[i][col] // work[row][col]
            if q:
                work[i] = [a - q * b for a, b in zip(work[i], work[row])]
        row += 1
        if row == nrows:
            break
    return tuple(tuple(r) for r in work[:row])


# ---------------------------------------------------------------------------
# Cokernel presentations (divisor class groups, gradings)


class AbelianGroupPresentation(NamedTuple):
    """Finitely generated abelian group: Z^free_rank + sum Z/d, d in torsion.

    torsion is the divisibility chain d_1 | d_2 | ..., every d_i >= 2.
    """

    free_rank: int
    torsion: tuple

    def __str__(self):
        parts = ["Z"] * self.free_rank + ["Z/%d" % d for d in self.torsion]
        return " + ".join(parts) if parts else "0"

