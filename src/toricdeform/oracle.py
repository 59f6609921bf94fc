"""Exact Hilbert bases and bounded brute-force checks for the semigroup
side of the pipeline.

Hilbert bases are exact: the candidates are the lattice points of the
fundamental parallelepipeds of a triangulation, found by a walk that the
degree bound prunes, so the cost follows the bound (see
``hilbert_basis``).  The equality checks enumerate characters up to an
explicit degree bound and decide ideal membership only through the
constructive certificates (cofactor monomials and divisibility of
exponent vectors), never by general reduction.  Both stream their
characters from ``lattice_runs`` in lex order, with one Cox exponent call
per run (``_with_exps``).  The degree-zero check pairs the characters of
one N-part and drops them before the next, so its memory follows one
N-part, not the bound, and builds its ``KernelWitness`` records only when
they are first read.  The inner loops run on plain int tuples with
``map``.  The equality reports are approximations by design: they
certify no failure below the bound, not a full proof.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial
from itertools import groupby
from math import prod
from operator import add, ge, le, mul, sub
from typing import NamedTuple

from .lattice import hermite_normal_form, vsub
from .polyhedral import Cone, Polyhedron, _canonical_dual, lattice_points, lattice_runs


class HilbertBasis(NamedTuple):
    cone: Cone
    generators: tuple
    functional: tuple
    bound: int
    certificate_bound: int
    complete: bool  # bound >= certificate_bound, so nothing was truncated

    def to_json(self) -> dict:
        return {"generators": [list(g) for g in self.generators],
                "functional": list(self.functional),
                "bound": self.bound,
                "certificate_bound": self.certificate_bound,
                "complete": self.complete}


def _require_pointed_full(c: Cone) -> None:
    if not c.is_strongly_convex():
        raise ValueError("cone is not strongly convex")
    if c.dimension() != c.rank:
        raise ValueError("cone is not full-dimensional")


def _require_bound(bound: int) -> None:
    if not isinstance(bound, int) or isinstance(bound, bool):
        raise TypeError("bound must be an int, got %r" % (bound,))
    if bound < 0:
        raise ValueError("bound must be non-negative, got %d" % bound)


def _pulling_simplices(rank: int, rays: tuple, normals, dim: int):
    """Ray tuples of a pulling triangulation of the pointed cone of
    dimension dim spanned by its extreme rays, whose facet normals (within
    its span) are the normals: the first ray is pulled, i.e. joined to a
    triangulation of each facet that does not contain it.  A facet's rays
    are its tight set; only a facet with more rays than its dimension
    needs its own facets, from one double description pass of its rays,
    so rank 3 runs none."""
    if len(rays) == dim:
        yield rays
        return
    apex = rays[0]
    for u in normals:
        if not sum(map(mul, u, apex)):
            continue
        face = tuple(r for r in rays if not sum(map(mul, u, r)))
        inner = _canonical_dual(rank, face)[0] if len(face) > dim - 1 else ()
        for s in _pulling_simplices(rank, face, inner, dim - 1):
            yield (apex,) + s


def _parallelepiped(gens: tuple, values: tuple, bound: int) -> list:
    """(value, point) for the nonzero lattice points of sum_i [0, 1) g_i
    with value at most the bound, the g_i linearly independent rows and
    values[i] > 0 the functional on g_i.

    The points are c G / d, d = |det G|, for the c in [0, d)^n with
    T c = 0 (mod d), T = V G^T the Hermite form (V unimodular), whose
    diagonal multiplies to d.  A walk solves T from the last row up: row i
    leaves c_i one residue mod d / t_ii, never none, as the d points fill
    all prod t_ii leaves.  The partial value sum c_j values[j] <= bound d
    caps every level.  The rays go in order of value, so the first level,
    mostly the widest, meets the tightest cap."""
    values, gens = zip(*sorted(zip(values, gens)))
    cols = tuple(zip(*gens))
    t = hermite_normal_form(cols)
    d = prod([row[i] for i, row in enumerate(t)])
    top = bound * d
    c = [0] * len(gens)
    out = []

    def walk(i, room):
        row, v, step = t[i], values[i], d // t[i][i]
        first = -sum(map(mul, row[i + 1:], c[i + 1:])) // row[i] % step
        for x in range(first, min(room // v, d - 1) + 1, step):
            c[i] = x
            if i:
                walk(i - 1, room - x * v)
            elif room - x * v < top:
                out.append(((top - room + x * v) // d,
                            tuple([sum(map(mul, c, col)) // d for col in cols])))

    walk(len(gens) - 1, top)
    return out


def hilbert_basis(c: Cone, bound: int = 12) -> HilbertBasis:
    """Irreducible semigroup generators of the cone's lattice points, up
    to the bound.

    Exact, after Bruns and Koch (2001) and Bruns and Ichim (2010), in
    three steps.  A pulling triangulation (_pulling_simplices) covers the
    cone by simplicial cones on its extreme rays.  An irreducible point
    lies in one of them, and there it is a ray or a point of the
    fundamental parallelepiped (_parallelepiped): any other point of a
    simplicial cone leaves a point of it after subtracting one of its
    rays.  So the rays and the parallelepiped points, kept when their
    functional value is at most the bound, hold every basis element under
    it.  In order of value, a candidate p is stripped when
    some generator g found so far leaves p - g in the cone, which is read
    off the facet pairings, <u, p> >= <u, g> for every facet u.  That
    keeps exactly the irreducible candidates: a reducible point p = a + b
    has a basis element g of smaller value with a - g in the cone, so
    p - g = (a - g) + b is a cone point, and g is under the bound too.
    So the filter is exact for every bound, and the result is the
    irreducible points of value at most the bound.  The bound prunes each
    simplex's walk, so the cost follows it: only a bound near the
    certificate pays the sum of |det| over the simplices.  The
    triangulation adds one double description pass per non-simplicial
    facet of dimension 3 or more that it descends into (none in rank 3).

    The functional is the sum of the facet normals, positive on every
    nonzero point of a pointed full-dimensional cone.  The certificate
    bound is the functional's total on the primitive ray generators; any
    basis element lies under it (it lies in some parallelepiped), so a
    bound that reaches it returns the whole basis.
    """
    _require_pointed_full(c)
    _require_bound(bound)
    functional = tuple(map(sum, zip(*c.pointed_facets)))
    values = {r: sum(map(mul, functional, r)) for r in c.rays}
    found = {(v, r) for r, v in values.items() if v <= bound}
    for s in _pulling_simplices(c.rank, c.rays, c.pointed_facets, c.rank):
        found.update(_parallelepiped(s, tuple(values[r] for r in s), bound))
    gens = []
    gen_pairings = []
    for _, p in sorted(found):
        pairings = tuple([sum(map(mul, u, p)) for u in c.pointed_facets])
        if not any(all(map(ge, pairings, g)) for g in gen_pairings):
            gens.append(p)
            gen_pairings.append(pairings)
    cert = sum(values.values())
    return HilbertBasis(cone=c, generators=tuple(sorted(gens)),
                        functional=functional, bound=bound,
                        certificate_bound=cert, complete=bound >= cert)


# ---------------------------------------------------------------------------
# Ideal-equality checks on the extended cone


class KernelWitness(NamedTuple):
    r: tuple
    s: tuple
    shifts: tuple  # a_i = r[n+i] - s[n+i]
    q: tuple
    cofactor_r: tuple  # p with exps(r) = p + sum a_i^+ * yexps_i
    cofactor_s: tuple

    def to_json(self) -> dict:
        return {"r": list(self.r), "s": list(self.s),
                "shifts": list(self.shifts), "q": list(self.q),
                "cofactor_r": list(self.cofactor_r),
                "cofactor_s": list(self.cofactor_s)}


class _Witnesses(Sequence):
    """The witnesses of a degree-zero check, built on first read.

    The length, the number of passing pairs, is known without building
    anything.  The first iteration or index calls build, which yields
    every witness in the order of the pair walk, keeps them, and drops
    build.  It equals only itself and has no ``+``; ``tuple()`` of it
    gives a tuple.
    """

    __slots__ = ("_len", "_build", "_kept")

    def __init__(self, length: int, build):
        self._len, self._build, self._kept = length, build, None

    def _read(self) -> tuple:
        if self._kept is None:
            self._kept = tuple(self._build())
            self._build = None
        return self._kept

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        return self._read()[i]

    def __iter__(self):
        return iter(self._read())


class OracleReport(NamedTuple):
    checked: int
    failures: tuple
    witnesses: Sequence = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"checked": self.checked, "failures": list(self.failures)}


def _character_polytope(t, bound: int) -> Polyhedron:
    # the characters u of the dual cone with <total, u> <= bound, graded by
    # the sum of the enlarged cone's own rays
    _require_bound(bound)
    c = t.cone
    total = tuple(sum(xi[i] for xi in c.rays) for i in range(c.rank))
    ineqs = [(xi, 0) for xi in c.rays]
    ineqs.append((tuple(-x for x in total), bound))
    return Polyhedron.from_inequalities(c.rank, ineqs)


def _with_exps(runs, exps):
    """Each point of the runs with its Cox exponents, one exps call per
    run: exps is linear, so each point of a run adds the exponents of the
    last unit vector to its predecessor's."""
    col = None
    for prefix, lo, hi in runs:
        if col is None:
            col = exps((0,) * len(prefix) + (1,))
        p = prefix + (lo,)
        e = exps(p)
        yield p, e
        for x in range(lo + 1, hi + 1):
            e = tuple(map(add, e, col))
            yield prefix + (x,), e


def _pair_walk(t, points, passing: bool):
    """For each N-part of the lex-sorted (character, exponents) pairs, its
    number of characters and the (r, s, d, q, cofactor_r, cofactor_s,
    Z(d^+)) of its pairs that pass the cofactor test, or that fail it
    (see degree_zero_equality_check)."""
    n = t.n
    ys, zs = tuple(zip(*t.pairings.y_exps)), tuple(zip(*t.pairings.z_exps))
    by_shift = {}

    def tabulate(d):
        # d itself (every witness of the shift shares it), d^+, then per
        # ray Y(d^+), Z(d^+) and Y(d^-); a zero drop's Y is None
        up = tuple(x if x > 0 else 0 for x in d)
        dn = tuple(-x if x < 0 else 0 for x in d)
        entry = by_shift[d] = (
            d, up, tuple(sum(map(mul, up, y)) for y in ys) if any(up) else None,
            tuple(sum(map(mul, up, z)) for z in zs),
            tuple(sum(map(mul, dn, y)) for y in ys) if any(dn) else None)
        return entry

    for head, group in groupby(points, lambda pe: pe[0][:n]):
        group = [(p, p[n:], e, min(e) >= 0) for p, e in group]
        picked = []
        for a, (r, rt, er, ok_r) in enumerate(group):
            for s, st, es, ok_s in group[a:]:
                d = tuple(map(sub, rt, st))
                d, up, ys_up, zs_up, ys_dn = by_shift.get(d) or tabulate(d)
                if ((ok_r if ys_up is None else all(map(ge, er, ys_up))) and (
                        ok_s if ys_dn is None else all(map(ge, es, ys_dn)))) != passing:
                    continue
                if ys_up is None:  # d <= 0: the tails' minimum is r's
                    q, pr = r, er
                else:  # q is s when d >= 0, else the tails' minimum
                    q = s if ys_dn is None else head + tuple(map(sub, rt, up))
                    pr = tuple(map(sub, er, ys_up))
                ps = es if ys_dn is None else tuple(map(sub, es, ys_dn))
                picked.append((r, s, d, q, pr, ps, zs_up))
        yield len(group), picked


def degree_zero_equality_check(t, bound: int = 12) -> OracleReport:
    """Characters with equal N-projection must differ by the binomials.

    For each pair r, s the recipe takes q = r[:n] plus the componentwise
    min of the two tails, checks q stays in the dual cone, and factors
    both Cox monomials with explicit cofactors; a failure of either is
    reported.  With the shift d = r[n:] - s[n:], r drops d^+ onto q and s
    drops d^-.  Each call tables, keyed by d, the per-ray sums Y(d^+),
    Z(d^+) and Y(d^-) of those drops against the y and z exponents
    (``_pair_walk``): cofactor_r = exps(r) - Y(d^+) and cofactor_s = exps(s)
    - Y(d^-).  So a pair costs one lookup and at most one comparison per
    side, as cofactor_r has no negative entry iff exps(r) >= Y(d^+)
    componentwise, and a passing pair builds nothing.  A one-signed shift
    drops nothing on one side (the table keeps that Y as None): that
    side's cofactor is its character's exponents, whose sign is read once
    per point, and q is s when d >= 0 and r when d <= 0; only a mixed
    shift builds q from the tails' minimum.  Since y_i - z_i is the i-th
    tail row of the rays, exps is linear and exps(q) = cofactor_r +
    Z(d^+).  The z exponents are >= 0, so exps(q) >= cofactor_r:
    cofactors with no negative entry already put q in the dual cone, and
    exps(q) is summed only for a failing pair.  Both facts are checked
    once per call (ValueError otherwise).

    The characters of one N-part, which lex order keeps together, are
    paired and dropped before the next is read, so memory follows the
    largest N-part, not the bound.  The witnesses' length, the number of
    passing pairs, is known at once; their first read walks the pairs
    again (``_witness_walk``), and until then they hold t and the polytope.
    """
    n = t.n
    exps, rays = t.pairings.exps, t.pairings.rays
    y_exps, z_exps = t.pairings.y_exps, t.pairings.z_exps
    tails = tuple(tuple(r[n + i] for r in rays) for i in range(t.k))
    if tuple(map(vsub, y_exps, z_exps)) != tails:
        raise ValueError("y minus z exponents differ from the ray tails")
    if any(z < 0 for row in z_exps for z in row):
        raise ValueError("negative z exponent")
    poly = _character_polytope(t, bound)
    checked = 0
    failures = []
    for size, failing in _pair_walk(t, _with_exps(lattice_runs(poly), exps), False):
        checked += size * (size + 1) // 2
        for r, s, _, q, pr, _, zs_up in failing:
            if min(map(add, pr, zs_up)) < 0:  # exps(q)
                failures.append({"r": list(r), "s": list(s),
                                 "reason": "q outside the dual cone",
                                 "q": list(q)})
            else:
                failures.append({"r": list(r), "s": list(s),
                                 "reason": "cofactor not a monomial"})
    return OracleReport(checked=checked, failures=tuple(failures),
                        witnesses=_Witnesses(checked - len(failures),
                                             partial(_witness_walk, t, poly)))


def _witness_walk(t, poly):
    """The passing pairs' KernelWitness records, by the check's walk over
    lattice_points: the witnesses kept outweigh the characters."""
    points = lattice_points(poly)
    for _, passing in _pair_walk(t, zip(points, map(t.pairings.exps, points)), True):
        yield from (KernelWitness(*pair[:6]) for pair in passing)


def revalidate_witness(t, w: KernelWitness) -> bool:
    """Re-check a witness by plain exponent arithmetic."""
    k = t.k
    rays = t.rays
    yexps, zexps, exps = t.pairings.y_exps, t.pairings.z_exps, t.pairings.exps
    er, es, eq = exps(w.r), exps(w.s), exps(w.q)
    if any(e < 0 for e in er + es + eq):
        return False
    if any(e < 0 for e in w.cofactor_r + w.cofactor_s):
        return False
    for j in range(len(rays)):
        up = sum(max(w.shifts[i], 0) * yexps[i][j] for i in range(k))
        dn = sum(max(-w.shifts[i], 0) * yexps[i][j] for i in range(k))
        upz = sum(max(w.shifts[i], 0) * zexps[i][j] for i in range(k))
        dnz = sum(max(-w.shifts[i], 0) * zexps[i][j] for i in range(k))
        if w.cofactor_r[j] + up != er[j]:
            return False
        if w.cofactor_s[j] + dn != es[j]:
            return False
        if w.cofactor_r[j] + upz != eq[j]:
            return False
        if w.cofactor_s[j] + dnz != eq[j]:
            return False
    return True


def _divides(a, b) -> bool:
    """Does the monomial with exponents a divide the one with exponents b?"""
    return all(map(le, a, b))


def boundary_equality_check(t, bound: int = 12) -> OracleReport:
    """Interior characters are exactly the ones the boundary ideal sees.

    A character passes through the ideal either because the full
    boundary monomial divides it, or because some y_i divides it along
    with the variables sitting over the rays of the base cone.
    Interiority reads only the N-part, so it is decided once per N-part;
    with k >= 1 the last coordinate is a tail one, and a run shares it.
    The characters stream from lattice_runs and are counted as they go.
    """
    if not t.datum.boundary:
        raise ValueError("boundary comparison needs a boundary datum")
    n = t.n
    yexps, exps = t.pairings.y_exps, t.pairings.exps
    z_mask, zs_mask = t.pairings.boundary_mask, t.pairings.zero_tail_mask
    sigma_rays = t.datum.sigma.rays
    checked = 0
    failures = []
    u = None
    for u_t, e in _with_exps(lattice_runs(_character_polytope(t, bound)), exps):
        checked += 1
        if u_t[:n] != u:
            u = u_t[:n]
            interior = all(sum(map(mul, u, rho)) >= 1 for rho in sigma_rays)
        in_ideal = _divides(z_mask, e) or (
            _divides(zs_mask, e) and any(_divides(y, e) for y in yexps))
        if interior != in_ideal:
            failures.append({"u_tilde": list(u_t),
                             "interior": interior,
                             "in_ideal": in_ideal})
    return OracleReport(checked=checked, failures=tuple(failures))
