"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: subset enumeration for cone
conversion, Fourier-Motzkin elimination for feasibility and optimization,
gcds of minors for invariant factors, pairwise-sum saturation for
semigroup generators, every slice and every translate for mutations.
Slow but transparent on the small inputs the tests feed it.  Nothing in
this module imports the package under test, except graded_hilbert_basis:
the bounded enumeration that hilbert_basis ran before it triangulated,
kept as a differential reference on the package's own lattice_points; and
integer_kernel, the kernel the package's saturate_rowspan took twice
before it read saturation off the Hermite form of a transpose.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def gcd_vec(v):
    g = 0
    for x in v:
        g = math.gcd(g, abs(x))
    return g


def prim(v):
    g = gcd_vec(v)
    if g == 0:
        raise ValueError("zero vector")
    return tuple(x // g for x in v)


def normal_fan_reference(p):
    """Rays and maximal cones of the inner-normal fan of a full-dimensional
    polytope: the sorted primitive facet normals, and per vertex the sorted
    indices of the facets through it, each incidence tested on the vertex
    itself."""
    rays = sorted(prim(u) for u, _ in p.inequalities)
    index = {r: i for i, r in enumerate(rays)}
    cones = {tuple(sorted(index[prim(u)] for u, c in p.inequalities
                          if dot(u, v) + c == 0)) for v in p.vertices}
    return tuple(rays), tuple(sorted(cones))

def rational_kernel(rows, n):
    """Basis of {x in Q^n : <r, x> = 0 for all rows r}, as integer tuples."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for c in free:
        v = [Fraction(0)] * n
        v[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][c]
        den = math.lcm(*[f.denominator for f in v])
        basis.append(prim([int(f * den) for f in v]))
    return basis


def rational_rank(rows):
    if not rows:
        return 0
    n = len(rows[0])
    return n - len(rational_kernel(rows, n))


def brute_facets_from_rays(rank, rays):
    """Facet normals of a full-dimensional cone given by generators.

    Enumerates (rank-1)-subsets of the rays, keeps one-dimensional kernels
    whose normal has a single sign across all generators.
    """
    rays = [tuple(r) for r in rays]
    if rational_rank(rays) != rank:
        raise ValueError("cone not full-dimensional")
    found = set()
    size = rank - 1
    for sub in itertools.combinations(rays, size) if size else [()]:
        ker = rational_kernel(list(sub), rank)
        if len(ker) != 1:
            continue
        u = ker[0]
        vals = [dot(u, r) for r in rays]
        if all(v >= 0 for v in vals):
            cand = u
        elif all(v <= 0 for v in vals):
            cand = tuple(-x for x in u)
        else:
            continue
        tight = [r for r in rays if dot(cand, r) == 0]
        if rational_rank(tight) == rank - 1:
            found.add(prim(cand))
    return tuple(sorted(found))


def brute_rays_from_normals(rank, normals, equations=()):
    """Extreme rays of a pointed cone {x : <a, x> >= 0 for a in normals,
    <e, x> = 0 for e in equations}.

    Takes kernels of (rank - 1 - len(equations))-subsets of the normals
    together with the equations, which must be linearly independent.
    Only correct when the cone is pointed; callers pick such inputs.
    """
    normals = [tuple(a) for a in normals]
    equations = [tuple(e) for e in equations]
    found = set()
    size = rank - 1 - len(equations)
    if size < 0:
        return ()
    for sub in itertools.combinations(normals, size) if size else [()]:
        ker = rational_kernel(list(sub) + equations, rank)
        if len(ker) != 1:
            continue
        v = ker[0]
        vals = [dot(a, v) for a in normals]
        if all(x >= 0 for x in vals):
            cand = v
        elif all(x <= 0 for x in vals):
            cand = tuple(-x for x in v)
        else:
            continue
        tight = [a for a in normals if dot(a, cand) == 0]
        if rational_rank(tight + equations) == rank - 1:
            found.add(prim(cand))
    return tuple(sorted(found))


def fm_eliminate(rows, idx):
    pos = [r for r in rows if r[idx] > 0]
    neg = [r for r in rows if r[idx] < 0]
    out = {r for r in rows if r[idx] == 0}
    for p in pos:
        for q in neg:
            combo = tuple(p[idx] * qi - q[idx] * pi for pi, qi in zip(p, q))
            if any(combo):
                out.add(prim(combo))
    return sorted(out)


def fm_feasible(rank, ineqs):
    """Feasibility of {x : <u, x> + c >= 0 for (u, c) in ineqs}."""
    rows = [tuple(u) + (c,) for u, c in ineqs]
    for i in range(rank):
        rows = fm_eliminate(rows, i)
    return all(r[rank] >= 0 for r in rows)


def fm_minimize(rank, ineqs, functional, offset=0):
    """Exact min of <functional, x> + offset over the ineq region.

    Returns ("empty", None), ("unbounded", None) or ("ok", Fraction).
    """
    rows = [tuple(u) + (0, c) for u, c in ineqs]
    rows.append(tuple(-f for f in functional) + (1, offset))
    rows.append(tuple(functional) + (-1, -offset))
    for i in range(rank):
        rows = fm_eliminate(rows, i)
    lo = None
    hi = None
    for r in rows:
        a, c = r[rank], r[rank + 1]
        if a == 0:
            if c < 0:
                return ("empty", None)
        elif a > 0:
            b = Fraction(-c, a)
            if lo is None or b > lo:
                lo = b
        else:
            b = Fraction(c, -a)
            if hi is None or b < hi:
                hi = b
    if lo is not None and hi is not None and lo > hi:
        return ("empty", None)
    if lo is None:
        return ("unbounded", None)
    return ("ok", lo)


def fm_implies(rank, ineqs, normal, c):
    """Does every point of the region satisfy <normal, x> + c >= 0?"""
    status, val = fm_minimize(rank, ineqs, normal, c)
    if status == "empty":
        return True
    if status == "unbounded":
        return False
    return val >= 0


def brute_lattice_points(rank, ineqs):
    """All integer points of a bounded inequality region, sorted."""
    box = []
    for i in range(rank):
        e = tuple(1 if j == i else 0 for j in range(rank))
        st_lo, lo = fm_minimize(rank, ineqs, e)
        if st_lo == "empty":
            return ()
        st_hi, hi = fm_minimize(rank, ineqs, tuple(-x for x in e))
        if st_lo == "unbounded" or st_hi == "unbounded":
            raise ValueError("unbounded region")
        box.append(range(math.ceil(lo), math.floor(-hi) + 1))
    out = []
    for pt in itertools.product(*box):
        if all(dot(u, pt) + c >= 0 for u, c in ineqs):
            out.append(pt)
    return tuple(sorted(out))


def _int_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _int_det(minor)
    return total


def invariant_factors_oracle(mat):
    """Nonzero invariant factors d_1 | d_2 | ... via gcds of i-minors."""
    mat = [list(r) for r in mat]
    m = len(mat)
    n = len(mat[0]) if m else 0
    out = []
    g_prev = 1
    for i in range(1, min(m, n) + 1):
        g = 0
        for rs in itertools.combinations(range(m), i):
            for cs in itertools.combinations(range(n), i):
                d = _int_det([[mat[r][c] for c in cs] for r in rs])
                g = math.gcd(g, abs(d))
        if g == 0:
            break
        out.append(g // g_prev)
        g_prev = g
    return tuple(out)


def integer_kernel(a):
    """Basis of {x in Z^n : A x = 0}, in Hermite normal form.

    The Hermite form of [A^T | I_n] is U [A^T | I_n] with U unimodular; its
    rows whose A^T part vanishes are the rows u of U with A u = 0.  They
    are a basis of the (saturated) kernel lattice, already in Hermite form.
    """
    from toricdeform.lattice import hermite_normal_form

    if not a:
        return ()
    m, n = len(a), len(a[0])
    if any(len(r) != n for r in a):
        raise ValueError("ragged matrix")
    stacked = [list(col) + [int(i == j) for j in range(n)]
               for i, col in enumerate(zip(*a))]
    return tuple(r[m:] for r in hermite_normal_form(stacked) if not any(r[:m]))


def saturate_rowspan(rows):
    """Basis of span_Q(rows) ∩ Z^n, in Hermite normal form: the kernel of
    the kernel (the identity when the rows span Q^n)."""
    rows = [tuple(r) for r in rows if any(r)]
    if not rows:
        return ()
    ann = integer_kernel(rows)
    if not ann:
        return tuple(tuple(int(i == j) for j in range(len(rows[0])))
                     for i in range(len(rows[0])))
    return integer_kernel(ann)


def affine_regular_sequence(pairs, mono):
    """The combinatorial regular-sequence certificate of binomials
    x^a - x^b and a monomial x^m, given as exponent vectors: pairs is
    [(a, b), ...] and mono is m.  The supports of the first monomials,
    of the second monomials and of the rest of m must be pairwise
    disjoint.  A second monomial shared by every binomial is one group,
    and the rest of m is m off its support; distinct second monomials
    are one group each, and the rest of m is m off every group.
    """
    def support(e):
        return frozenset(j for j, x in enumerate(e) if x)

    groups = [support(a) for a, _ in pairs]
    if len({b for _, b in pairs}) == 1:
        shared = support(pairs[0][1])
        groups += [shared, support(mono) - shared]
    else:
        groups += [support(b) for _, b in pairs]
        groups.append(support(mono) - frozenset().union(*groups))
    return not any(g & h for g, h in itertools.combinations(groups, 2))


def semigroup_generators_oracle(facets, functional, bound):
    """Indecomposable nonzero points with functional value <= bound.

    Works inside the cone {x : <a, x> >= 0 for a in facets}; the functional
    must be bounded on that region up to the given level.
    """
    rank = len(functional)
    ineqs = [(tuple(a), 0) for a in facets]
    ineqs.append((tuple(-f for f in functional), bound))
    pts = [p for p in brute_lattice_points(rank, ineqs) if any(p)]
    pset = set(pts)
    gens = []
    for p in pts:
        dec = False
        for a in pts:
            if a == p:
                continue
            diff = tuple(x - y for x, y in zip(p, a))
            if diff in pset:
                dec = True
                break
        if not dec:
            gens.append(p)
    return tuple(sorted(gens))


def parallelepiped_points(gens, values, bound):
    """(value, point), sorted, for the nonzero lattice points of
    sum_i [0, 1) g_i with value at most the bound, values[i] the value of
    g_i, by the definition: every c in [0, d)^n, d = |det G|, whose
    sum c_i g_i is divisible by d, read as the point sum c_i g_i / d."""
    d = abs(_int_det(gens))
    out = []
    for c in itertools.product(range(d), repeat=len(gens)):
        s = [dot(c, col) for col in zip(*gens)]
        v = dot(c, values)
        if any(c) and all(x % d == 0 for x in s) and v <= bound * d:
            out.append((v // d, tuple(x // d for x in s)))
    return sorted(out)


def graded_hilbert_basis(cone, functional, bound):
    """hilbert_basis by bounded enumeration, as the package computed it
    before it triangulated: every lattice point with functional value up
    to the bound, reduced in order of value against the generators found
    so far (p is stripped when p - g is one of the enumerated points).
    Returns the HilbertBasis that hilbert_basis must equal, certificate
    fields included; the cost grows with the bound."""
    from toricdeform.oracle import HilbertBasis
    from toricdeform.polyhedral import Polyhedron, lattice_points

    functional = tuple(functional)
    ineqs = [(u, 0) for u in cone.dual().rays]
    ineqs.append((tuple(-x for x in functional), bound))
    pts = lattice_points(Polyhedron.from_inequalities(cone.rank, ineqs))
    graded = sorted((dot(functional, p), p) for p in pts if any(p))
    ptset = {p for _, p in graded}
    gens = []
    for _, p in graded:
        if not any(tuple(x - y for x, y in zip(p, g)) in ptset for g in gens):
            gens.append(p)
    cert = sum(dot(functional, r) for r in cone.rays)
    return HilbertBasis(cone=cone, generators=tuple(sorted(gens)),
                        functional=functional, bound=bound,
                        certificate_bound=cert, complete=bound >= cert)


def saturation_closure_ok(facets, functional, bound, gens):
    """Check every cone point up to the bound is a sum of the given gens.

    Greedy certificate: repeatedly subtract generators while staying in
    the point set; a point that cannot be reduced to zero fails.
    """
    rank = len(functional)
    ineqs = [(tuple(a), 0) for a in facets]
    ineqs.append((tuple(-f for f in functional), bound))
    pts = [p for p in brute_lattice_points(rank, ineqs) if any(p)]
    gset = set(gens)
    reachable = {tuple([0] * rank)}
    pending = sorted(pts, key=lambda p: (dot(functional, p), p))
    for p in pending:
        if p in gset:
            reachable.add(p)
            continue
        if any(
            tuple(x - y for x, y in zip(p, g)) in reachable for g in gset
        ):
            reachable.add(p)
    return all(p in reachable for p in pts)


def vertex_splits_oracle(v, vertex_lists, max_nonlattice=1):
    """Every tuple of one vertex per summand that adds up to v, with at
    most max_nonlattice non-lattice parts, in product order."""
    target = tuple(Fraction(x) for x in v)
    out = []
    for parts in itertools.product(*vertex_lists):
        if sum(any(Fraction(x).denominator != 1 for x in p) for p in parts) > max_nonlattice:
            continue
        if tuple(sum(col, Fraction(0)) for col in zip(*parts)) == target:
            out.append(tuple(parts))
    return out


def decompose_vertex(q, h, summands, max_nonlattice=1):
    """The split of the vertex v of q = sum of summands, given by its
    primitive row h = (d*v, d) from q.homogeneous, read off minimizers.

    u, the sum of q's inequality normals tight at v (equation pairs
    cancel), is minimized over q at v alone, so each part of v minimizes u
    over its summand (Fukuda, J. Symb. Comput. 38, 2004).  Returns each
    summand's lex-least minimizing row (d_i*p_i, d_i), or None if u is
    unbounded below on a summand, the parts do not add up to v, or more
    than max_nonlattice of them have d_i > 1.  validate_datum ran this per
    vertex before minkowski_sum recorded the split; it reads the rows of
    the polyhedra and imports nothing from the package.
    """
    dv, d = h[:-1], h[-1]
    u = [0] * len(dv)
    for a, c in q.inequalities:
        if dot(a, dv) + c * d == 0:
            u = [x + y for x, y in zip(u, a)]
    rows = []
    for s in summands:
        if any(dot(u, r) < 0 for r in s.rays) or any(dot(u, l) for l in s.lines):
            return None
        best = None
        for g in s.homogeneous:  # lex-sorted, so the first least is lex-least
            if best is None or dot(u, g[:-1]) * best[-1] < dot(u, best[:-1]) * g[-1]:
                best = g
        rows.append(best)
    den = math.lcm(d, *(r[-1] for r in rows))
    total = [sum(den // r[-1] * r[t] for r in rows) for t in range(len(dv))]
    if (total != [den // d * x for x in dv]
            or sum(r[-1] > 1 for r in rows) > max_nonlattice):
        return None
    return tuple(rows)


def degree_zero_oracle(n, rays, yexps, zexps, points):
    """The per-ray degree-zero recipe on a given list of character points.

    Buckets the points by their first n coordinates in order of first
    appearance.  For each pair r, s of a bucket it drops the positive
    shifts of r onto q and factors both Cox monomials ray by ray against
    the slot tables yexps and zexps.  Returns (checked, failures,
    witnesses), a witness being (r, s, shifts, q, cofactor_r, cofactor_s).
    """
    k = len(yexps)

    def exps(v):
        return tuple(dot(v, ray) for ray in rays)

    buckets = {}
    for p in points:
        buckets.setdefault(p[:n], []).append(p)
    checked = 0
    failures = []
    witnesses = []
    for group in buckets.values():
        for a in range(len(group)):
            for b in range(a, len(group)):
                r, s = group[a], group[b]
                checked += 1
                shifts = tuple(r[n + i] - s[n + i] for i in range(k))
                q = list(r)
                for i in range(k):
                    if shifts[i] > 0:
                        q[n + i] -= shifts[i]
                q = tuple(q)
                eq = exps(q)
                if any(e < 0 for e in eq):
                    failures.append({"r": list(r), "s": list(s),
                                     "reason": "q outside the dual cone",
                                     "q": list(q)})
                    continue
                pr = list(exps(r))
                ps = list(exps(s))
                for i in range(k):
                    for j in range(len(rays)):
                        pr[j] -= max(shifts[i], 0) * yexps[i][j]
                        ps[j] -= max(-shifts[i], 0) * yexps[i][j]
                if any(e < 0 for e in pr + ps):
                    failures.append({"r": list(r), "s": list(s),
                                     "reason": "cofactor not a monomial"})
                    continue
                ok = all(
                    pr[j] + sum(max(shifts[i], 0) * zexps[i][j]
                                for i in range(k)) == eq[j]
                    and ps[j] + sum(max(-shifts[i], 0) * zexps[i][j]
                                    for i in range(k)) == eq[j]
                    for j in range(len(rays)))
                if not ok:
                    failures.append({"r": list(r), "s": list(s),
                                     "reason": "factorization mismatch"})
                    continue
                witnesses.append((r, s, shifts, q, tuple(pr), tuple(ps)))
    return checked, failures, witnesses


def boundary_oracle(n, rays, sigma_rays, points):
    """The boundary comparison one point at a time, from the rays alone.

    A point is interior iff its first n coordinates pair to at least 1
    with every ray of sigma.  Its Cox monomial lies in the boundary ideal
    iff the boundary monomial (the rays whose tail has no positive entry)
    divides it, or the variables over sigma's rays (zero tail) and some
    y_i (the positive parts of the i-th tail entries) both do.  Returns
    (checked, failures).
    """
    k = len(rays[0]) - n
    tails = [ray[n:] for ray in rays]

    def divides(a, e):
        return all(x <= y for x, y in zip(a, e))

    full = [int(all(x <= 0 for x in tail)) for tail in tails]
    over_sigma = [int(not any(tail)) for tail in tails]
    ys = [[max(tail[i], 0) for tail in tails] for i in range(k)]
    failures = []
    for p in points:
        e = [dot(p, ray) for ray in rays]
        interior = all(dot(p[:n], rho) >= 1 for rho in sigma_rays)
        in_ideal = divides(full, e) or (
            divides(over_sigma, e) and any(divides(y, e) for y in ys))
        if interior != in_ideal:
            failures.append({"u_tilde": list(p), "interior": interior,
                             "in_ideal": in_ideal})
    return len(points), failures


def mutation_point_sets(points, vertices, w, fverts):
    """A mutation on lattice point sets: every slice, every translate.

    points are the lattice points of P, vertices its vertices in the order
    the verdict scans them, fverts the vertices of F.  At every height h
    from hmin to -1, G_h is the set of lattice points x with x + (-h)f in
    the slice for every f in fverts, and a vertex of P at h that is no
    x + (-h)f is uncovered.  Returns (message, factors, cloud): the
    NoFactorAtHeight message of the first uncovered vertex, or None;
    {h: sorted G_h} over the heights whose G_h is nonempty; and the points
    whose hull is the mutation, every G_h together with s + hf for the
    points s at heights h >= 0 and every f in fverts.
    """
    slices = {}
    for x in points:
        slices.setdefault(dot(w, x), set()).add(tuple(x))
    heights = [dot(w, v) for v in vertices]
    factors = {}
    for h in range(min(heights), 0):
        spts = slices.get(h, set())
        shifts = [tuple(-h * c for c in f) for f in fverts]
        gpts = sorted(
            x for x in (tuple(a - b for a, b in zip(s, shifts[0]))
                        for s in spts)
            if all(tuple(a + b for a, b in zip(x, t)) in spts
                   for t in shifts))
        in_g = set(gpts)
        for v, hv in zip(vertices, heights):
            if hv == h and not any(
                    tuple(a - b for a, b in zip(v, t)) in in_g
                    for t in shifts):
                return ("NoFactorAtHeight %d: uncovered vertex %s"
                        % (h, tuple(v)), None, None)
        if gpts:
            factors[h] = gpts
    cloud = [g for gpts in factors.values() for g in gpts]
    cloud += [tuple(a + h * b for a, b in zip(s, f))
              for h, spts in slices.items() if h >= 0
              for s in sorted(spts) for f in fverts]
    return None, factors, cloud


def mutation_dual_map(u, w, fverts):
    """The piecewise-linear map on M that a mutation of P by (w, F)
    induces: u -> u - min over the vertices f of F of <u, f> * w.  It maps
    the lattice points of k P^dual = {u : <u, v> >= -k on P's vertices}
    onto those of k mut(P)^dual for every k (Akhtar, Coates, Galkin and
    Kasprzyk, SIGMA 8 (2012) 094)."""
    m = min(dot(u, f) for f in fverts)
    return tuple(a - m * b for a, b in zip(u, w))
