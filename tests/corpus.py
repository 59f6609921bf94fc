"""Seeded random inputs shared by the property tests.

All generators take an explicit ``random.Random`` so every test run sees
the same cases.  Geometry objects are built through the public library
API; their claimed properties are always verified against the reference
implementations in :mod:`oracles`, never assumed.  ``within`` runs one
call under a time budget, so a stalling case fails instead of hanging.
"""

from __future__ import annotations

import random
import signal
from fractions import Fraction

import pytest

from toricdeform.lattice import dot, primitive, vadd, vneg
from toricdeform.polyhedral import Cone, Polyhedron, convex_hull, minkowski_sum


def rng(seed):
    return random.Random(seed)


class _Timeout(Exception):
    pass


def within(seconds, fn, *args):
    """fn(*args) under a SIGALRM budget: running past it fails the test
    rather than hanging it."""
    def expire(*_):
        raise _Timeout()

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    except _Timeout:
        pytest.fail("%s%r ran past %s s" % (fn.__name__, args, seconds))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def random_vector(r, rank, lo=-4, hi=4):
    while True:
        v = tuple(r.randint(lo, hi) for _ in range(rank))
        if any(v):
            return v


def random_unimodular(r, rank, steps=8):
    """A random unimodular matrix and its inverse, as a product of
    elementary row operations and the product of their inverses."""
    m = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    inv = [row[:] for row in m]
    for _ in range(steps):
        i, j = r.sample(range(rank), 2)
        c = r.choice([-2, -1, 1, 2])
        # row j += c * row i on m; column i -= c * column j on inv
        for col in range(rank):
            m[j][col] += c * m[i][col]
        for row in inv:
            row[i] -= c * row[j]
        if r.random() < 0.3:
            k = r.randrange(rank)
            for col in range(rank):
                m[k][col] = -m[k][col]
            for row in inv:
                row[k] = -row[k]
    return tuple(map(tuple, m)), tuple(map(tuple, inv))


def large_unimodular(r, rank):
    """random_unimodular with 32 steps, drawn until its largest entry lies
    between 10^3 and 10^4: big integers through every layer, still fast."""
    while True:
        u, u_inv = random_unimodular(r, rank, steps=32)
        if 10 ** 3 <= max(abs(x) for row in u for x in row) <= 10 ** 4:
            return u, u_inv


def random_pointed_cone(r, rank, max_rays=5, full_dim=True):
    while True:
        count = r.randint(rank, max_rays)
        gens = [random_vector(r, rank, -3, 3) for _ in range(count)]
        c = Cone.from_generators(rank, gens)
        if not c.is_strongly_convex() or not c.rays:
            continue
        if full_dim and c.dimension() != rank:
            continue
        return c


def random_polytope(r, rank, max_pts=6, lo=-4, hi=4):
    count = r.randint(rank + 1, max_pts)
    pts = [tuple(r.randint(lo, hi) for _ in range(rank)) for _ in range(count)]
    return convex_hull(rank, pts)


def random_rational_point(r, rank, den_choices=(1, 1, 2, 3)):
    return tuple(
        Fraction(r.randint(-6, 6), r.choice(den_choices)) for _ in range(rank)
    )


def transform_cone(u, c):
    return Cone.from_generators(c.rank, [matmul_vec(u, v) for v in c.rays])


def matmul_vec(m, v):
    return tuple(sum(row[i] * v[i] for i in range(len(v))) for row in m)


def matmul(a, b):
    # dot raises on a length mismatch, so a factor of the wrong shape fails
    cols = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def transform_polyhedron(u, p):
    verts = [matmul_vec(u, v) for v in p.vertices]
    rays = [matmul_vec(u, v) for v in p.rays]
    return Polyhedron.from_points_and_rays(p.rank, verts, rays)


def transform_datum(u, u_inv, d):
    """d under x -> Ux: sigma and the summands move by U, w by U^-1 on the
    right."""
    from toricdeform.datum import build_datum

    return build_datum(transform_cone(u, d.sigma),
                       [transform_polyhedron(u, q) for q in d.summands],
                       functional_after(u_inv, d.w), boundary=d.boundary)


def functional_after(u_inv, w):
    # w' with <w', Ux> = <w, x>, i.e. w' = w . U^{-1}
    rank = len(w)
    return tuple(
        sum(w[i] * u_inv[i][j] for i in range(rank)) for j in range(rank)
    )


def translated(p, shift):
    """p + shift, hulled again from its moved vertices and its rays and
    lines; the empty polyhedron is its own translate."""
    if p.is_empty:
        return p
    return convex_hull(p.rank, [vadd(v, shift) for v in p.vertices],
                       p.rays + p.lines + tuple(map(vneg, p.lines)))


def random_datum_slice(r, rank):
    """Valid datum from a hyperplane slice of a random cone.

    Q is the bounded part of sigma cut at level -1 of a functional; the
    summands are lattice translates of Q and points, so the vertex
    decomposition condition holds by construction.
    """
    from toricdeform.datum import build_datum

    while True:
        sigma = random_pointed_cone(r, rank, max_rays=rank + 2)
        w = None
        for _ in range(40):
            cand = random_vector(r, rank, -3, 3)
            if any(dot(cand, ray) < 0 for ray in sigma.rays):
                w = cand
                break
        if w is None:
            continue
        ineqs = [(f, 0) for f in sigma.facets]
        ineqs.append((w, 1))
        ineqs.append((tuple(-x for x in w), -1))
        sl = Polyhedron.from_inequalities(rank, ineqs)
        if sl.is_empty or not sl.vertices:
            continue
        q_total = convex_hull(rank, sl.vertices)
        k = r.randint(1, 3)
        shifts = [
            tuple(r.randint(-2, 2) for _ in range(rank)) for _ in range(k)
        ]
        total_shift = tuple(sum(col) for col in zip(*shifts))
        q0 = translated(q_total, vneg(total_shift))
        summands = [q0] + [
            convex_hull(rank, [s]) for s in shifts
        ]
        boundary = True
        return build_datum(sigma, summands, w, boundary=boundary)


def random_datum_zonotope(r, rank):
    """Valid datum from a Minkowski sum of segments at height one.

    The base polytope lives in a hyperplane, one summand is lifted to
    height 1 and the rest stay at height 0; the whole picture is then
    twisted by a random unimodular map.
    """
    from toricdeform.datum import build_datum

    base_rank = rank - 1
    while True:
        k = r.randint(1, 3)
        pieces = []
        for _ in range(k + 1):
            a = tuple(r.randint(-2, 2) for _ in range(base_rank))
            b = tuple(r.randint(-2, 2) for _ in range(base_rank))
            pieces.append(convex_hull(base_rank, [a, b]))
        lifted = []
        for i, piece in enumerate(pieces):
            h = 1 if i == 0 else 0
            pts = [tuple(v) + (h,) for v in piece.vertices]
            lifted.append(convex_hull(rank, pts))
        total = lifted[0]
        for piece in lifted[1:]:
            total = minkowski_sum(total, piece)
        sigma = Cone.from_generators(rank, [
            tuple(int(x) for x in v) for v in total.vertices
        ])
        if not sigma.is_strongly_convex() or sigma.dimension() != rank:
            continue
        w = tuple([0] * base_rank) + (-1,)
        u, u_inv = random_unimodular(r, rank)
        sigma_t = transform_cone(u, sigma)
        summands_t = [transform_polyhedron(u, p) for p in lifted]
        w_t = functional_after(u_inv, w)
        return build_datum(sigma_t, summands_t, w_t, boundary=True)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def random_valid_data(seed, count, rank_choices=(2, 3)):
    r = rng(seed)
    out = []
    for i in range(count):
        rank = r.choice(rank_choices)
        if i % 2 == 0:
            out.append(random_datum_slice(r, rank))
        else:
            out.append(random_datum_zonotope(r, max(rank, 2) + 0))
    return out


def small_fano_polygons(limit=40):
    """Deterministic list of distinct Fano polygons with vertices in a box."""
    from toricdeform.mutation import validate_fano

    found = []
    seen = set()
    r = rng(20240817)
    attempts = 0
    while len(found) < limit and attempts < 4000:
        attempts += 1
        count = r.randint(3, 5)
        pts = [
            (r.randint(-2, 2), r.randint(-2, 2)) for _ in range(count)
        ]
        try:
            p = convex_hull(2, pts)
            fano = validate_fano(p)
        except (ValueError, ArithmeticError):
            continue
        key = p.vertices
        if key in seen:
            continue
        seen.add(key)
        found.append(fano)
    return found


DIRECTIONS = [
    (1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1),
    (2, 1), (1, 2), (-2, 1),
]


def random_mutation_cases(count=10):
    """Deterministic (polygon, direction, factor) triples that validate."""
    from toricdeform.mutation import MutationDatumError, validate_mutation_datum

    cases = []
    for fano in small_fano_polygons():
        for w in DIRECTIONS:
            perp = primitive((-w[1], w[0]))
            for m in (1, 2):
                f = convex_hull(2, [(0, 0), (m * perp[0], m * perp[1])])
                try:
                    md = validate_mutation_datum(fano, w, f)
                except (MutationDatumError, ValueError):
                    continue
                cases.append((fano, md))
                break
            if len(cases) >= count:
                return cases
        if len(cases) >= count:
            return cases
    return cases
