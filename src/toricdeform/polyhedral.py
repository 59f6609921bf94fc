"""Exact polyhedral geometry: cones, polyhedra, and fans.

Ray/facet conversion runs a Motzkin-Burger double description pass whose
adjacency test is combinatorial, on zero-set bitmasks; every object carries
both a generator and an inequality description in canonical form (primitive
vectors, lexicographically sorted, duplicate-free), so equality is plain
structural comparison.  All arithmetic is exact (int / Fraction).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Collection, Iterable, NamedTuple, Sequence

from .lattice import (
    ZeroVectorError,
    as_int_vector,
    dot,
    hermite_normal_form,
    identity_matrix,
    is_zero,
    primitive,
    saturate_rowspan,
    vector_from_json,
    vneg,
)


class UnboundedError(ValueError):
    """Raised when an operation needs a bounded (or bounded-below) input."""


# ---------------------------------------------------------------------------
# Double description


def _reduce(v: tuple) -> tuple:
    # primitive for an int row by a gcd alone: a row whose gcd is 1 comes
    # back as it is, and the zero row has no direction
    g = math.gcd(*v)
    if g == 1:
        return v
    if not g:
        raise ZeroVectorError("ZeroVector: the zero vector spans no ray")
    return tuple([x // g for x in v])


def dual_description(rank: int, normals: Sequence[tuple]):
    """Extreme rays and lineality basis of {x : <a, x> >= 0 for all a}.

    The normals are integer rows of length rank; they may be
    non-primitive and parallel (lattice_points passes cut homogeneous
    rows), and every ray and lineality row is a primitive tuple of plain
    ints, whatever the normals are.  Processes the inequalities
    incrementally.  State invariant: the current cone equals
    lin(lineality) + cone(rays), with rays extreme and pairwise distinct
    modulo the lineality space, and bit i of masks[t], the int kept beside
    rays[t], is set iff the i-th normal vanishes on that ray.  The
    lineality rows, from the identity on, stay a Z-basis of the saturated
    lattice of the lineality space: a normal that does not vanish on them
    takes unimodular row steps (Euclid on its values) until one row, l0,
    alone keeps a value, so every row is primitive with no gcd.  Processed
    normals vanish on the lineality space, so masks are tight sets modulo
    lineality.  A positive and a negative ray are adjacent iff their common
    tight set has at least rank - dim(lin) - 2 members and no third ray is
    tight on all of it (the combinatorial test of Fukuda & Prodon, 1996):
    the pair itself is tight on it, so the test counts the masks that
    contain it and stops at the third.  Each adjacent pair spans its own
    2-face, so new rays never repeat.  One pass over the signs lays out the
    next ray list: the positive rays, then the tight ones, then the new
    combinations.  Returns (rays, lineality) uncanonicalized.
    """
    _require_rank(rank, normals, "normal")
    lineality = [(0,) * i + (1,) + (0,) * (rank - 1 - i) for i in range(rank)]
    rays: list = []
    masks: list = []  # masks[t] is the tight set of rays[t]
    for n, a in enumerate(normals):
        bit = 1 << n
        vals = [sum(map(mul, a, l)) for l in lineality]
        if any(vals):
            # Euclid on the values, each round pivoting on the least |value|,
            # until one row, l0, alone keeps a value, al0
            kept = []
            while True:
                m = min(map(abs, filter(None, vals)))
                i0 = vals.index(m) if m in vals else vals.index(-m)
                l0, al0 = lineality.pop(i0), vals.pop(i0)
                live = []
                for v, l in zip(vals, lineality):
                    if v:
                        q = v // al0
                        l = tuple([x - q * y for x, y in zip(l, l0)])
                        if v != q * al0:
                            live.append((v - q * al0, l))
                            continue
                    kept.append(l)
                if not live:
                    break
                vals = [v for v, _ in live] + [al0]
                lineality = [l for _, l in live] + [l0]
            lineality = kept
            if al0 < 0:
                l0, al0 = vneg(l0), -al0
            new_rays = []
            for r in rays:  # shifting along l0 makes r tight on a
                ar = sum(map(mul, a, r))
                new_rays.append(_reduce(tuple([al0 * x - ar * y for x, y in zip(r, l0)]))
                                if ar else r)
            new_rays.append(l0)  # l0 was a line
            rays = new_rays
            masks = [m | bit for m in masks]
            masks.append(bit - 1)
            continue
        vs = [sum(map(mul, a, r)) for r in rays]
        if min(vs, default=0) >= 0:
            masks = [m if v else m | bit for m, v in zip(masks, vs)]
            continue
        new_rays, new_masks, zero_rays, zero_masks, pos, neg = [], [], [], [], [], []
        for t in zip(rays, masks, vs):
            r, m, v = t
            if v > 0:
                new_rays.append(r)
                new_masks.append(m)
                pos.append(t)
            elif v:
                neg.append(t)
            else:
                zero_rays.append(r)
                zero_masks.append(m | bit)
        new_rays += zero_rays
        new_masks += zero_masks
        need = rank - len(lineality) - 2
        for rp, mp, vp in pos:
            for rn, mn, vn in neg:
                common = mp & mn
                if common.bit_count() < need:
                    continue
                hits = 0
                for m in masks:
                    if m & common == common:
                        hits += 1
                        if hits == 3:
                            break
                else:  # no third ray: the pair is adjacent
                    new_rays.append(_reduce(tuple([vp * x - vn * y for x, y in zip(rn, rp)])))
                    new_masks.append(common | bit)
        rays, masks = new_rays, new_masks
    return rays, lineality


def _reject(v: tuple, ortho: Sequence[tuple]) -> tuple:
    # primitive positive multiple of the primitive int row v's orthogonal
    # projection off span(ortho); ortho holds pairs (b, <b, b>) of pairwise
    # orthogonal rows b.  A zero projection raises ZeroVectorError.
    for b, bb in ortho:
        vb = sum(map(mul, v, b))
        if vb:
            v = _reduce(tuple([bb * x - vb * y for x, y in zip(v, b)]))
    return v


def _canonical_vrep(rays: Sequence[tuple], lineality: Sequence[tuple]):
    """Canonicalize a (rays, lineality) pair, in integers only.

    The rays must be primitive tuples of plain ints, and the lineality
    rows a Z-basis of the saturated lattice of the lineality space, as
    every caller gives them (dual_description, and Cone._moved with the
    moved canonical lines of a cone); the lines are their Hermite form.
    Each ray class is represented by the primitive integer vector on its
    orthogonal projection away from the lineality span, rejected step by
    step off an integer Gram-Schmidt basis of that span, kept as the
    pairs (b, <b, b>) that _reject takes.  With no lineality every ray is
    its own representative.  This makes both parts functions of the cone
    as a set.
    """
    if not lineality:
        return tuple(sorted(set(rays))), ()
    lines = hermite_normal_form(lineality)
    ortho = []
    for l in lines:
        b = _reject(l, ortho)
        ortho.append((b, sum(map(mul, b, b))))
    pointed = sorted({_reject(r, ortho) for r in rays})
    return tuple(pointed), lines


def _fold(pointed: tuple, lines: Sequence[tuple]) -> tuple:
    # pointed is canonical (sorted, duplicate-free), so with no lines it
    # is its own fold
    if not lines:
        return pointed
    out = set(pointed)
    for l in lines:
        out.add(l)
        out.add(vneg(l))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# JSON payload shapes; numbers follow lattice.vector_from_json


def _json_fields(data, what: str, keys: Sequence[str]) -> dict:
    if not isinstance(data, dict):
        raise ValueError("%s payload must be a JSON object" % what)
    for key in keys:
        if key not in data:
            raise ValueError("%s payload needs \"%s\"" % (what, key))
    return data


def _json_list(v, what: str):
    if not isinstance(v, (list, tuple)):
        raise ValueError("%s must be a list, got %r" % (what, v))
    return v


def _json_lattice_vectors(v, what: str) -> list:
    return [as_int_vector(vector_from_json(r, what))
            for r in _json_list(v, what + "s")]


def _json_rank(data: dict, vectors: Sequence[tuple], what: str) -> int:
    """The payload's "rank", by default the length of its first vector."""
    rank = data.get("rank", len(vectors[0]) if vectors else None)
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
        raise ValueError("%s payload needs a positive \"rank\", got %r" % (what, rank))
    return rank


def _require_rank(rank: int, vectors: Sequence[tuple], what: str) -> None:
    for v in vectors:
        if len(v) != rank:
            raise ValueError("%s %r does not live in rank %d" % (what, v, rank))


def _canonical_dual(rank: int, rows: Collection[tuple]):
    """Canonical (pointed rays, lines) of {x : <a, x> >= 0 for every row a}:
    one double description pass, then _canonical_vrep.  The rows need be
    neither primitive nor distinct."""
    return _canonical_vrep(*dual_description(rank, rows))


def _hull(rank: int, rows: Iterable[Sequence], what: str) -> "Cone":
    """The cone generated by rows, the only code that turns rows into a
    Cone.  A row whose length is not rank is refused under the name what.
    The rows are made primitive, zero rows dropped and the rest deduped
    and sorted; one double description gives the canonical facets, and one
    of their fold the canonical rays and lines.  {x : <a, x> >= 0 for
    every row a} is the dual of this cone."""
    rows = [tuple(r) for r in rows]
    _require_rank(rank, rows, what)
    clean = sorted({primitive(r) for r in rows if not is_zero(r)})
    fac_p, fac_l = _canonical_dual(rank, clean)
    return Cone(rank, *_canonical_dual(rank, _fold(fac_p, fac_l)), fac_p, fac_l)


def _split_inequalities(facets: Sequence[tuple], rows: Sequence[tuple]) -> list:
    """The rows (u, c), read <u, x> + c >= 0, of the folded canonical facets
    of a cone over a polyhedron x {1} in rank + 1, given its generator rows
    above height 0, less the height row.  Where the height row is a facet,
    its canonical representative is the one facet tight on none of those
    rows: any other facet holds one, as a face not inside {x_last = 0}
    holds a generator above height 0.  The cone keeps it, and the equation
    pairs imply it.  The facets are sorted, and all u have one length, so
    the pairs are sorted too."""
    out = []
    for f in facets:
        for h in rows:
            if not sum(map(mul, f, h)):
                out.append((f[:-1], f[-1]))
                break
    return out


# ---------------------------------------------------------------------------
# Cones


class Cone:
    """Rational polyhedral cone with canonical ray and facet descriptions.

    rays folds the extreme rays with +/- a basis of the lineality space, so
    degenerate (non-pointed or lower-dimensional) cones round-trip exactly;
    facets lists inner normals, with equation pairs for lower-dimensional
    cones.  Both lists are primitive, sorted, duplicate-free, and folded
    on first read: with no lines, rays is pointed_rays itself, and with no
    facet lines, facets is pointed_facets itself.
    """

    __slots__ = ("rank", "pointed_rays", "lines", "pointed_facets", "facet_lines",
                 "_rays", "_facets", "_hash")

    def __init__(self, rank, pointed_rays, lines, pointed_facets, facet_lines):
        self.rank = rank
        self.pointed_rays = tuple(pointed_rays)
        self.lines = tuple(lines)
        self.pointed_facets = tuple(pointed_facets)
        self.facet_lines = tuple(facet_lines)
        self._rays = self._facets = self._hash = None

    @property
    def rays(self) -> tuple:
        if self._rays is None:
            self._rays = _fold(self.pointed_rays, self.lines)
        return self._rays

    @property
    def facets(self) -> tuple:
        if self._facets is None:
            self._facets = _fold(self.pointed_facets, self.facet_lines)
        return self._facets

    @classmethod
    def from_generators(cls, rank: int, generators: Iterable[Sequence]) -> "Cone":
        return _hull(rank, generators, "generator")

    @classmethod
    def from_inequalities(cls, rank: int, normals: Iterable[Sequence]) -> "Cone":
        return _hull(rank, normals, "normal").dual()

    def dual(self) -> "Cone":
        return Cone(self.rank, self.pointed_facets, self.facet_lines,
                    self.pointed_rays, self.lines)

    def permuted(self, perm: Sequence[int]) -> "Cone":
        """The image under x -> (x[perm[0]], x[perm[1]], ...), with no
        double description: a permutation is orthogonal, so it maps rays
        and facet normals alike and commutes with the projection in
        _canonical_vrep, which only has to sort and re-basis the lines."""
        def move(rows):
            return [tuple(r[i] for i in perm) for r in rows]

        return self._moved(self.rank, move)

    def with_zero_at(self, i: int) -> "Cone":
        """The image in rank + 1 under x -> (x[:i], 0, x[i:]), with no
        double description: the map is an isometry onto the hyperplane
        x_i = 0, so rays, lines and facet normals each gain a 0 at i, and
        e_i joins the facet lines; 0 <= i <= rank."""
        def move(rows):
            return [r[:i] + (0,) + r[i:] for r in rows]

        e_i = (0,) * i + (1,) + (0,) * (self.rank - i)
        return self._moved(self.rank + 1, move, [e_i])

    def _moved(self, rank: int, move, new_facet_lines=()) -> "Cone":
        """The cone in rank whose parts are move() of this cone's, with
        new_facet_lines added, each half re-canonicalized by _canonical_vrep.
        move must be a linear isometry onto its image, so that it maps facet
        normals as it maps rays and commutes with the orthogonal projection
        (a permutation, or a zero insertion); each new facet line is a unit
        vector orthogonal to the image, so the facet lines stay a saturated
        basis."""
        return Cone(rank, *_canonical_vrep(move(self.pointed_rays), move(self.lines)),
                    *_canonical_vrep(move(self.pointed_facets),
                                     [*move(self.facet_lines), *new_facet_lines]))

    def contains(self, v: Sequence) -> bool:
        return (all(dot(f, v) >= 0 for f in self.pointed_facets)
                and all(dot(l, v) == 0 for l in self.facet_lines))

    def interior_contains(self, v: Sequence) -> bool:
        if self.dimension() != self.rank:
            raise ValueError("interior test needs a full-dimensional cone")
        return all(dot(f, v) > 0 for f in self.pointed_facets)

    def is_strongly_convex(self) -> bool:
        return not self.lines

    def dimension(self) -> int:
        # facet_lines is a basis of the orthogonal complement of the span
        return self.rank - len(self.facet_lines)

    def __eq__(self, other):
        # the generator half determines the facets
        return (isinstance(other, Cone) and self.rank == other.rank
                and self.pointed_rays == other.pointed_rays and self.lines == other.lines)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rank, self.pointed_rays, self.lines))
        return self._hash

    def __repr__(self):
        return "Cone(rank=%d, rays=%r)" % (self.rank, list(self.rays))

    def to_json(self) -> dict:
        return {"rank": self.rank, "rays": [list(r) for r in self.rays]}

    @classmethod
    def from_json(cls, data) -> "Cone":
        """Inverse of to_json: {"rays", "rank"?}."""
        _json_fields(data, "cone", ("rays",))
        rays = _json_lattice_vectors(data["rays"], "cone ray")
        return cls.from_generators(_json_rank(data, rays, "cone"), rays)


# ---------------------------------------------------------------------------
# Polyhedra


class MinResult(NamedTuple):
    """The minimum of a functional over a polyhedron: its exact value, its
    floor, and the primitive homogeneous row (d*v, d), from
    Polyhedron.homogeneous, of the lex-least vertex v attaining it.  argmin,
    v itself, is built from the row when read."""

    value: Fraction
    floor: int
    row: tuple

    @property
    def argmin(self) -> tuple:
        d = self.row[-1]
        return tuple(Fraction(x, d) for x in self.row[:-1])


class Polyhedron:
    """Convex rational polyhedron conv(vertices) + cone(rays) (+ lines).

    Polyhedron(c) is P = {x : (x, 1) in c}, kept with c as cone: c must
    reach no lower than height 0, and is then the cone over P x {1}, unless
    P is empty, whose cone is {0}.  Every part is read off c once, in
    canonical form: recession rays and lines are primitive integer tuples,
    inequalities are jointly-primitive integer pairs (normal, offset)
    meaning <normal, x> + offset >= 0.  The field homogeneous holds, for
    each vertex v, the primitive integer row (d*v, d) with d > 0 that the
    cone gives for it, so functionals are evaluated on vertices in
    integers, and so is their order: the row of v is keyed by (L/d)*(d*v),
    L the lcm of every d.  vertices, the Fraction tuples v in that
    (lexicographic) order, are built from the rows on first read.  split
    is None unless minkowski_sum records one.  The empty polyhedron has no
    vertices and no rows, and carries the single inconsistent inequality
    (0, -1).  rank, dimension, equality and hash are the cone's.
    """

    __slots__ = ("cone", "homogeneous", "rays", "lines", "inequalities", "split",
                 "_vertices")

    def __init__(self, cone: Cone):
        if any(r[-1] < 0 for r in cone.pointed_rays) or any(l[-1] for l in cone.lines):
            raise ValueError("cone reaches below height 0: not a cone over a polyhedron")
        # the rays above height 0 are the vertex rows, those at height 0
        # the recession rays; rows with d = 1 sort plainly
        rows = [r for r in cone.pointed_rays if r[-1]]
        if rows:
            lcm = math.lcm(*[h[-1] for h in rows])
            rows.sort(key=None if lcm == 1 else
                      lambda h: [x * (lcm // h[-1]) for x in h[:-1]])
            self.inequalities = tuple(_split_inequalities(cone.facets, rows))
        else:  # P is empty, and its cone is {0}
            if cone.pointed_rays or cone.lines:
                cone = Cone(cone.rank, (), (), (), identity_matrix(cone.rank))
            self.inequalities = (((0,) * (cone.rank - 1), -1),)
        self.cone = cone
        self.homogeneous = tuple(rows)
        self.rays = tuple([r[:-1] for r in cone.pointed_rays if not r[-1]])
        self.lines = tuple([l[:-1] for l in cone.lines])
        self.split = self._vertices = None

    # -- constructors

    @classmethod
    def empty(cls, rank: int) -> "Polyhedron":
        return cls(Cone(rank + 1, (), (), (), identity_matrix(rank + 1)))

    @classmethod
    def from_points_and_rays(cls, rank: int, points: Iterable[Sequence],
                             rays: Iterable[Sequence] = ()) -> "Polyhedron":
        pts = [tuple(p) for p in points]
        rs = [tuple(r) for r in rays]
        if not pts:
            raise ValueError("empty input: a hull needs at least one point")
        _require_rank(rank, pts + rs, "point or ray")
        if any(is_zero(r) for r in rs):
            raise ZeroVectorError("ZeroVector: zero recession direction")
        return cls(_hull(rank + 1, [p + (1,) for p in pts] + [r + (0,) for r in rs],
                         "point or ray"))

    @classmethod
    def from_inequalities(cls, rank: int, inequalities: Iterable[tuple]) -> "Polyhedron":
        ineqs = [(tuple(u), c) for u, c in inequalities]
        _require_rank(rank, [u for u, _ in ineqs], "normal")
        # a constant row repeats the homogenizing one (c > 0) or leaves
        # no point above height 0 (c < 0), so the hull is empty
        rows = [u + (c,) for u, c in ineqs]
        rows.append((0,) * rank + (1,))  # homogenizing halfspace
        return cls(_hull(rank + 1, rows, "normal").dual())

    # -- basic queries

    @property
    def rank(self) -> int:
        return self.cone.rank - 1

    @property
    def vertices(self) -> tuple:
        if self._vertices is None:
            self._vertices = tuple(tuple(Fraction(x, h[-1]) for x in h[:-1])
                                   for h in self.homogeneous)
        return self._vertices

    @property
    def is_empty(self) -> bool:
        return not self.homogeneous

    @property
    def is_bounded(self) -> bool:
        return not self.rays and not self.lines

    @property
    def is_lattice(self) -> bool:
        """True if every minimal face v + L holds a lattice point.  Pointed,
        that is every row (d*v, d) having d = 1; with lines, <u, d*v> is
        divisible by d for every u of a Z-basis of the lattice of L^perp,
        the saturated span of the inequality normals."""
        if not self.lines:
            return all(h[-1] == 1 for h in self.homogeneous)
        basis = saturate_rowspan([u for u, _ in self.inequalities])
        return all(dot(u, h[:-1]) % h[-1] == 0 for h in self.homogeneous for u in basis)

    def contains(self, x: Sequence) -> bool:
        if self.is_empty:
            return False
        return all(dot(u, x) + c >= 0 for u, c in self.inequalities)

    def affine_dimension(self) -> int:
        """-1 when empty; the cone's dimension less one, so no elimination
        runs."""
        return self.cone.dimension() - 1

    def lattice_vertices(self) -> tuple:
        return tuple(h[:-1] if h[-1] == 1 else as_int_vector(self.vertices[i])
                     for i, h in enumerate(self.homogeneous))

    def to_json(self) -> dict:
        data = {
            "vertices": [[[x.numerator, x.denominator] for x in v] for v in self.vertices],
            "rays": [list(r) for r in self.rays],
        }
        if self.is_empty or self.lines:
            data["rank"] = self.rank
            data["lines"] = [list(l) for l in self.lines]
        return data

    @classmethod
    def from_json(cls, data) -> "Polyhedron":
        """Inverse of to_json: a bare vertex list or {"vertices", "rays"?,
        "lines"?, "rank"?}; no vertices, rays or lines is the empty one.
        The rank defaults to the length of the first vertex, ray or line."""
        if isinstance(data, list):
            data = {"vertices": data}
        _json_fields(data, "polyhedron", ("vertices",))
        verts = [vector_from_json(v, "polyhedron vertex")
                 for v in _json_list(data["vertices"], "polyhedron vertices")]
        rays = _json_lattice_vectors(data.get("rays", []), "polyhedron ray")
        lines = _json_lattice_vectors(data.get("lines", []), "polyhedron line")
        rank = _json_rank(data, verts or rays or lines, "polyhedron")
        if not (verts or rays or lines):
            return cls.empty(rank)
        return cls.from_points_and_rays(rank, verts, rays + lines + [vneg(l) for l in lines])

    def __eq__(self, other):
        return isinstance(other, Polyhedron) and self.cone == other.cone

    def __hash__(self):
        return hash(self.cone)

    def __repr__(self):
        if self.is_empty:
            return "Polyhedron(empty, rank=%d)" % self.rank
        return "Polyhedron(vertices=%r, rays=%r)" % (
            [tuple(str(x) for x in v) for v in self.vertices], list(self.rays))


def convex_hull(rank: int, points: Iterable[Sequence], rays: Iterable[Sequence] = ()) -> Polyhedron:
    return Polyhedron.from_points_and_rays(rank, points, rays)


def minkowski_sum(a: Polyhedron, b: Polyhedron) -> Polyhedron:
    """a + b, hulled from homogeneous integer rows, with its split.

    The candidate for the vertices u of a and v of b, with rows (d*u, d)
    and (e*v, e), is (e*d*u + d*e*v, d*e) reduced to the row of u + v; the
    rays, and each line with both signs, are rows ending in 0.  One cone
    hull of these rows gives the sum, and builds no Fraction.  A vertex of
    a + b splits uniquely into vertices of a and b (Fukuda, J. Symb.
    Comput. 38, 2004), so exactly one candidate lands on it: split holds,
    for each vertex row of the sum, the pair (i, j) of the rows
    a.homogeneous[i] and b.homogeneous[j] of that candidate.  A sum with
    lines has no vertices, and its split is empty; so is an empty sum's.
    """
    if a.rank != b.rank:
        raise ValueError("rank mismatch in Minkowski sum")
    pairs = {}
    for i, g in enumerate(a.homogeneous):
        du, d = g[:-1], g[-1]
        for j, h in enumerate(b.homogeneous):
            e = h[-1]  # zip(du, h) stops before it
            pairs[_reduce(tuple([e * x + d * y for x, y in zip(du, h)]) + (d * e,))] = i, j
    rows = list(pairs)
    for r in a.rays + b.rays:
        rows.append(r + (0,))
    for l in a.lines + b.lines:
        rows += [l + (0,), vneg(l) + (0,)]
    p = Polyhedron(Cone.from_generators(a.rank + 1, rows))
    p.split = () if p.lines else tuple(pairs[h] for h in p.homogeneous)
    return p


def min_functional(p: Polyhedron, u: Sequence) -> MinResult:
    """Exact minimum of <u, .> over p, its floor, and the lex-least argmin vertex."""
    if p.is_empty:
        raise ValueError("min over the empty polyhedron")
    for r in p.rays:
        if dot(u, r) < 0:
            raise UnboundedError("UnboundedBelow: functional decreases along recession ray %r" % (r,))
    for l in p.lines:
        if dot(u, l) != 0:
            raise UnboundedError("UnboundedBelow: functional varies along a line")
    # candidates a / d with a = <u, d*v>, compared by cross-multiplying;
    # vertices come lex-sorted, so the first least one is the lex-least
    best = None
    for i, h in enumerate(p.homogeneous):
        a, d = dot(u, h[:-1]), h[-1]
        if best is None or a * best[1] < best[0] * d:
            best, arg = (a, d), i
    value = Fraction(*best)
    return MinResult(value=value, floor=math.floor(value), row=p.homogeneous[arg])


def _level_inequalities(p: Polyhedron, i: int) -> list:
    """The inequalities (u, c) of the hull of p's vertices projected to
    their first i coordinates: the canonical facets of the cone over the
    rows (d*v[:i], d), as Polyhedron.from_points_and_rays would list them,
    from one double description pass and no Polyhedron."""
    rows = {h[:i] + h[-1:] for h in p.homogeneous}
    fac_p, fac_l = _canonical_dual(i + 1, rows)
    return _split_inequalities(_fold(fac_p, fac_l), rows)


def lattice_points(p: Polyhedron) -> tuple:
    """All lattice points of a bounded polyhedron, sorted lexicographically.

    Project-and-lift enumeration (as in Normaliz): level i holds the
    inequalities of the hull of the vertices projected to the first i + 1
    coordinates (_level_inequalities: one double description pass, no
    hull), and the last level is p's own inequalities.  With the prefix
    x_0..x_{i-1} fixed, every row reads a * x_i >= rhs, so x_i runs over
    an integer interval; a prefix outside a projection is never
    extended.  The last level emits its whole interval at once, as the run
    prefix + (x,) for each x in it.  x_i increases at every level, so the
    output is sorted.
    """
    if p.is_empty:
        return ()
    if not p.is_bounded:
        raise UnboundedError("Unbounded: lattice point enumeration needs a polytope")
    if not p.rank:
        return ((),)
    levels = [_level_inequalities(p, i) for i in range(1, p.rank)]
    levels.append(p.inequalities)
    last = p.rank - 1
    out = []
    point = []

    def lift(i):
        lo = hi = None
        for u, c in levels[i]:
            a = u[i]
            rhs = -c - sum(map(mul, u, point))  # map stops at the prefix
            if a > 0:
                b = -(-rhs // a)
                if lo is None or b > lo:
                    lo = b
            elif a < 0:
                b = rhs // a
                if hi is None or b < hi:
                    hi = b
            elif rhs > 0:
                return
        if i == last:
            prefix = tuple(point)
            out.extend([prefix + (x,) for x in range(lo, hi + 1)])
            return
        for x in range(lo, hi + 1):
            point.append(x)
            lift(i + 1)
            point.pop()

    lift(0)
    return tuple(out)


def membership_scaling(q: Polyhedron, v: Sequence) -> bool:
    """True iff some positive scaling v / lam lies in q (i.e. v is in R+ . q).

    A row <u, x> + c >= 0 bounds lam from below by -<u, v> / c if c > 0
    and from above by <u, v> / -c if c < 0.  Each bound stays an integer
    pair (num, den) with den > 0, and bounds are compared by
    cross-multiplying.  With 0 not in q, v = 0 is never scalable.
    """
    if is_zero(v):
        return False
    lo = (0, 1)  # lam > 0 in any case
    hi = None
    for u, c in q.inequalities:
        s = dot(u, v)
        if c == 0:
            if s < 0:
                return False
        elif c > 0:
            if -s * lo[1] > lo[0] * c:
                lo = (-s, c)
        elif hi is None or s * hi[1] < hi[0] * -c:
            hi = (s, -c)
    if hi is None:
        return True
    if lo[0] > 0:
        return lo[0] * hi[1] <= hi[0] * lo[1]
    return hi[0] > 0


# ---------------------------------------------------------------------------
# Fans


class Fan(NamedTuple):
    """A fan given by its rays and maximal cones (index tuples into rays)."""

    rank: int
    rays: tuple
    maximal_cones: tuple

    @classmethod
    def from_json(cls, data) -> "Fan":
        """Read {"rays", "maximal_cones", "rank"?}: distinct primitive
        rays, and each cone a list of indices into them."""
        _json_fields(data, "fan", ("rays", "maximal_cones"))
        rays = tuple(_json_lattice_vectors(data["rays"], "fan ray"))
        rank = _json_rank(data, rays, "fan")
        if any(len(r) != rank for r in rays):
            raise ValueError("fan rays must all have length %d" % rank)
        for i, r in enumerate(rays):
            g = math.gcd(*r)
            if g != 1 or r in rays[:i]:
                raise ValueError("fan ray %s is %s" % (list(r), (
                    "zero" if not g else "not primitive" if g > 1 else "repeated")))
        cones = tuple(tuple(_json_list(c, "fan cone"))
                      for c in _json_list(data["maximal_cones"], "fan cones"))
        bad = [i for c in cones for i in c
               if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < len(rays)]
        if bad:
            raise ValueError("fan cone index %r is not one of the %d rays" % (bad[0], len(rays)))
        return cls(rank=rank, rays=rays, maximal_cones=cones)

