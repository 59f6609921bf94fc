"""Deformation data over a strongly convex cone and the enlarged cone.

A datum consists of a full-dimensional strongly convex cone sigma in N,
a Minkowski decomposition Q = Q_0 + ... + Q_k of a polyhedron inside
sigma, and a lattice functional w.  The enlarged lattice is
N~ = N + Z^k; the enlarged cone sigma~ is generated by sigma's rays,
the vertices of Q_0 shifted by -e_1-...-e_k, and the vertices of each
Q_i shifted by e_i.  The shifted functional is
w~ = w - sum_i floor(min over Q_i of w) e_i*.

DeformationDatum keeps its fields and the folded sum in __slots__, as
polyhedral.Cone does; every record here is a NamedTuple.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .cox import PairingData
from .lattice import as_int_vector, dot, primitive, vector_from_json
from .polyhedral import (
    Cone,
    Polyhedron,
    UnboundedError,
    _canonical_dual,
    _fold,
    _json_fields,
    _json_list,
    membership_scaling,
    min_functional,
    minkowski_sum,
)


class DatumStructureError(ValueError):
    """Malformed datum: wrong ranks, k = 0, empty summand, degenerate cone."""


class DeformationDatum:
    """Q is the sum of the summands, folded on first read; no caller sets
    it.  splits holds, for each vertex row of Q, the summands' vertex rows
    that add up to it: the unique split, composed down the fold from the
    pair that each minkowski_sum records; it is empty when Q has a line.
    Two data are equal when their four fields are."""

    __slots__ = ("sigma", "summands", "w", "boundary", "_sum")

    def __init__(self, sigma: Cone, summands: tuple, w: tuple, boundary: bool):
        self.sigma = sigma
        self.summands = summands  # (Q_0, ..., Q_k), k >= 1
        self.w = w
        self.boundary = boundary
        self._sum = None  # (q, splits)

    def _folded(self) -> tuple:
        if self._sum is None:
            q = self.summands[0]
            splits = [(h,) for h in q.homogeneous]
            for s in self.summands[1:]:
                q = minkowski_sum(q, s)
                splits = [splits[i] + (s.homogeneous[j],) for i, j in q.split]
            self._sum = q, tuple(splits)
        return self._sum

    @property
    def q(self) -> Polyhedron:
        return self._folded()[0]

    @property
    def splits(self) -> tuple:
        return self._folded()[1]

    @property
    def rank(self) -> int:
        return self.sigma.rank

    @property
    def k(self) -> int:
        return len(self.summands) - 1

    def to_json(self) -> dict:
        return {
            "sigma": self.sigma.to_json(),
            "summands": [s.to_json() for s in self.summands],
            "w": list(self.w),
            "boundary": self.boundary,
        }

    def __eq__(self, other):
        return (isinstance(other, DeformationDatum) and self.sigma == other.sigma
                and self.summands == other.summands and self.w == other.w
                and self.boundary == other.boundary)


def build_datum(sigma: Cone, summands: Sequence[Polyhedron], w: Sequence[int],
                boundary: bool = False) -> DeformationDatum:
    """Assemble a datum, rejecting structurally broken input outright.

    Geometric conditions are NOT checked here; that is validate_datum's
    job.  Rejected here: rank disagreements, fewer than two summands,
    empty summands, sigma not strongly convex or not full-dimensional,
    and a non-bool boundary flag.
    """
    if not isinstance(boundary, bool):
        raise DatumStructureError(
            "boundary must be true or false, got %r" % (boundary,))
    n = sigma.rank
    summands = tuple(summands)
    if len(summands) < 2:
        raise DatumStructureError(
            "need at least two summands (k >= 1), got %d" % len(summands))
    for i, s in enumerate(summands):
        if s.rank != n:
            raise DatumStructureError(
                "summand %d has rank %d, cone has rank %d" % (i, s.rank, n))
        if s.is_empty:
            raise DatumStructureError("summand %d is empty" % i)
    if len(w) != n:
        raise DatumStructureError("w has length %d, expected %d" % (len(w), n))
    try:
        w = as_int_vector(w)
    except ValueError:
        raise DatumStructureError("w must be a lattice vector") from None
    if not sigma.is_strongly_convex():
        raise DatumStructureError("cone is not strongly convex")
    if sigma.dimension() != n:
        raise DatumStructureError("cone is not full-dimensional")
    return DeformationDatum(sigma, summands, w, boundary)


def datum_from_json(data) -> DeformationDatum:
    """Inverse of DeformationDatum.to_json; a "Q" must be the summands' sum."""
    _json_fields(data, "datum", ("sigma", "summands", "w"))
    sigma = Cone.from_json(data["sigma"])
    summands = [Polyhedron.from_json(s)
                for s in _json_list(data["summands"], "summands")]
    total = Polyhedron.from_json(data["Q"]) if "Q" in data else None
    d = build_datum(sigma, summands, vector_from_json(data["w"], "w"),
                    boundary=data.get("boundary", False))
    if total is not None and total != d.q:
        raise DatumStructureError("supplied total polyhedron != sum of summands")
    return d


# ---------------------------------------------------------------------------
# Validation


class ConditionResult(NamedTuple):
    label: str
    description: str
    passed: bool
    witness: Optional[str] = None

    def to_json(self) -> dict:
        out = {"label": self.label, "description": self.description,
               "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class ValidationReport(NamedTuple):
    conditions: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.conditions)

    def failed(self) -> tuple:
        return tuple(c for c in self.conditions if not c.passed)

    def to_json(self) -> dict:
        return {"ok": self.ok,
                "conditions": [c.to_json() for c in self.conditions]}

    def __str__(self):
        lines = []
        for c in self.conditions:
            mark = "pass" if c.passed else "FAIL"
            line = "%s %s: %s" % (mark, c.label, c.description)
            if c.witness and not c.passed:
                line += " [witness: %s]" % c.witness
            lines.append(line)
        return "\n".join(lines)


def _fmt_point(v) -> str:
    # an int prints as the integral Fraction does
    return "(" + ", ".join(map(str, v)) + ")"


def validate_datum(d: DeformationDatum) -> ValidationReport:
    """The six defining conditions, plus (iv) for a boundary datum, with
    witnesses on failure; (iii) holds by construction (d.q is the sum)."""
    results = []
    sigma, q, w = d.sigma, d.q, d.w

    # (i) Q inside sigma, tested on the positive multiple d*v of a vertex
    # v, read off its homogeneous row; the zero vector lies in every cone.
    # Here and in (iv'), the Fraction vertex is read only to name a failure
    bad = None
    for i, h in enumerate(q.homogeneous):
        if any(h[:-1]) and not sigma.contains(h[:-1]):
            bad = "vertex " + _fmt_point(q.vertices[i])
            break
    if bad is None:
        for r in q.rays:
            if not sigma.contains(r):
                bad = "recession ray " + _fmt_point(r)
                break
    # build_datum refused a sigma with a line, so no line of Q lies in it
    if bad is None and q.lines:
        bad = "line " + _fmt_point(q.lines[0])
    results.append(ConditionResult("(i)", "Q is contained in the cone",
                                   bad is None, bad))

    # (ii) 0 not in Q
    zero = (0,) * d.rank
    hit = q.contains(zero)
    results.append(ConditionResult("(ii)", "0 does not lie in Q",
                                   not hit, _fmt_point(zero) if hit else None))

    results.append(ConditionResult(
        "(iii)", "Q equals the sum of the summands", True))

    # (iv') at most one non-lattice part (a row (d*p, d) with d > 1) in the
    # split of each vertex; a Q with a line has no vertices, only
    # representatives, so no verdict
    bad = "Q has a line" if q.lines else None
    for i, parts in enumerate(d.splits):
        if sum(h[-1] > 1 for h in parts) > 1:
            bad = "vertex " + _fmt_point(q.vertices[i])
            break
    results.append(ConditionResult(
        "(iv')", "each vertex of Q splits into summand vertices, "
        "at most one of them non-lattice", bad is None, bad))

    # (iv) boundary flavor: Q_1..Q_k must be lattice polyhedra
    if d.boundary:
        bad = None
        for i, s in enumerate(d.summands[1:], start=1):
            if not s.is_lattice:
                bad = "summand %d has non-lattice vertex" % i
                break
        results.append(ConditionResult(
            "(iv)", "summands 1..k are lattice polyhedra", bad is None, bad))

    # (v) min over Q of w exists and is >= -1
    try:
        mr = min_functional(q, w)
        ok = mr.value >= -1
        results.append(ConditionResult(
            "(v)", "min of w over Q exists and is >= -1", ok,
            None if ok else "min is %s at %s" % (mr.value, _fmt_point(mr.argmin))))
    except UnboundedError:
        results.append(ConditionResult(
            "(v)", "min of w over Q exists and is >= -1", False,
            "w unbounded below on Q"))

    # (vi) vertices of the level -1 slice of sigma lie on rays through Q;
    # sigma is pointed and full-dimensional, so the slice has one vertex
    # r / -<w, r> per ray r with <w, r> < 0, and r spans the same ray.  A
    # slice vertex is built only for a failing ray; the lex-least names it
    fails = []
    for r in sigma.rays:
        a = dot(w, r)
        if a < 0 and not membership_scaling(q, r):
            fails.append(tuple(Fraction(x, -a) for x in r))
    bad = "slice vertex " + _fmt_point(min(fails)) if fails else None
    results.append(ConditionResult(
        "(vi)", "every vertex of the level -1 slice of the cone "
        "lies in R+ Q", bad is None, bad))

    return ValidationReport(conditions=tuple(results))


class DatumValidationError(ValueError):
    """Raised when an operation requires a datum that fails validation."""

    def __init__(self, report: ValidationReport):
        self.report = report
        labels = ", ".join(c.label for c in report.failed())
        super().__init__("datum fails condition(s) %s" % labels)


def require_valid(d: DeformationDatum) -> ValidationReport:
    report = validate_datum(d)
    if not report.ok:
        raise DatumValidationError(report)
    return report


# ---------------------------------------------------------------------------
# The enlarged cone


class TildeData(NamedTuple):
    """The enlarged cone of a datum.  n, k, w_tilde and the rays (in the
    cone's canonical order) are read from pairings, their one owner."""

    datum: DeformationDatum
    cone: Cone  # in rank n + k
    pairings: PairingData  # the rays with their e_i* and w~ pairings
    provenance: tuple  # per ray, tuple of human-readable origin tags

    @property
    def n(self) -> int:
        return self.pairings.n

    @property
    def k(self) -> int:
        return self.pairings.k

    @property
    def w_tilde(self) -> tuple:
        return self.pairings.w_tilde

    @property
    def rays(self) -> tuple:
        return self.pairings.rays

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "rays": [list(r) for r in self.rays],
            "w_tilde": list(self.w_tilde),
            "e_pairings": [list(p) for p in self.pairings.e_pairings],
            "w_pairings": list(self.pairings.w_pairings),
            "provenance": [list(p) for p in self.provenance],
        }


def build_tilde(d: DeformationDatum) -> TildeData:
    """Generators: sigma rays with zero tail, Q_0 vertices tailed by
    (-1,...,-1), Q_i vertices tailed by e_i.  Non-extreme generators are
    dropped by cone canonicalization; provenance still records every
    originating generator per surviving ray."""
    n, k = d.rank, d.k
    tagged = []
    for r in d.sigma.rays:
        tagged.append((tuple(r) + (0,) * k, "sigma ray " + _fmt_point(r)))
    for i, s in enumerate(d.summands):
        tail = tuple(-1 if not i else int(j == i - 1) for j in range(k))
        for j, h in enumerate(s.homogeneous):
            # the row (e*v, e) gives the generator e*(v, tail) in integers,
            # and, when e = 1, the tag, as an int prints as a Fraction does
            v = h[:-1] if h[-1] == 1 else s.vertices[j]
            tagged.append((h[:-1] + tuple(h[-1] * t for t in tail),
                           "Q%d vertex %s" % (i, _fmt_point(v))))
    # recession directions of the summands are absorbed by sigma, but the
    # cone over a shifted unbounded summand still needs them as generators
    for i, s in enumerate(d.summands):
        for r in s.rays:
            tagged.append((tuple(r) + (0,) * k,
                           "Q%d recession ray %s" % (i, _fmt_point(r))))

    cone = Cone.from_generators(n + k, [g for g, _ in tagged])

    w_tilde = tuple(d.w) + tuple(-min_functional(s, d.w).floor
                                 for s in d.summands[1:])

    rays = cone.rays
    tags = {}
    for g, tag in tagged:
        if any(g):
            tags.setdefault(primitive(g), []).append(tag)
    prov = [tuple(tags.get(r, ())) for r in rays]
    return TildeData(datum=d, cone=cone,
                     pairings=PairingData(n=n, k=k, rays=rays, w_tilde=w_tilde),
                     provenance=tuple(prov))


class TildeStructureReport(NamedTuple):
    strongly_convex: bool
    dimension_ok: bool
    slice_ok: bool
    detail: str

    @property
    def ok(self) -> bool:
        return self.strongly_convex and self.dimension_ok and self.slice_ok

    def to_json(self) -> dict:
        return {"ok": self.ok, "strongly_convex": self.strongly_convex,
                "dimension_ok": self.dimension_ok, "slice_ok": self.slice_ok,
                "detail": self.detail}


def check_tilde_structure(t: TildeData) -> TildeStructureReport:
    """Strong convexity, full dimension n+k, and the slice property: the
    enlarged cone meets N_R x 0 exactly in the original cone.

    The slice is the rank-n cone cut out by the first n coordinates of the
    enlarged cone's facet rows; its canonical rays are compared with the
    original cone's."""
    n, k = t.n, t.k
    sc = t.cone.is_strongly_convex()
    dim_ok = t.cone.dimension() == n + k
    # (x, 0) lies in the enlarged cone iff <f[:n], x> >= 0 for every folded
    # facet row f: the slice is a cone in rank n, read in one pass
    meet = _fold(*_canonical_dual(n, {f[:n] for f in t.cone.facets}))
    expected = t.datum.sigma.rays
    slice_ok = meet == expected
    detail = "" if slice_ok else "slice rays %s != cone rays %s" % (meet, expected)
    return TildeStructureReport(strongly_convex=sc, dimension_ok=dim_ok,
                                slice_ok=slice_ok, detail=detail)


def floor_min_identity(d: DeformationDatum, u: Sequence[int]) -> bool:
    """Sum over summands of floor(min of u) against floor(min over Q).

    u must pair non-negatively with the cone; unbounded minima cannot
    occur then, since all recession directions of Q lie in the cone.
    """
    u = as_int_vector(u)
    if any(dot(u, r) < 0 for r in d.sigma.rays):
        raise ValueError("u lies outside the dual cone")
    left = sum(min_functional(s, u).floor for s in d.summands)
    right = min_functional(d.q, u).floor
    return left == right
