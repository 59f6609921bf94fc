"""Total-coordinate equations: one variable per ray, graded by the
cokernel of the dual ray map.

Every equation is read off one table, PairingData: the rays in rank n+k,
whose last k coordinates are the e_i* pairings, plus <w~, ray>.  The
emitters take a PairingData, or any object that carries one as
``.pairings`` (datum.TildeData).  PairingData, CoxSystem and
CoxPolynomial are NamedTuple records: the tables and the grading group
are properties built on each read, and a CoxPolynomial refuses a
negative exponent when it is built.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul
from typing import NamedTuple, Optional, Sequence

from .lattice import (
    AbelianGroupPresentation, as_fraction, as_int_vector, dot,
    elementary_divisors, hermite_normal_form, matrix_rank, smith_normal_form,
    vector_from_json, vneg)
from .polyhedral import _json_fields, _json_list


class NegativeExponentError(ValueError):
    def __init__(self, ray, exponent, where):
        self.ray = ray
        self.exponent = exponent
        super().__init__(
            "NegativeExponent: exponent %s of variable at ray %s in %s"
            % (exponent, tuple(ray), where))


class PairingData(NamedTuple):
    """Rays with their e_i* tails plus the shifted functional."""

    n: int
    k: int
    rays: tuple
    w_tilde: tuple

    @classmethod
    def of(cls, t) -> "PairingData":
        return t if isinstance(t, cls) else t.pairings

    @property
    def e_pairings(self) -> tuple:
        """Per ray, the k-tuple of e_i* pairings."""
        return tuple(r[self.n:] for r in self.rays)

    @property
    def w_pairings(self) -> tuple:
        """Per ray, <w~, ray>."""
        return tuple(dot(self.w_tilde, r) for r in self.rays)

    @property
    def matrix(self) -> tuple:
        """Rows e_1*..e_k*, columns the rays."""
        return tuple(tuple(r[i] for r in self.rays)
                     for i in range(self.n, self.n + self.k))

    @property
    def y_exps(self) -> tuple:
        """Per slot, the positive parts of its pairings, read off the rays."""
        return tuple(tuple(max(r[i], 0) for r in self.rays)
                     for i in range(self.n, self.n + self.k))

    @property
    def z_exps(self) -> tuple:
        """Per slot, the negative parts of its pairings, read off the rays."""
        return tuple(tuple(max(-r[i], 0) for r in self.rays)
                     for i in range(self.n, self.n + self.k))

    @property
    def boundary_mask(self) -> tuple:
        """1 at the rays that pair non-positively with every e_i*."""
        return tuple(int(all(x <= 0 for x in e)) for e in self.e_pairings)

    @property
    def zero_tail_mask(self) -> tuple:
        """1 at the rays that pair to zero with every e_i*."""
        return tuple(int(not any(e)) for e in self.e_pairings)

    def exps(self, v) -> tuple:
        """Cox exponents of the character v (of length n + k):
        (<v, ray_j>)_j."""
        return tuple(sum(map(mul, v, r)) for r in self.rays)


class Term(NamedTuple):
    coeff: Fraction
    param: Optional[str]  # formal degree-0 symbol, or None
    exps: tuple

    def support(self) -> frozenset:
        return frozenset(j for j, e in enumerate(self.exps) if e)


class CoxPolynomial(NamedTuple("CoxPolynomial", [("terms", tuple)])):
    __slots__ = ()

    def __new__(cls, terms):
        if any(e < 0 for t in terms for e in t.exps):
            raise ValueError("negative exponent in term")
        return super().__new__(cls, terms)

    def support(self) -> frozenset:
        out = frozenset()
        for t in self.terms:
            out |= t.support()
        return out

    def substitute(self, values: dict) -> "CoxPolynomial":
        """Specialize parameters to ints or Fractions (floats raise
        TypeError); drops vanished terms."""
        merged = {}  # (param, exps) -> term, in first-seen order
        for t in self.terms:
            if t.param is not None and t.param in values:
                t = Term(t.coeff * as_fraction(values[t.param]), None, t.exps)
            key = t.param, t.exps
            if key in merged:
                t = Term(merged[key].coeff + t.coeff, t.param, t.exps)
            if t.coeff:
                merged[key] = t
            else:
                merged.pop(key, None)
        return CoxPolynomial(terms=tuple(merged.values()))

    def proportional(self, other: "CoxPolynomial") -> bool:
        """Equal up to a nonzero rational scalar, ignoring term order, after
        merging like terms and dropping zero ones (substitute({}))."""
        mine = {(t.param, t.exps): t.coeff for t in self.substitute({}).terms}
        theirs = {(t.param, t.exps): t.coeff for t in other.substitute({}).terms}
        if set(mine) != set(theirs):
            return False
        ratios = {c / theirs[key] for key, c in mine.items()}
        return len(ratios) <= 1

    def to_json(self) -> dict:
        return {"terms": [
            {"coeff": _coeff_string(t), "exps": list(t.exps)}
            for t in self.terms]}


def _coeff_string(t: Term) -> str:
    sign = "-" if t.coeff < 0 else "+"
    mag = abs(t.coeff)
    if t.param is None:
        return sign + str(mag)
    if mag == 1:
        return sign + t.param
    return "%s%s*%s" % (sign, mag, t.param)


def monomial(exps) -> CoxPolynomial:
    return CoxPolynomial(terms=(Term(Fraction(1), None, tuple(exps)),))


# ---------------------------------------------------------------------------
# Equation emitters


def binomials(t) -> tuple:
    """For each slot i: the product over positive pairings minus the
    product over negative pairings."""
    p = PairingData.of(t)
    return tuple(
        CoxPolynomial(terms=(Term(Fraction(1), None, y),
                             Term(Fraction(-1), None, z)))
        for y, z in zip(p.y_exps, p.z_exps))


def trinomials(t) -> tuple:
    """Binomial plus the parameter term t_i; the third monomial's exponent
    at ray j is <w~, ray_j> + (negative part of the e_i* pairing).
    Negative values mean the input was not a valid datum."""
    p = PairingData.of(t)
    w = p.w_pairings
    out = []
    for i, (y, z) in enumerate(zip(p.y_exps, p.z_exps)):
        third = tuple(map(add, w, z))
        for ray, e in zip(p.rays, third):
            if e < 0:
                raise NegativeExponentError(ray, e, "trinomial %d" % (i + 1))
        out.append(CoxPolynomial(terms=(
            Term(Fraction(1), None, y), Term(Fraction(-1), None, z),
            Term(Fraction(-1), "t%d" % (i + 1), third))))
    return tuple(out)


def boundary_monomial(t) -> CoxPolynomial:
    """Product, exponent one each, of the variables whose rays pair
    non-positively with every e_i*.  An empty product signals a
    degenerate configuration; the caller can test is_degenerate_monomial."""
    return monomial(PairingData.of(t).boundary_mask)


def is_degenerate_monomial(f: CoxPolynomial) -> bool:
    return all(e == 0 for t in f.terms for e in t.exps)


# ---------------------------------------------------------------------------
# Regular-sequence criteria


def fischer_shapiro_check(mat) -> bool:
    """Full row rank and at most one positive entry per column.

    Accepts a pairing matrix (rows e_i*, columns rays), a PairingData, or
    an object carrying one as ``.pairings``.
    """
    # the records first: a TildeData is a NamedTuple, so a tuple too
    if isinstance(mat, PairingData) or hasattr(mat, "pairings"):
        mat = PairingData.of(mat).matrix
    rows = [tuple(r) for r in mat]
    if not rows:
        return False
    k = len(rows)
    if matrix_rank(rows) != k:
        return False
    for j in range(len(rows[0])):
        positives = sum(1 for i in range(k) if rows[i][j] > 0)
        if positives > 1:
            return False
    return True


def disjoint_support_regular_sequence(polys: Sequence[CoxPolynomial],
                                      mono: CoxPolynomial) -> bool:
    """Regular-sequence certificate of a pencil: a single three-term
    polynomial and the monomial are coprime, i.e. no variable of the
    monomial divides every term.  Any other shape raises ValueError.
    """
    polys = tuple(polys)
    if len(polys) != 1 or len(polys[0].terms) != 3:
        raise ValueError("unrecognized input shape for the regularity check")
    return not any(all(t.exps[v] > 0 for t in polys[0].terms)
                   for v in mono.support())


# ---------------------------------------------------------------------------
# Grading


class CoxSystem(NamedTuple):
    """One variable per ray, graded by Z^rays modulo the relations
    {(<ray_j, m>)_j : m in M}, kept as their Hermite basis."""

    rank: int
    rays: tuple
    relations: tuple

    @property
    def group(self) -> AbelianGroupPresentation:
        """Free rank len(rays) - rank; torsion the elementary divisors >= 2
        of the stored Hermite relations."""
        return AbelianGroupPresentation(len(self.rays) - self.rank, tuple(
            d for d in elementary_divisors(self.relations) if d >= 2))

    def weights(self) -> tuple:
        """Per variable, its first free coordinate in the Smith basis of
        the ray matrix: the first free row of U, positive at its first
        nonzero entry.  The usual weight vector when the group is Z; zeros
        when it is finite."""
        if len(self.rays) == self.rank:
            return (0,) * self.rank
        u, _ = smith_normal_form(self.rays)
        # the rays span, so D's nonzero entries are its first `rank`
        row = u[self.rank]
        return vneg(row) if next(x for x in row if x) < 0 else row


def cox_system(rays: Sequence, rank: int) -> CoxSystem:
    """Grade one variable per ray by the cokernel of the ray map; the rays
    span iff its relations have rank `rank`, read off their Hermite form."""
    rays = tuple(tuple(r) for r in rays)
    for r in rays:
        if len(r) != rank:
            raise ValueError("ray length %d != rank %d" % (len(r), rank))
    relations = hermite_normal_form(list(zip(*rays)))
    if len(relations) != rank:
        raise ValueError(
            "rays do not span; the quotient would pick up a torus factor")
    return CoxSystem(rank=rank, rays=rays, relations=relations)


def term_degree(sys: CoxSystem, t: Term) -> tuple:
    """The degree of t's monomial as its class representative: the
    exponents reduced by the Hermite relations, each pivot coordinate into
    [0, pivot).  Two monomials have equal degree iff their representatives
    agree, torsion included."""
    e = list(t.exps)
    if len(e) != len(sys.rays):
        raise ValueError("%d exponents for %d variables" % (len(e), len(sys.rays)))
    for row in sys.relations:
        p = next(j for j, x in enumerate(row) if x)
        q = e[p] // row[p]
        if q:
            e = [a - q * b for a, b in zip(e, row)]
    return tuple(e)


def is_homogeneous(sys: CoxSystem, f: CoxPolynomial):
    """(flag, degree), the degree as term_degree's representative;
    parameters carry degree zero."""
    if not f.terms:
        return True, (0,) * len(sys.rays)
    degs = [term_degree(sys, t) for t in f.terms]
    if all(d == degs[0] for d in degs):
        return True, degs[0]
    return False, None


# ---------------------------------------------------------------------------
# Pretty printing


class AliasTable(NamedTuple):
    """Ordered variable names; order doubles as print priority."""

    rays: tuple
    names: tuple

    @classmethod
    def default(cls, rays) -> "AliasTable":
        rays = tuple(tuple(r) for r in rays)
        return cls(rays=rays, names=tuple("x%d" % j for j in range(len(rays))))

    @classmethod
    def from_pairs(cls, pairs, all_rays) -> "AliasTable":
        """pairs: ordered (ray, name); rays absent from pairs keep default
        names and print after the aliased ones in canonical order.  A name
        that is not a Python identifier, one that reads as a parameter (a,
        b, c, or t and digits), a ray listed twice, or a name that two rays
        would print, default names included, raises ValueError."""
        for _, nm in pairs:
            if not (isinstance(nm, str) and nm.isidentifier()):
                raise ValueError("alias name %r is not an identifier" % (nm,))
            if nm in ("a", "b", "c") or nm[0] == "t" and nm[1:].isdecimal():
                raise ValueError("alias name %r reads as a parameter" % (nm,))
        listed = [tuple(r) for r, _ in pairs]
        names = {tuple(r): nm for r, nm in pairs}
        all_rays = [tuple(r) for r in all_rays]
        for j, r in enumerate(listed):
            if r not in all_rays:
                raise ValueError("alias for unknown ray %s" % (r,))
            if r in listed[:j]:
                raise ValueError("ray %s is aliased twice" % (r,))
        order = listed + [r for r in all_rays if r not in listed]
        printed = tuple(names.get(r, "x%d" % all_rays.index(r)) for r in order)
        for j, nm in enumerate(printed):
            if nm in printed[:j]:
                raise ValueError("name %r is given to two rays" % nm)
        return cls(rays=tuple(order), names=printed)

    @classmethod
    def from_json(cls, data, all_rays) -> "AliasTable":
        """{"aliases": [{"ray", "name"}, ...]}; anything malformed raises
        ValueError."""
        items = _json_fields(data, "alias table", ("aliases",))["aliases"]
        pairs = []
        for item in _json_list(items, "aliases"):
            _json_fields(item, "alias", ("ray", "name"))
            ray = as_int_vector(vector_from_json(item["ray"], "alias ray"))
            pairs.append((ray, item["name"]))
        return cls.from_pairs(pairs, all_rays)

    def position(self, ray) -> int:
        return self.rays.index(tuple(ray))

    def name(self, ray) -> str:
        return self.names[self.position(ray)]


def pretty(f: CoxPolynomial, rays, aliases: Optional[AliasTable] = None) -> str:
    """Strings like "x*y - u^2 - t1*z^3"; factor order follows the alias
    table, term order follows construction."""
    rays = [tuple(r) for r in rays]
    table = aliases if aliases is not None else AliasTable.default(rays)
    if not f.terms:
        return "0"
    chunks = []
    for idx, t in enumerate(f.terms):
        body = _term_body(t, rays, table)
        if idx == 0:
            chunks.append(body if t.coeff >= 0 else "-" + body)
        else:
            chunks.append((" + " if t.coeff >= 0 else " - ") + body)
    return "".join(chunks)


def _term_body(t: Term, rays, table: AliasTable) -> str:
    factors = []
    mag = abs(t.coeff)
    if t.param is not None:
        if mag != 1:
            factors.append(str(mag))
        factors.append(t.param)
    pieces = []
    for j, e in enumerate(t.exps):
        if e:
            pieces.append((table.position(rays[j]), table.name(rays[j]), e))
    pieces.sort()
    for _, name, e in pieces:
        factors.append(name if e == 1 else "%s^%d" % (name, e))
    if not pieces and t.param is None:
        factors.append(str(mag))
    elif pieces and t.param is None and mag != 1:
        factors.insert(0, str(mag))
    return "*".join(factors)
