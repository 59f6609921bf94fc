"""Semigroup oracles: Hilbert bases and the bounded ideal-equality
certificates."""

import functools
import math
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest

import toricdeform.oracle as oracle_module
from toricdeform.datum import DeformationDatum, build_datum, build_tilde
from toricdeform.oracle import (
    KernelWitness,
    _character_polytope,
    _parallelepiped,
    _with_exps,
    boundary_equality_check,
    degree_zero_equality_check,
    hilbert_basis,
    revalidate_witness,
)
from toricdeform.polyhedral import Cone, convex_hull, lattice_points, lattice_runs
from toricdeform.presets import (
    ca1_datum,
    ca1_sigma,
    hexagon_data,
    p2_p114_family,
    toy_plane_datum,
)

import corpus
from oracles import (
    boundary_oracle,
    degree_zero_oracle,
    graded_hilbert_basis,
    invariant_factors_oracle,
    parallelepiped_points,
    saturation_closure_ok,
    semigroup_generators_oracle,
)


ORTHANT = Cone.from_generators(2, [(1, 0), (0, 1)])


# ------------------------------------------------------------ hilbert


def test_orthant_basis():
    hb = hilbert_basis(ORTHANT)
    assert set(hb.generators) == {(1, 0), (0, 1)}
    assert hb.complete and hb.certificate_bound == 2


def test_ca1_dual_basis_frozen():
    hb = hilbert_basis(ca1_sigma().dual())
    assert set(hb.generators) == {(1, 1, 0), (-1, 1, 0), (0, 0, 1),
                                  (0, 1, 0)}
    assert hb.complete


def test_quotient_singularity_basis():
    hb = hilbert_basis(Cone.from_generators(2, [(1, 0), (1, 2)]))
    assert set(hb.generators) == {(1, 0), (1, 1), (1, 2)}


def test_truncated_run_reports_incomplete():
    hb = hilbert_basis(ORTHANT, bound=1)
    assert set(hb.generators) == {(1, 0), (0, 1)}
    assert not hb.complete
    assert hb.bound == 1 and hb.certificate_bound == 2


def test_hilbert_rejects_bad_cones():
    with pytest.raises(ValueError, match="strongly convex"):
        hilbert_basis(Cone.from_generators(2, [(1, 0), (-1, 0), (0, 1)]))
    with pytest.raises(ValueError, match="full-dimensional"):
        hilbert_basis(Cone.from_generators(2, [(1, 0)]))


def test_hilbert_against_brute_oracle():
    r = corpus.rng(921)
    cases = [(2 if i % 2 else 3, 8, 5) for i in range(6)]
    # rank 4, and bounds below the certificate bound (truncated runs); the
    # extra cones are simplicial, which keeps Fourier-Motzkin cheap
    cases += [(rank, bound, rank) for rank in (2, 3, 4)
              for bound in (0, 3, 7, 12) for _ in range(3)]
    truncated = 0
    for rank, bound, max_rays in cases:
        c = corpus.random_pointed_cone(r, rank, max_rays=max_rays)
        hb = hilbert_basis(c, bound=bound)
        facets = c.dual().rays
        want = semigroup_generators_oracle(facets, hb.functional, bound)
        assert hb.generators == want
        assert saturation_closure_ok(facets, hb.functional, bound,
                                     hb.generators)
        truncated += not hb.complete
    assert truncated >= 30


def _pair_cone(t):
    """The cone of pairs (r, s) of characters of t with equal N-part, in
    rank n + 2k: for each ray rho of the enlarged cone, the rows
    (rho[:n], rho[n:], 0) and (rho[:n], 0, rho[n:])."""
    n, zero = t.n, (0,) * t.k
    rows = []
    for rho in t.cone.rays:
        rows += [rho[:n] + rho[n:] + zero, rho[:n] + zero + rho[n:]]
    return Cone.from_inequalities(n + 2 * t.k, rows)


def _pair_cones():
    return [_pair_cone(build_tilde(d))
            for d in (ca1_datum(), toy_plane_datum(), hexagon_data()[0])]


def _thin_cone(n):
    """The cone over (1, 0, 0), (0, 1, 0), (1, 2, n): one simplex of
    determinant n."""
    return Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (1, 2, n)])


# simplicial cones whose Z^n / ZG is not cyclic (elementary divisors 1, 2, 2;
# 1, 3, 3; 1, 2, 2, 2; 1, 1, 2, 2): the Hermite form of G^T then has two
# pivots above 1, so some level of the parallelepiped walk steps by strictly
# between 1 and |det G|
NON_CYCLIC = [
    [(1, 1, 1), (1, -1, 1), (1, 1, -1)],
    [(1, 1, 1), (1, -2, 1), (1, 1, -2)],
    [(1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, -1)],
    [(1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1)],
]
# simplices of determinant 8 whose walk meets a row with a pivot above 1 and
# a nonzero entry right of it (the Hermite rows (0, 2, 2) and (0, 0, 2, 2)),
# where the residue of c_i is the right side divided by the pivot
SHEARED = [
    [(-3, -1, 2), (-1, 1, 0), (3, -3, 2)],
    [(-2, 3, 2, 0), (-1, 0, -2, -2), (-1, 3, 2, 2), (0, 1, 0, 0)],
]


def _walk_cones():
    """The non-cyclic cones, each also under a unimodular map, the sheared
    simplices, and thin cones of small determinant."""
    r = corpus.rng(2702)
    cones = []
    for rays in NON_CYCLIC:
        assert invariant_factors_oracle(rays)[-2] > 1
        c = Cone.from_generators(len(rays), rays)
        u, _ = corpus.random_unimodular(r, c.rank, steps=4)
        cones += [c, corpus.transform_cone(u, c)]
    cones += [Cone.from_generators(len(rays), rays) for rays in SHEARED]
    return cones + [_thin_cone(n) for n in range(2, 8)]


def test_parallelepiped_against_definition():
    # every c in [0, d)^n whose sum c_i g_i is divisible by d, on the walk
    # cones and small random simplices, at each value a point takes: a cap
    # off by one, or a level that runs past d, changes the list
    r = corpus.rng(2704)
    simplices = [c.rays for c in _walk_cones()]
    while len(simplices) < 30:
        rank = 2 + len(simplices) % 3
        c = corpus.random_pointed_cone(r, rank, max_rays=rank)
        if (len(c.rays) == rank
                and math.prod(invariant_factors_oracle(c.rays)) ** rank <= 5000):
            simplices.append(c.rays)
    for gens in simplices:
        functional = hilbert_basis(Cone.from_generators(len(gens), gens),
                                   bound=0).functional
        values = tuple(corpus.dot(functional, g) for g in gens)
        full = parallelepiped_points(gens, values, sum(values))
        assert len(full) == math.prod(invariant_factors_oracle(gens)) - 1
        for bound in sorted({0} | {v for v, _ in full}):
            got = sorted(_parallelepiped(gens, values, bound))
            assert got == parallelepiped_points(gens, values, bound), (
                gens, bound)


def test_hilbert_against_graded_reference():
    # the reference enumerates every point up to the bound, at a cost that
    # grows like bound^rank, so rank-4/5 cones are drawn until the quota of
    # simplicial and non-simplicial cones with certificate bound at most
    # cap is met; the hexagon-a pair cone (18 s for the reference at its
    # certificate bound 60) stops at 30, and
    # test_hilbert_basis_within_budget covers 60
    r = corpus.rng(2510)
    quota = {(2, True): 10, (3, True): 4, (3, False): 8, (4, True): 6,
             (4, False): 6, (5, True): 4, (5, False): 3}
    caps = {4: 300, 5: 150}
    cones = []
    for (rank, simplicial), count in quota.items():
        while count:
            c = corpus.random_pointed_cone(r, rank, max_rays=rank + 2)
            if ((len(c.rays) == rank) == simplicial
                    and hilbert_basis(c, bound=0).certificate_bound
                    <= caps.get(rank, math.inf)):
                cones.append(c)
                count -= 1
    cones += _pair_cones() + _walk_cones()
    for c in cones:
        cert = hilbert_basis(c, bound=0).certificate_bound
        for bound in (0, 1, cert // 2, cert):
            if c.rank == 7 and bound > 30:
                continue
            hb = hilbert_basis(c, bound=bound)
            want = graded_hilbert_basis(c, hb.functional, bound)
            assert hb.to_json() == want.to_json(), (c, bound)


def test_hilbert_basis_within_budget():
    # the hexagon-a pair cone: rank 7, certificate bound 60; the bounded
    # enumeration needed 18 s there, while its pulling triangulation has 36
    # unimodular simplices, whose parallelepipeds hold no nonzero point
    c = _pair_cones()[2]
    assert c.rank == 7
    hb = corpus.within(1, hilbert_basis, c, 60)
    assert hb.complete and hb.certificate_bound == 60
    want = graded_hilbert_basis(c, hb.functional, 30)
    assert hb.generators == want.generators and len(want.generators) == 15


def test_hilbert_basis_follows_the_bound():
    # the bound prunes the parallelepiped walk, so a small bound answers at
    # once whatever |det| is: the thin cone is one simplex of determinant
    # 2 * 10^7, and the rank-6 pair cone's two simplices have |det| summing
    # to 15,618,427
    hb = corpus.within(1, hilbert_basis, _thin_cone(2 * 10 ** 7), 3)
    assert not hb.complete and hb.generators == ()
    t = build_tilde(corpus.random_valid_data(77, 6, rank_choices=(4,))[0])
    c = _pair_cone(t)
    assert c.rank == 6
    for bound, count in ((0, 0), (5, 7), (10, 34)):
        hb = corpus.within(1, hilbert_basis, c, bound)
        assert len(hb.generators) == count
        want = graded_hilbert_basis(c, hb.functional, bound)
        assert hb.to_json() == want.to_json()


def test_hilbert_refuses_negative_bound():
    with pytest.raises(ValueError, match="bound must be non-negative, got -1"):
        hilbert_basis(ORTHANT, bound=-1)


@pytest.mark.parametrize("bound", [2.0, True])
def test_bound_must_be_an_int(bound):
    # a float or a bool is no lattice number: every bounded entry point
    # raises TypeError before it enumerates
    t = build_tilde(ca1_datum(3))
    calls = [functools.partial(hilbert_basis, ORTHANT),
             functools.partial(degree_zero_equality_check, t),
             functools.partial(boundary_equality_check, t)]
    for call in calls:
        with pytest.raises(TypeError, match="bound must be an int"):
            call(bound=bound)


def test_hilbert_json():
    data = hilbert_basis(ORTHANT).to_json()
    assert data["complete"] is True
    assert sorted(map(tuple, data["generators"])) == [(0, 1), (1, 0)]


# ------------------------------------------------------------ degree zero


def test_degree_zero_ca1_counts_frozen():
    t = build_tilde(ca1_datum(3))
    rep = degree_zero_equality_check(t, bound=6)
    assert rep.ok and rep.checked == 296
    assert len(rep.witnesses) == rep.checked


def test_degree_zero_ca1_all_p():
    for p in (1, 2, 3):
        t = build_tilde(ca1_datum(p))
        rep = degree_zero_equality_check(t, bound=8)
        assert rep.ok and rep.checked >= 200
        for w in rep.witnesses:
            assert revalidate_witness(t, w)


def test_degree_zero_toy_counts_frozen():
    t = build_tilde(toy_plane_datum())
    rep = degree_zero_equality_check(t, bound=6)
    assert rep.ok and rep.checked == 210


def test_degree_zero_induced_datum():
    fam = p2_p114_family()
    t = fam.induced.tilde
    rep = degree_zero_equality_check(t, bound=6)
    assert rep.ok and rep.checked == 114
    for w in rep.witnesses:
        assert revalidate_witness(t, w)


def test_known_witness_frozen():
    # the relation identifying the two halves of the A_1 binomial
    t = build_tilde(ca1_datum(1))
    rep = degree_zero_equality_check(t, bound=8)

    def exps(v):
        return tuple(sum(a * b for a, b in zip(v, xi)) for xi in t.rays)

    xy = tuple(1 if r[3] > 0 else 0 for r in t.rays)
    uu = tuple(2 if r[3] < 0 else 0 for r in t.rays)
    hits = [w for w in rep.witnesses
            if {exps(w.r), exps(w.s)} == {xy, uu}]
    assert hits
    w0 = hits[0]
    assert w0 == KernelWitness(r=(0, 2, 0, 0), s=(0, 2, 0, 1),
                               shifts=(-1,), q=(0, 2, 0, 0),
                               cofactor_r=(2, 0, 0, 0),
                               cofactor_s=(0, 0, 0, 0))
    assert revalidate_witness(t, w0)


def test_toy_witness_frozen():
    t = build_tilde(toy_plane_datum())
    rep = degree_zero_equality_check(t, bound=6)
    hits = [w for w in rep.witnesses if w.r == (0, 1, 0)
            and w.s == (0, 1, 1)]
    assert len(hits) == 1
    assert hits[0].shifts == (-1,)
    assert revalidate_witness(t, hits[0])


def test_tampered_witness_rejected():
    t = build_tilde(ca1_datum(1))
    rep = degree_zero_equality_check(t, bound=6)
    w = rep.witnesses[-1]
    bumped = w._replace(q=tuple(x + 1 for x in w.q))
    assert not revalidate_witness(t, bumped)
    shifted = w._replace(shifts=tuple(s + 2 for s in w.shifts))
    assert not revalidate_witness(t, shifted)
    # bumped breaks exps(q) >= 0 and shifted exps(q) = cofactor_r + Z(d^+);
    # one tampering for each other way to fail, each passing the checks
    # before it: a negative cofactor, then per ray the sums
    # exps(r) = cofactor_r + Y(d^+), exps(s) = cofactor_s + Y(d^-) and
    # exps(q) = cofactor_s + Z(d^-)
    w = KernelWitness(r=(0, 2, 0, 0), s=(0, 2, 0, 1), shifts=(-1,), q=(0, 2, 0, 0),
                      cofactor_r=(2, 0, 0, 0), cofactor_s=(0, 0, 0, 0))
    assert revalidate_witness(t, w)
    er = t.pairings.exps(w.r)
    for broken in (
            w._replace(cofactor_r=(2, 0, 0, -1)),
            w._replace(cofactor_r=(3, 0, 0, 0)),
            w._replace(cofactor_s=(1, 0, 0, 0)),
            # s and its cofactor moved alike by r: only the last sum breaks
            w._replace(s=tuple(a + b for a, b in zip(w.s, w.r)),
                       cofactor_s=tuple(a + b for a, b in zip(w.cofactor_s, er)))):
        assert not revalidate_witness(t, broken), broken


def test_witness_json():
    t = build_tilde(toy_plane_datum())
    rep = degree_zero_equality_check(t, bound=4)
    data = rep.to_json()
    assert data["checked"] == rep.checked and data["failures"] == []
    one = rep.witnesses[0].to_json()
    assert set(one) == {"r", "s", "shifts", "q", "cofactor_r", "cofactor_s"}


def test_kernel_witness_contract():
    # a tuple record: immutable, hashable, keyword-constructible, with the
    # fields, their order and the JSON keys it always had
    fields = ("r", "s", "shifts", "q", "cofactor_r", "cofactor_s")
    assert KernelWitness._fields == fields
    w = KernelWitness(r=(0, 1, 0), s=(0, 1, 1), shifts=(-1,), q=(0, 1, 0),
                      cofactor_r=(1, 0, 0), cofactor_s=(0, 0, 1))
    with pytest.raises(AttributeError):
        w.q = (0, 0, 0)
    same = KernelWitness(*tuple(w))
    assert same == w and hash(same) == hash(w) and len({w, same}) == 1
    assert w == tuple(w)  # equality is tuple equality
    assert w != w._replace(q=(0, 1, 1))
    assert list(w.to_json()) == list(fields)
    assert w.to_json()["shifts"] == [-1]


def test_witnesses_share_their_shift():
    # one shift tuple per distinct shift, whatever the number of pairs
    t = build_tilde(ca1_datum(3))
    rep = degree_zero_equality_check(t, 12)
    shifts = {id(w.shifts) for w in rep.witnesses}
    assert len(shifts) == len({w.shifts for w in rep.witnesses})
    assert len(shifts) < rep.checked


def test_witnesses_are_built_on_first_read(monkeypatch):
    # the check, its JSON and the witness count build no witness; the
    # first read builds each passing pair's once, and later reads none
    built = []

    def counting(*fields):
        built.append(fields)
        return KernelWitness(*fields)

    monkeypatch.setattr(oracle_module, "KernelWitness", counting)
    rep = degree_zero_equality_check(build_tilde(ca1_datum(3)), 8)
    rep.to_json()
    assert len(rep.witnesses) == rep.checked and not built
    first = list(rep.witnesses)
    assert len(built) == len(first) == len(rep.witnesses)
    assert all(type(w) is KernelWitness for w in first)
    assert list(rep.witnesses) == first
    assert rep.witnesses[-1] == first[-1]
    assert rep.witnesses[-len(first)] == first[0]
    with pytest.raises(IndexError):
        rep.witnesses[len(first)]
    assert len(built) == len(first)  # the later reads built none


def _characters(t, bound):
    return lattice_points(_character_polytope(t, bound))


@pytest.mark.parametrize("check", [degree_zero_equality_check,
                                   boundary_equality_check])
def test_check_memory_is_flat_in_the_bound(check):
    # the characters stream, one N-part at a time, and no witness is kept
    # before it is read: the traced peak of the top degree-zero rung of
    # the benchmark (29,458 pairs) and of the next one (174,624 pairs)
    # stays flat.  The warm-up fills the interpreter's tuple free lists,
    # which tracemalloc counts as allocated on their first fill
    t = build_tilde(ca1_datum(3))
    check(t, 12)
    peaks = {}
    for bound in (20, 30):
        tracemalloc.start()
        try:
            rep = check(t, bound)
            peaks[bound] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok
    assert max(peaks.values()) < 256 * 2**10, peaks
    if check is degree_zero_equality_check:
        assert rep.checked == 174624


def assert_degree_zero_matches_reference(t, bound):
    rep = degree_zero_equality_check(t, bound=bound)
    p = t.pairings
    want = degree_zero_oracle(t.n, p.rays, p.y_exps, p.z_exps,
                              _characters(t, bound))
    got = [tuple(w) for w in rep.witnesses]
    assert (rep.checked, list(rep.failures), got) == want
    assert len(rep.witnesses) == rep.checked - len(rep.failures) == len(got)
    return rep


def test_degree_zero_against_reference():
    data = [ca1_datum(p) for p in range(6)]
    data += [toy_plane_datum(), *hexagon_data()]
    data += corpus.random_valid_data(1017, 6)
    tildes = [build_tilde(d) for d in data] + [p2_p114_family().induced.tilde]
    mixed = 0  # witnesses whose shift has a positive and a negative entry
    for t in tildes:
        for bound in (3, 6, 10):
            rep = assert_degree_zero_matches_reference(t, bound)
            mixed += sum(min(w.shifts) < 0 < max(w.shifts)
                         for w in rep.witnesses)
    assert mixed > 0


def test_degree_zero_failure_reasons_match_reference():
    # an extra ray outside the cone puts q outside the dual cone, and the
    # extra ray (-1, 0, 0, -1) also leaves a negative cofactor; y or z
    # exponents that no longer differ by the ray tails are refused
    t = build_tilde(ca1_datum(1))
    p = t.pairings
    bound = 6
    outside = p._replace(rays=p.rays + (tuple(-x for x in p.rays[0]),))
    negative = p._replace(rays=p.rays + ((-1, 0, 0, -1),))
    for table, reason in ((outside, "q outside the dual cone"),
                          (negative, "cofactor not a monomial")):
        rep = assert_degree_zero_matches_reference(
            t._replace(pairings=table), bound)
        assert reason in {f["reason"] for f in rep.failures}
        assert len(rep.witnesses) > 0  # passing and failing pairs mix
    high_y = SimpleNamespace(
        n=p.n, k=p.k, rays=p.rays, exps=p.exps, z_exps=p.z_exps,
        y_exps=(tuple(y + bound + 1 for y in p.y_exps[0]),) + p.y_exps[1:])
    high_z = SimpleNamespace(
        n=p.n, k=p.k, rays=p.rays, exps=p.exps, y_exps=p.y_exps,
        z_exps=(tuple(z + 1 for z in p.z_exps[0]),) + p.z_exps[1:])
    for table in (high_y, high_z):
        with pytest.raises(ValueError, match="differ from the ray tails"):
            degree_zero_equality_check(
                t._replace(pairings=table), bound)


def _failure_sides(t, rep):
    """Count the failures of rep by branch, by the reference's per-ray
    arithmetic: q outside the dual cone, a negative cofactor on r's side
    with q inside, a negative cofactor on s's side only; and how many of
    them have a shift with entries of both signs."""
    n, p = t.n, t.pairings
    out = {"outside": 0, "cofactor_r": 0, "cofactor_s": 0, "mixed": 0}
    for f in rep.failures:
        r, s = tuple(f["r"]), tuple(f["s"])
        shifts = tuple(a - b for a, b in zip(r[n:], s[n:]))
        out["mixed"] += min(shifts) < 0 < max(shifts)
        if f["reason"] == "q outside the dual cone":
            out["outside"] += 1
            continue
        pr = [e - sum(max(a, 0) * y[j] for a, y in zip(shifts, p.y_exps))
              for j, e in enumerate(p.exps(r))]
        out["cofactor_r" if min(pr) < 0 else "cofactor_s"] += 1
    return out


def test_degree_zero_failure_branches_match_reference():
    # hexagon-a (k = 2) with the first ray negated as an extra ray: every
    # failure branch of the pair loop occurs, with shifts of mixed sign
    t = build_tilde(hexagon_data()[0])
    p = t.pairings
    table = p._replace(rays=p.rays + (tuple(-x for x in p.rays[0]),))
    doctored = t._replace(pairings=table)
    for bound in (3, 6):
        rep = assert_degree_zero_matches_reference(doctored, bound)
        sides = _failure_sides(doctored, rep)
        assert all(sides.values()), (bound, sides)


def test_degree_zero_refuses_negative_z_exponents():
    # y and z both lowered at one entry still differ by the ray tails, but
    # a negative z exponent would let q leave the dual cone unseen
    t = build_tilde(ca1_datum(1))
    p = t.pairings
    low = SimpleNamespace(
        n=p.n, k=p.k, rays=p.rays, exps=p.exps,
        y_exps=(tuple(y - 1 for y in p.y_exps[0]),) + p.y_exps[1:],
        z_exps=(tuple(z - 1 for z in p.z_exps[0]),) + p.z_exps[1:])
    with pytest.raises(ValueError, match="negative z exponent"):
        degree_zero_equality_check(t._replace(pairings=low), 6)


def _counting(t):
    """t with an exps that records every vector it is called on."""
    p = t.pairings
    calls = []

    def exps(v):
        calls.append(v)
        return p.exps(v)

    counted = SimpleNamespace(n=p.n, k=p.k, rays=p.rays, exps=exps,
                              y_exps=p.y_exps, z_exps=p.z_exps,
                              boundary_mask=p.boundary_mask,
                              zero_tail_mask=p.zero_tail_mask)
    return t._replace(pairings=counted), calls


def _runs(points):
    """Lex-sorted points split into runs: one prefix, consecutive last
    coordinates."""
    runs = []
    for x in points:
        if runs and runs[-1][-1][:-1] == x[:-1] and runs[-1][-1][-1] + 1 == x[-1]:
            runs[-1].append(x)
        else:
            runs.append([x])
    return runs


def test_degree_zero_reads_exponents_once_per_point():
    # both oracles call exps once on the last unit vector (the step along a
    # run), then at most once per character point and at least once per
    # run, never once per pair
    t = build_tilde(hexagon_data()[0])
    bound = 6
    points = _characters(t, bound)
    runs = _runs(points)
    assert len(runs) < len(points)
    unit = (0,) * (t.n + t.k - 1) + (1,)
    checked = []
    for check in (degree_zero_equality_check, boundary_equality_check):
        counted, calls = _counting(t)
        checked.append(check(counted, bound).checked)
        per_point = Counter(calls)
        assert per_point[unit] >= 1
        per_point[unit] -= 1
        per_point = +per_point
        assert set(per_point) <= set(points) and max(per_point.values()) == 1
        assert all(any(x in per_point for x in run) for run in runs)
    assert checked[0] > 2 * len(points) and checked[1] == len(points)


def _moved(seed, data):
    """Each datum moved by a unimodular map with entries in [10^3, 10^4]."""
    r = corpus.rng(seed)
    return [corpus.transform_datum(*corpus.large_unimodular(r, d.rank), d)
            for d in data]


@functools.lru_cache(maxsize=None)
def _run_ladder():
    """Tildes with bounds that give long last-level runs: the presets and
    seeded random data, then cA1, toy-plane and hexagon-a moved by large
    unimodular maps.  The moved tildes keep their runs (the maps act on
    the N-part) but make lattice_points visit many empty prefixes, so
    they come last, at lower bounds."""
    data = [ca1_datum(p) for p in (1, 2, 3)]
    data += [toy_plane_datum(), *hexagon_data()]
    data += corpus.random_valid_data(2113, 6)
    tildes = [build_tilde(d) for d in data]
    tildes.append(p2_p114_family().induced.tilde)
    ladder = [(t, 8 if t.k > 1 else 12) for t in tildes]
    moved = _moved(1723, [ca1_datum(2), toy_plane_datum(), hexagon_data()[0]])
    moved = [build_tilde(d) for d in moved]
    return tuple(ladder + [(t, 4 if t.k > 1 else 6) for t in moved])


def test_stepped_exponents_match_exps():
    # at every point of every ladder run, the stepped exponents are exps
    stepped = 0
    for t, bound in _run_ladder():
        exps = t.pairings.exps
        runs = list(lattice_runs(_character_polytope(t, bound)))
        points = [prefix + (x,) for prefix, lo, hi in runs
                  for x in range(lo, hi + 1)]
        stepped += len(points) - len(runs)
        assert list(_with_exps(runs, exps)) == [(x, exps(x)) for x in points]
    assert stepped > 1000


def test_degree_zero_witnesses_on_long_runs():
    # every witness of the stepped exponents is a KernelWitness and re-checks
    # by plain arithmetic; after the ladder come the oracle-sweep benchmark's
    # degree-zero rungs that it lacks, the last its top one
    tops = [(ca1_datum(4), 12), (hexagon_data()[0], 10), (toy_plane_datum(), 16),
            (ca1_datum(3), 20)]
    for t, bound in _run_ladder() + tuple((build_tilde(d), b) for d, b in tops):
        rep = degree_zero_equality_check(t, bound)
        assert rep.ok and len(rep.witnesses) == rep.checked
        assert all(type(w) is KernelWitness for w in rep.witnesses)
        assert all(revalidate_witness(t, w) for w in rep.witnesses)
    assert rep.checked == 29458


# ------------------------------------------------------------ boundary


def test_boundary_ca1_counts_frozen():
    t = build_tilde(ca1_datum(3))
    rep = boundary_equality_check(t, bound=6)
    assert rep.ok and rep.checked == 210


def test_boundary_all_presets():
    checks = [build_tilde(ca1_datum(p)) for p in (1, 2)]
    checks.append(build_tilde(toy_plane_datum()))
    checks.append(p2_p114_family().induced.tilde)
    for t in checks:
        rep = boundary_equality_check(t, bound=6)
        assert rep.ok and rep.checked > 0


def test_boundary_needs_boundary_datum():
    sigma = Cone.from_generators(2, [(1, 0), (0, 1)])
    d = build_datum(sigma, [convex_hull(2, [(0, 1)]),
                            convex_hull(2, [(0, 0)])], (0, -1),
                    boundary=False)
    with pytest.raises(ValueError, match="boundary"):
        boundary_equality_check(build_tilde(d))


def test_boundary_refuses_negative_bound():
    t = build_tilde(ca1_datum(3))
    for check in (degree_zero_equality_check, boundary_equality_check):
        with pytest.raises(ValueError, match="bound must be non-negative, got -1"):
            check(t, -1)


def _boundary_matches_reference(t, bound):
    rep = boundary_equality_check(t, bound)
    want = boundary_oracle(t.n, t.pairings.rays, t.datum.sigma.rays,
                           _characters(t, bound))
    assert (rep.checked, list(rep.failures)) == want
    return rep


def _narrowed(t):
    """t with its base cone moved toward its first ray: the interior
    verdict changes on some N-parts, the divisibility side does not."""
    sigma = t.datum.sigma
    rays = [tuple(map(sum, zip(rho, sigma.rays[0]))) for rho in sigma.rays[1:]]
    narrow = Cone.from_generators(sigma.rank, [sigma.rays[0], *rays])
    d = t.datum
    return t._replace(datum=DeformationDatum(narrow, d.summands, d.w, d.boundary))


def test_boundary_matches_per_point_reference():
    # the interior verdict is computed once per N-part; the reference
    # decides every point on its own, also on narrowed base cones (the
    # unmoved tildes, where enumeration is cheap)
    ladder = _run_ladder()
    for t, bound in ladder:
        assert _boundary_matches_reference(t, bound).ok
    mismatched = [len(_boundary_matches_reference(_narrowed(t), bound).failures)
                  for t, bound in ladder[:-3]]
    assert sum(map(bool, mismatched)) >= len(mismatched) // 2


def test_boundary_detects_wrong_interior_side():
    # swap in a different base cone; the divisibility side stays put, so
    # the comparison must report mismatches
    t = build_tilde(toy_plane_datum())
    skew_sigma = Cone.from_generators(2, [(1, 0), (1, 2)])
    d = t.datum
    skew_datum = DeformationDatum(skew_sigma, d.summands, d.w, d.boundary)
    doctored = t._replace(datum=skew_datum)
    rep = _boundary_matches_reference(doctored, bound=6)
    assert not rep.ok
    assert not _boundary_matches_reference(doctored, bound=16).ok
    bad = rep.failures[0]
    assert set(bad) == {"u_tilde", "interior", "in_ideal"}
    assert bad["interior"] != bad["in_ideal"]


# ------------------------------------------------------------ covariance


def test_oracles_are_unimodular_covariant():
    # d moved by a unimodular U with entries between 10^3 and 10^4:
    # characters move by the dual map, which keeps the grading, the buckets
    # and every factorization: counts and verdicts must not change.  Large
    # entries of U widen the intervals lattice_points lifts through
    r = corpus.rng(1723)
    bound = 8
    want = {"cA1": (791, 495), "hexagon-a": (1187, 371),
            "toy-plane": (495, 165)}
    for name, d in (("cA1", ca1_datum()), ("hexagon-a", hexagon_data()[0]),
                    ("toy-plane", toy_plane_datum())):
        got = []
        for datum in (d, corpus.transform_datum(*corpus.large_unimodular(r, d.rank), d)):
            t = build_tilde(datum)
            zero = degree_zero_equality_check(t, bound)
            edge = boundary_equality_check(t, bound)
            assert zero.ok and edge.ok, name
            assert len(zero.witnesses) == zero.checked
            got.append((zero.checked, edge.checked))
        assert got == [want[name]] * 2, name
