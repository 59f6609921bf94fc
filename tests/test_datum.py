"""Deformation data: structural rejection, the six conditions, the
enlarged cone, and the floor-min identity."""

import json
from fractions import Fraction

import pytest

from toricdeform import datum as datum_module
from toricdeform import polyhedral
from toricdeform.cox import pretty, trinomials
from toricdeform.datum import (
    DatumStructureError,
    DatumValidationError,
    DeformationDatum,
    build_datum,
    build_tilde,
    check_tilde_structure,
    datum_from_json,
    floor_min_identity,
    require_valid,
    validate_datum,
)
from toricdeform.lattice import is_integral, primitive, vscale
from toricdeform.polyhedral import (
    Cone, Polyhedron, UnboundedError, convex_hull, lattice_points, membership_scaling,
    min_functional, minkowski_sum)
from toricdeform.presets import (
    ca1_datum, hexagon_data, p2_p114_family, toy_plane_datum)

import corpus
import oracles


def orthant(rank=2):
    gens = [tuple(1 if i == j else 0 for i in range(rank))
            for j in range(rank)]
    return Cone.from_generators(rank, gens)


def point(*coords):
    return convex_hull(len(coords), [coords])


def seg(a, b):
    return convex_hull(len(a), [a, b])


# ------------------------------------------------------- structure layer


def test_rejects_single_summand():
    with pytest.raises(DatumStructureError, match="at least two summands"):
        build_datum(orthant(), [point(1, 1)], (0, -1))


def test_rejects_rank_mismatch():
    with pytest.raises(DatumStructureError, match="rank"):
        build_datum(orthant(), [point(1, 1, 0), point(0, 0, 0)], (0, -1))
    with pytest.raises(DatumStructureError, match="w has length"):
        build_datum(orthant(), [point(1, 1), point(0, 0)], (0, -1, 0))


def test_w_follows_the_lattice_number_contract():
    d = ca1_datum()
    with pytest.raises(TypeError, match="int or Fraction"):
        build_datum(d.sigma, d.summands, (0.0, -2.0, 3.0))
    with pytest.raises(DatumStructureError, match="w must be a lattice vector"):
        build_datum(d.sigma, d.summands, (0, Fraction(-1, 2), 3))
    w = build_datum(d.sigma, d.summands, (Fraction(0), Fraction(-2), 3)).w
    assert w == (0, -2, 3) and all(type(x) is int for x in w)


def test_rejects_bad_cone():
    half = Cone.from_generators(2, [(1, 0), (-1, 0), (0, 1)])
    with pytest.raises(DatumStructureError, match="strongly convex"):
        build_datum(half, [point(1, 1), point(0, 0)], (0, -1))
    line = Cone.from_generators(2, [(1, 0)])
    with pytest.raises(DatumStructureError, match="full-dimensional"):
        build_datum(line, [point(1, 0), point(0, 0)], (0, -1))


def test_rejects_wrong_total():
    data = build_datum(orthant(), [point(1, 1), point(0, 0)], (0, -1)).to_json()
    with pytest.raises(DatumStructureError, match="total"):
        datum_from_json(dict(data, Q=point(2, 2).to_json()))


def test_accepts_matching_total():
    data = build_datum(orthant(), [point(1, 1), seg((0, 0), (1, 0))],
                       (0, -1)).to_json()
    d = datum_from_json(dict(data, Q=seg((1, 1), (2, 1)).to_json()))
    assert d.q.vertices == ((1, 1), (2, 1))
    assert d.k == 1


# ------------------------------------------------------- the conditions


def failed_labels(d):
    return tuple(c.label for c in validate_datum(d).failed())


def test_ca1_all_conditions_pass():
    rep = validate_datum(ca1_datum(3))
    assert rep.ok
    assert tuple(c.label for c in rep.conditions) == (
        "(i)", "(ii)", "(iii)", "(iv')", "(iv)", "(v)", "(vi)")


def test_toy_and_hexagon_pass():
    assert validate_datum(toy_plane_datum()).ok
    a, b = hexagon_data()
    assert validate_datum(a).ok
    assert validate_datum(b).ok


def test_condition_i_failure():
    d = build_datum(orthant(), [point(-1, 2), point(0, 0)], (1, 0))
    assert failed_labels(d) == ("(i)",)


def test_condition_ii_failure():
    d = build_datum(orthant(), [seg((0, 0), (1, 0)), seg((0, 0), (0, 1))],
                    (0, -1))
    assert "(ii)" in failed_labels(d)


def test_condition_iii_holds_by_construction():
    # Q is the sum of the summands, never a field: a mismatched datum
    # cannot be built, and a mismatched "Q" is refused by the JSON reader
    good = build_datum(orthant(), [point(1, 1), point(0, 0)], (0, -1))
    with pytest.raises(TypeError, match="'q'"):
        DeformationDatum(sigma=good.sigma, summands=good.summands,
                         q=point(2, 2), w=good.w, boundary=False)
    moved = DeformationDatum(good.sigma, (point(1, 1), seg((0, 0), (1, 0))),
                             good.w, good.boundary)
    assert good.q == point(1, 1)
    assert moved.q == seg((1, 1), (2, 1)) == minkowski_sum(*moved.summands)
    data = dict(good.to_json(), Q=point(2, 2).to_json())
    with pytest.raises(DatumStructureError,
                       match="supplied total polyhedron != sum of summands"):
        datum_from_json(data)
    assert datum_from_json(dict(data, Q=point(1, 1).to_json())) == good
    for d in (good, moved):
        row = validate_datum(d).conditions[2]
        assert (row.label, row.passed, row.witness) == ("(iii)", True, None)


def test_condition_iv_prime_failure():
    q0 = point(Fraction(1, 2), Fraction(1, 2))
    q1 = seg((0, 0), (Fraction(1, 2), 0))
    d = build_datum(orthant(), [q0, q1], (1, 0))
    assert "(iv')" in failed_labels(d)


def test_condition_iv_prime_names_a_line_in_q():
    # with a line in a summand, Q has no vertices to split, only
    # representatives, so (iv') reports the line instead of a verdict
    for d in hexagon_data():
        data = d.to_json()
        data["summands"][0]["lines"] = [[0, 1, 0]]
        got = {c.label: c for c in validate_datum(datum_from_json(data)).failed()}
        assert "(i)" in got
        assert got["(iv')"].witness == "Q has a line"


@pytest.mark.parametrize("summand, sigma, witness", [
    # the summand line of the CI payload
    ({"vertices": [[0, 1]], "lines": [[1, 0]]}, [[1, 0], [0, 1]], "line (1, 0)"),
    # of two lines, (i) names the first of Q's canonical lines
    ({"vertices": [[0, 0, 1]], "lines": [[0, 1, 0], [1, 1, 0]]},
     [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "line (1, 0, 0)"),
    # a recession ray that leaves the cone is named before a line
    ({"vertices": [[0, 0, 1]], "rays": [[0, 1, 0]], "lines": [[1, 0, 0]]},
     [[1, 0, 0], [0, 0, 1], [0, -1, 1]], "recession ray (0, 1, 0)"),
])
def test_condition_i_names_the_first_line_of_q(summand, sigma, witness):
    # sigma is strongly convex, so it holds no line of Q: (i) fails on
    # Q's first line without testing it
    rank = len(sigma[0])
    data = {"sigma": {"rays": sigma}, "summands": [summand, [[0] * rank]],
            "w": [0] * (rank - 1) + [-1]}
    got = {c.label: c.witness for c in validate_datum(datum_from_json(data)).failed()}
    assert got["(i)"] == witness
    assert got["(iv')"] == "Q has a line"
    assert not hasattr(datum_module, "vsub")


def test_check_tilde_structure_runs_one_double_description(monkeypatch):
    # the slice check reads only the rays of the slice, so it takes one
    # double description pass of the cut facet rows, not a two-pass hull
    passes = []
    dd = polyhedral.dual_description

    def counted(*args):
        passes.append(args)
        return dd(*args)

    tildes = [build_tilde(d) for d in (ca1_datum(), toy_plane_datum(), *hexagon_data(),
                                        p2_p114_family().induced_datum)]
    monkeypatch.setattr(polyhedral, "dual_description", counted)
    for t in tildes:
        del passes[:]
        assert check_tilde_structure(t).ok
        assert len(passes) == 1 and passes[0][0] == t.n


def test_condition_iv_failure_needs_boundary_flag():
    q0 = point(1, 1)
    q1 = seg((0, 0), (Fraction(1, 2), 0))
    plain = build_datum(orthant(), [q0, q1], (1, 0), boundary=False)
    assert failed_labels(plain) == ()
    flagged = build_datum(orthant(), [q0, q1], (1, 0), boundary=True)
    assert failed_labels(flagged) == ("(iv)",)


def test_condition_v_failure():
    d = build_datum(orthant(), [point(2, 0), point(0, 1)], (-1, 0))
    assert "(v)" in failed_labels(d)


def test_condition_vi_failure():
    d = build_datum(orthant(), [point(0, 1), point(1, 0)], (0, -1))
    assert failed_labels(d) == ("(vi)",)


def failing_data():
    """One datum per failing condition, as in the tests above."""
    half = Fraction(1, 2)
    return [
        build_datum(orthant(), [point(-1, 2), point(0, 0)], (1, 0)),
        build_datum(orthant(), [seg((0, 0), (1, 0)), seg((0, 0), (0, 1))], (0, -1)),
        build_datum(orthant(), [point(half, half), seg((0, 0), (half, 0))], (1, 0)),
        build_datum(orthant(), [point(1, 1), seg((0, 0), (half, 0))], (1, 0),
                    boundary=True),
        build_datum(orthant(), [point(2, 0), point(0, 1)], (-1, 0)),
        build_datum(orthant(), [point(0, 1), point(1, 0)], (0, -1)),
    ]


def test_validate_datum_is_unimodular_covariant():
    # every condition is invariant under x -> Ux, w -> w U^-1: with entries
    # of U between 10^3 and 10^4 each row keeps its verdict
    r = corpus.rng(1901)
    failed = set()
    for d in [ca1_datum(3), toy_plane_datum(), *hexagon_data(), *failing_data()]:
        moved = corpus.transform_datum(*corpus.large_unimodular(r, d.rank), d)
        want = [(c.label, c.passed) for c in validate_datum(d).conditions]
        assert [(c.label, c.passed) for c in validate_datum(moved).conditions] == want
        failed.update(label for label, passed in want if not passed)
    assert failed == {"(i)", "(ii)", "(iv')", "(iv)", "(v)", "(vi)"}


def _level_slice_reference(d, w):
    """Vertices of the level -1 slice of sigma as a polyhedron of its own."""
    ineqs = [(f, 0) for f in d.sigma.facets]
    ineqs += [(tuple(w), 1), (tuple(-x for x in w), -1)]
    return Polyhedron.from_inequalities(d.rank, ineqs).vertices


def test_condition_vi_slice_vertices_match_level_polyhedron():
    r = corpus.rng(1310)
    data = corpus.random_valid_data(1310, 10) + [
        ca1_datum(), toy_plane_datum(), *hexagon_data(),
        p2_p114_family().induced_datum]
    outcomes = set()
    for d in data:
        for w in [d.w] + [corpus.random_vector(r, d.rank, -3, 3) for _ in range(4)]:
            level = _level_slice_reference(d, w)
            derived = sorted(tuple(Fraction(x, -oracles.dot(w, ray)) for x in ray)
                             for ray in d.sigma.rays if oracles.dot(w, ray) < 0)
            assert tuple(derived) == level
            bad = next((v for v in level
                        if not membership_scaling(d.q, primitive(v))), None)
            moved = DeformationDatum(d.sigma, d.summands, w, d.boundary)
            vi = validate_datum(moved).conditions[-1]
            assert vi.label == "(vi)"
            assert (vi.passed, vi.witness) == (
                (True, None) if bad is None
                else (False, "slice vertex (%s)" % ", ".join(map(str, bad))))
            outcomes.add((vi.passed, len(level) > 1))
    assert outcomes == {(True, False), (True, True), (False, False), (False, True)}


def test_condition_vi_witness_is_the_lex_least_slice_vertex():
    # rays (1, 0) < (1, 2), but their slice vertices (1, 0) > (1/3, 2/3);
    # R+ Q is the ray through (2, 1), which misses both
    sigma = Cone.from_generators(2, [(1, 0), (1, 2)])
    d = build_datum(sigma, [point(Fraction(2, 3), Fraction(1, 3)), point(0, 0)],
                    (-1, -1))
    report = validate_datum(d)
    assert [c.label for c in report.failed()] == ["(vi)"]
    assert report.conditions[-1].witness == "slice vertex (1/3, 2/3)"
    assert str(report).splitlines()[-1] == (
        "FAIL (vi): every vertex of the level -1 slice of the cone lies in "
        "R+ Q [witness: slice vertex (1/3, 2/3)]")


def test_require_valid_raises_with_report():
    d = build_datum(orthant(), [point(0, 1), point(1, 0)], (0, -1))
    with pytest.raises(DatumValidationError) as exc:
        require_valid(d)
    assert "(vi)" in str(exc.value)
    require_valid(ca1_datum())


def _row_vertex(row):
    return tuple(Fraction(x, row[-1]) for x in row[:-1])


def _split_vertices(q, v, summands):
    """oracles.decompose_vertex at the vertex v, its parts read as vertices."""
    got = oracles.decompose_vertex(q, primitive(tuple(v) + (1,)), summands)
    return None if got is None else tuple(map(_row_vertex, got))


def test_decompose_vertex_finds_split():
    q0 = point(1, 1)
    q1 = seg((0, 0), (1, 0))
    q = minkowski_sum(q0, q1)
    got = oracles.decompose_vertex(q, primitive((2, 1, 1)), [q0, q1])
    assert tuple(map(_row_vertex, got)) == ((1, 1), (1, 0))
    assert got == ((1, 1, 1), (1, 0, 1))
    assert oracles.decompose_vertex(q, primitive((5, 5, 1)), [q0, q1]) is None


def _random_summands(r, rank):
    """Two or three hulls of rational points, a third of them with a
    recession ray."""
    out = []
    for _ in range(r.randint(2, 3)):
        pts = [corpus.random_rational_point(r, rank) for _ in range(r.randint(1, 3))]
        rays = [corpus.random_vector(r, rank, -2, 2)] if r.random() < 0.3 else []
        out.append(convex_hull(rank, pts, rays))
    return out


def test_decompose_vertex_against_brute_force():
    """The direct split agrees with a search over all vertex tuples, which
    also finds at most one split: the split of a sum vertex is unique."""
    r = corpus.rng(4417)
    cases = [d.summands for d in corpus.random_valid_data(4416, 18, (2, 3, 4))]
    cases += [_random_summands(r, r.choice((2, 3))) for _ in range(120)]
    outcomes = {"split": 0, "none": 0, "two non-lattice": 0}
    for summands in cases:
        q = summands[0]
        for s in summands[1:]:
            q = minkowski_sum(q, s)
        if q.lines:  # the rays span a line: q has no vertices, only representatives
            continue
        vertex_lists = [s.vertices for s in summands]
        for v in q.vertices:
            want = oracles.vertex_splits_oracle(v, vertex_lists)
            assert len(want) <= 1, (v, want)
            got = _split_vertices(q, v, summands)
            assert got == (want[0] if want else None), (v, summands)
            outcomes["split" if want else "none"] += 1
            if not want and oracles.vertex_splits_oracle(v, vertex_lists, len(summands)):
                outcomes["two non-lattice"] += 1
    assert min(outcomes.values()) > 0, outcomes


def _decompose_reference(q, v, summands):
    """The Fraction check decompose_vertex made before it read rows: the
    argmin vertices must add up to v, at most one of them non-lattice."""
    h = primitive(tuple(v) + (1,))
    u = (0,) * q.rank
    for a, c in q.inequalities:
        if oracles.dot(a, h[:-1]) + c * h[-1] == 0:
            u = tuple(x + y for x, y in zip(u, a))
    try:
        parts = tuple(min_functional(s, u).argmin for s in summands)
    except UnboundedError:
        return None
    if (tuple(map(sum, zip(*parts))) != tuple(v)
            or sum(not is_integral(p) for p in parts) > 1):
        return None
    return parts


def test_decompose_vertex_against_fraction_reference():
    """The row check agrees with the Fraction sums on valid data, the
    presets and hand-broken splits: a summand moved by half a unit (off
    the lattice) or by a unit, and two half-integral segments."""
    data = corpus.random_valid_data(4418, 12, (2, 3, 4))
    data += [ca1_datum(), toy_plane_datum(), *hexagon_data()]
    half = [convex_hull(2, [(0, 0), (Fraction(1, 2), 0)])] * 2
    cases = [(minkowski_sum(*half), half)]
    for d in data:
        shift = (1,) + (0,) * (d.q.rank - 1)
        cases.append((d.q, d.summands))
        cases.append((d.q, (corpus.translated(d.summands[0],
                                              vscale(Fraction(1, 2), shift)),)
                      + d.summands[1:]))
        cases.append((d.q, d.summands[:-1]
                      + (corpus.translated(d.summands[-1], shift),)))
    outcomes = {"split": 0, "none": 0}
    for q, summands in cases:
        for v in q.vertices:
            want = _decompose_reference(q, v, summands)
            assert _split_vertices(q, v, summands) == want, (q, v, summands)
            outcomes["split" if want else "none"] += 1
    assert min(outcomes.values()) > 0, outcomes


def opposed_rays_datum():
    """Neither summand has a line, but their rays (1, 0) and (-1, 0) span
    one in Q."""
    q0 = convex_hull(2, [(0, 1)], rays=[(1, 0)])
    q1 = convex_hull(2, [(0, 0)], rays=[(-1, 0)])
    return build_datum(orthant(), [q0, q1], (0, 1))


def _split_cases():
    """Data whose recorded splits are checked: random valid data (k = 1-3,
    Q_0 rational), the presets, an unbounded summand, lower-dimensional
    summands in rank 3, the failing data above, and sums of two or three
    random rational hulls, a third of them unbounded."""
    lower = build_datum(
        Cone.from_generators(3, [(-1, 0, 1), (0, -1, 1), (1, -1, 1), (2, 0, 1),
                                 (2, 1, 1), (-1, 1, 1)]),
        [convex_hull(3, [(0, 1, 1), (1, 0, 1), (1, 1, 1)]),
         convex_hull(3, [(-1, -1, 0), (0, -1, 0), (1, 0, 0), (-1, 0, 0)])],
        (0, 0, -1), boundary=True)
    data = corpus.random_valid_data(4419, 18, (2, 3, 4))
    data += [ca1_datum(), toy_plane_datum(), *hexagon_data(),
             unbounded_datum((1, 1)), opposed_rays_datum(), lower,
             *failing_data()]
    r = corpus.rng(4420)
    for _ in range(80):
        rank = r.choice((2, 3))
        data.append(DeformationDatum(sigma=orthant(rank),
                                     summands=tuple(_random_summands(r, rank)),
                                     w=(0,) * rank, boundary=False))
    return data


def test_recorded_splits_match_the_reference():
    """On every vertex of Q, the split composed from minkowski_sum's
    records is the reference's parts, which add up to the vertex; the
    reference is asked to allow any number of non-lattice parts."""
    nonlattice, counts, kinds = set(), set(), set()
    for d in _split_cases():
        q = d.q
        if q.lines:
            assert d.splits == ()
            kinds.add("line")
            continue
        assert len(d.splits) == len(q.homogeneous)
        for h, parts in zip(q.homogeneous, d.splits):
            want = oracles.decompose_vertex(q, h, d.summands, len(d.summands))
            assert parts == want, (d.summands, h)
            nonlattice.add(sum(r[-1] > 1 for r in parts))
        counts.add(len(d.summands))
        kinds.update(("unbounded",) * any(s.rays for s in d.summands)
                     + ("lower-dimensional",) * any(
                         s.affine_dimension() < s.rank for s in d.summands))
    assert nonlattice >= {0, 1, 2}, nonlattice
    assert counts == {2, 3, 4}, counts
    assert kinds == {"line", "unbounded", "lower-dimensional"}, kinds


def test_iv_prime_reads_a_line_made_by_the_fold():
    # the fold records no split, and (iv') names the line
    d = opposed_rays_datum()
    assert d.q.lines and d.splits == ()
    got = {c.label: c.witness for c in validate_datum(d).failed()}
    assert got["(iv')"] == "Q has a line"


def test_passing_datum_minimizes_only_for_condition_v(monkeypatch):
    # (iv') reads the recorded splits, so min_functional runs once, for (v)
    calls = []

    def counting(p, u):
        calls.append(p)
        return min_functional(p, u)

    monkeypatch.setattr(datum_module, "min_functional", counting)
    for d in corpus.random_valid_data(2208, 12) + [
            ca1_datum(), toy_plane_datum(), *hexagon_data(), unbounded_datum((1, 1))]:
        calls.clear()
        assert validate_datum(d).ok
        assert calls == [d.q]


def test_report_json_shape():
    rep = validate_datum(ca1_datum())
    data = rep.to_json()
    assert data["ok"] is True
    assert [c["label"] for c in data["conditions"]][:2] == ["(i)", "(ii)"]


def test_datum_json_roundtrip():
    for d in (ca1_datum(2), toy_plane_datum(), hexagon_data()[0]):
        back = datum_from_json(d.to_json())
        assert back.sigma.rays == d.sigma.rays
        assert back.w == d.w
        assert back.boundary == d.boundary
        assert all(s1 == s2 for s1, s2 in zip(back.summands, d.summands))
        assert back.q == d.q


def test_datum_json_roundtrip_on_corpus():
    for d in corpus.random_valid_data(905, 12):
        assert datum_from_json(json.loads(json.dumps(d.to_json()))) == d


def test_datum_json_boundary_must_be_boolean():
    data = toy_plane_datum().to_json()
    for bad in ("no", 0, None):
        with pytest.raises(ValueError, match="boundary must be true or false"):
            datum_from_json(dict(data, boundary=bad))


def test_datum_json_rejects_non_integral_w():
    data = toy_plane_datum().to_json()
    with pytest.raises(ValueError, match="non-integral coordinate 1/2"):
        datum_from_json(dict(data, w=[0.5, -0.5]))
    # a "p/q" string reads as a rational; build_datum refuses it as w
    with pytest.raises(DatumStructureError, match="^w must be a lattice vector$"):
        datum_from_json(dict(data, w=["1/2", -1]))
    assert datum_from_json(dict(data, w=["0", "-1"])).w == (0, -1)


def test_datum_json_rejects_non_integral_summand():
    data = toy_plane_datum().to_json()
    bad = {"vertices": [[[0.5, 1], [1, 1]]], "rays": []}
    with pytest.raises(ValueError, match="non-integral coordinate 1/2"):
        datum_from_json(dict(data, summands=[bad, data["summands"][1]]))
    with pytest.raises(ValueError, match="non-integral coordinate 1/2"):
        datum_from_json(dict(data, Q=bad))


# ------------------------------------------------------- enlarged cone


def test_ca1_tilde_frozen():
    t = build_tilde(ca1_datum(3))
    assert t.n == 3 and t.k == 1
    assert set(t.rays) == {(-1, 1, 0, -2), (0, 0, 0, 1), (0, 0, 1, 0),
                           (1, 0, 0, 1)}
    assert t.w_tilde == (0, -2, 3, 0)
    assert tuple(-x for x in t.w_tilde[t.n:]) == (0,)  # the floors
    struct = check_tilde_structure(t)
    assert struct.ok, struct.detail


def test_toy_tilde_frozen():
    t = build_tilde(toy_plane_datum())
    assert set(t.rays) == {(0, 0, 1), (0, 1, -1), (1, 0, 0)}
    assert t.w_tilde == (0, -1, 0)
    assert check_tilde_structure(t).ok


def unbounded_datum(w, q0_rays=((1, 0), (0, 1))):
    """Q0 = (0, 1) + cone(q0_rays) and Q1 = conv{(0, 0), (1, 0)} in the
    positive quadrant, with the boundary flag."""
    q0 = convex_hull(2, [(0, 1)], rays=q0_rays)
    return build_datum(orthant(), [q0, seg((0, 0), (1, 0))], w, boundary=True)


def test_unbounded_summand_end_to_end():
    # Q0's recession rays are generators of the enlarged cone; the one
    # that survives is sigma's ray (1, 0), so it carries both tags
    d = unbounded_datum((1, 1))
    assert validate_datum(d).ok
    t = build_tilde(d)
    assert t.rays == ((0, 0, 1), (0, 1, -1), (1, 0, 0))
    assert t.provenance[2] == ("sigma ray (1, 0)", "Q0 recession ray (1, 0)")
    assert check_tilde_structure(t).ok
    assert pretty(trinomials(t)[0], t.rays) == "x0 - x1 - t1*x1^2*x2"
    # w = (1, -1) falls along Q0's recession ray (0, 1): (v) has no minimum
    got = {c.label: c.witness for c in validate_datum(unbounded_datum((1, -1))).failed()}
    assert got == {"(v)": "w unbounded below on Q"}
    # the recession ray (-1, 1) leaves the quadrant: (i) names it
    got = {c.label: c.witness for c in validate_datum(
        unbounded_datum((1, 1), ((1, 0), (-1, 1)))).failed()}
    assert got == {"(i)": "recession ray (-1, 1)"}


def test_tilde_provenance_covers_all_rays():
    for d in (ca1_datum(), toy_plane_datum(), *hexagon_data()):
        t = build_tilde(d)
        assert len(t.provenance) == len(t.rays)
        assert all(tags for tags in t.provenance)


def test_passing_datum_reads_no_fraction_vertex_of_q():
    # (i) and (iv') walk Q's integer rows and build_tilde never reads Q, so
    # a passing datum leaves Q's Fraction vertices unbuilt; the provenance
    # tags still print each summand vertex as its Fraction vertex does
    rational = False
    for d in corpus.random_valid_data(2207, 12) + [
            ca1_datum(), toy_plane_datum(), *hexagon_data()]:
        d = build_datum(d.sigma, d.summands, d.w, boundary=d.boundary)
        require_valid(d)
        t = build_tilde(d)
        assert d.q._vertices is None
        tags = {"Q%d vertex (%s)" % (i, ", ".join(map(str, v)))
                for i, s in enumerate(d.summands) for v in s.vertices}
        got = {tag for p in t.provenance for tag in p
               if tag.startswith("Q") and " vertex " in tag}
        assert got and got <= tags
        rational |= any("/" in tag for tag in got)
    assert rational


def test_tilde_pairing_rows_match_rays():
    t = build_tilde(ca1_datum())
    mat = t.pairings.matrix
    assert len(mat) == t.k
    assert all(len(row) == len(t.rays) for row in mat)
    for j, ray in enumerate(t.rays):
        # tail of the ray is exactly its e_i* pairing vector
        assert tuple(ray[t.n:]) == tuple(mat[i][j] for i in range(t.k))


def test_tilde_structure_on_corpus():
    for d in corpus.random_valid_data(901, 12):
        t = build_tilde(d)
        struct = check_tilde_structure(t)
        assert struct.ok, struct.detail


def test_tilde_structure_reports_slice_mismatch():
    t = build_tilde(toy_plane_datum())
    assert check_tilde_structure(t).ok
    wrong = DeformationDatum(Cone.from_generators(2, [(1, 0), (1, 2)]),
                             t.datum.summands, t.datum.w, t.datum.boundary)
    struct = check_tilde_structure(t._replace(datum=wrong))
    assert struct.slice_ok is False and not struct.ok
    assert struct.detail == (
        "slice rays ((0, 1), (1, 0)) != cone rays ((1, 0), (1, 2))")


def test_positive_pairing_at_most_one_per_ray():
    for d in corpus.random_valid_data(902, 12):
        t = build_tilde(d)
        for tail in t.pairings.e_pairings:
            assert sum(1 for x in tail if x > 0) <= 1


def test_zero_pairing_rays_project_to_cone_rays():
    for d in corpus.random_valid_data(903, 12):
        t = build_tilde(d)
        sigma_rays = set(d.sigma.rays)
        for ray, tail in zip(t.rays, t.pairings.e_pairings):
            if all(x == 0 for x in tail):
                assert ray[:t.n] in sigma_rays


def test_build_tilde_is_unimodular_covariant():
    # with d moved by U, the enlarged cone moves by diag(U, I_k): its rays
    # map onto the moved rays, w~ moves by U^-1 on its first n entries, and
    # the floors stay
    r = corpus.rng(1902)
    for d in [ca1_datum(3), toy_plane_datum(), *hexagon_data(),
              *corpus.random_valid_data(1903, 4)]:
        u, u_inv = corpus.large_unimodular(r, d.rank)
        t, moved = build_tilde(d), build_tilde(corpus.transform_datum(u, u_inv, d))
        n = d.rank
        assert moved.rays == tuple(sorted(corpus.matmul_vec(u, x[:n]) + x[n:] for x in t.rays))
        assert moved.w_tilde == corpus.functional_after(u_inv, t.w_tilde[:n]) + t.w_tilde[n:]
        assert moved.w_tilde[n:] == t.w_tilde[n:]  # the floors
        assert check_tilde_structure(moved).ok


# ------------------------------------------------------- floor-min


def bounded_dual_points(d, box=3):
    ineqs = [(r, 0) for r in d.sigma.rays]
    for j in range(d.rank):
        unit = tuple(1 if i == j else 0 for i in range(d.rank))
        ineqs.append((unit, -box))
        ineqs.append((tuple(-x for x in unit), -box))
    return lattice_points(Polyhedron.from_inequalities(d.rank, ineqs))


def test_floor_min_identity_samples():
    for d in corpus.random_valid_data(904, 8):
        for u in bounded_dual_points(d):
            assert floor_min_identity(d, u)


def test_floor_min_identity_rejects_non_integral_u():
    with pytest.raises(ValueError, match="non-integral"):
        floor_min_identity(ca1_datum(1), (0, Fraction(1, 2), 1))


def test_floor_min_identity_ca1():
    d = ca1_datum(1)
    for u in bounded_dual_points(d):
        assert floor_min_identity(d, u)
