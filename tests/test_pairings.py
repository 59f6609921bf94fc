"""The pairing table of the enlarged cone against a brute-force
re-derivation from its rays, on random data and projective enlargements."""

import itertools

from toricdeform.cox import (
    PairingData,
    binomials,
    boundary_monomial,
    trinomials,
)
from toricdeform.datum import build_tilde
from toricdeform.mutation import mutation_family
from toricdeform.presets import ca1_datum, hexagon_data, p2_p114_family

import corpus


def brute_tables(p):
    """Every table entry straight from the definitions, ray by ray."""
    n, k, rays = p.n, p.k, p.rays
    e = [[r[n + i] for r in rays] for i in range(k)]
    return {
        "e_pairings": tuple(tuple(r[n + i] for i in range(k)) for r in rays),
        "matrix": tuple(tuple(row) for row in e),
        "w_pairings": tuple(corpus.dot(p.w_tilde, r) for r in rays),
        "y_exps": tuple(tuple(x if x > 0 else 0 for x in row) for row in e),
        "z_exps": tuple(tuple(-x if x < 0 else 0 for x in row) for row in e),
        "boundary_mask": tuple(
            1 if all(r[n + i] <= 0 for i in range(k)) else 0 for r in rays),
        "zero_tail_mask": tuple(
            1 if all(r[n + i] == 0 for i in range(k)) else 0 for r in rays),
    }


def check_table(p):
    for name, want in brute_tables(p).items():
        assert getattr(p, name) == want, name
    rank = p.n + p.k
    for v in itertools.product(range(-1, 2), repeat=rank):
        assert p.exps(v) == tuple(corpus.dot(v, r) for r in p.rays)


def affine_tables():
    data = corpus.random_valid_data(931, 14) + [ca1_datum(3), *hexagon_data()]
    return [build_tilde(d).pairings for d in data]


def projective_tables():
    fams = [p2_p114_family()]
    fams += [mutation_family(fano, md)
             for fano, md in corpus.random_mutation_cases(4)]
    return [fam.induced.pairings for fam in fams]


def test_affine_tables_match_brute_force():
    for p in affine_tables():
        check_table(p)


def test_projective_tables_match_brute_force():
    tables = projective_tables()
    assert len(tables) == 5
    for p in tables:
        check_table(p)


def test_hand_built_table_matches_brute_force():
    check_table(PairingData(n=2, k=2, rays=((1, 0, 1, -1), (0, 1, 0, 0),
                                            (1, 1, -1, -2)),
                            w_tilde=(1, -1, 0, 2)))


def test_tilde_carries_its_own_table():
    t = build_tilde(ca1_datum(3))
    assert PairingData.of(t) is t.pairings
    assert PairingData.of(t.pairings) is t.pairings
    assert (t.pairings.n, t.pairings.k) == (t.n, t.k)
    assert t.pairings.rays == t.rays and t.pairings.w_tilde == t.w_tilde
    # the tables are read off the fields, so a replaced field re-derives them
    fewer = t.pairings._replace(rays=t.pairings.rays[1:])
    assert fewer.y_exps == tuple(row[1:] for row in t.pairings.y_exps)
    check_table(fewer)


def test_emitters_read_the_table():
    for p in affine_tables() + projective_tables():
        for i, (b, tri) in enumerate(zip(binomials(p), trinomials(p))):
            assert b.terms[0].exps == p.y_exps[i]
            assert b.terms[1].exps == p.z_exps[i]
            assert tri.terms[:2] == b.terms
            assert tri.terms[2].exps == tuple(
                w + z for w, z in zip(p.w_pairings, p.z_exps[i]))
        assert boundary_monomial(p).terms[0].exps == p.boundary_mask
