"""Brute-force certificates behind the algebra.

hilbert_basis computes the irreducible semigroup elements exactly, from
the fundamental parallelepipeds of a triangulation of the cone, and
reports whether its degree bound reached the certificate bound.  The two equality checks compare ideal
membership against monomial factorization, character by character; the
degree-zero check builds a witness for every pair it confirms when its
witnesses are first read.
"""

from toricdeform.datum import build_tilde
from toricdeform.oracle import (
    boundary_equality_check,
    degree_zero_equality_check,
    hilbert_basis,
    revalidate_witness,
)
from toricdeform.polyhedral import Cone
from toricdeform.presets import ca1_datum, toy_plane_datum


def main():
    for rays in ([(1, 0), (0, 1)], [(1, 0), (1, 2)], [(1, 0), (1, 5)]):
        c = Cone.from_generators(2, rays)
        hb = hilbert_basis(c)
        print("cone%s  basis %s  complete=%s (certificate bound %d)"
              % (rays, hb.generators, hb.complete, hb.certificate_bound))

    print()
    for tag, d, bound in (("cA1 p=3", ca1_datum(3), 8),
                          ("toy plane", toy_plane_datum(), 6)):
        t = build_tilde(d)
        r0 = degree_zero_equality_check(t, bound=bound)
        rb = boundary_equality_check(t, bound=bound)
        print("%s: %d degree-zero pairs (%d failures), "
              "%d boundary characters (%d failures)"
              % (tag, r0.checked, len(r0.failures),
                 rb.checked, len(rb.failures)))
        w = next(x for x in r0.witnesses if x.r != x.s)
        print("   sample witness r=%s s=%s shifts=%s  replayed ok: %s"
              % (w.r, w.s, w.shifts, revalidate_witness(t, w)))


if __name__ == "__main__":
    main()
