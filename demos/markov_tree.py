"""Walk the Pell branch of the Markov tree by mutating P^2's fan triangle.

Each mutation at an edge of a triangle gives the fan triangle of another
weighted projective plane P(a^2, b^2, c^2) with a^2 + b^2 + c^2 = 3abc.
Keeping the Markov number 2 visits (1, 1, 2), (1, 2, 5), (2, 5, 29),
(2, 29, 169), ...; the edge mutated at each step sits at lattice height
|hmin|, so the coordinates grow geometrically.  Mutations read only the
vertices of the triangle and of the factor, so every step is a few
milliseconds, the pencil and its mutated special fibre included.
"""

import math

from toricdeform.cox import cox_system
from toricdeform.lattice import dot, primitive, vneg, vsub
from toricdeform.mutation import (
    mutation_family,
    specialize_fiber,
    validate_fano,
    validate_mutation_datum,
)
from toricdeform.polyhedral import convex_hull
from toricdeform.presets import p2_polytope


def edges(verts):
    """(inner primitive normal w, primitive segment F, lattice height) per
    edge of a triangle containing the origin."""
    out = []
    for i in range(3):
        a, b, c = verts[i], verts[(i + 1) % 3], verts[(i + 2) % 3]
        e = primitive(vsub(b, a))
        w = (-e[1], e[0])
        if dot(w, c) < dot(w, a):
            w = vneg(w)
        out.append((w, convex_hull(2, [(0, 0), e]), -dot(w, a)))
    return out


def markov_triple(fano):
    weights = cox_system(fano.vertices(), 2).weights()
    return tuple(sorted(math.isqrt(abs(x)) for x in weights))


def main():
    fano = validate_fano(p2_polytope())
    row = "%4s  %-24s %6s  %-5s  %s"
    print(row % ("step", "hmin", "digits", "fibre", "Markov triple"))
    print(row % (0, "", 1, "", markov_triple(fano)))
    for step in range(1, 31):
        w, factor, _ = min((e for e in edges(fano.vertices()) if e[2] != 2),
                           key=lambda e: e[2])
        d = validate_mutation_datum(fano, w, factor)
        fam = mutation_family(fano, d)
        matched = specialize_fiber(fam, (1, 0, -1)).matched
        fano = fam.mutated
        digits = max(len(str(abs(x))) for v in fano.vertices() for x in v)
        print(row % (step, d.hmin, digits, matched, markov_triple(fano)))


if __name__ == "__main__":
    main()
