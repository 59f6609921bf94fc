"""Mutate the triangle of P^2 into the triangle of P(1,1,4), then build
the pencil of hypersurfaces connecting the two.

The two special fibers are binomial (toric); everything in between is a
genuinely non-toric degree-2 curve in the weighted plane.
"""

from toricdeform.cox import pretty
from toricdeform.mutation import (
    mutate,
    mutation_family,
    specialize_fiber,
    validate_fano,
    validate_mutation_datum,
)
from toricdeform.polyhedral import convex_hull
from toricdeform.presets import p2_p114_alias


def main():
    fano = validate_fano(convex_hull(2, [(1, 0), (0, 1), (-1, -1)]))
    w = (-1, 2)
    factor = convex_hull(2, [(0, 0), (2, 1)])
    d = validate_mutation_datum(fano, w, factor)

    print("P:", sorted(fano.vertices()), " w:", w,
          " F:", sorted((int(x), int(y)) for x, y in factor.vertices))
    for layer in d.witnesses:
        print("   height %d factors off %s" % (
            layer.height,
            sorted(tuple(map(int, v)) for v in layer.factor_part.vertices)))

    mut = mutate(fano, d)
    print("mutant:", sorted(mut.vertices()))

    # and back again
    dinv = validate_mutation_datum(mut, (1, -2), factor)
    print("inverse recovers P:",
          mutate(mut, dinv).polytope == fano.polytope)

    fam = mutation_family(fano, d)
    alias = p2_p114_alias(fam.fan.rays)
    print("\nambient weights:", dict(zip(fam.fan.rays, fam.weights())))
    print("pencil: %s = 0   (boundary divisor %s = 0)" % (
        pretty(fam.trinomial, fam.fan.rays, alias),
        pretty(fam.monomial, fam.fan.rays, alias)))

    for point in ((0, 1, -1), (1, 0, -1), (1, 1, 1), (2, -3, 6)):
        rep = specialize_fiber(fam, point)
        note = "" if rep.matched is None else \
            "  [binomial fiber verified: %s]" % rep.matched
        print("   [%s] %-8s %s%s" % (
            ":".join(str(x) for x in rep.point), rep.kind,
            pretty(rep.polynomial, fam.fan.rays, alias), note))


if __name__ == "__main__":
    main()
