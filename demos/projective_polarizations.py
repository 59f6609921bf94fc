"""Polarized toric varieties as cones with a marked interior vector.

Three constructions of the same projective plane, then two weighted
examples showing where the polarization stops being Cartier, and
finally the projective version of a deformation: the pencil through
P^2 and P(1,1,4).
"""

from toricdeform.polyhedral import Cone
from toricdeform.presets import p2_p114_family, p2_polytope
from toricdeform.projective import (
    PolarizedToricVariety,
    classify_divisor,
    cox_comparison,
    polytope_in_M,
    projective_tilde,
)


def describe(tag, v):
    print(tag)
    for rd in v.ray_data:
        print("   rho=%-12s phi=%-6s b=%d" % (rd.rho, rd.phi, rd.b))
    print("   class:", classify_divisor(v))
    print("   cox exponents:", cox_comparison(v))
    pm = polytope_in_M(v)
    print("   moment polytope verts:",
          " ".join("(%s)" % ", ".join(str(x) for x in p)
                   for p in pm.vertices))
    print()


def main():
    # route 1: cone over the anticanonical triangle at height one
    tau = Cone.from_generators(3, [(1, 0, 1), (0, 1, 1), (-1, -1, 1)])
    a = PolarizedToricVariety.from_cone(tau)
    describe("P^2 from a cone", a)

    b = PolarizedToricVariety.from_fano_polytope(p2_polytope())
    c = PolarizedToricVariety.from_support_function(a.fan, a.phi_values)
    print("three routes agree:", a == b == c)
    print()

    # a polarization that is integral but not Cartier
    w = PolarizedToricVariety.from_cone(
        Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (-1, -2, 1)]))
    describe("weighted example", w)

    # and one that is only a Q-divisor
    q = PolarizedToricVariety.from_cone(
        Cone.from_generators(2, [(2, 1), (-1, 1)]))
    describe("Q-divisor example", q)

    # projective_tilde polarizes by the datum's own cone
    pt = projective_tilde(p2_p114_family().induced_datum)
    print("projective pencil over the induced datum")
    print("   ambient rays:", tuple(pt.fan.rays))
    print("   boundary:", "present" if pt.boundary is not None else "none")


if __name__ == "__main__":
    main()
