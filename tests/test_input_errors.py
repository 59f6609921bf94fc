"""Library input errors: each refused input raises its own exception
class with its whole message."""

from fractions import Fraction

import pytest

from toricdeform.cox import cox_system
from toricdeform.datum import DatumStructureError, build_datum, floor_min_identity
from toricdeform.mutation import validate_fano, validate_mutation_datum
from toricdeform.polyhedral import Cone, Polyhedron, convex_hull, min_functional, minkowski_sum
from toricdeform.presets import ca1_datum, p2_polytope, toy_plane_datum
from toricdeform.projective import PolarizedToricVariety


def _mutation(w, factor):
    return lambda: validate_mutation_datum(validate_fano(p2_polytope()), w, factor)


SEGMENT = convex_hull(2, [(0, 0), (1, -1)])
FULL_RANK = "factor must be a nonempty polytope of full rank"
LATTICE = "factor must be a bounded lattice polytope"


@pytest.mark.parametrize("call, error, message", [
    pytest.param(_mutation((0, 0), SEGMENT), ValueError,
                 "direction must be nonzero", id="mutation-zero-direction"),
    pytest.param(_mutation((1, 1), Polyhedron.empty(2)), ValueError, FULL_RANK,
                 id="mutation-empty-factor"),
    pytest.param(_mutation((1, 1), convex_hull(1, [(0,), (1,)])), ValueError, FULL_RANK,
                 id="mutation-wrong-rank-factor"),
    pytest.param(_mutation((1, 1), convex_hull(2, [(0, 0)], [(1, -1)])), ValueError,
                 LATTICE, id="mutation-unbounded-factor"),
    pytest.param(_mutation((1, 1), convex_hull(2, [(0, 0), (Fraction(1, 2), Fraction(-1, 2))])),
                 ValueError, LATTICE, id="mutation-non-lattice-factor"),
    pytest.param(lambda: build_datum(Cone.from_generators(2, [(1, 0), (0, 1)]),
                                     [convex_hull(2, [(0, 1)]), Polyhedron.empty(2)], (0, -1)),
                 DatumStructureError, "summand 1 is empty", id="datum-empty-summand"),
    pytest.param(lambda: floor_min_identity(toy_plane_datum(), (-1, 0)), ValueError,
                 "u lies outside the dual cone", id="floor-min-outside-dual-cone"),
    pytest.param(lambda: cox_system([(1, 0), (0, 1, 0)], 2), ValueError,
                 "ray length 3 != rank 2", id="cox-ray-length"),
    pytest.param(lambda: minkowski_sum(convex_hull(1, [(0,)]), convex_hull(2, [(0, 0)])),
                 ValueError, "rank mismatch in Minkowski sum", id="minkowski-ranks"),
    pytest.param(lambda: min_functional(Polyhedron.empty(2), (1, 0)), ValueError,
                 "min over the empty polyhedron", id="min-over-empty"),
    pytest.param(lambda: Cone.from_generators(2, [(1, 0)]).interior_contains((1, 0)),
                 ValueError, "interior test needs a full-dimensional cone",
                 id="interior-of-flat-cone"),
    pytest.param(lambda: PolarizedToricVariety.from_cone(Cone.from_generators(1, [(1,)])),
                 ValueError, "ambient rank must be at least 2", id="polarize-rank-1"),
    pytest.param(lambda: PolarizedToricVariety.from_cone(
        Cone.from_generators(3, [(1, 0, 1), (0, 1, 1)])), ValueError,
        "cone is not full-dimensional", id="polarize-flat-cone"),
    pytest.param(lambda: ca1_datum(-1), ValueError, "exponent must be non-negative",
                 id="ca1-negative-exponent"),
    # a payload with no vertices takes its rank from its rays or lines, so
    # it is refused for having no point, not for having no rank
    pytest.param(lambda: Polyhedron.from_json({"vertices": [], "rays": [[1, 0]]}),
                 ValueError, "empty input: a hull needs at least one point",
                 id="polyhedron-rays-only"),
    pytest.param(lambda: Polyhedron.from_json({"vertices": [], "lines": [[1, 0]]}),
                 ValueError, "empty input: a hull needs at least one point",
                 id="polyhedron-lines-only"),
])
def test_library_input_errors(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message
