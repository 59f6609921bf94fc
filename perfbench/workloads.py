"""Seeded inputs, item runners and output checks for the benchmark workloads.

The inputs are generated here in plain Python, without the package under
test, so neither a change to the package nor a change to its tests can
shift them: for a given seed every commit sees the same items.  Where an
item needs a reference value (a facet list, a mutated polygon, a divisor
class), it is computed here too, by plain planar geometry, and the item's
check compares the package's answer against it.

A workload is an object with
  name, why        -- as listed in BENCHMARK.json
  make_items(seed) -- the ordered item list, JSON-serialisable
  warmup_items()   -- fixed items run during set-up, the same for every seed
  prepare(items, workdir) -- writes whatever files the items read
  run(env, item)   -- calls the package; returns the output as text
  check(item, out) -- None, or a message saying what is wrong
Items are ordered so that the first few are cheap: a run limited to a
handful of items still touches every kind of call the workload makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

# ---------------------------------------------------------------------------
# plain planar lattice geometry


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull2(points):
    """Vertices of the convex hull, counter-clockwise, collinear points dropped."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def minkowski_sum2(a, b):
    return hull2([(x[0] + y[0], x[1] + y[1]) for x in a for y in b])


def primitive2(v):
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def random_polygon(r, nverts, lo, hi):
    """A lattice polygon with exactly nverts vertices in the box [lo, hi]^2."""
    while True:
        poly = hull2([(r.randint(lo, hi), r.randint(lo, hi))
                      for _ in range(nverts + 1)])
        if len(poly) == nverts:
            return poly


def _inside(poly, x):
    n = len(poly)
    return all(_cross(poly[i], poly[(i + 1) % n], x) >= 0 for i in range(n))


def _box(poly):
    xs = [v[0] for v in poly]
    ys = [v[1] for v in poly]
    return range(min(xs), max(xs) + 1), range(min(ys), max(ys) + 1)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# datum-pipeline: `tilde` then `equations` through the CLI, in process

# Item i takes stratum i mod 10: the vertex count of each summand and the
# vertex count of their sum.  Every seed gets the same mix of enlarged-cone
# ranks n+k = 4, 5, 6 (60%, 20%, 20% of the items) and of generator counts;
# only the polygons vary.  The median item then lies inside the rank-4
# group and the 90th percentile inside the rank-6 group, not on the edge
# between two groups, where a seed could move it by a factor of two.
_DATUM_STRATA = (((3, 4), 6), ((3, 4, 3), 7), ((4, 4), 6), ((3, 4, 3, 4), 9),
                 ((3, 3), 6), ((4, 3), 6), ((4, 3, 4, 3), 9), ((4, 3, 4), 8),
                 ((4, 4), 7), ((3, 3), 5))
_DATUM_ITEMS = 97
_DATUM_PRESETS = (("cA1", 1), ("hexagon-a", 2), ("hexagon-b", 1))


def _datum_payload(r, vertex_counts, total_vertices):
    """Height-one Minkowski datum: the first summand at height one, the
    rest at height zero, sigma the cone over their sum, w = (0, 0, -1)."""
    while True:
        polys = [random_polygon(r, nv, -1, 1) for nv in vertex_counts]
        total = polys[0]
        for p in polys[1:]:
            total = minkowski_sum2(total, p)
        if len(total) == total_vertices:
            break
    summands = [[[x, y, 1] for x, y in polys[0]]]
    summands += [[[x, y, 0] for x, y in p] for p in polys[1:]]
    return {"sigma": {"rays": [[x, y, 1] for x, y in total]},
            "summands": summands, "w": [0, 0, -1], "boundary": True}


class DatumPipeline:
    name = "datum-pipeline"
    why = ("height-one Minkowski data through the CLI (tilde, equations): "
           "double description and lattice algebra dominate; "
           "lattice_points is never called")

    def make_items(self, seed):
        r = random.Random("datum-pipeline/%d" % seed)
        items = [{"preset": name, "k": k} for name, k in _DATUM_PRESETS]
        for i in range(_DATUM_ITEMS):
            vertex_counts, total_vertices = _DATUM_STRATA[i % len(_DATUM_STRATA)]
            items.append({"file": "datum-%03d.json" % i,
                          "payload": _datum_payload(r, vertex_counts, total_vertices),
                          "k": len(vertex_counts) - 1})
        return items

    def warmup_items(self):
        return [{"preset": "cA1", "k": 1}]

    def prepare(self, items, workdir):
        for item in items:
            if "file" in item:
                with open(os.path.join(workdir, item["file"]), "w",
                          encoding="utf-8") as fh:
                    json.dump(item["payload"], fh)

    def run(self, env, item):
        source = (os.path.join(env.workdir, item["file"]) if "file" in item
                  else item["preset"])
        results = []
        for command in ("tilde", "equations"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = env.td.workbench.main([command, source, "--format", "json"])
            results.append([code, out.getvalue(), err.getvalue()])
        env.count("workbench.output_bytes",
                  sum(len(res[1].encode("utf-8")) for res in results))
        return json.dumps(results)

    def check(self, item, out):
        (code_t, out_t, err_t), (code_e, out_e, err_e) = json.loads(out)
        if code_t != 0 or code_e != 0:
            return "exit codes %d, %d: %s" % (code_t, code_e, (err_t + err_e).strip())
        tilde = json.loads(out_t)
        eqs = json.loads(out_e)
        if not tilde["structure"]["ok"]:
            return "enlarged cone fails its structure check"
        k = item["k"]
        if tilde["tilde"]["k"] != k or tilde["tilde"]["n"] != 3:
            return "enlarged cone has n=%s, k=%s" % (tilde["tilde"]["n"], tilde["tilde"]["k"])
        if eqs["rays"] != tilde["tilde"]["rays"]:
            return "equations and tilde disagree on the rays"
        if len(eqs["trinomials"]) != k or len(eqs["binomials"]) != k:
            return "expected %d trinomials and binomials" % k
        if eqs["boundary_monomial"] is None:
            return "boundary datum without a boundary monomial"
        return None


# ---------------------------------------------------------------------------
# oracle-sweep: bounded equality oracles and Hilbert bases, library calls

# Hilbert-basis items take stratum i mod 7: a polygon vertex count and a
# band for the certificate bound, which sets the item's cost.  58 of them
# with the 42 ladder items make 100 items, which puts the 90th percentile
# inside the group of cA1 boundary checks at bound 12, not on an edge.
_HB_STRATA = ((3, 6, 10), (3, 11, 21), (4, 16, 24), (4, 25, 35), (4, 36, 48),
              (5, 37, 50), (5, 51, 67))
_HB_ITEMS = 58


def _ladder():
    """The same for every seed: cA1 with p = 1..4 at bounds 4, 8 and 12,
    hexagon-a up to bound 10, toy-plane up to 16, and two top cA1 rungs."""
    rungs = []
    for p in (1, 2, 3, 4):
        for bound in (4, 8, 12):
            rungs.append(("cA1", p, bound))
    rungs += [("hexagon-a", 0, b) for b in (2, 4, 6, 8, 10)]
    rungs += [("toy-plane", 0, b) for b in (4, 8, 16)]
    items = []
    for datum, p, bound in rungs:
        for kind in ("degree_zero", "boundary"):
            items.append({"kind": kind, "datum": datum, "p": p, "bound": bound})
    items.append({"kind": "degree_zero", "datum": "cA1", "p": 3, "bound": 20})
    items.append({"kind": "boundary", "datum": "cA1", "p": 2, "bound": 16})
    items.sort(key=lambda it: (it["bound"], it["datum"], it["kind"], it["p"]))
    return items


def _cone_over_polygon(poly):
    """Rays and inner facet normals of the cone over poly at height one."""
    rays = [(x, y, 1) for x, y in poly]
    n = len(rays)
    facets = []
    for j in range(n):
        a, b = rays[j], rays[(j + 1) % n]
        normal = primitive2((a[1] * b[2] - a[2] * b[1],
                             a[2] * b[0] - a[0] * b[2],
                             a[0] * b[1] - a[1] * b[0]))
        if any(_dot(normal, x) < 0 for x in rays):
            normal = tuple(-c for c in normal)
        facets.append(normal)
    return rays, facets


def _hilbert_item(r, nverts, lo, hi):
    """hilbert_basis on the dual of the cone over a polygon, at the
    certificate bound: the functional is the sum of the dual cone's rays
    (the polygon's lifted vertices), the bound its total on the facets,
    drawn until it lies in [lo, hi]."""
    while True:
        rays, facets = _cone_over_polygon(random_polygon(r, nverts, -2, 2))
        functional = [sum(x[c] for x in rays) for c in range(3)]
        bound = sum(_dot(functional, f) for f in facets)
        if lo <= bound <= hi:
            return {"kind": "hilbert_basis", "rays": [list(x) for x in rays],
                    "facets": sorted(list(f) for f in facets), "bound": bound}


class OracleSweep:
    name = "oracle-sweep"
    why = ("a fixed ladder of degree-zero and boundary oracles (cA1, "
           "hexagon-a, toy-plane) plus seeded Hilbert bases: bounding-box "
           "lattice-point scans and pair loops dominate")

    def make_items(self, seed):
        r = random.Random("oracle-sweep/%d" % seed)
        ladder = _ladder()
        bases = [_hilbert_item(r, *_HB_STRATA[i % len(_HB_STRATA)])
                 for i in range(_HB_ITEMS)]
        items = []
        for i in range(max(len(ladder), len(bases))):
            items.extend(ladder[i:i + 1] + bases[i:i + 1])
        return items

    def warmup_items(self):
        return [{"kind": "degree_zero", "datum": "toy-plane", "p": 0, "bound": 4}]

    def prepare(self, items, workdir):
        pass

    def _datum(self, td, item):
        if item["datum"] == "cA1":
            return td.presets.ca1_datum(item["p"])
        if item["datum"] == "hexagon-a":
            return td.presets.hexagon_data()[0]
        return td.presets.toy_plane_datum()

    def run(self, env, item):
        td = env.td
        if item["kind"] == "hilbert_basis":
            cone = td.polyhedral.Cone.from_generators(3, item["rays"]).dual()
            hb = td.oracle.hilbert_basis(cone, bound=item["bound"])
            return json.dumps(hb.to_json(), sort_keys=True)
        t = td.datum.build_tilde(self._datum(td, item))
        if item["kind"] == "degree_zero":
            rep = td.oracle.degree_zero_equality_check(t, bound=item["bound"])
        else:
            rep = td.oracle.boundary_equality_check(t, bound=item["bound"])
        out = rep.to_json()
        out["witnesses"] = len(rep.witnesses)
        return json.dumps(out, sort_keys=True)

    def check(self, item, out):
        res = json.loads(out)
        if item["kind"] == "hilbert_basis":
            if not res["complete"]:
                return "Hilbert basis not complete"
            if res["certificate_bound"] != item["bound"]:
                return "certificate bound %d, expected %d" % (
                    res["certificate_bound"], item["bound"])
            missing = [f for f in item["facets"] if f not in res["generators"]]
            if missing:
                return "primitive ray %s missing from the basis" % (missing[0],)
            return None
        if res["failures"]:
            return "%d oracle failures" % len(res["failures"])
        if item["kind"] == "degree_zero" and res["witnesses"] != res["checked"]:
            return "%d witnesses for %d pairs" % (res["witnesses"], res["checked"])
        return None


# ---------------------------------------------------------------------------
# mutation-census: valid (direction, segment factor) pairs on Fano polygons

# Quotas of cases per (vertex count, height range of w over the polygon):
# the height range sets how many slices a case factors and lifts, which
# drives its cost.  The quotas follow the frequencies of all valid cases,
# so every seed gets the same mix; the first cases of each cell are taken.
_MUTATION_QUOTAS = {
    (3, 2): 8, (3, 3): 9, (3, 4): 8, (3, 5): 5, (3, 6): 7, (3, 7): 3,
    (4, 2): 4, (4, 3): 9, (4, 4): 14, (4, 5): 9, (4, 6): 8, (4, 7): 5,
    (5, 3): 2, (5, 4): 6, (5, 5): 2, (5, 7): 1,
}
_P2_P114 = {"polygon": [[1, 0], [0, 1], [-1, -1]], "w": [-1, 2],
            "factor": [2, 1]}


def _is_fano(poly):
    n = len(poly)
    return (n >= 3 and all(math.gcd(*v) == 1 for v in poly)
            and all(_cross(poly[i], poly[(i + 1) % n], (0, 0)) > 0
                    for i in range(n)))


def _slice_points(poly, w, h):
    """Lattice points of poly on the line <w, x> = h."""
    xs, ys = _box(poly)
    return [(x, y) for x in xs for y in ys
            if w[0] * x + w[1] * y == h and _inside(poly, (x, y))]


def _valid_mutation(poly, w, factor):
    """Each negative height carrying a vertex must have a lattice slice of
    length at least |h| times the factor's lattice length."""
    heights = [_dot(w, v) for v in poly]
    if min(heights) >= 0:
        return False
    length = math.gcd(*factor)
    return all(len(_slice_points(poly, w, h)) - 1 >= -h * length
               for h in set(heights) if h < 0)


def _mutant(poly, w, factor):
    """Vertices of the mutation: shrink the negative slices by |h| F and
    grow the others by h F, F = conv{0, factor}."""
    heights = [_dot(w, v) for v in poly]
    pts = []
    for h in range(min(heights), max(heights) + 1):
        sl = _slice_points(poly, w, h)
        if h < 0:
            present = set(sl)
            pts += [x for x in sl
                    if (x[0] - h * factor[0], x[1] - h * factor[1]) in present]
        else:
            pts += sl + [(x[0] + h * factor[0], x[1] + h * factor[1]) for x in sl]
    return sorted(hull2(pts))


def _reflexive(poly):
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        if _cross((0, 0), a, b) != math.gcd(b[0] - a[0], b[1] - a[1]):
            return False
    return True


def _mutation_case(poly, w, factor, r):
    return {"polygon": [list(v) for v in poly], "w": list(w),
            "factor": list(factor),
            "point": [r.randint(1, 3), r.randint(1, 3), -r.randint(1, 3)],
            "mutant": [list(v) for v in _mutant(poly, w, factor)],
            "cartier": _reflexive(poly)}


_DIRECTIONS = [(a, b) for a in range(-3, 4) for b in range(-3, 4)
               if math.gcd(a, b) == 1]


class MutationCensus:
    name = "mutation-census"
    why = ("valid mutations of seeded Fano polygons, stratified by polygon "
           "size: many small hulls in rank 3-4, the only workload for "
           "mutation, projective and cox")

    def make_items(self, seed):
        r = random.Random("mutation-census/%d" % seed)
        p2 = _P2_P114
        items = [_mutation_case([tuple(v) for v in p2["polygon"]], p2["w"],
                                p2["factor"], r)]
        left = dict(_MUTATION_QUOTAS)
        seen = set()
        while any(left.values()):
            poly = hull2([(r.randint(-3, 3), r.randint(-3, 3))
                          for _ in range(r.randint(3, 6))])
            key = tuple(sorted(poly))
            if not _is_fano(poly) or key in seen:
                continue
            seen.add(key)
            for w in _DIRECTIONS:
                heights = [_dot(w, v) for v in poly]
                cell = (min(len(poly), 5), min(max(heights) - min(heights), 7))
                perp = primitive2((-w[1], w[0]))
                m = 1
                while left.get(cell) and _valid_mutation(poly, w, (m * perp[0], m * perp[1])):
                    items.append(_mutation_case(poly, w, (m * perp[0], m * perp[1]), r))
                    left[cell] -= 1
                    m += 1
        return items

    def warmup_items(self):
        return [_mutation_case([tuple(v) for v in _P2_P114["polygon"]],
                               _P2_P114["w"], _P2_P114["factor"],
                               random.Random(0))]

    def prepare(self, items, workdir):
        pass

    def run(self, env, item):
        td = env.td
        mut_mod = td.mutation
        hull = td.polyhedral.convex_hull
        polygon = hull(2, item["polygon"])
        factor = hull(2, [(0, 0), tuple(item["factor"])])
        w = tuple(item["w"])
        fano = mut_mod.validate_fano(polygon)
        md = mut_mod.validate_mutation_datum(fano, w, factor)
        mutant = mut_mod.mutate(fano, md)
        fam = mut_mod.mutation_family(fano, md)
        fibers = [mut_mod.specialize_fiber(fam, point)
                  for point in ((0, 1, -1), (1, 0, -1), tuple(item["point"]))]
        inverse = mut_mod.validate_mutation_datum(
            mutant, tuple(-x for x in w), factor)
        back = mut_mod.mutate(mutant, inverse)
        variety = td.projective.PolarizedToricVariety.from_fano_polytope(polygon)
        divisor = td.projective.classify_divisor(variety)
        return json.dumps({
            "mutant": sorted(list(v) for v in mutant.vertices()),
            "back": sorted(list(v) for v in back.vertices()),
            "rays": [list(x) for x in fam.fan.rays],
            "weights": list(fam.weights()),
            "fibers": [f.to_json() for f in fibers],
            "divisor": str(divisor),
        }, sort_keys=True)

    def check(self, item, out):
        res = json.loads(out)
        original, mutated, generic = res["fibers"]
        if original["kind"] != "original" or original["matched"] is not True:
            return "fiber [0:1:-1] does not match the original binomial"
        if mutated["kind"] != "mutated" or mutated["matched"] is not True:
            return "fiber [1:0:-1] does not match the mutated binomial"
        if generic["kind"] != "generic":
            return "generic fiber reported as %s" % generic["kind"]
        if res["mutant"] != item["mutant"]:
            return "mutant %s, expected %s" % (res["mutant"], item["mutant"])
        if res["back"] != sorted(item["polygon"]):
            return "inverse mutation gives %s" % (res["back"],)
        want = "Cartier" if item["cartier"] else "QCartierZDivisor"
        if res["divisor"] != want:
            return "divisor class %s, expected %s" % (res["divisor"], want)
        return None


WORKLOADS = {wl.name: wl for wl in (DatumPipeline(), OracleSweep(), MutationCensus())}
