"""Outside-in tracing of the package's layers, for the traced pass only.

Tracer.install wraps each layer's public functions on every name the
package binds them to: modules import with ``from .x import y``, so
``toricdeform.oracle.lattice_points`` and ``toricdeform.polyhedral.primitive``
are separate bindings of the same function and both are replaced.  The
canonicalising constructors of Cone and Polyhedron (the "hull" calls) and
the constructors of PolarizedToricVariety are wrapped on their classes.
Tracer.uninstall puts every original back; the passes that give the
end-to-end metrics run with nothing installed.

Each wrapped call is timed; its self time is its duration minus the time
of the wrapped calls it made.  Calls also record a span (name, start, end,
parent span, item), except COUNT_ONLY leaves, which are too frequent to
keep a span each for.  Observers add work counters at the same boundary.
"""

from __future__ import annotations

import gzip
import json
import math
import statistics
import time
from collections import defaultdict

LAYERS = ("lattice", "polyhedral", "datum", "cox", "projective", "mutation",
          "oracle", "workbench")

# Elementwise vector helpers cost less than a wrapper would add; their
# time stays in the self time of whichever wrapped function calls them.
UNWRAPPED = {
    "lattice": {"dot", "vadd", "vsub", "vneg", "vscale", "is_zero",
                "is_integral", "as_int_vector", "content", "fraction_vector",
                "identity_matrix"},
}
COUNT_ONLY = {"lattice.primitive"}
CLASS_METHODS = {
    "polyhedral": {"Cone": ("from_generators", "from_inequalities"),
                   "Polyhedron": ("from_points_and_rays", "from_inequalities")},
    "projective": {"PolarizedToricVariety": ("from_cone", "from_fano_polytope",
                                             "from_support_function")},
}
HULLS = ("polyhedral.Cone.from_generators", "polyhedral.Cone.from_inequalities",
         "polyhedral.Polyhedron.from_points_and_rays",
         "polyhedral.Polyhedron.from_inequalities")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _observe_dd(counters, args, kwargs, result, parent):
    counters["polyhedral.dd.normals_in"] += len(_arg(args, kwargs, 1, "normals"))
    counters["polyhedral.dd.rays_out"] += len(result[0])


def _observe_hull(counters, args, kwargs, result, parent):
    rank = _arg(args, kwargs, 1, "rank")  # args[0] is the class
    counters["polyhedral.hull.max_rank"] = max(counters["polyhedral.hull.max_rank"], rank)


def _observe_minkowski(counters, args, kwargs, result, parent):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    counters["polyhedral.minkowski_sum.points_in"] += len(a.vertices) * len(b.vertices)
    counters["polyhedral.minkowski_sum.vertices_out"] += len(result.vertices)


def _observe_lattice_points(counters, args, kwargs, result, parent):
    p = _arg(args, kwargs, 0, "p")
    if p.vertices:
        box = 1
        for i in range(p.rank):
            coords = [v[i] for v in p.vertices]
            box *= math.ceil(max(coords)) - math.floor(min(coords)) + 1
        counters["polyhedral.lattice_points.box_points"] += box
    counters["polyhedral.lattice_points.hits"] += len(result)
    if parent == "oracle.hilbert_basis":
        counters["oracle.hilbert_basis.candidates"] += len(result)


def _observe_build_tilde(counters, args, kwargs, result, parent):
    counters["datum.tilde_rank_max"] = max(counters["datum.tilde_rank_max"], result.cone.rank)


def _observe_degree_zero(counters, args, kwargs, result, parent):
    counters["oracle.degree_zero.pairs"] += result.checked
    counters["oracle.witnesses"] += len(result.witnesses)


def _observe_boundary(counters, args, kwargs, result, parent):
    counters["oracle.boundary.characters"] += result.checked


def _observe_hilbert(counters, args, kwargs, result, parent):
    counters["oracle.hilbert_basis.generators"] += len(result.generators)


OBSERVERS = {
    "polyhedral.dual_description": _observe_dd,
    "polyhedral.minkowski_sum": _observe_minkowski,
    "polyhedral.lattice_points": _observe_lattice_points,
    "datum.build_tilde": _observe_build_tilde,
    "oracle.degree_zero_equality_check": _observe_degree_zero,
    "oracle.boundary_equality_check": _observe_boundary,
    "oracle.hilbert_basis": _observe_hilbert,
}
OBSERVERS.update({key: _observe_hull for key in HULLS})


class Tracer:
    """Call counts, self times, counters and spans of one traced pass."""

    def __init__(self):
        self.calls = {}
        self.self_ns = {}
        self.counters = defaultdict(int)
        self.spans = []
        self.names = ["item"]
        self._stack = []
        self._item = [None, None]  # (item index, its span index)
        self._item_start = 0
        self._restore = []

    def reset(self):
        """Forget everything recorded; wrappers stay installed."""
        for key in self.calls:
            self.calls[key] = 0
            self.self_ns[key] = 0
        self.counters.clear()
        self.spans.clear()
        self._stack.clear()

    def count(self, key, n):
        self.counters[key] += n

    # -- items (the root span of each request)

    def begin_item(self, index):
        self._item[0] = index
        self._item[1] = len(self.spans)
        self.spans.append(None)
        self._item_start = time.perf_counter_ns()

    def end_item(self):
        end = time.perf_counter_ns()
        self.spans[self._item[1]] = (0, self._item_start, end, None, self._item[0])
        self._item[1] = None

    # -- wrapping

    def _wrap(self, key, fn):
        calls, self_ns, counters = self.calls, self.self_ns, self.counters
        spans, stack, item = self.spans, self._stack, self._item
        calls[key] = 0
        self_ns[key] = 0
        observe = OBSERVERS.get(key)
        record_span = key not in COUNT_ONLY
        name_id = len(self.names)
        self.names.append(key)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else item[1]
            if record_span:
                idx = len(spans)
                spans.append(None)
            else:
                idx = parent
            frame = [0, idx, key]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[key] += duration - frame[0]
                calls[key] += 1
                if stack:
                    stack[-1][0] += duration
                if record_span:
                    spans[idx] = (name_id, start, end, parent, item[0])
            if observe is not None:
                observe(counters, args, kwargs, result, stack[-1][2] if stack else None)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def install(self, td):
        """Wrap the layers of the package namespace td (see run.load_package)."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = getattr(td, layer)
            skip = UNWRAPPED.get(layer, set())
            for name, value in list(vars(module).items()):
                if (callable(value) and not isinstance(value, type)
                        and getattr(value, "__module__", None) == module.__name__
                        and not name.startswith("_") and name not in skip):
                    wrapped[id(value)] = (value, self._wrap("%s.%s" % (layer, name), value))
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    descriptor = vars(cls)[method]
                    wrapper = self._wrap("%s.%s.%s" % (layer, cls_name, method),
                                         descriptor.__func__)
                    setattr(cls, method, classmethod(wrapper))
                    self._restore.append((cls, method, descriptor))
        for module in td.all_modules:
            for name, value in list(vars(module).items()):
                entry = wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])
                    self._restore.append((module, name, value))

    def uninstall(self):
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    # -- results

    def work_counters(self):
        """Everything that must repeat exactly between passes."""
        out = {"calls." + k: v for k, v in self.calls.items()}
        out.update(sorted(self.counters.items()))
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_ns", "end_ns", "parent", "item"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _layer_of(key):
    return key.split(".", 1)[0]


def layer_metrics(tracer, items):
    """Per-layer metrics of the last traced pass over `items` items."""
    calls, self_ns, counters = tracer.calls, tracer.self_ns, tracer.counters

    def self_s(*keys):
        return sum(self_ns.get(k, 0) for k in keys) / 1e9

    def layer_calls(layer):
        return sum(v for k, v in calls.items() if _layer_of(k) == layer)

    def layer_self(layer):
        return self_s(*[k for k in self_ns if _layer_of(k) == layer])

    hull_calls = sum(calls[k] for k in HULLS)
    box = counters["polyhedral.lattice_points.box_points"]
    return {
        "lattice.calls": layer_calls("lattice"),
        "lattice.self_s": layer_self("lattice"),
        "lattice.primitive.calls": calls["lattice.primitive"],
        "lattice.matrix_rank.calls": calls["lattice.matrix_rank"],
        "lattice.saturate_rowspan.calls": calls["lattice.saturate_rowspan"],
        "lattice.smith_normal_form.calls": calls["lattice.smith_normal_form"],
        "polyhedral.self_s": layer_self("polyhedral"),
        "polyhedral.hull.calls": hull_calls,
        "polyhedral.hull.self_s": self_s(*HULLS),
        "polyhedral.hull.max_rank": counters["polyhedral.hull.max_rank"],
        "polyhedral.dd.calls": calls["polyhedral.dual_description"],
        "polyhedral.dd.normals_in": counters["polyhedral.dd.normals_in"],
        "polyhedral.dd.rays_out": counters["polyhedral.dd.rays_out"],
        "polyhedral.dd.per_hull": (calls["polyhedral.dual_description"] / hull_calls
                                   if hull_calls else 0.0),
        "polyhedral.minkowski_sum.calls": calls["polyhedral.minkowski_sum"],
        "polyhedral.minkowski_sum.self_s": self_s("polyhedral.minkowski_sum"),
        "polyhedral.minkowski_sum.points_in": counters["polyhedral.minkowski_sum.points_in"],
        "polyhedral.minkowski_sum.vertices_out": counters["polyhedral.minkowski_sum.vertices_out"],
        "polyhedral.lattice_points.calls": calls["polyhedral.lattice_points"],
        "polyhedral.lattice_points.self_s": self_s("polyhedral.lattice_points"),
        "polyhedral.lattice_points.box_points": box,
        "polyhedral.lattice_points.hits": counters["polyhedral.lattice_points.hits"],
        "polyhedral.lattice_points.hit_ratio": (
            counters["polyhedral.lattice_points.hits"] / box if box else 0.0),
        "datum.build_datum.self_s": self_s("datum.build_datum"),
        "datum.validate_datum.calls": calls["datum.validate_datum"],
        "datum.validate_datum.self_s": self_s("datum.validate_datum"),
        "datum.build_tilde.self_s": self_s("datum.build_tilde"),
        "datum.check_tilde_structure.self_s": self_s("datum.check_tilde_structure"),
        "datum.tilde_rank_max": counters["datum.tilde_rank_max"],
        "cox.calls": layer_calls("cox"),
        "cox.self_s": layer_self("cox"),
        "projective.calls": layer_calls("projective"),
        "projective.self_s": layer_self("projective"),
        "mutation.validate_mutation_datum.self_s": self_s("mutation.validate_mutation_datum"),
        "mutation.mutate.self_s": self_s("mutation.mutate"),
        "mutation.mutation_family.calls": calls["mutation.mutation_family"],
        "mutation.mutation_family.self_s": self_s("mutation.mutation_family"),
        "mutation.specialize_fiber.self_s": self_s("mutation.specialize_fiber"),
        "mutation.family_per_item": calls["mutation.mutation_family"] / items,
        "oracle.degree_zero.self_s": self_s("oracle.degree_zero_equality_check"),
        "oracle.degree_zero.pairs": counters["oracle.degree_zero.pairs"],
        "oracle.boundary.self_s": self_s("oracle.boundary_equality_check"),
        "oracle.boundary.characters": counters["oracle.boundary.characters"],
        "oracle.hilbert_basis.self_s": self_s("oracle.hilbert_basis"),
        "oracle.hilbert_basis.candidates": counters["oracle.hilbert_basis.candidates"],
        "oracle.hilbert_basis.generators": counters["oracle.hilbert_basis.generators"],
        "oracle.witnesses": counters["oracle.witnesses"],
        "workbench.main.calls": calls["workbench.main"],
        "workbench.main.self_s": self_s("workbench.main"),
        "workbench.output_bytes": counters["workbench.output_bytes"],
        "trace.spans": len(tracer.spans),
    }


def median_metrics(per_pass):
    """Times as the median over passes; counts from the last pass (they
    repeat exactly, which the caller checks)."""
    out = dict(per_pass[-1])
    for key in out:
        if key.endswith("self_s"):
            out[key] = statistics.median(m[key] for m in per_pass)
    return out
