"""Command-line workbench: JSON payloads in, deterministic reports out.

Payloads are UTF-8 JSON files; preset names from presets.PRESETS stand
in for files for the shipped examples, and a file at the path wins.

Exit codes, mapped in main alone: 0 success; 2 an InputError (a payload
a library reader rejects with ValueError, an unknown preset, a bad flag
or parameter point), with one "error:" line on stderr; 1 a
DatumValidationError, whose report is printed, or any other ValueError
on a well-formed payload, whose message is printed.  A printed report
that reads as a failure also exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache, partial

from .cox import (
    AliasTable,
    binomials,
    boundary_monomial,
    is_degenerate_monomial,
    pretty,
    trinomials,
)
from .datum import (
    DatumValidationError,
    _fmt_point,
    build_tilde,
    check_tilde_structure,
    datum_from_json,
    require_valid,
    validate_datum,
)
from .lattice import as_int_vector, vector_from_json
from .mutation import (
    mutate,
    mutation_family,
    normalize_parameter_point,
    specialize_fiber,
    validate_fano,
    validate_mutation_datum,
)
from .oracle import (
    boundary_equality_check,
    degree_zero_equality_check,
    hilbert_basis,
)
from . import presets
from .polyhedral import Cone, Fan, Polyhedron, _json_fields
from .projective import (
    PolarizedToricVariety,
    classify_divisor,
    cox_comparison,
    polytope_in_M,
)


class InputError(Exception):
    """Malformed payload; maps to exit code 2."""


# ---------------------------------------------------------------------------
# payload files; the library's from_json readers parse their contents


def _load_file(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e.strerror or e))
    except ValueError as e:  # undecodable bytes or malformed JSON
        raise InputError("invalid JSON in %s: %s" % (path, e))


def _mutation_payload(obj):
    _json_fields(obj, "mutation", ("polytope", "w", "factor"))
    p = Polyhedron.from_json(obj["polytope"])
    w = as_int_vector(vector_from_json(obj["w"], "w"))
    f = Polyhedron.from_json(obj["factor"])
    if len(w) != p.rank:
        raise ValueError("w has length %d, expected %d" % (len(w), p.rank))
    if f.rank != p.rank:
        raise ValueError("factor has rank %d, polytope has rank %d"
                         % (f.rank, p.rank))
    return p, w, f


def _polarize_payload(obj):
    """The variety's constructor on the parsed input, not yet called."""
    _json_fields(obj, "polarize", ())
    if "tau" in obj:
        return partial(PolarizedToricVariety.from_cone,
                       Cone.from_json(obj["tau"]))
    if "polytope" in obj:
        return partial(PolarizedToricVariety.from_fano_polytope,
                       Polyhedron.from_json(obj["polytope"]))
    if "fan" in obj and "phi" in obj:
        fan = Fan.from_json(obj["fan"])
        phi = vector_from_json(obj["phi"], "phi")
        if len(phi) != len(fan.rays):
            raise ValueError("phi needs one value per fan ray")
        return partial(PolarizedToricVariety.from_support_function, fan, phi)
    raise ValueError(
        "polarize payload needs \"tau\", \"polytope\", or \"fan\"+\"phi\"")


_READERS = {"datum": datum_from_json, "cone": Cone.from_json,
            "polarize": _polarize_payload, "mutation": _mutation_payload}


def _resolve(args, kind):
    """The payload of this kind and its shipped alias table (None for a
    file).  The argument is a file if one exists at that path, else a
    preset name.  A file the reader rejects is malformed input."""
    if os.path.exists(args.input):
        data = _load_file(args.input)
        try:
            return _READERS[kind](data), None
        except ValueError as e:
            raise InputError(str(e))
    found = presets.preset(kind, args.input,
                           *((args.p,) if "p" in args else ()))
    if found is None:
        raise InputError("no such file or preset: %s" % args.input)
    return found


# ---------------------------------------------------------------------------
# output helpers


def _emit_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _alias_for(args, rays, shipped):
    """The --alias table if given, else the shipped one, else x0, x1, ..."""
    if args.alias:
        data = _load_file(args.alias)
        try:
            return AliasTable.from_json(data, rays)
        except (KeyError, TypeError, ValueError) as e:
            raise InputError("bad alias table: %s" % e)
    if shipped is not None:
        return shipped(rays)
    return AliasTable.default(rays)


# ---------------------------------------------------------------------------
# commands


def _cmd_validate_datum(args):
    d, _ = _resolve(args, "datum")
    rep = validate_datum(d)
    if args.format == "json":
        out = _emit_json(rep.to_json())
    else:
        out = str(rep)
    return (0 if rep.ok else 1), out


def _cmd_tilde(args):
    d, _ = _resolve(args, "datum")
    require_valid(d)
    t = build_tilde(d)
    struct = check_tilde_structure(t)
    if args.format == "json":
        out = _emit_json({"tilde": t.to_json(),
                          "structure": struct.to_json()})
    else:
        lines = ["rays:"]
        for r, prov in zip(t.rays, t.provenance):
            lines.append("  %s  <- %s" % (_fmt_point(r), "; ".join(prov)))
        lines.append("w_tilde: %s" % _fmt_point(t.w_tilde))
        lines.append("pairing matrix (rows e_i*):")
        for row in t.pairings.matrix:
            lines.append("  " + " ".join("%3d" % x for x in row))
        lines.append("structure: %s"
                     % ("ok" if struct.ok else struct.detail))
        out = "\n".join(lines)
    return (0 if struct.ok else 1), out


def _cmd_equations(args):
    d, shipped = _resolve(args, "datum")
    require_valid(d)
    t = build_tilde(d)
    bs = binomials(t)
    ts = trinomials(t)
    mono = boundary_monomial(t) if d.boundary else None
    if args.format == "json":
        out = _emit_json({
            "rays": [list(r) for r in t.rays],
            "binomials": [f.to_json() for f in bs],
            "trinomials": [f.to_json() for f in ts],
            "boundary_monomial": mono.to_json() if mono else None,
        })
    else:
        alias = _alias_for(args, t.rays, shipped)
        lines = []
        for i, f in enumerate(ts, start=1):
            lines.append("trinomial %d: %s" % (i, pretty(f, t.rays, alias)))
        for i, f in enumerate(bs, start=1):
            lines.append("binomial %d: %s" % (i, pretty(f, t.rays, alias)))
        if mono is not None:
            text = pretty(mono, t.rays, alias)
            if is_degenerate_monomial(mono):
                text += "  (degenerate: empty support)"
            lines.append("boundary monomial: %s" % text)
        out = "\n".join(lines)
    return 0, out


def _cmd_polarize(args):
    build, _ = _resolve(args, "polarize")
    v = build()
    pm = polytope_in_M(v)
    cls = classify_divisor(v)
    if args.format == "json":
        out = _emit_json({
            "tau": v.tau.to_json(),
            "fan_rays": [list(r) for r in v.fan.rays],
            "phi": [str(x) for x in v.phi_values],
            "classification": str(cls),
            "cox_exponents": list(cox_comparison(v)),
            "polytope_in_M": pm.to_json(),
        })
    else:
        lines = ["fan rays and support values:"]
        for rd in v.ray_data:
            lines.append("  rho=%s  phi=%s  b=%d"
                         % (_fmt_point(rd.rho), rd.phi, rd.b))
        lines.append("classification: %s" % cls)
        lines.append("polytope in M: vertices %s"
                     % " ".join(_fmt_point(x) for x in pm.vertices))
        out = "\n".join(lines)
    return 0, out


def _fano_and_datum(args):
    (p, w, f), shipped = _resolve(args, "mutation")
    fano = validate_fano(p)
    return fano, validate_mutation_datum(fano, w, f), shipped


def _cmd_mutate(args):
    fano, d, _ = _fano_and_datum(args)
    mut = mutate(fano, d)
    if args.format == "json":
        out = _emit_json({
            "vertices": [list(v) for v in mut.vertices()],
            "witnesses": [
                {"height": layer.height,
                 "factor_vertices":
                     [[str(Fraction(x)) for x in v]
                      for v in layer.factor_part.vertices]}
                for layer in d.witnesses],
        })
    else:
        lines = ["mutated polytope: conv{%s}"
                 % ", ".join(_fmt_point(v) for v in sorted(mut.vertices()))]
        for layer in d.witnesses:
            lines.append("  height %d: conv{%s}" % (
                layer.height,
                ", ".join(_fmt_point(v) for v in layer.factor_part.vertices)))
        out = "\n".join(lines)
    return 0, out


def _cmd_family(args):
    fano, d, shipped = _fano_and_datum(args)
    fam = mutation_family(fano, d)
    if args.format == "json":
        out = _emit_json({
            "rays": [list(r) for r in fam.fan.rays],
            "weights": list(fam.weights()),
            "trinomial": fam.trinomial.to_json(),
            "monomial": fam.monomial.to_json(),
            "mutated_vertices": [list(v) for v in fam.mutated.vertices()],
            "q_tilde_vertices": [[str(Fraction(x)) for x in v]
                                 for v in fam.q_tilde.vertices],
        })
    else:
        alias = _alias_for(args, fam.fan.rays, shipped)
        lines = []
        lines.append("ambient rays: %s"
                     % " ".join(_fmt_point(r) for r in fam.fan.rays))
        lines.append("weights: %s" % _fmt_point(fam.weights()))
        lines.append("trinomial: %s"
                     % pretty(fam.trinomial, fam.fan.rays, alias))
        lines.append("monomial: %s"
                     % pretty(fam.monomial, fam.fan.rays, alias))
        lines.append("mutated polytope: conv{%s}"
                     % ", ".join(_fmt_point(v)
                                 for v in sorted(fam.mutated.vertices())))
        out = "\n".join(lines)
    return 0, out


def _parse_point(text: str) -> tuple:
    """The normalized homogeneous point a:b:c."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError("parameter point must look like a:b:c")
    try:
        point = tuple(Fraction(x) for x in parts)
    except (ValueError, ZeroDivisionError):
        raise InputError("bad parameter point %r" % text)
    try:
        return normalize_parameter_point(point)
    except ValueError as e:  # all zero
        raise InputError(str(e))


def _cmd_fiber(args):
    fano, d, shipped = _fano_and_datum(args)
    fam = mutation_family(fano, d)
    rep = specialize_fiber(fam, _parse_point(args.point))
    if args.format == "json":
        out = _emit_json(rep.to_json())
    else:
        alias = _alias_for(args, fam.fan.rays, shipped)
        lines = ["fiber at [%s] (%s): %s"
                 % (":".join(str(x) for x in rep.point), rep.kind,
                    pretty(rep.polynomial, fam.fan.rays, alias))]
        lines.append("monomial: %s"
                     % pretty(rep.monomial, fam.fan.rays, alias))
        if rep.matched is not None:
            lines.append("matched reference binomial: %s" % rep.matched)
        out = "\n".join(lines)
    code = 0 if rep.matched is not False else 1
    return code, out


def _cmd_hilbert_basis(args):
    c, _ = _resolve(args, "cone")
    hb = hilbert_basis(c, bound=args.bound)
    if args.format == "json":
        out = _emit_json(hb.to_json())
    else:
        lines = ["generators: %s"
                 % " ".join(_fmt_point(g) for g in hb.generators)]
        lines.append("complete: %s (bound %d, certificate needs %d)"
                     % (hb.complete, hb.bound, hb.certificate_bound))
        out = "\n".join(lines)
    return (0 if hb.complete else 1), out


def _cmd_oracle(args):
    d, _ = _resolve(args, "datum")
    require_valid(d)
    t = build_tilde(d)
    rep0 = degree_zero_equality_check(t, bound=args.bound)
    repb = boundary_equality_check(t, bound=args.bound) if d.boundary \
        else None
    ok = rep0.ok and (repb is None or repb.ok)
    if args.format == "json":
        payload = {"degree_zero": rep0.to_json()}
        if repb is not None:
            payload["boundary"] = repb.to_json()
        out = _emit_json(payload)
    else:
        lines = ["degree-zero check: %d pairs, %d failures"
                 % (rep0.checked, len(rep0.failures))]
        if repb is not None:
            lines.append("boundary check: %d characters, %d failures"
                         % (repb.checked, len(repb.failures)))
        out = "\n".join(lines)
    return (0 if ok else 1), out


def _cmd_verify_example(args):
    found = presets.preset("example", args.name, args.p)
    if found is None:
        raise InputError("unknown example %r; have %s"
                         % (args.name, ", ".join(presets.PRESET_NAMES)))
    rep, _ = found
    if args.format == "json":
        out = _emit_json(rep.to_json())
    else:
        out = "\n".join(rep.lines())
    return (0 if rep.ok else 1), out


_COMMANDS = {
    "validate-datum": (_cmd_validate_datum,
                       "check the six datum conditions, report each"),
    "tilde": (_cmd_tilde, "build the enlarged cone and check its shape"),
    "equations": (_cmd_equations,
                  "binomials, trinomials, boundary monomial"),
    "polarize": (_cmd_polarize,
                 "polarized projective data from a cone or polytope"),
    "mutate": (_cmd_mutate, "mutate a Fano polytope"),
    "family": (_cmd_family, "the one-parameter pencil of a mutation"),
    "fiber": (_cmd_fiber, "specialize the pencil at a parameter point"),
    "hilbert-basis": (_cmd_hilbert_basis,
                      "irreducible semigroup generators of a cone"),
    "oracle": (_cmd_oracle, "bounded brute-force ideal equality checks"),
    "verify-example": (_cmd_verify_example,
                       "run a shipped example against its goldens"),
}


# the flags beyond --format and fiber's --point, with the commands that
# read them
_FLAGS = {
    "--bound": (dict(type=int, default=12,
                     help="degree bound for enumerations"),
                ("hilbert-basis", "oracle")),
    "--p": (dict(type=int, default=3, help="exponent for the cA1 preset"),
            ("validate-datum", "tilde", "equations", "oracle",
             "verify-example")),
    "--alias": (dict(help="JSON file with variable names per ray"),
                ("equations", "family", "fiber")),
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricdeform",
        description="exact toric deformation workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        # no prefix matching: fiber's --p would otherwise read as --point
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if name == "verify-example":
            sp.add_argument("name",
                            help="one of: %s" % ", ".join(
                                presets.PRESET_NAMES))
        else:
            sp.add_argument("input", help="JSON payload file or preset name")
        if name == "fiber":
            sp.add_argument("--point", required=True,
                            help="homogeneous parameter point a:b:c")
        sp.add_argument("--format", choices=("json", "pretty"),
                        default="pretty", help="output format")
        for flag, (spec, users) in _FLAGS.items():
            if name in users:
                sp.add_argument(flag, **spec)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, _ = _COMMANDS[args.command]
    try:
        for flag in ("p", "bound"):
            if getattr(args, flag, 0) < 0:
                raise InputError("--%s must be non-negative" % flag)
        code, out = handler(args)
    except InputError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except DatumValidationError as e:
        print(e.report)
        return 1
    except ValueError as e:
        print(e)
        return 1
    if out:
        print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
