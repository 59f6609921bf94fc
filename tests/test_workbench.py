"""End-to-end runs of the command-line workbench through main()."""

import argparse
import json
import marshal
import pathlib

import pytest

from toricdeform import presets, workbench
from toricdeform.presets import toy_plane_datum


def run(capsys, *argv):
    code = workbench.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# condition (ii) fails: both summands contain the origin
BAD_DATUM = {
    "sigma": {"rays": [[1, 0], [0, 1]]},
    "summands": [[[0, 0], [1, 0]], [[0, 0], [0, 1]]],
    "w": [0, -1],
}

MUT_PAYLOAD = {
    "polytope": [[1, 0], [0, 1], [-1, -1]],
    "w": [-1, 2],
    "factor": [[0, 0], [2, 1]],
}


# ------------------------------------------------------------ exit codes


def test_validate_preset_passes(capsys):
    code, out, _ = run(capsys, "validate-datum", "cA1")
    assert code == 0
    assert "pass (vi)" in out and "FAIL" not in out


def test_validate_bad_datum_fails(capsys, tmp_path):
    path = write_json(tmp_path, "bad.json", BAD_DATUM)
    code, out, _ = run(capsys, "validate-datum", path)
    assert code == 1
    assert "FAIL (ii)" in out


def test_garbage_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "validate-datum", str(path))
    assert code == 2
    assert "error:" in err


def test_undecodable_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"w": "\xe9"}')
    code, out, err = run(capsys, "validate-datum", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: invalid JSON") and err.count("\n") == 1


def run_rejected_by_parser(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        workbench.main(list(argv))
    cap = capsys.readouterr()
    return exc.value.code, cap.out, cap.err


# the flags each command reads beyond --format (and fiber's --point)
DECLARED = {
    "--p": {"validate-datum", "tilde", "equations", "oracle", "verify-example"},
    "--bound": {"hilbert-basis", "oracle"},
    "--alias": {"equations", "family", "fiber"},
}


def command_argv(command):
    argv = [command, "cA1" if command == "verify-example" else "p2-p114"]
    if command == "fiber":
        argv += ["--point", "1:1:1"]
    return argv


@pytest.mark.parametrize("flag", ["--p", "--bound"])
@pytest.mark.parametrize("command", sorted(workbench._COMMANDS))
def test_negative_flag_is_usage_error(capsys, command, flag):
    # main rejects a negative value of a declared flag; a command that
    # does not declare the flag rejects it in the parser
    argv = command_argv(command) + [flag, "-1"]
    if command in DECLARED[flag]:
        code, out, err = run(capsys, *argv)
        assert err == "error: %s must be non-negative\n" % flag
    else:
        code, out, err = run_rejected_by_parser(capsys, *argv)
        assert "unrecognized arguments: %s -1" % flag in err
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value)
    for flag, value in (("--p", "7"), ("--bound", "3"), ("--alias", "x.json"))
    for command in sorted(workbench._COMMANDS)
    if command not in DECLARED[flag]])
def test_undeclared_flag_is_usage_error(capsys, command, flag, value):
    code, out, err = run_rejected_by_parser(
        capsys, *command_argv(command), flag, value)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: %s %s" % (flag, value) in err


@pytest.mark.parametrize("command, flag", [
    (command, flag) for flag, users in DECLARED.items() for command in users])
def test_declared_flag_is_read(command, flag):
    args = workbench._build_parser().parse_args(command_argv(command) + [flag, "5"])
    assert getattr(args, flag[2:]) == (5 if flag != "--alias" else "5")


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    workbench._build_parser.cache_clear()
    for _ in range(2):
        assert run(capsys, "validate-datum", "cA1")[0] == 0
    assert built.count("toricdeform") == 1
    assert len(built) == 1 + len(workbench._COMMANDS)


P2_FAN = {"rays": [[1, 0], [0, 1], [-1, -1]],
          "maximal_cones": [[0, 1], [1, 2], [0, 2]]}
POLYGON_WITH_RAYS_7 = {"vertices": [[1, 0], [0, 1], [-1, -1]], "rays": 7}


@pytest.mark.parametrize("command, payload", [
    ("validate-datum", dict(BAD_DATUM, boundary="no")),
    ("validate-datum", dict(BAD_DATUM, boundary=1)),
    ("validate-datum", dict(BAD_DATUM, summands=5)),
    ("validate-datum", dict(BAD_DATUM, summands=[POLYGON_WITH_RAYS_7])),
    ("validate-datum",
     dict(BAD_DATUM, sigma={"rays": [[1, 0], [0, 1]], "rank": "x"})),
    ("mutate", dict(MUT_PAYLOAD, polytope=POLYGON_WITH_RAYS_7)),
    ("hilbert-basis", {"rays": [[1, 0], [1, 2]], "rank": "x"}),
    ("validate-datum", dict(BAD_DATUM, w=[0.5, -0.5])),
    ("polarize", {"fan": dict(P2_FAN, rank="x"), "phi": [-1, -1, -1]}),
    ("polarize", {"fan": dict(P2_FAN, maximal_cones=[[0, "a"]]),
                  "phi": [-1, -1, -1]}),
    ("polarize", {"fan": dict(P2_FAN, maximal_cones=[[0, 1], [1, -1],
                                                     [0, 2]]),
                  "phi": [-1, -1, -1]}),
    ("polarize", {"fan": dict(P2_FAN, maximal_cones=[[0, 1], [1, 3],
                                                     [0, 2]]),
                  "phi": [-1, -1, -1]}),
    ("polarize", {"fan": dict(P2_FAN, rays=[]), "phi": [-1, -1, -1]}),
    ("polarize", {"fan": dict(P2_FAN, rays=[[1, 0], [0, 1], [-1, -1, 0]]),
                  "phi": [-1, -1, -1]}),
    ("polarize", {"fan": P2_FAN, "phi": [-1, -1]}),
    ("hilbert-basis", {"rays": [[[2.5, 1], 0], [1, 2]]}),
    ("polarize", {"polytope": [[[1.5, 1], 0], [0, 1], [-1, -1]]}),
    ("mutate", dict(MUT_PAYLOAD, polytope=[[[1.5, 1], 0], [0, 1], [-1, -1]])),
    ("mutate", dict(MUT_PAYLOAD, polytope={
        "vertices": [[1, 0], [0, 1], [-1, -1]], "rays": [[0, 0]]})),
    ("validate-datum", dict(BAD_DATUM, summands=[
        {"vertices": [[0, 1]], "rays": [[0, 0]]}, [[1, 0]]])),
    ("mutate", dict(MUT_PAYLOAD, w=[1])),
    ("mutate", dict(MUT_PAYLOAD, factor=[[0, 0, 0], [1, 1, 1]])),
    ("polarize", {"fan": dict(P2_FAN, rays=[[1, 0], [0, 1], [0, 0]]),
                  "phi": [-1, -1, -1]}),
    ("polarize", {"fan": dict(P2_FAN, rays=[[1, 0], [0, 1], [-2, -2]]),
                  "phi": [-1, -1, -1]}),
    ("polarize", {"fan": dict(P2_FAN, rays=[[1, 0], [0, 1], [1, 0]]),
                  "phi": [-1, -1, -1]}),
])
def test_malformed_payload_is_usage_error(capsys, tmp_path, command,
                                          payload):
    path = write_json(tmp_path, "payload.json", payload)
    code, out, err = run(capsys, command, path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


UNCOVERED_MUTATION = dict(MUT_PAYLOAD, factor=[[0, 0], [4, 2]])


@pytest.mark.parametrize("argv, payload, code, report", [
    (["family"], {"polytope": [[1, 0]]}, 2, None),
    (["fiber", "--point", "1:1:1"], dict(MUT_PAYLOAD, w="x"), 2, None),
    (["oracle"], dict(BAD_DATUM, summands=5), 2, None),
    (["family"], UNCOVERED_MUTATION, 1, "uncovered vertex"),
    (["fiber", "--point", "1:1:1"], UNCOVERED_MUTATION, 1, "uncovered vertex"),
    (["oracle"], BAD_DATUM, 1, "FAIL (ii)"),
    (["fiber", "--point", "0:0:0"], None, 2, None),
])
def test_file_payload_exit_codes(capsys, tmp_path, argv, payload, code,
                                 report):
    source = ("p2-p114" if payload is None
              else write_json(tmp_path, "payload.json", payload))
    got, out, err = run(capsys, argv[0], source, *argv[1:])
    assert got == code
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert report in out and err == ""


# "Q" is (2, 2), the summands sum to (0, 1): condition (iii) can only fail
# here, on the way in, since a datum computes its own Q
WRONG_TOTAL = {"sigma": {"rays": [[1, 0], [0, 1]]},
               "summands": [[[0, 1]], [[0, 0]]], "w": [0, -1],
               "boundary": True, "Q": [[2, 2]]}


@pytest.mark.parametrize("command",
                         ["validate-datum", "tilde", "equations", "oracle"])
def test_wrong_total_is_usage_error(capsys, tmp_path, command):
    path = write_json(tmp_path, "payload.json", WRONG_TOTAL)
    code, out, err = run(capsys, command, path)
    assert (code, out) == (2, "")
    assert err == "error: supplied total polyhedron != sum of summands\n"


NON_LATTICE_TRIANGLE = [[[1, 2], 0], [0, 1], [-1, -1]]


@pytest.mark.parametrize("command, payload, vertex", [
    ("polarize", {"polytope": NON_LATTICE_TRIANGLE}, "(1/2, 0)"),
    ("mutate", dict(MUT_PAYLOAD, polytope=NON_LATTICE_TRIANGLE), "(1/2, 0)"),
    ("polarize", {"polytope": [[2, 0], [0, 1], [-1, -1]]}, "(2, 0)"),
])
def test_non_primitive_vertex_is_named(capsys, tmp_path, command, payload,
                                       vertex):
    path = write_json(tmp_path, "payload.json", payload)
    code, out, _ = run(capsys, command, path)
    assert code == 1
    assert out == "NonPrimitiveVertex: %s\n" % vertex


def test_validate_reads_summand_lines(capsys, tmp_path):
    payload = toy_plane_datum().to_json()
    payload["summands"][0].update(rank=2, lines=[[1, 0]])
    path = write_json(tmp_path, "lines.json", payload)
    code, out, _ = run(capsys, "validate-datum", path)
    assert code == 1
    assert "FAIL (i)" in out


def test_boundary_condition_reads_lattice_faces(capsys, tmp_path):
    # Q1 = (1, 0) + R(1, 1) is a lattice polyhedron, whose representative
    # vertex (1/2, -1/2) is not a lattice point; other conditions fail
    payload = {"sigma": {"rays": [[1, 0], [0, 1]]},
               "summands": [[[0, 1]], {"vertices": [[1, 0]], "lines": [[1, 1]]}],
               "w": [0, -1], "boundary": True}
    path = write_json(tmp_path, "lines.json", payload)
    code, out, _ = run(capsys, "validate-datum", path)
    assert code == 1
    assert "pass (iv):" in out and "FAIL" in out
    payload["summands"][1]["vertices"] = [["1/2", 0]]
    path = write_json(tmp_path, "half.json", payload)
    code, out, _ = run(capsys, "validate-datum", path)
    assert "FAIL (iv): summands 1..k are lattice polyhedra " \
        "[witness: summand 1 has non-lattice vertex]" in out


def test_datum_file_agrees_with_preset(capsys, tmp_path):
    for name in ("cA1", "toy-plane", "hexagon-a", "hexagon-b", "p2-p114"):
        path = write_json(tmp_path, name + ".json",
                          presets.preset("datum", name)[0].to_json())
        for command in ("validate-datum", "tilde", "equations"):
            by_file = run(capsys, command, path, "--format", "json")
            by_name = run(capsys, command, name, "--format", "json")
            assert by_file[:2] == by_name[:2], (name, command)


def test_unknown_preset_is_usage_error(capsys):
    code, _, err = run(capsys, "tilde", "no-such-thing")
    assert code == 2
    assert "no such file or preset" in err


# ------------------------------------------------------------ determinism


def test_json_output_is_deterministic(capsys):
    first = run(capsys, "tilde", "cA1", "--format", "json")
    second = run(capsys, "tilde", "cA1", "--format", "json")
    assert first == second
    data = json.loads(first[1])
    assert data["structure"]["ok"] is True
    assert len(data["tilde"]["rays"]) == 4


def test_oracle_json_deterministic(capsys):
    a = run(capsys, "oracle", "toy-plane", "--bound", "4",
            "--format", "json")
    b = run(capsys, "oracle", "toy-plane", "--bound", "4",
            "--format", "json")
    assert a == b and a[0] == 0


# ------------------------------------------------------------ equations


def test_equations_shipped_alias(capsys):
    code, out, _ = run(capsys, "equations", "cA1", "--p", "3")
    assert code == 0
    assert "trinomial 1: x*y - u^2 - t1*z^3" in out
    assert "binomial 1: x*y - u^2" in out
    assert "boundary monomial: z*u" in out


def test_equations_p_flag(capsys):
    _, out, _ = run(capsys, "equations", "cA1", "--p", "5")
    assert "x*y - u^2 - t1*z^5" in out


def test_equations_alias_file(capsys, tmp_path):
    table = {"aliases": [{"ray": [0, 0, 0, 1], "name": "A"},
                         {"ray": [1, 0, 0, 1], "name": "B"}]}
    path = write_json(tmp_path, "alias.json", table)
    code, out, _ = run(capsys, "equations", "cA1", "--alias", path)
    assert code == 0
    assert "A*B - x0^2 - t1*x2^3" in out


def test_bad_alias_file(capsys, tmp_path):
    path = write_json(tmp_path, "alias.json",
                      {"aliases": [{"ray": [9, 9, 9, 9], "name": "A"}]})
    code, _, err = run(capsys, "equations", "cA1", "--alias", path)
    assert code == 2
    assert "bad alias table" in err


@pytest.mark.parametrize("aliases, message", [
    ([{"ray": [1, 0, 0, 1], "name": "x0"}],
     "error: bad alias table: name 'x0' is given to two rays\n"),
    ([{"ray": [1, 0, 0, 1], "name": "A"}, {"ray": [1, 0, 0, 1], "name": "B"}],
     "error: bad alias table: ray (1, 0, 0, 1) is aliased twice\n"),
])
def test_ambiguous_alias_table_is_usage_error(capsys, tmp_path, aliases,
                                              message):
    path = write_json(tmp_path, "alias.json", {"aliases": aliases})
    code, out, err = run(capsys, "equations", "cA1", "--alias", path)
    assert code == 2 and out == ""
    assert err == message


# an alias table is read by the rules of every other payload: its shape
# is checked, its rays are lattice vectors (a bool is no number), and
# each name is a Python identifier
@pytest.mark.parametrize("table, message", [
    pytest.param({"aliases": [{"ray": [1, 0, 0, 1], "name": ""}]},
                 "alias name '' is not an identifier", id="empty-name"),
    pytest.param({"aliases": [{"ray": [1, 0, 0, 1], "name": 5}]},
                 "alias name 5 is not an identifier", id="number-name"),
    pytest.param({"aliases": [{"ray": [1, 0, 0, 1], "name": "a b"}]},
                 "alias name 'a b' is not an identifier", id="spaced-name"),
    pytest.param({"aliases": [{"ray": [1, 0, 0, True], "name": "A"}]},
                 "bad coordinate True", id="bool-coordinate"),
    pytest.param({"aliases": "ab"}, "aliases must be a list, got 'ab'",
                 id="aliases-string"),
    pytest.param([{"ray": [1, 0, 0, 1], "name": "A"}],
                 "alias table payload must be a JSON object", id="list-payload"),
    pytest.param({"aliases": [{"ray": [1, 0, 0, 1]}]},
                 'alias payload needs "name"', id="missing-name"),
])
def test_malformed_alias_table_is_usage_error(capsys, tmp_path, table,
                                              message):
    path = write_json(tmp_path, "alias.json", table)
    code, out, err = run(capsys, "equations", "cA1", "--alias", path)
    assert code == 2 and out == ""
    assert err == "error: bad alias table: %s\n" % message


def test_equations_from_datum_file(capsys, tmp_path):
    path = write_json(tmp_path, "toy.json", toy_plane_datum().to_json())
    code, out, _ = run(capsys, "equations", path)
    assert code == 0 and "trinomial 1:" in out


# ------------------------------------------------------------ polarize


def test_polarize_file_cone(capsys, tmp_path):
    path = write_json(tmp_path, "tau.json",
                      {"tau": {"rays": [[1, 0, 0], [0, 1, 0],
                                        [-1, -2, 1]]}})
    code, out, _ = run(capsys, "polarize", path)
    assert code == 0
    assert "classification: QCartierZDivisor" in out


def test_polarize_preset_polytope(capsys):
    code, out, _ = run(capsys, "polarize", "p2-p114", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["classification"] == "Cartier"
    assert data["cox_exponents"] == [1, 1, 1]


def test_polarize_rejects_non_fano(capsys, tmp_path):
    path = write_json(tmp_path, "flat.json",
                      {"polytope": [[1, 0], [0, 1], [1, 1]]})
    code, out, _ = run(capsys, "polarize", path)
    assert code == 1 and out.strip()


# ------------------------------------------------------------ mutation


def test_mutate_preset(capsys):
    code, out, _ = run(capsys, "mutate", "p2-p114")
    assert code == 0
    assert "(4, 3)" in out
    assert "height -1: conv{(-1, -1)}" in out


def test_mutate_uncovered_vertex(capsys, tmp_path):
    bad = dict(MUT_PAYLOAD, factor=[[0, 0], [4, 2]])
    path = write_json(tmp_path, "mut.json", bad)
    code, out, _ = run(capsys, "mutate", path)
    assert code == 1
    assert "uncovered vertex" in out


def test_mutate_missing_key(capsys, tmp_path):
    path = write_json(tmp_path, "mut.json", {"polytope": [[1, 0]]})
    code, _, err = run(capsys, "mutate", path)
    assert code == 2 and "needs" in err


def test_family_strings(capsys, tmp_path):
    path = write_json(tmp_path, "mut.json", MUT_PAYLOAD)
    code, out, _ = run(capsys, "family", path)
    assert code == 0
    assert "weights: (2, 1, 1, 1)" in out
    # file payloads get the default naming, not the shipped alias
    assert "trinomial:" in out and "x0" in out


def test_family_preset_alias(capsys):
    code, out, _ = run(capsys, "family", "p2-p114")
    assert code == 0
    assert "trinomial: a*x^2 + b*y + c*z0*z1" in out
    assert "monomial: x*y" in out


def test_fiber_matches_reference(capsys):
    code, out, _ = run(capsys, "fiber", "p2-p114",
                       "--point", "0:1:-1")
    assert code == 0
    assert "matched reference binomial: True" in out


def test_fiber_deleted_point(capsys):
    code, out, _ = run(capsys, "fiber", "p2-p114", "--point", "1:0:0")
    assert code == 1 and out.strip()


def test_fiber_point_syntax(capsys):
    code, _, err = run(capsys, "fiber", "p2-p114", "--point", "1:2")
    assert code == 2 and "a:b:c" in err
    code, _, err = run(capsys, "fiber", "p2-p114", "--point", "0:x:1")
    assert code == 2 and "bad parameter point" in err


def test_fiber_json(capsys):
    code, out, _ = run(capsys, "fiber", "p2-p114", "--point", "1:0:-1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "mutated" and data["matched"] is True


# ------------------------------------------------------------ semigroups


def test_hilbert_preset(capsys):
    code, out, _ = run(capsys, "hilbert-basis", "cA1")
    assert code == 0
    assert "(0, 1, 0)" in out and "complete: True" in out


def test_hilbert_file(capsys, tmp_path):
    path = write_json(tmp_path, "cone.json", {"rays": [[1, 0], [1, 2]]})
    code, out, _ = run(capsys, "hilbert-basis", path)
    assert code == 0
    assert "(1, 1)" in out


def test_hilbert_rejects_halfplane(capsys, tmp_path):
    path = write_json(tmp_path, "cone.json",
                      {"rays": [[1, 0], [-1, 0], [0, 1]]})
    code, out, _ = run(capsys, "hilbert-basis", path)
    assert code == 1
    assert "strongly convex" in out


def test_oracle_counts(capsys):
    code, out, _ = run(capsys, "oracle", "cA1", "--bound", "6")
    assert code == 0
    assert "degree-zero check: 296 pairs, 0 failures" in out
    assert "boundary check: 210 characters, 0 failures" in out


def test_oracle_on_a_non_boundary_datum(capsys, tmp_path):
    # every preset is a boundary datum: toy-plane's with "boundary": false
    # runs the degree-zero check alone
    path = write_json(tmp_path, "plain.json",
                      dict(toy_plane_datum().to_json(), boundary=False))
    code, out, _ = run(capsys, "oracle", path, "--bound", "6")
    assert code == 0
    assert out.splitlines() == ["degree-zero check: 210 pairs, 0 failures"]
    code, out, _ = run(capsys, "oracle", path, "--bound", "6", "--format", "json")
    assert code == 0 and list(json.loads(out)) == ["degree_zero"]


def test_validate_json_names_the_witness(capsys, tmp_path):
    # Q's vertex (1, 2) splits into two non-lattice halves (1/2, 1), so
    # (iv') fails, and its JSON carries the witness; a passing condition
    # has no "witness" key
    halves = {"sigma": {"rays": [[1, 2], [0, 1]]},
              "summands": [[["1/2", 1]], [["1/2", 1]]], "w": [-1, 0]}
    path = write_json(tmp_path, "halves.json", halves)
    code, out, _ = run(capsys, "validate-datum", path, "--format", "json")
    assert code == 1
    conditions = json.loads(out)["conditions"]
    assert conditions[3] == {
        "label": "(iv')", "passed": False, "witness": "vertex (1, 2)",
        "description": "each vertex of Q splits into summand vertices, "
                       "at most one of them non-lattice"}
    assert all(set(c) == {"label", "description", "passed"}
               for c in conditions[:3] + conditions[4:])


# ------------------------------------------------------------ examples


@pytest.mark.parametrize("name",
                         ["cA1", "toy-plane", "hexagon", "p2-p114"])
def test_verify_examples(capsys, name):
    code, out, _ = run(capsys, "verify-example", name)
    assert code == 0, out


@pytest.mark.parametrize("p", [0, 1, 2, 5])
def test_verify_ca1_for_every_p(p):
    # the printer drops a zero exponent and writes z^1 as z, so p = 0 and
    # p = 1 are the special cases of the expected trinomial
    assert presets.verify_ca1(p).ok


def test_verify_report_prints_a_failed_check():
    rep = presets.VerifyReport(example="cA1", checks=(
        presets.Check(name="rank", ok=True, got="3", want="3"),
        presets.Check(name="rays", ok=False, got="4", want="5")))
    assert not rep.ok
    assert rep.lines() == ["ok   rank: 3", "FAIL rays: got 4, want 5", "cA1: FAIL"]


def test_verify_reports_survive_a_bytecode_round_trip():
    # a constant set display compiles to a frozenset constant, which a
    # marshal round trip, as a .pyc makes, may read back in another order
    path = pathlib.Path(presets.__file__)
    code = compile(path.read_text(), str(path), "exec")
    reports = []
    for compiled in (code, marshal.loads(marshal.dumps(code))):
        module = {"__name__": presets.__name__, "__package__": "toricdeform"}
        exec(compiled, module)
        reports.append([module["preset"]("example", name)[0].to_json()
                        for name in presets.PRESET_NAMES])
    assert reports[0] == reports[1]


def test_verify_unknown_example(capsys):
    code, _, err = run(capsys, "verify-example", "p3-p115")
    assert code == 2 and "unknown example" in err
