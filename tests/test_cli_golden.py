"""Byte-level goldens for the command-line workbench.

Every command runs in-process through ``workbench.main`` on each preset it
accepts, in both output formats; the sha256 of stdout and the exit code
must match ``cli_golden.json``.  After an intended output change, rewrite
the goldens with ``PYTHONPATH=src python tests/test_cli_golden.py`` and
review the diff of the JSON file.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from toricdeform import presets, workbench

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

DATUM_PRESETS = ("cA1", "toy-plane", "hexagon-a", "hexagon-b", "p2-p114")
FIBER_POINTS = ("0:1:-1", "1:0:-1", "1:1:1", "1:0:0")


def cli_runs() -> list:
    base = []
    for cmd in ("validate-datum", "tilde", "equations"):
        base += [(cmd, name) for name in DATUM_PRESETS]
    base += [("oracle", name, "--bound", "8") for name in DATUM_PRESETS]
    base += [("oracle", "cA1", "--bound", "20")]
    base += [("polarize", "p2-p114"), ("mutate", "p2-p114"),
             ("family", "p2-p114")]
    base += [("fiber", "p2-p114", "--point", pt) for pt in FIBER_POINTS]
    base += [("hilbert-basis", "cA1"), ("hilbert-basis", "cA1", "--bound", "0")]
    base += [("verify-example", name) for name in presets.PRESET_NAMES]
    rejected = [("tilde", "cA1", "--p", "-1"),
                ("oracle", "toy-plane", "--bound", "-3"),
                ("hilbert-basis", "cA1", "--bound", "-1")]
    return [argv + ("--format", fmt)
            for argv in base for fmt in ("pretty", "json")] + rejected


def run_cli(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = workbench.main(list(argv))
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(
                buf.getvalue().encode("utf-8")).hexdigest()}


def _key(argv) -> str:
    return " ".join(argv)


def test_golden_covers_every_run():
    recorded = json.loads(GOLDEN.read_text())
    assert sorted(recorded) == sorted(_key(a) for a in cli_runs())


@pytest.mark.parametrize("argv", cli_runs(), ids=_key)
def test_cli_output_matches_golden(argv):
    recorded = json.loads(GOLDEN.read_text())
    assert run_cli(argv) == recorded[_key(argv)]


@pytest.mark.parametrize("argv", [("equations", "cA1"),
                                  ("family", "p2-p114")], ids=_key)
def test_json_output_never_renders_pretty_form(tmp_path, capsys, argv):
    # --alias is read only to render the pretty form: JSON output ignores
    # a missing alias file, and the pretty form fails on it
    missing = str(tmp_path / "missing.json")
    json_run = argv + ("--alias", missing, "--format", "json")
    assert run_cli(json_run) == \
        json.loads(GOLDEN.read_text())[_key(argv + ("--format", "json"))]
    assert workbench.main(list(argv) + ["--alias", missing]) == 2
    assert capsys.readouterr() == (
        "", "error: cannot read %s: No such file or directory\n" % missing)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {_key(a): run_cli(a) for a in cli_runs()}, indent=1,
        sort_keys=True) + "\n")
