"""Golden output: every corpus curve through every CLI route, byte for byte.

``tests/golden/cli_corpus.json`` records the exit code, stdout and stderr
of ``revolve partition|verify|volume --json`` for each ``corpus.CURVES``
entry, with ``volume`` run under each axis x role x method; then the same
invocations without ``--json`` (text mode), ``revolve kepler`` in both
modes, and the usage-error paths.  A change that moves any recorded byte
fails here and must name and justify the change.  argparse wraps its usage
message to the terminal width, so both the test and ``--write`` pin
``COLUMNS``.

Regenerate (only when such a change is intended) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import os
import pathlib
import sys

from corpus import CURVES
from revolve.cli import ENV_DEFAULT_TOL, main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli_corpus.json"

AXES = ("y", "x")
ROLES = ("y-of-x", "x-of-y")
METHODS = ("shell", "disk", "theorem1", "theorem2", "theorem3", "piecewise", "all")

KEPLER = [["kepler", "--eps", eps, "--forward", "1.5707963267948966",
           "--invert", "1"] for eps in ("0.5", "0.9")]

USAGE_ERRORS = [
    ["volume", "--curve", "x", "--interval", "2", "1"],
    ["volume", "--curve", "x + + 2", "--interval", "0", "1"],
    ["volume", "--curve", "x", "--interval", "0", "1", "--bogus"],
    ["kepler", "--eps", "1.5"],
    # a missing required option prints the subcommand's full usage
    ["volume", "--interval", "0", "1"],
    ["kepler", "--invert", "1"],
]

COLUMNS = "80"


def invocations() -> list[list[str]]:
    json_runs = corpus_invocations()
    text_runs = [argv[:-1] for argv in json_runs]
    kepler = [argv for run in KEPLER for argv in (run, [*run, "--json"])]
    return json_runs + text_runs + kepler + USAGE_ERRORS


def corpus_invocations() -> list[list[str]]:
    out = []
    for _name, text, var, params, lo, hi in CURVES:
        base = ["--curve", text, "--var", var, "--interval", repr(lo), repr(hi)]
        for key, value in params.items():
            base += ["--param", f"{key}={value!r}"]
        for sub in ("partition", "verify"):
            out.append([sub, *base, "--json"])
        for axis in AXES:
            for role in ROLES:
                for method in METHODS:
                    out.append(["volume", *base, "--axis", axis, "--role", role,
                                "--method", method, "--json"])
    return out


def run_in_process(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"argv": argv, "exit": code,
            "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def record() -> list[dict]:
    return [run_in_process(argv) for argv in invocations()]


def test_cli_corpus_output_is_unchanged(monkeypatch):
    monkeypatch.delenv(ENV_DEFAULT_TOL, raising=False)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = record()
    assert [e["argv"] for e in expected] == [a["argv"] for a in actual]
    changed = [a["argv"] for e, a in zip(expected, actual) if e != a]
    assert not changed, f"{len(changed)} invocations changed, first: {changed[0]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    os.environ.pop(ENV_DEFAULT_TOL, None)
    os.environ["COLUMNS"] = COLUMNS
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
