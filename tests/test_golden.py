"""Golden output: every corpus curve through every CLI route, byte for byte.

``tests/golden/cli_corpus.json`` records the exit code, stdout and stderr
of ``revolve partition|verify|volume --json`` for each ``corpus.CURVES``
entry, with ``volume`` run under each axis x role x method; then the same
invocations without ``--json`` (text mode), ``revolve kepler`` in both
modes, the usage-error paths, and the 1e-3 dip's ``--method all`` in both
modes, whose disk row is the one route that bisects a nested
Clenshaw-Curtis panel.  A change that moves any recorded byte
fails here and must name and justify the change.  argparse wraps its usage
message to the terminal width, so both the test and ``--write`` pin
``COLUMNS``.

Regenerate (only when such a change is intended) with

    PYTHONPATH=src python tests/test_golden.py --write

``--check`` re-runs the corpus without pytest, for interpreters that lack
it, and prints ``golden_diff``'s report against the committed file; it
exits 1 on any difference, allowed or not.
"""

import contextlib
import io
import json
import os
import pathlib
import re
import sys

from corpus import CURVES
from golden_diff import compare, report
from revolve.cli import main

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

# the dip's last piece needs more than one 129-point panel
DIP = ["volume", "--curve", "x + 1 - 0.001/(1 + 100000000*(x - 1.0005)^2)",
       "--interval", "0", "2", "--method", "all"]

COLUMNS = "80"


def invocations() -> list[list[str]]:
    json_runs = corpus_invocations()
    text_runs = [argv[:-1] for argv in json_runs]
    kepler = [argv for run in KEPLER for argv in (run, [*run, "--json"])]
    dip = [[*DIP, "--json"], DIP]
    return json_runs + text_runs + kepler + USAGE_ERRORS + dip


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
    monkeypatch.setenv("COLUMNS", COLUMNS)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = record()
    assert [e["argv"] for e in expected] == [a["argv"] for a in actual]
    changed = [a["argv"] for e, a in zip(expected, actual) if e != a]
    assert not changed, f"{len(changed)} invocations changed, first: {changed[0]}"


def _moved(entry: dict, edit) -> tuple[list, list]:
    changed = json.loads(json.dumps(entry))
    edit(changed)
    return compare([entry], [changed])


def _edit_json(path: tuple, value):
    def edit(entry):
        payload = json.loads(entry["stdout"])
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        entry["stdout"] = json.dumps(payload, indent=2) + "\n"
    return edit


def test_golden_diff_allows_only_inverted_disk_numbers(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    line = ["volume", "--curve", "x", "--var", "x", "--interval", "1.0", "2.0"]
    formula = run_in_process([*line, "--axis", "y", "--role", "y-of-x",
                              "--method", "all", "--json"])
    inverted = run_in_process([*line, "--axis", "x", "--role", "x-of-y",
                               "--method", "disk", "--json"])
    direct = run_in_process([*line, "--axis", "x", "--role", "y-of-x",
                             "--method", "disk", "--json"])
    text = run_in_process([*line, "--axis", "y", "--role", "y-of-x",
                           "--method", "all"])
    rows = [row["method"] for row in json.loads(formula["stdout"])["cross_checks"]]
    disk_row, theorem1_row = rows.index("disk"), rows.index("theorem1")

    moved, problems = _moved(formula, _edit_json(
        ("cross_checks", disk_row, "value"), 1.5))
    assert [field for _, field, _, _ in moved] == ["disk.value"] and not problems
    moved, problems = _moved(inverted, _edit_json(("error_estimate",), 1.0))
    assert [field for _, field, _, _ in moved] == ["error_estimate"]
    assert not problems
    moved, problems = _moved(text, lambda e: e.update(stdout=re.sub(
        r"(  disk .*= ).*", r"\g<1>9.999e-15", e["stdout"])))
    assert [field for _, field, _, _ in moved] == ["disk.delta"]
    assert not problems

    # in the disk frame the boundary-term row is the one computed on the
    # inverse: theorem1 for x-of-y about y, theorem3 for y-of-x about x
    disk_frames = [run_in_process([*line, "--axis", axis, "--role", role,
                                   "--method", "all", "--json"])
                   for axis, role in (("y", "x-of-y"), ("x", "y-of-x"))]
    for entry, tag in zip(disk_frames, ("theorem1", "theorem3")):
        assert [row["method"] for row in json.loads(entry["stdout"])[
            "cross_checks"]] == [tag]
        moved, problems = _moved(entry, _edit_json(
            ("cross_checks", 0, "value"), 1.5))
        assert [field for _, field, _, _ in moved] == [f"{tag}.value"]
        assert not problems
        moved, problems = _moved(entry, _edit_json(
            ("cross_checks", 0, "delta"), 1e-15))
        assert [field for _, field, _, _ in moved] == [f"{tag}.delta"]
        assert not problems
    disk_text = run_in_process([*line, "--axis", "x", "--role", "y-of-x",
                                "--method", "all"])
    moved, problems = _moved(disk_text, lambda e: e.update(stdout=re.sub(
        r"(  theorem3 .*= ).*", r"\g<1>9.999e-15", e["stdout"])))
    assert [field for _, field, _, _ in moved] == ["theorem3.delta"]
    assert not problems

    for entry, edit in [
            (formula, _edit_json(("value",), 1.5)),
            (formula, _edit_json(("cross_checks", theorem1_row, "value"), 1.5)),
            (text, lambda e: e.update(stdout=re.sub(
                r"(  theorem1 .*= ).*", r"\g<1>9.999e-15", e["stdout"]))),
            (disk_frames[0], _edit_json(("value",), 1.5)),
            (disk_frames[1], _edit_json(("error_estimate",), 1.0)),
            (formula, _edit_json(("warnings",), ["methods disagree"])),
            (direct, _edit_json(("value",), 1.5)),
            (inverted, lambda e: e.update(exit=3)),
            (inverted, lambda e: e.update(stderr="warning\n")),
            (text, lambda e: e.update(stdout=e["stdout"].replace(
                "value: ", "value: 1", 1)))]:
        assert _moved(entry, edit)[1], entry["argv"]


if __name__ == "__main__":
    if sys.argv[1:] not in (["--write"], ["--check"]):
        sys.exit("usage: python tests/test_golden.py --write|--check")
    os.environ["COLUMNS"] = COLUMNS
    if sys.argv[1] == "--check":
        expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
        actual = record()
        report(expected, actual)
        sys.exit(1 if actual != expected else 0)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
