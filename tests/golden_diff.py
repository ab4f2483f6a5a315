"""Show that two golden CLI files differ only in numbers computed on the
curve's numeric inverse.

When a change to the disk route's quadrature or inversion regenerates
``tests/golden/cli_corpus.json``, this script proves the regeneration
moved nothing else:

* the two files record the same invocations in the same order;
* every exit code and every stderr byte is unchanged;
* a changed stdout differs only in numbers, and only in numbers of a
  route that inverts the curve.  In the formula frame (the curve read
  along the axis perpendicular to the rotation axis) that is the disk
  route: the ``value`` and ``error_estimate`` of ``--method disk`` and the
  ``disk`` row's value and delta under ``--method all``.  In the disk frame
  it is the boundary-term row of ``--method all`` (``theorem1`` about y,
  ``theorem3`` about x), the formula applied to the inverse curve: its
  value and delta.  Nothing else may move; the same row names in the
  formula frame are the direct formula and stay fixed.  Every integral
  over a numeric inverse uses one path, the nested Clenshaw-Curtis rule
  in ``volume._inverse_value``, so a change there can move both.

It prints every moved number with its relative shift and, where the
corpus curve's volume in that frame has a closed form, the error of the
old and of the new value against it.  Exit status 1 means some byte moved
that may not.

    git show HEAD~1:tests/golden/cli_corpus.json > old.json
    PYTHONPATH=src python tests/golden_diff.py old.json tests/golden/cli_corpus.json
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import sys

from revolve.kepler import KeplerCurve, reference_volumes

PI = math.pi

# formula-frame disk volumes of the corpus curves, keyed by curve text:
# pi*Int g(s)^2 ds with g the inverse of the curve, summed with alternating
# signs over its monotone pieces, which is also the theorem-2 value
# sgn*{pi*[b^2 f(b) - a^2 f(a)] - 2*pi*Int t*f(t) dt} where that applies
CLOSED_FORMS = {
    "x": lambda p: 7.0 * PI / 3.0,
    "3 - x": lambda p: 7.0 * PI / 3.0,
    "x^2": lambda p: 7.5 * PI,
    "x/pi + sin(x)": lambda p: 8.0 * PI ** 3 / 3.0 + 4.0 * PI ** 2,
    "2 - x/pi - sin(x)": lambda p: 8.0 * PI ** 3 / 3.0 + 4.0 * PI ** 2,
    "y/pi + sin(y)": lambda p: 8.0 * PI ** 3 / 3.0 + 4.0 * PI ** 2,
    "y - eps*sin(y)": lambda p: reference_volumes(KeplerCurve(p["eps"]))[1],
    "sqrt(x)": lambda p: PI * (2.0 ** 5 - 0.1 ** 5) / 5.0,
    # g(s) = cos(s) from arccos(0.9) to arccos(-0.9)
    "arccos(x)": lambda p: PI * ((PI - 2.0 * math.acos(0.9)) / 2.0
                                 - 0.9 * math.sqrt(0.19)),
    # f(0.01) = 0.21, f(3) = 2*sqrt(3) + 3, Int t*f(t) dt = 0.8*t^2.5 + t^3/3
    "2*x^0.5 + x": lambda p: PI * (9.0 * (2.0 * math.sqrt(3.0) + 3.0)
                                   - 1e-4 * 0.21
                                   - 2.0 * (0.8 * 3.0 ** 2.5 + 9.0
                                            - 0.8 * 0.01 ** 2.5 - 1e-6 / 3.0)),
}

# disk-frame volumes of the monotone corpus curves: pi*Int f(t)^2 dt over
# the curve's own interval, which the boundary-term row computes on the
# inverse curve
DISK_FRAME_FORMS = {
    "x": lambda p: 7.0 * PI / 3.0,
    "3 - x": lambda p: 7.0 * PI / 3.0,
    "x^2": lambda p: 31.0 * PI / 5.0,
    "y - eps*sin(y)": lambda p: reference_volumes(KeplerCurve(p["eps"]))[0],
    "sqrt(x)": lambda p: PI * (16.0 - 1e-4) / 2.0,
    # Int arccos(t)^2 dt = t*arccos(t)^2 - 2*sqrt(1 - t^2)*arccos(t) - 2*t
    "arccos(x)": lambda p: PI * (
        0.9 * (math.acos(0.9) ** 2 + math.acos(-0.9) ** 2)
        - 2.0 * math.sqrt(0.19) * (math.acos(0.9) - math.acos(-0.9)) - 3.6),
    # (2*t^0.5 + t)^2 = 4*t + 4*t^1.5 + t^2
    "2*x^0.5 + x": lambda p: PI * (2.0 * (9.0 - 1e-4)
                                   + 1.6 * (3.0 ** 2.5 - 0.01 ** 2.5)
                                   + (27.0 - 1e-6) / 3.0),
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _option(argv: list[str], name: str, default: str | None = None):
    return argv[argv.index(name) + 1] if name in argv else default


def _formula_frame(argv: list[str]) -> bool:
    var = _option(argv, "--var", "x")
    role = _option(argv, "--role", "x-of-y" if var == "y" else "y-of-x")
    return (_option(argv, "--axis", "y") == "y") == (role == "y-of-x")


def _inverted_rows(argv: list[str]) -> tuple[str, ...]:
    """Names of the ``--method all`` rows computed on the numeric inverse."""
    return ("disk",) if _formula_frame(argv) else ("theorem1", "theorem3")


def _closed_form(argv: list[str]) -> float | None:
    forms = CLOSED_FORMS if _formula_frame(argv) else DISK_FRAME_FORMS
    form = forms.get(_option(argv, "--curve"))
    if form is None:
        return None
    params = dict(argv[i + 1].split("=") for i, arg in enumerate(argv)
                  if arg == "--param")
    return form({name: float(value) for name, value in params.items()})


def _json_moves(argv: list[str], old: str, new: str) -> tuple[list, list]:
    """``(allowed, forbidden)`` lists of ``(field, old, new)``."""
    a, b = json.loads(old), json.loads(new)
    inverted = _inverted_rows(argv)
    allowed, forbidden = [], []
    for key in dict.fromkeys([*a, *b]):
        if key == "cross_checks":
            continue
        if a.get(key) != b.get(key):
            moves = allowed if key in ("value", "error_estimate") \
                and a.get("method") in inverted else forbidden
            moves.append((key, a.get(key), b.get(key)))
    rows_a, rows_b = a.get("cross_checks", []), b.get("cross_checks", [])
    if [r["method"] for r in rows_a] != [r["method"] for r in rows_b]:
        forbidden.append(("cross_checks", rows_a, rows_b))
        return allowed, forbidden
    for ra, rb in zip(rows_a, rows_b):
        for key in ("value", "delta"):
            if ra[key] != rb[key]:
                moves = allowed if ra["method"] in inverted else forbidden
                moves.append((f"{ra['method']}.{key}", ra[key], rb[key]))
    return allowed, forbidden


def _text_moves(argv: list[str], old: str, new: str) -> tuple[list, list]:
    """``(allowed, forbidden)`` lists of ``(field, old, new)``, read from
    ``revolve volume``'s text report line by line."""
    la, lb = old.splitlines(), new.splitlines()
    if len(la) != len(lb):
        return [], [("stdout", old, new)]
    inverted = _inverted_rows(argv)
    primary_disk = la[:1] == ["method: disk"] and "disk" in inverted
    allowed, forbidden = [], []
    for line_a, line_b in zip(la, lb):
        if line_a == line_b:
            continue
        if _NUMBER.sub("#", line_a) != _NUMBER.sub("#", line_b):
            forbidden.append(("line", line_a, line_b))
            continue
        label = line_a.split(":")[0].strip()
        row = line_a.split()[0] if line_a.startswith("  ") else None
        if row in inverted:
            fields = (f"{row}.value", f"{row}.delta")
        elif primary_disk and label in ("value", "error_estimate"):
            fields = (label,)
        else:
            forbidden.append(("line", line_a, line_b))
            continue
        # the numbers after the row name or label ("theorem3" holds a digit)
        numbers = zip(_NUMBER.findall(line_a.split(None, 1)[1]),
                      _NUMBER.findall(line_b.split(None, 1)[1]))
        for field, (x, y) in zip(fields, numbers):
            if x != y:
                allowed.append((field, float(x), float(y)))
    return allowed, forbidden


def compare(old_runs: list[dict], new_runs: list[dict]) -> tuple[list, list]:
    """``(moved, problems)``: every allowed moved number as
    ``(argv, field, old, new)``, and a description of every forbidden
    difference."""
    if [r["argv"] for r in old_runs] != [r["argv"] for r in new_runs]:
        return [], ["the invocation lists differ"]
    moved, problems = [], []
    for a, b in zip(old_runs, new_runs):
        argv = a["argv"]
        if a == b:
            continue
        if a["exit"] != b["exit"] or a["stderr"] != b["stderr"]:
            problems.append(f"{argv}: exit code or stderr changed")
            continue
        if argv[0] != "volume":
            problems.append(f"{argv}: stdout changed outside the inverted "
                            "routes")
            continue
        moves = _json_moves if "--json" in argv else _text_moves
        allowed, forbidden = moves(argv, a["stdout"], b["stdout"])
        problems += [f"{argv}: {field} {x!r} -> {y!r}"
                     for field, x, y in forbidden]
        moved += [(argv, field, x, y) for field, x, y in allowed]
    return moved, problems


def _describe(argv: list[str], field: str, old: float, new: float) -> str:
    mode = "json" if "--json" in argv else "text"
    frame = f"{_option(argv, '--axis', 'y')}/{_option(argv, '--role')}"
    params = " ".join(argv[i + 1] for i, arg in enumerate(argv)
                      if arg == "--param")
    line = (f"{_option(argv, '--curve')} {params} {frame} "
            f"--method {_option(argv, '--method')} [{mode}] {field}: "
            f"{old!r} -> {new!r}")
    if old != 0.0:
        line += f" (rel {(new - old) / abs(old):+.1e})"
    exact = _closed_form(argv)
    if exact is not None and field.split(".")[-1] == "value":
        line += (f"; exact {exact!r}, error {abs(old - exact):.1e} -> "
                 f"{abs(new - exact):.1e}")
    return line


def report(old_runs: list[dict], new_runs: list[dict]) -> int:
    """Print every moved number and forbidden difference; return the exit
    status, 1 if any difference is forbidden."""
    moved, problems = compare(old_runs, new_runs)
    for args, field, old, new in moved:
        print(_describe(args, field, old, new))
    changed = sum(a != b for a, b in zip(old_runs, new_runs))
    print(f"{changed} of {len(old_runs)} invocations changed; "
          f"{len(moved)} inverted-route numbers moved; "
          f"{len(problems)} forbidden differences")
    for problem in problems:
        print(f"FORBIDDEN {problem}")
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/golden_diff.py OLD.json NEW.json",
              file=sys.stderr)
        return 2
    return report(*(json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
                    for path in argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
