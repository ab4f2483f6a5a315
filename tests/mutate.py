"""Opt-in mutation run: flip one operator at a time and see whether the
module's tests notice.

    python tests/mutate.py --module volume --sites 30 --seed 2026

A site is one operator of a ``Compare``, ``BinOp`` or ``BoolOp`` node in
``src/revolve/<module>.py`` that ``FLIPS`` maps: a comparison moves its
boundary (``<`` and ``<=``) or is negated (``==``, ``is``, ``in``), an
arithmetic operator swaps with its inverse, ``and`` with ``or``.  The
script copies ``src``, ``tests`` and ``pyproject.toml`` to a temporary
directory and never edits the tree.  For each of ``--sites`` sites,
sampled with ``--seed``, it writes the copy's module with that one
operator flipped (through ``ast.unparse``, which drops comments), runs
``tests/test_<module>.py`` on the copy, and reports the mutant as killed
(the tests failed or ran past ``TIMEOUT_S``) or surviving, by its line in
the original source.  It exits 1 if the unmutated copy, unparsed the same
way, fails its tests.

Only the standard library is used; pytest runs the tests.  pytest does not
collect this file, and it is no tier-1 step: each mutant costs one run of
the module's tests.
"""

import argparse
import ast
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = ("volume", "numerics", "monotone", "cli")
TIMEOUT_S = 300  # a flipped loop bound can make a mutant run forever

FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
    ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.And: ast.Or, ast.Or: ast.And,
}


def sites(tree: ast.AST) -> list[tuple[ast.AST, int | None]]:
    """Every flippable operator of ``tree`` in ``ast.walk`` order, as
    ``(node, index)``: the index into a ``Compare``'s ``ops``, else None.
    Two parses of one source give the same list."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            out += [(node, i) for i, op in enumerate(node.ops)
                    if type(op) in FLIPS]
        elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in FLIPS:
            out.append((node, None))
    return out


def mutant(source: str, site: int) -> tuple[str, int, str]:
    """``(mutated source, original line, "Old -> New")`` for one site."""
    tree = ast.parse(source)
    node, index = sites(tree)[site]
    old = node.ops[index] if index is not None else node.op
    new = FLIPS[type(old)]()
    if index is not None:
        node.ops[index] = new
    else:
        node.op = new
    return (ast.unparse(tree) + "\n", node.lineno,
            f"{type(old).__name__} -> {type(new).__name__}")


def run_tests(copy: pathlib.Path, module: str) -> str:
    """``"passed"``, ``"failed"`` or ``"timeout"`` for the module's tests
    on the copy."""
    command = [sys.executable, "-m", "pytest", "-x", "-q",
               "-p", "no:cacheprovider", f"tests/test_{module}.py"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(copy / "src")}
    try:
        done = subprocess.run(command, cwd=copy, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--module", choices=MODULES, required=True)
    parser.add_argument("--sites", type=int, default=30,
                        help="mutants to sample (default 30)")
    parser.add_argument("--seed", type=int, default=2026)
    ns = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="revolve-mutate-") as tmp:
        copy = pathlib.Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / "src" / "revolve" / f"{ns.module}.py"
        source = target.read_text(encoding="utf-8")
        total = len(sites(ast.parse(source)))
        chosen = sorted(random.Random(ns.seed).sample(
            range(total), min(ns.sites, total)))

        # the baseline runs the unparsed source too, so that a kill is the
        # flip's and not the round trip's
        start = time.perf_counter()
        target.write_text(ast.unparse(ast.parse(source)) + "\n",
                          encoding="utf-8")
        if run_tests(copy, ns.module) != "passed":
            print(f"tests/test_{ns.module}.py fails on the unparsed, "
                  "unmutated copy")
            return 1
        print(f"{ns.module}.py: {total} sites, {len(chosen)} sampled with "
              f"seed {ns.seed}; unmutated run "
              f"{time.perf_counter() - start:.1f} s", flush=True)

        survivors = []
        for site in chosen:
            text, line, flip = mutant(source, site)
            target.write_text(text, encoding="utf-8")
            outcome = run_tests(copy, ns.module)
            verdict = "survived" if outcome == "passed" else f"killed ({outcome})"
            print(f"  {ns.module}.py:{line:<5} {flip:<16} {verdict}", flush=True)
            if outcome == "passed":
                survivors.append(f"{ns.module}.py:{line} {flip}")
        target.write_text(source, encoding="utf-8")

    print(f"{ns.module}.py: {len(chosen) - len(survivors)} of {len(chosen)} "
          f"killed; surviving: {', '.join(survivors) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
