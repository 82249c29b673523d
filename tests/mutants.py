"""Mutation probe over the ledger's refusals and the call context's checks.

Each site below is a statement that refuses something.  The probe copies the
repository to a temporary directory; one site at a time, it replaces the
site with `pass` in the copy and runs the tier-1 suite there with `-x`.  A
mutant that the suite still passes survives: no test holds the check, so
either a test is missing or the check is dead.  The probe prints each
survivor with its file and line, and exits 1 if any survived.

The sites:
  * in `ledger.py`, each `raise _Reject(...)` and each refusal `return "<code>"`;
  * in `programs.py`, each `deny(...)` statement, each `bad_write = ...`
    assignment and each `return False`.

Run it on every site, or only on the named files' sites:

    python3 tests/mutants.py [ledger.py] [programs.py]

A killed mutant stops at its first failing test; each survivor costs a full
tier-1 run, so the whole probe takes several minutes.  The Hypothesis tests
draw new examples on every run, so a site that only they reach may be killed
in one run and survive the next: pin each check with a plain test.  This file
is not collected by pytest (its name does not start with `test_`).  After
DeMillo, Lipton and Sayward, "Hints on Test Data Selection" (1978).
"""
import ast
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "bondsim")
TIER_1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", ".bench_out")


def _ledger_site(node: ast.stmt) -> bool:
    if isinstance(node, ast.Raise):
        call = node.exc
        return isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "_Reject"
    if isinstance(node, ast.Return):
        value = node.value
        return isinstance(value, ast.Constant) and isinstance(value.value, str)
    return False


def _programs_site(node: ast.stmt) -> bool:
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        func = node.value.func
        return isinstance(func, ast.Attribute) and func.attr == "deny"
    if isinstance(node, ast.Assign):
        return any(isinstance(t, ast.Attribute) and t.attr == "bad_write" for t in node.targets)
    if isinstance(node, ast.Return):
        return isinstance(node.value, ast.Constant) and node.value.value is False
    return False


SITES = {"ledger.py": _ledger_site, "programs.py": _programs_site}


def sites(source: str, is_site) -> list:
    """The (first line, last line, column) of each site statement in `source`."""
    return sorted(
        (node.lineno, node.end_lineno, node.col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.stmt) and is_site(node)
    )


def mutate(source: str, first: int, last: int, column: int) -> str:
    """`source` with the statement on lines `first`..`last` replaced by `pass`;
    its other lines are left blank, so every other line keeps its number."""
    lines = source.splitlines(keepends=True)
    head = lines[first - 1]
    if head[:column].strip():
        raise ValueError(f"line {first}: the statement does not start its line")
    lines[first - 1] = head[:column] + "pass\n"
    for i in range(first, last):
        lines[i] = "\n"
    return "".join(lines)


def survives(copy: str) -> bool:
    env = {**os.environ, "PYTHONPATH": os.path.join(copy, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(TIER_1, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode == 0


def main(argv: list) -> int:
    names = argv or list(SITES)
    unknown = [name for name in names if name not in SITES]
    if unknown:
        print(f"usage: mutants.py [{'] ['.join(SITES)}]; unknown: {' '.join(unknown)}", file=sys.stderr)
        return 2
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="bondsim-mutants-") as scratch:
        copy = os.path.join(scratch, "repo")
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        for name in names:
            path = os.path.join(copy, PACKAGE, name)
            with open(path) as f:
                source = f.read()
            found = sites(source, SITES[name])
            print(f"{name}: {len(found)} sites", flush=True)
            try:
                for first, last, column in found:
                    with open(path, "w") as f:
                        f.write(mutate(source, first, last, column))
                    if survives(copy):
                        survivors += 1
                        print(f"  survivor {name}:{first}: {source.splitlines()[first - 1].strip()}", flush=True)
            finally:
                with open(path, "w") as f:
                    f.write(source)
    print(f"{survivors} survivors")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
