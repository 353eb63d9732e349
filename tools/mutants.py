"""Mutants of the gates and the certificate's arithmetic, each run against the tier-1 suite.

    python tools/mutants.py              # every mutant
    python tools/mutants.py NAME ...     # the named ones
    python tools/mutants.py --list       # the names

Each mutant replaces one exact text of one file with another.  It is applied to a
copy of the checkout (``src``, ``tests``, ``benchmarks`` and ``pyproject.toml``) in a
temporary directory, and the tier-1 suite runs there with ``-x``.  A mutant is killed
when the suite fails, and the first failing test is printed; it survived when the suite
passes.  An old text that is missing from its file, or occurs in it more than once, is
an error, checked for every mutant before any suite runs and by
``tests/test_mutant_list.py`` in tier-1, so the list keeps up with the code; the suite
of a mutated copy leaves that test out, since the old text is missing there by design.
The exit code is 0 when every mutant is killed, 1 when one survived and 2 on an error.
Standard library only; the file is no ``test_`` module, so pytest does not collect it.
A gate that is added or changed adds its mutants here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "benchmarks", "pyproject.toml")
TIMEOUT_S = 900  # a mutant that makes the suite hang counts as killed

SOLVER, LINALG = "src/waring/solver.py", "src/waring/linalg.py"
MONOMIALS, SERIALIZE = "src/waring/monomials.py", "src/waring/serialize.py"
CLI = "src/waring/cli.py"

# (file, exact old text, new text, name)
MUTANTS = [
    # the kernel lift over the nonzero entries
    (SOLVER, "        if any(total):", "        if False:", "lift without its exact kernel check"),
    (SOLVER, "        if not entries or entries[-1][0] in ends:",
     "        if not entries:", "lift without its independence check"),
    (SOLVER, "        entries = [(i, x) for i, x in lifts if x]",
     "        entries = [(i, x) for i, x in lifts[:-1] if x]",
     "lift with the last nonzero entry dropped"),
    (SOLVER, "        if not entries or entries[-1][0] in ends:\n            return False\n"
             "        ends.add(entries[-1][0])",
     "        if entries and entries[-1][0] in ends:\n            return False\n"
     "        ends.add(entries[-1][0] if entries else -1)", "lift accepting a zero lift"),
    # back-substitution on the packed pivot rows
    (LINALG, "((top >> w * (j - col - 1)) & mask)", "((top >> w * (j - col)) & mask)",
     "back-substitution with its field offset off by one"),
    (LINALG, "x = -inv * sum(", "x = -sum(", "back-substitution without inv"),
    # the Laplace expansion of J
    (SOLVER, "det(cols[:pos] + cols[pos + 1:]), (-1) ** pos)",
     "det(cols[:pos] + cols[pos + 1:]), 1)",
     "Laplace expansion with the sign of odd terms flipped"),
    # the primes of the certificate
    (SOLVER, "        if q.scale % p == 0:\n            continue\n", "",
     "no skip of a prime that divides D"),
    (SOLVER, "            modulus *= p", "            modulus = p",
     "CRT modulus of the newest prime alone"),
    (SOLVER, "len(kernel) <= len(residues)", "len(kernel) >= len(residues)",
     "the prime of lower rank kept"),
    (LINALG, "    if abs(t1) > bound or gcd(r1, t1) != 1:", "    if gcd(r1, t1) != 1:",
     "reconstruction without its bound"),
    (LINALG, "    if abs(t1) > bound or gcd(r1, t1) != 1:", "    if abs(t1) > bound:",
     "reconstruction without its gcd test"),
    # the full-rank screen and the packed elimination it shares with the kernel
    (LINALG, "    return None not in _packed_elimination(rows, ncols, p)\n",
     "    return True\n", "screen passing a column without a pivot"),
    (LINALG, "    rows = [[v and v % p for v in row] for row in rows]",
     "    rows = [[v for v in row] for row in rows]",
     "packed elimination without its reduction mod p"),
    (LINALG, "nrows.bit_length() + 7) // 8\n", "nrows.bit_length() + 7) // 8 - 1\n",
     "packed field one byte narrower"),
    (LINALG, "    if not any(row[0] % p for row in rows):\n        return False\n", "",
     "screen without its first-column search"),
    # the binomial phi, which skips M_J and eig
    (SOLVER, "len(p.terms) == 1 and not any(next(iter(p.terms))[1:])", "len(p.terms) == 1",
     "binomial phi with a term outside a0"),
    (SOLVER, "len(p.terms) == 1 and not any(", "not any(", "binomial phi with more than one term"),
    # the quotient and the float stage
    (SOLVER, "    _assert_commuting(algebra)\n", "", "no commutation check"),
    (SOLVER, "bad = np.flatnonzero(~np.isfinite(det) | (det == 0))",
     "bad = np.flatnonzero(~np.isfinite(det))", "a zero J accepted"),
    (SOLVER, "    if crowded:", "    if False:", "no separation test"),
    # the CLI's exits
    (CLI, "        except OverflowError:  # a power of a point coordinate past float range",
     "        except ():  # a power of a point coordinate past float range",
     "diagnose without its overflow clause"),
    # the verifiers and the readers
    (MONOMIALS, "ok=max_error <= tol,", "ok=max_error <= 10 * tol,", "float judge at 10 * tol"),
    (MONOMIALS, "        if not residue and e != target:", "        if not residue:",
     "the target's zero residue skipped"),
    (MONOMIALS, "    return (2 * bound + 1).bit_length()\n",
     "    return (2 * bound + 1).bit_length() - 1\n", "b one bit short"),
    (SERIALIZE, "    if not den:\n", "    if False:\n", "a zero denominator read"),
    (SERIALIZE, "if conductor > 2 * len(coeffs) ** 2 or _totient(conductor) != len(coeffs):",
     "if conductor > 2 * len(coeffs) ** 2:", "no coordinate count"),
]


def check(mutants) -> list[str]:
    """The errors of the list: an old text missing from its file or not unique there."""
    errors = []
    for path, old, _, name in mutants:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            errors.append(f"{name}: the old text occurs {count} times in {path}")
    return errors


def run(mutant) -> tuple[str, str, float]:
    """(outcome, the first failing test or the last line of the suite, seconds)."""
    path, old, new, _ = mutant
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for name in COPIED:
            source, target = ROOT / name, Path(tmp) / name
            if source.is_dir():
                shutil.copytree(source, target,
                                ignore=shutil.ignore_patterns("__pycache__", "results"))
            else:
                shutil.copy2(source, target)
        mutated = Path(tmp) / path
        mutated.write_text(mutated.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
                   "--continue-on-collection-errors", "--ignore=tests/test_mutant_list.py"]
        start = time.perf_counter()
        try:
            done = subprocess.run(command, cwd=tmp, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed", f"timeout after {TIMEOUT_S} s", time.perf_counter() - start
    seconds = time.perf_counter() - start
    lines = done.stdout.splitlines()
    if done.returncode == 0:
        return "survived", lines[-1] if lines else "", seconds
    failures = (line.split(" - ")[0] for line in lines if line.startswith(("FAILED", "ERROR")))
    failed = next(failures, lines[-1] if lines else f"exit {done.returncode}")
    return "killed", failed, seconds


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        print("\n".join(name for *_, name in MUTANTS))
        return 0
    chosen = [m for m in MUTANTS if not argv or m[3] in argv]
    unknown = set(argv) - {m[3] for m in MUTANTS}
    errors = check(chosen) + [f"{name}: no such mutant" for name in sorted(unknown)]
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 2
    survived = 0
    for mutant in chosen:
        outcome, detail, seconds = run(mutant)
        survived += outcome == "survived"
        print(f"{outcome:8} {seconds:6.1f} s  {mutant[3]}: {detail}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
