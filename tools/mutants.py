"""Mutation harness for the exact kernels: each mutant must be killed.

Each row of MUTANTS names a module of `src/shiftlab`, an exact source
snippet that occurs once in it, the snippet's replacement, and the tests
expected to fail once the replacement is made.  For every mutant the
script copies `src/` to a temporary directory, applies the one
replacement there, runs the named tests against the copy, and prints
`killed` (some test failed) or `survived` (all passed) with the time the
run took.  The tree itself is never written: neither its sources nor
its Hypothesis example database.  Each run gets an empty database and a
fixed Hypothesis seed, so a mutant is judged by its own tests' search
alone, not by a counterexample an earlier run left, and the verdicts
can be reproduced.

    python tools/mutants.py

It exits 1 if a mutant survived.  It is standard-library only and not
part of Tier-1; `tests/test_mutants.py` checks in Tier-1 that every
snippet still occurs exactly once, so a refactor carries its mutants
along.  A survivor marks a missing test: it stays in the table.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "shiftlab"
# a mutant whose tests run longer than this is counted as killed
TIMEOUT_S = 300
HYPOTHESIS_SEED = 0


class Mutant(NamedTuple):
    name: str
    module: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = [
    # D' decides each step j/200 in integers
    Mutant(
        "dprime-ceil",
        "metrics.py",
        "bisect_left(nums, -(-j * den // _DPRIME_STEPS))",
        "bisect_left(nums, j * den // _DPRIME_STEPS)",
        ("tests/test_bulk.py::test_dprime_ties_match_the_fraction_walk",),
    ),
    Mutant(
        "dprime-strict",
        "metrics.py",
        "if _DPRIME_STEPS * above < j * count:",
        "if _DPRIME_STEPS * above <= j * count:",
        ("tests/test_bulk.py::test_dprime_ties_match_the_fraction_walk",),
    ),
    Mutant(
        "dprime-top",
        "metrics.py",
        "return DPrimeEstimate(Fraction(10001, 10000), False)",
        "return DPrimeEstimate(Fraction(1), False)",
        ("tests/test_metrics.py::test_dprime_above_every_step_when_each_site_reaches_distance_one",),
    ),
    # the visible points' row 0 is 1 at n = -1 and n = 1
    Mutant(
        "visible-row-0",
        "examples.py",
        "for n in (-1, 1) if n0 <= n <= n1)",
        "for n in (1,) if n0 <= n <= n1)",
        ("tests/test_bulk.py::test_sieve_rows_across_the_axes",
         "tests/test_bulk.py::test_sieve_rows_match_the_site_rule"),
    ),
    Mutant(
        "mismatch-bound-prime",
        "examples.py",
        "for p in _small_primes(N * N)[n:])",
        "for p in _small_primes(N * N)[n + 1:])",
        ("tests/test_examples.py::test_mismatch_bound_sums_the_prime_lattices_in_the_box",
         "tests/test_examples.py::test_mismatch_bound_holds_for_the_first_five_approximants"),
    ),
    # Prokhorov is min(level k / E, 1 - M(level k-1))
    Mutant(
        "prokhorov-level-below",
        "measures.py",
        "        best = min(best, 1 - coupled(lo - 1))",
        "        pass",
        ("tests/test_measures.py::test_prokhorov_is_the_least_feasible_epsilon",
         "tests/test_measures.py::test_prokhorov_distances_are_pinned"),
    ),
    # few-valued window codes are counted one possible code at a time
    Mutant(
        "few-codes-skip-0",
        "measures.py",
        "for code in range(1 << bits)",
        "for code in range(1, 1 << bits)",
        ("tests/test_bulk.py::test_pattern_codes_match_per_site_across_lanes",
         "tests/test_bulk.py::test_pair_joining_codes_match_per_site_across_lanes"),
    ),
    # and added in the order the per-band count would add them
    Mutant(
        "few-codes-order",
        "measures.py",
        "for pos, code in sorted((joined.find(code), code) for code in range(1 << bits)):",
        "for pos, code in ((joined.find(code), code) for code in range(1 << bits)):",
        ("tests/test_bulk.py::test_few_codes_come_in_the_order_the_band_count_gives",),
    ),
    # the brute-force oracle's last column takes what is left when it can
    Mutant(
        "brute-last-column",
        "transport.py",
        "if rem[j] >= left:",
        "if rem[j] > left:",
        ("tests/test_transport.py::test_brute_force_equals_every_table_minimum",
         "tests/test_transport.py::test_transport_matches_brute_force_on_seeded_instances"),
    ),
    # a certificate's potentials may be tight, u_p + v_q = c_pq
    Mutant(
        "certificate-dual-ge",
        "transport.py",
        "if any(map(gt, map(add,",
        "if any(map(lambda s, c: s >= c, map(add,",
        ("tests/test_transport.py::test_transport_certificate_is_strong_duality",
         "tests/test_transport.py::test_transport_one_site_hamming"),
    ),
    # Bland's rule: the lexicographically smallest leaving cell
    Mutant(
        "simplex-leaving-max",
        "transport.py",
        "leaving = min(cell for cell in minus_cells if flows[cell] == theta)",
        "leaving = max(cell for cell in minus_cells if flows[cell] == theta)",
        ("tests/test_transport.py::test_pinned_solves_are_unchanged",
         "tests/test_transport.py::test_seeded_solves_hash_is_unchanged"),
    ),
]


def run(mutant: Mutant) -> tuple[bool, float]:
    """(killed, seconds) for one mutant, run against a mutated copy of src/."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "shiftlab" / mutant.module
        text = path.read_text()
        if text.count(mutant.snippet) != 1:
            raise SystemExit(f"{mutant.name}: snippet does not occur exactly once")
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
                   HYPOTHESIS_STORAGE_DIRECTORY=str(Path(tmp) / "hypothesis"))
        # the pyproject's `pythonpath = src` would put the tree's own src first
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "-o", f"pythonpath={src}", f"--hypothesis-seed={HYPOTHESIS_SEED}",
               *mutant.tests]
        t0 = time.perf_counter()
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True, time.perf_counter() - t0
        seconds = time.perf_counter() - t0
    # 0: every test passed, 1: some test failed; any other code is a
    # usage or collection error, which says nothing about the mutant
    if done.returncode not in (0, 1):
        raise SystemExit(f"{mutant.name}: pytest exited {done.returncode}\n{done.stdout}")
    return done.returncode == 1, seconds


def main() -> int:
    survived = 0
    for mutant in MUTANTS:
        killed, seconds = run(mutant)
        survived += not killed
        verdict = "killed" if killed else "survived"
        print(f"{verdict:<9}{seconds:7.1f}s  {mutant.name}  ({mutant.module})", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
