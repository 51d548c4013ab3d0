"""The four benchmark workloads: seeded job lists and the checks on each job.

A job is one in-process `shiftlab.cli.main([...])` invocation or one public
library call (for `oracle-crosscheck`, the three calls that cross-check one
transport instance).  `Job.run` is the timed part; `Job.check` runs after it,
untimed, and returns None when the result is right or a one-line reason.

Named-example CLI jobs are compared with pins computed at the commit that
defined the benchmark (`pins.json`, rebuilt by `make_pins.py`).  Seeded jobs
are checked by invariants or, on `hashed-windows`, against references
computed here without calling shiftlab: the documented splitmix64 site hash,
gcd for visible points, the substitution words and the default metric's
shell weights.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("lattice-windows", "hashed-windows", "joining-solvers", "oracle-crosscheck")

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

PROKHOROV_SLACK = Fraction(1, 10**6)


@dataclass
class Job:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    collect: Callable[[object], object] = lambda raw: raw
    out_path: str | None = None


# --- named-example menus (pinned) -------------------------------------------

# window sizes are given for kind "centered" ({-n..n}^d); kind "boxes" uses 2n,
# so {0..2n}^d has the same number of sites and both kinds cost the same
LATTICE_SPECS = {
    "density": [[10, 20], [15, 30], [20, 40], [25, 50], [30, 60], [35, 70], [40, 80],
                [45], [50, 75], [60]],
    "dbar": [[10, 20], [15, 30], [20, 40], [25, 50], [30, 60], [35], [40], [45], [50],
             [55], [60], [70]],
    "besicovitch": [([2, 4], 6), ([3, 6], 5), ([4], 8), ([5], 6), ([3, 6], 4),
                    ([6], 5), ([6], 4), ([4], 9), ([5], 8), ([7], 3), ([3], 9),
                    ([7], 4)],
    "dprime": [(3, 6), (4, 6), (5, 5), (6, 4), (7, 3), (4, 8), (5, 6), (6, 5), (7, 4),
               (3, 9), (5, 4)],
    "empirical": [(20, 2), (30, 2), (40, 1), (45, 1), (50, 1), (15, 3), (20, 3),
                  (25, 2), (60, 1)],
}
LATTICE_SETS = ("visible", "prime-approx:2", "prime-approx:3", "prime-approx:4")
LATTICE_STAGES = (1, 2, 3, 4)
KINDS = ("boxes", "centered")
LATTICE_FIXED = [
    ["dbar", "--x", "visible", "--z", "prime-approx:2", "--kind", "centered",
     "--n-list", "300"],
    ["dprime", "--x", "visible", "--z", "prime-approx:2", "--kind", "boxes", "--N", "20"],
    ["convergence", "--N", "120", "--n-max", "3", "--stages", "4",
     "--entropy-sizes", "1,2,3"],
]


def _scaled(n: int, kind: str) -> int:
    return 2 * n if kind == "boxes" else n


def _csv_list(ns) -> str:
    return ",".join(str(n) for n in ns)


def lattice_argv(kind: str, spec, variant) -> list[str]:
    """CLI arguments of one lattice job; `variant` is (set or stage, box kind)."""
    which, box = variant
    if kind == "density":
        return ["density", "--set", which, "--kind", box,
                "--n-list", _csv_list(_scaled(n, box) for n in spec)]
    if kind == "empirical":
        n, w = spec
        return ["empirical", "--set", which, "--kind", box, "--N", str(_scaled(n, box)),
                "--window", str(w)]
    z = f"prime-approx:{which}"
    if kind == "dbar":
        return ["dbar", "--x", "visible", "--z", z, "--kind", box,
                "--n-list", _csv_list(_scaled(n, box) for n in spec)]
    if kind == "besicovitch":
        ns, r = spec
        return ["besicovitch", "--x", "visible", "--z", z, "--kind", box,
                "--n-list", _csv_list(_scaled(n, box) for n in ns), "--radius", str(r)]
    if kind == "dprime":
        n, r = spec
        return ["dprime", "--x", "visible", "--z", z, "--kind", box,
                "--N", str(_scaled(n, box)), "--radius", str(r)]
    raise ValueError(kind)


def _lattice_variant(kind: str, index: int, box: str) -> tuple:
    """Example set (or approximant stage) of the index-th spec of a kind, fixed so
    that every seed runs the same mix of rules; the seed picks only the box kind."""
    first = LATTICE_SETS if kind in ("density", "empirical") else LATTICE_STAGES
    return first[index % len(first)], box


def lattice_menu() -> list[list[str]]:
    """Every lattice argv a seed can pick; each one has a pin."""
    out = [list(a) for a in LATTICE_FIXED]
    for kind, specs in LATTICE_SPECS.items():
        for i, spec in enumerate(specs):
            for box in KINDS:
                out.append(lattice_argv(kind, spec, _lattice_variant(kind, i, box)))
    return out


RF_PAIRS = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 4)]
PRIME_PAIRS = [(1, 2), (1, 3), (2, 3)]


def joining_menu() -> list[list[str]]:
    """Named joining-solvers jobs; every pass runs each one once."""
    out: list[list[str]] = []
    for i, j in RF_PAIRS:
        for w, N in ((1, 120), (2, 90), (3, 60)):
            out.append(["transport", "--x", f"rf-sub:{i}", "--z", f"rf-sub:{j}",
                        "--N", str(N * (i + j)), "--window", str(w)])
    for i, j in ((2, 3), (3, 4), (2, 5)):
        out.append(["transport", "--x", f"rf-sub:{i}", "--z", f"rf-sub:{j}",
                    "--N", "240", "--window", "2", "--cost", "admissible"])
    for a, b in PRIME_PAIRS:
        for box, N in (("boxes", 24), ("centered", 12)):
            out.append(["transport", "--x", f"prime-approx:{a}", "--z", f"prime-approx:{b}",
                        "--kind", box, "--N", str(N), "--window", "2"])
    for i, j in RF_PAIRS:
        out.append(["rho-chain", "--x", f"rf-sub:{i}", "--z", f"rf-sub:{j}", "--k-max", "3"])
        out.append(["rho-chain", "--x", f"rf-sub:{i}", "--z", f"rf-sub:{j}", "--k-max", "2",
                    "--cost", "admissible"])
    for i, j in RF_PAIRS:
        for w, N in ((1, 60), (2, 100)):
            out.append(["prokhorov", "--x", f"rf-sub:{i}", "--z", f"rf-sub:{j}",
                        "--N", str(N), "--window", str(w)])
    for a, b in PRIME_PAIRS:
        out.append(["prokhorov", "--x", f"prime-approx:{a}", "--z", f"prime-approx:{b}",
                    "--N", "16", "--window", "2"])
    for k in (2, 3, 4):
        out.append(["omega", "--set", f"rf-sub:{k}", "--merge-tol", "0.05",
                    "--n-list", "8,64,512"])
        out.append(["omega", "--set", f"rf-sub:{k}", "--window", "2", "--merge-tol", "0.1",
                    "--n-list", "4,16,64,256"])
    out.append(["omega", "--set", "prime-approx:1", "--n-list", "2,4,8,16,32"])
    out.append(["omega", "--set", "prime-approx:2", "--window", "2",
                "--n-list", "6,12,24"])
    return out


# seeded joining-solvers jobs per pass: (command, count)
JOINING_SEEDED = (("nowy-check", 12), ("triangle-check", 12), ("glue-check", 12))


def _seeded_cli_argv(kind: str, index: int, rng: random.Random) -> list[str]:
    seed = str(rng.randrange(2**31))
    if kind == "nowy-check":
        # {0..2519} is a whole number of joint periods for any periods up to 10,
        # so the finite-window dbar is exact and the tolerance is never needed
        return ["nowy-check", "--pairs", "random:2", "--seed", seed, "--n", "2519",
                "--max-period", "10", "--k-max", "2"]
    if kind == "triangle-check":
        return ["triangle-check", "--seed", seed, "--trials", "6",
                "--support", str(3 + index % 3)]
    if kind == "glue-check":
        return ["glue-check", "--seed", seed, "--trials", "8"]
    raise ValueError(kind)


def pin_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_pins() -> dict:
    with open(PINS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


# --- checks of CLI output -----------------------------------------------------

def _csv_rows(text: str) -> list[list[str]]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "n,value,lo,hi":
        raise ValueError("missing CSV header")
    return [line.split(",") for line in lines[1:]]


def _fl(f: Fraction) -> str:
    return repr(float(f))


def check_cli(argv: list[str], pins: dict, code: int, text: str) -> str | None:
    cmd = argv[0]
    if code != 0:
        return f"exit code {code}"
    if cmd in ("nowy-check", "triangle-check", "glue-check"):
        return _check_seeded_report(cmd, json.loads(text))
    pin = pins.get(pin_key(argv))
    if pin is None:
        return "no pin for this job"
    if cmd in ("density", "dbar", "besicovitch"):
        rows = _csv_rows(text)
        if [int(r[0]) for r in rows] != pin["n"]:
            return "trace indices differ from the pin"
        for row, exact in zip(rows, pin["values"]):
            if cmd == "besicovitch":
                lo, hi = (Fraction(v) for v in exact)
                want = [_fl((lo + hi) / 2), _fl(lo), _fl(hi)]
            else:
                v = Fraction(exact)
                want = [_fl(v)] * 3
            if row[1:] != want:
                return f"row n={row[0]}: got {row[1:]}, pinned {want}"
        return None
    rep = json.loads(text)
    if cmd == "dprime":
        if rep["value"]["fraction"] != pin["value"] or rep["saturated"] != pin["saturated"]:
            return f"dprime {rep['value']['fraction']} != pinned {pin['value']}"
    elif cmd == "empirical":
        if rep["distribution"] != pin["distribution"]:
            return "empirical distribution differs from the pin"
    elif cmd == "convergence":
        got = [d["fraction"] for d in rep["approximant_convergence"]["dbar"]]
        if got != pin["dbar"] or rep["passed"] is not True:
            return f"convergence dbar {got} / passed {rep['passed']}"
    elif cmd == "transport":
        # a different pivot order may pick another optimal coupling: judge the value
        if rep["certified"] is not True or rep["value"]["fraction"] != pin["value"]:
            return f"transport {rep['value']['fraction']} != pinned {pin['value']}"
    elif cmd == "rho-chain":
        got = {k: rep.get(k) for k in ("chain", "oracle", "weight_coverage", "passed")}
        if got != pin:
            return "rho-chain report differs from the pin"
    elif cmd == "prokhorov":
        d, p = Fraction(rep["distance"]["fraction"]), Fraction(pin["distance"])
        if not p - PROKHOROV_SLACK <= d <= p:
            return f"prokhorov {d} outside [{p} - 1e-6, {p}]"
    elif cmd == "omega":
        if rep["count"] != pin["count"] or rep["representatives"] != pin["representatives"]:
            return f"omega count {rep['count']} != pinned {pin['count']}"
    else:
        return f"no check for {cmd}"
    return None


def _check_seeded_report(cmd: str, rep: dict) -> str | None:
    if rep.get("passed") is not True:
        return f"{cmd} reports passed={rep.get('passed')}"
    for item in rep["items"]:
        if item["passed"] is not True:
            return f"{cmd} item failed"
        if cmd == "nowy-check":
            # the window is a whole number of joint periods, so dbar is exact
            # and dominates the joining infimum without the tolerance
            oracle = Fraction(item["oracle"]["fraction"])
            if any(Fraction(c["fraction"]) > oracle for c in item["chain"]):
                return "nowy-check chain exceeds the oracle"
            if Fraction(item["dbar"]["fraction"]) < oracle:
                return "nowy-check dbar below the oracle"
        elif cmd == "triangle-check":
            d12, d23, d13, glued = (Fraction(item[k]["fraction"])
                                    for k in ("d12", "d23", "d13", "glued_cost"))
            if d13 > d12 + d23 or d13 > glued:
                return "triangle-check inequality violated"
        elif cmd == "glue-check":
            if Fraction(item["glued_cost"]["fraction"]) > Fraction(item["bound"]["fraction"]):
                return "glue-check glued cost above the bound"
    return None


# --- independent references for hashed-windows ------------------------------

_MASK = (1 << 64) - 1


def _mix64(v: int) -> int:
    v = (v + 0x9E3779B97F4A7C15) & _MASK
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _MASK
    return v ^ (v >> 31)


def hashed_rule(seed: int):
    """Site rule of random_config(dim, seed): splitmix64 of (seed, site), mod 2."""
    start = _mix64(seed & _MASK)

    def sym(g):
        h = start
        for c in g:
            h = _mix64(h ^ (c & _MASK))
        return h % 2

    return sym


def visible_rule(g) -> int:
    return int(math.gcd(g[0], g[1]) == 1)


def rf_word(k: int) -> tuple[int, ...]:
    """Stage-k substitution word: r copies of the previous word, the last one complemented."""
    w = (0,)
    for r in (3, 5, 9, 17, 33)[: k - 1]:
        w = w * (r - 1) + tuple(1 - s for s in w)
    return w


def _bounds(n: int, kind: str) -> tuple[int, int]:
    """Coordinate range of the Folner box F_n of the given kind."""
    return (-n, n) if kind == "centered" else (0, n)


def _shell_size(dim: int, r: int) -> int:
    return 1 if r == 0 else (2 * r + 1) ** dim - (2 * r - 1) ** dim


def _ball_numerators(dim: int, radius: int) -> tuple[int, dict[int, int]]:
    """Default-metric weights 2^-r / (2 shell_size(r)) over one denominator."""
    den = math.lcm(*(2**r * 2 * _shell_size(dim, r) for r in range(radius + 1)))
    return den, {r: den // (2**r * 2 * _shell_size(dim, r)) for r in range(radius + 1)}


def site_lower_sums(mismatch, dim: int, n: int, kind: str, radius: int) -> tuple[list[int], int]:
    """Numerators of d_lo(g x, g z) for every g in F_n, and their denominator."""
    lo, hi = _bounds(n, kind)
    den, shell_num = _ball_numerators(dim, radius)
    offsets = [(h, shell_num[max(abs(c) for c in h)])
               for h in itertools.product(range(-radius, radius + 1), repeat=dim)]
    bad = {g for g in itertools.product(range(lo - radius, hi + radius + 1), repeat=dim)
           if mismatch(g)}
    sums = []
    for g in itertools.product(range(lo, hi + 1), repeat=dim):
        acc = 0
        for h, w in offsets:
            if tuple(a + b for a, b in zip(g, h)) in bad:
                acc += w
        sums.append(acc)
    return sums, den


def besicovitch_reference(sums: list[int], den: int, radius: int) -> tuple[Fraction, Fraction]:
    tail = Fraction(1, 2**radius)
    count = len(sums)
    mult: dict[int, int] = {}
    for s in sums:
        mult[s] = mult.get(s, 0) + 1
    lo = Fraction(sum(sums), den * count)
    hi = sum((m * min(Fraction(s, den) + tail, Fraction(1)) for s, m in mult.items()),
             Fraction(0)) / count
    return lo, hi


def dprime_reference(sums: list[int], den: int) -> tuple[Fraction, bool]:
    grid = sorted((Fraction(10001, 10000),) + tuple(Fraction(k, 200) for k in range(200, 0, -1)))
    ordered = sorted(sums)
    count = len(ordered)
    for delta in grid:
        # s / den >= delta exactly when the integer s >= ceil(delta * den)
        hits = count - bisect_left(ordered, math.ceil(delta * den))
        if Fraction(hits, count) < delta:
            return delta, False
    return grid[-1], True


def _window_points(dim: int, n: int, kind: str):
    lo, hi = _bounds(n, kind)
    return itertools.product(range(lo, hi + 1), repeat=dim)


def empirical_reference(sym, dim: int, n: int, kind: str, w: int) -> dict:
    sites = sorted(itertools.product(range(w), repeat=dim))
    counts: dict[tuple, int] = {}
    total = 0
    for f in _window_points(dim, n, kind):
        pat = tuple(sym(tuple(a + b for a, b in zip(s, f))) for s in sites)
        counts[pat] = counts.get(pat, 0) + 1
        total += 1
    return {p: Fraction(c, total) for p, c in counts.items()}


# --- workload builders --------------------------------------------------------

class Context:
    """What the job builders need: the package, pins and an output directory."""

    def __init__(self, pkg, out_dir: str, seed: int, workload: str):
        self.pkg = pkg
        self.out_dir = out_dir
        self.rng = random.Random(f"{workload}/{seed}")
        self._pins = None

    @property
    def pins(self) -> dict:
        if self._pins is None:
            self._pins = load_pins()
        return self._pins

    def cli_job(self, argv: list[str], index: int) -> Job:
        out = os.path.join(self.out_dir, f"job{index}.out")
        full = list(argv) + ["--out", out]
        pkg, pins = self.pkg, self.pins

        def collect(code):
            if code != 0:
                return code, ""
            with open(out, "r", encoding="utf-8") as fh:
                text = fh.read()
            os.remove(out)
            return code, text

        return Job(
            kind=argv[0],
            label=pin_key(argv),
            run=lambda: pkg.cli.main(full),
            collect=collect,
            check=lambda res: check_cli(argv, pins, *res),
            out_path=out,
        )


def build_lattice(ctx: Context) -> list[Job]:
    argvs = []
    for kind, specs in LATTICE_SPECS.items():
        for i, spec in enumerate(specs):
            variant = _lattice_variant(kind, i, ctx.rng.choice(KINDS))
            argvs.append(lattice_argv(kind, spec, variant))
    argvs += [list(a) for a in LATTICE_FIXED]
    return [ctx.cli_job(a, i) for i, a in enumerate(argvs)]


def build_joining(ctx: Context) -> list[Job]:
    argvs = joining_menu()
    for kind, count in JOINING_SEEDED:
        argvs += [_seeded_cli_argv(kind, i, ctx.rng) for i in range(count)]
    return [ctx.cli_job(a, i) for i, a in enumerate(argvs)]


# hashed-windows: (job kind, pair, size parameters); n is a centered half-width
# for the 2-D pairs and a box length for the 1-D pair
HASHED_SPECS = {
    "random2": {
        "dbar": [30, 50, 70, 80, 90], "density": [[40, 80], [90], [60]],
        "besicovitch": [(4, 6), (6, 5), (7, 4), (5, 5)],
        "dprime": [(4, 6), (6, 5), (7, 4), (5, 5)],
        "empirical": [(30, 2), (50, 1), (20, 3)],
    },
    "patched": {
        "dbar": [40, 80, 120, 140, 160], "density": [[60, 120], [150], [90]],
        "besicovitch": [(6, 6), (10, 5), (10, 4), (8, 5)],
        "dprime": [(6, 6), (10, 5), (10, 4), (8, 5)],
        "empirical": [(40, 2), (60, 1), (30, 3)],
    },
    "line": {
        "dbar": [5000, 10000, 20000, 30000, 40000],
        "density": [[10000, 20000], [40000], [30000]],
        "besicovitch": [(1000, 12), (2000, 8), (3000, 6), (3000, 5)],
        "dprime": [(1000, 12), (2000, 8), (3000, 6), (3000, 5)],
        "empirical": [(5000, 4), (10000, 3), (15000, 2)],
    },
}
PATCH_SITES = 150
PATCH_SPAN = 60
# fixed, so that the cost of a pass does not depend on the seed
HASHED_STAGE = 4


def build_hashed(ctx: Context) -> list[Job]:
    pkg, rng = ctx.pkg, ctx.rng
    ex, cf, gr = pkg.examples, pkg.configs, pkg.groups
    s1, s2, s3 = (rng.randrange(1, 2**31) for _ in range(3))
    patch = {}
    while len(patch) < PATCH_SITES:
        g = (rng.randint(-PATCH_SPAN, PATCH_SPAN), rng.randint(-PATCH_SPAN, PATCH_SPAN))
        patch[g] = rng.randrange(2)
    visible = ex.visible_points_config()
    word = rf_word(HASHED_STAGE)
    pairs = {
        "random2": (ex.random_config(2, s1), ex.random_config(2, s2),
                    hashed_rule(s1), hashed_rule(s2), 2, "centered"),
        "patched": (cf.patched_config(visible, patch), visible,
                    lambda g: patch.get(g, visible_rule(g)), visible_rule, 2, "centered"),
        "line": (ex.random_config(1, s3), ex.rf_substitution(ex.SubstitutionStage(), HASHED_STAGE),
                 hashed_rule(s3), lambda g: word[g[0] % len(word)], 1, "boxes"),
    }
    jobs: list[Job] = []
    for pair, specs in HASHED_SPECS.items():
        x, z, xs, zs, dim, kind = pairs[pair]
        F = gr.make_box_folner(dim, kind)
        for kind_name, params in specs.items():
            for p in params:
                jobs.append(_hashed_job(pkg, pair, kind_name, p, x, z, xs, zs, dim, kind, F))
    return jobs


def _hashed_job(pkg, pair, kind_name, p, x, z, xs, zs, dim, kind, F) -> Job:
    """One library call on a hashed pair, checked against a reference computed here."""
    mism = lambda g: xs(g) != zs(g)  # noqa: E731
    met = pkg.metrics

    def fraction_of(pred, n):
        lo, hi = _bounds(n, kind)
        hits = sum(1 for g in _window_points(dim, n, kind) if pred(g))
        return Fraction(hits, (hi - lo + 1) ** dim)

    if kind_name == "dbar":
        n = p
        run = lambda: met.dbar_estimate(x, z, F, n)  # noqa: E731
        got = lambda res: res  # noqa: E731
        reference = lambda: fraction_of(mism, n)  # noqa: E731
    elif kind_name == "density":
        ns = list(p)
        run = lambda: met.upper_density(lambda g: x.value(g) == 1, F, ns)  # noqa: E731
        got = lambda res: [(r.n, r.value, r.lo, r.hi) for r in res.rows]  # noqa: E731

        def reference():
            vals = [fraction_of(lambda g: xs(g) == 1, n) for n in ns]
            return [(n, v, v, v) for n, v in zip(ns, vals)]
    elif kind_name in ("besicovitch", "dprime"):
        n, r = p
        if kind_name == "besicovitch":
            run = lambda: met.besicovitch_estimate(x, z, F, n, radius=r)  # noqa: E731
            got = tuple
            reference = lambda: besicovitch_reference(  # noqa: E731
                *site_lower_sums(mism, dim, n, kind, r), r)
        else:
            run = lambda: met.besicovitch_prime_estimate(x, z, F, n, radius=r)  # noqa: E731
            got = lambda res: (res.value, res.saturated)  # noqa: E731
            reference = lambda: dprime_reference(  # noqa: E731
                *site_lower_sums(mism, dim, n, kind, r))
    elif kind_name == "empirical":
        n, w = p
        window = F.set_at(n)
        W = pkg.groups.FiniteSubset.box((0,) * dim, (w - 1,) * dim)
        run = lambda: pkg.measures.empirical_measure(x, window, W)  # noqa: E731
        got = lambda res: res.weights  # noqa: E731
        reference = lambda: empirical_reference(xs, dim, n, kind, w)  # noqa: E731
    else:
        raise ValueError(kind_name)

    memo: dict = {}

    def check(res):
        if "want" not in memo:          # computed once; later passes reuse it
            memo["want"] = reference()
        value = got(res)
        return None if value == memo["want"] else f"{value} != reference {memo['want']}"

    return Job(kind=kind_name, label=f"{kind_name} {pair} {p}", run=run, check=check)


# oracle-crosscheck: the acceptance criterion-05 instance shape
ORACLE_INSTANCES = 4000
ORACLE_ALPHABET = 6
ORACLE_MAX_SUPPORT = 4
ORACLE_MAX_DEN = 6
# shapes with a larger table_bound are not drawn; see README.md for why
ORACLE_MAX_TABLES = 300


def _partitions(total: int, parts: int, top: int | None = None) -> list[tuple[int, ...]]:
    """Non-increasing tuples of `parts` positive integers summing to `total`."""
    top = total if top is None else top
    if parts == 1:
        return [(total,)] if 1 <= total <= top else []
    return [(first,) + rest
            for first in range(min(top, total - parts + 1), 0, -1)
            for rest in _partitions(total - first, parts - 1, first)]


def _sides() -> list[tuple[tuple[int, tuple[int, ...]], Fraction]]:
    """Every marginal shape (denominator, masses) with its criterion-05 odds:
    denominator uniform on 1..6, support uniform on 1..min(4, den), cut points
    uniform, so a multiset of masses weighs as many cuts as it has orderings."""
    out = []
    for den in range(1, ORACLE_MAX_DEN + 1):
        top = min(ORACLE_MAX_SUPPORT, den, ORACLE_ALPHABET)
        for k in range(1, top + 1):
            for masses in _partitions(den, k):
                orders = math.factorial(k)
                for m in set(masses):
                    orders //= math.factorial(masses.count(m))
                odds = Fraction(orders, ORACLE_MAX_DEN * top * math.comb(den - 1, k - 1))
                out.append(((den, masses), odds))
    return out


def table_bound(mu_side: tuple, nu_side: tuple) -> int:
    """Bound on the integer tables the exhaustive search can complete.

    At the common denominator D a table is fixed by all rows but one, and row
    i has at most C(r_i + n - 1, n - 1) fillings; leaving out the row with
    the fewest gives a bound for any order of the rows.  The same holds by
    columns, and the smaller of the two is taken.
    """
    (mu_den, mu_m), (nu_den, nu_m) = mu_side, nu_side
    den = math.lcm(*(Fraction(m, d).denominator
                     for d, ms in ((mu_den, mu_m), (nu_den, nu_m)) for m in ms))

    def by(rows: tuple, row_den: int, n: int) -> int:
        fills = [math.comb(m * den // row_den + n - 1, n - 1) for m in rows]
        return math.prod(fills) // min(fills)

    return min(by(mu_m, mu_den, len(nu_m)), by(nu_m, nu_den, len(mu_m)))


def _shape_quotas() -> list[tuple]:
    """ORACLE_INSTANCES instance shapes (mu side, nu side, random cost?), in proportion
    to the criterion-05 odds among shapes with table_bound <= ORACLE_MAX_TABLES.
    The quotas are fixed, so every seed runs the same multiset of shapes."""
    sides = _sides()
    shapes = [((a, b, rc), pa * pb) for a, pa in sides for b, pb in sides
              for rc in (False, True) if table_bound(a, b) <= ORACLE_MAX_TABLES]
    total = sum(p for _, p in shapes)
    exact = [p * ORACLE_INSTANCES / total for _, p in shapes]
    quotas = [int(e) for e in exact]
    by_remainder = sorted(range(len(shapes)), key=lambda i: exact[i] - quotas[i], reverse=True)
    for i in by_remainder[: ORACLE_INSTANCES - sum(quotas)]:
        quotas[i] += 1
    return [shape for (shape, _), q in zip(shapes, quotas) for _ in range(q)]


def _weights(rng: random.Random, side: tuple) -> dict:
    """Masses of one side put on seeded symbols in a seeded order."""
    den, masses = side
    symbols = rng.sample(range(ORACLE_ALPHABET), len(masses))
    order = list(masses)
    rng.shuffle(order)
    return {(s,): Fraction(m, den) for s, m in zip(symbols, order)}


def oracle_instances(rng: random.Random) -> list[tuple]:
    """(mu weights, nu weights, symmetric cost table or None for Hamming): the
    shapes are fixed; the seed picks the symbols, their masses and the costs
    (and `build` shuffles the instances)."""
    out = []
    for mu_side, nu_side, random_cost in _shape_quotas():
        table = None
        if random_cost:
            table = {}
            for a in range(ORACLE_ALPHABET):
                for b in range(a + 1, ORACLE_ALPHABET):
                    table[(a, b)] = table[(b, a)] = Fraction(rng.randint(0, 12), 12)
        out.append((_weights(rng, mu_side), _weights(rng, nu_side), table))
    return out


def build_oracle(ctx: Context) -> list[Job]:
    pkg = ctx.pkg
    W = pkg.groups.FiniteSubset.box((0,), (0,))
    PD = pkg.measures.PatternDistribution
    ham = pkg.transport.hamming_per_site_cost(W.sorted_points())
    jobs = []
    for i, (mu_w, nu_w, table) in enumerate(oracle_instances(ctx.rng)):
        mu, nu = PD(W, mu_w), PD(W, nu_w)
        if table is None:
            cost = ham
        else:
            cost = (lambda t: lambda p, q: Fraction(0) if p == q else t[(p[0], q[0])])(table)
        jobs.append(_oracle_job(pkg, i, mu, nu, cost, "hamming" if table is None else "random"))
    return jobs


def _oracle_job(pkg, i, mu, nu, cost, cost_kind) -> Job:
    def run():
        t = pkg.transport
        res = t.min_cost_transport(mu, nu, cost)
        certified = t.verify_transport_certificate(res, cost)
        return res.value, certified, t.brute_force_min_cost(mu, nu, cost)

    def check(res):
        value, certified, best = res
        if certified is not True:
            return "certificate rejected"
        return None if value == best else f"simplex {value} != oracle {best}"

    return Job(kind=f"oracle-{cost_kind}", label=f"instance {i}", run=run, check=check)


BUILDERS = {
    "lattice-windows": build_lattice,
    "hashed-windows": build_hashed,
    "joining-solvers": build_joining,
    "oracle-crosscheck": build_oracle,
}


def build(workload: str, ctx: Context) -> tuple[Job, list[Job]]:
    """The untimed warm-up job and the seeded job list of one workload.

    Builders list a small job of fixed size first; it is also the warm-up, so
    set-up time does not depend on the seed.  The list is then shuffled."""
    jobs = BUILDERS[workload](ctx)
    warmup = jobs[0]
    ctx.rng.shuffle(jobs)
    return warmup, jobs
