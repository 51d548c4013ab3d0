"""Command-line experiment runner.

Each subcommand's parameters are declared once, in `COMMANDS`; the parser
adds one `--key` flag per parameter, and a flat key=value file given with
--config may set the same keys (and `out`).  The parser is built for the
argv it will parse: flags are added at build time, to the subcommand that
argv names alone, as argparse parses and shows no other.  A value is taken
from the flag, else from the file, else from the built-in default, and is
cast and checked by `_resolve` whichever source it came from.  The
resolved configuration is embedded in every JSON report so runs are
reproducible from their own output.

A handler is a function of its resolved configuration alone: it returns the
`EstimateTrace` it computed or the body of its JSON report.  `main` renders
the result (a trace as CSV, a body inside the report envelope), writes it
atomically to --out or to stdout, and sets the exit code: 2 when the body's
`passed` or `certified` is false, 1 for usage errors, 0 otherwise.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import shutil
import sys
from fractions import Fraction
from random import Random
from typing import Callable, NamedTuple, Sequence

from . import __version__
from .configs import DEFAULT_RADIUS, Configuration, default_metric
from .examples import (
    SubstitutionStage,
    block_entropy,
    cortez_petite_check,
    random_periodic_pair,
    resolve_example_name,
    rf_substitution,
    visible_points_config,
    prime_approx_config,
    prime_approx_mismatch_bound,
)
from .groups import BOX_KINDS, FolnerSequence, box_set, make_box_folner, temperedness_ratio
from .measures import (
    PatternDistribution,
    empirical_measure,
    omega_hat_approx,
    prokhorov_distance,
    pattern_metric,
)
from .metrics import (
    EstimateTrace,
    besicovitch_prime_estimate,
    besicovitch_trace,
    dbar_estimate,
    dbar_trace,
    default_ball_bits,
    default_delta_grid,
    exact_mismatch_density,
    lower_sum_work,
    upper_density,
)
from .transport import (
    check_db_ge_rho,
    glue_couplings,
    hamming_per_site_cost,
    min_cost_transport,
    oracle_box,
    PeriodicOrbitMeasure,
    periodic_rho_oracle,
    rho_bar_lower,
    rho_triangle_check,
    verify_transport_certificate,
)

SCHEMA = "shiftlab-report/1"

# A window job whose estimated site reads exceed this is refused before it
# reads any: the sites of its Folner sets times the sites s^d summed over
# the box sides s it reads around each site, or times the number of pairs
# for nowy-check's dbar windows.  A Besicovitch or D' job is charged the
# 64-bit word operations of its bulk lower sums, one site read each
# (`metrics.lower_sum_work`, see `_window_inputs`).
SITE_BUDGET = 10**8


def _site_reads(F: FolnerSequence, ns: Sequence[int], per_site: int = 1) -> int:
    """per_site times the sites of F_n summed over ns."""
    return per_site * sum(F.set_at(n).size() for n in ns)


def _within_budget(estimate: int) -> None:
    """Refuse, as a usage error, a job over SITE_BUDGET site reads."""
    if estimate > SITE_BUDGET:
        raise ValueError(
            f"job would read about {estimate} sites, over the limit of {SITE_BUDGET}"
        )


# A job whose largest solve has more support pairs than this is refused
# before it solves: the simplex over 10,379 cells took 1.4 s (2 vCPU,
# Python 3.11.7), and its time grows faster than the cells.
CELL_BUDGET = 10_000


def _within_cell_budget(mu: PatternDistribution, nu: PatternDistribution) -> None:
    """Refuse, as a usage error, a solve over more than CELL_BUDGET cells."""
    cells = len(mu.counts) * len(nu.counts)
    if cells > CELL_BUDGET:
        raise ValueError(
            f"solve would have {cells} cells, over the limit of {CELL_BUDGET}"
        )


# Upper bounds on the knobs that no budget charges, checked in their casts
# (times on 2 vCPUs, Python 3.11.7).  `--trials` of `glue-check` and
# `triangle-check`: 1000 trials took 0.20-0.24 s and, at `--support 8`,
# 0.53-0.72 s over seeds 0-2.  `--k-max` and `nowy-check --max-period`:
# nowy-check's 20 default pairs at k-max 16 and max-period 24 took
# 0.47-0.83 s over seeds 1-7, and one pair of periods 24 and 23, the largest
# joint period, 0.07 s, so 20 such pairs about 1.4 s; `rho-chain --k-max 16`
# took up to 1.4 s (prime-approx:2 with itself) under CELL_BUDGET.
# `tempered --n`: its ratios j = 1..n-1 take n(n-1)/2 box unions, and
# n = 400 (79,800 unions) took 1.4-2.0 s in z:1, z:2 and z:3.
# `tempered --group z:d`: d = 8 at n = TEMPERED_N_MAX took 2.5 s, against
# 1.4 s for d = 4.  `nowy-check --pairs random:COUNT`:
# each pair costs a chain of solves and an oracle whatever n is, so the site
# budget cannot charge it; 50 pairs at k-max 16 and max-period 24 took
# 1.3-2.3 s over seeds 1-7, and 0.06-0.09 s at the defaults and n = 1.
TRIALS_MAX = 1000
K_MAX = 16
PERIOD_MAX = 24
TEMPERED_N_MAX = 400
GROUP_DIM_MAX = 8
PAIRS_MAX = 50


class _Required:
    def __repr__(self) -> str:  # pragma: no cover
        return "<required>"


REQUIRED = _Required()


class Param(NamedTuple):
    """A subcommand parameter: flag `--key` and config-file key `key`."""

    key: str
    cast: Callable[[str], object]
    default: object
    help: str | None = None


def _load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def _resolve(args: argparse.Namespace, params: Sequence[Param]) -> tuple[dict, str | None]:
    """Return the cast configuration and the output path.

    Flags win over the config file, which wins over the defaults; `out`
    comes from the same two sources but is not part of the configuration.
    """
    file_cfg = _load_config_file(args.config) if args.config else {}
    known = {p.key for p in params}
    for key in file_cfg:
        if key not in known and key != "out":
            raise ValueError(f"config file key {key!r} not recognized by this command")
    resolved: dict = {}
    for key, cast, default, _ in params:
        text = getattr(args, key.replace("-", "_"))
        if text is None:
            text = file_cfg.get(key)
        if text is not None:
            try:
                resolved[key] = cast(text)
            except (ValueError, ZeroDivisionError) as e:
                raise ValueError(f"{key}: {e}") from None
        elif default is REQUIRED:
            raise ValueError(f"missing required parameter --{key}")
        else:
            resolved[key] = default
    out = args.out if args.out is not None else file_cfg.get("out")
    return resolved, out


def _int_list(text: str) -> list[int]:
    vals = [int(t) for t in text.replace(",", " ").split()]
    if not vals:
        raise ValueError("empty integer list")
    return vals


def _side_list(text: str) -> list[int]:
    """Box sides, each at least 1: a side below 1 would cancel others in
    the site estimate, which sums s^d over the sides."""
    sides = _int_list(text)
    if min(sides) < 1:
        raise ValueError(f"sides must be >= 1, got {min(sides)}")
    return sides


def _at_least(cast: Callable[[str], object], lo, hi=None) -> Callable[[str], object]:
    """`cast`, then refuse a value below lo or, when hi is given, above hi."""
    def bounded(text: str):
        v = cast(text)
        if v < lo:
            raise ValueError(f"must be >= {lo}, got {v}")
        if hi is not None and v > hi:
            raise ValueError(f"must be <= {hi}, got {v}")
        return v
    return bounded


def _random_pairs(text: str) -> str:
    """Check 'random:COUNT' with 1 <= COUNT <= PAIRS_MAX; the text itself
    is kept, as reports embed it."""
    kind, _, count = text.partition(":")
    if kind != "random" or not count.isdigit() or int(count) < 1:
        raise ValueError(f"must look like random:COUNT with COUNT >= 1, got {text!r}")
    if int(count) > PAIRS_MAX:
        raise ValueError(f"COUNT must be <= {PAIRS_MAX}, got {int(count)}")
    return text


def _ladder(n: int) -> list[int]:
    out = sorted({max(1, n // 8), max(1, n // 4), max(1, n // 2), n})
    return out


def _one_of(*choices: str) -> Callable[[str], str]:
    def cast(text: str) -> str:
        if text not in choices:
            raise ValueError(f"must be one of {choices}, got {text!r}")
        return text
    return cast


def _group(text: str) -> int:
    """Parse 'z:d' into the dimension d, 1 <= d <= GROUP_DIM_MAX."""
    if not text.startswith("z:"):
        raise ValueError(f"must look like z:d, got {text!r}")
    dim = int(text.split(":", 1)[1])
    if not 1 <= dim <= GROUP_DIM_MAX:
        raise ValueError(f"dimension must be in 1..{GROUP_DIM_MAX}, got {dim}")
    return dim


def _frac(f: Fraction) -> dict:
    return {"fraction": f"{f.numerator}/{f.denominator}", "float": float(f)}


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


# numbers the temp files of this process's writes
_TEMP_NUMBERS = itertools.count()


def _atomic_write(path: str, text: str) -> None:
    """Write through a new temp file beside the target, then rename it
    over the target; the temp file is removed on any error.

    The temp file is created with O_EXCL and mode 0666, so it gets the
    mode open() would give under the process umask, which is never
    changed.  A taken temp name is skipped, never written.  There is no
    fsync: a report can be rebuilt from the configuration it embeds, and
    an fsync can stall for tens of milliseconds.  An OSError names `path`,
    not the temp file, whose name changes with the pid.
    """
    data = text.encode("utf-8")
    try:
        for n in _TEMP_NUMBERS:
            tmp = f"{path}.{os.getpid()}.{n}.tmp"
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                break
            except FileExistsError:
                pass
        try:
            with open(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def _report(command: str, config: dict, body: dict) -> str:
    doc = {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "config": {k: _jsonable(v) for k, v in config.items()},
    }
    doc.update(body)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# --- subcommand implementations -------------------------------------------
# Each takes the resolved configuration and returns either the trace it
# computed or the body of its JSON report; `main` writes either one.


def _window_inputs(
    cfg: dict, ns: Sequence[int], sides: Sequence[int] = (1,)
) -> tuple[Configuration | FolnerSequence, ...]:
    """(x, F) for a job on `set`, or (x, z, F) for one on `x` and `z`: the
    named examples and the `kind` box Folner sequence in x's dimension d,
    once the job's reads are checked against SITE_BUDGET: the sum over n
    of |F_n| times the sum over the sides s of s^d, or, for a job with a
    `radius` R, the word operations of the bulk lower sums over the F_n
    under the default metric.  Its mass and coefficients have R + 1 bits
    at least, so a first charge at that size refuses a large R before
    its numerators are built."""
    names = [cfg["set"]] if "set" in cfg else [cfg["x"], cfg["z"]]
    configs = [resolve_example_name(name) for name in names]
    d = configs[0].dim
    F = make_box_folner(d, cfg["kind"])
    if "radius" in cfg:
        R = cfg["radius"]
        windows = [F.set_at(n) for n in ns]
        _within_budget(lower_sum_work(windows, R, R + 1, R + 1))
        reads = lower_sum_work(windows, R, *default_ball_bits(d, R))
    else:
        reads = _site_reads(F, ns, sum(s**d for s in sides))
    _within_budget(reads)
    return (*configs, F)


def _two_measures(cfg: dict) -> tuple[PatternDistribution, PatternDistribution]:
    """The window-W empirical measures of x and z on F_N, under both budgets."""
    x, z, F = _window_inputs(cfg, [cfg["N"]], (cfg["window"],) * 2)
    W = box_set(x.dim, cfg["window"] - 1)
    mu = empirical_measure(x, F.set_at(cfg["N"]), W)
    nu = empirical_measure(z, F.set_at(cfg["N"]), W)
    _within_cell_budget(mu, nu)
    return mu, nu


def _cmd_density(cfg: dict) -> EstimateTrace:
    n_list = cfg["n-list"] or _ladder(cfg["N"])
    x, F = _window_inputs(cfg, n_list)
    return upper_density(x.indicator(x.alphabet.check(cfg["symbol"])), F, n_list)


def _cmd_besicovitch(cfg: dict) -> EstimateTrace:
    n_list = cfg["n-list"] or _ladder(cfg["N"])
    x, z, F = _window_inputs(cfg, n_list)
    return besicovitch_trace(x, z, F, n_list, radius=cfg["radius"])


def _cmd_dbar(cfg: dict) -> EstimateTrace:
    n_list = cfg["n-list"] or _ladder(cfg["N"])
    x, z, F = _window_inputs(cfg, n_list)
    return dbar_trace(x, z, F, n_list)


def _cmd_dprime(cfg: dict) -> dict:
    x, z, F = _window_inputs(cfg, [cfg["N"]])
    # None is the default grid, whose integer scaling metrics caches
    grid = None
    if cfg["grid-cap"] is not None:
        grid = tuple(d for d in default_delta_grid() if d <= cfg["grid-cap"])
    est = besicovitch_prime_estimate(x, z, F, cfg["N"], radius=cfg["radius"], delta_grid=grid)
    return {"value": _frac(est.value), "saturated": est.saturated}


def _cmd_empirical(cfg: dict) -> dict:
    x, F = _window_inputs(cfg, [cfg["N"]], (cfg["window"],))
    dist = empirical_measure(x, F.set_at(cfg["N"]), box_set(x.dim, cfg["window"] - 1))
    return {"distribution": dist.to_dict()}


def _cmd_prokhorov(cfg: dict) -> dict:
    return {"distance": _frac(prokhorov_distance(*_two_measures(cfg)))}


def _cmd_omega(cfg: dict) -> dict:
    x, F = _window_inputs(cfg, cfg["n-list"], (cfg["window"],))
    W = box_set(x.dim, cfg["window"] - 1)
    # the boxes are nested, so the support at the largest index holds every
    # pattern that any of the Prokhorov solves can meet
    top = max(cfg["n-list"])
    last = empirical_measure(x, F.set_at(top), W)
    _within_cell_budget(last, last)
    reps = omega_hat_approx(x, F, cfg["n-list"], W, cfg["merge-tol"], measures={top: last})
    return {"representatives": [m.to_dict() for m in reps], "count": len(reps)}


# the pattern cost of a window, from its sites, by `--cost`
COSTS = {"hamming": hamming_per_site_cost, "admissible": pattern_metric}


def _cmd_transport(cfg: dict) -> dict:
    mu, nu = _two_measures(cfg)
    cost = COSTS[cfg["cost"]](mu.sites)
    res = min_cost_transport(mu, nu, cost)
    return {
        "value": _frac(res.value),
        "certified": verify_transport_certificate(res, cost),
        "coupling": res.coupling.to_dict(),
    }


def _cmd_rho_chain(cfg: dict) -> dict:
    x = resolve_example_name(cfg["x"])
    z = resolve_example_name(cfg["z"])
    oa = PeriodicOrbitMeasure.from_config(x)
    ob = PeriodicOrbitMeasure.from_config(z)
    oracle_box(oa, ob)
    windows = [box_set(x.dim, k - 1) for k in range(1, cfg["k-max"] + 1)]
    mus, nus = oa.marginal_family(windows), ob.marginal_family(windows)
    # marginals of nested windows only merge patterns: the last solve is the largest
    _within_cell_budget(mus[-1], nus[-1])
    chain = rho_bar_lower(mus, nus, COSTS[cfg["cost"]])
    oracle = periodic_rho_oracle(oa, ob)
    body: dict = {"chain": [_frac(c) for c in chain]}
    if cfg["cost"] == "hamming":
        passed = all(c <= oracle for c in chain)
        body["oracle"] = _frac(oracle)
        body["chain_le_oracle"] = passed
    else:
        # the best shift joining couples every pair of window marginals, and
        # by periodicity its admissible cost on W_k is coverage_k * oracle
        metric = default_metric(x.dim)
        coverage = [sum((metric.weight(p) for p in W), Fraction(0)) for W in windows]
        bound = [w * oracle for w in coverage]
        passed = all(c <= s for c, s in zip(chain, bound))
        body["weight_coverage"] = [_frac(w) for w in coverage]
        body["shift_bound"] = [_frac(s) for s in bound]
    body["passed"] = passed
    return body


def _rand_dist(rng: Random, sites, alphabet: int, dens: Sequence[int]) -> PatternDistribution:
    den = rng.choice(list(dens))
    cuts = sorted(rng.randint(0, den) for _ in range(alphabet - 1))
    parts = [b - a for a, b in zip((0, *cuts), (*cuts, den))]
    return PatternDistribution.from_counts(sites, {(s,): p for s, p in enumerate(parts) if p})


def _cmd_glue_check(cfg: dict) -> dict:
    rng = Random(cfg["seed"])
    sites = ((0,),)
    cost = hamming_per_site_cost(sites)
    items = []
    for _ in range(cfg["trials"]):
        mu, eta, nu = (_rand_dist(rng, sites, 4, (2, 3, 4, 5, 6, 8, 12)) for _ in range(3))
        r12 = min_cost_transport(mu, eta, cost)
        r23 = min_cost_transport(eta, nu, cost)
        # Coupling construction re-validates the glued marginals exactly
        glued_cost = glue_couplings(r12.coupling, r23.coupling).cost(cost)
        bound = r12.value + r23.value
        items.append(
            {"glued_cost": _frac(glued_cost), "bound": _frac(bound), "passed": glued_cost <= bound}
        )
    return {"items": items, "passed": all(it["passed"] for it in items)}


def _cmd_nowy_check(cfg: dict) -> dict:
    count = int(cfg["pairs"].partition(":")[2])
    rng = Random(cfg["seed"])
    F = make_box_folner(1)
    _within_budget(_site_reads(F, [cfg["n"]], count))
    items = []
    for _ in range(count):
        x, z = random_periodic_pair(rng, cfg["max-period"])
        rep = check_db_ge_rho(x, z, F, cfg["n"], cfg["k-max"])
        items.append({
            "periods": [x.period_lattice.index, z.period_lattice.index],
            "dbar": _frac(rep.dbar),
            "dbar_floor": _frac(rep.floor),
            "dbar_limit": _frac(rep.limit),
            "oracle": _frac(rep.oracle),
            "chain": [_frac(c) for c in rep.chain],
            "passed": rep.passed,
        })
    return {"items": items, "passed": all(it["passed"] for it in items)}


def _triangle_metric(rng: Random, size: int) -> list[list[Fraction]]:
    # shortest paths in integer twelfths
    d = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            d[i][j] = d[j][i] = rng.randint(1, 12)
    for k in range(size):
        for i in range(size):
            for j in range(size):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[j][i] = d[i][k] + d[k][j]
    return [[Fraction(v, 12) for v in row] for row in d]


def _cmd_triangle_check(cfg: dict) -> dict:
    rng = Random(cfg["seed"])
    sites = ((0,),)
    size = cfg["support"]
    items = []
    for _ in range(cfg["trials"]):
        table = _triangle_metric(rng, size)
        mu, eta, nu = (_rand_dist(rng, sites, size, (2, 3, 4, 6, 12)) for _ in range(3))
        rep = rho_triangle_check(mu, eta, nu, lambda p, q: table[p[0]][q[0]])
        items.append({
            "d12": _frac(rep.d12),
            "d23": _frac(rep.d23),
            "d13": _frac(rep.d13),
            "glued_cost": _frac(rep.glued_cost),
            "passed": rep.passed,
        })
    return {"items": items, "passed": all(it["passed"] for it in items)}


def _cmd_tempered(cfg: dict) -> dict:
    F = make_box_folner(cfg["group"], cfg["kind"])
    ratios = [temperedness_ratio(F, j) for j in range(1, cfg["n"])]
    worst = max(ratios)
    return {
        "ratios": [_frac(r) for r in ratios],
        "max_ratio": _frac(worst),
        "passed": worst <= cfg["c"],
    }


def _cmd_examples(cfg: dict) -> dict:
    if cfg["name"] is None:
        return {
            "families": [
                {"name": "visible", "group": "z:2", "description": "indicator of coprime pairs"},
                {"name": "prime-approx:n", "group": "z:2",
                 "description": "periodic approximant from the first n primes, n <= 25"},
                {"name": "rf-sub:k", "group": "z:1",
                 "description": "substitution stage k, defaults r_k = 2^k + 1, k <= 6"},
            ]
        }
    x = resolve_example_name(cfg["name"])
    info: dict = {
        "name": cfg["name"],
        "dim": x.dim,
        "alphabet": x.alphabet.size,
        "kind": x.kind,
        "periodic": x.period_lattice is not None,
    }
    if x.period_lattice is not None:
        info["period_index"] = x.period_lattice.index
        if x.period_lattice.moduli is not None:
            info["period_moduli"] = list(x.period_lattice.moduli)
    sample_box = box_set(x.dim, min(9, 20 // x.dim))
    info["sample"] = [[list(g), x.value(g)] for g in sample_box.sorted_points()[:24]]
    return {"example": info}


def _cmd_entropy(cfg: dict) -> dict:
    x, F = _window_inputs(cfg, [cfg["N"]], cfg["sizes"])
    values = block_entropy(x, F.set_at(cfg["N"]), cfg["sizes"])
    return {"bits_per_site": [[k, v] for k, v in values]}


def _cmd_convergence(cfg: dict) -> dict:
    st = SubstitutionStage()
    stages = cfg["stages"]
    Fc = make_box_folner(2, "centered")
    ladder = [100, 300, 1000]
    period = st.modulus(3)
    ent_n = period * max(1, 2000 // period) - 1
    # the density ladder, n-max dbar windows F_N and the entropy box {0..ent_n}
    _within_budget(
        _site_reads(Fc, ladder)
        + _site_reads(Fc, [cfg["N"]] * cfg["n-max"])
        + _site_reads(make_box_folner(1), [ent_n], sum(cfg["entropy-sizes"]))
    )
    body: dict = {}
    all_pass = True

    # visible-point density along growing centered boxes
    v = visible_points_config()
    dens = upper_density(v.indicator(1), Fc, ladder)
    target = 6 / math.pi**2
    errors = [abs(float(r.value) - target) for r in dens.rows]
    dens_pass = all(a > b for a, b in zip(errors, errors[1:]))
    all_pass &= dens_pass
    body["visible_density"] = {
        "target": target,
        "rows": [[r.n, float(r.value)] for r in dens.rows],
        "errors": errors,
        "passed": dens_pass,
    }

    # prime approximants converge to the visible configuration
    window = Fc.set_at(cfg["N"])
    ns = range(1, cfg["n-max"] + 1)
    ests = [dbar_estimate(v, prime_approx_config(n), Fc, cfg["N"]) for n in ns]
    bounds = [Fraction(prime_approx_mismatch_bound(n, cfg["N"]), len(window)) for n in ns]
    # the mismatch set of visible and prime-approx:n (gcd > 1 with every
    # prime factor above p_n) shrinks as n grows, so dbar never rises
    mono = all(b <= a for a, b in zip(ests, ests[1:]))
    bounded = all(e <= b for e, b in zip(ests, bounds))
    all_pass &= mono and bounded
    body["approximant_convergence"] = {
        "N": cfg["N"],
        "window_size": len(window),
        "dbar": [_frac(e) for e in ests],
        "mismatch_bounds": [_frac(b) for b in bounds],
        "nonincreasing": mono,
        "bounded": bounded,
        "passed": mono and bounded,
    }

    # substitution stages are a Cauchy sequence in dbar, exactly
    xs = [rf_substitution(st, k) for k in range(1, stages + 1)]
    cauchy_ok = True
    steps = []
    for k in range(1, stages):
        d = exact_mismatch_density(xs[k - 1], xs[k])
        steps.append(d)
        cauchy_ok &= d == Fraction(1, st.ratios[k - 1]) and d < Fraction(1, 2 ** k)
    pair_ok = True
    for i in range(stages):
        for j in range(i + 1, stages):
            dij = exact_mismatch_density(xs[i], xs[j])
            bound = sum(steps[i:j], Fraction(0))
            pair_ok &= dij <= bound
    tiling = [cortez_petite_check(st, k) for k in range(1, stages)]
    tiling_ok = all(t.passed for t in tiling)
    all_pass &= cauchy_ok and pair_ok and tiling_ok
    body["substitution"] = {
        "stages": stages,
        "step_dbar": [_frac(d) for d in steps],
        "steps_match_ratios": cauchy_ok,
        "pairwise_cauchy": pair_ok,
        "tiling_checks": tiling_ok,
        "passed": cauchy_ok and pair_ok and tiling_ok,
    }

    # block entropy of a substitution stage decays like log(period)/k
    x3 = rf_substitution(st, 3)
    ent = block_entropy(x3, box_set(1, ent_n), cfg["entropy-sizes"])
    ent_pass = all(b <= a + 1e-12 for (_, a), (_, b) in zip(ent, ent[1:])) and all(
        h <= math.log2(period) / k + 1e-12 for k, h in ent
    )
    all_pass &= ent_pass
    body["entropy_decay"] = {
        "stage": 3,
        "period": period,
        "bits_per_site": [[k, h] for k, h in ent],
        "passed": ent_pass,
    }

    body["passed"] = bool(all_pass)
    return body


# --- parameter tables ------------------------------------------------------
# Parameters shared by several subcommands are declared once, so that their
# cast and default agree everywhere.  Defaults are shared by every run in a
# process, so they are immutable.

_X = Param("x", str, REQUIRED, "example name")
_Z = Param("z", str, REQUIRED, "example name")
_SET = Param("set", str, REQUIRED, "example name")
_N = Param("N", _at_least(int, 1), 100, "window index (the largest one, for traces)")
_KIND = Param("kind", _one_of(*BOX_KINDS), "boxes", "boxes or centered")
_N_LIST = Param("n-list", _int_list, None, "explicit window indices")
_WINDOW = Param("window", _at_least(int, 1), 1, "box window side")
_RADIUS = Param("radius", _at_least(int, 0), DEFAULT_RADIUS, "truncation radius")
_COST = Param("cost", _one_of(*COSTS), "hamming", "hamming or admissible")
_K_MAX = Param("k-max", _at_least(int, 1, K_MAX), 3, "largest marginal window side")
_TRIALS = Param("trials", _at_least(int, 1, TRIALS_MAX), 100, "number of random instances")

# (name, handler, help, parameters), in the order of the parser's listing
COMMANDS: list[tuple[str, Callable[[dict], EstimateTrace | dict], str, list[Param]]] = [
    ("density", _cmd_density, "symbol density along a box Folner sequence (CSV)", [
        _SET, _N, _KIND, _N_LIST,
        Param("symbol", int, 1, "symbol whose density is measured"),
    ]),
    ("besicovitch", _cmd_besicovitch, "Besicovitch distance trace for two examples (CSV)",
     [_X, _Z, _N, _KIND, _N_LIST, _RADIUS]),
    ("dbar", _cmd_dbar, "mismatch-density trace for two examples (CSV)",
     [_X, _Z, _N, _KIND, _N_LIST]),
    ("dprime", _cmd_dprime, "density-threshold distance estimate (JSON)", [
        _X, _Z,
        Param("N", _at_least(int, 1), 500, "window index"),
        _KIND, _RADIUS,
        Param("grid-cap", Fraction, None, "drop grid deltas above this"),
    ]),
    ("empirical", _cmd_empirical, "empirical pattern distribution (JSON)",
     [_SET, _N, _KIND, _WINDOW]),
    ("prokhorov", _cmd_prokhorov, "Prokhorov distance of two empirical measures (JSON)",
     [_X, _Z, _N, _KIND, _WINDOW]),
    ("omega", _cmd_omega, "cluster representatives of empirical measures (JSON)", [
        _SET, _KIND,
        Param("n-list", _int_list, tuple(2**j for j in range(1, 13)), "window indices"),
        _WINDOW,
        Param("merge-tol", Fraction, Fraction(1, 10), "Prokhorov radius of a cluster"),
    ]),
    ("transport", _cmd_transport, "optimal transport between two empirical measures (JSON)",
     [_X, _Z, _N, _KIND, _WINDOW, _COST]),
    ("rho-chain", _cmd_rho_chain, "lower-bound chain for the joining infimum (JSON)",
     [_X, _Z, _K_MAX, _COST]),
    ("glue-check", _cmd_glue_check, "random gluing subadditivity checks (JSON)",
     [Param("seed", int, 0), _TRIALS]),
    ("nowy-check", _cmd_nowy_check, "dbar dominates the joining infimum on random pairs (JSON)", [
        Param("pairs", _random_pairs, "random:20", "random:COUNT"),
        Param("seed", int, 7),
        Param("n", _at_least(int, 1), 10_000, "window index for the dbar estimate"),
        _K_MAX,
        Param("max-period", _at_least(int, 1, PERIOD_MAX), 12, "largest word period"),
    ]),
    ("triangle-check", _cmd_triangle_check, "transport triangle inequality on random triples (JSON)", [
        Param("seed", int, 0),
        _TRIALS,
        Param("support", _at_least(int, 2, 8), 5, "support size, 2..8"),
    ]),
    ("tempered", _cmd_tempered, "temperedness ratios of a box Folner sequence (JSON)", [
        Param("group", _group, 1, "z:d"),
        _KIND,
        Param("n", _at_least(int, 2, TEMPERED_N_MAX), 100, "check the ratios for j = 1..n-1"),
        Param("c", Fraction, Fraction(2), "tempering constant"),
    ]),
    ("examples", _cmd_examples, "list example families or inspect one (JSON)",
     [Param("name", str, None, "example name to inspect")]),
    ("entropy", _cmd_entropy, "block entropy in bits per site (JSON)", [
        _SET,
        Param("N", _at_least(int, 1), 1000, "window index"),
        _KIND,
        Param("sizes", _side_list, (1, 2, 3), "block sides"),
    ]),
    ("convergence", _cmd_convergence, "end-to-end example pipelines (JSON)", [
        Param("N", _at_least(int, 1), 600, "window index for dbar estimates"),
        Param("n-max", _at_least(int, 1, 5), 5, "largest approximant stage"),
        Param("stages", _at_least(int, 2, SubstitutionStage().stages), 6,
              "substitution stages"),
        Param("entropy-sizes", _side_list, (1, 2, 3, 4, 5, 6), "block sides"),
    ]),
]


# --- parser ----------------------------------------------------------------


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    # argparse makes a HelpFormatter for every add_argument, and each one
    # probes the terminal unless given a width; probe once per build and
    # pass argparse's own default, the columns less 2, to every parser.
    # Every subparser is made, so the top parser's help, usage and errors
    # are whole, but flags are added at build time, to the subcommand that
    # argv names alone: argparse parses and shows no other subparser, and
    # as the top parser takes no option with a value, the first word of
    # argv that names a subcommand is the one it parses.
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        formatter_class=formatter,
        description="experiments on shift configurations: densities, Besicovitch "
        "pseudometrics, empirical measures, exact transport, and example pipelines",
    )
    parser.add_argument("--version", action="version", version=f"shiftlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, params in COMMANDS:
        p = sub.add_parser(name, help=help_text, formatter_class=formatter)
        p.set_defaults(func=handler, params=params)
    named = next((word for word in argv if word in sub.choices), None)
    if named is not None:
        p = sub.choices[named]
        p.add_argument("--config", help="flat key=value parameter file")
        p.add_argument("--out", help="output path (default: stdout)")
        for param in p.get_default("params"):
            p.add_argument(f"--{param.key}", help=param.help)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage problems; 0 passes through (e.g. --help)
        return 0 if e.code in (0, None) else 1
    try:
        cfg, out = _resolve(args, args.params)
        result = args.func(cfg)
        if isinstance(result, EstimateTrace):
            _emit(result.to_csv(), out)
            return 0
        _emit(_report(args.command, cfg, result), out)
        # a failed check or an uncertified solution exits 2
        return 2 if False in (result.get("passed"), result.get("certified")) else 0
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
