"""Empirical pattern measures and Prokhorov-style comparisons.

A PatternDistribution is an exact rational probability vector over the
patterns of a fixed finite window, held as integer counts over one
denominator; Fraction weights become counts through
`configs.integer_scale`, the package's one exact scale, and are then
kept as `from_counts` keeps counts.  `_pattern_counts` is the one reader
of joint W-patterns, behind both empirical measures and the transport
module's pair joinings; on binary box windows it counts integer codes in
`configs`' lane rows.  Prokhorov distances are exact: by Strassen's
theorem they are read from the coupled mass, 1 minus the value of a
0/1-cost transport problem that the transport module's integer simplex
solves at the common denominator of the masses.  `_integer_problem`
builds that problem, the masses and the pattern distances in integers
(the distances by `configs.integer_scale`), as it builds transport's own
problems.  The coupled mass changes only at the pairwise pattern
distances, so a binary search over those finitely many levels returns
the infimum itself, not an approximation to it.  Equal distributions
compare at literal distance 0.  Sets of measures are plain sequences of
distributions: the Hausdorff distance takes two, and `omega_hat_approx`
returns its cluster representatives as a list.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .configs import (
    AdmissibleMetric,
    Configuration,
    _same_dimension,
    box_tiles,
    default_metric,
    integer_scale,
    lane_reader,
    lane_rows,
    lane_size,
    row_bits,
    rows_available,
)
from .errors import IncompatibleWindowsError, InvalidDimensionError
from .groups import FiniteSubset, FolnerSequence, Point, compose, sorted_sites

Pattern = tuple[int, ...]
PatternCost = Callable[[Pattern, Pattern], Fraction]

class PatternDistribution:
    """Probability distribution over patterns of one finite window.

    Sites are stored in canonical (ascending lexicographic) order.  The
    masses are positive integer `counts` over one denominator `den`, in
    lowest terms: pattern p has mass counts[p] / den, and the counts sum
    to den.  Zero-weight patterns are dropped on construction.  `weights`
    is a read-only Fraction view that builds each mass when it is read, so
    loops read `counts`.
    """

    __slots__ = ("sites", "den", "counts")

    def __init__(
        self,
        window: FiniteSubset | Iterable[Point],
        weights: Mapping[Pattern, Fraction | int],
    ):
        """Fraction entry: the weights must sum to exactly 1;
        `configs.integer_scale` puts them over the lcm of their
        denominators, and they are checked and kept as `from_counts`
        keeps counts."""
        den, nums = integer_scale(weights.values())
        if sum(nums) != den:
            raise ValueError(f"weights must sum to exactly 1, got {Fraction(sum(nums), den)}")
        self.sites, self.den, self.counts = _held_counts(window, zip(weights, nums))

    @classmethod
    def from_counts(
        cls, window: FiniteSubset | Iterable[Point], counts: Mapping[Pattern, int]
    ) -> "PatternDistribution":
        """Mass c / total on each pattern, total the sum of the counts.

        Counts are non-negative ints, zero ones are dropped, and they need
        not be in lowest terms; patterns may be any sequences of digits.
        """
        out = cls.__new__(cls)
        out.sites, out.den, out.counts = _held_counts(window, counts.items())
        return out

    @property
    def weights(self) -> Mapping[Pattern, Fraction]:
        """Pattern masses as Fractions: a read-only view of the counts that
        builds each Fraction when it is read and stores none."""
        return _FractionView(self.counts, self.den)

    def support(self) -> list[Pattern]:
        return sorted(self.counts)

    def mass(self, pat: Pattern) -> Fraction:
        return Fraction(self.counts.get(tuple(pat), 0), self.den)

    def same_window(self, other: "PatternDistribution") -> bool:
        return self.sites == other.sites

    def marginal(self, sub_window: FiniteSubset | Iterable[Point]) -> "PatternDistribution":
        """Projection onto a sub-window of the current sites."""
        sub = sorted_sites(sub_window)
        index = {s: i for i, s in enumerate(self.sites)}
        missing = [s for s in sub if s not in index]
        if missing:
            raise IncompatibleWindowsError(f"sites {missing} not in the window")
        picks = [index[s] for s in sub]
        out: dict[Pattern, int] = {}
        for pat, c in self.counts.items():
            key = tuple(pat[i] for i in picks)
            out[key] = out.get(key, 0) + c
        return PatternDistribution.from_counts(sub, out)

    def tv_distance(self, other: "PatternDistribution") -> Fraction:
        if not self.same_window(other):
            raise IncompatibleWindowsError("total variation across windows")
        D = lcm(self.den, other.den)
        s, t = D // self.den, D // other.den
        a, b = self.counts, other.counts
        diff = sum(abs(c * s - b.get(p, 0) * t) for p, c in a.items())
        diff += sum(c * t for p, c in b.items() if p not in a)
        return Fraction(diff, 2 * D)

    def to_dict(self) -> dict:
        den = self.den
        pairs = []
        for pat, c in sorted(self.counts.items()):
            g = gcd(c, den)
            pairs.append([list(pat), c // g, den // g])
        return {"window": [list(p) for p in self.sites], "weights": pairs}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternDistribution):
            return NotImplemented
        # lowest terms make the integer form unique
        return (
            self.sites == other.sites
            and self.den == other.den
            and self.counts == other.counts
        )

    def __repr__(self) -> str:
        return (
            f"PatternDistribution({len(self.sites)} sites, "
            f"{len(self.counts)} patterns)"
        )


class _FractionView(Mapping):
    __slots__ = ("_counts", "_den")

    def __init__(self, counts: dict[Pattern, int], den: int):
        self._counts, self._den = counts, den

    def __getitem__(self, pat: Pattern) -> Fraction:
        return Fraction(self._counts[pat], self._den)

    def __iter__(self):
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _window_sites(window: FiniteSubset | Iterable[Point]) -> tuple[Point, ...]:
    sites = sorted_sites(window)
    if not sites:
        raise ValueError("window must be non-empty")
    return sites


def _held_counts(
    window: FiniteSubset | Iterable[Point], items: Iterable[tuple[Sequence[int], int]]
) -> tuple[tuple[Point, ...], int, dict[Pattern, int]]:
    """(sites, den, counts) of a distribution with mass c / total on each
    pattern of the (pattern, c) items, total the sum of the c: the one
    check of a distribution's counts.  A negative count, a pattern of
    another length than the window and an all-zero total are refused."""
    sites = _window_sites(window)
    kept: dict[Pattern, int] = {}
    for pat, c in items:
        c = operator.index(c)
        if c < 0:
            raise ValueError(f"negative count for pattern {pat}")
        if len(pat) != len(sites):
            raise ValueError(f"pattern of length {len(pat)} on a window of {len(sites)} sites")
        if c:
            pat = tuple(map(int, pat))
            kept[pat] = kept.get(pat, 0) + c
    total = sum(kept.values())
    if not total:
        raise ValueError("counts must have a positive total")
    return (sites, *_lowest_terms(total, kept))


def _lowest_terms(den: int, counts: dict[Pattern, int]) -> tuple[int, dict[Pattern, int]]:
    g = gcd(den, *counts.values())
    if g == 1:
        return den, counts
    return den // g, {pat: c // g for pat, c in counts.items()}


def empirical_measure(
    x: Configuration, window_set: FiniteSubset, W: FiniteSubset
) -> PatternDistribution:
    """Pattern frequencies of { (f.x)|_W : f in window_set }, exact, as read
    by `_pattern_counts`."""
    return PatternDistribution.from_counts(W, _pattern_counts([x], window_set, W))


def _pattern_counts(
    configs: Sequence[Configuration], window_set: FiniteSubset, W: FiniteSubset
) -> dict[str | Pattern, int]:
    """Counts of the joint W-patterns (f.x)|_W of the configurations, f in
    window_set: each key is the configurations' patterns concatenated in
    order, each in W's site order.

    This is the one reader of W-patterns.  For box sets and binary
    configurations the patterns are integer codes counted in C by
    `_box_pattern_codes`, and each distinct code is decoded once into
    '0'/'1' text.  Other windows and alphabets are read site by site into
    tuples, the reference path.
    """
    if len(window_set) == 0 or len(W) == 0:
        raise ValueError("pattern counts need a non-empty window set and window")
    _same_dimension([window_set, W], configs)
    if rows_available(window_set, *configs) and rows_available(W, *configs):
        bits = len(configs) * len(W)
        codes = _box_pattern_codes(configs, window_set, W)
        return {row_bits(code, bits): c for code, c in codes.items()}
    sites = W.sorted_points()
    values = [x.value for x in configs]
    counts: dict[Pattern, int] = {}
    for f in window_set:
        pat = tuple(xv(compose(w, f)) for xv in values for w in sites)
        counts[pat] = counts.get(pat, 0) + 1
    return counts


def _box_pattern_codes(
    configs: Sequence[Configuration], window_set: FiniteSubset, W: FiniteSubset
) -> Counter:
    """Counts of the joint W-patterns of binary configurations over a box,
    keyed by integer code.

    Bit i*|W| + k of a code is site k of W, in W's site order (W's rows,
    each left to right), of configs[i]; so for one configuration
    configs.row_bits(code, |W|) is the pattern as '0'/'1' text.

    Each row of a configuration becomes a lane row (`configs.lane_rows`)
    with an L-byte lane per column, L = `configs.lane_size` of the code's
    k*|W| bits for k configurations.  A band of rows folds into one lane
    row whose lane j is the code of the window at column j: the row
    shifted down by c lanes and up by the code bit, ORed over W's sites.
    Every code bit is below 8L, so no lane spills into the next.  Each
    band is read back by `configs.lane_reader`, whose memoryview of lanes
    of at most 8 bytes Counter.update counts in C.
    """
    wlo, whi = W.bounds
    w_rows = whi[0] - wlo[0] + 1 if W.dim == 2 else 1
    w_cols = whi[-1] - wlo[-1] + 1
    L = lane_size(len(configs) * w_rows * w_cols)
    # (config, W row, lane shift, code bit) of each code bit
    terms = [
        (i, r, 8 * L * c, (i * w_rows + r) * w_cols + c)
        for i in range(len(configs))
        for r in range(w_rows)
        for c in range(w_cols)
    ]
    counts: Counter = Counter()
    for tile in box_tiles(window_set, L * len(configs)):
        lo, hi = tile.bounds
        f_rows = hi[0] - lo[0] + 1 if W.dim == 2 else 1
        f_cols = hi[-1] - lo[-1] + 1
        width = f_cols + w_cols - 1
        lanes = [list(lane_rows(x.rows(tile.minkowski(W)), width, L)) for x in configs]
        read = lane_reader(L, f_cols)
        for a in range(f_rows):
            band = 0
            for i, r, shift, bit in terms:
                band |= (lanes[i][a + r] >> shift) << bit
            counts.update(read(band))
    return counts


def pattern_metric(
    window: FiniteSubset | Sequence[Point], metric: AdmissibleMetric | None = None
) -> PatternCost:
    """Truncated admissible metric on patterns: sum of site weights over
    mismatched positions.  Strictly below 1 since the window is finite.
    The metric must have the window's dimension; None means the default
    metric of that dimension.  Patterns of another length than the window
    are refused."""
    sites = sorted_sites(window)
    if metric is None:
        if not sites:
            raise ValueError("the default metric needs a non-empty window")
        metric = default_metric(len(sites[0]))
    if any(len(s) != metric.dim for s in sites):
        raise InvalidDimensionError("metric dimension does not match the window")
    site_weights = tuple(metric.weight(s) for s in sites)
    size = len(sites)

    def dist(p: Pattern, q: Pattern) -> Fraction:
        if len(p) != size or len(q) != size:
            raise ValueError(f"patterns of {len(p)} and {len(q)} sites on a window of {size}")
        return sum((w for w, a, b in zip(site_weights, p, q) if a != b), Fraction(0))

    return dist


def _integer_problem(mu: PatternDistribution, nu: PatternDistribution, cost: PatternCost) -> tuple:
    """(rows, cols, D, a, b, E, K): the two supports, their counts a and b
    at D = lcm(mu.den, nu.den), and the costs K of their pairs at the lcm
    E of the costs' denominators, one list per row.  The windows must
    agree; a cost is a callable (p, q) -> number, of any sign, which
    `configs.integer_scale` reads exactly."""
    if mu.sites != nu.sites:
        raise IncompatibleWindowsError("transport across different windows")
    rows, cols = sorted(mu.counts), sorted(nu.counts)
    D = lcm(mu.den, nu.den)
    s, t = D // mu.den, D // nu.den
    a = [mu.counts[p] * s for p in rows]
    b = [nu.counts[q] * t for q in cols]
    E, flat = integer_scale([cost(p, q) for p in rows for q in cols])
    n = len(cols)
    return rows, cols, D, a, b, E, [flat[k : k + n] for k in range(0, len(flat), n)]


def _coupled_mass(
    a: list[int],
    b: list[int],
    d: Sequence[Sequence[int | Fraction]],
    eps: int | Fraction,
) -> Fraction:
    """Largest mass a coupling of the integer mass vectors a and b, over
    their common total L, can put on the pairs (i, j) with d[i][j] <= eps:
    1 minus the optimal transport cost when each pair farther than eps
    costs 1 and every other pair 0, solved exactly by the integer
    transport simplex.  d and eps may be Fractions or integers in one
    common unit."""
    # transport imports this module, so its kernel is imported at call time
    from .transport import _simplex

    L = sum(a)
    K = [[int(dij > eps) for dij in row] for row in d]
    _, _, value = _simplex(a, b, K)
    return Fraction(L - value, L)


def prokhorov_distance(
    mu: PatternDistribution, nu: PatternDistribution, dist: PatternCost | None = None
) -> Fraction:
    """Exact Prokhorov distance: the least eps in [0, 1] such that some
    coupling puts mass >= 1 - eps on pairs at distance <= eps.

    `dist` is the distance of two patterns; None means `pattern_metric`
    of the common window, the default metric's.  `_integer_problem` scales
    the distances to integers over the lcm E of their denominators, as it
    scales transport's costs.  The coupled mass M(eps) is a step function
    that moves only at the pairwise distances, so a binary search over
    those integer levels (and 0) finds the first feasible level k; the
    infimum is then min(level k / E, 1 - M(level k-1)), attained either
    way, with level k read as 1 when no level is feasible.
    """
    _, _, _, a, b, E, d = _integer_problem(mu, nu, dist or pattern_metric(mu.sites))
    levels = [0] + sorted({x for row in d for x in row if 0 < x < E})
    mass: dict[int, Fraction] = {}

    def coupled(k: int) -> Fraction:
        if k not in mass:
            mass[k] = _coupled_mass(a, b, d, levels[k])
        return mass[k]

    # feasibility, levels[k] / E >= 1 - M(levels[k] / E), is monotone in k
    lo, hi = 0, len(levels)
    while lo < hi:
        mid = (lo + hi) // 2
        if Fraction(levels[mid], E) >= 1 - coupled(mid):
            hi = mid
        else:
            lo = mid + 1
    best = Fraction(levels[lo], E) if lo < len(levels) else Fraction(1)
    if lo > 0:
        best = min(best, 1 - coupled(lo - 1))
    return best


def hausdorff_prokhorov(
    S: Sequence[PatternDistribution],
    T: Sequence[PatternDistribution],
    dist: PatternCost | None = None,
) -> Fraction:
    """max(sup_s inf_t, sup_t inf_s) of pairwise Prokhorov distances under `dist`."""
    if not S or not T:
        raise ValueError("Hausdorff distance of an empty measure set")
    table = [[prokhorov_distance(s, t, dist) for t in T] for s in S]
    forward = max(min(row) for row in table)
    backward = max(min(col) for col in zip(*table))
    return max(forward, backward)


def omega_hat_approx(
    x: Configuration,
    F: FolnerSequence,
    n_list: Sequence[int],
    W: FiniteSubset,
    merge_tol: Fraction | float,
    dist: PatternCost | None = None,
    *,
    measures: Mapping[int, PatternDistribution] | None = None,
) -> list[PatternDistribution]:
    """Greedy cluster representatives of the empirical measures along n_list.

    A new empirical measure joins an existing cluster when its Prokhorov
    distance under `dist` to the representative (the cluster's first member)
    is at most merge_tol; otherwise it opens a new cluster.  `measures` may
    hold some of the empirical measures, already read, by n.
    """
    if not n_list:
        raise ValueError("n_list must be non-empty")
    merge_tol = Fraction(merge_tol)
    if merge_tol <= 0:
        raise ValueError("merge tolerance must be positive")
    measures = measures or {}
    reps: list[PatternDistribution] = []
    for n in n_list:
        emp = measures[n] if n in measures else empirical_measure(x, F.set_at(n), W)
        if all(prokhorov_distance(emp, rep, dist) > merge_tol for rep in reps):
            reps.append(emp)
    return reps


@dataclass(frozen=True)
class GenericityReport:
    passed: bool
    final_distance: Fraction
    distances: tuple[Fraction, ...]
    n_list: tuple[int, ...]


def genericity_check(
    x: Configuration,
    F: FolnerSequence,
    target: PatternDistribution,
    W: FiniteSubset,
    n_list: Sequence[int],
    tol: Fraction | float,
    dist: PatternCost | None = None,
) -> GenericityReport:
    """Empirical measures approach the target: final Prokhorov distance
    under `dist` <= tol and nonincreasing over the last three within tol/2."""
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    ns = tuple(int(n) for n in n_list)
    if not ns:
        raise ValueError("n_list must be non-empty")
    distances = tuple(
        prokhorov_distance(empirical_measure(x, F.set_at(n), W), target, dist)
        for n in ns
    )
    final = distances[-1]
    tail = distances[-3:]
    monotone = all(b <= a + tol / 2 for a, b in zip(tail, tail[1:]))
    return GenericityReport(
        passed=final <= tol and monotone,
        final_distance=final,
        distances=distances,
        n_list=ns,
    )
