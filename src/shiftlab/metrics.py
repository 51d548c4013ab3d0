"""Finite-window estimators with explicit error accounting.

Upper asymptotic density, the Besicovitch-average pseudometric, its
threshold variant D', and the plain mismatch-density dbar.  Every limsup
quantity is replaced by a finite-n trace whose summary is the max over
the last half of the evaluated indices; truncation error enters as an
exact [lo, hi] interval, never as a hidden float tolerance.

On box windows over binary configurations the estimators read bulk rows
(`Configuration.rows`): mismatches are XORed rows counted with
`int.bit_count`, and the metric's shell counts are summed from a
summed-area table whose rows are lane rows of `configs` (one lane per
column), so each big-int operation serves a whole window row.  Bulk and
per-site lower sums weigh the shells by the same integer numerators,
over one denominator from `configs.integer_scale`, and D' decides each
of its steps j/200 against them in integers.  Other inputs take the
per-site loops, which remain the reference the bulk path must match
exactly.  The density loop reads nested box windows once: each window
adds the count of its shell outside the previous one.  A window of
another dimension than the configurations' is refused before any read.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import sub, truth, xor
from typing import Callable, Sequence

from .configs import (
    DEFAULT_RADIUS,
    AdmissibleMetric,
    Configuration,
    Indicator,
    Lattice,
    _same_dimension,
    box_tiles,
    common_metric,
    default_metric,
    integer_scale,
    lane_reader,
    lane_rows,
    lane_size,
    rows_available,
    shell_size,
)
from .groups import FiniteSubset, FolnerSequence, Point, compose, sup_norm


@dataclass(frozen=True)
class TraceRow:
    n: int
    value: Fraction
    lo: Fraction
    hi: Fraction


@dataclass
class EstimateTrace:
    """Rows of (n, value, lo, hi) at strictly increasing indices."""

    rows: list[TraceRow]

    def __post_init__(self) -> None:
        ns = [r.n for r in self.rows]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("trace indices must be strictly increasing")
        for r in self.rows:
            if not r.lo <= r.value <= r.hi:
                raise ValueError(f"row n={r.n} violates lo <= value <= hi")

    def summary(self) -> Fraction:
        """Max of `value` over the last half of the rows (limsup proxy)."""
        if not self.rows:
            raise ValueError("summary of an empty trace")
        return max(r.value for r in self.rows[len(self.rows) // 2 :])

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "value", "lo", "hi"])
        for r in self.rows:
            writer.writerow([r.n, repr(float(r.value)), repr(float(r.lo)), repr(float(r.hi))])
        return buf.getvalue()


def _checked_n_list(n_list: Sequence[int]) -> list[int]:
    ns = [int(n) for n in n_list]
    if not ns:
        raise ValueError("n_list must be non-empty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly increasing")
    return ns


def _ones(x: Configuration, box: FiniteSubset) -> int:
    return sum(row.bit_count() for tile in box_tiles(box) for row in x.rows(tile))


def _mismatches(x: Configuration, z: Configuration, box: FiniteSubset) -> int:
    return sum(
        (a ^ b).bit_count()
        for tile in box_tiles(box)
        for a, b in zip(x.rows(tile), z.rows(tile))
    )


def _shell_boxes(outer: FiniteSubset, inner: FiniteSubset) -> list[FiniteSubset]:
    """outer minus inner, for boxes with inner inside outer, as at most
    2 dim disjoint boxes: along axis i, the slabs below and above inner,
    taken within inner's extent on the axes before i."""
    (olo, ohi), (ilo, ihi) = outer.bounds, inner.bounds
    out = []
    for i in range(outer.dim):
        for a, b in ((olo[i], ilo[i] - 1), (ihi[i] + 1, ohi[i])):
            if a <= b:
                out.append(FiniteSubset.box(ilo[:i] + (a,) + olo[i + 1:],
                                            ihi[:i] + (b,) + ohi[i + 1:]))
    return out


def upper_density(
    rule: Callable[[Point], bool], F: FolnerSequence, n_list: Sequence[int]
) -> EstimateTrace:
    """Exact |A cap F_n| / |F_n| for the membership rule, per n.

    A `Configuration.indicator` rule on box windows is counted from bulk
    rows.  Any other rule is called once per site of the union of nested
    box windows: when F_n and the previous window are boxes and F_n holds
    it, the previous count carries over and only the sites of F_n outside
    it are read (`_shell_boxes`); any other window is read in full.  Only
    an indicator is refused a window of another dimension.
    """
    rows = []
    # the previous window and its count
    prev, hits = None, 0
    for n in _checked_n_list(n_list):
        window = F.set_at(n)
        if isinstance(rule, Indicator):
            _same_dimension([window], [rule.config])
        if isinstance(rule, Indicator) and rows_available(window, rule.config):
            ones = _ones(rule.config, window)
            hits = {1: ones, 0: len(window) - ones}.get(rule.symbol, 0)
        else:
            if prev is not None and prev.is_box and window.is_box and window.contains_set(prev):
                shells = _shell_boxes(window, prev)
            else:
                # a window that is not nested is its own shell over a base of 0
                shells, hits = [window], 0
            hits += sum(sum(map(truth, map(rule, shell))) for shell in shells)
        prev = window
        val = Fraction(hits, len(window))
        rows.append(TraceRow(n, val, val, val))
    return EstimateTrace(rows)


def _mismatch_memo(x: Configuration, z: Configuration) -> Callable[[Point], bool]:
    cache: dict[Point, bool] = {}
    xv, zv = x.value, z.value

    def mm(p: Point) -> bool:
        v = cache.get(p)
        if v is None:
            v = xv(p) != zv(p)
            cache[p] = v
        return v

    return mm


def _shell_numerators(metric: AdmissibleMetric, radius: int) -> tuple[list[int], int, int]:
    """The shell weights w_0..w_radius of the metric as integer numerators
    over one denominator, by `configs.integer_scale`, and the mass of the
    ball, sum_r num_r |shell r|, over that denominator.  A metric whose
    ball weighs more than 1 is refused: the distance it bounds is at most
    1, so its lower sums could pass their upper bound."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    den, nums = integer_scale(metric.shell_weight(r) for r in range(radius + 1))
    if min(nums) < 0:
        raise ValueError("shell weights must be nonnegative")
    mass = sum(k * shell_size(metric.dim, r) for r, k in enumerate(nums))
    if mass > den:
        raise ValueError(
            f"shell weights within radius {radius} sum to {Fraction(mass, den)}, above 1"
        )
    return nums, den, mass


@lru_cache(maxsize=64)
def default_ball_bits(dim: int, radius: int) -> tuple[int, int]:
    """Bits of the default metric's ball mass and largest coefficient at
    this radius, as `_box_lower_sums` builds them; cached per radius."""
    nums, _, mass = _shell_numerators(default_metric(dim), radius)
    return mass.bit_length(), max(map(sub, nums, nums[1:] + [0])).bit_length()


def lower_sum_work(
    windows: Sequence[FiniteSubset], radius: int, mass_bits: int, coef_bits: int
) -> int:
    """64-bit word operations of `_box_lower_sums` over these box windows,
    for a ball mass and largest coefficient of these bit lengths: on lane
    rows of ceil((width + 1) L / 8) words, L the lane bytes of the widened
    window's size and the mass, ceil(log2 width) + 1 shift-adds a widened
    row and radius + 1 coefficient terms a window row; then log2 |window|
    + 1 a site, to read the sums and, in D', sort them."""
    total = 0
    for window in windows:
        lo, hi = window.bounds
        rows = hi[0] - lo[0] + 1 if window.dim == 2 else 1
        big_rows = rows + 2 * radius if window.dim == 2 else 1
        width = hi[-1] - lo[-1] + 1 + 2 * radius
        L = lane_size(max((big_rows * width).bit_length(), mass_bits))
        row_ops = big_rows * ((width - 1).bit_length() + 1)
        row_ops += rows * (radius + 1) * (1 + -(-coef_bits // 64))
        sites = window.size()
        total += -(-(width + 1) * L // 8) * row_ops + sites * sites.bit_length()
    return total


def _site_lower_sums(
    x: Configuration,
    z: Configuration,
    window: FiniteSubset,
    metric: AdmissibleMetric,
    radius: int,
) -> tuple[list[int], int]:
    """Truncated distance lower bounds d_lo(g x, g z), one per g in window,
    as integer numerators over the denominator of the shell numerators:
    the per-site reference, one ball of sites around each g."""
    nums, den, _ = _shell_numerators(metric, radius)
    ball = FiniteSubset.box((-radius,) * x.dim, (radius,) * x.dim)
    terms = [(h, nums[sup_norm(h)]) for h in ball]
    mm = _mismatch_memo(x, z)
    out = []
    for g in window:
        acc = 0
        for h, k in terms:
            if mm(compose(g, h)):
                acc += k
        out.append(acc)
    return out, den


def _box_lower_sums(
    x: Configuration,
    z: Configuration,
    window: FiniteSubset,
    metric: AdmissibleMetric,
    radius: int,
) -> tuple[list[int], int]:
    """The same lower bounds for a box window, over the same denominator,
    in window order.

    With C_r(g) the mismatch count in the sup-norm box of radius r around
    g, the lower sum is sum_r w_r (C_r - C_{r-1}) = sum_r (w_r - w_{r+1}) C_r
    (w_{radius+1} = 0), and every C_r is read from a summed-area table of
    the mismatch rows over window + ball.

    Each table row is a lane row of `configs` with an L-byte lane per
    column: lane j counts the mismatches in the rows above and the
    columns left of j.  A row is the previous one plus the prefix
    sums of the XORed bulk row, taken by log2(width) lane shift-adds.  For
    one window row, C_r of every column is a difference of two table rows
    shifted down by two lane offsets, and the coefficients scale and sum
    these whole rows at once.  Table lanes never decrease along a row, so
    no borrow crosses a lane below the window's columns; L holds every
    table entry and every lower sum, so every lane of the result is exact.
    """
    nums, den, mass = _shell_numerators(metric, radius)
    coef = [a - b for a, b in zip(nums, nums[1:] + [0])]
    lo, hi = window.bounds
    big = FiniteSubset.box(tuple(c - radius for c in lo), tuple(c + radius for c in hi))
    cols = hi[-1] - lo[-1] + 1
    width = cols + 2 * radius
    # the largest table entry is |big|, the largest lower sum the mass
    top = max(len(big), mass)
    L = lane_size(top.bit_length())
    lane = 8 * L
    # shift-adds by 1, 2, 4, ... lanes, until each of the lanes 1..width
    # (the row's columns) sums itself and every lane below it
    steps = [lane << k for k in range((width - 1).bit_length())]
    row_mask = (1 << lane * (width + 1)) - 1
    # table[i], lane j: mismatches in rows < i and columns < j of the big box
    table = [0]
    for row in lane_rows(map(xor, x.rows(big), z.rows(big)), width, L, 1):
        for step in steps:
            row += row << step
        table.append(table[-1] + (row & row_mask))
    two_d = x.dim == 2
    base = radius if two_d else 0
    height = hi[0] - lo[0] + 1 if two_d else 1
    # column c's radius-r box spans the table columns [c + radius - r,
    # c + radius + r + 1)
    edges = [(lane * (radius + r + 1), lane * (radius - r)) for r in range(radius + 1)]
    read = lane_reader(L, cols)
    out: list[int] = []
    for i in range(base, base + height):
        acc = 0
        for r, c in enumerate(coef):
            dr = r if two_d else 0
            strip = table[i + dr + 1] - table[i - dr]
            right, left = edges[r]
            acc += c * ((strip >> right) - (strip >> left))
        # lanes at and above `cols` hold borrows; the ones below are exact
        out += read(acc)
    return out, den


def _lower_sums(
    x: Configuration,
    z: Configuration,
    window: FiniteSubset,
    metric: AdmissibleMetric,
    radius: int,
) -> tuple[list[int], int]:
    """Lower bounds d_lo(g x, g z) for g in window as integer numerators
    over one common denominator: in bulk when the configurations have rows
    over the window, else per site."""
    _same_dimension([window], [x, z])
    if rows_available(window, x, z):
        return _box_lower_sums(x, z, window, metric, radius)
    return _site_lower_sums(x, z, window, metric, radius)


def besicovitch_estimate(
    x: Configuration,
    z: Configuration,
    F: FolnerSequence,
    n: int,
    metric: AdmissibleMetric | None = None,
    radius: int = DEFAULT_RADIUS,
) -> tuple[Fraction, Fraction]:
    """Folner average of truncated distances: interval [lo, hi], hi-lo <= tail.

    lo averages the integer lower sums d_lo(g x, g z) over the window; hi
    averages min(d_lo + tail, 1), summed as scale * sum(k) + tail * count
    less the excess over 1 of the sites that reach the cap.
    """
    metric = common_metric(x, z, metric)
    window = F.set_at(n)
    nums, den = _lower_sums(x, z, window, metric, radius)
    # hi_g = min(lo_g + tail, 1), over the denominator of lo_g and tail:
    # 1/den and tail scale to (scale, tail_num) over hi_den
    hi_den, (scale, tail_num) = integer_scale((Fraction(1, den), metric.tail_bound(radius)))
    total, count = sum(nums), len(nums)
    # k * scale + tail_num > hi_den exactly when k exceeds this
    capped = list(filter(((hi_den - tail_num) // scale).__lt__, nums))
    excess = sum(capped) * scale + (tail_num - hi_den) * len(capped)
    hi_total = total * scale + tail_num * count - excess
    return Fraction(total, den * count), Fraction(hi_total, hi_den * count)


def besicovitch_trace(
    x: Configuration,
    z: Configuration,
    F: FolnerSequence,
    n_list: Sequence[int],
    metric: AdmissibleMetric | None = None,
    radius: int = DEFAULT_RADIUS,
) -> EstimateTrace:
    """Interval rows per n; row value is the interval midpoint."""
    rows = []
    for n in _checked_n_list(n_list):
        lo, hi = besicovitch_estimate(x, z, F, n, metric, radius)
        rows.append(TraceRow(n, (lo + hi) / 2, lo, hi))
    return EstimateTrace(rows)


@dataclass(frozen=True)
class DPrimeEstimate:
    """`saturated` is always False, since the top value 10001/10000 is
    feasible on every window.  It stays while `bench/workloads.py` and
    `bench/pins.json` read it, and goes with the bench change that makes
    D' exact (ROADMAP item 5)."""

    value: Fraction
    saturated: bool


# D' decides the steps j / 200, j = 1..200
_DPRIME_STEPS = 200


def besicovitch_prime_estimate(
    x: Configuration,
    z: Configuration,
    F: FolnerSequence,
    n: int,
    metric: AdmissibleMetric | None = None,
    radius: int = DEFAULT_RADIUS,
) -> DPrimeEstimate:
    """Smallest step delta = j/200 with density{g : d_lo(g x, g z) >= delta} < delta.

    A site counts toward the density only when the truncation LOWER bound
    already clears delta.  Feasibility is monotone in delta, so the minimum
    is well defined; each step is decided in integers.  When no step is
    feasible the value is 10001/10000, which always is: no lower sum
    exceeds its denominator, so no site clears it.
    """
    metric = common_metric(x, z, metric)
    window = F.set_at(n)
    nums, den = _lower_sums(x, z, window, metric, radius)
    nums.sort()
    count = len(nums)
    for j in range(1, _DPRIME_STEPS + 1):
        # k / den >= j / 200 exactly when the integer k >= ceil(j * den / 200),
        # and the density above / count < j / 200 when 200 * above < j * count
        above = count - bisect_left(nums, -(-j * den // _DPRIME_STEPS))
        if _DPRIME_STEPS * above < j * count:
            return DPrimeEstimate(Fraction(j, _DPRIME_STEPS), False)
    return DPrimeEstimate(Fraction(10001, 10000), False)


def mismatch_density(x: Configuration, z: Configuration, window: FiniteSubset) -> Fraction:
    """Exact |{f in window : x(f) != z(f)}| / |window|."""
    _same_dimension([window], [x, z])
    if rows_available(window, x, z):
        return Fraction(_mismatches(x, z, window), len(window))
    xv, zv = x.value, z.value
    return Fraction(sum(1 for f in window if xv(f) != zv(f)), len(window))


def dbar_estimate(x: Configuration, z: Configuration, F: FolnerSequence, n: int) -> Fraction:
    """Exact mismatch density |{f in F_n : x(f) != z(f)}| / |F_n|."""
    return mismatch_density(x, z, F.set_at(n))


def dbar_trace(
    x: Configuration, z: Configuration, F: FolnerSequence, n_list: Sequence[int]
) -> EstimateTrace:
    rows = []
    for n in _checked_n_list(n_list):
        val = dbar_estimate(x, z, F, n)
        rows.append(TraceRow(n, val, val, val))
    return EstimateTrace(rows)


def joint_period_box(la: Lattice, lb: Lattice) -> FiniteSubset:
    """A box [0, M_1) x ... x [0, M_d) that is a full period of both lattices.

    M_i is the lcm of the orders of the unit vector e_i in Z^d / la and
    Z^d / lb, so M_i e_i lies in both lattices and the box tiles Z^d by a
    common sublattice.  For product lattices the orders are the moduli.
    """
    units = [tuple(int(i == j) for j in range(la.dim)) for i in range(la.dim)]
    axes = [lcm(la.order(e), lb.order(e)) for e in units]
    return FiniteSubset.box((0,) * la.dim, tuple(m - 1 for m in axes))


def exact_mismatch_density(x: Configuration, z: Configuration) -> Fraction:
    """Exact dbar limit for two periodic configurations: the mismatch
    density over one joint period box of their declared lattices."""
    if x.period_lattice is None or z.period_lattice is None:
        raise ValueError("exact density needs two periodic configurations")
    return mismatch_density(x, z, joint_period_box(x.period_lattice, z.period_lattice))
