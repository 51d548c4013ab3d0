"""Exact optimal transport between pattern distributions, and the joining
pseudometric machinery built on it.

A `Coupling` is held as a pattern distribution is, integer counts over one
denominator with a Fraction `weights` view, and gluing runs in integers.
The solver is a transportation simplex in integers, on the problem that
`measures._integer_problem` builds for it, for the oracle and for
Prokhorov's levels alike: masses scaled to their common denominator D and
costs by the lcm E of theirs (`configs.integer_scale`, the one exact
scale, which a Coupling's Fraction entry, `Coupling.cost` and the
certificate check also use).  It runs from a northwest corner start
that comes with its potentials, walks the basis tree once per pivot for
the entering cycle and the next duals, pivots by Bland's rule, and has
a complementary slackness certificate checked on every solve.  Its
integer kernel, `_simplex`, also gives the coupled masses of
`measures.prokhorov_distance`, whose levels thereby pass the same duality
checks.  An independent oracle searches every integer contingency table
at the common mass denominator (the transportation polytope has integral
vertices there, so the search is exhaustive for the optimum) by branch
and bound in integers, cutting a branch only on admissible row and column
lower bounds.  Costs are read from the cost function as Fractions (or any
exact numbers); every other Fraction is built at the edge, once per
result: a solve's value and potentials, the oracle's value, and, in
`hamming_per_site_cost`, one Fraction per mismatch count when the cost is
made.  The general joining infimum is computed only two honest ways: a
monotone lower-bound chain from finite windows and an exact
shift-enumeration oracle for periodic orbit measures, which reads each
binary configuration once, as bulk rows.  The harness that dbar
dominates that infimum, `check_db_ge_rho`, is decided by exact links
alone (chain <= oracle <= the dbar limit, and dbar over a box window >= a
floor counted from the whole joint periods it holds), never by a
tolerance.  Pair joinings read their joint patterns through
`measures._pattern_counts`, the reader behind empirical measures.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, gt, mul, ne, sub
from typing import Callable, Mapping, Sequence

from .configs import Configuration, Lattice, integer_scale, rows_available, shift
from .errors import (
    IncompatibleMiddleError,
    IncompatibleWindowsError,
    InvalidDimensionError,
    InvalidFamilyError,
)
from .groups import FiniteSubset, FolnerSequence, Point, sorted_sites
from .measures import (
    Pattern,
    PatternCost,
    PatternDistribution,
    _FractionView,
    _integer_problem,
    _lowest_terms,
    _pattern_counts,
    empirical_measure,
)
from .metrics import dbar_estimate, exact_mismatch_density, joint_period_box, mismatch_density

class Coupling:
    """Joint distribution over pattern pairs with prescribed marginals.

    Held as a `PatternDistribution` is: positive integer `counts` over the
    pairs and one denominator `den`, in lowest terms, checked by the one
    integer marginal test of `from_counts`; `weights` is a Fraction view.
    """

    __slots__ = ("left", "right", "den", "counts")

    def __init__(
        self,
        left: PatternDistribution,
        right: PatternDistribution,
        weights: Mapping[tuple[Pattern, Pattern], Fraction],
    ):
        """Fraction entry: the weights must sum to exactly 1;
        `configs.integer_scale` puts them over the lcm of their
        denominators, and `from_counts` checks them."""
        L, nums = integer_scale(weights.values())
        if sum(nums) != L:
            raise ValueError("coupling weights must sum to exactly 1")
        counts: dict[tuple[Pattern, Pattern], int] = defaultdict(int)
        for (p, q), c in zip(weights, nums):
            counts[(tuple(p), tuple(q))] += c
        held = Coupling.from_counts(left, right, counts)
        self.left, self.right, self.den, self.counts = left, right, held.den, held.counts

    @classmethod
    def from_counts(
        cls,
        left: PatternDistribution,
        right: PatternDistribution,
        counts: Mapping[tuple[Pattern, Pattern], int],
    ) -> "Coupling":
        """Mass c / total on each pair of pattern tuples, total the sum of
        the counts, which need not be in lowest terms.  This is the one
        marginal check: a negative count or an all-zero table is refused,
        zero counts are dropped, and the row sums over the total must be
        `left` in lowest terms and the column sums `right`."""
        if not left.same_window(right):
            raise IncompatibleWindowsError("coupling across different windows")
        kept: dict[tuple[Pattern, Pattern], int] = {}
        rows: dict[Pattern, int] = defaultdict(int)
        cols: dict[Pattern, int] = defaultdict(int)
        for (p, q), c in counts.items():
            if c < 0:
                raise ValueError(f"negative coupling count at {(p, q)}")
            if c:
                kept[(p, q)] = c
                rows[p] += c
                cols[q] += c
        total = sum(rows.values())
        if not total:
            raise ValueError("coupling counts must have a positive total")
        if _lowest_terms(total, rows) != (left.den, left.counts):
            raise ValueError("row sums do not match the left marginal")
        if _lowest_terms(total, cols) != (right.den, right.counts):
            raise ValueError("column sums do not match the right marginal")
        out = cls.__new__(cls)
        out.left, out.right = left, right
        out.den, out.counts = _lowest_terms(total, kept)
        return out

    @property
    def weights(self) -> Mapping[tuple[Pattern, Pattern], Fraction]:
        """Pair masses as Fractions: a read-only view of the counts."""
        return _FractionView(self.counts, self.den)

    def cost(self, cost: PatternCost) -> Fraction:
        # exact in integers: counts over den, costs over the lcm S of theirs
        S, costs = integer_scale([cost(p, q) for p, q in self.counts])
        total = sum(n * c for n, c in zip(self.counts.values(), costs))
        return Fraction(total, self.den * S)

    def to_dict(self) -> dict:
        return {
            "window": [list(s) for s in self.left.sites],
            "pairs": [
                [list(p), list(q), w.numerator, w.denominator]
                for (p, q), w in sorted(self.weights.items())
            ],
        }

    def __repr__(self) -> str:
        return f"Coupling({len(self.counts)} atoms)"


def hamming_per_site_cost(sites: Sequence[Point]) -> PatternCost:
    """Mismatch count divided by window size.  A window that repeats a site
    or mixes dimensions is refused (`groups.sorted_sites`), and so are
    patterns of another length than the window."""
    size = len(sorted_sites(sites))
    if size == 0:
        raise ValueError("empty window")
    # one Fraction per mismatch count, built with the cost, not per call
    by_count = [Fraction(k, size) for k in range(size + 1)]

    def fn(p: Pattern, q: Pattern) -> Fraction:
        if len(p) != size or len(q) != size:
            raise ValueError(
                f"patterns of {len(p)} and {len(q)} sites on a window of {size}"
            )
        return by_count[sum(map(ne, p, q))]

    return fn


@dataclass(frozen=True)
class TransportResult:
    coupling: Coupling
    value: Fraction
    row_potentials: dict[Pattern, Fraction]
    col_potentials: dict[Pattern, Fraction]


def _northwest_corner(
    a: list[int], b: list[int], K: list[list[int]]
) -> tuple[dict[tuple[int, int], int], list[int]]:
    """Initial basic feasible staircase with exactly m+n-1 cells, and its
    potentials.  The keys of the returned flows are the basis; ra and rb
    are what row i still supplies and column j still needs.  Each cell
    after (0, 0) brings in one new row or column, whose potential the
    cell's cost fixes, so the potentials are those of `_basis_tree`."""
    m, n = len(a), len(b)
    flows: dict[tuple[int, int], int] = {}
    pot = [0] * (m + n)
    pot[m] = K[0][0]
    i = j = 0
    ra, rb = a[0], b[0]
    while True:
        t = ra if ra < rb else rb
        flows[(i, j)] = t
        ra -= t
        rb -= t
        if not ra and i < m - 1:
            i += 1
            ra = a[i]
            pot[i] = K[i][j] - pot[m + j]
        elif j < n - 1:
            j += 1
            rb = b[j]
            pot[m + j] = K[i][j] - pot[i]
        elif i < m - 1:
            raise AssertionError("supplies and demands have different totals")
        else:
            return flows, pot


def _basis_tree(basis, K, m: int, n: int) -> tuple[list[int], list[int], list[int]]:
    """(potential, parent, depth) of every node of the basis tree rooted at
    row 0, where row i is node i and column j is node m+j.  Potentials are
    the duals: 0 at row 0 and u_i + v_j = K[i][j] on every basic cell."""
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for i, j in basis:
        adj[i].append(m + j)
        adj[m + j].append(i)
    pot, parent, depth = [0] * (m + n), [-1] * (m + n), [-1] * (m + n)
    depth[0] = 0
    stack = [0]
    while stack:
        k = stack.pop()
        for x in adj[k]:
            if depth[x] < 0:
                parent[x], depth[x] = k, depth[k] + 1
                pot[x] = (K[k][x - m] if k < m else K[x][k - m]) - pot[k]
                stack.append(x)
    if min(depth) < 0:
        raise AssertionError("basis does not span the bipartite node set")
    return pot, parent, depth


MAX_PIVOTS = 100_000


def _simplex(
    a: list[int], b: list[int], K: list[list[int]]
) -> tuple[dict[tuple[int, int], int], list[int], int]:
    """Integer transportation simplex: (flows, potentials, value) of an
    optimal basis for supplies a, demands b (equal totals) and costs K.

    Flows map the basic cells (i, j) to their integer flows; potentials
    are u_0..u_{m-1} then v_0..v_{n-1}.  The northwest-corner start comes
    with its potentials, so a start that is already optimal walks no tree.
    Each pivot walks the basis tree once: its parent pointers give the
    entering cycle, and the walk of the new basis gives its potentials.
    Pivoting uses Bland's rule (first negative reduced cost in row-major
    order; lexicographically smallest leaving cell), so the solve is
    deterministic and cannot cycle.  The loop ends only on a dual-feasible
    basis (the scan finds no negative reduced cost), and strong duality is
    asserted, exactly, before returning.
    """
    m, n = len(a), len(b)
    flows, pot = _northwest_corner(a, b, K)
    parent = depth = None
    for _ in range(MAX_PIVOTS):
        u, v = pot[:m], pot[m:]
        # basic cells have reduced cost 0, so the scan needs no basis test;
        # a row enters where some K[i][j] - v[j] < u[i], at its first such j
        i = next((i for i in range(m) if min(map(sub, K[i], v)) < u[i]), None)
        if i is None:
            # u_i + v_j <= K[i][j] on every cell: the basis is dual feasible
            break
        ui = u[i]
        enter = i, next(j for j, k in enumerate(map(sub, K[i], v)) if k < ui)
        if parent is None:
            # the staircase start has potentials but no tree yet
            _, parent, depth = _basis_tree(flows, K, m, n)
        # tree path from row i0 and from column j0 up to their common
        # ancestor; signs alternate, -1 on the edge at row i0
        x, y = enter[0], m + enter[1]
        cycle = []
        while x != y:
            if depth[x] >= depth[y]:
                x, k = parent[x], x
                sign = -1 if k < m else 1
            else:
                y, k = parent[y], y
                sign = 1 if k < m else -1
            cycle.append(((k, parent[k] - m) if k < m else (parent[k], k - m), sign))
        minus_cells = [cell for cell, sign in cycle if sign < 0]
        theta = min(flows[cell] for cell in minus_cells)
        leaving = min(cell for cell in minus_cells if flows[cell] == theta)
        flows[enter] = theta
        for cell, sign in cycle:
            flows[cell] += sign * theta
        del flows[leaving]
        pot, parent, depth = _basis_tree(flows, K, m, n)
    else:
        raise AssertionError("pivot limit exceeded; Bland's rule should prevent this")

    value = sum(f * K[i][j] for (i, j), f in flows.items())
    # dual feasibility ended the loop; strong duality, exact
    if sum(map(mul, pot, a + b)) != value:
        raise AssertionError("strong duality violated; solver bug")
    return flows, pot, value


def min_cost_transport(
    mu: PatternDistribution,
    nu: PatternDistribution,
    cost: PatternCost,
) -> TransportResult:
    """Exact optimal coupling and cost, with a dual certificate.

    The simplex (`_simplex`) runs on `measures._integer_problem`: the
    counts of mu and nu scaled to D = lcm(mu.den, nu.den), costs by the lcm
    E of their denominators (the problem is totally unimodular, so every basic
    solution is integral at D).  The returned potentials satisfy
    u_i + v_j <= c_ij everywhere with equality on the support, and the
    primal value equals the dual value; the kernel asserts both before
    returning, and `Coupling.from_counts` checks the integer flows' row
    and column sums against mu and nu.
    """
    rows, cols, D, a, b, E, K = _integer_problem(mu, nu, cost)
    if min(map(min, K)) < 0:
        raise ValueError("costs must be nonnegative")
    flows, pot, value = _simplex(a, b, K)
    m = len(rows)
    potentials = [Fraction(x, E) for x in pot]
    return TransportResult(
        coupling=Coupling.from_counts(
            mu, nu, {(rows[i], cols[j]): f for (i, j), f in flows.items()}
        ),
        value=Fraction(value, D * E),
        row_potentials=dict(zip(rows, potentials)),
        col_potentials=dict(zip(cols, potentials[m:])),
    )


def verify_transport_certificate(
    result: TransportResult,
    cost: PatternCost,
) -> bool:
    """Re-check the optimality certificate independently of the solver.

    Every cost is recomputed from `cost`, and the check runs in integers
    at scales of its own: costs and potentials times S, the lcm of their
    denominators, and masses times M, the lcm of the denominators of the
    marginals and of the coupling.  It checks dual feasibility
    (u_p + v_q <= c_pq on every pair), tightness on the coupling's support
    and primal = value = dual, and reads nothing else of the solver.
    Rows and columns are indexed in the supports' own order.
    """
    coupling = result.coupling
    mu, nu = coupling.left, coupling.right
    u, v = result.row_potentials, result.col_potentials
    rows, cols = list(mu.counts), list(nu.counts)
    m, n = len(rows), len(cols)
    # the costs row by row, then the potentials: one scale S for all
    values = [cost(p, q) for p in rows for q in cols]
    values += map(u.__getitem__, rows)
    values += map(v.__getitem__, cols)
    S, ints = integer_scale(values)
    us, vs = ints[m * n : m * n + m], ints[m * n + m :]
    # dual feasibility, u_p + v_q <= c_pq on every pair, in one pass: each
    # u repeated n times and the v's m times line up with the m n costs
    if any(map(gt, map(add, [ui for ui in us for _ in cols], vs * m), ints)):
        return False
    row_of, col_of = dict(zip(rows, range(m))), dict(zip(cols, range(n)))
    primal = 0
    # a Coupling's counts are positive, so every key is in the support
    for (p, q), count in coupling.counts.items():
        i, j = row_of[p], col_of[q]
        c = ints[i * n + j]
        if us[i] + vs[j] != c:
            return False
        primal += count * c
    M = lcm(mu.den, nu.den, coupling.den)
    primal *= M // coupling.den
    dual = sum(map(mul, us, map(mu.counts.__getitem__, rows))) * (M // mu.den)
    dual += sum(map(mul, vs, map(nu.counts.__getitem__, cols))) * (M // nu.den)
    value = result.value
    return primal == dual and primal * value.denominator == value.numerator * M * S


def brute_force_min_cost(
    mu: PatternDistribution,
    nu: PatternDistribution,
    cost: PatternCost,
) -> Fraction:
    """Exhaustive minimum over integer contingency tables, by branch and bound.

    At the common denominator D of all marginal masses the transportation
    polytope has integer-numerator vertices, so scanning integer tables
    with the prescribed margins finds the exact optimum.  The masses at D
    and the costs at the lcm E of their denominators come from
    `measures._integer_problem`; the search runs in ints and returns
    best / (D E).  A branch is cut only when an admissible
    lower bound on its completions reaches the incumbent: the larger of
    the row bound (every unit left in rows i.. at its row's minimum cost)
    and the column bound (every unit a column still needs at that column's
    minimum over rows i..); inside a row, the mass left in the row at its
    cheapest remaining cost plus the row bound of the later rows.  Rows try
    their columns cheapest first and cells their largest mass first.  Uses
    nothing from the simplex.  Exponential in the support sizes; intended
    as an oracle for small instances.
    """
    rows, cols, D, r, rem, E, K = _integer_problem(mu, nu, cost)
    m, n = len(rows), len(cols)
    order = [sorted(range(n), key=row.__getitem__) for row in K]
    # row_tail[i]: the row bound of rows i..; col_min[i][j]: min of column j over rows i..
    row_tail = [0] * (m + 1)
    for i in reversed(range(m)):
        row_tail[i] = row_tail[i + 1] + r[i] * min(K[i])
    col_min = K[:]
    for i in reversed(range(m - 1)):
        col_min[i] = list(map(min, K[i], col_min[i + 1]))
    # strictly above the cost of every table
    unset = best = sum(map(mul, r, map(max, K))) + 1

    def fill(i: int, acc: int) -> None:
        nonlocal best
        if i == m:
            if not any(rem):
                best = acc
            return
        need = sum(map(mul, rem, col_min[i]))
        if acc + max(row_tail[i], need) < best:
            place(i, 0, r[i], acc)

    def place(i: int, k: int, left: int, acc: int) -> None:
        j = order[i][k]
        cij = K[i][j]
        if k + 1 == n:
            # the row's last column takes all that is left, if it can
            if rem[j] >= left:
                rem[j] -= left
                fill(i + 1, acc + left * cij)
                rem[j] += left
            return
        nxt = K[i][order[i][k + 1]]
        tail = row_tail[i + 1]
        for t in range(min(left, rem[j]), -1, -1):
            rest, cur = left - t, acc + t * cij
            # cutting here cuts every smaller t: cur + rest * nxt only grows
            if rest and cur + rest * nxt + tail >= best:
                break
            rem[j] -= t
            if rest:
                place(i, k + 1, rest, cur)
            else:
                fill(i + 1, cur)
            rem[j] += t

    fill(0, 0)
    # fill and place hold each other through their cells: a cycle that
    # only the cyclic collector would free
    del fill, place
    if best == unset:
        raise AssertionError("no feasible table; marginals inconsistent")
    return Fraction(best, D * E)


def glue_couplings(pi12: Coupling, pi23: Coupling) -> Coupling:
    """Relatively independent gluing over the shared middle marginal.

    pi13(a, c) = sum_b pi12(a, b) pi23(b, c) / eta(b), eta = the common
    middle, in integers: with e_b eta's counts and L their lcm, pair (a, c)
    gets sum_b c12(a, b) c23(b, c) (L // e_b) of a total L D12 D23 / De,
    exactly the formula; `Coupling.from_counts` checks both marginals.
    """
    eta = pi12.right
    if eta != pi23.left:
        raise IncompatibleMiddleError("middle marginals disagree")
    by_middle: dict[Pattern, list[tuple[Pattern, int]]] = defaultdict(list)
    for (b, c), n in pi23.counts.items():
        by_middle[b].append((c, n))
    L = lcm(*eta.counts.values())
    out: dict[tuple[Pattern, Pattern], int] = defaultdict(int)
    for (a, b), n in pi12.counts.items():
        # Coupling invariants put every middle atom seen here in eta
        scaled = n * (L // eta.counts[b])
        for c, m in by_middle[b]:
            out[(a, c)] += scaled * m
    return Coupling.from_counts(pi12.left, pi23.right, out)


def pair_empirical_joining(
    x: Configuration, z: Configuration, F_n: FiniteSubset, W: FiniteSubset
) -> Coupling:
    """Empirical distribution of joint W-patterns of (f.x, f.z), f in F_n.

    `measures._pattern_counts` reads each joint pattern once, x's pattern
    followed by z's; each key is split at |W|, both marginals are taken
    from the joint counts, and the coupling is checked against them in
    integers."""
    m = len(W)
    counts: dict[tuple[Pattern, Pattern], int] = {}
    left: dict[Pattern, int] = defaultdict(int)
    right: dict[Pattern, int] = defaultdict(int)
    for key, c in _pattern_counts([x, z], F_n, W).items():
        p, q = tuple(map(int, key[:m])), tuple(map(int, key[m:]))
        counts[(p, q)] = c
        left[p] += c
        right[q] += c
    mu = PatternDistribution.from_counts(W, left)
    nu = PatternDistribution.from_counts(W, right)
    return Coupling.from_counts(mu, nu, counts)


# the per-site periodicity check runs up to this lattice index; a
# configuration with a bulk rows rule (`Configuration.has_row_rule`) is
# checked on rows of the fundamental domain and its translates, up to the
# larger limit.  Beyond its limit a lattice is refused, never left unchecked.
PERIOD_CHECK_SITES = 100_000
PERIOD_ROW_CHECK_SITES = 1 << 25
# the orbit oracle compares every shift with every site of a joint period:
# up to this many (shift, site) pairs when the configurations are read site
# by site (about 5 us a pair), up to the larger limit when both have a bulk
# rows rule
ORACLE_SITE_PAIRS = 10**6
ORACLE_ROW_PAIRS = 10**8


@dataclass(frozen=True)
class PeriodicOrbitMeasure:
    """Uniform measure on the finitely many translates of a periodic config."""

    config: Configuration
    lattice: Lattice

    def __post_init__(self) -> None:
        if self.config.dim != self.lattice.dim:
            raise InvalidDimensionError("config and lattice dimension differ")
        # spot-check periodicity on the fundamental domain, one generator at a time
        domain = self.lattice.fundamental_domain()
        index = self.lattice.index
        limit = PERIOD_ROW_CHECK_SITES if self.config.has_row_rule() else PERIOD_CHECK_SITES
        if index > limit:
            raise ValueError(
                f"cannot check periodicity under {self.lattice}: index {index} exceeds {limit}"
            )
        for gen in zip(*self.lattice.basis):
            moved = mismatch_density(self.config, shift(gen, self.config), domain)
            if moved:
                raise ValueError(
                    f"config not periodic under the lattice: generator {gen} "
                    f"changes {moved} of the sites of the fundamental domain"
                )

    @classmethod
    def from_config(cls, x: Configuration) -> "PeriodicOrbitMeasure":
        if x.period_lattice is None:
            raise ValueError("configuration does not declare a period lattice")
        return cls(config=x, lattice=x.period_lattice)

    def block_marginal(self, W: FiniteSubset) -> PatternDistribution:
        """Exact W-marginal: pattern frequencies over one fundamental domain."""
        return empirical_measure(self.config, self.lattice.fundamental_domain(), W)

    def marginal_family(self, windows: Sequence[FiniteSubset]) -> list[PatternDistribution]:
        return [self.block_marginal(W) for W in windows]


def oracle_box(a: PeriodicOrbitMeasure, b: PeriodicOrbitMeasure) -> FiniteSubset:
    """The joint period box whose shifts `periodic_rho_oracle` enumerates,
    refused when its (shift, site) pairs pass the oracle's limit.  Callers
    that build marginals or chains before the oracle run it first, so a
    pair the oracle would refuse costs no other work."""
    if a.lattice.dim != b.lattice.dim:
        raise InvalidDimensionError("orbit measures in different dimensions")
    box = joint_period_box(a.lattice, b.lattice)
    bulk = a.config.has_row_rule() and b.config.has_row_rule()
    limit = ORACLE_ROW_PAIRS if bulk else ORACLE_SITE_PAIRS
    if box.size() ** 2 > limit:
        raise ValueError(f"joint period {box.size()} too large for shift enumeration")
    return box


def periodic_rho_oracle(a: PeriodicOrbitMeasure, b: PeriodicOrbitMeasure) -> Fraction:
    """Exact joining infimum for two periodic orbit measures.

    Every ergodic joining of two periodic systems is the uniform orbit
    measure of some relative shift, so the minimum of per-site mismatch
    frequency over one joint period, taken over all shifts in a joint
    fundamental domain, is the exact value.  On bulk rows each
    configuration is read once: x over the joint period box, z over the
    box widened by one period, and shift s compares x's rows with z's rows
    from s_0 on, each moved down by s_1 bits.  Otherwise every shift is
    counted site by site.  The search stops at the first shift with no
    mismatch.
    """
    x, z = a.config, b.config
    box = oracle_box(a, b)
    if not rows_available(box, x, z):
        best = Fraction(1)
        for s in box:
            best = min(best, mismatch_density(x, shift(s, z), box))
            if best == 0:
                break
        return best
    hi = box.bounds[1]
    xs = x.rows(box)
    zs = z.rows(FiniteSubset.box(box.bounds[0], tuple(2 * h for h in hi)))
    height, width = len(xs), hi[-1] + 1
    mask = (1 << width) - 1
    best = len(box)
    # a 1-D box is one row, so its shifts all move bits
    for s0 in range(len(zs) - height + 1):
        rows = zs[s0 : s0 + height]
        for s1 in range(width):
            best = min(best, sum((u ^ (w >> s1 & mask)).bit_count() for u, w in zip(xs, rows)))
            if best == 0:
                return Fraction(0)
    return Fraction(best, len(box))


def rho_bar_lower(
    mu_family: Sequence[PatternDistribution],
    nu_family: Sequence[PatternDistribution],
    cost: Callable[[Sequence[Point]], PatternCost] = hamming_per_site_cost,
) -> list[Fraction]:
    """Lower-bound chain for the joining infimum from nested block marginals.

    Any joining's W_k-marginal is a feasible coupling of the W_k block
    marginals, so each window's optimal transport value bounds the joining
    infimum from below.  `cost` makes each window's pattern cost from its
    sites: `hamming_per_site_cost` averages mismatches over the window
    (dbar flavor); `measures.pattern_metric` sums the default metric's
    site weights (rho flavor, window read as centered at the origin).
    """
    if len(mu_family) != len(nu_family):
        raise InvalidFamilyError("families of different length")
    if not mu_family:
        raise InvalidFamilyError("empty marginal family")
    for k, (mu, nu) in enumerate(zip(mu_family, nu_family)):
        if not mu.same_window(nu):
            raise IncompatibleWindowsError(f"window mismatch at stage {k}")
    for fam in (mu_family, nu_family):
        for prev, cur in zip(fam, fam[1:]):
            if not set(prev.sites) < set(cur.sites):
                raise InvalidFamilyError("windows must be strictly nested")
            if cur.marginal(prev.sites) != prev:
                raise InvalidFamilyError("marginal family is inconsistent")
    return [
        min_cost_transport(mu, nu, cost(mu.sites)).value for mu, nu in zip(mu_family, nu_family)
    ]


@dataclass(frozen=True)
class DbRhoReport:
    dbar: Fraction
    oracle: Fraction
    chain: tuple[Fraction, ...]
    limit: Fraction
    floor: Fraction
    n: int
    k_max: int
    passed: bool


def check_db_ge_rho(
    x: Configuration,
    z: Configuration,
    F: FolnerSequence,
    n: int,
    k_max: int,
) -> DbRhoReport:
    """Finite-scale harness for: Besicovitch dbar dominates the joining
    infimum.  Needs periodic configurations so the infimum is computable.

    Passes on exact links only: every chain entry is at most the oracle;
    the oracle is at most `limit`, the dbar limit `exact_mismatch_density`,
    since shift 0 is one of the oracle's shifts; and dbar over the box F_n
    is at least `floor` = limit * whole / |F_n|.  `whole` counts the sites
    of F_n covered by whole translates of the joint period box (side_i less
    side_i mod M_i on each axis), and every translate of that box holds
    exactly limit * |box| mismatches.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    window = F.set_at(n)
    if not window.is_box:
        raise ValueError("the dbar floor needs a box window F_n")
    oa = PeriodicOrbitMeasure.from_config(x)
    ob = PeriodicOrbitMeasure.from_config(z)
    box = oracle_box(oa, ob)
    windows = [
        FiniteSubset.box((0,) * x.dim, (k - 1,) * x.dim) for k in range(1, k_max + 1)
    ]
    chain = tuple(
        rho_bar_lower(oa.marginal_family(windows), ob.marginal_family(windows))
    )
    oracle = periodic_rho_oracle(oa, ob)
    dbar = dbar_estimate(x, z, F, n)
    limit = exact_mismatch_density(x, z)
    period = [h + 1 for h in box.bounds[1]]
    whole = 1
    for lo, hi, m in zip(*window.bounds, period):
        side = hi - lo + 1
        whole *= side - side % m
    floor = limit * whole / len(window)
    passed = all(c <= oracle for c in chain) and oracle <= limit and dbar >= floor
    return DbRhoReport(
        dbar=dbar, oracle=oracle, chain=chain, limit=limit, floor=floor,
        n=n, k_max=k_max, passed=passed,
    )


@dataclass(frozen=True)
class TriangleReport:
    d12: Fraction
    d23: Fraction
    d13: Fraction
    glued_cost: Fraction
    passed: bool


def rho_triangle_check(
    mu: PatternDistribution,
    eta: PatternDistribution,
    nu: PatternDistribution,
    cost: PatternCost,
) -> TriangleReport:
    """Exact triangle inequality check, with the glued coupling as witness."""
    r12 = min_cost_transport(mu, eta, cost)
    r23 = min_cost_transport(eta, nu, cost)
    r13 = min_cost_transport(mu, nu, cost)
    glued_cost = glue_couplings(r12.coupling, r23.coupling).cost(cost)
    passed = r13.value <= r12.value + r23.value and r13.value <= glued_cost
    return TriangleReport(
        d12=r12.value, d23=r23.value, d13=r13.value, glued_cost=glued_cost, passed=passed
    )
