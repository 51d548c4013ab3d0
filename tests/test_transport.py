"""Exact couplings: simplex solver, brute-force oracle, gluing, orbit chains."""

import gc
import hashlib
import itertools
import random
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.configs import (
    Configuration,
    Lattice,
    constant_config,
    periodic_config,
    shift,
    word_config,
)
from shiftlab.errors import (
    IncompatibleMiddleError,
    IncompatibleWindowsError,
    InvalidFamilyError,
)
from shiftlab.examples import random_periodic_pair
from shiftlab.groups import FiniteSubset, custom_folner, make_box_folner
from shiftlab.measures import (
    PatternDistribution,
    empirical_measure,
    pattern_metric,
    prokhorov_distance,
)
from shiftlab.metrics import joint_period_box, mismatch_density
from shiftlab.transport import (
    Coupling,
    PeriodicOrbitMeasure,
    TransportResult,
    brute_force_min_cost,
    check_db_ge_rho,
    glue_couplings,
    hamming_per_site_cost,
    min_cost_transport,
    pair_empirical_joining,
    periodic_rho_oracle,
    rho_bar_lower,
    rho_triangle_check,
    verify_transport_certificate,
)

W0 = FiniteSubset.box((0,), (0,))
HAM0 = hamming_per_site_cost(W0.sorted_points())
F1 = make_box_folner(1)


def dist(weights):
    return PatternDistribution(W0, {(s,): w for s, w in weights.items()})


# --- Coupling ---------------------------------------------------------------

def test_coupling_validates_marginals():
    mu = dist({0: Fraction(1, 2), 1: Fraction(1, 2)})
    good = Coupling(mu, mu, {((0,), (0,)): Fraction(1, 2), ((1,), (1,)): Fraction(1, 2)})
    assert good.cost(HAM0) == 0
    with pytest.raises(ValueError):
        Coupling(mu, mu, {((0,), (0,)): Fraction(1, 2), ((1,), (0,)): Fraction(1, 2)})
    with pytest.raises(ValueError):
        Coupling(mu, mu, {((0,), (0,)): Fraction(3, 4), ((1,), (1,)): Fraction(1, 4)})
    with pytest.raises(ValueError):
        Coupling(mu, mu, {((0,), (0,)): Fraction(-1, 2), ((1,), (1,)): Fraction(3, 2)})


def test_integer_coupling_checks_its_marginals():
    mu = dist({0: Fraction(1, 2), 1: Fraction(1, 2)})
    nu = dist({0: Fraction(1, 4), 1: Fraction(3, 4)})
    good = {((0,), (0,)): 1, ((0,), (1,)): 1, ((1,), (1,)): 2}
    assert Coupling.from_counts(mu, nu, good).weights == {
        pq: Fraction(c, 4) for pq, c in good.items()
    }
    for counts in (
        {((0,), (0,)): 1, ((0,), (1,)): 1, ((1,), (1,)): 1, ((1,), (0,)): 1},
        {((0,), (0,)): 2, ((1,), (1,)): 6},
        {((0,), (0,)): 3, ((0,), (1,)): -1, ((1,), (1,)): 2},
        {((0,), (0,)): 0, ((1,), (1,)): 0},
    ):
        with pytest.raises(ValueError):
            Coupling.from_counts(mu, nu, counts)


@settings(max_examples=150, deadline=None)
@given(table=st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                             st.integers(0, 9), min_size=1, max_size=10)
       .filter(lambda t: any(t.values())),
       data=st.data())
def test_fraction_and_count_couplings_agree(table, data):
    counts = {((p,), (q,)): c for (p, q), c in table.items()}
    total = sum(counts.values())
    left, right = {}, {}
    for (p, q), c in counts.items():
        left[p] = left.get(p, 0) + c
        right[q] = right.get(q, 0) + c
    mu, nu = PatternDistribution.from_counts(W0, left), PatternDistribution.from_counts(W0, right)
    a = Coupling(mu, nu, {pq: Fraction(c, total) for pq, c in counts.items()})
    b = Coupling.from_counts(mu, nu, counts)
    assert (a.den, a.counts) == (b.den, b.counts)
    # one unit moved to any other cell changes a row sum or a column sum
    src = data.draw(st.sampled_from(sorted(pq for pq, c in counts.items() if c)))
    dst = data.draw(st.tuples(st.integers(0, 3), st.integers(0, 3))
                    .map(lambda t: ((t[0],), (t[1],))).filter(lambda pq: pq != src))
    moved = dict(counts)
    moved[src] -= 1
    moved[dst] = moved.get(dst, 0) + 1
    with pytest.raises(ValueError):
        Coupling.from_counts(mu, nu, moved)
    with pytest.raises(ValueError):
        Coupling(mu, nu, {pq: Fraction(c, total) for pq, c in moved.items()})


@settings(max_examples=150, deadline=None)
@given(cells=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                st.integers(1, 9), st.sampled_from((1, 2, 3, 5, 7, 12))),
                      min_size=1, max_size=8),
       costs=st.lists(st.tuples(st.integers(0, 20), st.sampled_from((1, 2, 3, 4, 6, 9, 10))),
                      min_size=16, max_size=16))
def test_coupling_cost_equals_the_fraction_sum(cells, costs):
    raw = {}
    for p, q, num, den in cells:
        key = ((p,), (q,))
        raw[key] = raw.get(key, 0) + Fraction(num, den)
    total = sum(raw.values())
    weights = {pq: w / total for pq, w in raw.items()}
    left, right = {}, {}
    for (p, q), w in weights.items():
        left[p] = left.get(p, 0) + w
        right[q] = right.get(q, 0) + w
    coupling = Coupling(PatternDistribution(W0, left), PatternDistribution(W0, right), weights)
    # an int cost, and Fractions over mixed denominators
    table = {((a,), (b,)): Fraction(*costs[4 * a + b]) if (a + b) % 3 else costs[4 * a + b][0]
             for a in range(4) for b in range(4)}
    cost = coupling.cost(lambda p, q: table[p, q])
    assert isinstance(cost, Fraction)
    assert cost == sum((w * table[pq] for pq, w in weights.items()), Fraction(0))


def test_coupling_rejects_window_mismatch():
    mu = dist({0: Fraction(1)})
    W2 = FiniteSubset.box((0,), (1,))
    nu = PatternDistribution(W2, {(0, 0): Fraction(1)})
    with pytest.raises(IncompatibleWindowsError):
        Coupling(mu, nu, {((0,), (0, 0)): Fraction(1)})


def test_coupling_drops_zero_cells():
    mu = dist({0: Fraction(1)})
    c = Coupling(mu, mu, {((0,), (0,)): Fraction(1), ((1,), (1,)): Fraction(0)})
    assert set(c.weights) == {((0,), (0,))}


# --- min_cost_transport -----------------------------------------------------

def test_transport_one_site_hamming():
    mu = dist({0: Fraction(2, 10), 1: Fraction(8, 10)})
    nu = dist({0: Fraction(7, 10), 1: Fraction(3, 10)})
    result = min_cost_transport(mu, nu, HAM0)
    coupling, value = result.coupling, result.value
    assert value == Fraction(1, 2)
    assert coupling.cost(HAM0) == value
    assert verify_transport_certificate(result, HAM0)
    assert brute_force_min_cost(mu, nu, HAM0) == Fraction(1, 2)


def solver_calls():
    """One small call of each solver and reader that builds closures."""
    W2 = FiniteSubset.box((0,), (1,))
    ham = hamming_per_site_cost(W2.sorted_points())
    x, z = word_config((0, 1, 1)), word_config((1, 0, 0, 1))
    window = FiniteSubset.box((-3,), (20,))
    mu, nu = empirical_measure(x, window, W2), empirical_measure(z, window, W2)
    result = min_cost_transport(mu, nu, ham)
    assert verify_transport_certificate(result, ham)
    assert brute_force_min_cost(mu, nu, ham) == result.value
    prokhorov_distance(mu, nu)
    pair_empirical_joining(x, z, window, W2)


def test_solvers_leave_no_reference_cycles():
    """Each call frees what it made by reference counting alone, so none
    of them adds work for the cyclic garbage collector."""
    solver_calls()
    gc.collect()
    gc.disable()
    try:
        solver_calls()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_transport_identical_marginals_cost_zero():
    mu = dist({0: Fraction(2, 10), 1: Fraction(8, 10)})
    result = min_cost_transport(mu, mu, HAM0)
    assert result.value == 0
    assert set(result.coupling.weights) == {((0,), (0,)), ((1,), (1,))}


def test_transport_between_diracs():
    da = dist({0: Fraction(1)})
    db = dist({1: Fraction(1)})
    cost = lambda p, q: Fraction(4, 10) if p != q else Fraction(0)
    result = min_cost_transport(da, db, cost)
    assert result.value == Fraction(2, 5)
    assert result.coupling.weights == {((0,), (1,)): Fraction(1)}


def test_transport_certificate_is_strong_duality():
    mu = dist({0: Fraction(1, 3), 1: Fraction(2, 3)})
    nu = dist({0: Fraction(5, 6), 1: Fraction(1, 6)})
    result = min_cost_transport(mu, nu, HAM0)
    dual = sum(result.row_potentials[p] * mu.mass(p) for p in result.row_potentials)
    dual += sum(result.col_potentials[q] * nu.mass(q) for q in result.col_potentials)
    assert dual == result.value
    assert verify_transport_certificate(result, HAM0)


def test_transport_degenerate_instance():
    W2 = FiniteSubset.box((0,), (1,))
    pats = [(0, 0), (0, 1), (1, 0), (1, 1)]
    m3 = PatternDistribution(W2, {pats[0]: Fraction(1, 2), pats[3]: Fraction(1, 2)})
    m4 = PatternDistribution(W2, {pats[1]: Fraction(1, 2), pats[2]: Fraction(1, 2)})
    ham = hamming_per_site_cost(W2.sorted_points())
    result = min_cost_transport(m3, m4, ham)
    assert result.value == Fraction(1, 2) == brute_force_min_cost(m3, m4, ham)


def test_hamming_cost_is_the_mismatch_share():
    # every pair of patterns over three symbols, on windows of 1 to 4 sites
    for size in range(1, 5):
        cost = hamming_per_site_cost([(k,) for k in range(size)])
        for p, q in itertools.product(itertools.product(range(3), repeat=size), repeat=2):
            got = cost(p, q)
            assert type(got) is Fraction
            assert got == Fraction(sum(a != b for a, b in zip(p, q)), size)


def test_hamming_cost_refuses_patterns_of_another_length():
    cost = hamming_per_site_cost([(0,), (1,)])
    for p, q in (((0,), (0, 1)), ((0, 1), (1,)), ((0, 1, 1), (1, 0, 0)), ((), ())):
        with pytest.raises(ValueError, match="window of 2"):
            cost(p, q)


def test_transport_matches_brute_force_on_seeded_instances():
    rng = random.Random(11)
    W2 = FiniteSubset.box((0,), (1,))
    pats = [(0, 0), (0, 1), (1, 0), (1, 1)]
    ham = hamming_per_site_cost(W2.sorted_points())
    for _ in range(25):
        den = rng.choice([2, 3, 4, 5, 6])

        def rand_dist():
            while True:
                cuts = sorted(rng.randrange(den + 1) for _ in range(3))
                ws = [cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], den - cuts[2]]
                if any(ws):
                    return PatternDistribution(
                        W2, {p: Fraction(w, den) for p, w in zip(pats, ws) if w}
                    )

        m1, m2 = rand_dist(), rand_dist()
        result = min_cost_transport(m1, m2, ham)
        assert result.value == brute_force_min_cost(m1, m2, ham)
        assert verify_transport_certificate(result, ham)


def _tables(total, caps):
    """Every split of `total` into len(caps) integer cells, cell j <= caps[j]."""
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    for t in range(min(total, caps[0]) + 1):
        for rest in _tables(total - t, caps[1:]):
            yield (t,) + rest


def _table_cost(table):
    """A cost looked up in a table of pattern pairs."""
    return lambda p, q: table[p, q]


def _every_table_minimum(mu, nu, cost):
    """Unpruned reference: the least cost over every integer table at the
    common denominator, summed in Fractions."""
    rows, cols = mu.support(), nu.support()
    D = lcm(*(w.denominator for w in (*mu.weights.values(), *nu.weights.values())))
    best = None

    def fill(i, rem, acc):
        nonlocal best
        if i == len(rows):
            if not any(rem):
                best = acc if best is None else min(best, acc)
            return
        for cells in _tables(int(mu.weights[rows[i]] * D), rem):
            step = sum(Fraction(t, D) * cost(rows[i], q) for t, q in zip(cells, cols))
            fill(i + 1, [x - t for x, t in zip(rem, cells)], acc + step)

    fill(0, [int(nu.weights[q] * D) for q in cols], Fraction(0))
    return best


@st.composite
def _small_dist(draw, den):
    size = draw(st.integers(1, min(4, den)))
    symbols = draw(st.lists(st.integers(0, 5), min_size=size, max_size=size, unique=True))
    cuts = sorted(draw(st.permutations(range(1, den)))[: size - 1])
    masses = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return dist(dict(zip(symbols, (Fraction(w, den) for w in masses))))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_brute_force_equals_every_table_minimum(data):
    # common denominators up to 12 keep the unpruned reference fast (at 30,
    # the next test's instance, it enumerates for about 25 s)
    den = data.draw(st.integers(1, 6))
    den_nu = data.draw(st.sampled_from([d for d in range(1, 7) if lcm(den, d) <= 12]))
    mu, nu = data.draw(_small_dist(den)), data.draw(_small_dist(den_nu))
    # a few distinct values, so zeros and ties are common; some are negative
    palette = data.draw(
        st.lists(
            st.builds(Fraction, st.integers(-3, 12), st.integers(1, 12)),
            min_size=1,
            max_size=5,
        )
    ) + [Fraction(0)]
    table = {
        (p, q): data.draw(st.sampled_from(palette)) for p in mu.support() for q in nu.support()
    }
    cost = _table_cost(table)
    expected = _every_table_minimum(mu, nu, cost)
    assert brute_force_min_cost(mu, nu, cost) == expected
    if all(c >= 0 for c in table.values()):
        # the simplex too, across mixed mass and cost denominators
        result = min_cost_transport(mu, nu, cost)
        assert result.value == expected
        assert verify_transport_certificate(result, cost)


def test_brute_force_on_a_formerly_slow_four_by_four_instance():
    # criterion 05's slowest instance for the earlier oracle (27 s): masses in
    # sixths and in fifths, common denominator 30; with Hamming cost and with
    # a seeded cost table in twelfths
    mu = dist({2: Fraction(1, 6), 3: Fraction(1, 6), 4: Fraction(1, 3), 5: Fraction(1, 3)})
    nu = dist({0: Fraction(1, 5), 2: Fraction(2, 5), 4: Fraction(1, 5), 5: Fraction(1, 5)})
    rng = random.Random(210)
    table = {(p, q): Fraction(rng.randint(0, 12), 12) for p in mu.support() for q in nu.support()}
    for cost in (HAM0, _table_cost(table)):
        assert brute_force_min_cost(mu, nu, cost) == min_cost_transport(mu, nu, cost).value
    assert brute_force_min_cost(mu, nu, HAM0) == Fraction(13, 30)


F = Fraction
W3 = FiniteSubset.box((0,), (2,))
SYMBOLS = [(s,) for s in range(5)]
COSTS = [
    ["1/3", "11/6", "2", "11/4", "11/12"],
    ["7/12", "5/2", "2", "3/2", "2"],
    ["5/3", "7/4", "11/12", "1/3", "1"],
    ["5/4", "5/6", "1", "9/4", "3/2"],
    ["3/4", "11/4", "3", "1/3", "5/12"],
]


def _pinned_instance(name):
    if name == "hamming":
        mu = {(0, 1, 0): F(1, 10), (0, 1, 1): F(1, 10), (1, 0, 0): F(1, 5),
              (1, 0, 1): F(3, 10), (1, 1, 1): F(3, 10)}
        nu = {(0, 0, 1): F(2, 9), (0, 1, 0): F(1, 3), (0, 1, 1): F(2, 9),
              (1, 0, 1): F(1, 9), (1, 1, 1): F(1, 9)}
        return (PatternDistribution(W3, mu), PatternDistribution(W3, nu),
                hamming_per_site_cost(W3.sorted_points()))
    if name == "table":
        mu = dist({0: F(2, 5), 1: F(1, 10), 2: F(1, 10), 3: F(1, 10), 4: F(3, 10)})
        nu = dist({0: F(1, 3), 1: F(1, 12), 2: F(1, 12), 3: F(1, 6), 4: F(1, 3)})
        table = {(p, q): F(c) for p, row in zip(SYMBOLS, COSTS) for q, c in zip(SYMBOLS, row)}
        return mu, nu, _table_cost(table)
    # every northwest-corner step exhausts a row and a column at once, so the
    # start carries zero-flow basic cells and the pivots are degenerate
    quarters = dist({s: F(1, 4) for s in range(4)})
    return quarters, quarters, lambda p, q: F((p[0] + 1 - q[0]) % 4, 3)


# value, coupling and both potential maps of each pinned solve: a change to
# the pivot order or to the integer scaling fails here
PINNED = {
    "hamming": (
        F(38, 135),
        [
            [[0, 1, 0], [0, 1, 0], 1, 10],
            [[0, 1, 1], [0, 1, 0], 1, 30],
            [[0, 1, 1], [0, 1, 1], 1, 15],
            [[1, 0, 0], [0, 1, 0], 1, 5],
            [[1, 0, 1], [0, 0, 1], 2, 9],
            [[1, 0, 1], [1, 0, 1], 7, 90],
            [[1, 1, 1], [0, 1, 1], 7, 45],
            [[1, 1, 1], [1, 0, 1], 1, 30],
            [[1, 1, 1], [1, 1, 1], 1, 9],
        ],
        {
            (0, 1, 0): F(0, 1),
            (0, 1, 1): F(1, 3),
            (1, 0, 0): F(2, 3),
            (1, 0, 1): F(1, 3),
            (1, 1, 1): F(2, 3),
        },
        {
            (0, 0, 1): F(0, 1),
            (0, 1, 0): F(0, 1),
            (0, 1, 1): F(-1, 3),
            (1, 0, 1): F(-1, 3),
            (1, 1, 1): F(-2, 3),
        },
    ),
    "table": (
        F(101, 180),
        [
            [[0], [0], 7, 30],
            [[0], [4], 1, 6],
            [[1], [0], 1, 10],
            [[2], [2], 1, 15],
            [[2], [3], 1, 30],
            [[3], [1], 1, 12],
            [[3], [2], 1, 60],
            [[4], [3], 2, 15],
            [[4], [4], 1, 6],
        ],
        {(0,): F(0, 1), (1,): F(1, 4), (2,): F(-1, 2), (3,): F(-5, 12), (4,): F(-1, 2)},
        {(0,): F(1, 3), (1,): F(5, 4), (2,): F(17, 12), (3,): F(5, 6), (4,): F(11, 12)},
    ),
    "degenerate": (
        F(0, 1),
        [
            [[0], [1], 1, 4],
            [[1], [2], 1, 4],
            [[2], [3], 1, 4],
            [[3], [0], 1, 4],
        ],
        {(0,): F(0, 1), (1,): F(1, 3), (2,): F(2, 3), (3,): F(1, 1)},
        {(0,): F(-1, 1), (1,): F(0, 1), (2,): F(-1, 3), (3,): F(-2, 3)},
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_solves_are_unchanged(name):
    mu, nu, cost = _pinned_instance(name)
    value, pairs, row_potentials, col_potentials = PINNED[name]
    result = min_cost_transport(mu, nu, cost)
    assert result.value == value
    assert result.coupling.to_dict() == {"window": [list(p) for p in mu.sites], "pairs": pairs}
    assert result.row_potentials == row_potentials
    assert result.col_potentials == col_potentials
    assert verify_transport_certificate(result, cost)


def _scales(mu, nu, cost):
    """The solver's mass scale D and cost scale E of one instance."""
    E = lcm(*(cost(p, q).denominator for p in mu.support() for q in nu.support()))
    return lcm(mu.den, nu.den), E


@pytest.mark.parametrize("name", sorted(PINNED))
def test_certificate_rejects_a_moved_value_or_a_raised_potential(name):
    mu, nu, cost = _pinned_instance(name)
    result = min_cost_transport(mu, nu, cost)
    D, E = _scales(mu, nu, cost)
    assert verify_transport_certificate(result, cost)
    for step in (F(1, 2 * D * E), -F(1, 2 * D * E)):
        moved = replace(result, value=result.value + step)
        assert not verify_transport_certificate(moved, cost)
    for p in mu.support():
        # row p carries mass, so one of its cells is tight and now fails
        raised = dict(result.row_potentials)
        raised[p] += F(1, E)
        assert not verify_transport_certificate(replace(result, row_potentials=raised), cost)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_certificate_rejects_mass_on_a_cell_that_is_not_tight(name):
    mu, nu, cost = _pinned_instance(name)
    result = min_cost_transport(mu, nu, cost)
    u, v, w = result.row_potentials, result.col_potentials, result.coupling.weights
    exchanges = 0
    # move mass theta from (p, q2) and (p2, q) onto (p, q), which is not
    # tight, and (p2, q2): both marginals stay as they were
    for (p, q2), (p2, q) in ((a, b) for a in w for b in w):
        if p == p2 or q == q2 or u[p] + v[q] == cost(p, q):
            continue
        theta = min(w[(p, q2)], w[(p2, q)])
        moved = dict(w)
        for cell, sign in (((p, q), 1), ((p2, q2), 1), ((p, q2), -1), ((p2, q), -1)):
            moved[cell] = moved.get(cell, 0) + sign * theta
        coupling = Coupling(mu, nu, moved)
        for value in (result.value, coupling.cost(cost)):
            forged = replace(result, coupling=coupling, value=value)
            assert not verify_transport_certificate(forged, cost)
        exchanges += 1
    assert exchanges > 0


def test_certificate_rejects_tight_potentials_that_are_not_feasible():
    # the swap coupling with potentials tight on it: primal = dual = value
    # = 1, and only u_1 + v_1 = 2 > 0 = c_11 shows it is not optimal
    half = dist({0: F(1, 2), 1: F(1, 2)})
    swap = Coupling(half, half, {((0,), (1,)): F(1, 2), ((1,), (0,)): F(1, 2)})
    pots = {(0,): F(0), (1,): F(1)}
    forged = TransportResult(coupling=swap, value=F(1), row_potentials=pots, col_potentials=pots)
    assert not verify_transport_certificate(forged, HAM0)


def test_certificate_rejects_mass_off_the_tight_cells_of_a_malformed_coupling():
    # built around `from_counts`, so its row sums are not mu: under feasible
    # u = (1, 0), v = (-1, 0), primal = dual = value = 1/2, and only the
    # mass on (1, 0), where u_1 + v_0 = -1 < 1 = c_10, shows it
    mu, nu = dist({0: F(3, 4), 1: F(1, 4)}), dist({0: F(1, 4), 1: F(3, 4)})
    forged = Coupling.__new__(Coupling)
    forged.left, forged.right, forged.den = mu, nu, 2
    forged.counts = {((1,), (0,)): 1, ((0,), (0,)): 1}
    u, v = {(0,): F(1), (1,): F(0)}, {(0,): F(-1), (1,): F(0)}
    result = TransportResult(coupling=forged, value=F(1, 2), row_potentials=u, col_potentials=v)
    assert not verify_transport_certificate(result, HAM0)


def test_certificate_accepts_an_optimal_coupling_finer_than_its_marginals():
    # under a constant cost every coupling is optimal; this one has
    # denominator 6, which does not divide the marginals' denominator 2
    half = dist({0: F(1, 2), 1: F(1, 2)})
    fine = Coupling(half, half, {((0,), (0,)): F(1, 3), ((0,), (1,)): F(1, 6),
                                 ((1,), (0,)): F(1, 6), ((1,), (1,)): F(1, 3)})
    assert fine.den == 6
    u, v = {(0,): F(1), (1,): F(1)}, {(0,): F(0), (1,): F(0)}
    result = TransportResult(coupling=fine, value=F(1), row_potentials=u, col_potentials=v)
    assert verify_transport_certificate(result, lambda p, q: 1)


def _oracle_shaped(rng):
    """Criterion-05-shaped marginal: denominator 1..6, 1..4 of 6 symbols."""
    den = rng.randint(1, 6)
    size = rng.randint(1, min(4, den))
    cuts = sorted(rng.sample(range(1, den), size - 1))
    masses = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return dist(dict(zip(rng.sample(range(6), size), (F(m, den) for m in masses))))


# sha256 over (value, coupling, both potential maps) of 300 seeded solves,
# taken from the Fraction-weight implementation this integer form replaced
SEEDED_SOLVES_SHA256 = "3d465037e03a0e44a495b8c66d28186fe02bce096c8718b0606f42796d97e9d8"


def _seeded_instances():
    """The 300 seeded criterion-05-shaped instances, Hamming and table costs
    alternating."""
    rng = random.Random(1205)
    for trial in range(300):
        mu, nu = _oracle_shaped(rng), _oracle_shaped(rng)
        cost = HAM0
        if trial % 2:
            cost = _table_cost({((a,), (b,)): F(0) if a == b else F(rng.randint(0, 12), 12)
                                for a in range(6) for b in range(6)})
        yield mu, nu, cost


def test_seeded_solves_hash_is_unchanged():
    digest = hashlib.sha256()
    for mu, nu, cost in _seeded_instances():
        r = min_cost_transport(mu, nu, cost)
        digest.update(repr((
            r.value, r.coupling.to_dict(),
            sorted(r.row_potentials.items()), sorted(r.col_potentials.items()),
        )).encode())
    assert digest.hexdigest() == SEEDED_SOLVES_SHA256


def _moved_off_a_tight_cell(result, cost):
    """The optimal coupling with mass theta moved from (p, q2) and (p2, q)
    onto (p, q), a cell that is not tight, and (p2, q2): the first such
    exchange in sorted order, or None when there is none."""
    u, v, w = result.row_potentials, result.col_potentials, result.coupling.weights
    for (p, q2), (p2, q) in itertools.product(sorted(w), repeat=2):
        if p == p2 or q == q2 or u[p] + v[q] == cost(p, q):
            continue
        theta = min(w[(p, q2)], w[(p2, q)])
        moved = dict(w)
        for cell, sign in (((p, q), 1), ((p2, q2), 1), ((p, q2), -1), ((p2, q), -1)):
            moved[cell] = moved.get(cell, 0) + sign * theta
        coupling = Coupling(result.coupling.left, result.coupling.right, moved)
        return replace(result, coupling=coupling)
    return None


# sha256 over the exhaustive oracle's value and the certificate's verdicts on
# each of the 300 seeded instances: the solver's result, then three forged
# ones (the first row potential raised by 1/E, the value raised by 1/(D E),
# mass moved off a tight cell), taken from the checkers of the commit before
# their per-call work was cut
CHECKERS_SHA256 = "6774d305d1b43ecc92ed2bfc2989eeded2b2bf9f1034446e7249f50f97bc5721"


def test_seeded_checker_verdicts_are_unchanged():
    digest = hashlib.sha256()
    rejected = 0
    for mu, nu, cost in _seeded_instances():
        D, E = _scales(mu, nu, cost)
        r = min_cost_transport(mu, nu, cost)
        raised = dict(r.row_potentials)
        raised[min(raised)] += F(1, E)
        forged = [
            replace(r, row_potentials=raised),
            replace(r, value=r.value + F(1, D * E)),
            _moved_off_a_tight_cell(r, cost),
        ]
        verdicts = [verify_transport_certificate(r, cost)] + [
            None if f is None else verify_transport_certificate(f, cost) for f in forged
        ]
        assert verdicts[0] is True and True not in verdicts[1:]
        rejected += sum(v is False for v in verdicts[1:])
        digest.update(repr((brute_force_min_cost(mu, nu, cost), verdicts)).encode())
    assert rejected > 600
    assert digest.hexdigest() == CHECKERS_SHA256


# --- glue_couplings ---------------------------------------------------------

def test_glue_identity_and_swap():
    eta = dist({0: Fraction(1, 2), 1: Fraction(1, 2)})
    diag = Coupling(eta, eta, {((0,), (0,)): Fraction(1, 2), ((1,), (1,)): Fraction(1, 2)})
    swap = Coupling(eta, eta, {((0,), (1,)): Fraction(1, 2), ((1,), (0,)): Fraction(1, 2)})
    assert glue_couplings(diag, swap).weights == swap.weights
    assert glue_couplings(swap, diag).weights == swap.weights
    glued = glue_couplings(diag, swap)
    assert glued.cost(HAM0) <= diag.cost(HAM0) + swap.cost(HAM0)


def test_glue_rejects_mismatched_middle():
    eta = dist({0: Fraction(1, 2), 1: Fraction(1, 2)})
    other = dist({0: Fraction(1, 3), 1: Fraction(2, 3)})
    c1 = Coupling(eta, eta, {((0,), (0,)): Fraction(1, 2), ((1,), (1,)): Fraction(1, 2)})
    c2 = Coupling(other, other, {((0,), (0,)): Fraction(1, 3), ((1,), (1,)): Fraction(2, 3)})
    with pytest.raises(IncompatibleMiddleError):
        glue_couplings(c1, c2)


# sha256 over to_dict() and cost() of 120 seeded gluings of optimal and
# product couplings, taken from the Fraction gluing this integer form replaced
GLUED_SHA256 = "7dd54393bcb173e511bfd0ba42b1a3c4508a4831ef182523e3443dfd67de1677"


def test_glued_couplings_are_pinned():
    rng = random.Random(1507)

    def rand_dist(size):
        den = rng.choice((2, 3, 4, 5, 6, 8, 12))
        cuts = sorted(rng.randint(0, den) for _ in range(size - 1))
        parts = [b - a for a, b in zip((0, *cuts), (*cuts, den))]
        return PatternDistribution.from_counts(W0, {(s,): p for s, p in enumerate(parts) if p})

    def product(mu, nu):
        return Coupling(mu, nu, {(p, q): mu.weights[p] * nu.weights[q]
                                 for p in mu.counts for q in nu.counts})

    digest = hashlib.sha256()
    for trial in range(120):
        size = rng.randint(2, 6)
        table = [[F(0) if i == j else F(rng.randint(1, 12), 12) for j in range(size)]
                 for i in range(size)]

        def cost(p, q):
            return table[p[0]][q[0]]

        mu, eta, nu = (rand_dist(size) for _ in range(3))
        c12 = min_cost_transport(mu, eta, cost).coupling if trial % 2 else product(mu, eta)
        c23 = min_cost_transport(eta, nu, cost).coupling if trial % 3 else product(eta, nu)
        glued = glue_couplings(c12, c23)
        digest.update(repr((glued.to_dict(), glued.cost(cost))).encode())
    assert digest.hexdigest() == GLUED_SHA256


def test_glue_marginals_are_exact_on_seeded_triples():
    rng = random.Random(23)
    pats = [(s,) for s in range(4)]

    def rand_dist():
        den = rng.choice([4, 6, 8, 12])
        while True:
            cuts = sorted(rng.randrange(den + 1) for _ in range(3))
            ws = [cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], den - cuts[2]]
            if any(ws):
                return PatternDistribution(
                    W0, {p: Fraction(w, den) for p, w in zip(pats, ws) if w}
                )

    for _ in range(20):
        mu, eta, nu = rand_dist(), rand_dist(), rand_dist()
        r12 = min_cost_transport(mu, eta, HAM0)
        r23 = min_cost_transport(eta, nu, HAM0)
        glued = glue_couplings(r12.coupling, r23.coupling)
        assert glued.left == mu and glued.right == nu
        d13 = min_cost_transport(mu, nu, HAM0).value
        assert d13 <= r12.value + r23.value


# --- pair_empirical_joining -------------------------------------------------

def test_pair_joining_of_config_and_its_shift():
    x = word_config((0, 1))
    z = shift((1,), x)
    joint = pair_empirical_joining(x, z, FiniteSubset.box((0,), (3,)), W0)
    assert joint.weights == {((0,), (1,)): Fraction(1, 2), ((1,), (0,)): Fraction(1, 2)}
    assert joint.left == empirical_measure(x, FiniteSubset.box((0,), (3,)), W0)
    assert joint.right == empirical_measure(z, FiniteSubset.box((0,), (3,)), W0)


def test_pair_joining_diagonal_for_equal_configs():
    x = word_config((0, 1))
    joint = pair_empirical_joining(x, x, FiniteSubset.box((0,), (3,)), W0)
    assert joint.weights == {((0,), (0,)): Fraction(1, 2), ((1,), (1,)): Fraction(1, 2)}


# --- PeriodicOrbitMeasure and the orbit oracle ------------------------------

def test_orbit_measure_block_marginal_is_fundamental_domain_empirical():
    x = word_config((0, 0, 1))
    orbit = PeriodicOrbitMeasure.from_config(x)
    W2 = FiniteSubset.box((0,), (1,))
    marg = orbit.block_marginal(W2)
    assert marg == empirical_measure(x, orbit.lattice.fundamental_domain(), W2)
    fam = orbit.marginal_family([W0, W2])
    assert fam[0] == orbit.block_marginal(W0)


def test_orbit_measure_rejects_aperiodic_table():
    lat = Lattice.diagonal(2, dim=1)
    x = word_config((0, 1, 1))  # true period 3, claimed 2
    with pytest.raises(ValueError):
        PeriodicOrbitMeasure(x, lat)


def test_orbit_oracle_examples():
    o01 = PeriodicOrbitMeasure.from_config(word_config((0, 1)))
    o10 = PeriodicOrbitMeasure.from_config(word_config((1, 0)))
    assert periodic_rho_oracle(o01, o10) == 0
    assert periodic_rho_oracle(o01, o01) == 0
    zero = PeriodicOrbitMeasure.from_config(constant_config(1, 0))
    assert periodic_rho_oracle(zero, o01) == Fraction(1, 2)
    a = PeriodicOrbitMeasure.from_config(word_config((0, 0, 1)))
    b = PeriodicOrbitMeasure.from_config(word_config((0, 1, 1)))
    assert periodic_rho_oracle(a, b) == Fraction(1, 3)


def test_orbit_oracle_aligns_two_dimensional_checkerboards():
    lat = Lattice.diagonal((2, 2))
    checker = periodic_config(lat, {(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 0})
    flipped = periodic_config(lat, {(0, 0): 1, (1, 0): 0, (0, 1): 0, (1, 1): 1})
    o1 = PeriodicOrbitMeasure.from_config(checker)
    o2 = PeriodicOrbitMeasure.from_config(flipped)
    assert periodic_rho_oracle(o1, o2) == 0


def _counting_rows(monkeypatch):
    """Count Configuration.rows calls per configuration."""
    calls: dict[int, int] = {}
    rows = Configuration.rows

    def counted(self, box):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return rows(self, box)

    monkeypatch.setattr(Configuration, "rows", counted)
    return calls


@pytest.mark.parametrize("lattice, symbols", [
    (Lattice.diagonal(7, dim=1), 2),
    (Lattice.diagonal((3, 4)), 2),
    (Lattice([[12, 1], [0, 12]]), 2),
    (Lattice.diagonal(5, dim=1), 3),
])
def test_orbit_oracle_matches_per_shift_recounts(monkeypatch, lattice, symbols):
    rng = random.Random(lattice.index * symbols)
    box = joint_period_box(lattice, lattice)
    for trial in range(3):
        tables = [
            {p: rng.randrange(symbols) for p in lattice.fundamental_domain()} for _ in range(2)
        ]
        x = periodic_config(lattice, tables[0], symbols)
        # the last pair is a shifted copy, so its minimum is 0
        base = periodic_config(lattice, tables[0 if trial == 2 else 1], symbols)
        z = shift(tuple(rng.randint(-30, 30) for _ in range(lattice.dim)), base)
        want = min(mismatch_density(x, shift(s, z), box) for s in box)
        oa, oz = PeriodicOrbitMeasure(x, lattice), PeriodicOrbitMeasure(z, lattice)
        calls = _counting_rows(monkeypatch)
        assert periodic_rho_oracle(oa, oz) == want
        monkeypatch.undo()
        if trial == 2:
            assert want == 0
        if symbols == 2:
            # one bulk read of each configuration
            assert calls[id(x)] == calls[id(z)] == 1


# --- rho_bar_lower ----------------------------------------------------------

def _orbit_family(config, ks):
    orbit = PeriodicOrbitMeasure.from_config(config)
    windows = [FiniteSubset.box((0,), (k - 1,)) for k in ks]
    return orbit.marginal_family(windows)


def test_chain_for_constant_vs_alternating():
    mu = _orbit_family(constant_config(1, 0), (1, 2))
    nu = _orbit_family(word_config((0, 1)), (1, 2))
    assert rho_bar_lower(mu, nu) == [Fraction(1, 2), Fraction(1, 2)]


def test_chain_vanishes_for_equal_families():
    fam = _orbit_family(word_config((0, 1)), (1, 2))
    assert rho_bar_lower(fam, fam) == [Fraction(0), Fraction(0)]


def test_chain_saturates_for_disjoint_constants():
    mu = _orbit_family(constant_config(1, 0), (1, 2))
    nu = _orbit_family(constant_config(1, 1), (1, 2))
    assert rho_bar_lower(mu, nu) == [Fraction(1), Fraction(1)]


def test_chain_stays_below_orbit_oracle_on_periodic_families():
    rng = random.Random(41)
    for _ in range(10):
        x, z = random_periodic_pair(rng)
        ox = PeriodicOrbitMeasure.from_config(x)
        oz = PeriodicOrbitMeasure.from_config(z)
        windows = [FiniteSubset.box((0,), (k - 1,)) for k in (1, 2, 3)]
        chain = rho_bar_lower(ox.marginal_family(windows), oz.marginal_family(windows))
        oracle = periodic_rho_oracle(ox, oz)
        assert all(c <= oracle for c in chain)


def test_chain_values_need_not_be_monotone_for_nonstationary_families():
    # stage marginals are individually valid lower bounds, but a consistent
    # non-stationary family can score higher on the smaller window
    W2 = FiniteSubset.box((0,), (1,))
    mu2 = PatternDistribution(W2, {(0, 0): Fraction(9, 10), (1, 1): Fraction(1, 10)})
    nu2 = PatternDistribution(W2, {(1, 0): Fraction(9, 10), (0, 1): Fraction(1, 10)})
    mu = [mu2.marginal(W0), mu2]
    nu = [nu2.marginal(W0), nu2]
    chain = rho_bar_lower(mu, nu)
    assert chain == [Fraction(4, 5), Fraction(1, 2)]


def test_chain_rejects_malformed_families():
    mu = _orbit_family(word_config((0, 1)), (1, 2))
    nu = _orbit_family(word_config((1, 0)), (1,))
    with pytest.raises(InvalidFamilyError):
        rho_bar_lower(mu, nu)
    # same lengths but windows do not nest
    Wa = FiniteSubset.box((0,), (0,))
    Wb = FiniteSubset.box((5,), (5,))
    flat_a = PatternDistribution(Wa, {(0,): Fraction(1)})
    flat_b = PatternDistribution(Wb, {(0,): Fraction(1)})
    with pytest.raises(InvalidFamilyError):
        rho_bar_lower([flat_a, flat_b], [flat_a, flat_b])
    # inconsistent marginals within one family
    W2 = FiniteSubset.box((0,), (1,))
    top = PatternDistribution(W2, {(1, 1): Fraction(1)})
    with pytest.raises(InvalidFamilyError):
        rho_bar_lower([flat_a, top], [flat_a, top])


def test_chain_admissible_flavor_is_bounded():
    mu = _orbit_family(constant_config(1, 0), (1, 2, 3))
    nu = _orbit_family(word_config((0, 1)), (1, 2, 3))
    chain = rho_bar_lower(mu, nu, pattern_metric)
    assert all(0 <= c <= 1 for c in chain)


# --- check_db_ge_rho --------------------------------------------------------

def test_db_ge_rho_for_constant_vs_alternating():
    report = check_db_ge_rho(constant_config(1, 0), word_config((0, 1)), F1, 400, 3)
    assert report.passed
    assert report.dbar == Fraction(200, 401)
    assert report.oracle == Fraction(1, 2)
    assert report.chain == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


def test_db_ge_rho_for_equal_configs():
    x = word_config((0, 1))
    report = check_db_ge_rho(x, x, F1, 100, 2)
    assert report.passed and report.dbar == 0 and report.oracle == 0


def _assert_exact_links(x, z, F, n):
    report = check_db_ge_rho(x, z, F, n, 2)
    assert report.passed
    assert all(c <= report.oracle for c in report.chain)
    assert report.oracle <= report.limit
    assert report.floor <= report.dbar
    lo, hi = F.set_at(n).bounds
    period = joint_period_box(x.period_lattice, z.period_lattice).bounds[1]
    aligned = all((b - a + 1) % (m + 1) == 0 for a, b, m in zip(lo, hi, period))
    if aligned:
        assert report.floor == report.limit == report.dbar
    return aligned


@pytest.mark.parametrize("n", [50, 997, 2519, 10_000])
def test_db_ge_rho_links_hold_on_seeded_pairs(n):
    # {0..2519} is a whole number of joint periods for periods up to 10
    rng = random.Random(n)
    aligned = [_assert_exact_links(*random_periodic_pair(rng, 10), F1, n) for _ in range(12)]
    assert all(aligned) if n == 2519 else not all(aligned)


def test_db_ge_rho_links_hold_on_a_2d_pair():
    rng = random.Random(5)
    x, z = (
        periodic_config(lat, {p: rng.randrange(2) for p in lat.fundamental_domain()})
        for lat in (Lattice([[3, 1], [0, 3]]), Lattice.diagonal((5, 3)))
    )
    F2 = make_box_folner(2, "centered")
    # the joint period box is 15 x 9, so sides 15 and 21 are not whole periods and 45 is
    assert [_assert_exact_links(x, z, F2, n) for n in (7, 10, 22)] == [False, False, True]


def test_db_ge_rho_refuses_a_window_that_is_not_a_box():
    gappy = custom_folner([FiniteSubset([(0,), (2,)])])
    with pytest.raises(ValueError, match="box"):
        check_db_ge_rho(constant_config(1, 0), word_config((0, 1)), gappy, 1, 2)


# --- rho_triangle_check -----------------------------------------------------

def test_triangle_report_values():
    mu = dist({0: Fraction(2, 10), 1: Fraction(8, 10)})
    eta = dist({0: Fraction(1, 3), 1: Fraction(2, 3)})
    nu = dist({0: Fraction(7, 10), 1: Fraction(3, 10)})
    report = rho_triangle_check(mu, eta, nu, HAM0)
    assert report.passed
    assert (report.d12, report.d23, report.d13) == (
        Fraction(2, 15),
        Fraction(11, 30),
        Fraction(1, 2),
    )
    assert report.d13 <= report.glued_cost


def test_every_solver_entry_takes_a_callable_cost_not_a_table():
    # a table of pattern pairs was once a second form of cost, which no
    # caller passed; every entry now calls its cost
    mu = dist({0: Fraction(1, 2), 1: Fraction(1, 2)})
    nu = dist({0: Fraction(1, 3), 1: Fraction(2, 3)})
    table = {(p, q): HAM0(p, q) for p in mu.support() for q in nu.support()}
    result = min_cost_transport(mu, nu, HAM0)
    for call in (
        lambda: min_cost_transport(mu, nu, table),
        lambda: brute_force_min_cost(mu, nu, table),
        lambda: verify_transport_certificate(result, table),
        lambda: rho_triangle_check(mu, nu, nu, table),
        lambda: result.coupling.cost(table),
    ):
        with pytest.raises(TypeError, match="'dict' object is not callable"):
            call()
    assert result.value == result.coupling.cost(_table_cost(table)) == Fraction(1, 6)


def test_triangle_with_collinear_diracs():
    table = {(0, 1): Fraction(2, 10), (1, 2): Fraction(3, 10), (0, 2): Fraction(5, 10)}

    def cost(p, q):
        a, b = p[0], q[0]
        if a == b:
            return Fraction(0)
        return table[(min(a, b), max(a, b))]

    d0, d1, d2 = (dist({s: Fraction(1)}) for s in (0, 1, 2))
    report = rho_triangle_check(d0, d1, d2, cost)
    assert report.passed
    assert report.d13 == report.d12 + report.d23 == Fraction(1, 2)
