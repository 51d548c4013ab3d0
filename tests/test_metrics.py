"""Density, Besicovitch-type, and mismatch-density estimators."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.configs import (
    AdmissibleMetric,
    Lattice,
    constant_config,
    patched_config,
    periodic_config,
    predicate_config,
    shift,
    word_config,
)
from shiftlab.errors import InvalidDimensionError
from shiftlab.examples import (
    SubstitutionStage,
    random_config,
    random_periodic_pair,
    rf_substitution,
    visible_points_config,
)
from shiftlab.groups import BOX_KINDS, FiniteSubset, custom_folner, make_box_folner
from shiftlab.metrics import (
    DPrimeEstimate,
    EstimateTrace,
    TraceRow,
    besicovitch_estimate,
    besicovitch_prime_estimate,
    besicovitch_trace,
    dbar_estimate,
    dbar_trace,
    exact_mismatch_density,
    joint_period_box,
    mismatch_density,
    _shell_boxes,
    upper_density,
)
from shiftlab.transport import PeriodicOrbitMeasure, periodic_rho_oracle

F1 = make_box_folner(1)
FC2 = make_box_folner(2, kind="centered")


# --- upper_density ----------------------------------------------------------

def test_density_of_evens():
    trace = upper_density(lambda g: g[0] % 2 == 0, F1, [9])
    assert trace.rows[-1].value == Fraction(1, 2)


def test_density_of_empty_set():
    trace = upper_density(lambda g: False, F1, [5, 10, 20])
    assert all(r.value == 0 for r in trace.rows)


def test_density_of_visible_points_near_analytic_target():
    v = visible_points_config()
    trace = upper_density(lambda g: v.value(g) == 1, FC2, [300])
    assert trace.rows[-1].value == Fraction(219184, 361201)
    assert abs(float(trace.rows[-1].value) - 6 / math.pi**2) < 0.01


def test_density_of_singleton_vanishes():
    rule = lambda g: g == (0, 0)
    trace = upper_density(rule, FC2, [500, 1000])
    assert trace.summary() == Fraction(1, 2001**2)
    assert float(trace.summary()) < 1e-6


class CountingRule:
    """A membership rule that counts its calls per site."""

    def __init__(self, rule):
        self.rule = rule
        self.calls = Counter()

    def __call__(self, g):
        self.calls[g] += 1
        return self.rule(g)


def recount(rule, window):
    return Fraction(sum(1 for g in window if rule(g)), len(window))


@pytest.mark.parametrize("kind", BOX_KINDS)
@pytest.mark.parametrize("dim, ns", [(1, [1, 2, 5, 30, 31]), (2, [1, 3, 4, 9]), (3, [1, 2, 3])])
def test_nested_box_windows_read_each_site_once(dim, ns, kind):
    x = random_config(dim, 31)
    F = make_box_folner(dim, kind)
    member = lambda g: x.value(g) == 1  # noqa: E731
    rule = CountingRule(member)
    trace = upper_density(rule, F, ns)
    assert rule.calls == Counter(F.set_at(ns[-1]))
    assert [r.value for r in trace.rows] == [recount(member, F.set_at(n)) for n in ns]


def test_windows_that_are_not_nested_boxes_are_recounted():
    x = random_config(2, 41)
    member = lambda g: x.value(g) == 1  # noqa: E731
    big = FiniteSubset.box((-4, -4), (14, 14))
    sets = [
        FiniteSubset.box((0, 0), (5, 5)),
        FiniteSubset.box((3, 3), (9, 9)),        # overlaps the last, not nested
        FiniteSubset.box((-1, -1), (12, 12)),    # nested: reads 14^2 - 7^2 sites
        FiniteSubset([(a, b) for a in range(-2, 13) for b in range(-2, 13) if (a + b) % 3]),
        big,                                     # holds a set that is no box
        big,                                     # nested with nothing new
        FiniteSubset.box((0, 0), (2, 2)),        # inside the last, not around it
    ]
    rule = CountingRule(member)
    trace = upper_density(rule, custom_folner(sets), range(1, len(sets) + 1))
    assert [r.value for r in trace.rows] == [recount(member, s) for s in sets]
    reads = [len(s) for s in sets]
    reads[2] -= len(sets[1])
    reads[5] = 0
    assert sum(rule.calls.values()) == sum(reads)


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 3), data=st.data())
def test_shell_boxes_partition_the_difference(dim, data):
    olo = tuple(data.draw(st.integers(-5, 5)) for _ in range(dim))
    ohi = tuple(a + data.draw(st.integers(0, 6)) for a in olo)
    ilo = tuple(data.draw(st.integers(a, b)) for a, b in zip(olo, ohi))
    ihi = tuple(data.draw(st.integers(a, b)) for a, b in zip(ilo, ohi))
    outer, inner = FiniteSubset.box(olo, ohi), FiniteSubset.box(ilo, ihi)
    shells = _shell_boxes(outer, inner)
    assert len(shells) <= 2 * dim and all(s.is_box for s in shells)
    seen = Counter(g for s in shells for g in s)
    assert set(seen.values()) <= {1}
    assert set(seen) == outer.points() - inner.points()


def test_density_rejects_bad_index_lists():
    with pytest.raises(ValueError):
        upper_density(lambda g: True, F1, [])
    with pytest.raises(ValueError):
        upper_density(lambda g: True, F1, [5, 5])


# --- besicovitch_estimate ---------------------------------------------------

def test_besicovitch_of_equal_configs():
    x = word_config((0, 1, 1))
    lo, hi = besicovitch_estimate(x, x, F1, 50)
    assert lo == 0 and hi == Fraction(1, 2**12)


def test_besicovitch_of_constant_mismatch():
    lo, hi = besicovitch_estimate(constant_config(1, 0), constant_config(1, 1), F1, 30)
    assert lo == 1 - Fraction(1, 2**13) and hi == 1


def test_besicovitch_of_odd_mismatch_set():
    zero = constant_config(1, 0)
    odd = predicate_config(1, lambda g: g[0] % 2 != 0)
    lo, hi = besicovitch_estimate(zero, odd, F1, 199)
    assert (lo, hi) == (Fraction(8191, 16384), Fraction(8195, 16384))
    assert abs(float((lo + hi) / 2) - 0.5) < 0.01


def test_besicovitch_interval_width_matches_tail():
    x = word_config((0, 1))
    z = word_config((1, 1, 0))
    for R in (4, 8, 12):
        lo, hi = besicovitch_estimate(x, z, F1, 40, radius=R)
        assert 0 <= lo <= hi <= 1
        assert hi - lo <= Fraction(1, 2**R)


def test_besicovitch_trace_rows_are_intervals():
    x = word_config((0, 1))
    z = shift((1,), x)
    trace = besicovitch_trace(x, z, F1, [10, 20, 40])
    assert [r.n for r in trace.rows] == [10, 20, 40]
    assert all(r.lo <= r.value <= r.hi for r in trace.rows)


# --- besicovitch_prime_estimate ---------------------------------------------

def test_dprime_of_equal_configs_hits_grid_minimum():
    x = word_config((0, 1))
    assert besicovitch_prime_estimate(x, x, F1, 100) == DPrimeEstimate(Fraction(1, 200), False)


def test_dprime_of_constant_mismatch():
    zero, one = constant_config(1, 0), constant_config(1, 1)
    # Truncated lower distances sit just below 1, so delta = 1 is feasible.
    assert besicovitch_prime_estimate(zero, one, F1, 50) == DPrimeEstimate(Fraction(1), False)


def test_dprime_above_every_step_when_each_site_reaches_distance_one():
    """All the mass on the site itself: each mismatched site's lower sum is
    exactly its denominator, so it clears every step j/200, delta = 1
    included, and the value is the one above them, 10001/10000."""
    metric = AdmissibleMetric(1, lambda r: Fraction(int(r == 0)), lambda R: Fraction(0))
    zero, one = constant_config(1, 0), constant_config(1, 1)
    assert besicovitch_prime_estimate(zero, one, F1, 20, metric, radius=2) == (
        DPrimeEstimate(Fraction(10001, 10000), False)
    )


def test_dprime_of_sparse_mismatch_lattice():
    zero = constant_config(1, 0)
    tens = predicate_config(1, lambda g: g[0] % 10 == 0)
    est = besicovitch_prime_estimate(zero, tens, F1, 1999)
    assert est == DPrimeEstimate(Fraction(13, 100), False)


def test_dprime_dominates_besicovitch_midpoint():
    zero = constant_config(1, 0)
    pairs = [
        (zero, predicate_config(1, lambda g: g[0] % 2 != 0)),
        (zero, predicate_config(1, lambda g: g[0] % 10 == 0)),
        (word_config((0, 1)), shift((1,), word_config((0, 1)))),
    ]
    rng = random.Random(17)
    pairs += [random_periodic_pair(rng) for _ in range(5)]
    grid_step = Fraction(1, 200)
    for x, z in pairs:
        lo, hi = besicovitch_estimate(x, z, F1, 400)
        mid = (lo + hi) / 2
        dp = besicovitch_prime_estimate(x, z, F1, 400)
        assert mid <= 2 * dp.value + Fraction(1, 2**12) + grid_step


# --- dbar_estimate ----------------------------------------------------------

def test_dbar_examples():
    x = word_config((0, 1))
    assert dbar_estimate(x, x, F1, 100) == 0
    zero = constant_config(1, 0)
    evens = predicate_config(1, lambda g: g[0] % 2 == 0)
    assert dbar_estimate(zero, evens, F1, 9) == Fraction(1, 2)
    with pytest.raises(InvalidDimensionError):
        dbar_estimate(zero, constant_config(2, 0), F1, 5)


def test_dbar_trace_matches_pointwise_estimates():
    zero = constant_config(1, 0)
    x = word_config((0, 0, 1))
    trace = dbar_trace(zero, x, F1, [5, 11, 29])
    assert [r.value for r in trace.rows] == [
        dbar_estimate(zero, x, F1, n) for n in (5, 11, 29)
    ]


def test_sandwich_between_dbar_and_besicovitch():
    # weight(identity) * dbar <= besicovitch lower value + declared tail
    rng = random.Random(3)
    R = 8
    for _ in range(50):
        x, z = random_periodic_pair(rng)
        db = dbar_estimate(x, z, F1, 60)
        lo, _ = besicovitch_estimate(x, z, F1, 60, radius=R)
        assert Fraction(1, 2) * db <= lo + Fraction(1, 2**R)


def test_joint_decay_along_substitution():
    st_ = SubstitutionStage()
    prev_db, prev_hi = None, None
    slack = Fraction(1, 1000)
    for k in range(1, 4):
        a, b = rf_substitution(st_, k), rf_substitution(st_, k + 1)
        n = 2 * st_.modulus(k + 1) - 1
        db = dbar_estimate(a, b, F1, n)
        _, hi = besicovitch_estimate(a, b, F1, n)
        assert db == Fraction(1, st_.ratios[k - 1])
        if prev_db is not None:
            assert db <= prev_db + slack
            assert hi <= prev_hi + slack
        prev_db, prev_hi = db, hi
    assert prev_db < Fraction(1, 8)


# --- exact_mismatch_density -------------------------------------------------

def test_exact_mismatch_density_on_words():
    a = word_config((0, 1))
    b = word_config((1, 0))
    assert exact_mismatch_density(a, b) == 1
    c = word_config((0, 1, 1))
    assert exact_mismatch_density(a, c) == Fraction(1, 2)
    assert exact_mismatch_density(a, a) == 0


def test_joint_period_box_of_a_non_product_lattice():
    # columns (12, 0), (1, 12): e_0 has order 12 and e_1 order 144 in Z^2 / L,
    # so the box is 12 x 144 sites, not index^2 = 144 x 144
    lat = Lattice([[12, 1], [0, 12]])
    assert lat.moduli is None and lat.index == 144
    box = joint_period_box(lat, lat)
    assert box.bounds == ((0, 0), (11, 143)) and len(box) == 1728
    assert joint_period_box(lat, Lattice.diagonal((8, 3))).bounds == ((0, 0), (23, 143))
    rng = random.Random(3)
    x, z = (periodic_config(lat, {p: rng.randint(0, 1) for p in lat.fundamental_domain()})
            for _ in range(2))
    # the site rules, not `value`, which reads chunks of the rows under test
    bad = sum(1 for g in box if x._rule(g) != z._rule(g))
    assert exact_mismatch_density(x, z) == Fraction(bad, len(box))
    # the oracle accepts the pair (the index^2 box made it refuse) and finds shift 0
    orbit = PeriodicOrbitMeasure.from_config(x)
    assert periodic_rho_oracle(orbit, orbit) == 0


# --- EstimateTrace ----------------------------------------------------------

def test_trace_validation_and_csv():
    with pytest.raises(ValueError):
        EstimateTrace([TraceRow(2, Fraction(0), Fraction(0), Fraction(0)),
                       TraceRow(2, Fraction(0), Fraction(0), Fraction(0))])
    with pytest.raises(ValueError):
        EstimateTrace([TraceRow(1, Fraction(1), Fraction(0), Fraction(1, 2))])
    trace = EstimateTrace(
        [TraceRow(1, Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)),
         TraceRow(2, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))]
    )
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "n,value,lo,hi"
    assert len(lines) == 3
    assert lines[1].startswith("1,0.5,")
    assert trace.summary() == Fraction(1, 3)


def test_mismatch_density_refuses_mixed_dimensions_before_reading():
    # a rule may answer points of any length, so only an up-front check sees this
    reads = []
    x = predicate_config(1, lambda g: reads.append(g) or True)
    y = predicate_config(2, lambda g: reads.append(g) or True)
    with pytest.raises(
        InvalidDimensionError, match="^configurations of dimension 1 read on windows of dimension 2$"
    ):
        mismatch_density(x, x, FiniteSubset.box((0, 0), (2, 2)))
    with pytest.raises(InvalidDimensionError, match="dimension 1/2 read on windows of dimension 1$"):
        mismatch_density(x, y, FiniteSubset([(0,), (3,)]))
    assert reads == []


def test_estimators_refuse_a_window_of_another_dimension():
    # 2-D configurations on 1-D windows: a wrong-length read would fail
    # inside the bulk path, so the shared check must come first
    x, z = random_config(2, 1), random_config(2, 2)
    F = make_box_folner(1)
    message = "^configurations of dimension 2 read on windows of dimension 1$"
    calls = [
        lambda: besicovitch_estimate(x, z, F, 5),
        lambda: besicovitch_prime_estimate(x, z, F, 5),
        lambda: besicovitch_trace(x, z, F, [2, 5]),
        lambda: upper_density(x.indicator(1), F, [2, 5]),
    ]
    for call in calls:
        with pytest.raises(InvalidDimensionError, match=message):
            call()
