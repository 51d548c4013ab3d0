"""Empirical pattern distributions, Prokhorov distances, genericity checks."""

import hashlib
import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.configs import (
    constant_config,
    default_metric,
    predicate_config,
    shift,
    word_config,
)
from shiftlab.errors import IncompatibleWindowsError, InvalidDimensionError
from shiftlab.examples import resolve_example_name
from shiftlab.groups import FiniteSubset, make_box_folner
from shiftlab.measures import (
    PatternDistribution,
    _coupled_mass,
    _pattern_counts,
    empirical_measure,
    genericity_check,
    hausdorff_prokhorov,
    omega_hat_approx,
    pattern_metric,
    prokhorov_distance,
)
from shiftlab.transport import rho_bar_lower

F1 = make_box_folner(1)
W0 = FiniteSubset.box((0,), (0,))
W2 = FiniteSubset.box((0,), (1,))

ONE = Fraction(1)
HALF = Fraction(1, 2)


def flat_cost(p, q):
    return Fraction(0) if p == q else Fraction(1)


# --- PatternDistribution ----------------------------------------------------

def test_distribution_validates_total_mass():
    with pytest.raises(ValueError):
        PatternDistribution(W0, {(0,): HALF})
    with pytest.raises(ValueError):
        PatternDistribution(W0, {(0,): HALF, (1,): HALF, (2,): Fraction(-0 - 1, 100)})


def test_distribution_drops_zero_weights():
    mu = PatternDistribution(W0, {(0,): ONE, (1,): Fraction(0)})
    assert mu.support() == [(0,)]
    assert mu.mass((1,)) == 0


def test_distribution_marginal_and_tv():
    mu = PatternDistribution(W2, {(0, 1): HALF, (1, 0): HALF})
    marg = mu.marginal(W0)
    assert marg == PatternDistribution(W0, {(0,): HALF, (1,): HALF})
    nu = PatternDistribution(W2, {(0, 1): ONE})
    assert mu.tv_distance(nu) == HALF


def test_distribution_dict_round_trip():
    mu = PatternDistribution(W2, {(0, 1): Fraction(2, 3), (1, 1): Fraction(1, 3)})
    d = mu.to_dict()
    again = PatternDistribution(
        [tuple(p) for p in d["window"]],
        {tuple(pat): Fraction(num, den) for pat, num, den in d["weights"]},
    )
    assert again == mu and again.to_dict() == d


@st.composite
def weight_maps(draw, width):
    """Fraction weights summing to 1 on distinct patterns of `width` sites."""
    patterns = list(itertools.product((0, 1), repeat=width))
    support = draw(st.lists(st.sampled_from(patterns), min_size=1, unique=True))
    den = draw(st.integers(1, 60))
    cuts = sorted(draw(st.lists(st.integers(0, den), min_size=len(support) - 1,
                                max_size=len(support) - 1)))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return {p: Fraction(c, den) for p, c in zip(support, parts)}


def _old_tv(a, b):
    """Total variation as a sum of Fraction differences over both supports."""
    keys = set(a) | set(b)
    return sum((abs(a.get(k, 0) - b.get(k, 0)) for k in keys), Fraction(0)) / 2


@settings(max_examples=150, deadline=None)
@given(width=st.integers(1, 3), k=st.integers(1, 7), data=st.data())
def test_fraction_counts_and_marginal_constructions_agree(width, k, data):
    W = FiniteSubset.box((0,), (width - 1,))
    weights = data.draw(weight_maps(width))
    other = data.draw(weight_maps(width))
    den = lcm(*(w.denominator for w in weights.values()))
    scaled = {p: int(w * den) * k for p, w in weights.items()}
    # one extra site whose symbol splits each count in two
    split = {}
    for p, c in scaled.items():
        cut = data.draw(st.integers(0, c))
        split[p + (0,)], split[p + (1,)] = cut, c - cut
    built = [
        PatternDistribution(W, weights),
        PatternDistribution.from_counts(W, scaled),
        PatternDistribution.from_counts(FiniteSubset.box((0,), (width,)), split).marginal(W),
    ]
    positive = {p: w for p, w in weights.items() if w}
    nu = PatternDistribution(W, other)
    for mu in built:
        assert mu.den == lcm(*(w.denominator for w in positive.values()))
        assert mu.counts == {p: int(w * mu.den) for p, w in positive.items()}
        assert mu.weights == positive
        assert mu == built[0]
        assert all(mu.mass(p) == weights[p] for p in weights)
        assert mu.mass((2,) * width) == 0
        assert mu.to_dict() == built[0].to_dict()
        assert mu.tv_distance(nu) == _old_tv(positive, nu.weights) == nu.tv_distance(mu)


def test_weights_are_a_read_only_fraction_view():
    mu = PatternDistribution(W0, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
    with pytest.raises(TypeError):
        mu.weights[(0,)] = ONE
    assert mu.weights == {(0,): Fraction(1, 3), (1,): Fraction(2, 3)}
    assert dict(mu.weights) == {(0,): Fraction(1, 3), (1,): Fraction(2, 3)}
    assert repr(mu.weights) == repr({(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
    assert (len(mu.weights), mu.weights.get((2,))) == (2, None)
    assert (mu.den, mu.counts) == (3, {(0,): 1, (1,): 2})


def test_from_counts_validates_its_counts():
    assert PatternDistribution.from_counts(W2, {"01": 2, (1, 1): 4, (0, 0): 0}) == (
        PatternDistribution(W2, {(0, 1): Fraction(1, 3), (1, 1): Fraction(2, 3)})
    )
    for bad in ({(0,): 0}, {(0,): -1, (1,): 2}, {(0, 1): 1}):
        with pytest.raises(ValueError):
            PatternDistribution.from_counts(W0, bad)
    with pytest.raises(TypeError):
        PatternDistribution.from_counts(W0, {(0,): HALF, (1,): HALF})


# --- empirical_measure ------------------------------------------------------

def test_empirical_of_constant_is_point_mass():
    x = constant_config(1, 0)
    emp = empirical_measure(x, F1.set_at(9), W2)
    assert emp == PatternDistribution(W2, {(0, 0): ONE})


def test_empirical_of_01_periodic_single_site():
    x = word_config((0, 1))
    emp = empirical_measure(x, FiniteSubset.box((0,), (2 * 8 - 1,)), W0)
    assert emp == PatternDistribution(W0, {(0,): HALF, (1,): HALF})


def test_empirical_of_01_periodic_pair_window():
    x = word_config((0, 1))
    emp = empirical_measure(x, FiniteSubset.box((0,), (3,)), W2)
    assert emp == PatternDistribution(W2, {(0, 1): HALF, (1, 0): HALF})


def test_empirical_rejects_empty_sets():
    x = constant_config(1, 0)
    with pytest.raises(ValueError):
        empirical_measure(x, FiniteSubset(dim=1), W0)


@settings(max_examples=30)
@given(seed=st.integers(0, 2**20), n=st.integers(3, 40))
def test_empirical_mass_sums_to_one_and_marginals_commute(seed, n):
    rng = random.Random(seed)
    word = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 6)))
    x = word_config(word)
    window_set = F1.set_at(n)
    emp2 = empirical_measure(x, window_set, W2)
    assert sum(emp2.weights.values()) == 1
    # restriction to the sub-window equals the directly computed measure
    assert emp2.marginal(W0) == empirical_measure(x, window_set, W0)


# --- prokhorov_distance -----------------------------------------------------

def test_prokhorov_of_equal_distributions_is_exactly_zero():
    mu = PatternDistribution(W0, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
    assert prokhorov_distance(mu, mu) == 0


def test_prokhorov_of_diracs_matches_pattern_distance():
    mu = PatternDistribution(W0, {(0,): ONE})
    nu = PatternDistribution(W0, {(1,): ONE})
    quarter = lambda p, q: Fraction(0) if p == q else Fraction(1, 4)
    val = prokhorov_distance(mu, nu, quarter)
    assert val == Fraction(1, 4)


def test_prokhorov_mass_split_example():
    mu = PatternDistribution(W0, {(0,): ONE})
    nu = PatternDistribution(W0, {(0,): Fraction(9, 10), (1,): Fraction(1, 10)})
    val = prokhorov_distance(mu, nu, flat_cost)
    assert val == Fraction(1, 10)


def test_prokhorov_rejects_window_mismatch():
    mu = PatternDistribution(W0, {(0,): ONE})
    nu = PatternDistribution(W2, {(0, 0): ONE})
    with pytest.raises(IncompatibleWindowsError):
        prokhorov_distance(mu, nu)


def test_metric_of_the_wrong_dimension_is_refused():
    F = make_box_folner(2)
    W = FiniteSubset.box((0, 0), (1, 1))
    mu, nu = (
        empirical_measure(resolve_example_name(name), F.set_at(30), W)
        for name in ("prime-approx:1", "prime-approx:2")
    )
    assert prokhorov_distance(mu, nu) == prokhorov_distance(
        mu, nu, pattern_metric(mu.sites, default_metric(2))
    )
    assert prokhorov_distance(mu, nu) == Fraction(85, 961)
    with pytest.raises(InvalidDimensionError):
        pattern_metric(W, default_metric(1))
    with pytest.raises(InvalidDimensionError):
        pattern_metric(W, default_metric(3))


def test_pattern_reader_refuses_mixed_dimensions_before_reading():
    # a rule may answer points of any length, so only an up-front check sees this
    reads = []
    x = predicate_config(1, lambda g: reads.append(g) or True)
    y = predicate_config(2, lambda g: reads.append(g) or True)
    box2, site2 = FiniteSubset.box((0, 0), (2, 2)), FiniteSubset.box((0, 0), (0, 0))
    with pytest.raises(
        InvalidDimensionError, match="^configurations of dimension 1 read on windows of dimension 2$"
    ):
        empirical_measure(x, box2, site2)
    with pytest.raises(InvalidDimensionError, match="dimension 2 read on windows of dimension 1/2$"):
        _pattern_counts([y], FiniteSubset.box((0,), (2,)), site2)
    with pytest.raises(InvalidDimensionError, match="dimension 1/2 read on windows of dimension 2$"):
        _pattern_counts([y, x], box2, site2)
    assert reads == []


def _random_distribution(rng, window, patterns):
    den = rng.choice([2, 3, 4, 6, 8])
    cuts = sorted(rng.randrange(den + 1) for _ in range(len(patterns) - 1))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    total = {p: Fraction(w, den) for p, w in zip(patterns, weights) if w}
    return PatternDistribution(window, total)


def test_prokhorov_symmetry_triangle_and_tv_bound():
    rng = random.Random(99)
    patterns = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for _ in range(8):
        mu = _random_distribution(rng, W2, patterns)
        nu = _random_distribution(rng, W2, patterns)
        eta = _random_distribution(rng, W2, patterns)
        d_mn = prokhorov_distance(mu, nu)
        assert d_mn == prokhorov_distance(nu, mu)
        assert d_mn <= mu.tv_distance(nu)
        d_me = prokhorov_distance(mu, eta)
        d_en = prokhorov_distance(eta, nu)
        assert d_mn <= d_me + d_en


def test_prokhorov_shift_consistency_bound():
    x = predicate_config(1, lambda g: g[0] % 3 == 0)
    Fc = make_box_folner(1, kind="centered")
    for n in (15, 30, 60):
        Fn = Fc.set_at(n)
        for g in ((1,), (4,)):
            emp = empirical_measure(x, Fn, W0)
            emp_shift = empirical_measure(shift(g, x), Fn, W0)
            bound = Fraction(Fn.sym_diff_size(Fn.translate(g)), len(Fn))
            assert prokhorov_distance(emp, emp_shift) <= bound


def pinned_prokhorov_values():
    """sha256 of seeded Prokhorov distances on windows of 1-3 sites under
    the default metric, a random table of twelfths, and a float distance."""
    rng = random.Random(1611)
    digest = hashlib.sha256()
    for trial in range(240):
        width = rng.randint(1, 3)
        W = FiniteSubset.box((0,), (width - 1,))
        patterns = list(itertools.product((0, 1), repeat=width))
        mu, nu = (_random_distribution(rng, W, rng.sample(patterns, rng.randint(1, len(patterns))))
                  for _ in range(2))
        kind = trial % 3
        if kind == 0:
            value = prokhorov_distance(mu, nu)
        elif kind == 1:
            table = {(p, q): Fraction(rng.randint(0, 14), 12) for p in patterns for q in patterns}
            value = prokhorov_distance(mu, nu, lambda p, q: table[p, q])
        else:
            value = prokhorov_distance(mu, nu, lambda p, q: 0.3 * sum(a != b for a, b in zip(p, q)))
        digest.update(repr(value).encode())
    return digest.hexdigest()


def test_prokhorov_distances_are_pinned():
    # computed with the Fraction levels of prokhorov_distance before they
    # became integers over the costs' lcm
    assert pinned_prokhorov_values() == (
        "bad079fed9433df701cab492a0cae16aa98d3b07963e4d72cb5340e920edf045"
    )


def _feasible(mu, nu, dist, eps):
    """Strassen's condition by subsets: mu(A) <= nu(A^eps) + eps for every
    set A of mu's support, A^eps the patterns of nu within eps of A."""
    left, right = mu.support(), nu.support()
    for k in range(1, len(left) + 1):
        for A in itertools.combinations(left, k):
            near = [q for q in right if any(dist(p, q) <= eps for p in A)]
            if sum(mu.weights[p] for p in A) > sum(nu.weights[q] for q in near) + eps:
                return False
    return True


@st.composite
def prokhorov_cases(draw):
    """Two distributions on a window of 1-3 sites and a pattern distance:
    the default metric, or a symmetric table with values up to 3/2."""
    width = draw(st.integers(1, 3))
    W = FiniteSubset.box((0,), (width - 1,))
    patterns = list(itertools.product((0, 1), repeat=width))

    def draw_distribution():
        support = draw(st.lists(st.sampled_from(patterns), min_size=1, unique=True))
        den = draw(st.integers(2, 101))
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=len(support) - 1,
                                    max_size=len(support) - 1)))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
        weights = {p: Fraction(c, den) for p, c in zip(support, parts) if c}
        return PatternDistribution(W, weights)

    mu, nu = draw_distribution(), draw_distribution()
    if draw(st.booleans()):
        return mu, nu, pattern_metric(W, default_metric(1))
    table = {
        (p, q): Fraction(draw(st.integers(1, 30)), 20)
        for i, p in enumerate(patterns) for q in patterns[i + 1:]
    }
    return mu, nu, lambda p, q: Fraction(0) if p == q else table[min(p, q), max(p, q)]


@settings(max_examples=150, deadline=None)
@given(case=prokhorov_cases())
def test_prokhorov_is_the_least_feasible_epsilon(case):
    mu, nu, dist = case
    r = prokhorov_distance(mu, nu, dist)
    assert 0 <= r <= 1
    assert r == prokhorov_distance(nu, mu, dist)
    assert _feasible(mu, nu, dist, r)
    below = {dist(p, q) for p in mu.support() for q in nu.support()}
    below = {d for d in below if 0 <= d < r}
    if r > 0:
        below.add(r - Fraction(1, 2**60))
    assert not any(_feasible(mu, nu, dist, eps) for eps in below)


@settings(max_examples=150, deadline=None)
@given(case=prokhorov_cases())
def test_coupled_mass_is_one_minus_the_largest_deficiency(case):
    """At every level eps the transport kernel's coupled mass equals
    1 - max_A (mu(A) - nu(N_eps(A))), A over all subsets of mu's support
    (the empty set included), N_eps(A) the patterns of nu within eps of A."""
    mu, nu, dist = case
    left, right = mu.support(), nu.support()
    a = [mu.weights[p] for p in left]
    b = [nu.weights[q] for q in right]
    # the kernel takes the masses as integers over their common denominator
    L = lcm(mu.den, nu.den)
    ints = [int(w * L) for w in a], [int(w * L) for w in b]
    d = [[dist(p, q) for q in right] for p in left]
    for eps in {Fraction(0)} | {x for row in d for x in row}:
        deficiency = max(
            sum((a[i] for i in A), Fraction(0))
            - sum((w for j, w in enumerate(b) if any(d[i][j] <= eps for i in A)), Fraction(0))
            for k in range(len(left) + 1)
            for A in itertools.combinations(range(len(left)), k)
        )
        assert _coupled_mass(*ints, d, eps) == 1 - deficiency


# --- hausdorff_prokhorov ----------------------------------------------------

def test_hausdorff_examples():
    mu = PatternDistribution(W0, {(0,): ONE})
    nu = PatternDistribution(W0, {(0,): HALF, (1,): HALF})
    assert hausdorff_prokhorov([mu, nu], [mu, nu]) == 0
    pair = prokhorov_distance(mu, nu)
    assert hausdorff_prokhorov([mu], [nu]) == pair
    assert hausdorff_prokhorov([mu], [mu, nu]) == pair
    with pytest.raises(ValueError):
        hausdorff_prokhorov([], [mu])


# --- omega_hat_approx -------------------------------------------------------

def test_omega_of_constant_is_single_point_mass():
    x = constant_config(1, 0)
    reps = omega_hat_approx(x, F1, [4, 8, 16], W0, Fraction(1, 20))
    assert len(reps) == 1
    assert reps[0] == PatternDistribution(W0, {(0,): ONE})


def test_omega_of_periodic_at_period_multiples():
    x = word_config((0, 1, 1))
    n_list = [3 * j - 1 for j in (2, 4, 8)]  # window sizes are period multiples
    reps = omega_hat_approx(x, F1, n_list, W0, Fraction(1, 20))
    assert len(reps) == 1
    assert reps[0] == PatternDistribution(
        W0, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)}
    )


def test_omega_of_oscillating_config_splits():
    def osc(g):
        n = g[0]
        if n < 1:
            return 0
        return 1 if (n.bit_length() - 1) % 2 == 0 else 0

    x = predicate_config(1, osc)
    reps = omega_hat_approx(x, F1, [2**j for j in range(2, 11)], W0, Fraction(1, 10))
    assert len(reps) >= 2


# --- genericity_check -------------------------------------------------------

def test_genericity_of_constant():
    x = constant_config(1, 0)
    target = PatternDistribution(W0, {(0,): ONE})
    report = genericity_check(x, F1, target, W0, [4, 8, 16], Fraction(1, 1000))
    assert report.passed and report.final_distance == 0


def test_genericity_of_01_periodic_at_aligned_windows():
    x = word_config((0, 1))
    target = PatternDistribution(W0, {(0,): HALF, (1,): HALF})
    report = genericity_check(x, F1, target, W0, [3, 7, 11], Fraction(1, 100))
    assert report.passed and report.final_distance == 0
    assert report.distances == (0, 0, 0)


def test_genericity_fails_for_wrong_target():
    x = constant_config(1, 0)
    target = PatternDistribution(W0, {(0,): HALF, (1,): HALF})
    report = genericity_check(x, F1, target, W0, [3, 7, 11], Fraction(1, 4))
    assert not report.passed
    assert report.final_distance == HALF


def test_pattern_metric_truncated_weights():
    metric_fn = pattern_metric(W2, default_metric(1))
    # mismatches at sites 0 and 1 weigh 1/2 and 1/8 under the default family
    assert metric_fn((0, 0), (1, 0)) == HALF
    assert metric_fn((0, 0), (0, 1)) == Fraction(1, 8)
    assert metric_fn((0, 0), (1, 1)) == HALF + Fraction(1, 8)
    assert metric_fn((0, 1), (0, 1)) == 0
    # without a metric, the default one of the window's dimension
    assert pattern_metric(W2)((0, 0), (1, 1)) == HALF + Fraction(1, 8)


def test_pattern_metric_refuses_patterns_of_another_length():
    # zip would stop at the shorter pattern and read (0,) against (1,) as 1/2
    metric_fn = pattern_metric(W2)
    for p, q in (((0,), (1,)), ((0, 0), (1,)), ((0, 0, 1), (0, 0, 1))):
        with pytest.raises(ValueError, match="on a window of 2$"):
            metric_fn(p, q)


# --- one form for each distance ----------------------------------------------

def _quarter(p, q):
    return Fraction(0) if p == q else Fraction(1, 4)


def test_the_prokhorov_family_takes_one_distance():
    F = make_box_folner(2)
    W = FiniteSubset.box((0, 0), (1, 1))
    mu, nu = (
        empirical_measure(resolve_example_name(name), F.set_at(30), W)
        for name in ("prime-approx:1", "prime-approx:2")
    )
    # a metric beside a distance function once let the function win, and a
    # metric of dimension 7 on a 2-D window went unchecked
    with pytest.raises(TypeError):
        prokhorov_distance(mu, nu, default_metric(7), dist_fn=_quarter)
    with pytest.raises(TypeError):
        hausdorff_prokhorov([mu], [nu], default_metric(7), dist_fn=_quarter)
    # a metric reaches the family only as its pattern metric, which checks it
    with pytest.raises(InvalidDimensionError):
        prokhorov_distance(mu, nu, pattern_metric(mu.sites, default_metric(7)))
    assert prokhorov_distance(mu, nu, _quarter) == Fraction(1, 4)


def test_every_member_of_the_family_reads_its_distance():
    mu = PatternDistribution(W0, {(0,): ONE})
    nu = PatternDistribution(W0, {(0,): HALF, (1,): HALF})
    assert prokhorov_distance(mu, nu) == HALF
    assert hausdorff_prokhorov([mu], [nu], _quarter) == Fraction(1, 4)
    x = constant_config(1, 0)
    report = genericity_check(x, F1, nu, W0, [3, 7, 11], Fraction(1, 4), _quarter)
    assert report.passed and report.final_distance == Fraction(1, 4)

    def osc(g):
        return int(g[0] >= 1 and (g[0].bit_length() - 1) % 2 == 0)

    # every pair is within 1/20 under a distance of 1/20, so one cluster
    reps = omega_hat_approx(predicate_config(1, osc), F1, [2**j for j in range(2, 11)], W0,
                            Fraction(1, 10), lambda p, q: Fraction(p != q, 20))
    assert len(reps) == 1


def test_the_chain_takes_a_cost_factory():
    mu = PatternDistribution(W0, {(0,): ONE})
    nu = PatternDistribution(W0, {(0,): HALF, (1,): HALF})
    # a cost kind and a metric, which the Hamming kind ignored, are gone
    with pytest.raises(TypeError):
        rho_bar_lower([mu], [nu], "hamming-per-site", default_metric(7))
    with pytest.raises(TypeError):
        rho_bar_lower([mu], [nu], "hamming-per-site")
    assert rho_bar_lower([mu], [nu]) == [HALF]
    assert rho_bar_lower([mu], [nu], pattern_metric) == [Fraction(1, 4)]
