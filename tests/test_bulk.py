"""Bulk row layer: rows agree with the site rules, and every estimator that
reads rows returns the same Fraction as its per-site path.

The per-site path is reached by handing an estimator the same window as an
explicit point set (not a box).  Its configurations are rows-free twins
(`twin`) that call the rule at every site, since a binary 1-D or 2-D
configuration's own `value` reads chunks of the very rows under test.
"""

import ast
import hashlib
import itertools
import random
import re
import sys
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from math import ceil, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import configs, examples, measures, metrics
from shiftlab.configs import (
    AdmissibleMetric,
    Configuration,
    Lattice,
    box_tiles,
    constant_config,
    default_metric,
    patched_config,
    periodic_config,
    predicate_config,
    row_bits,
    rows_available,
    shell_size,
    shift,
    word_config,
)
from shiftlab.examples import random_config, resolve_example_name
from shiftlab.groups import FiniteSubset, box_set, custom_folner, make_box_folner
from shiftlab.measures import empirical_measure
from shiftlab.metrics import (
    DPrimeEstimate,
    _box_lower_sums,
    _site_lower_sums,
    besicovitch_estimate,
    besicovitch_prime_estimate,
    dbar_estimate,
    exact_mismatch_density,
    joint_period_box,
    upper_density,
)
from shiftlab.transport import (
    PeriodicOrbitMeasure,
    oracle_box,
    pair_empirical_joining,
    periodic_rho_oracle,
)

NAMES = {
    1: [f"rf-sub:{k}" for k in range(1, 7)] + ["constant", "periodic", "random", "patched"],
    2: ["visible"] + [f"prime-approx:{n}" for n in range(1, 6)]
    + ["constant", "periodic", "skew", "random", "patched"],
}
# periodic names whose joint period box is small enough for a per-site count
PERIODIC = {
    1: [f"rf-sub:{k}" for k in range(1, 6)] + ["constant", "periodic"],
    2: [f"prime-approx:{n}" for n in range(1, 4)] + ["constant", "periodic"],
}


def make(name, dim, seed):
    rng = random.Random(seed)
    if name == "constant":
        return constant_config(dim, rng.randint(0, 1))
    if name == "periodic":
        lat = Lattice.diagonal(tuple(rng.randint(1, 5) for _ in range(dim)))
        return periodic_config(lat, {p: rng.randint(0, 1) for p in lat.fundamental_domain()})
    if name == "skew":
        # triangular basis (h0, t), (0, h1) with 0 < t < h1, so no product
        # lattice; the second generator adds k times the first
        h1 = rng.randint(2, 20)
        h0, t, k = rng.randint(1, 200 // h1), rng.randint(1, h1 - 1), rng.randint(-3, 3)
        lat = Lattice([[h0, k * h0], [t, h1 + k * t]])
        assert lat.moduli is None and lat.index <= 200
        return periodic_config(lat, {p: rng.randint(0, 1) for p in lat.fundamental_domain()})
    if name == "random":
        return random_config(dim, seed)
    if name == "patched":
        base = make(rng.choice(NAMES[dim][:-1]), dim, seed + 1)
        patch = {
            tuple(rng.randint(-12, 12) for _ in range(dim)): rng.randint(0, 1)
            for _ in range(rng.randint(1, 20))
        }
        return patched_config(base, patch)
    return resolve_example_name(name)


@st.composite
def pairs(draw, names=NAMES):
    dim = draw(st.sampled_from((1, 2)))
    x = make(draw(st.sampled_from(names[dim])), dim, draw(st.integers(0, 2**16)))
    z = make(draw(st.sampled_from(names[dim])), dim, draw(st.integers(0, 2**16)))
    return dim, x, z


@st.composite
def windows(draw, dim, side):
    """(F, n) with F_n a box of either Folner kind, or an arbitrary box that
    may sit at negative coordinates; sides are at most `side`."""
    kind = draw(st.sampled_from(("boxes", "centered", "offset")))
    if kind == "offset":
        lo = tuple(draw(st.integers(-15, 15)) for _ in range(dim))
        hi = tuple(a + draw(st.integers(0, side - 1)) for a in lo)
        return custom_folner([FiniteSubset.box(lo, hi)]), 1
    top = (side - 1) // 2 if kind == "centered" else side - 1
    return make_box_folner(dim, kind), draw(st.integers(1, max(1, top)))


def twin(x):
    """x without its bulk rule: `value` is the per-site rule itself."""
    return Configuration(x.dim, x.alphabet, x._rule)


def per_site(F, n):
    """The same window as an explicit point set, which the bulk layer skips."""
    return custom_folner([FiniteSubset(F.set_at(n).points())])


def site_rows(x, box):
    x = twin(x)
    lo, hi = box.bounds
    if box.dim == 1:
        return [sum(x.value((c,)) << j for j, c in enumerate(range(lo[0], hi[0] + 1)))]
    return [
        sum(x.value((a, b)) << j for j, b in enumerate(range(lo[1], hi[1] + 1)))
        for a in range(lo[0], hi[0] + 1)
    ]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rows_match_site_rule(data):
    dim, x, _ = data.draw(pairs())
    F, n = data.draw(windows(dim, 70 if dim == 1 else 30))
    box = F.set_at(n)
    assert x.rows(box) == site_rows(x, box)
    y = shift(tuple(data.draw(st.integers(-20, 20)) for _ in range(dim)), x)
    assert y.rows(box) == site_rows(y, box)


@pytest.mark.parametrize("name", ["visible"] + [f"prime-approx:{n}" for n in range(1, 6)])
def test_sieve_rows_across_the_axes(name):
    x = resolve_example_name(name)
    for box in (FiniteSubset.box((-7, -9), (7, 9)), FiniteSubset.box((0, 0), (0, 40)),
                FiniteSubset.box((-40, 0), (40, 0))):
        assert x.rows(box) == site_rows(x, box)


def test_visible_rows_far_from_the_origin_match_the_rule():
    # rows with |m| above their width squared take a gcd per column; the
    # sieve would first mark every prime up to sqrt(2^61 - 1), over 10^8 of
    # them
    x = resolve_example_name("visible")
    for m in (4097, -4099, 2**40, -(3**30), 10**12 + 39, -(2**61 - 1)):
        box = FiniteSubset.box((m, -70), (m, 70))
        assert x.rows(box) == site_rows(x, box)
        assert [x.value(g) for g in box] == [x._rule(g) for g in box]


@st.composite
def sieve_boxes(draw):
    """Boxes 1..200 columns wide whose rows cross row 0, lie on either side
    of it, up to and past the width squared, or far out, and whose columns
    may cross column 0; one-row and one-column boxes among them."""
    width = draw(st.one_of(st.just(1), st.integers(1, 200)))
    height = draw(st.one_of(st.just(1), st.integers(1, 40)))
    far = width * width
    m0 = draw(st.one_of(
        st.integers(-height, 0),
        st.integers(-far - 2 * height, far + height),
        st.integers(-10**15, 10**15),
    ))
    n0 = draw(st.one_of(st.integers(-width, 0), st.integers(-10**6, 10**6)))
    return FiniteSubset.box((m0, n0), (m0 + height - 1, n0 + width - 1))


@settings(max_examples=200, deadline=None)
@given(box=sieve_boxes(), n=st.integers(0, len(examples.PRIMES)))
def test_sieve_rows_match_the_site_rule(box, n):
    x = resolve_example_name(f"prime-approx:{n}" if n else "visible")
    assert x.rows(box) == site_rows(x, box)


def test_sieve_builds_one_mask_per_prime(monkeypatch):
    built = []
    multiples_row = examples._multiples_row

    def counted(p, start, width):
        built.append(p)
        return multiples_row(p, start, width)

    monkeypatch.setattr(examples, "_multiples_row", counted)
    primes_to = lambda r: [p for p in range(2, r + 1) if all(p % q for q in range(2, p))]  # noqa: E731
    visible = resolve_example_name("visible")
    for box, primes in [
        # rows +-1..80: every prime up to 80 divides a row
        (FiniteSubset.box((-80, -80), (80, 80)), primes_to(80)),
        # one row, 840 = 2^3 3 5 7, as a site read's 64-column chunk
        (FiniteSubset.box((840, -64), (840, -1)), [2, 3, 5, 7]),
        # |m| past 97^2, whose small primes come from a sieve; rows past
        # the width squared, 14,400, take a gcd per column
        (FiniteSubset.box((14_350, 0), (14_450, 119)),
         [p for p in primes_to(14_400) if any(m % p == 0 for m in range(14_350, 14_401))]),
    ]:
        built.clear()
        rows = visible.rows(box)
        assert sorted(built) == primes
        built.clear()
        assert rows == site_rows(visible, box) and built == []
    for n in (1, 3, 25):
        x = resolve_example_name(f"prime-approx:{n}")
        for box in (FiniteSubset.box((-200, -5), (200, 5)), FiniteSubset.box((7, 0), (7, 63))):
            built.clear()
            x.rows(box)
            assert len(built) == len(set(built)) <= n
            assert set(built) <= set(examples.PRIMES[:n])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_dbar_matches_per_site(data):
    dim, x, z = data.draw(pairs())
    F, n = data.draw(windows(dim, 200 if dim == 1 else 30))
    assert rows_available(F.set_at(n), x, z)
    assert dbar_estimate(x, z, F, n) == dbar_estimate(twin(x), twin(z), per_site(F, n), 1)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), symbol=st.integers(0, 2))
def test_indicator_density_matches_per_site(data, symbol):
    dim, x, _ = data.draw(pairs())
    F, n = data.draw(windows(dim, 200 if dim == 1 else 30))
    bulk = upper_density(x.indicator(symbol), F, [n]).rows[0].value
    ref = twin(x)
    sites = upper_density(lambda g: ref.value(g) == symbol, F, [n]).rows[0].value
    assert bulk == sites


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_mismatch_density_matches_per_site(data):
    dim, x, z = data.draw(pairs(PERIODIC))
    axes = tuple(lcm(a, b) for a, b in zip(x.period_lattice.moduli, z.period_lattice.moduli))
    box = FiniteSubset.box((0,) * dim, tuple(m - 1 for m in axes))
    rx, rz = twin(x), twin(z)
    bad = sum(1 for g in box if rx.value(g) != rz.value(g))
    assert exact_mismatch_density(x, z) == Fraction(bad, len(box))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_periodic_oracle_matches_per_site_minimum(data):
    names = {1: ["rf-sub:1", "rf-sub:2", "rf-sub:3", "rf-sub:4", "constant", "periodic"],
             2: ["prime-approx:1", "prime-approx:2", "constant", "periodic"]}
    dim, x, z = data.draw(pairs(names))
    # an offset copy keeps the best relative shift away from 0
    z = shift(tuple(data.draw(st.integers(-20, 20)) for _ in range(dim)), z)
    axes = tuple(lcm(a, b) for a, b in zip(x.period_lattice.moduli, z.period_lattice.moduli))
    box = FiniteSubset.box((0,) * dim, tuple(m - 1 for m in axes))
    rz = twin(z)
    xs = {g: twin(x).value(g) for g in box}
    best = min(
        sum(1 for g in box if xs[g] != rz.value(tuple(a + b for a, b in zip(g, s))))
        for s in box
    )
    oa, oz = PeriodicOrbitMeasure.from_config(x), PeriodicOrbitMeasure.from_config(z)
    assert periodic_rho_oracle(oa, oz) == Fraction(best, len(box))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), radius=st.integers(0, 12))
def test_besicovitch_estimates_match_per_site(data, radius):
    dim, x, z = data.draw(pairs())
    F, n = data.draw(windows(dim, 60 if dim == 1 else 7))
    ref = per_site(F, n)
    rx, rz = twin(x), twin(z)
    got = besicovitch_estimate(x, z, F, n, radius=radius)
    assert got == besicovitch_estimate(rx, rz, ref, 1, radius=radius)
    dp = besicovitch_prime_estimate(x, z, F, n, radius=radius)
    assert dp == besicovitch_prime_estimate(rx, rz, ref, 1, radius=radius)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), radius=st.integers(0, 12))
def test_lower_sums_stay_near_the_ball_mass_times_dbar(data, radius):
    """The Besicovitch lower sums over a box F are sum_h w(h) M(F + h) / |F|,
    M the mismatch count, so they are W_R dbar(F) = sum_h w(h) M(F) / |F| up
    to sum_h w(h) |F sym-diff (F + h)| / (2 |F|): each |M(F + h) - M(F)| is
    at most |(F + h) minus F|.  Checked in integers over the shell
    denominator, this ties the lane-packed summed-area sums to the XORed,
    popcounted dbar rows, which share no code with them."""
    dim, x, z = data.draw(pairs())
    F, n = data.draw(windows(dim, 200 if dim == 1 else 40))
    window = F.set_at(n)
    sums, den = _box_lower_sums(x, z, window, default_metric(dim), radius)
    nums, shell_den, mass = metrics._shell_numerators(default_metric(dim), radius)
    assert den == shell_den
    size = len(window)
    mismatches = int(dbar_estimate(x, z, F, n) * size)
    sides = [b - a + 1 for a, b in zip(*window.bounds)]
    slack = 0
    for h in box_set(dim, radius, centered=True):
        overlap = 1
        for side, step in zip(sides, h):
            overlap *= max(0, side - abs(step))
        # |F sym-diff (F + h)| / 2 = |F| - |F and (F + h)|
        slack += nums[max(map(abs, h))] * (size - overlap)
    assert abs(sum(sums) - mass * mismatches) <= slack


def uneven_metric(dim):
    """A radial metric whose site weights go up from each even radius to
    the next (shells of 1 and 5 parts in turn), so the coefficients
    w_r - w_{r+1} of the shell sums at even r >= 2 are negative; total mass
    below 3/5, tail outside radius R below 2^-R."""
    def shell_weight(r):
        return Fraction(1 + 4 * (r % 2), 2**r * 8 * shell_size(dim, r))

    assert shell_weight(2) < shell_weight(3)
    return AdmissibleMetric(dim, shell_weight, lambda R: Fraction(1, 2**R))


def assert_lower_sums_match(x, z, window, metric, radius):
    got = _box_lower_sums(x, z, window, metric, radius)
    assert got == _site_lower_sums(twin(x), twin(z), window, metric, radius)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_lower_sums_on_wide_lanes_match_per_site(data):
    """Radii whose lower sums need lanes of 8 bytes and more (2-D radius
    26..40 needs 62..95 bits, 1-D radius 60..80 needs 62..82), on boxes that
    may sit at negative coordinates, site by site and in window order."""
    dim, x, z = data.draw(pairs())
    radius = data.draw(st.integers(26, 40) if dim == 2 else st.integers(60, 80))
    lo = tuple(data.draw(st.integers(-90, 10)) for _ in range(dim))
    side = 5 if dim == 2 else 40
    hi = tuple(a + data.draw(st.integers(0, side - 1)) for a in lo)
    assert_lower_sums_match(x, z, FiniteSubset.box(lo, hi), default_metric(dim), radius)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), radius=st.integers(0, 9))
def test_lower_sums_with_negative_coefficients_match_per_site(data, radius):
    dim, x, z = data.draw(pairs())
    F, n = data.draw(windows(dim, 50 if dim == 1 else 7))
    metric = uneven_metric(dim)
    assert_lower_sums_match(x, z, F.set_at(n), metric, radius)
    got = besicovitch_estimate(x, z, F, n, metric, radius)
    assert got == besicovitch_estimate(twin(x), twin(z), per_site(F, n), 1, metric, radius)


def test_a_metric_is_its_shell_weights():
    """The metric is described once, by its shell weights, so a box window
    and the same sites as a set that is not a box give one interval."""
    d = default_metric(1)
    metric = AdmissibleMetric(1, lambda r: d.shell_weight(r) / 3, d.tail_bound)
    assert metric.weight((-3,)) == d.weight((3,)) / 3
    x, z = random_config(1, 1), random_config(1, 2)
    F = make_box_folner(1)
    sites = custom_folner([FiniteSubset(F.set_at(20).points())])
    got = besicovitch_estimate(x, z, F, 20, metric, 4)
    assert got == besicovitch_estimate(x, z, sites, 1, metric, 4)
    assert got[0] <= got[1]


def test_lower_sums_refuse_negative_shell_weights():
    x, z = constant_config(1, 0), constant_config(1, 1)
    metric = AdmissibleMetric(1, lambda r: Fraction(1 - r, 4), lambda R: Fraction(1, 2**R))
    for lower_sums in (_box_lower_sums, _site_lower_sums):
        with pytest.raises(ValueError, match="nonnegative"):
            lower_sums(x, z, FiniteSubset.box((0,), (9,)), metric, 2)


def test_lower_sums_refuse_a_ball_heavier_than_1():
    # the default shell weights doubled: the ball of radius 0 weighs 1, and
    # the ball of radius 4 weighs 2 - 1/16, which made the radius-4
    # estimate at n = 20 (271/224, 149/168), lo above hi
    d = default_metric(1)
    metric = AdmissibleMetric(1, lambda r: 2 * d.shell_weight(r), d.tail_bound)
    x, z = random_config(1, 1), random_config(1, 2)
    box = FiniteSubset.box((0,), (20,))
    for lower_sums in (_box_lower_sums, _site_lower_sums):
        assert lower_sums(x, z, box, metric, 0)[1] == 1
        with pytest.raises(ValueError, match=r"radius 4 sum to 31/16, above 1"):
            lower_sums(x, z, box, metric, 4)
    boxes = make_box_folner(1, "boxes")
    for F, n in ((boxes, 20), (per_site(boxes, 20), 1)):
        with pytest.raises(ValueError, match="above 1"):
            besicovitch_estimate(x, z, F, n, metric=metric, radius=4)


# D''s grid, written out as the reference: the steps j/200, then 10001/10000
DPRIME_GRID = [Fraction(j, 200) for j in range(1, 201)] + [Fraction(10001, 10000)]


def dprime_by_fractions(nums, den):
    """The least delta of DPRIME_GRID whose density of clearing sites is
    below delta, walked in Fractions: a site clears delta when
    k >= ceil(delta * den)."""
    nums, count = sorted(nums), len(nums)
    for delta in DPRIME_GRID:
        if Fraction(count - bisect_left(nums, ceil(delta * den)), count) < delta:
            return DPrimeEstimate(delta, False)
    return DPrimeEstimate(DPRIME_GRID[-1], False)


@st.composite
def step_metrics(draw):
    """(metric, radius) in 1-D with shell weights that are multiples of
    1/200 and a ball of mass at most 1: on a 200-site window every lower
    sum and every density is then a multiple of 1/200, so both sides of a
    step's test can tie with the step."""
    radius = draw(st.integers(0, 5))
    room, units = 200, []
    for r in range(radius + 1):
        units.append(draw(st.integers(0, room // shell_size(1, r))))
        room -= units[-1] * shell_size(1, r)
    units += [0]
    return AdmissibleMetric(1, lambda r: Fraction(units[min(r, radius + 1)], 200),
                            lambda R: Fraction(0)), radius


@settings(max_examples=80, deadline=None)
@given(data=st.data(), tied=st.booleans())
def test_dprime_ties_match_the_fraction_walk(data, tied):
    """D' equals the Fraction walk over its grid, in bulk and per site: on
    the default metric over 1-D and 2-D windows, and on step metrics over
    200-site 1-D windows, where sums and densities tie with the steps."""
    if tied:
        metric, radius = data.draw(step_metrics())
        x, z = (make(data.draw(st.sampled_from(NAMES[1])), 1, data.draw(st.integers(0, 2**16)))
                for _ in range(2))
        lo = data.draw(st.integers(-15, 15))
        F, n = custom_folner([FiniteSubset.box((lo,), (lo + 199,))]), 1
    else:
        dim, x, z = data.draw(pairs())
        F, n = data.draw(windows(dim, 50 if dim == 1 else 6))
        metric, radius = default_metric(dim), data.draw(st.integers(0, 6))
    nums, den = _site_lower_sums(twin(x), twin(z), F.set_at(n), metric, radius)
    want = dprime_by_fractions(nums, den)
    assert besicovitch_prime_estimate(x, z, F, n, metric, radius) == want
    assert besicovitch_prime_estimate(x, z, per_site(F, n), 1, metric, radius) == want


@settings(max_examples=60, deadline=None)
@given(data=st.data(), radius=st.integers(0, 4),
       tail=st.sampled_from([None, Fraction(1, 3), Fraction(1), Fraction(5, 4)]))
def test_besicovitch_upper_end_matches_capped_fractions(data, radius, tail):
    """hi is the mean of min(lo_g + tail, 1): at small radii many sites reach
    the cap of 1, and a tail of 1 or more caps every site."""
    dim, x, z = data.draw(pairs())
    F, n = data.draw(windows(dim, 50 if dim == 1 else 7))
    metric = default_metric(dim)
    if tail is not None:
        metric = AdmissibleMetric(dim, metric.shell_weight, lambda R: tail)
    nums, den = _site_lower_sums(twin(x), twin(z), F.set_at(n), metric, radius)
    t = metric.tail_bound(radius)
    want = (Fraction(sum(nums), den * len(nums)),
            sum(min(Fraction(k, den) + t, Fraction(1)) for k in nums) / len(nums))
    assert besicovitch_estimate(x, z, F, n, metric, radius) == want


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_empirical_measure_matches_per_site(data):
    dim, x, _ = data.draw(pairs())
    F, n = data.draw(windows(dim, 120 if dim == 1 else 20))
    side = 5 if dim == 1 else 3
    wlo = tuple(data.draw(st.integers(-2, 2)) for _ in range(dim))
    W = FiniteSubset.box(wlo, tuple(a + data.draw(st.integers(0, side - 1)) for a in wlo))
    window = F.set_at(n)
    assert empirical_measure(x, window, W) == empirical_measure(
        twin(x), FiniteSubset(window.points()), W
    )


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from((1, 2)), seeds=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
       data=st.data())
def test_pair_joining_marginals_are_the_empirical_measures(dim, seeds, data):
    x, z = (make("patched", dim, seed) for seed in seeds)
    F, n = data.draw(windows(dim, 60 if dim == 1 else 12))
    window = F.set_at(n)
    W = FiniteSubset.box((0,) * dim, (data.draw(st.integers(0, 2)),) * dim)
    joint = pair_empirical_joining(x, z, window, W)
    assert joint.left == empirical_measure(x, window, W)
    assert joint.right == empirical_measure(z, window, W)
    assert sum(joint.weights.values()) == 1


@settings(max_examples=40, deadline=None)
@given(data=st.data(), tile=st.integers(1, 40))
def test_tile_seams_change_no_count(data, tile):
    dim, x, z = data.draw(pairs())
    F, n = data.draw(windows(dim, 90 if dim == 1 else 15))
    window = F.set_at(n)
    W = FiniteSubset.box((0,) * dim, (1,) * dim)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(configs, "TILE_SITES", tile)
        assert len(list(box_tiles(window))) > 1 or len(window) <= tile
        got = (dbar_estimate(x, z, F, n), upper_density(x.indicator(1), F, [n]).rows[0].value,
               empirical_measure(x, window, W))
    ref, rx, rz = per_site(F, n), twin(x), twin(z)
    assert got == (dbar_estimate(rx, rz, ref, 1),
                   upper_density(lambda g: rx.value(g) == 1, F, [n]).rows[0].value,
                   empirical_measure(rx, FiniteSubset(window.points()), W))


def test_every_binary_name_reads_rows_without_site_calls():
    """A constructor that drops its rows rule would fall back to one
    `value` call per site; here any such call fails."""
    def site_read(self, g):
        raise AssertionError(f"{self.kind} read site by site")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Configuration, "value", site_read)
        for dim, names in NAMES.items():
            box = FiniteSubset.box((-5,) * dim, (6,) * dim)
            for name in names:
                for seed in range(4):
                    x = make(name, dim, seed)
                    assert len(x.rows(box)) == (12 if dim == 2 else 1)


# --- random_config against a splitmix64 written here ------------------------

def _splitmix64(v):
    v = (v + 0x9E3779B97F4A7C15) % 2**64
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) % 2**64
    return v ^ (v >> 31)


def hashed(seed, g, alphabet=2):
    """random_config's symbol: splitmix64 folded over the seed, then each
    coordinate, all taken mod 2^64."""
    h = _splitmix64(seed % 2**64)
    for c in g:
        h = _splitmix64(h ^ (c % 2**64))
    return h % alphabet


def hashed_rows(seed, box):
    lo, hi = box.bounds
    heads = [()] if box.dim == 1 else [(a,) for a in range(lo[0], hi[0] + 1)]
    cols = range(lo[-1], hi[-1] + 1)
    return [sum(hashed(seed, (*a, c)) << j for j, c in enumerate(cols)) for a in heads]


# near 0, below 0, where c mod 2^64 wraps: at +-2^63 and beyond +-2^64, and
# far out, near +-2^70
CORNERS = (0, -37, 2**63 - 9, -(2**63) - 9, 2**64 - 9, -(2**64) - 9, 5 * 2**64 + 3,
           2**70 - 5, -(2**70) + 7)


CHUNK = examples._CHUNK
# row widths at and around a 64-column site chunk and a CHUNK-lane hash chunk
WIDTHS = (1, 63, 64, 65, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 2100)


@settings(max_examples=120, deadline=None)
@given(dim=st.sampled_from((1, 2)), seed=st.integers(-(2**70), 2**70), data=st.data())
def test_random_rows_match_an_independent_hash(dim, seed, data):
    # 1-D rows up to 2 CHUNK + 1 wide reach every width a chunk's lanes are
    # cut to; 2-D boxes up to 16 rows of 70 columns
    lo = tuple(data.draw(st.sampled_from(CORNERS)) + data.draw(st.integers(-10, 10))
               for _ in range(dim))
    extents = (2 * CHUNK,) if dim == 1 else (15, 69)
    hi = tuple(a + data.draw(st.integers(0, e)) for a, e in zip(lo, extents))
    box = FiniteSubset.box(lo, hi)
    assert random_config(dim, seed).rows(box) == hashed_rows(seed, box)


@pytest.mark.parametrize("corner", CORNERS)
def test_random_rows_across_chunk_seams_match_an_independent_hash(corner):
    # starting at the corner puts the wrap 9 columns into the first chunk;
    # starting a chunk earlier puts it right at the first seam
    for lo in (corner, corner + 9 - CHUNK):
        for width in WIDTHS:
            box = FiniteSubset.box((lo,), (lo + width - 1,))
            assert random_config(1, corner + width).rows(box) == hashed_rows(corner + width, box)
    box = FiniteSubset.box((corner - 1, corner + 9 - CHUNK), (corner + 1, corner + 20))
    assert random_config(2, 3).rows(box) == hashed_rows(3, box)


# sha256 of random_config rows over 1-D and 2-D boxes with negative and
# wrapping columns, wider than a chunk; taken from the per-site row rule
# that the lane-packed one replaced
ROWS_SHA256 = "31b0f1db78501a81247281ca8a898d61bf2972be5bc51166079c3d998a414d27"


def test_random_rows_hash_is_unchanged():
    boxes = {
        1: [((0,), (0,)), ((-5,), (60,)), ((-1500,), (1500,)),
            ((2**63 - 700,), (2**63 + 1400,)), ((-(2**64) - 1030,), (-(2**64) + 1030,)),
            ((5 * 2**64 - 2049,), (5 * 2**64 + 3,))],
        2: [((-3, -40), (4, 90)), ((2**63 - 2, 2**64 - 1100), (2**63 + 1, 2**64 + 1000)),
            ((-(2**64) - 1, -1030), (-(2**64) + 1, 1030))],
    }
    digest = hashlib.sha256()
    for seed in (0, 7, -3, 2**70):
        for dim in (1, 2):
            x = random_config(dim, seed)
            for lo, hi in boxes[dim]:
                digest.update(repr((dim, seed, lo, hi, x.rows(FiniteSubset.box(lo, hi)))).encode())
    assert digest.hexdigest() == ROWS_SHA256


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from((1, 2)), seeds=st.tuples(st.integers(0, 2**40), st.integers(0, 2**40)),
       tile=st.integers(1, 30), data=st.data())
def test_random_counts_across_tile_seams_match_an_independent_hash(dim, seeds, tile, data):
    lo = tuple(data.draw(st.sampled_from(CORNERS)) for _ in range(dim))
    hi = tuple(a + data.draw(st.integers(0, 80 if dim == 1 else 12)) for a in lo)
    box = FiniteSubset.box(lo, hi)
    F = custom_folner([box])
    x, z = (random_config(dim, s) for s in seeds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(configs, "TILE_SITES", tile)
        assert len(list(box_tiles(box))) > 1 or len(box) <= tile
        ones = upper_density(x.indicator(1), F, [1]).rows[0].value
        mismatches = dbar_estimate(x, z, F, 1)
    assert ones == Fraction(sum(hashed(seeds[0], g) for g in box), len(box))
    assert mismatches == Fraction(
        sum(hashed(seeds[0], g) != hashed(seeds[1], g) for g in box), len(box))


def test_random_config_of_three_symbols_is_read_site_by_site():
    x, z = random_config(2, 5, alphabet=3), random_config(2, 6, alphabet=3)
    box = FiniteSubset.box((-4, -3), (5, 6))
    assert not rows_available(box, x)
    with pytest.raises(ValueError):
        x.rows(box)

    def no_rows(self, box):
        raise AssertionError("rows read")

    F, W = custom_folner([box]), FiniteSubset.box((0, 0), (0, 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Configuration, "rows", no_rows)
        got = (dbar_estimate(x, z, F, 1), upper_density(x.indicator(2), F, [1]).rows[0].value,
               empirical_measure(x, box, W).weights)
    xs = {g: hashed(5, g, 3) for g in box.minkowski(W)}
    assert all(x.value(g) == s for g, s in xs.items())
    patterns = Counter((xs[(a, b)], xs[(a, b + 1)]) for a, b in box)
    assert got == (Fraction(sum(xs[g] != hashed(6, g, 3) for g in box), len(box)),
                   Fraction(sum(xs[g] == 2 for g in box), len(box)),
                   {p: Fraction(c, len(box)) for p, c in patterns.items()})


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_random_sites_match_an_independent_hash(dim):
    for seed in (0, -5, 2**70):
        x = random_config(dim, seed)
        for g in itertools.product(CORNERS, repeat=dim):
            assert x.value(g) == hashed(seed, g)


def test_random_row_heads_survive_memo_eviction():
    """Read sites of 2,648 distinct rows, each followed by a site of an
    early row, so the chunk memo (CHUNK_MEMO chunks) is cleared along the
    way; then rows over a box taller than the memo, then sites again."""
    x = random_config(2, 17)
    rows = range(-CHUNK - 300, CHUNK + 300)
    sites = []
    for i, a in enumerate(rows):
        sites += [(a, i % 7 - 3), (rows[i % 50], a)]
    assert [x.value(g) for g in sites] == [hashed(17, g) for g in sites]
    box = FiniteSubset.box((-CHUNK - 5, -3), (CHUNK + 5, 3))
    assert x.rows(box) == hashed_rows(17, box)
    assert [x.value(g) for g in sites[::40]] == [hashed(17, g) for g in sites[::40]]


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_patched_and_shifted_sites_read_their_base(dim):
    rng = random.Random(dim)
    patch = {tuple(rng.randint(-4, 4) for _ in range(dim)): rng.randint(0, 1)
             for _ in range(20)}
    x = patched_config(random_config(dim, 23), patch)
    g0 = (5, -3, 2)[:dim]
    y = shift(g0, x)
    for g in FiniteSubset.box((-6,) * dim, (6,) * dim):
        assert x.value(g) == patch.get(g, hashed(23, g))
        h = tuple(a + b for a, b in zip(g, g0))
        assert y.value(g) == patch.get(h, hashed(23, h))


# --- site reads from memoized row chunks -------------------------------------

# columns across the chunk seams at -128, -64, 0, 64 and 128
SEAM_COLUMNS = range(-131, 132)


def chunk_sites(dim):
    """Sites of a few rows across chunk seams, then one site in each of more
    distinct chunks than the memo holds, then the first sites again."""
    rows = (0,) if dim == 1 else (-65, -1, 0, 3, 64)
    sites = [(a, c)[-dim:] for a in rows for c in SEAM_COLUMNS]
    far = [(i * 64 + i % 64,) if dim == 1 else (i - 40, i % 64 - 32)
           for i in range(-20, configs.CHUNK_MEMO + 40)]
    return sites + far + sites[::7]


@pytest.mark.parametrize("dim", (1, 2))
def test_site_reads_match_the_rule(dim):
    rng = random.Random(dim)
    sites = chunk_sites(dim)
    for name in NAMES[dim]:
        x = make(name, dim, 11)
        patch = {(rng.choice((-1, 0, 3)), c)[-dim:]: rng.randint(0, 1)
                 for c in (-129, -128, -65, -64, -1, 0, 63, 64, 127, 128)}
        for y in (x, shift((-37, 70)[-dim:], x), patched_config(x, patch)):
            assert [y.value(g) for g in sites] == [y._rule(g) for g in sites], (name, y.kind)


def counted(x):
    """x with a rows rule that logs each call's corners, and that log."""
    calls = []

    def rows(lo, hi):
        calls.append((lo, hi))
        return x._rows(lo, hi)

    return Configuration(x.dim, x.alphabet, x._rule, rows=rows), calls


def chunk_memo(x):
    """The chunk memo that x's site reads keep."""
    assert isinstance(x._memo, dict)
    return x._memo


def test_one_row_read_site_by_site_reads_each_chunk_once():
    x, calls = counted(random_config(2, 3))
    row = [(5, c) for c in range(-90, 91)]
    assert [x.value(g) for g in row] == [hashed(3, g) for g in row]
    assert len(calls) <= -(-181 // 64) + 1
    assert all(hi[1] - lo[1] == 63 and lo[1] % 64 == 0 and lo[0] == hi[0] == 5
               for lo, hi in calls)


@pytest.mark.parametrize("dim", (1, 2))
def test_chunk_memo_stays_within_its_bound(dim):
    x, calls = counted(random_config(dim, 4))
    memo = chunk_memo(x)
    for g in chunk_sites(dim):
        assert x.value(g) == hashed(4, g)
        assert len(memo) <= configs.CHUNK_MEMO
    assert len(calls) > configs.CHUNK_MEMO


@pytest.mark.parametrize("dim", (1, 2))
def test_memo_chunks_are_bytes_of_one_symbol_per_column(dim):
    sites = chunk_sites(dim)[:2 * len(SEAM_COLUMNS)]
    for name in NAMES[dim]:
        x = make(name, dim, 11)
        symbols = [x.value(g) for g in sites]
        assert {type(s) for s in symbols} == {int} and set(symbols) <= {0, 1}, name
        memo = chunk_memo(x)
        assert memo, name
        for (a, k), chunk in memo.items():
            lo, hi = ((a, k * 64), (a, k * 64 + 63)) if dim == 2 else ((k * 64,), (k * 64 + 63,))
            assert type(chunk) is bytes and len(chunk) == 64, name
            assert chunk == bytes(int(b) for b in row_bits(x._rows(lo, hi)[0], 64)), name
            assert list(chunk) == [x._rule((a, c)[-dim:]) for c in range(lo[-1], hi[-1] + 1)]


def test_sites_without_a_two_symbol_rows_rule_are_read_by_the_rule():
    def no_rows(lo, hi):
        raise AssertionError("rows rule called")

    x = random_config(2, 5, alphabet=3)
    assert x._rows is None and x._memo is None
    box = FiniteSubset.box((-3, -70), (3, 70))
    ternary = Configuration(2, 3, x._rule, rows=no_rows)
    assert all(x.value(g) == ternary.value(g) == hashed(5, g, 3) for g in box)
    cube = Configuration(3, 2, lambda g: sum(g) % 2, rows=no_rows)
    assert all(cube.value(g + (1,)) == (sum(g) + 1) % 2 for g in box)
    assert ternary._memo is None and cube._memo is None


def test_tiles_partition_large_boxes():
    for box in (FiniteSubset.box((-3, -5), (2500, 1200)),
                FiniteSubset.box((0, -7), (2, 3_000_000)),
                FiniteSubset.box((-7,), (3_000_000,))):
        tiles = list(box_tiles(box))
        assert len(tiles) > 1 and sum(len(t) for t in tiles) == len(box)
        assert all(box.contains_set(t) for t in tiles)
        assert all(a.intersection_size(b) == 0 for i, a in enumerate(tiles) for b in tiles[:i])


def test_rows_refuse_what_they_cannot_pack():
    x = constant_config(2, 1)
    with pytest.raises(ValueError):
        x.rows(FiniteSubset([(0, 0), (2, 2)]))
    with pytest.raises(ValueError):
        x.rows(FiniteSubset.box((0,), (3,)))
    with pytest.raises(ValueError):
        constant_config(2, 1, alphabet=3).rows(FiniteSubset.box((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        constant_config(3, 1).rows(FiniteSubset.box((0, 0, 0), (1, 1, 1)))


# --- the periodicity check of PeriodicOrbitMeasure --------------------------

def test_orbit_check_runs_on_large_diagonal_lattices():
    x = resolve_example_name("prime-approx:5")
    orbit = PeriodicOrbitMeasure.from_config(x)
    assert orbit.lattice.index == 2310**2


@pytest.mark.parametrize("site", [(3, 4), (0, 5), (5, 0)])
def test_orbit_check_rejects_a_broken_period(site):
    x = resolve_example_name("prime-approx:2")
    broken = patched_config(x, {site: 1 - x.value(site)})
    with pytest.raises(ValueError, match="not periodic"):
        PeriodicOrbitMeasure(broken, Lattice.diagonal(6, dim=2))


@pytest.mark.parametrize("axis, gen", [(0, "(6, 0)"), (1, "(0, 6)")])
def test_orbit_check_rejects_a_period_broken_along_one_axis(axis, gen):
    stripes = predicate_config(
        2, lambda g: g[axis] % 5 == 0, period_lattice=Lattice.diagonal(6, dim=2)
    )
    with pytest.raises(ValueError, match=f"generator {re.escape(gen)}"):
        PeriodicOrbitMeasure.from_config(stripes)


def _sevens(lo, hi):
    """Rows of (g0 + g1) % 7 == 0."""
    cols = range(hi[1] - lo[1] + 1)
    return [sum(1 << j for j in cols if (a + lo[1] + j) % 7 == 0) for a in range(lo[0], hi[0] + 1)]


def test_orbit_check_rejects_false_period_of_large_index():
    # past the per-site limit, so it is checked on its rows rule's rows
    x = predicate_config(
        2, lambda g: (g[0] + g[1]) % 7 == 0, period_lattice=Lattice.diagonal(317, dim=2),
        rows=_sevens,
    )
    assert x.period_lattice.index > 100_000
    with pytest.raises(ValueError, match="not periodic"):
        PeriodicOrbitMeasure.from_config(x)


def test_orbit_check_runs_on_large_non_diagonal_lattices():
    # columns (100, 0), (50, 101): the triangular basis has diagonal (50, 202)
    lat = Lattice([[100, 50], [0, 101]])
    assert lat.index == 10_100 and lat.moduli is None
    rng = random.Random(7)
    x = periodic_config(lat, {p: rng.randint(0, 1) for p in lat.fundamental_domain()})
    PeriodicOrbitMeasure.from_config(x)
    broken = patched_config(x, {(0, 0): 1 - x.value((0, 0))})
    with pytest.raises(ValueError, match="not periodic"):
        PeriodicOrbitMeasure(broken, lat)


def _random_table(lat, rng):
    return periodic_config(lat, {p: rng.randint(0, 1) for p in lat.fundamental_domain()})


def test_periodic_oracle_under_a_skew_lattice_matches_per_site_minimum():
    lat = Lattice([[4, 1], [0, 4]])
    rng = random.Random(12)
    x, z = _random_table(lat, rng), _random_table(lat, rng)
    box = joint_period_box(lat, lat)
    rx, rz = twin(x), twin(z)
    best = min(
        sum(1 for g in box if rx.value(g) != rz.value(tuple(a + b for a, b in zip(g, s))))
        for s in box
    )
    oracle = periodic_rho_oracle(PeriodicOrbitMeasure(x, lat), PeriodicOrbitMeasure(z, lat))
    assert oracle == Fraction(best, len(box))


def test_periodic_oracle_under_a_skew_lattice_reads_no_site():
    lat = Lattice([[12, 1], [0, 12]])
    rng = random.Random(5)
    x, z = _random_table(lat, rng), _random_table(lat, rng)

    def site_read(self, g):
        raise AssertionError("read site by site")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Configuration, "value", site_read)
        got = periodic_rho_oracle(PeriodicOrbitMeasure(x, lat), PeriodicOrbitMeasure(z, lat))
    # the value the per-site path gives, in about 10 s
    assert got == Fraction(19, 48)


def test_periodic_oracle_refuses_a_large_site_by_site_pair_up_front():
    # three symbols cannot be read as rows; 1,872 shifts times 1,872 sites
    # took 17 s site by site, and the row limit would admit 28 times that
    rng = random.Random(1)
    orbits = []
    for lat in (Lattice.diagonal((12, 12)), Lattice.diagonal((13, 12))):
        table = {p: rng.randint(0, 2) for p in lat.fundamental_domain()}
        orbits.append(PeriodicOrbitMeasure(periodic_config(lat, table, alphabet=3), lat))
    assert len(joint_period_box(orbits[0].lattice, orbits[1].lattice)) == 1872

    def site_read(self, g):
        raise AssertionError("read site by site")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Configuration, "value", site_read)
        with pytest.raises(ValueError, match="too large"):
            periodic_rho_oracle(*orbits)


def _all_ones(lo, hi):
    return [(1 << hi[1] - lo[1] + 1) - 1] * (hi[0] - lo[0] + 1)


def test_orbit_check_refuses_large_non_diagonal_lattices():
    # beyond the row limit: index 5793^2 > 2^25
    x = predicate_config(2, lambda g: True, period_lattice=Lattice([[5793, 1], [0, 5793]]),
                         rows=_all_ones)
    with pytest.raises(ValueError, match="index 33558849 exceeds 33554432$"):
        PeriodicOrbitMeasure.from_config(x)
    # beyond the per-site limit: three symbols cannot be read as rows
    lat = Lattice([[317, 1], [0, 317]])
    y = Configuration(2, 3, lambda g: 0, period_lattice=lat)
    with pytest.raises(ValueError, match="cannot check"):
        PeriodicOrbitMeasure.from_config(y)


def test_row_limits_need_a_bulk_rows_rule():
    # a binary rule without a rows rule packs its rows from one site read
    # each, so it gets the per-site limits: index 1,000,003 is refused before
    # any read (the row limit admitted it, and its check took 1.41 s)
    reads = []
    x = predicate_config(1, lambda g: reads.append(g) or g[0] % 1_000_003 == 0,
                         period_lattice=Lattice.diagonal([1_000_003]))
    assert x.has_row_rule() is False
    with pytest.raises(ValueError, match="index 1000003 exceeds 100000$"):
        PeriodicOrbitMeasure.from_config(x)
    assert reads == []
    # so does the oracle: periods 40 and 41 give 1640^2 (shift, site) pairs,
    # within the row limit for words and over the site limit for rules
    words = [word_config((1,) + (0,) * (p - 1)) for p in (40, 41)]
    rules = [predicate_config(1, lambda g, p=p: g[0] % p == 0, period_lattice=Lattice.diagonal([p]))
             for p in (40, 41)]
    assert all(w.has_row_rule() for w in words)
    assert len(oracle_box(*map(PeriodicOrbitMeasure.from_config, words))) == 1640
    with pytest.raises(ValueError, match="joint period 1640 too large"):
        oracle_box(*map(PeriodicOrbitMeasure.from_config, rules))


# --- window pattern codes at lane boundaries ---------------------------------
# One configuration's code takes 1-, 2-, 4- and 8-byte lanes up to 8, 16, 32
# and 64 sites of W, and a lane of exactly ceil(|W| / 8) bytes beyond; a
# pair's takes them at half those sizes.  Codes of at most
# measures.FEW_CODE_BITS bits (W of up to 4 sites, a pair's W of up to 2)
# are counted per code over a tile, wider ones per band: the windows of 1-5
# sites and FEW_PAIR_WINDOWS lie on both sides of that bound.

LANE_WINDOWS = [((-3,), (a - 4,)) for a in (1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65)] + [
    ((-1, 2), (h - 2, w + 1))
    for h, w in ((1, 1), (1, 2), (2, 2), (1, 5), (2, 4), (3, 3), (4, 4), (4, 8), (8, 8), (9, 8))
]
PAIR_WINDOWS = [((-3,), (a - 4,)) for a in (16, 17, 32, 33)] + [
    ((-1, 2), (h - 2, w + 1)) for h, w in ((4, 4), (3, 6), (4, 8), (3, 11))
]
# joint codes of 2, 4 and 6 bits
FEW_PAIR_WINDOWS = [((-3,), (a - 4,)) for a in (1, 2, 3)] + [
    ((-1, 2), (h - 2, w + 1)) for h, w in ((1, 1), (1, 2), (1, 3))
]
LANE_BOXES = {1: FiniteSubset.box((-23,), (97,)), 2: FiniteSubset.box((-6, -5), (8, 9))}


@pytest.mark.parametrize("corners", LANE_WINDOWS)
def test_pattern_codes_match_per_site_across_lanes(corners, monkeypatch):
    W = FiniteSubset.box(*corners)
    window = LANE_BOXES[W.dim]
    monkeypatch.setattr(configs, "TILE_SITES", 64)
    for name in NAMES[W.dim]:
        x = make(name, W.dim, 3)
        assert empirical_measure(x, window, W) == empirical_measure(
            twin(x), FiniteSubset(window.points()), W
        ), name


@pytest.mark.parametrize("corners", FEW_PAIR_WINDOWS + PAIR_WINDOWS)
def test_pair_joining_codes_match_per_site_across_lanes(corners, monkeypatch):
    W = FiniteSubset.box(*corners)
    window = LANE_BOXES[W.dim]
    monkeypatch.setattr(configs, "TILE_SITES", 64)
    names = NAMES[W.dim]
    for i, name in enumerate(names):
        x, z = make(name, W.dim, 5), make(names[(i + 3) % len(names)], W.dim, 6)
        joint = pair_empirical_joining(x, z, window, W)
        assert joint.to_dict() == pair_empirical_joining(
            twin(x), twin(z), FiniteSubset(window.points()), W
        ).to_dict(), name


def test_few_codes_come_in_the_order_the_band_count_gives(monkeypatch):
    """Counted per code over a tile, few-valued codes give the Counter that
    counting each band gives, key order included: a float sum over the
    counts, such as a block entropy, reads them in that order."""
    monkeypatch.setattr(configs, "TILE_SITES", 64)
    cases = [(corners, 1) for corners in LANE_WINDOWS] + [
        (corners, 2) for corners in FEW_PAIR_WINDOWS]
    for corners, k in cases:
        W = FiniteSubset.box(*corners)
        if k * len(W) > measures.FEW_CODE_BITS:
            continue
        names = NAMES[W.dim]
        for i, name in enumerate(names):
            xs = [make(names[(i + 3 * j) % len(names)], W.dim, 7 + j) for j in range(k)]
            few = list(measures._box_pattern_codes(xs, LANE_BOXES[W.dim], W).items())
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(measures, "FEW_CODE_BITS", 0)
                assert few == list(
                    measures._box_pattern_codes(xs, LANE_BOXES[W.dim], W).items()), name


def test_pair_joining_reads_rows_without_site_calls():
    def site_read(self, g):
        raise AssertionError(f"{self.kind} read site by site")

    pairs_of = {1: ("rf-sub:2", "random"), 2: ("visible", "prime-approx:2")}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Configuration, "value", site_read)
        for corners in PAIR_WINDOWS:
            W = FiniteSubset.box(*corners)
            x, z = (make(name, W.dim, 1) for name in pairs_of[W.dim])
            joint = pair_empirical_joining(x, z, LANE_BOXES[W.dim], W)
            assert joint.left.den == len(LANE_BOXES[W.dim])


def pinned_measures():
    """(den, sorted counts) of empirical measures and to_dict() of pair
    joinings over fixed configurations, boxes with negative corners, and
    windows whose codes take 1-, 2-, 4- and 8-byte lanes and wider ones."""
    one = [resolve_example_name("rf-sub:3"), random_config(1, 7),
           patched_config(random_config(1, 8), {(-30,): 1, (5,): 0, (40,): 1})]
    two = [resolve_example_name("visible"), resolve_example_name("prime-approx:2"),
           random_config(2, 9)]
    boxes = {1: FiniteSubset.box((-37,), (90,)), 2: FiniteSubset.box((-9, -14), (6, 3))}
    out = []
    singles = [((-2,), (a - 3,)) for a in (3, 8, 9, 16, 17, 32, 33, 64, 65, 70)] + [
        ((-1, 2), (h - 2, w + 1)) for h, w in ((2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (9, 8))
    ]
    for corners in singles:
        W = FiniteSubset.box(*corners)
        for x in (one if W.dim == 1 else two):
            m = empirical_measure(x, boxes[W.dim], W)
            out.append((m.den, sorted(m.counts.items())))
    doubles = [((-2,), (a - 3,)) for a in (4, 8, 16, 17, 32, 33, 40)] + [
        ((-1, 2), (h - 2, w + 1)) for h, w in ((2, 2), (3, 3), (4, 4), (5, 5), (6, 6))
    ]
    for corners in doubles:
        W = FiniteSubset.box(*corners)
        xs = one if W.dim == 1 else two
        for x, z in ((xs[0], xs[1]), (xs[2], xs[0])):
            out.append(pair_empirical_joining(x, z, boxes[W.dim], W).to_dict())
    return hashlib.sha256(repr(out).encode()).hexdigest()


def test_pattern_code_measures_are_pinned():
    # computed with the string-keyed row reader and the per-site pair loop
    assert pinned_measures() == (
        "043d250aa3cfc0a03188866f4ffa2cd3b498bb1b377ca7238ca6dc175c46f0c1"
    )


def pinned_site_measures():
    """(den, sorted counts) of empirical measures and to_dict() of pair
    joinings read site by site: ternary random configurations over boxes,
    and binary ones over explicit point sets or a window that is no box."""
    three = {d: [random_config(d, s, alphabet=3) for s in (21, 22)] for d in (1, 2)}
    two = {1: [resolve_example_name("rf-sub:3"), random_config(1, 23)],
           2: [resolve_example_name("visible"), random_config(2, 24)]}
    boxes = {1: FiniteSubset.box((-19,), (44,)), 2: FiniteSubset.box((-4, -6), (5, 3))}
    gaps = {1: FiniteSubset([(0,), (2,), (5,)]), 2: FiniteSubset([(0, 0), (1, 2), (-1, 1)])}
    out = []
    for d in (1, 2):
        box, points = boxes[d], FiniteSubset(boxes[d].points())
        Ws = [box_set(d, k) for k in (0, 1, 2)] + [gaps[d]]
        cases = [(three[d][0], three[d][1], box), (three[d][0], two[d][0], box),
                 (two[d][0], two[d][1], points), (two[d][1], three[d][1], points)]
        for W in Ws:
            for x, z, window in cases:
                m = empirical_measure(x, window, W)
                out.append((m.den, sorted(m.counts.items())))
                out.append(pair_empirical_joining(x, z, window, W).to_dict())
    return hashlib.sha256(repr(out).encode()).hexdigest()


def test_site_pattern_measures_are_pinned():
    # computed with the per-site loops of empirical_measure and
    # pair_empirical_joining before they became one reader
    assert pinned_site_measures() == (
        "e5f2c7d66782c2522b872f99e91b594894307cd9c994f573e87c2584e8ed602d"
    )


# --- the lane codec ------------------------------------------------------------


def test_only_configs_knows_the_lane_layout():
    package = Path(configs.__file__).parent
    named = [p.name for p in sorted(package.glob("*.py"))
             if re.search(r"_DIGIT|_LANE_FORMAT|byteorder", p.read_text())]
    assert named == ["configs.py"]


def test_only_configs_builds_a_common_denominator():
    """`configs.integer_scale` is the one exact scale: no other module takes
    an lcm of `.denominator`s or grows a running denominator."""
    package = Path(configs.__file__).parent
    named = [p.name for p in sorted(package.glob("*.py"))
             if re.search(r"lcm\(.*\.denominator|//\s*(math\.)?gcd\(", p.read_text())]
    assert named == ["configs.py"]


def test_the_package_imports_only_the_standard_library():
    """The runtime is standard-library only, as the README promises: every
    import in a module of the package names a standard module or the
    package itself (relative imports are the package's)."""
    package = Path(configs.__file__).parent
    seen, outside = set(), []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                seen.add(top)
                if top not in sys.stdlib_module_names and top != "shiftlab":
                    outside.append(f"{path.name}: {name}")
    assert outside == []
    # the walk sees the imports it checks
    assert {"fractions", "math", "argparse"} <= seen


def lane_reads():
    """Lower sums, empirical measures and pair joinings whose lanes take
    1, 2, 4, 8 and more than 8 bytes, over boxes with negative corners."""
    out = []
    for dim, side, radii in ((1, 30, (2, 10, 20, 35, 70)), (2, 6, (1, 4, 9, 14, 30))):
        x, z = random_config(dim, 3), random_config(dim, 4)
        window = FiniteSubset.box((-3,) * dim, (side - 3,) * dim)
        for r in radii:
            out.append(_box_lower_sums(x, z, window, default_metric(dim), r))
    one = (random_config(1, 5), resolve_example_name("rf-sub:3"))
    for k in (5, 12, 30, 60, 70):
        out.append(empirical_measure(one[0], FiniteSubset.box((-20,), (40,)), box_set(1, k - 1)))
    for k in (3, 7, 13, 31, 36):
        out.append(pair_empirical_joining(*one, FiniteSubset.box((-20,), (40,)),
                                          box_set(1, k - 1)).to_dict())
    two = (resolve_example_name("visible"), random_config(2, 6))
    for h, w in ((2, 2), (3, 4), (5, 6), (7, 8), (9, 9)):
        W = FiniteSubset.box((-1, 0), (h - 2, w - 1))
        out.append(empirical_measure(two[0], FiniteSubset.box((-4, -5), (6, 5)), W))
    for h, w in ((2, 2), (2, 3), (3, 5), (4, 8), (5, 7)):
        W = FiniteSubset.box((0, -1), (h - 1, w - 2))
        out.append(pair_empirical_joining(*two, FiniteSubset.box((-4, -5), (6, 5)), W).to_dict())
    return out


def test_lane_reads_by_int_from_bytes_match_the_cast(monkeypatch):
    """With sys.byteorder patched to "big", `configs.lane_reader` reads
    every lane row with int.from_bytes instead of memoryview.cast; lower
    sums, empirical measures and pair joinings must not change, for lanes
    of 1, 2, 4, 8 and more than 8 bytes alike."""
    want = lane_reads()
    sizes = {metrics: set(), measures: set()}
    for module, seen in sizes.items():
        def reader(L, count, seen=seen):
            seen.add(L)
            return configs.lane_reader(L, count)

        monkeypatch.setattr(module, "lane_reader", reader)
    assert list(configs.lane_reader(1, 2)(0x030201)) == [1, 2]
    monkeypatch.setattr(sys, "byteorder", "big")
    assert configs.lane_reader(1, 2)(0x030201) == [1, 2]
    assert lane_reads() == want
    for seen in sizes.values():
        assert {1, 2, 4, 8} < seen and max(seen) > 8, seen
