"""Configurations, lattices, shifts, and the truncated admissible metric."""

import collections
import itertools
import re
from decimal import Decimal
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.configs import (
    Alphabet,
    Lattice,
    config_distance,
    constant_config,
    default_metric,
    integer_scale,
    patched_config,
    periodic_config,
    predicate_config,
    restrict,
    shell_size,
    shift,
    word_config,
)
from shiftlab.errors import InvalidDimensionError
from shiftlab.examples import resolve_example_name, visible_points_config
from shiftlab.groups import FiniteSubset, compose

small_points = st.tuples(st.integers(-6, 6))


def test_alphabet_bounds():
    ab = Alphabet(3)
    assert list(ab.symbols()) == [0, 1, 2]
    assert ab.check(2) == 2
    with pytest.raises(ValueError):
        ab.check(3)
    with pytest.raises(ValueError):
        Alphabet(1)


def test_word_config_wraps_and_coerces():
    x = word_config("0110")
    assert [x.value((i,)) for i in range(4)] == [0, 1, 1, 0]
    assert x.value((4,)) == 0 and x.value((-1,)) == 0
    assert x.period_lattice is not None and x.period_lattice.moduli == (4,)


@pytest.mark.parametrize("word, alphabet", [
    ((0,), 2), ((1, 1, 0), 2), ((0, 1) * 40 + (1,), 2), ((2, 0, 1, 1), 3), ((0, 299, 7), 300),
])
def test_word_config_matches_the_periodic_table(word, alphabet):
    x = word_config(word, alphabet)
    lat = Lattice.diagonal([len(word)])
    ref = periodic_config(lat, {(i,): s for i, s in enumerate(word)}, alphabet)
    assert (x.kind, x.dim, x.alphabet, repr(x.period_lattice)) == (
        ref.kind, ref.dim, ref.alphabet, repr(ref.period_lattice))
    sites = [(c,) for c in range(-100, 100)]
    assert [x.value(g) for g in sites] == [ref.value(g) for g in sites]
    assert [x._rule(g) for g in sites] == [ref._rule(g) for g in sites]
    for lo, width in itertools.product((-77, 0, 5, 130), (1, 3, 64, 200)):
        assert x._rows((lo,), (lo + width - 1,)) == ref._rows((lo,), (lo + width - 1,))
    with pytest.raises(InvalidDimensionError):
        x._rule((1, 2))


@pytest.mark.parametrize("word, alphabet, message", [
    ((), 2, "word must be non-empty"),
    ((0, 1, 2, 3), 2, "symbol 2 outside alphabet of size 2"),
    ((0, -1, 5), 3, "symbol -1 outside alphabet of size 3"),
    ((0, 1), 1, "alphabet needs at least 2 symbols, got 1"),
])
def test_word_config_refuses_an_empty_word_and_foreign_symbols(word, alphabet, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        word_config(word, alphabet)


def test_building_a_long_word_does_no_per_site_work(monkeypatch):
    calls = collections.Counter()
    for cls, name in ((Lattice, "reduce"), (Alphabet, "check")):
        method = getattr(cls, name)

        def counted(self, arg, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, arg)

        monkeypatch.setattr(cls, name, counted)
    x = resolve_example_name("rf-sub:6")
    assert x.period_lattice.index == 75735
    assert calls == {}


def test_constant_and_patched_configs():
    base = constant_config(2, 0)
    assert base.value((17, -3)) == 0
    patched = patched_config(base, {(1, 1): 1})
    assert patched.value((1, 1)) == 1 and patched.value((1, 2)) == 0


def test_chunked_site_reads_refuse_points_of_another_dimension():
    one, two = word_config((0, 1, 1)), visible_points_config()
    for x, bad in ((one, (1, 2)), (one, ()), (two, (3,)), (two, (1, 2, 3))):
        with pytest.raises(InvalidDimensionError, match="^point of wrong dimension$"):
            x.value(bad)
    assert one.value((2,)) == 1 and two.value((2, 3)) == 1 and two.value((2, 4)) == 0


def test_lattice_diagonal_and_reduce():
    lat = Lattice.diagonal((2, 3))
    assert lat.index == 6 and lat.moduli == (2, 3)
    assert not any(lat.reduce((4, -3))) and any(lat.reduce((1, 0)))
    assert lat.reduce((5, 7)) == (1, 1)
    assert len(lat.fundamental_domain()) == 6


def test_lattice_general_basis():
    lat = Lattice([(2, 1), (0, 3)])
    assert lat.index == 6 and lat.moduli is None
    # generators are the columns of the basis matrix
    assert not any(lat.reduce((2, 0))) and not any(lat.reduce((1, 3)))
    assert lat.fundamental_domain() == FiniteSubset.box((0, 0), (0, 5))
    assert lat.reduce((1, 0)) == (0, 3)
    with pytest.raises(ValueError):
        Lattice([(1, 0), (2, 0)])


def test_lattice_reports_moduli_of_any_product_basis():
    assert Lattice([[2, 2], [0, 3]]).moduli == (2, 3)
    assert Lattice([[-2, 0], [0, 3]]).moduli == (2, 3)
    assert Lattice([[0, 3], [2, 0]]).moduli == (3, 2)


def _det(rows):
    """Determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
    )


@st.composite
def nonsingular_bases(draw):
    d = draw(st.integers(1, 3))
    row = st.lists(st.integers(-6, 6), min_size=d, max_size=d)
    return draw(st.lists(row, min_size=d, max_size=d).filter(lambda m: _det(m) != 0))


@settings(max_examples=150, deadline=None)
@given(rows=nonsingular_bases(), data=st.data())
def test_lattice_box_is_a_transversal(rows, data):
    lat = Lattice(rows)
    d = len(rows)
    assert lat.index == abs(_det(rows))
    domain = lat.fundamental_domain()
    assert domain.is_box and len(domain) == lat.index
    if lat.index <= 500:
        assert all(lat.reduce(q) == q for q in domain)
    p = data.draw(st.tuples(*[st.integers(-40, 40)] * d))
    r = lat.reduce(p)
    assert r in domain and lat.reduce(r) == r
    for gen in zip(*rows):
        assert not any(lat.reduce(gen))
        assert lat.reduce(compose(p, gen)) == r
        assert lat.reduce(tuple(a - b for a, b in zip(p, gen))) == r
    # the order of p + L divides the index; no smaller multiple of p is in L
    n = lat.order(p)
    assert lat.index % n == 0 and not any(lat.reduce(tuple(n * c for c in p)))
    assert all(any(lat.reduce(tuple(k * c for c in p))) for k in range(1, n))


def test_periodic_config_depends_only_on_coset():
    lat = Lattice.diagonal((2, 2))
    table = {(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 0}
    x = periodic_config(lat, table)
    for m in range(-3, 4):
        for k in range(-3, 4):
            assert x.value((m, k)) == x.value((m + 2, k)) == x.value((m, k + 2))
    assert x.period_lattice is lat


def test_periodic_config_refuses_a_coset_given_two_symbols_in_either_order():
    lat = Lattice.diagonal([2])
    with pytest.raises(ValueError, match=re.escape("symbols: (0,) -> 1, (2,) -> 0")):
        periodic_config(lat, {(0,): 1, (1,): 0, (2,): 0})
    with pytest.raises(ValueError, match=re.escape("symbols: (2,) -> 0, (0,) -> 1")):
        periodic_config(lat, {(2,): 0, (1,): 0, (0,): 1})


def test_periodic_config_accepts_keys_of_one_coset_that_agree():
    x = periodic_config(Lattice.diagonal([2]), {(0,): 1, (1,): 0, (2,): 1, (-1,): 0})
    assert [x.value((i,)) for i in range(-2, 3)] == [1, 0, 1, 0, 1]


def test_restrict_examples():
    x = word_config((0, 1, 0))
    W = FiniteSubset.box((0,), (2,))
    assert restrict(x, W) == (0, 1, 0)
    assert restrict(x, [(2,), (0,), (1,)]) == (0, 1, 0)
    assert restrict(shift((1,), x), W) == (1, 0, 0)


@given(g=small_points, h=small_points)
def test_shift_action_law(g, h):
    x = word_config((0, 1, 1, 0, 1))
    probe = [(i,) for i in range(-4, 5)]
    lhs = shift(g, shift(h, x))
    rhs = shift(compose(g, h), x)
    assert [lhs.value(p) for p in probe] == [rhs.value(p) for p in probe]


@given(g=small_points)
def test_restrict_of_shift_is_translated_restrict(g):
    x = word_config((0, 1, 0, 0, 1, 1))
    W = FiniteSubset.box((0,), (3,))
    shifted = restrict(shift(g, x), W)
    translated = tuple(x.value(compose(p, g)) for p in W.sorted_points())
    assert shifted == translated


exact_numbers = st.one_of(
    st.fractions(max_denominator=10**6),
    st.integers(-(10**12), 10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.decimals(allow_nan=False, allow_infinity=False, places=8),
)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(exact_numbers, max_size=12))
def test_integer_scale_puts_every_value_over_the_lcm_of_their_denominators(values):
    E, ints = integer_scale(iter(values))
    exact = [Fraction(v) for v in values]
    assert E == lcm(*(f.denominator for f in exact))
    assert len(ints) == len(values) and all(type(k) is int for k in ints)
    assert all(Fraction(k, E) == f for k, f in zip(ints, exact))


def test_integer_scale_reads_other_values_as_fractions():
    assert integer_scale([]) == (1, [])
    assert integer_scale(["3/7", Decimal("0.5"), 0.25, 2]) == (28, [12, 14, 7, 56])


def test_shell_sizes():
    assert [shell_size(1, r) for r in range(4)] == [1, 2, 2, 2]
    assert [shell_size(2, r) for r in range(4)] == [1, 8, 16, 24]
    with pytest.raises(ValueError):
        shell_size(1, -1)


def test_default_metric_weights_and_mass():
    m = default_metric(1)
    assert m.weight((0,)) == Fraction(1, 2)
    assert m.weight((1,)) == m.weight((-1,)) == Fraction(1, 8)
    for R in range(0, 8):
        ball = sum(w for _, w in m.ball_weights(R))
        assert ball == 1 - Fraction(1, 2 ** (R + 1))
        assert m.tail_bound(R) == Fraction(1, 2**R)
    m2 = default_metric(2)
    assert m2.weight((0, 0)) == Fraction(1, 2)
    assert m2.weight((1, -1)) == m2.shell_weight(1) == Fraction(1, 2 * 8 * 2)


def test_config_distance_examples():
    x = word_config((0, 1, 1))
    assert config_distance(x, x, radius=10) == (0, Fraction(1, 2**10))

    zero, one = constant_config(1, 0), constant_config(1, 1)
    lo, hi = config_distance(zero, one, radius=10)
    assert lo == 1 - Fraction(1, 2**11) and hi == 1

    bump = patched_config(zero, {(0,): 1})
    lo, hi = config_distance(zero, bump, radius=5)
    assert lo == Fraction(1, 2) and hi == Fraction(1, 2) + Fraction(1, 2**5)


def test_config_distance_dimension_mismatch():
    with pytest.raises(InvalidDimensionError):
        config_distance(constant_config(1, 0), constant_config(2, 0))
    with pytest.raises(InvalidDimensionError):
        config_distance(constant_config(1, 0), constant_config(1, 1), metric=default_metric(2))


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**16),
    radii=st.lists(st.integers(0, 9), min_size=2, max_size=4),
)
def test_config_distance_intervals_nest_in_radius(seed, radii):
    import random

    rng = random.Random(seed)
    patch = {(i,): rng.randint(0, 1) for i in range(-6, 7)}
    x = constant_config(1, 0)
    z = patched_config(x, patch)
    radii = sorted(set(radii))
    intervals = [config_distance(x, z, radius=R) for R in radii]
    for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
        assert lo1 <= lo2 and hi2 <= hi1
    for lo, hi in intervals:
        assert lo <= hi <= 1


def test_predicate_config_carries_period_metadata():
    lat = Lattice.diagonal(10, dim=1)
    x = predicate_config(1, lambda g: g[0] % 10 == 0, name="tens", period_lattice=lat)
    assert x.period_lattice is lat
    assert x.value((20,)) == 1 and x.value((3,)) == 0
