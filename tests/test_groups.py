"""Box families, Folner defects, temperedness ratios, subsequence selection."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftlab.errors import InvalidConstantError, InvalidDimensionError
from shiftlab.groups import (
    FiniteSubset,
    box_set,
    check_tempered,
    compose,
    custom_folner,
    folner_defect,
    identity,
    inverse,
    make_box_folner,
    sup_norm,
    tempered_subsequence,
    temperedness_ratio,
)

points = st.tuples(st.integers(-8, 8), st.integers(-8, 8))


def test_box_folner_first_sets():
    F1 = make_box_folner(1)
    assert F1.set_at(3) == FiniteSubset([(0,), (1,), (2,), (3,)])
    assert box_set(2, 0, centered=True) == FiniteSubset([(0, 0)])
    Fc = make_box_folner(2, kind="centered")
    assert len(Fc.set_at(1)) == 9
    assert (1, 1) in Fc.set_at(1) and (2, 0) not in Fc.set_at(1)


def test_box_folner_rejects_bad_arguments():
    with pytest.raises(InvalidDimensionError):
        make_box_folner(0)
    with pytest.raises(ValueError):
        make_box_folner(1, kind="spiral")
    with pytest.raises(ValueError):
        make_box_folner(1).set_at(0)


@given(
    dim=st.integers(1, 3),
    n=st.integers(0, 5),
    centered=st.booleans(),
)
def test_box_set_matches_explicit_product(dim, n, centered):
    lo = -n if centered else 0
    expected = set(itertools.product(range(lo, n + 1), repeat=dim))
    built = box_set(dim, n, centered)
    assert built.points() == frozenset(expected)
    assert built.is_box


def test_finite_subset_operations():
    A = FiniteSubset.box((0,), (9,))
    assert len(A) == 10 and (9,) in A and (10,) not in A
    assert A.translate((1,)).points() == frozenset((i,) for i in range(1, 11))
    assert A.invert().points() == frozenset((-i,) for i in range(10))
    B = FiniteSubset([(0,), (1,)])
    assert A.minkowski(B) == FiniteSubset.box((0,), (10,))
    assert A.union(B) == A
    assert A.intersection_size(B) == 2
    assert A.sym_diff_size(A.translate((1,))) == 2
    assert A.contains_set(B) and not B.contains_set(A)


def test_finite_subset_rejects_mixed_dimension():
    with pytest.raises(ValueError):
        FiniteSubset([(0,), (0, 1)])


@given(g=points, h=points)
def test_group_operation_laws(g, h):
    e = identity(2)
    assert compose(g, e) == g and compose(e, g) == g
    assert compose(g, inverse(g)) == e
    assert compose(g, h) == compose(h, g)
    assert sup_norm(compose(g, h)) <= sup_norm(g) + sup_norm(h)


def test_folner_defect_examples():
    A = FiniteSubset.box((0,), (9,))
    assert folner_defect(A, (1,)) == Fraction(1, 5)
    assert folner_defect(A, (0,)) == 0


def test_folner_defect_formula_and_decay():
    # |{0..n} symdiff (1 + {0..n})| = 2, so the defect is 2/(n+1).
    F1 = make_box_folner(1)
    vals = [folner_defect(F1.set_at(n), (1,)) for n in range(1, 60)]
    assert vals == [Fraction(2, n + 1) for n in range(1, 60)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_temperedness_ratio_closed_forms():
    F1 = make_box_folner(1)
    assert temperedness_ratio(F1, 2) == Fraction(3, 2)
    for n in range(1, 30):
        assert temperedness_ratio(F1, n) == Fraction(2 * n + 2, n + 2)
    F2 = make_box_folner(2)
    for n in (1, 2, 5, 10):
        assert temperedness_ratio(F2, n) == Fraction(2 * n + 2, n + 2) ** 2
    with pytest.raises(ValueError):
        temperedness_ratio(F1, 0)


def test_sizes_past_sys_maxsize_are_plain_ints():
    # 400^8 sites: len() cannot return that many, the size accessor can
    box = FiniteSubset.box((0,) * 8, (399,) * 8)
    assert box.size() == 400**8 and FiniteSubset([(1, 2), (3, 4)]).size() == 2
    with pytest.raises(OverflowError):
        len(box)
    assert temperedness_ratio(make_box_folner(8), 300) == Fraction(2 * 300 + 2, 300 + 2) ** 8
    assert folner_defect(box, (1,) * 8) == 2 - 2 * Fraction(399, 400) ** 8


def test_z2_ratio_approaches_two_to_the_d():
    F2 = make_box_folner(2)
    ratio = temperedness_ratio(F2, 100)
    assert abs(ratio - 4) <= Fraction(1, 5)


def test_tempered_subsequence_pins():
    F1 = make_box_folner(1)
    assert tempered_subsequence(F1, Fraction(5, 2), 20) == list(range(1, 21))
    assert tempered_subsequence(F1, Fraction(6, 5), 10) == [1, 4]
    F2 = make_box_folner(2)
    assert tempered_subsequence(F2, Fraction(9, 2), 10) == list(range(1, 11))


def test_tempered_subsequence_rejects_bad_constants():
    F1 = make_box_folner(1)
    with pytest.raises(InvalidConstantError):
        tempered_subsequence(F1, 1, 10)
    with pytest.raises(ValueError):
        tempered_subsequence(F1, 2, 0)
    with pytest.raises(InvalidConstantError):
        check_tempered([box_set(1, 1)], Fraction(1))


def test_check_tempered_agrees_with_selection():
    F1 = make_box_folner(1)
    C = Fraction(6, 5)
    chosen = tempered_subsequence(F1, C, 10)
    assert check_tempered([F1.set_at(k) for k in chosen], C)
    assert not check_tempered([F1.set_at(k) for k in range(1, 11)], C)
    # a float constant is read as its exact binary value: 1.2 is just below
    # 6/5, so it refuses index 4; short lists hold vacuously
    assert Fraction(1.2) < C
    assert tempered_subsequence(F1, 1.2, 10) == tempered_subsequence(F1, Fraction(1.2), 10)
    assert tempered_subsequence(F1, 1.2, 10) == [1, 5] != chosen
    assert check_tempered([], C) and check_tempered([F1.set_at(3)], C)


def test_custom_folner_indexing_and_singleton_ratio():
    sets = [FiniteSubset([(0,)]) for _ in range(5)]
    F = custom_folner(sets)
    assert F.set_at(1) == sets[0] and F.length == 5
    assert temperedness_ratio(F, 3) == 1
    with pytest.raises(ValueError):
        F.set_at(6)
    with pytest.raises(ValueError):
        custom_folner([])
    with pytest.raises(InvalidDimensionError):
        custom_folner([FiniteSubset([(0,)]), FiniteSubset([(0, 0)])])
