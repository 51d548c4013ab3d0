"""Named configurations: visible points, approximants, substitution stages."""

import math
from fractions import Fraction
from random import Random

import pytest

from shiftlab.configs import constant_config
from shiftlab.errors import StageExhaustedError
from shiftlab.examples import (
    PRIMES,
    SubstitutionStage,
    block_entropy,
    cortez_petite_check,
    prime_approx_config,
    prime_approx_mismatch_bound,
    random_config,
    random_periodic_pair,
    resolve_example_name,
    rf_substitution,
    visible_points_config,
)
from shiftlab.groups import box_set, make_box_folner
from shiftlab.metrics import dbar_estimate, exact_mismatch_density, upper_density


def test_prime_table():
    assert len(PRIMES) == 25
    assert PRIMES[0] == 2 and PRIMES[-1] == 97
    assert all(b > a for a, b in zip(PRIMES, PRIMES[1:]))


# --- visible points ---------------------------------------------------------

def test_mismatch_bound_sums_the_prime_lattices_in_the_box():
    # brute force at N = 30: for each prime p_n < p <= N, the nonzero
    # points of the box {-30..30}^2 with p dividing both coordinates
    N = 30
    box = [(a, b) for a in range(-N, N + 1) for b in range(-N, N + 1) if (a, b) != (0, 0)]
    primes = [p for p in range(2, N + 1) if all(p % q for q in range(2, p))]
    for n in range(1, 6):
        want = sum(1 for p in primes[n:] for a, b in box if a % p == 0 and b % p == 0)
        assert prime_approx_mismatch_bound(n, N) == want


def test_mismatch_bound_holds_for_the_first_five_approximants():
    v = visible_points_config()
    F = make_box_folner(2, "centered")
    N = 120
    size = len(F.set_at(N))
    bounds = [prime_approx_mismatch_bound(n, N) for n in range(1, 6)]
    assert bounds == [11896, 5336, 2936, 1712, 1272]
    for n, bound in enumerate(bounds, start=1):
        assert dbar_estimate(v, prime_approx_config(n), F, N) * size <= bound


def test_visible_point_values():
    v = visible_points_config()
    assert v.value((1, 0)) == 1
    assert v.value((3, 5)) == 1
    assert v.value((2, 2)) == 0
    assert v.value((4, 6)) == 0
    # gcd(0, 0) = 0 by convention, so the origin is not visible
    assert v.value((0, 0)) == 0


# --- prime approximants -----------------------------------------------------

def test_first_approximant_is_mod_two_rule():
    x1 = prime_approx_config(1)
    assert x1.value((2, 4)) == 0 and x1.value((2, 3)) == 1
    dens = upper_density(lambda g: x1.value(g) == 1, make_box_folner(2), [9])
    assert dens.rows[-1].value == Fraction(3, 4)


def test_second_approximant_periodicity():
    x2 = prime_approx_config(2)
    for m in range(-4, 5):
        for k in range(-4, 5):
            assert x2.value((m, k)) == x2.value((m + 6, k)) == x2.value((m, k + 6))
    assert x2.period_lattice.index == 36
    assert x2.period_lattice.moduli == (6, 6)


def test_approximants_decrease_towards_visible_points():
    v = visible_points_config()
    F = make_box_folner(2, kind="centered")
    window = F.set_at(60)
    mism = []
    for n in (1, 2, 3):
        xn = prime_approx_config(n)
        bad = sum(1 for g in window if v.value(g) != xn.value(g))
        mism.append(Fraction(bad, len(window)))
    assert mism[0] > mism[1] > mism[2]


def test_approximant_index_bounds():
    with pytest.raises(ValueError):
        prime_approx_config(0)
    with pytest.raises(ValueError):
        prime_approx_config(26)


# --- substitution stages ----------------------------------------------------

def test_stage_moduli_and_words():
    st = SubstitutionStage()
    assert st.ratios == (3, 5, 9, 17, 33)
    assert st.stages == 6
    assert [st.modulus(k) for k in range(1, 7)] == [1, 3, 15, 135, 2295, 75735]
    assert st.word(2) == (0, 0, 1)
    assert len(st.word(4)) == 135
    assert st.domain(3) == tuple(range(15))


def test_stage_configs_and_values():
    st = SubstitutionStage()
    x1 = rf_substitution(st, 1)
    x2 = rf_substitution(st, 2)
    assert x1.value((7,)) == 0
    assert [x2.value((i,)) for i in range(3)] == [0, 0, 1]
    assert x2.value((5,)) == 1


def test_stage_mismatch_densities_are_exact_reciprocals():
    st = SubstitutionStage()
    for k in range(1, 6):
        a = rf_substitution(st, k)
        b = rf_substitution(st, k + 1)
        d = exact_mismatch_density(a, b)
        assert d == Fraction(1, st.ratios[k - 1])
        assert d < Fraction(1, 2**k)


def test_stage_bounds_and_ratio_growth():
    st = SubstitutionStage()
    with pytest.raises(StageExhaustedError):
        rf_substitution(st, 7)
    with pytest.raises(StageExhaustedError):
        st.modulus(0)
    with pytest.raises(ValueError):
        SubstitutionStage(ratios=(3, 4))  # 4 <= 2^2 grows too slowly


# --- tiling checks ----------------------------------------------------------

def test_tiling_checks_pass_on_honest_stages():
    st = SubstitutionStage()
    for k in (1, 2, 5):
        report = cortez_petite_check(st, k)
        assert report.passed and report.witness is None


def test_tiling_check_flags_duplicate_coset():
    bad = SubstitutionStage(domain_override={2: (0, 1, 1)})
    report = cortez_petite_check(bad, 1)
    assert not report.passed and report.witness is not None
    bad2 = SubstitutionStage(domain_override={2: (0, 3, 1, 2)})
    report2 = cortez_petite_check(bad2, 2)
    assert not report2.passed and "coset" in report2.witness


@pytest.mark.parametrize("override, k, witness", [
    # m_2 = 3 has three cosets; a domain of two points misses one
    ({2: (0, 1)}, 2, "coset 2 mod 3 has no representative"),
    # m_3 = 15: the tiles at 0, 3, ..., 12 cover 0..14, and 16 is no anchor
    ({3: (*range(15), 16)}, 2, "point 16 not covered by any tile"),
], ids=["no-representative", "not-covered"])
def test_tiling_check_names_each_witness(override, k, witness):
    report = cortez_petite_check(SubstitutionStage(domain_override=override), k)
    assert not report.passed and report.witness == witness


def test_tiling_check_flags_coverage_defect():
    bad = SubstitutionStage(domain_override={3: tuple(range(14))})
    report = cortez_petite_check(bad, 2)
    assert not report.passed
    assert "outside" in report.witness or "not covered" in report.witness


# --- block entropy ----------------------------------------------------------

def test_entropy_of_constant_is_zero():
    ent = block_entropy(constant_config(1, 0), box_set(1, 99), [1, 2, 3])
    assert all(h == 0.0 for _, h in ent)


def test_entropy_of_period_three_word():
    st = SubstitutionStage()
    x2 = rf_substitution(st, 2)
    ent = dict(block_entropy(x2, box_set(1, 3 * 400 - 1), [1, 2, 3, 6]))
    h_one_third = -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
    assert abs(ent[1] - h_one_third) < 1e-9
    for k in (2, 3, 6):
        assert abs(ent[k] - math.log2(3) / k) < 1e-9


def test_entropy_rejects_bad_window_side():
    with pytest.raises(ValueError):
        block_entropy(constant_config(1, 0), box_set(1, 9), [0])


# --- seeded randomness ------------------------------------------------------

def test_random_config_is_deterministic():
    a = random_config(1, seed=42)
    b = random_config(1, seed=42)
    assert all(a.value((i,)) == b.value((i,)) for i in range(-50, 50))
    c = random_config(2, seed=7)
    d = random_config(2, seed=7)
    assert c.value((3, -4)) == d.value((3, -4))


def test_random_config_has_near_full_entropy():
    rnd = random_config(1, seed=42)
    ent = block_entropy(rnd, box_set(1, 10**4 - 1), [1])
    assert abs(ent[0][1] - 1.0) <= 0.02


def test_random_config_seeds_differ():
    a = random_config(1, seed=1)
    b = random_config(1, seed=2)
    assert any(a.value((i,)) != b.value((i,)) for i in range(64))


def test_random_periodic_pair_reproducible_and_bounded():
    x1, z1 = random_periodic_pair(Random(7))
    x2, z2 = random_periodic_pair(Random(7))
    assert [x1.value((i,)) for i in range(24)] == [x2.value((i,)) for i in range(24)]
    assert [z1.value((i,)) for i in range(24)] == [z2.value((i,)) for i in range(24)]
    assert x1.period_lattice.index <= 12 and z1.period_lattice.index <= 12
    x3, _ = random_periodic_pair(Random(8), max_period=5)
    assert x3.period_lattice.index <= 5


# --- name resolution --------------------------------------------------------

def test_resolver_accepts_known_names():
    assert resolve_example_name("visible").value((1, 0)) == 1
    assert resolve_example_name("prime-approx:2").value((6, 6)) == 0
    assert resolve_example_name("rf-sub:2").value((2,)) == 1


def test_resolver_rejects_unknown_names():
    for name in ("nope", "prime-approx:0", "prime-approx:x", "rf-sub:99"):
        with pytest.raises((ValueError, StageExhaustedError)):
            resolve_example_name(name)
