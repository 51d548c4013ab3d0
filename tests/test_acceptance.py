"""Acceptance gate: ten end-to-end checks with pinned tolerances.

Each test drives one numbered criterion and records a one-line verdict;
the terminal-summary hook in conftest prints the lines after the run.
"""

import math
import random
import time
from fractions import Fraction

from shiftlab.configs import Lattice, periodic_config, word_config
from shiftlab.examples import (
    PRIMES,
    SubstitutionStage,
    block_entropy,
    prime_approx_config,
    random_config,
    random_periodic_pair,
    rf_substitution,
    visible_points_config,
)
from shiftlab.groups import FiniteSubset, box_set, make_box_folner, temperedness_ratio
from shiftlab.measures import PatternDistribution, empirical_measure, pattern_metric, prokhorov_distance
from shiftlab.metrics import dbar_estimate, exact_mismatch_density, upper_density
from shiftlab.transport import (
    PeriodicOrbitMeasure,
    brute_force_min_cost,
    check_db_ge_rho,
    glue_couplings,
    hamming_per_site_cost,
    min_cost_transport,
    verify_transport_certificate,
)
from shiftlab.configs import default_metric

F1 = make_box_folner(1)
FC2 = make_box_folner(2, kind="centered")

DENSITY_TOL = 0.01          # criterion 1: |density - 6/pi^2|
TAIL_SLACK = 0.01           # criterion 2: finite-size allowance over the tail bound
ORACLE_TOL = Fraction(1, 100)       # criterion 7: dbar >= oracle - 1e-2

# Prime-square tail sums over ALL primes beyond the n-th, to ten places.
PRIME_SQUARE_TAILS = (
    0.2022474200,
    0.0911363089,
    0.0511363089,
    0.0307281457,
    0.0224636829,
)


def _record(num, label, body):
    import conftest

    try:
        body()
    except BaseException:
        line = f"criterion {num:02d} FAIL  {label}"
        conftest.acceptance_lines.append(line)
        print(line)
        raise
    line = f"criterion {num:02d} PASS  {label}"
    conftest.acceptance_lines.append(line)
    print(line)


def test_criterion_01_visible_density():
    def body():
        t0 = time.monotonic()
        v = visible_points_config()
        trace = upper_density(lambda g: v.value(g) == 1, FC2, [1000])
        elapsed = time.monotonic() - t0
        assert abs(float(trace.rows[-1].value) - 6 / math.pi**2) <= DENSITY_TOL
        assert elapsed < 10.0

    _record(1, "visible-point density at N=1000 within 0.01 of 6/pi^2, under 10s", body)


def test_criterion_02_approximant_convergence():
    def body():
        # consecutive tail constants differ by exactly the next prime square
        for i in range(4):
            gap = PRIME_SQUARE_TAILS[i] - PRIME_SQUARE_TAILS[i + 1]
            assert abs(gap - 1 / PRIMES[i + 1] ** 2) < 1e-9

        v = visible_points_config()
        values = []
        for n in range(1, 6):
            xn = prime_approx_config(n)
            values.append(dbar_estimate(v, xn, FC2, 600))
        for n, val in enumerate(values, start=1):
            assert float(val) <= PRIME_SQUARE_TAILS[n - 1] + TAIL_SLACK
        for a, b in zip(values, values[1:]):
            assert b <= a

    _record(2, "dbar(v, x^(n)) at N=600 under prime-square tails + 0.01, nonincreasing", body)


def _bernoulli(m):
    """B_0 .. B_m as Fractions, by sum_{k<=j} C(j+1, k) B_k = 0 for j >= 1."""
    B = [Fraction(1)]
    for j in range(1, m + 1):
        B.append(-sum(math.comb(j + 1, k) * B[k] for k in range(j)) / (j + 1))
    return B


def _mobius(k):
    out, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            out = -out
        p += 1
    return -out if k > 1 else out


def test_prime_square_tails_match_the_prime_zeta_value():
    # P(2) = sum_p p^-2 = sum_k mu(k)/k log zeta(2k), with
    # zeta(2k) = |B_2k| (2 pi)^2k / (2 (2k)!); the terms fall like 4^-k / k
    K = 30
    B = _bernoulli(2 * K)
    zeta = [float(abs(B[2 * k])) * (2 * math.pi) ** (2 * k) / (2 * math.factorial(2 * k))
            for k in range(1, K + 1)]
    assert abs(zeta[0] - math.pi**2 / 6) < 1e-15
    p2 = sum(_mobius(k) / k * math.log(z) for k, z in enumerate(zeta, start=1))
    tails = [p2 - sum(1 / p**2 for p in PRIMES[:n]) for n in range(1, 6)]
    assert len(PRIME_SQUARE_TAILS) == len(tails)
    assert all(abs(a - b) < 1e-10 for a, b in zip(PRIME_SQUARE_TAILS, tails))


def test_criterion_03_exact_stage_distances():
    def body():
        t0 = time.monotonic()
        st = SubstitutionStage()
        for k in range(1, 6):
            a, b = rf_substitution(st, k), rf_substitution(st, k + 1)
            d = exact_mismatch_density(a, b)
            assert d == Fraction(1, st.ratios[k - 1])
            assert d < Fraction(1, 2**k)
        assert time.monotonic() - t0 < 1.0

    _record(3, "exact dbar(x^(k), x^(k+1)) = 1/r_k < 2^-k for k <= 5, under 1s", body)


def test_criterion_04_temperedness_ratios():
    def body():
        for n in range(1, 101):
            assert temperedness_ratio(F1, n) <= 2
        r100 = temperedness_ratio(F1, 100)
        assert r100 == Fraction(202, 102)
        assert Fraction(195, 100) <= r100 <= 2

        F2 = make_box_folner(2)
        for n in range(1, 51):
            assert temperedness_ratio(F2, n) <= 4
        r50 = temperedness_ratio(F2, 50)
        assert r50 == Fraction(2601, 676)
        assert Fraction(38, 10) <= r50 <= 4

    _record(4, "box ratios <= 2^d with pinned endpoint values in Z and Z^2", body)


def _composition(rng, total, parts):
    # positive integer split of `total` into exactly `parts` parts
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _random_support_distribution(rng, window, alphabet, max_support, max_den):
    den = rng.randint(1, max_den)
    support = rng.randint(1, min(max_support, den, alphabet))
    symbols = rng.sample(range(alphabet), support)
    masses = _composition(rng, den, support)
    return PatternDistribution(
        window, {(s,): Fraction(m, den) for s, m in zip(symbols, masses)}
    )


def test_criterion_05_solver_matches_enumeration():
    def body():
        t0 = time.monotonic()
        rng = random.Random(2024)
        W = FiniteSubset.box((0,), (0,))
        ham = hamming_per_site_cost(W.sorted_points())
        for trial in range(300):
            mu = _random_support_distribution(rng, W, alphabet=6, max_support=4, max_den=6)
            nu = _random_support_distribution(rng, W, alphabet=6, max_support=4, max_den=6)
            if trial % 2:
                table = {}

                def cost(p, q, table=table):
                    if p == q:
                        return Fraction(0)
                    key = (min(p, q), max(p, q))
                    if key not in table:
                        table[key] = Fraction(rng.randint(0, 12), 12)
                    return table[key]
            else:
                cost = ham
            result = min_cost_transport(mu, nu, cost)
            assert verify_transport_certificate(result, cost)
            assert result.value == brute_force_min_cost(mu, nu, cost)
        assert time.monotonic() - t0 < 60.0

    _record(5, "simplex equals exhaustive enumeration on 300 seeded instances, under 60s", body)


def test_criterion_06_gluing_triangle():
    def body():
        rng = random.Random(606)
        W = FiniteSubset.box((0,), (0,))
        ham = hamming_per_site_cost(W.sorted_points())
        for _ in range(100):
            mu = _random_support_distribution(rng, W, alphabet=4, max_support=4, max_den=12)
            eta = _random_support_distribution(rng, W, alphabet=4, max_support=4, max_den=12)
            nu = _random_support_distribution(rng, W, alphabet=4, max_support=4, max_den=12)
            r12 = min_cost_transport(mu, eta, ham)
            r23 = min_cost_transport(eta, nu, ham)
            glued = glue_couplings(r12.coupling, r23.coupling)
            assert glued.left == mu and glued.right == nu
            d13 = min_cost_transport(mu, nu, ham).value
            assert d13 <= r12.value + r23.value

    _record(6, "glued couplings have exact marginals; 100 seeded triangle checks", body)


def test_criterion_07_dbar_dominates_oracle():
    def body():
        t0 = time.monotonic()
        rng = random.Random(7)
        for _ in range(20):
            x, z = random_periodic_pair(rng)
            report = check_db_ge_rho(x, z, F1, 10_000, 3)
            assert report.passed
            assert report.dbar >= report.oracle - ORACLE_TOL
            assert all(c <= report.oracle for c in report.chain)
            assert report.floor <= report.dbar
            assert report.oracle <= report.limit
        assert time.monotonic() - t0 < 60.0

    _record(7, "20 seeded pairs: dbar at n=10^4 >= oracle - 0.01, chain <= oracle, under 60s", body)


def test_criterion_08_period_aligned_empirics():
    def body():
        rng = random.Random(13)
        for trial in range(10):
            if trial < 7:
                length = rng.randint(1, 9)
                cfg = word_config(tuple(rng.randint(0, 1) for _ in range(length)))
                W = FiniteSubset.box((0,), (2,))
                window_set = box_set(1, 3 * length - 1)
            else:
                m1, m2 = rng.randint(1, 3), rng.randint(1, 3)
                lat = Lattice.diagonal((m1, m2))
                table = {p: rng.randint(0, 1) for p in lat.fundamental_domain()}
                cfg = periodic_config(lat, table)
                W = FiniteSubset.box((0, 0), (1, 0))
                window_set = box_set(2, 5)
            orbit = PeriodicOrbitMeasure.from_config(cfg)
            emp = empirical_measure(cfg, window_set, W)
            marg = orbit.block_marginal(W)
            assert emp == marg
            assert prokhorov_distance(emp, marg) == Fraction(0)

    _record(8, "period-aligned empirical equals orbit marginal, Prokhorov exactly 0", body)


def test_criterion_09_dirac_prokhorov_matches_pattern_distance():
    def body():
        rng = random.Random(5)
        for _ in range(50):
            width = rng.randint(1, 3)
            W = FiniteSubset.box((0,), (width - 1,))
            metric_fn = pattern_metric(W, default_metric(1))
            p = tuple(rng.randint(0, 1) for _ in range(width))
            q = tuple(rng.randint(0, 1) for _ in range(width))
            mu = PatternDistribution(W, {p: Fraction(1)})
            nu = PatternDistribution(W, {q: Fraction(1)})
            expected = min(metric_fn(p, q), Fraction(1))
            got = prokhorov_distance(mu, nu)
            assert got == expected

    _record(9, "50 seeded Dirac pairs: Prokhorov equals pattern distance exactly", body)


def test_criterion_10_entropy_evidence():
    def body():
        x3 = prime_approx_config(3)
        window_set = FiniteSubset.box((0, 0), (59, 59))  # two periods per axis
        entropies = block_entropy(x3, window_set, [1, 2, 3, 4])
        period_count = x3.period_lattice.index
        assert period_count == 900
        values = [h for _, h in entropies]
        for (_, a), (_, b) in zip(entropies, entropies[1:]):
            assert b <= a + 1e-12
        for k, h in entropies:
            assert h <= math.log2(period_count) / k + 1e-9
        # one-site entropy is exactly H(16/25) by inclusion-exclusion
        p = 16 / 25
        expected = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        assert abs(values[0] - expected) < 1e-12

        control = random_config(2, seed=9)
        ctrl = block_entropy(control, FiniteSubset.box((0, 0), (99, 99)), [1])
        assert ctrl[0][1] >= 0.9

    _record(10, "approximant entropy nonincreasing under log2(900)/k; random control >= 0.9", body)
