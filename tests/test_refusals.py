"""Library refusals, one row each: the call, the error type it raises and
its message."""

import re
from fractions import Fraction

import pytest

from shiftlab.configs import Lattice, patched_config, periodic_config, shift, word_config
from shiftlab.errors import IncompatibleWindowsError, InvalidDimensionError, InvalidFamilyError
from shiftlab.examples import prime_approx_config, visible_points_config
from shiftlab.groups import box_set, make_box_folner
from shiftlab.measures import (
    PatternDistribution,
    genericity_check,
    omega_hat_approx,
    pattern_metric,
)
from shiftlab.metrics import exact_mismatch_density
from shiftlab.transport import (
    PeriodicOrbitMeasure,
    check_db_ge_rho,
    hamming_per_site_cost,
    min_cost_transport,
    oracle_box,
    rho_bar_lower,
)

HALVES = PatternDistribution([(0,)], {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
AT_ONE = PatternDistribution([(1,)], {(0,): 1})
ALTERNATING = word_config((0, 1))
F1 = make_box_folner(1)
W1 = box_set(1, 0)


class _Unreduced(Lattice):
    """A lattice whose `reduce` leaves a point as it is: `periodic_config`
    reduces every key into the fundamental domain, so only a key that
    `reduce` leaves outside it reaches the extra-coset check."""

    def reduce(self, p):
        return p


_REFUSALS = [
    ("negative-cost", lambda: min_cost_transport(HALVES, HALVES, lambda p, q: -1),
     ValueError, "costs must be nonnegative"),
    ("exact-density-of-aperiodic",
     lambda: exact_mismatch_density(visible_points_config(), prime_approx_config(1)),
     ValueError, "exact density needs two periodic configurations"),
    ("orbit-dimension",
     lambda: PeriodicOrbitMeasure(ALTERNATING, Lattice.diagonal(2, dim=2)),
     InvalidDimensionError, "config and lattice dimension differ"),
    ("orbit-without-lattice", lambda: PeriodicOrbitMeasure.from_config(visible_points_config()),
     ValueError, "configuration does not declare a period lattice"),
    ("oracle-dimension",
     lambda: oracle_box(PeriodicOrbitMeasure.from_config(ALTERNATING),
                        PeriodicOrbitMeasure.from_config(prime_approx_config(1))),
     InvalidDimensionError, "orbit measures in different dimensions"),
    ("chain-empty", lambda: rho_bar_lower([], []), InvalidFamilyError, "empty marginal family"),
    ("chain-windows", lambda: rho_bar_lower([HALVES], [AT_ONE]),
     IncompatibleWindowsError, "window mismatch at stage 0"),
    ("db-rho-k-max", lambda: check_db_ge_rho(ALTERNATING, ALTERNATING, F1, 4, 0),
     ValueError, "k_max must be >= 1"),
    ("omega-empty", lambda: omega_hat_approx(ALTERNATING, F1, [], W1, Fraction(1, 10)),
     ValueError, "n_list must be non-empty"),
    ("omega-tolerance", lambda: omega_hat_approx(ALTERNATING, F1, [4], W1, 0),
     ValueError, "merge tolerance must be positive"),
    ("genericity-empty", lambda: genericity_check(ALTERNATING, F1, HALVES, W1, [], Fraction(1, 10)),
     ValueError, "n_list must be non-empty"),
    ("genericity-tolerance", lambda: genericity_check(ALTERNATING, F1, HALVES, W1, [4], -1),
     ValueError, "tolerance must be positive"),
    ("marginal-missing-sites", lambda: HALVES.marginal([(5,)]),
     IncompatibleWindowsError, "sites [(5,)] not in the window"),
    ("tv-across-windows", lambda: HALVES.tv_distance(AT_ONE),
     IncompatibleWindowsError, "total variation across windows"),
    ("lattice-not-square", lambda: Lattice([[1, 0]]),
     InvalidDimensionError, "basis must be a square matrix"),
    ("lattice-singular", lambda: Lattice([[1, 2], [2, 4]]),
     ValueError, "basis is singular; the sublattice must have finite index"),
    ("diagonal-scalar", lambda: Lattice.diagonal(2),
     InvalidDimensionError, "scalar modulus needs an explicit dim"),
    ("diagonal-moduli", lambda: Lattice.diagonal([2, 0]),
     ValueError, "moduli must be >= 1, got (2, 0)"),
    ("periodic-missing-coset", lambda: periodic_config(Lattice.diagonal([3]), {(0,): 1}),
     ValueError, "table misses 2 cosets, e.g. (1,)"),
    ("periodic-extra-coset",
     lambda: periodic_config(_Unreduced([[2]]), {(0,): 1, (1,): 0, (2,): 0}),
     ValueError, "table has entries outside the fundamental domain"),
    ("patch-dimension", lambda: patched_config(ALTERNATING, {(0, 0): 1}),
     InvalidDimensionError, "patch key of wrong dimension"),
    ("shift-dimension", lambda: shift((0, 0), ALTERNATING),
     InvalidDimensionError, "shift by point of wrong dimension"),
    # a plain-iterable window: one site would hold two symbols, or be
    # weighed twice
    ("distribution-repeat", lambda: PatternDistribution([(0,), (0,)], {(0, 1): 1}),
     ValueError, "window repeats site (0,)"),
    ("metric-repeat", lambda: pattern_metric([(0,), (0,)]),
     ValueError, "window repeats site (0,)"),
    ("hamming-repeat", lambda: hamming_per_site_cost([(1,), (0,), (1,)]),
     ValueError, "window repeats site (1,)"),
    ("distribution-mixed", lambda: PatternDistribution([(0,), (0, 1)], {(0, 1): 1}),
     InvalidDimensionError, "window points of mixed dimension"),
    ("hamming-mixed", lambda: hamming_per_site_cost([(0,), (0, 1)]),
     InvalidDimensionError, "window points of mixed dimension"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in _REFUSALS],
                         ids=[row[0] for row in _REFUSALS])
def test_each_refusal_raises_its_own_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is error
