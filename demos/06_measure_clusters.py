"""Empirical measures, Prokhorov distances, and limit-set clusters."""

from fractions import Fraction

from shiftlab.configs import predicate_config, word_config
from shiftlab.groups import FiniteSubset, make_box_folner
from shiftlab.measures import (
    empirical_measure,
    genericity_check,
    omega_hat_approx,
    prokhorov_distance,
)
from shiftlab.transport import PeriodicOrbitMeasure

F = make_box_folner(1)
W = FiniteSubset.box((0,), (1,))

x = word_config((0, 1))
emp = empirical_measure(x, F.set_at(199), W)
print("pair-window law of the alternating word at n=199:")
for pat, w in sorted(emp.weights.items()):
    print(f"  {pat}: {w}")
orbit = PeriodicOrbitMeasure.from_config(x).block_marginal(W)
print("Prokhorov distance to the orbit law:", prokhorov_distance(emp, orbit))

rep = genericity_check(x, F, orbit, W, [59, 119, 239], Fraction(1, 50))
print("\ngenericity along aligned box sizes:",
      [str(d) for d in rep.distances], "passed:", rep.passed)


def scale_parity(g):
    # symbol tracks the parity of the dyadic scale of positive sites
    n = g[0]
    return n >= 1 and (n.bit_length() - 1) % 2 == 0


osc = predicate_config(1, scale_parity, name="scale-parity")
sizes = [2**k for k in range(2, 11)]
clusters = omega_hat_approx(osc, F, sizes, W, Fraction(1, 10))
print(f"\nscale-parity config, cluster representatives over n in {sizes}:")
print(f"  {len(clusters)} clusters at merge tolerance 1/10")
for m in clusters:
    ones = sum(w for pat, w in m.weights.items() if pat[0] == 1)
    print(f"  representative with one-symbol mass {ones} at the left site")
print("the averages keep oscillating, so no single limit law exists")
