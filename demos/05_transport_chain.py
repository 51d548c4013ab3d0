"""Pattern-space transport: certificates, gluing, and the joining chain."""

from fractions import Fraction
from random import Random

from shiftlab.configs import word_config
from shiftlab.examples import random_periodic_pair
from shiftlab.groups import FiniteSubset, make_box_folner
from shiftlab.measures import PatternDistribution
from shiftlab.transport import (
    PeriodicOrbitMeasure,
    brute_force_min_cost,
    check_db_ge_rho,
    hamming_per_site_cost,
    min_cost_transport,
    periodic_rho_oracle,
    rho_bar_lower,
    rho_triangle_check,
    verify_transport_certificate,
)

W = FiniteSubset.box((0,), (1,))
cost = hamming_per_site_cost(W)
mu = PatternDistribution(W, {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
nu = PatternDistribution(W, {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)})

res = min_cost_transport(mu, nu, cost)
print("diagonal vs anti-diagonal pair laws, per-site hamming cost:")
print(f"  optimal value      {res.value}")
print(f"  certificate valid  {verify_transport_certificate(res, cost)}")
print(f"  brute force agrees {brute_force_min_cost(mu, nu, cost) == res.value}")

eta = PatternDistribution(W, {(0, 0): Fraction(1, 4), (0, 1): Fraction(3, 4)})
tri = rho_triangle_check(mu, eta, nu, cost)
print("\ntriangle check through an intermediate law:")
print(f"  d12={tri.d12}  d23={tri.d23}  d13={tri.d13}")
print(f"  glued coupling cost {tri.glued_cost} witnesses d13 <= d12 + d23: {tri.passed}")

x = word_config((0, 0, 1))
z = word_config((0, 1, 1))
oa = PeriodicOrbitMeasure.from_config(x)
ob = PeriodicOrbitMeasure.from_config(z)
windows = [FiniteSubset.box((0,), (k - 1,)) for k in (1, 2, 3)]
chain = rho_bar_lower(oa.marginal_family(windows), ob.marginal_family(windows))
oracle = periodic_rho_oracle(oa, ob)
print("\norbit measures of 001 and 011:")
print(f"  finite-window chain {chain}")
print(f"  exact joining value {oracle}  (every chain entry is a lower bound)")

rng = Random(11)
rx, rz = random_periodic_pair(rng)
report = check_db_ge_rho(rx, rz, make_box_folner(1), 2000, 3)
print("\nrandom periodic pair, dbar against the joining value, by exact links:")
print(f"  chain={[str(c) for c in report.chain]} <= oracle={report.oracle}"
      f" <= limit={report.limit}")
print(f"  dbar={report.dbar} >= floor={report.floor}  passed={report.passed}")
