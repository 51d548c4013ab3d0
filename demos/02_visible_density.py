"""Density of visible lattice points over growing centered boxes."""

import math

from shiftlab.examples import visible_points_config
from shiftlab.groups import make_box_folner
from shiftlab.metrics import upper_density

v = visible_points_config()
F = make_box_folner(2, kind="centered")
target = 6 / math.pi**2

trace = upper_density(v.indicator(1), F, [50, 100, 200, 400])
print(f"analytic target 6/pi^2 = {target:.6f}\n")
print("n      density     error")
for row in trace.rows:
    val = float(row.value)
    print(f"{row.n:<6d} {val:.6f}   {abs(val - target):+.6f}")
print("\nrunning max over the larger windows:", float(trace.summary()))
