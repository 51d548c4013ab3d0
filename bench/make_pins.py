"""Rebuild pins.json: the expected result of every named-example benchmark job.

Run from the repository root, on the commit whose results are to be pinned:

    python3 bench/make_pins.py

CSV traces print floats, so density, dbar and Besicovitch pins are exact
Fractions from the matching library calls; JSON reports are pinned from the
CLI's own output.  Takes about a minute.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from shiftlab import cli, examples, groups, metrics  # noqa: E402

import workloads as wl  # noqa: E402


def _opt(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",")]


def pin_for(argv: list[str]) -> dict:
    cmd = argv[0]
    kind = _opt(argv, "--kind", "boxes")
    if cmd in ("density", "dbar", "besicovitch"):
        ns = _ints(_opt(argv, "--n-list"))
        if cmd == "density":
            x = examples.resolve_example_name(_opt(argv, "--set"))
            F = groups.make_box_folner(x.dim, kind)
            trace = metrics.upper_density(lambda g: x.value(g) == 1, F, ns)
            values = [str(r.value) for r in trace.rows]
        else:
            x = examples.resolve_example_name(_opt(argv, "--x"))
            z = examples.resolve_example_name(_opt(argv, "--z"))
            F = groups.make_box_folner(x.dim, kind)
            if cmd == "dbar":
                values = [str(metrics.dbar_estimate(x, z, F, n)) for n in ns]
            else:
                r = int(_opt(argv, "--radius"))
                values = [[str(v) for v in metrics.besicovitch_estimate(x, z, F, n, radius=r)]
                          for n in ns]
        return {"n": ns, "values": values}
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"pin job failed with exit code {code}: {' '.join(argv)}")
    rep = json.loads(buf.getvalue())
    if cmd == "dprime":
        return {"value": rep["value"]["fraction"], "saturated": rep["saturated"]}
    if cmd == "empirical":
        return {"distribution": rep["distribution"]}
    if cmd == "convergence":
        return {"dbar": [d["fraction"] for d in rep["approximant_convergence"]["dbar"]]}
    if cmd == "transport":
        return {"value": rep["value"]["fraction"]}
    if cmd == "rho-chain":
        return {k: rep.get(k) for k in ("chain", "oracle", "weight_coverage", "passed")}
    if cmd == "prokhorov":
        return {"distance": rep["distance"]["fraction"]}
    if cmd == "omega":
        return {"count": rep["count"], "representatives": rep["representatives"]}
    raise ValueError(cmd)


def main() -> int:
    pins = {}
    for argv in wl.lattice_menu() + wl.joining_menu():
        pins[wl.pin_key(argv)] = pin_for(argv)
    with open(wl.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(pins)} pins written to {os.path.relpath(wl.PINS_PATH)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
