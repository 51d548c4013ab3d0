"""Spans around shiftlab's public calls, recorded from outside the package.

`Tracer.install()` replaces each public function listed in `SPANS` at every
module binding that refers to it (a function imported into `cli` or
`transport` is wrapped there too), plus a few methods on their classes.
`Configuration.value` runs once per site, so it is counted and timed in
aggregate instead of getting one span per call.  `uninstall()` puts every
original back.  Nothing under src/ is edited.

A span records (id, job, name, start, end, parent).  Self time is a span's
duration minus the time covered by its child spans and by the aggregate
site-evaluation time spent inside it, and minus the tracer's own bookkeeping
for those children.  That bookkeeping is timed on no-op calls in small
batches between jobs (`calibrate`); the median batch of a pass sets the
correction, and the total taken off is reported as `trace.wrapper_s`.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter
from math import lcm, prod
from time import perf_counter

# layer -> names given a span: the public functions, plus the CLI's parser
# build so that the check on cli.main's own time can leave it out;
# "Class.method" names wrap a method
SPANS = {
    "cli": ["main", "_build_parser"],
    "groups": [
        "box_set", "make_box_folner", "custom_folner", "folner_defect",
        "temperedness_ratio", "tempered_subsequence", "check_tempered",
        "FolnerSequence.set_at",
    ],
    "configs": [
        "AdmissibleMetric.ball_weights", "config_distance", "default_metric",
        "restrict", "shell_size",
    ],
    "metrics": [
        "upper_density", "dbar_estimate", "dbar_trace", "besicovitch_estimate",
        "besicovitch_trace", "besicovitch_prime_estimate", "exact_mismatch_density",
    ],
    "measures": [
        "empirical_measure", "pattern_metric", "prokhorov_distance",
        "hausdorff_prokhorov", "omega_hat_approx", "genericity_check",
    ],
    "transport": [
        "min_cost_transport", "verify_transport_certificate", "brute_force_min_cost",
        "glue_couplings", "pair_empirical_joining", "hamming_per_site_cost",
        "rho_bar_lower", "periodic_rho_oracle", "check_db_ge_rho", "rho_triangle_check",
        "PeriodicOrbitMeasure.__post_init__", "PeriodicOrbitMeasure.from_config",
        "PeriodicOrbitMeasure.block_marginal", "PeriodicOrbitMeasure.marginal_family",
    ],
    "examples": [
        "resolve_example_name", "visible_points_config", "prime_approx_config",
        "rf_substitution", "random_config", "random_periodic_pair",
        "block_entropy", "cortez_petite_check",
    ],
}
LAYERS = tuple(SPANS)

# per-layer time metrics: metric -> span names whose self times it sums
SELF_TIME_METRICS = {
    "configs.ball_weights_s": ["configs.AdmissibleMetric.ball_weights"],
    "metrics.upper_density_s": ["metrics.upper_density"],
    "metrics.dbar_s": ["metrics.dbar_estimate", "metrics.dbar_trace"],
    "metrics.besicovitch_s": ["metrics.besicovitch_estimate", "metrics.besicovitch_trace"],
    "metrics.dprime_s": ["metrics.besicovitch_prime_estimate"],
    "metrics.exact_mismatch_s": ["metrics.exact_mismatch_density"],
    "measures.empirical_s": ["measures.empirical_measure"],
    "measures.prokhorov_s": ["measures.prokhorov_distance"],
    "transport.simplex_s": ["transport.min_cost_transport"],
    "transport.certificate_s": ["transport.verify_transport_certificate"],
    "transport.chain_s": ["transport.rho_bar_lower"],
    "transport.orbit_s": [
        "transport.PeriodicOrbitMeasure.__post_init__",
        "transport.PeriodicOrbitMeasure.from_config",
        "transport.PeriodicOrbitMeasure.block_marginal",
        "transport.PeriodicOrbitMeasure.marginal_family",
    ],
    "transport.periodic_oracle_s": ["transport.periodic_rho_oracle"],
    "transport.glue_s": ["transport.glue_couplings"],
    "transport.oracle_s": ["transport.brute_force_min_cost"],
    "examples.construct_s": [
        "examples.resolve_example_name", "examples.visible_points_config",
        "examples.prime_approx_config", "examples.rf_substitution",
        "examples.random_config", "examples.random_periodic_pair",
    ],
    "examples.block_entropy_s": ["examples.block_entropy"],
    "examples.tiling_check_s": ["examples.cortez_petite_check"],
}

# the top-level spans of each kind of job must cover those jobs' wall time to
# within this; a wider gap means a public call went untraced.  Each top-level
# span also leaves the tracer's calibrated bookkeeping outside its interval,
# plus up to COVER_PER_SPAN_S that the no-op calibration does not see (the
# span's work-counter callback, colder caches): about 3.5 us a span on the
# 0.8 ms oracle-crosscheck jobs of a 2-vCPU machine, where three such spans
# per job used to exceed the flat 2% + 2 ms
COVER_REL_TOL = 0.02
COVER_ABS_TOL_S = 0.002
COVER_PER_SPAN_S = 10e-6
# on CLI jobs the top-level span is cli.main itself, so the same question is
# asked one level down: cli.main's self time (outside library spans and the
# parser build) may be at most this share of its time.  The share is at most
# about 0.26 (triangle-check, seed 1), 0.02 on lattice-windows.
CLI_SELF_MAX = 0.4


def _window_size(F, n: int) -> int:
    """|F_n| without calling into the package, so no span is opened."""
    if F.kind == "boxes":
        return (n + 1) ** F.dim
    if F.kind == "centered":
        return (2 * n + 1) ** F.dim
    raise ValueError(f"no window size for Folner sequences of kind {F.kind!r}")


def _joint_period_sites(x, z) -> int:
    """Sites of the joint period box that exact_mismatch_density averages over."""
    la, lb = x.period_lattice, z.period_lattice
    if la.moduli is not None and lb.moduli is not None:
        return prod(lcm(a, b) for a, b in zip(la.moduli, lb.moduli))
    return lcm(la.index, lb.index) ** x.dim


# the tracer times its own cost in small batches of no-op calls between jobs,
# at most one batch every CALIBRATION_EVERY_S, so that the batches sample the
# same drifting machine speed as the jobs; the median batch is used
CALIBRATION_CALLS = 1000
CALIBRATION_EVERY_S = 0.05


class Tracer:
    """Collects spans and counters for the jobs run while it is installed."""

    def __init__(self, package):
        self.pkg = package
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[tuple | None] = []
        self.reset()

    # -- bookkeeping ---------------------------------------------------------

    def reset(self) -> None:
        """Forget the counters of the previous traced pass (spans are kept)."""
        self.job = None
        self.stack: list[list] = [self._frame(None)]
        self.raw_self_s: Counter = Counter()     # duration minus child durations
        self.span_calls: Counter = Counter()
        self.child_spans: Counter = Counter()    # direct children, per span name
        self.child_values: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.estimator = [0.0, 0, 0, 0]          # seconds, spans, values, calls
        self.value_raw_s = 0.0
        self.in_value = False
        self.batches: dict[str, list[tuple[float, float]]] = {"span": [], "value": []}
        self.last_batch = float("-inf")

    @staticmethod
    def _frame(sid) -> list:
        """An open span: [id, child seconds, direct child spans, direct site
        evaluations, all spans inside, all site evaluations inside]."""
        return [sid, 0.0, 0, 0, 0, 0]

    def begin_job(self, job_id) -> None:
        if perf_counter() - self.last_batch >= CALIBRATION_EVERY_S:
            self.calibrate()
            self.last_batch = perf_counter()
        self.job = job_id
        self.stack = [self._frame(None)]
        self.in_value = False

    def end_job(self) -> tuple[float, int]:
        """Seconds covered by the job's top-level spans and site evaluations,
        and the number of those spans."""
        top = self.stack[0]
        self.job = None
        return top[1], top[2]

    def calibrate(self) -> None:
        """Time one batch of wrapped and direct no-op calls.

        A wrapped call costs `extra` more than a direct one; `inside` of that
        falls within the interval the wrapper times (timer reads), the rest in
        the caller.  Site evaluations are timed as method calls, the way
        estimators make them.
        """
        def noop(*args):
            return None

        class Site:
            pass

        def calls_s(call) -> float:
            site = Site()
            t0 = perf_counter()
            for _ in range(CALIBRATION_CALLS):
                call(site)
            return perf_counter() - t0

        def batch(kind, wrap, call) -> None:
            probe = Tracer(self.pkg)
            Site.fn = noop
            empty = calls_s(lambda site: None)
            direct = calls_s(call)
            Site.fn = wrap(probe, noop)
            wrapped = calls_s(call)
            timed = probe.stack[0][1]          # the intervals the wrapper timed
            n = CALIBRATION_CALLS
            extra = max(0.0, (wrapped - direct) / n)
            inside = min(extra, max(0.0, (timed - (direct - empty)) / n))
            self.batches[kind].append((extra, inside))

        batch("span", lambda tr, fn: tr._span("calibration.noop", fn),
              lambda site: Site.fn(site, None))
        batch("value", lambda tr, fn: tr._value_wrapper(fn), lambda site: site.fn(None))

    def costs(self, kind: str) -> tuple[float, float]:
        """Median (extra, inside) seconds per wrapped call over this pass's batches."""
        got = self.batches[kind]
        if not got:
            return 0.0, 0.0
        return (statistics.median(e for e, _ in got), statistics.median(i for _, i in got))

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, measure=None):
        tr = self
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            sid = len(tr.spans)
            parent = tr.stack[-1][0]
            frame = tr._frame(sid)
            tr.spans.append(None)
            tr.stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tr.errors[layer] += 1
                raise
            finally:
                t1 = perf_counter()
                tr.stack.pop()
                dur = t1 - t0
                up = tr.stack[-1]
                up[1] += dur
                up[2] += 1
                up[4] += 1 + frame[4]
                up[5] += frame[5]
                tr.raw_self_s[name] += dur - frame[1]
                tr.span_calls[name] += 1
                tr.child_spans[name] += frame[2]
                tr.child_values[name] += frame[3]
                tr.spans[sid] = (sid, tr.job, name, t0, t1, parent)
            if measure is not None:
                measure(tr, (dur, frame), args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _value_wrapper(self, fn):
        tr = self

        def value(config, g):
            if tr.in_value:              # a rule that reads another configuration
                return fn(config, g)
            tr.in_value = True
            t0 = perf_counter()
            v = fn(config, g)
            dt = perf_counter() - t0
            tr.in_value = False
            tr.value_raw_s += dt
            tr.counts["configs.value_calls"] += 1
            up = tr.stack[-1]
            up[1] += dt
            up[3] += 1
            up[5] += 1
            return v

        value.__wrapped__ = fn
        return value

    def add_estimator(self, dur: float, frame: list) -> None:
        est = self.estimator
        est[0] += dur
        est[1] += frame[4]
        est[2] += frame[5]
        est[3] += 1

    def _measures(self):
        """Work counters taken from a call's arguments and result."""
        def window_sites(tr, timing, args, kwargs, out):
            tr.counts["groups.set_at_calls"] += 1
            tr.counts["groups.window_sites"] += len(out)

        def ball_terms(tr, timing, args, kwargs, out):
            x, z, F, n = args[:4]
            radius = kwargs.get("radius", args[5] if len(args) > 5 else
                                self.pkg.configs.DEFAULT_RADIUS)
            sites = _window_size(F, n)
            tr.counts["metrics.ball_terms"] += sites * (2 * radius + 1) ** x.dim
            tr.counts["metrics.estimator_sites"] += sites
            tr.add_estimator(*timing)

        def estimator(sites_of):
            def measure(tr, timing, args, kwargs, out):
                tr.counts["metrics.estimator_sites"] += sites_of(args, kwargs)
                tr.add_estimator(*timing)
            return measure

        def upper_density_sites(args, kwargs):
            _, F, n_list = args[:3]
            return sum(_window_size(F, n) for n in n_list)

        def dbar_sites(args, kwargs):
            return _window_size(args[2], args[3])

        def exact_sites(args, kwargs):
            return _joint_period_sites(args[0], args[1])

        def empirical_reads(tr, timing, args, kwargs, out):
            tr.counts["measures.empirical_reads"] += len(args[1]) * len(args[2])

        def prokhorov(tr, timing, args, kwargs, out):
            tr.counts["measures.prokhorov_calls"] += 1
            tr.counts["measures.support_pairs"] += len(args[0].weights) * len(args[1].weights)

        def simplex(tr, timing, args, kwargs, out):
            tr.counts["transport.simplex_calls"] += 1
            tr.counts["transport.simplex_cells"] += len(args[0].weights) * len(args[1].weights)

        def oracle(tr, timing, args, kwargs, out):
            tr.counts["transport.oracle_calls"] += 1

        return {
            "groups.FolnerSequence.set_at": window_sites,
            "metrics.besicovitch_estimate": ball_terms,
            "metrics.besicovitch_prime_estimate": ball_terms,
            "metrics.upper_density": estimator(upper_density_sites),
            "metrics.dbar_estimate": estimator(dbar_sites),
            "metrics.exact_mismatch_density": estimator(exact_sites),
            "measures.empirical_measure": empirical_reads,
            "measures.prokhorov_distance": prokhorov,
            "transport.min_cost_transport": simplex,
            "transport.brute_force_min_cost": oracle,
        }

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        measures = self._measures()
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "shiftlab" or k.startswith("shiftlab."))]
        for layer, names in SPANS.items():
            home = getattr(self.pkg, layer)
            for name in names:
                span = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._span(span, raw.__func__, measures.get(span)))
                    else:
                        new = self._span(span, raw, measures.get(span))
                    self._set(cls, meth, new)
                    continue
                orig = getattr(home, name)
                new = self._span(span, orig, measures.get(span))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._set(mod, attr, new)
        conf = self.pkg.configs.Configuration
        self._set(conf, "value", self._value_wrapper(conf.__dict__["value"]))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name, less the tracer's cost for the span's own
        timer reads and for its direct children."""
        span_extra, span_in = self.costs("span")
        value_extra, value_in = self.costs("value")
        return {name: raw - self.span_calls[name] * span_in
                - self.child_spans[name] * (span_extra - span_in)
                - self.child_values[name] * (value_extra - value_in)
                for name, raw in self.raw_self_s.items()}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of the counters since the last reset()."""
        span_extra, span_in = self.costs("span")
        value_extra, value_in = self.costs("value")
        value_calls = self.counts["configs.value_calls"]
        self_s = self.self_times()
        out: dict[str, float] = {}
        for metric, names in SELF_TIME_METRICS.items():
            out[metric] = sum(self_s.get(n, 0.0) for n in names)
        out["configs.value_s"] = self.value_raw_s - value_calls * value_in
        out["trace.wrapper_s"] = (sum(self.span_calls.values()) * span_extra
                                  + value_calls * value_extra)
        for layer in LAYERS:
            own = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
            if layer == "configs":
                own += out["configs.value_s"]
            out[f"{layer}.self_s"] = own
            out[f"{layer}.errors"] = self.errors[layer]
        for key in ("configs.value_calls", "groups.set_at_calls", "groups.window_sites",
                    "metrics.ball_terms", "measures.empirical_reads",
                    "measures.prokhorov_calls", "measures.support_pairs",
                    "transport.simplex_calls", "transport.simplex_cells",
                    "transport.oracle_calls"):
            out[key] = self.counts[key]
        est_raw, est_spans, est_values, est_calls = self.estimator
        est_s = (est_raw - est_spans * span_extra - est_values * value_extra
                 - est_calls * span_in)
        sites = self.counts["metrics.estimator_sites"]
        out["metrics.sites_per_s"] = sites / est_s if est_s > 0 else 0.0
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
