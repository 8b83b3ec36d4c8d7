"""Per-function call counts and self times for the traced run.

`install` replaces the public functions of six mockforms modules, and every
copy another module imported by name (characters.eta_series,
shadow.multiplier_phases, ...), with timing wrappers.  No source file
changes; only the traced process sees the wrappers.

A function's self time is its inclusive time minus the inclusive time of
the wrapped calls it made.  Inclusive totals double-count recursion; self
times do not, so they add up to the time spent inside wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("qseries", "characters", "rademacher", "analytic", "shadow", "cli")

# Wrapped besides each module's public functions.  multiplier_phases and the
# shadow module call _dedekind_euclid directly; without it the Dedekind-sum
# work of the phase rows would count as multiplier_phases self time.
EXTRA_FUNCTIONS = {"rademacher": ("_dedekind_euclid",)}
METHODS = (("qseries", "QSeries", "invert"), ("qseries", "QSeries", "__mul__"))

# Metrics of the traced run's JSON line, in order, with units.  A share is a
# self time over the traced wall time, so it reads 0 for a layer a workload
# never calls; the table printed above the JSON line gives the seconds.
SHARE_OF = {
    "qseries": ("QSeries.invert", "QSeries.__mul__", "eta_series", "theta_constant_series"),
    "characters": ("half_period_numerator", "multiplicity_series", "coeff_table"),
    "rademacher": ("multiplier_phases", "_dedekind_euclid", "kloosterman_sum", "exact_coefficient",
                   "bessel_i_half", "partition_multiplier_sum", "kloosterman_quadratic"),
    "analytic": ("jacobi_theta", "dedekind_eta", "lerch_sum", "nonholomorphic_correction",
                 "lerch_completion", "superconformal_character", "elliptic_genus"),
    "shadow": ("shadow_coefficient", "multiplicity_completion", "multiplier_system",
               "holomorphic_anomaly_residual", "laplacian_residual"),
    "cli": ("main",),
}
COUNTS = (
    "qseries.QSeries.invert.calls", "qseries.QSeries.__mul__.calls", "characters.coeff_table.calls",
    "rademacher.multiplier_phases.calls", "rademacher.multiplier_phases.distinct_c",
    "rademacher._dedekind_euclid.calls", "rademacher.kloosterman_sum.calls",
    "rademacher.exact_coefficient.calls", "rademacher.exact_coefficient.moduli",
    "rademacher.bessel_i_half.calls",
    "analytic.jacobi_theta.calls", "analytic.dedekind_eta.calls", "analytic.lerch_sum.calls",
    "analytic.nonholomorphic_correction.calls", "analytic.lerch_completion.calls",
    "analytic.superconformal_character.calls", "analytic.elliptic_genus.calls",
    "shadow.shadow_coefficient.calls", "shadow.multiplicity_completion.calls", "cli.main.calls",
)
JSON_METRICS = (
    [(f"{m}.self_share", "1") for m in MODULES]
    + [(f"{m}.{f}.self_share", "1") for m, fs in SHARE_OF.items() for f in fs]
    + [(name, "count") for name in COUNTS]
    + [("rademacher.kloosterman_sum.hit_ratio", "1"), ("process.cpu_s", "s"), ("process.trace_overhead", "1")]
)


class Tracer:
    """Call count, inclusive and self seconds per wrapped function."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.moduli = 0  # terms summed by exact_coefficient
        self._stack: list[float] = []  # child seconds of each open call

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        count_moduli = name == "rademacher.exact_coefficient"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if count_moduli:
                self.moduli += len(result.terms)
            return result

        return traced

    def report(self) -> dict:
        """Flat `<module>.<function>.<stat>` numbers, plus the two table sizes."""
        from mockforms import rademacher

        out = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        out["rademacher.exact_coefficient.moduli"] = self.moduli
        out["rademacher.multiplier_phases.distinct_c"] = len(rademacher._phase_rows)
        calls = self.stats["rademacher.kloosterman_sum"][0]
        hits = calls - len(rademacher.DEFAULT_CACHE)
        out["rademacher.kloosterman_sum.hit_ratio"] = hits / calls if calls else 0.0
        return out


def install() -> Tracer:
    """Wrap the traced functions in every mockforms namespace that holds them."""
    import mockforms

    tracer = Tracer()
    modules = {name: importlib.import_module(f"mockforms.{name}") for name in MODULES}
    replaced = {}  # original function -> wrapper
    for mod_name, mod in modules.items():
        public = [n for n in mod.__all__ if inspect.isfunction(getattr(mod, n))]
        for name in public + list(EXTRA_FUNCTIONS.get(mod_name, ())):
            fn = getattr(mod, name)
            replaced[fn] = tracer.wrap(f"{mod_name}.{name}", fn)
    for mod_name, cls_name, method in METHODS:
        cls = getattr(modules[mod_name], cls_name)
        wrapper = tracer.wrap(f"{mod_name}.{cls_name}.{method}", getattr(cls, method))
        setattr(cls, method, wrapper)
        if method == "__mul__":
            cls.__rmul__ = wrapper  # the class aliases __rmul__ = __mul__
    for namespace in [mockforms, *modules.values()]:
        for attr, value in list(vars(namespace).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(namespace, attr, replaced[value])
    return tracer
