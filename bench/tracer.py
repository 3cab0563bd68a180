"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of the package from outside: every
module-level binding and class attribute that refers to a wrapped function
is replaced, including the names that ``from .projmod import ...`` copies
into ``euler``, ``verify``, ``variants``, ``parsing`` and ``cli``.  No
source file changes.

Three kinds of wrapper:

* spans (name, start, end, parent, request), kept in memory and written
  out at the end; self time is a span's duration minus its child spans'
  durations;
* aggregate timers (call count and inclusive time, no span) for the
  hottest inner calls ``gen_mul``, ``ModuleElement.__init__`` and
  ``HElement.__mul__``, where a span per call would distort the self
  times of the spans around them.  Their time stays inside the enclosing
  span's self time;
* counters for ``apply_gen``, ``HElement.__init__``,
  ``ZHElement.__mul__``, ``BorelElement.__init__`` and ``context_check``.

``grading`` is not instrumented: its calls are O(1) arithmetic.

Only the traced run imports this module; the untraced run that gives the
end-to-end metrics never does.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "equibezout"

SPANS = (
    "cli.main",
    "verify.check_instance",
    "verify.random_bundle_sum",
    "euler.bezout_report",
    "euler.euler_product",
    "euler.euler_line",
    "euler.euler_closed",
    "euler.recover_degrees",
    "variants.z_map",
    "variants.z_euler_closed",
    "variants.borel_map",
    "variants.borel_euler_closed",
    "variants.compare",
    "parsing.parse_bundles",
    "parsing.parse_module_element",
    "projmod.mod_mul",
    "projmod.raw_monomial",
    "projmod.coeff_vector",
    "projmod.ModuleElement.__str__",
)
TIMERS = (
    "projmod.gen_mul",
    "projmod.ModuleElement.__init__",
    "hscalar.HElement.__mul__",
)
COUNTERS = (
    "projmod.apply_gen",
    "hscalar.HElement.__init__",
    "variants.ZHElement.__mul__",
    "variants.BorelElement.__init__",
    "euler.context_check",
)

# per-layer metrics of the traced run, in BENCHMARK.json order
LAYER_METRICS = (
    ("projmod.ModuleElement.init.calls", "count"),
    ("projmod.ModuleElement.init.s", "s"),
    ("projmod.mod_mul.calls", "count"),
    ("projmod.mod_mul.self_s", "s"),
    ("projmod.apply_gen.calls", "count"),
    ("projmod.gen_mul.calls", "count"),
    ("projmod.gen_mul.s", "s"),
    ("projmod.gen_mul.repeat_share", "fraction"),
    ("projmod.gen_mul.cross_request_share", "fraction"),
    ("projmod.raw_monomial.calls", "count"),
    ("projmod.raw_monomial.s", "s"),
    ("projmod.raw_monomial.steps", "count"),
    ("projmod.coeff_vector.s", "s"),
    ("projmod.ModuleElement.str.s", "s"),
    ("hscalar.HElement.mul.calls", "count"),
    ("hscalar.HElement.mul.s", "s"),
    ("hscalar.HElement.init.calls", "count"),
    ("euler.euler_product.calls", "count"),
    ("euler.euler_product.self_s", "s"),
    ("euler.euler_product.self_s.HElement", "s"),
    ("euler.euler_product.self_s.ZHElement", "s"),
    ("euler.euler_line.calls", "count"),
    ("euler.euler_line.s", "s"),
    ("euler.euler_closed.calls", "count"),
    ("euler.euler_closed.self_s", "s"),
    ("euler.recover_degrees.s", "s"),
    ("euler.bezout_report.self_s", "s"),
    ("variants.z_map.s", "s"),
    ("variants.z_euler_closed.s", "s"),
    ("variants.borel_map.s", "s"),
    ("variants.borel_euler_closed.s", "s"),
    ("variants.compare.self_s", "s"),
    ("variants.ZHElement.mul.calls", "count"),
    ("variants.BorelElement.init.calls", "count"),
    ("verify.check_instance.calls", "count"),
    ("verify.check_instance.self_s", "s"),
    ("verify.random_bundle_sum.s", "s"),
    ("verify.random_bundle_sum.accept_ratio", "fraction"),
    ("parsing.parse_bundles.calls", "count"),
    ("parsing.parse_bundles.s", "s"),
    ("parsing.parse_module_element.calls", "count"),
    ("parsing.parse_module_element.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.requests", "count"),
    ("trace.overhead_frac", "fraction"),
)


def metric_stem(target: str) -> str:
    """``projmod.ModuleElement.__init__`` -> ``projmod.ModuleElement.init``."""
    return target.replace(".__", ".").rstrip("_")


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its child spans' durations.
    Spans come from one call stack, so children of one span never overlap."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def raw_monomial_steps(sp, s, t, a, b, ring=None) -> int:
    """Generator steps ``raw_monomial`` walks for these arguments."""
    if s < 0:
        steps = (a - sp.p, b, t)
    elif t < 0:
        steps = (a, b - sp.q, s)
    else:
        steps = (s, t, a, b)
    return sum(max(0, k) for k in steps)


class Tracer:
    """Spans, timers and counters for one traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self._stack: list[int] = []
        self.request = -1
        self.calls: Counter = Counter()
        self.timers: defaultdict = defaultdict(float)
        self.steps: list[int] = []
        self.sizes: list[tuple[int, int, int]] = []
        self._gen_first: dict = {}
        self.gen_repeats = 0
        self.gen_cross = 0
        self.draw_checks = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            label = name
            if name == "euler.euler_product":
                ring = args[1] if len(args) > 1 else kwargs.get("ring")
                label = f"{name}.{getattr(ring, '__name__', 'HElement')}"
            elif name == "projmod.raw_monomial":
                self.steps.append(raw_monomial_steps(*args, **kwargs))
            idx = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(idx)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if name == "verify.random_bundle_sum":
                self.sizes.append((result.sp.p, result.sp.q, result.n))
            return result

        return traced

    def _timer(self, name, fn):
        calls, timers = self.calls, self.timers
        perf = time.perf_counter
        watch_gen = name == "projmod.gen_mul"

        def timed(*args, **kwargs):
            if watch_gen:
                self._note_gen(args, kwargs)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                timers[name] += perf() - start
                calls[name] += 1

        return timed

    def _counter(self, name, fn):
        calls = self.calls
        watch_draw = name == "euler.context_check"

        def counted(*args, **kwargs):
            calls[name] += 1
            if watch_draw and self._stack and (
                self.spans[self._stack[-1]][0] == "verify.random_bundle_sum"
            ):
                self.draw_checks += 1
            return fn(*args, **kwargs)

        return counted

    def _note_gen(self, args, kwargs):
        ring = args[2] if len(args) > 2 else kwargs.get("ring")
        key = (args[0], args[1], ring)
        first = self._gen_first.get(key)
        if first is None:
            self._gen_first[key] = self.request
            return
        self.gen_repeats += 1
        if first != self.request:
            self.gen_cross += 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Import the package and replace every binding of each target."""
        importlib.import_module(PACKAGE)
        importlib.import_module(f"{PACKAGE}.cli")  # the package does not import it
        mods = [m for n, m in sys.modules.items() if n.split(".")[0] == PACKAGE]
        owners = list(mods)
        for mod in mods:
            owners.extend(
                v for v in vars(mod).values()
                if isinstance(v, type) and v.__module__.startswith(PACKAGE)
            )
        for kinds, make in ((SPANS, self._span), (TIMERS, self._timer),
                            (COUNTERS, self._counter)):
            for target in kinds:
                original = _resolve(target)
                wrapped = make(target, original)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patches.append((owner, attr, value))
                            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def begin_request(self, request: int) -> None:
        """Open the root span of one request; its spans share ``request``."""
        self.request = request
        self.spans.append(["request", time.perf_counter(), 0.0, -1, request])
        self._stack.append(len(self.spans) - 1)

    def end_request(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def layer_metrics(self) -> dict[str, float]:
        """Every metric of ``LAYER_METRICS`` but ``trace.overhead_frac``,
        which needs the untraced run."""
        calls = Counter(self.calls)
        total = defaultdict(float)
        own = defaultdict(float)
        for span, self_s in zip(self.spans, self_times(self.spans)):
            name = span[0]
            total[name] += span[2] - span[1]
            own[name] += self_s
            calls[name] += 1
            if name.startswith("euler.euler_product."):
                calls["euler.euler_product"] += 1
                own["euler.euler_product"] += self_s
        values: dict[str, float] = {}
        for target in SPANS + TIMERS + COUNTERS:
            stem = metric_stem(target)
            values[f"{stem}.calls"] = calls[target]
            values[f"{stem}.s"] = total[target] + self.timers[target]
            values[f"{stem}.self_s"] = own[target]
        for ring in ("HElement", "ZHElement"):
            values[f"euler.euler_product.self_s.{ring}"] = own[f"euler.euler_product.{ring}"]
        gen_calls = calls["projmod.gen_mul"]
        values["projmod.gen_mul.repeat_share"] = self.gen_repeats / gen_calls if gen_calls else 0.0
        values["projmod.gen_mul.cross_request_share"] = (
            self.gen_cross / self.gen_repeats if self.gen_repeats else 0.0
        )
        values["projmod.raw_monomial.steps"] = sum(self.steps)
        draws = calls["verify.random_bundle_sum"]
        values["verify.random_bundle_sum.accept_ratio"] = (
            draws / self.draw_checks if self.draw_checks else 0.0
        )
        values["trace.requests"] = calls["request"]
        return {name: values[name] for name, _ in LAYER_METRICS if name in values}

    def write_spans(self, path: str) -> None:
        """Spans as JSON: a name table and [name, start, end, parent, request]
        rows, times in microseconds from the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[s[0]], round((s[1] - t0) * 1e6, 1), round((s[2] - t0) * 1e6, 1), s[3], s[4]]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))


def _resolve(target: str):
    mod_name, _, qual = target.partition(".")
    obj = sys.modules[f"{PACKAGE}.{mod_name}"]
    *owners, attr = qual.split(".")
    for owner in owners:
        obj = getattr(obj, owner)
    return vars(obj)[attr]
