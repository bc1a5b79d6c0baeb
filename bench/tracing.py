"""Spans around the public functions of spincs, installed from outside.

``Tracer.install(sp)`` replaces every traced function in every spincs module
namespace that holds it (the defining module and each module that imported
it), so calls between modules are seen as well as calls from the
benchmark.  ``uninstall`` puts the originals back; untraced rounds run the
unwrapped program.

A span is ``[name, start, end, parent, op]``: ``parent`` indexes the span
list (-1 for none) and ``op`` numbers the benchmark operation the span
belongs to; the runner opens one ``op.<kind>`` span per operation.  The
spans of a round stay in memory until the next round begins.  Self time of a span is its
duration minus the durations of its children (calls are single-threaded,
so children never overlap).
"""

import inspect
from collections import Counter, defaultdict
from time import perf_counter

TRACED = {
    "spin_core": ("little_d", "big_r", "euler_from_su2"),
    "coherent": ("coherent_state", "overlap", "structure_pair", "matrix_elements",
                 "grid_amplitudes", "resolution_residual"),
    "propagator": ("discrete_cspi", "transition_amplitude", "hamiltonian_matrix",
                   "h_expectation", "exact_propagator", "midpoint_product"),
    "semiclassical": ("integrate_trajectory", "build_system", "solve_velocities"),
    "contraction": ("hp_contract_state", "canonical_cs", "dns_amplitudes"),
    "cli": ("main",),
}

MODULES = ("spin_core", "coherent", "geometry", "parametrizations", "propagator",
           "semiclassical", "contraction", "cli")

# span names: discrete_cspi is split by kernel mode
SPAN_NAMES = tuple(
    name for mod, fns in TRACED.items() for fn in fns
    for name in ([f"{mod}.{fn}.{m}" for m in ("M1", "M2", "M3")]
                 if fn == "discrete_cspi" else [f"{mod}.{fn}"]))

COUNTERS = ("coherent.grid_amplitudes.entries", "propagator.kernel_entries",
            "propagator.expm.calls")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.m3_entries = 0          # kernel entries of M3 discrete_cspi calls
        self.m3_zeroed = 0           # of which evaluated by the linear fallback
        self.op = -1
        self._stack = []
        self._patches = []           # (namespace, attribute, original)

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, extra=None):
        """fn inside a span; ``extra(arguments, result)`` updates counters,
        and discrete_cspi spans take the kernel mode into their name."""
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            span_name = name
            bound = None
            if extra is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if name.endswith("discrete_cspi"):
                    span_name = f"{name}.{bound.arguments['mode']}"
            idx = self.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if extra is not None:
                extra(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters computed from arguments and returned shapes ----------------

    def _grid_amplitudes(self, args, result):
        self.counters["coherent.grid_amplitudes.entries"] += result.shape[0] * result.shape[1]

    def _discrete_cspi(self, args, result):
        if args["mode"] == "M1":
            return
        g = args["grid"].n_points
        entries = g * g * (args["n_slices"] - 1) + 2 * g
        self.counters["propagator.kernel_entries"] += entries
        if args["mode"] == "M3":
            self.m3_entries += entries
            self.m3_zeroed += result.n_zeroed

    def _transition_amplitude(self, args, result):
        if args["mode"] != "M1":
            g = args["grid"].n_points
            self.counters["propagator.kernel_entries"] += g * g * (args["n_slices"] + 1)

    # -- installation ----------------------------------------------------------

    def install(self, sp):
        extras = {"coherent.grid_amplitudes": self._grid_amplitudes,
                  "propagator.discrete_cspi": self._discrete_cspi,
                  "propagator.transition_amplitude": self._transition_amplitude}
        replace = {}
        for mod, fns in TRACED.items():
            module = getattr(sp, mod)
            for fn in fns:
                orig = getattr(module, fn)
                name = f"{mod}.{fn}"
                replace[id(orig)] = (orig, self._wrap(name, orig, extras.get(name)))
        prop = sp.propagator
        expm = prop.expm

        def counted_expm(*args, **kwargs):
            self.counters["propagator.expm.calls"] += 1
            return expm(*args, **kwargs)

        self._patch(prop, "expm", counted_expm)
        for namespace in [sp] + [getattr(sp, m) for m in MODULES]:
            for attr, value in list(vars(namespace).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(namespace, attr, hit[1])

    def _patch(self, namespace, attr, value):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def uninstall(self):
        for namespace, attr, orig in reversed(self._patches):
            setattr(namespace, attr, orig)
        self._patches.clear()

    # -- per-round aggregation ---------------------------------------------------

    def begin_round(self):
        """Forget the spans and counters of the previous round."""
        self.spans.clear()
        self.counters.clear()
        self.m3_entries = self.m3_zeroed = 0

    def round_figures(self):
        """Per-layer figures of the spans and counters of this round, as
        {metric: value}."""
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_ms = Counter(), defaultdict(float)
        for k, (name, t0, t1, parent, _) in enumerate(self.spans):
            if not name.startswith("op."):
                calls[name] += 1
                self_ms[name] += 1e3 * (t1 - t0 - child[k])
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_ms[name]
        for name in COUNTERS:
            out[name] = self.counters[name]
        out["propagator.m3_fallback_frac"] = (self.m3_zeroed / self.m3_entries
                                              if self.m3_entries else 0.0)
        return out
