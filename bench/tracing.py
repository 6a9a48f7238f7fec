"""Span tracing for the traced benchmark run.

``Tracer.install`` wraps the public functions in ``TRACED`` at every
scoremech module that binds them (``cli`` binds ``required_ratio_numeric``,
``game`` binds ``schedule_eval`` and ``score``, and so on), so calls made
inside the package are traced as well as the benchmark's own calls.

Each call made during an operation records a span: name, start, end,
parent span, operation id, a tag (the scoring rule, or the market's bin
count) and whether it raised. Spans live in flat in-memory arrays and are
written out once, when the run ends. A span's self time is its duration
minus its child spans' durations. Wrapping costs one to a few
microseconds per call. The worker measures that cost by running every
traced operation a second time untraced, and the reported times subtract
it per child call, because a function that makes hundreds of traced calls
(a best-response search) would otherwise absorb the wrappers' cost.

The library is synchronous and single-threaded, with no queue or lock, so
there is no wait time to report: every span is busy time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter_ns

# (module, function) pairs traced, reported as "<module>.<function>".
# scoring.integrate is the _quadrature fallback as bound in scoring.
TRACED = (
    ("cli", "cmd_simulate"),
    ("cli", "cmd_discount"),
    ("cli", "cmd_market_simulate"),
    ("cli", "cmd_market_replay"),
    ("game", "draw_worlds"),
    ("game", "draw_world"),
    ("game", "run_mechanism"),
    ("game", "deviation_gain"),
    ("game", "analytic_gain"),
    ("game", "best_response"),
    ("discounting", "required_ratio_numeric"),
    ("discounting", "required_ratio_log"),
    ("discounting", "schedule_eval"),
    ("truthfulness", "classify_log"),
    ("truthfulness", "classify_quadratic"),
    ("scoring", "expected_score"),
    ("scoring", "score"),
    ("scoring", "integrate"),
    ("beliefs", "posterior_single"),
    ("beliefs", "posterior_pair"),
    ("amm", "open_market"),
    ("amm", "trade"),
    ("amm", "settle"),
    ("amm", "write_log"),
    ("amm", "replay"),
    ("amm", "cost_function"),
    ("amm", "prices"),
    ("amm", "binned_density"),
    ("amm", "binned_self_score"),
)

# Per-function stats: calls per op, self time per op, exceptions per op.
STATS = {"calls": "1/op", "self_ms_per_op": "ms/op", "raised": "1/op"}

# Metrics derived from spans and counters: unit and better direction.
DERIVED = {
    "bench.op.self_ms_per_op": ("ms/op", "lower"),
    "game.draw_worlds.worlds_per_op": ("1/op", "lower"),
    "game.worlds_unique_frac": ("fraction", "higher"),
    "game.analytic_gain.calls_per_best_response": ("1/call", "lower"),
    "amm.cost_function.calls_per_trade": ("1/call", "lower"),
    "amm.binned_density.bins_per_op": ("1/op", "lower"),
    "amm.trade.clipped_bins_per_op": ("1/op", "lower"),
    "amm.replay.records_per_op": ("1/op", "higher"),
    "amm.replay.log_bytes_per_op": ("B/op", "lower"),
    "game.draw_worlds.us_per_world": ("us", "lower"),
    "amm.trade.ms_per_call_512_bins": ("ms", "lower"),
    "discounting.required_ratio_numeric.ms_per_quadratic_call": ("ms", "lower"),
    "game.best_response.ms_per_quadratic_call": ("ms", "lower"),
    "amm.replay.ms_per_record": ("ms", "lower"),
    "bench.trace.span_overhead_us": ("us", "lower"),
    "bench.trace.overhead": ("ratio", "lower"),
    "bench.trace.ops": ("count", "higher"),
}


def layer_metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric a traced run reports: name -> (unit, better)."""
    units = {
        f"{m}.{f}.{stat}": (unit, "lower")
        for m, f in TRACED
        for stat, unit in STATS.items()
    }
    units.update(DERIVED)
    return units


OP_SPAN = "bench.op"
QUADRATIC = 1


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _rule_tag(rule) -> int:
    return QUADRATIC if getattr(rule, "value", rule) == "quadratic" else 0


class Tracer:
    """Records spans for the calls made inside ``begin_op``/``end_op``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("i")
        self.raised = array("b")
        self.current = -1
        self.op_id = -1
        self.ops = 0
        self.counters: dict[str, float] = {}
        self._op_worlds: set = set()
        self._bindings: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []
        # Wrapper cost per call that falls inside the recorded interval, ns.
        self.inner_ns = 0.0
        for name in [OP_SPAN] + [f"{m}.{f}" for m, f in TRACED]:
            self._name_id(name)

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int, tag: int) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.tag.append(tag)
        self.raised.append(0)
        self.end.append(0)
        self.start.append(0)
        self.current = sid
        return sid

    def begin_op(self) -> None:
        self.op_id = self.ops
        self._open(self._name_id(OP_SPAN), 0)
        self.start[-1] = perf_counter_ns()

    def end_op(self) -> None:
        self.end[self.current] = perf_counter_ns()
        self.current = -1
        self.op_id = -1
        self.ops += 1
        self.count("worlds_unique", len(self._op_worlds))
        self._op_worlds.clear()

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def wrap(self, fn, name: str, tag_fn=None, after_fn=None):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            parent = tracer.current
            sid = tracer._open(name_id, tag_fn(args, kwargs) if tag_fn else 0)
            tracer.start[sid] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[sid] = 1
                raise
            finally:
                tracer.end[sid] = perf_counter_ns()
                tracer.current = parent
            if after_fn:
                after_fn(args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _hooks(self, qualname: str):
        """Tag and counter hooks for the functions whose arguments or
        results give per-layer counts."""
        if qualname == "game.best_response":
            return (lambda a, kw: _rule_tag(_arg(a, kw, 1, "rule"))), None
        if qualname == "discounting.required_ratio_numeric":
            return (lambda a, kw: _rule_tag(_arg(a, kw, 0, "rule"))), None
        if qualname == "game.draw_worlds":

            def after(a, kw, result):
                seed, start = _arg(a, kw, 1, "seed"), _arg(a, kw, 3, "start_index", 0)
                n = len(result[0])
                self.count("worlds_batch", n)
                self._op_worlds.update((seed, k) for k in range(start, start + n))

            return None, after
        if qualname == "game.draw_world":

            def after(a, kw, result):
                self.count("worlds_scalar", 1)
                self._op_worlds.add((_arg(a, kw, 1, "seed"), _arg(a, kw, 2, "index", 0)))

            return None, after
        if qualname == "amm.binned_density":
            return None, lambda a, kw, r: self.count("bins", _arg(a, kw, 1, "grid").n)
        if qualname == "amm.trade":
            return (
                lambda a, kw: _arg(a, kw, 0, "state").grid.n,
                lambda a, kw, r: self.count("clipped_bins", r[1].clipped_bins),
            )
        if qualname == "amm.replay":
            return None, lambda a, kw, r: self.count("records", len(r[1]))
        return None, None

    def _bind(self) -> None:
        """Find each binding of a TRACED function in the scoremech modules."""
        importlib.import_module("scoremech")
        modules = [m for n, m in sys.modules.items() if n == "scoremech" or n.startswith("scoremech.")]
        for module_name, fn_name in TRACED:
            qualname = f"{module_name}.{fn_name}"
            try:
                module = importlib.import_module(f"scoremech.{module_name}")
            except ModuleNotFoundError:
                module = None
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.missing.append(qualname)
                continue
            wrapper = self.wrap(original, qualname, *self._hooks(qualname))
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._bindings.append((module, attr, original, wrapper))

    def install(self) -> None:
        """Put the wrappers in place of every binding."""
        if not self._bindings:
            self._bind()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def calibrate(self, n: int = 20000, repeats: int = 5) -> None:
        """Measure the wrapper's cost inside a recorded span, on a function
        that does nothing: the timer reads and argument passing."""

        def noop():
            return None

        traced = self.wrap(noop, "bench.calibration")
        plain = recorded = float("inf")
        for _ in range(repeats):
            t0 = perf_counter_ns()
            for _ in range(n):
                noop()
            plain = min(plain, (perf_counter_ns() - t0) / n)
            self.begin_op()
            first = len(self.name)
            for _ in range(n):
                traced()
            spans = sum(self.end[k] - self.start[k] for k in range(first, len(self.name)))
            recorded = min(recorded, spans / n)
            self.end_op()
            self._reset()
        self.inner_ns = max(recorded - plain, 0.0)

    def _reset(self) -> None:
        for arr in (self.name, self.start, self.end, self.parent, self.op, self.tag, self.raised):
            del arr[:]
        self.ops = 0
        self.counters.clear()

    # -- results -----------------------------------------------------------

    def arrays(self):
        import numpy as np

        return {
            "name": np.frombuffer(self.name, dtype=np.int16),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "tag": np.frombuffer(self.tag, dtype=np.int32),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
        }

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names), **self.arrays())

    def spans(self) -> int:
        """Spans recorded for calls, not counting the operations' own."""
        return len(self.name) - self.ops

    def layer_metrics(self, per_call_ns: float) -> dict[str, float]:
        """Per-layer metrics over the traced operations, keyed by name.

        per_call_ns is the measured cost tracing adds per traced call; the
        part outside a span is charged to its parent, so it is removed from
        the parent's self time and from every ancestor's inclusive time.
        """
        import numpy as np

        s = self.arrays()
        n = len(s["name"])
        ops = max(self.ops, 1)
        dur = (s["end"] - s["start"]).astype(float)
        child = s["parent"] >= 0
        children = np.bincount(s["parent"][child], minlength=n)
        child_ns = np.bincount(s["parent"][child], weights=dur[child], minlength=n)
        outer_ns = max(per_call_ns - self.inner_ns, 0.0)
        self_ns = np.maximum(dur - child_ns - outer_ns * children - self.inner_ns, 0.0)
        # Spans are numbered in call order, so a span's descendants are the
        # spans that start before it ends.
        descendants = np.searchsorted(s["start"], s["end"], side="left") - np.arange(n) - 1
        incl_ns = np.maximum(dur - per_call_ns * descendants - self.inner_ns, 0.0)

        k = len(self.names)
        calls = np.bincount(s["name"], minlength=k)
        self_by_name = np.bincount(s["name"], weights=self_ns, minlength=k)
        raised = np.bincount(s["name"], weights=s["raised"], minlength=k)
        ids = self._ids

        out: dict[str, float] = {}
        for module_name, fn_name in TRACED:
            qualname = f"{module_name}.{fn_name}"
            i = ids[qualname]
            out[f"{qualname}.calls"] = float(calls[i]) / ops
            out[f"{qualname}.self_ms_per_op"] = self_by_name[i] / ops / 1e6
            out[f"{qualname}.raised"] = float(raised[i]) / ops
        out[f"{OP_SPAN}.self_ms_per_op"] = self_by_name[ids[OP_SPAN]] / ops / 1e6

        def mask(qualname, tag=None):
            m = s["name"] == ids[qualname]
            return m & (s["tag"] == tag) if tag is not None else m

        def under(child_name, parent_mask):
            """Spans of child_name whose parent is selected by parent_mask."""
            m = mask(child_name) & child
            return int(np.sum(parent_mask[s["parent"][m]]))

        def ratio(a, b):
            return float(a) / float(b) if b else 0.0

        c = self.counters
        worlds = c.get("worlds_batch", 0.0) + c.get("worlds_scalar", 0.0)
        quad_br = mask("game.best_response", QUADRATIC)
        trades = mask("amm.trade")
        out["game.draw_worlds.worlds_per_op"] = c.get("worlds_batch", 0.0) / ops
        out["game.worlds_unique_frac"] = ratio(c.get("worlds_unique", 0.0), worlds)
        out["game.analytic_gain.calls_per_best_response"] = ratio(
            under("game.analytic_gain", quad_br), quad_br.sum()
        )
        out["amm.cost_function.calls_per_trade"] = ratio(
            under("amm.cost_function", trades), trades.sum()
        )
        out["amm.binned_density.bins_per_op"] = c.get("bins", 0.0) / ops
        out["amm.trade.clipped_bins_per_op"] = c.get("clipped_bins", 0.0) / ops
        out["amm.replay.records_per_op"] = c.get("records", 0.0) / ops
        out["amm.replay.log_bytes_per_op"] = c.get("log_bytes", 0.0) / ops

        # Unit costs: inclusive time per call, wrapper cost removed.
        def mean_ms(m):
            return float(np.mean(incl_ns[m])) / 1e6 if m.any() else 0.0

        replay = mask("amm.replay")
        out["game.draw_worlds.us_per_world"] = ratio(
            np.sum(incl_ns[mask("game.draw_worlds")]) / 1e3, c.get("worlds_batch", 0.0)
        )
        out["amm.trade.ms_per_call_512_bins"] = mean_ms(mask("amm.trade", 512))
        out["discounting.required_ratio_numeric.ms_per_quadratic_call"] = mean_ms(
            mask("discounting.required_ratio_numeric", QUADRATIC)
        )
        out["game.best_response.ms_per_quadratic_call"] = mean_ms(quad_br)
        out["amm.replay.ms_per_record"] = ratio(
            np.sum(incl_ns[replay]) / 1e6, c.get("records", 0.0)
        )
        out["bench.trace.span_overhead_us"] = per_call_ns / 1e3
        return out


def top_self_times(metrics: dict[str, float], k: int = 8) -> list[tuple[str, float]]:
    """The k layers with the largest self time per operation."""
    rows = [
        (name[: -len(".self_ms_per_op")], v)
        for name, v in metrics.items()
        if name.endswith(".self_ms_per_op")
    ]
    return sorted(rows, key=lambda r: -r[1])[:k]
