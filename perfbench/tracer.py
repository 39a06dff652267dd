"""Outside-in tracing of the cbfrrt layers.

Each traced function is rebound, in the module where its caller looks the
name up, to a wrapper that records a span. Patching cbfrrt.qp.solve_scalar_qp
would miss every call, because planner imported the name; the patch point is
cbfrrt.planner.solve_scalar_qp. Spans are aggregated in memory by
(name, parent name) as call count, total time and time covered by child
spans, so self time = total - child. A few hooks count outcomes where the
work happens (QP infeasible at node k, margin rejects, accepted edges, audit
samples).

Patch points missing from the package are skipped and listed in `missing`,
so the benchmark keeps running while a later refactor renames a layer.
"""

from __future__ import annotations

import importlib
import math
import time

# (module the caller reads the name from, attribute, span name)
PATCH_POINTS = (
    ("cbfrrt.harness", "execute", "harness.execute"),
    ("cbfrrt.harness", "plan", "planner.plan"),
    ("cbfrrt.harness", "rrt_plan", "baselines.rrt_plan"),
    ("cbfrrt.harness", "rrt_star_plan", "baselines.rrt_star_plan"),
    ("cbfrrt.harness", "audit_trajectory", "harness.audit_trajectory"),
    ("cbfrrt.harness", "format_trajectory_csv", "harness.format_trajectory_csv"),
    ("cbfrrt.planner", "vertices_sample", "planner.vertices_sample"),
    ("cbfrrt.planner", "safe_steer", "planner.safe_steer"),
    ("cbfrrt.planner", "integrate_closed_loop", "dynamics.integrate_closed_loop"),
    ("cbfrrt.planner", "constraint_rows", "safety.constraint_rows"),
    ("cbfrrt.planner", "solve_scalar_qp", "qp.solve_scalar_qp"),
    # planner uses barrier_value only in the edge margin check.
    ("cbfrrt.planner", "barrier_value", "planner.margin_check"),
    ("cbfrrt.dynamics", "rk4_step", "dynamics.rk4_step"),
    ("cbfrrt.safety", "ecbf_row", "safety.ecbf_row"),
    ("cbfrrt.baselines", "nearest_neighbor", "baselines.nearest_neighbor"),
    ("cbfrrt.baselines", "endpoint_collision_check",
     "baselines.endpoint_collision_check"),
)


class Tracer:
    """Span aggregates and outcome counts for one process."""

    def __init__(self):
        # (name, parent name) -> [calls, total_s, child_s]
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, child_s] per open span
        self._undo: list[tuple[object, str, object]] = []
        # per-expansion state read by the hooks
        self._node = 0
        self._expansion_nodes = 0
        self._integrated = False

    # -- spans -----------------------------------------------------------

    def _wrap(self, name, fn, enter=None, leave=None):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if enter is not None:
                enter(args, kwargs)
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += frame[1]
            if leave is not None:
                leave(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span recorded by the benchmark itself."""
        return self._wrap(name, fn)(*args, **kwargs)

    def install(self):
        hooks = {
            "planner.safe_steer": (self._steer_enter, self._steer_leave),
            "dynamics.integrate_closed_loop": (self._integrate_enter,
                                               self._integrate_leave),
            "qp.solve_scalar_qp": (None, self._qp_leave),
            "planner.plan": (None, self._counter_leave("planner.iterations")),
            "baselines.rrt_plan": (None, self._counter_leave("baselines.iterations")),
            "baselines.rrt_star_plan": (None,
                                        self._counter_leave("baselines.iterations")),
            "harness.audit_trajectory": (self._audit_enter, None),
            "baselines.endpoint_collision_check": (None, self._endpoint_leave),
        }
        for module_name, attr, name in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            enter, leave = hooks.get(name, (None, None))
            setattr(module, attr, self._wrap(name, original, enter, leave))
            self._undo.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    # -- outcome hooks ---------------------------------------------------

    def _add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _steer_enter(self, args, kwargs):
        self._expansion_nodes = 0
        self._integrated = False

    def _steer_leave(self, result):
        if result is not None:
            self._add("planner.accepted")
            self._add("qp.useful_nodes", self._expansion_nodes)
        elif self._integrated:
            self._add("planner.margin_rejects")

    def _integrate_enter(self, args, kwargs):
        self._node = 0

    def _integrate_leave(self, result):
        if result is not None:
            self._integrated = True
            self._add("planner.margin_check.nodes", len(result))

    def _qp_leave(self, result):
        self._expansion_nodes += 1
        if result is None:
            self._add("qp.infeasible")
            if self._node == 0:
                self._add("qp.infeasible_node0")
        self._node += 1

    def _counter_leave(self, key):
        def leave(result):
            self._add(key, result.iterations)
        return leave

    def _audit_enter(self, args, kwargs):
        trajectory = args[0] if args else kwargs["trajectory"]
        dt_audit = args[2] if len(args) > 2 else kwargs.get("dt_audit")
        samples = trajectory.samples
        if not samples:
            return
        if dt_audit is None:
            self._add("harness.audit_trajectory.samples", len(samples))
            return
        # np.arange(t0, t_end, dt_audit) plus the exact final time
        span = samples[-1].t - samples[0].t
        self._add("harness.audit_trajectory.samples",
                  max(0, math.ceil(span / dt_audit)) + 1)

    def _endpoint_leave(self, result):
        if not result:
            self._add("baselines.endpoint_collision_check.rejects")

    # -- reading ---------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, total_s, self_s], summed over parents."""
        out: dict[str, list] = {}
        for (name, _parent), (calls, total, child) in self.spans.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += total - child
        return out

    def work_counters(self) -> dict[str, int]:
        """The deterministic counts of everything traced so far."""
        calls = {name: rec[0] for name, rec in self.totals().items()}
        counters = dict(self.counts)
        for name in ("planner.safe_steer", "qp.solve_scalar_qp", "safety.ecbf_row",
                     "dynamics.rk4_step", "dynamics.integrate_closed_loop",
                     "baselines.nearest_neighbor",
                     "baselines.endpoint_collision_check",
                     "harness.audit_trajectory"):
            counters[name + ".calls"] = calls.get(name, 0)
        return counters

    def merge(self, dump: dict):
        """Add another process's dump() to this one."""
        for s in dump["spans"]:
            rec = self.spans.setdefault((s["name"], s["parent"]), [0, 0.0, 0.0])
            rec[0] += s["calls"]
            rec[1] += s["total_s"]
            rec[2] += s["total_s"] - s["self_s"]
        for key, value in dump["counts"].items():
            self._add(key, value)
        self.missing = sorted(set(self.missing) | set(dump["missing"]))

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": name, "parent": parent, "calls": calls,
                 "total_s": total, "self_s": total - child}
                for (name, parent), (calls, total, child) in sorted(
                    self.spans.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
            ],
            "counts": dict(sorted(self.counts.items())),
            "missing": list(self.missing),
        }
