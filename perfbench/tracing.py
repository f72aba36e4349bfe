"""Run-time tracing of propertime's layers, installed from the benchmark.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces module and
class attributes with wrappers through ``setattr`` and :meth:`Tracer.uninstall`
puts the originals back.  A module-level function is replaced in every
``propertime`` module that binds the same object, so ``from .kinematics
import gamma`` in ``group`` is traced as well.

Two kinds of wrapper:

* a *span* at a layer entry records name, start, end, self time (duration
  minus the time of its direct child spans), the enclosing span and the op it
  belongs to;
* a *count* at a hot inner call only increments a counter keyed by the call,
  the innermost open span and the current op's tag.

``dynamics.integrate_orbit`` binds ``hamilton_rhs`` as a default argument, so
a wrapper on ``hamilton_rhs`` would see nothing; its callees (``h_zero``,
``kinetic_momentum``, ``PhaseState``) are counted instead.

A target missing from the program (renamed or removed by a later change) is
skipped and listed in :attr:`Tracer.missing`; the metrics it feeds read 0.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "kinematics", "group", "dynamics", "many", "fields", "spectral")
FIELD_KINDS = ("uniform", "oscillating", "sampled")
# source kind of the fields_at calls each op tag makes (the fields scenario uses
# a uniformly moving source)
FIELD_KIND_OF_TAG = {
    "field.uniform": "uniform",
    "field.oscillating": "oscillating",
    "field.sampled": "sampled",
    "scenario.fields": "uniform",
}
CHEAP_SCENARIOS = ("scenario.redshift", "scenario.muon", "scenario.rest_source", "scenario.transform")


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _orbit_attrs(args, kwargs):
    return {"steps": int(_arg(args, kwargs, 3, "n_steps"))}


def _system_attrs(args, kwargs):
    attrs = {"n": int(_arg(args, kwargs, 0, "sys").n)}
    if len(args) > 2 or "n_steps" in kwargs:
        attrs["steps"] = int(_arg(args, kwargs, 2, "n_steps"))
    return attrs


def _build_attrs(args, kwargs):
    # args = (self, params, n, spacing)
    params = _arg(args, kwargs, 1, "params")
    n = int(_arg(args, kwargs, 2, "n"))
    spacing = float(_arg(args, kwargs, 3, "spacing"))
    return {"n": n, "key": [params.mu, params.hbar, params.m, params.c, n, spacing]}


def _write_attrs(args, kwargs):
    # runs when the write has returned, so the file holds this table
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


# (module, dotted attribute, span name or None for the default "<module>.<attr>",
#  attribute extractor)
SPANS = [
    ("cli", "main", None, None),
    ("cli", "ScenarioConfig.from_path", None, None),
    ("cli", "ResultTable.write", None, _write_attrs),
    ("kinematics", "*", None, None),
    ("group", "*", None, None),
    ("group", "BoostParameters.__init__", "group.BoostParameters", None),
    ("dynamics", "integrate_orbit", None, _orbit_attrs),
    ("many", "verify_algebra", None, _system_attrs),
    ("many", "free_flight", None, _system_attrs),
    ("fields", "fields_at", None, None),
    ("fields", "retarded_time", None, None),
    ("spectral", "SqrtOperator1D.__init__", "spectral.SqrtOperator1D.build", _build_attrs),
    ("spectral", "SqrtOperator1D.apply", None, None),
    ("spectral", "momentum_oracle", None, None),
    ("spectral", "fit_kernel_decay", None, None),
]

COUNTS = [
    ("dynamics", "h_zero", None),
    ("dynamics", "kinetic_momentum", None),
    ("dynamics", "PhaseState.__init__", "dynamics.PhaseState"),
    ("many", "phase_gradient", None),
    ("many", "ParticleSystem.particle_energies", None),
    ("many", "center_of_mass", None),
    ("many", "clock_ratio", None),
    ("many", "system_invariants", None),
    ("fields", "SourceTrajectory.b", None),
    ("fields", "SourceTrajectory.x", None),
    ("spectral", "line_kernel_weight", None),
]


class Tracer:
    """Spans and counters of one traced pass, kept in memory until written."""

    def __init__(self):
        self.on = False
        self.op = -1          # index of the op being run
        self.tag = ""         # class of the op being run, e.g. "field.sampled"
        self.stack = []       # open spans: [name, child_seconds, span_id]
        self.spans = []       # (id, parent_id, name, op, tag, t0, t1, self_s, attrs)
        self.counts = defaultdict(int)  # (name, innermost span, op tag) -> calls
        self._next_id = 0
        self.missing = []
        self._patches = []

    # -- wrappers -------------------------------------------------------
    def _span(self, name, fn, attrs_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][2] if stack else None
            rec = [name, 0.0, span_id]
            stack.append(rec)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                attrs = None
                if attrs_of is not None:
                    try:
                        attrs = attrs_of(args, kwargs)
                    except (AttributeError, IndexError, OSError, TypeError, ValueError):
                        attrs = None
                tracer.spans.append(
                    (span_id, parent, name, tracer.op, tracer.tag, t0, t1, t1 - t0 - rec[1], attrs)
                )

        return wrapper

    def _count(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.on:
                stack = tracer.stack
                tracer.counts[(name, stack[-1][0] if stack else None, tracer.tag)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def root(self, op, tag, fn):
        """Run ``fn`` as the root span of one op."""
        self.op, self.tag = op, tag
        return self._span("harness.op", fn, None)()

    # -- installation ---------------------------------------------------
    def install(self, package="propertime"):
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        for modname, attr, span_name, attrs_of in SPANS:
            mod = modules.get(f"{package}.{modname}")
            if attr != "*":
                names = [attr]
            else:  # every public function of the module
                names = [n for n in getattr(mod, "__all__", ())
                         if inspect.isfunction(getattr(mod, n, None))]
            for one in names:
                self._patch(modules, mod, modname, one, span_name,
                            lambda n, f, a=attrs_of: self._span(n, f, a))
        for modname, attr, count_name in COUNTS:
            mod = modules.get(f"{package}.{modname}")
            self._patch(modules, mod, modname, attr, count_name, self._count)

    def _patch(self, modules, mod, modname, attr, name, make):
        name = name or f"{modname}.{attr}"
        owner, leaf = mod, attr
        if "." in attr:
            cls_name, leaf = attr.split(".", 1)
            owner = getattr(mod, cls_name, None)
        raw = vars(owner).get(leaf) if owner is not None else None
        if raw is None:
            self.missing.append(name)
            return
        if isinstance(raw, classmethod):
            replacement = classmethod(make(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(make(name, raw.__func__))
        else:
            replacement = make(name, raw)
        targets = [(owner, leaf)]
        if owner is mod:  # rebind every module that imported the same function
            targets += [
                (other, key) for other in modules.values() if other is not mod
                for key, value in vars(other).items() if value is raw
            ]
        for target, key in targets:
            self._patches.append((target, key, vars(target)[key]))
            setattr(target, key, replacement)

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------
    def write_spans(self, path):
        """Write every span as one JSON line; times are relative to the first span."""
        origin = min((s[5] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, op, tag, t0, t1, self_s, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "op": op, "tag": tag,
                    "start_s": t0 - origin, "end_s": t1 - origin, "self_s": self_s,
                    "attrs": attrs,
                }) + "\n")


# Per-layer metrics of a traced pass: (name, unit, better).
PER_LAYER = [
    ("cli.main.self_s", "s", "lower"),
    ("cli.ScenarioConfig.from_path.self_s", "s", "lower"),
    ("cli.ResultTable.write.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("kinematics.calls", "count", "lower"),
    ("kinematics.self_s", "s", "lower"),
    ("group.calls", "count", "lower"),
    ("group.self_s", "s", "lower"),
    ("dynamics.integrate_orbit.busy_s", "s", "lower"),
    ("dynamics.integrate_orbit.steps", "count", "higher"),
    ("dynamics.us_per_step", "us", "lower"),
    ("dynamics.h_zero.calls_per_step", "count", "lower"),
    ("dynamics.kinetic_momentum.calls_per_step", "count", "lower"),
    ("dynamics.PhaseState.per_step", "count", "lower"),
    ("many.free_flight.busy_s", "s", "lower"),
    ("many.verify_algebra.busy_s", "s", "lower"),
    ("many.phase_gradient.calls", "count", "lower"),
    ("many.ParticleSystem.particle_energies.calls", "count", "lower"),
    ("many.center_of_mass.calls", "count", "lower"),
    ("many.clock_ratio.calls", "count", "lower"),
    ("many.system_invariants.calls", "count", "lower"),
    ("fields.fields_at.busy_s", "s", "lower"),
    ("fields.retarded_time.busy_s", "s", "lower"),
    *[(f"fields.ms_per_point.{k}", "ms", "lower") for k in FIELD_KINDS],
    *[(f"fields.b_evals_per_point.{k}", "count", "lower") for k in FIELD_KINDS],
    *[(f"fields.x_evals_per_point.{k}", "count", "lower") for k in FIELD_KINDS],
    ("spectral.SqrtOperator1D.builds", "count", "lower"),
    ("spectral.SqrtOperator1D.build_s", "s", "lower"),
    ("spectral.line_kernel_weight.calls_per_cell", "count", "lower"),
    ("spectral.repeat_build_frac", "frac", "lower"),
    ("spectral.SqrtOperator1D.apply.self_s", "s", "lower"),
    ("spectral.momentum_oracle.self_s", "s", "lower"),
    ("spectral.fit_kernel_decay.busy_s", "s", "lower"),
    *[(f"{layer}.self_share", "frac", "lower") for layer in LAYERS],
    ("harness.self_share", "frac", "lower"),
    ("cli.self_share.cheap_ops", "frac", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def self_shares(spans, tags=None):
    """Share of op time spent in each layer's own code (spans minus children)."""
    by_layer = defaultdict(float)
    total = 0.0
    for _, _, name, _, tag, t0, t1, self_s, _ in spans:
        if tags is not None and tag not in tags:
            continue
        by_layer[name.split(".", 1)[0]] += self_s
        if name == "harness.op":
            total += t1 - t0
    return {layer: _ratio(by_layer[layer], total) for layer in (*LAYERS, "harness")}


def layer_metrics(tracer, traced_ops_per_s, untraced_ops_per_s):
    """Every PER_LAYER metric from one traced pass."""
    spans = tracer.spans
    self_s = defaultdict(float)
    busy = defaultdict(float)
    calls = defaultdict(int)
    for _, _, name, _, _, t0, t1, s, _ in spans:
        self_s[name] += s
        busy[name] += t1 - t0
        calls[name] += 1

    def layer_sum(table, layer):
        return sum(v for k, v in table.items() if k.startswith(layer + "."))

    def counted(name, within=None, kind=None):
        return sum(
            v for (n, span, tag), v in tracer.counts.items()
            if n == name and (within is None or span == within)
            and (kind is None or FIELD_KIND_OF_TAG.get(tag) == kind)
        )

    orbit = "dynamics.integrate_orbit"
    steps = sum(s[8]["steps"] for s in spans if s[2] == orbit and s[8])
    builds = [s for s in spans if s[2] == "spectral.SqrtOperator1D.build"]
    seen, repeats, cells = set(), 0, 0
    for s in builds:
        if s[8]:
            key = tuple(s[8]["key"])
            repeats += key in seen
            seen.add(key)
            cells += s[8]["n"]
    bytes_written = sum(s[8]["bytes"] for s in spans if s[2] == "cli.ResultTable.write" and s[8])

    m = {
        "cli.main.self_s": self_s["cli.main"],
        "cli.ScenarioConfig.from_path.self_s": self_s["cli.ScenarioConfig.from_path"],
        "cli.ResultTable.write.self_s": self_s["cli.ResultTable.write"],
        "cli.bytes_written": bytes_written,
        "kinematics.calls": layer_sum(calls, "kinematics"),
        "kinematics.self_s": layer_sum(self_s, "kinematics"),
        "group.calls": layer_sum(calls, "group"),
        "group.self_s": layer_sum(self_s, "group"),
        "dynamics.integrate_orbit.busy_s": busy[orbit],
        "dynamics.integrate_orbit.steps": steps,
        "dynamics.us_per_step": 1e6 * _ratio(busy[orbit], steps),
        "dynamics.h_zero.calls_per_step": _ratio(counted("dynamics.h_zero", orbit), steps),
        "dynamics.kinetic_momentum.calls_per_step":
            _ratio(counted("dynamics.kinetic_momentum", orbit), steps),
        "dynamics.PhaseState.per_step": _ratio(counted("dynamics.PhaseState", orbit), steps),
        "many.free_flight.busy_s": busy["many.free_flight"],
        "many.verify_algebra.busy_s": busy["many.verify_algebra"],
        "many.phase_gradient.calls": counted("many.phase_gradient"),
        "many.ParticleSystem.particle_energies.calls":
            counted("many.ParticleSystem.particle_energies"),
        "many.center_of_mass.calls": counted("many.center_of_mass"),
        "many.clock_ratio.calls": counted("many.clock_ratio"),
        "many.system_invariants.calls": counted("many.system_invariants"),
        "fields.fields_at.busy_s": busy["fields.fields_at"],
        "fields.retarded_time.busy_s": busy["fields.retarded_time"],
        "spectral.SqrtOperator1D.builds": len(builds),
        "spectral.SqrtOperator1D.build_s": busy["spectral.SqrtOperator1D.build"],
        "spectral.line_kernel_weight.calls_per_cell": _ratio(
            counted("spectral.line_kernel_weight", "spectral.SqrtOperator1D.build"), cells
        ),
        "spectral.repeat_build_frac": _ratio(repeats, len(builds)),
        "spectral.SqrtOperator1D.apply.self_s": self_s["spectral.SqrtOperator1D.apply"],
        "spectral.momentum_oracle.self_s": self_s["spectral.momentum_oracle"],
        "spectral.fit_kernel_decay.busy_s": busy["spectral.fit_kernel_decay"],
    }
    for kind in FIELD_KINDS:
        points = [s for s in spans
                  if s[2] == "fields.fields_at" and FIELD_KIND_OF_TAG.get(s[4]) == kind]
        m[f"fields.ms_per_point.{kind}"] = 1e3 * _ratio(sum(s[6] - s[5] for s in points), len(points))
        m[f"fields.b_evals_per_point.{kind}"] = _ratio(
            counted("fields.SourceTrajectory.b", kind=kind), len(points))
        m[f"fields.x_evals_per_point.{kind}"] = _ratio(
            counted("fields.SourceTrajectory.x", kind=kind), len(points))
    for layer, share in self_shares(spans).items():
        m[f"{layer}.self_share"] = share
    m["cli.self_share.cheap_ops"] = self_shares(spans, CHEAP_SCENARIOS)["cli"]
    m["trace.ops_per_s"] = traced_ops_per_s
    m["trace.untraced_ops_per_s"] = untraced_ops_per_s
    m["trace.overhead_frac"] = 1.0 - _ratio(traced_ops_per_s, untraced_ops_per_s)
    return m
