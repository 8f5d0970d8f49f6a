"""Span tracer installed from outside the program.

`install` replaces each public function of the rrsim modules at every module
attribute that binds it (``best_snr_db`` in ``world``, ``runner`` and
``ntn_planner``; ``cascaded_gain`` in ``channel`` and ``ris_opt``; ...) and
each public method of the classes they define, with one wrapper per
original. A wrapper records a span (name, start, end, parent) while the
tracer is enabled and is a plain pass-through otherwise. Spans stay in
memory; `summary` derives counts, inclusive times and self times from their
parentage, and `write` dumps them at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

MODULES = ("simcore", "scenario", "channel", "world", "ris_opt", "cfmimo",
           "ntn_planner", "ric", "runner", "bench", "cli")

# Called hundreds of thousands of times per run: counted, not timed, so that
# their wrapper cost does not swamp the layer that calls them.
COUNT_ONLY = {"channel.throughput"}

SWEEPS = ("ris_opt.iterative_optimize", "ris_opt.grouping_optimize", "ris_opt.iterative_fixed_point")
APPS = ("FailureMonitor", "RecoveryPlanner", "RisCodebookTracker", "RisIterativeTuner",
        "CfClusterer", "ScriptRunner", "EnergyManager", "SensingManager")
ACTION_KINDS = ("DeployPlan", "ApplyRisConfig", "Recluster", "SwitchPolicy", "Note")


class Tracer:
    """Spans and counts of the passes run while `enabled` is set."""

    def __init__(self) -> None:
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        self.spans: list = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.evaluations = 0
        self.relay_pairs: set = set()
        self.actions: Counter = Counter()

    # --- wrappers ------------------------------------------------------------

    def timed(self, name: str, fn, name_of=None, note=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            span = [name if name_of is None else name_of(args), 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                note(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- notes on results ------------------------------------------------------

    def note_sweep(self, args, result) -> None:
        self.evaluations += result[1].evaluations_used

    def note_relay(self, args, result) -> None:
        self.relay_pairs.add((tuple(map(float, args[0])), tuple(map(float, args[1]))))

    def note_action(self, args, result) -> None:
        self.actions[args[1].kind] += 1

    # --- results -----------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        calls: Counter = Counter()
        inclusive: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        child_time = [0.0] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += dur
            # Inclusive time counts only the outermost span of a name.
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                inclusive[name] += dur
        for i, (name, start, end, parent) in enumerate(spans):
            self_time[name] += (end - start) - child_time[i]
        rebuilds = sum(
            1 for name, _, _, parent in spans
            if name == "world.World.snapshot" and parent >= 0
            and spans[parent][0] == "ric.Controller.snapshot"
        )

        def layer_self(prefix: str) -> float:
            return sum(v for k, v in self_time.items() if k.startswith(prefix))

        m = {
            "simcore.events": sum(v for k, v in calls.items() if k.startswith("simcore.handler.")),
            "simcore.dispatch_self_s": self_time["simcore.Kernel.run_until"],
            "scenario.load_s": inclusive["scenario.load_scenario"],
            "world.snapshot_calls": calls["world.World.snapshot"],
            "world.snapshot_s": inclusive["world.World.snapshot"],
            "world.snr_matrix_calls": calls["world.access_snr_matrix"],
            "world.snr_matrix_s": inclusive["world.access_snr_matrix"],
            "channel.cascaded_gain_calls": calls["channel.cascaded_gain"],
            "channel.cascaded_gain_s": inclusive["channel.cascaded_gain"],
            "channel.blocked_many_calls": calls["channel.segment_blocked_many"],
            "channel.blocked_many_s": inclusive["channel.segment_blocked_many"],
            "channel.los_blocked_calls": calls["channel.los_blocked"],
            "channel.los_blocked_s": inclusive["channel.los_blocked"],
            "channel.mcs_lookups": self.counts["channel.throughput"],
            "ris_opt.sweeps": sum(calls[s] for s in SWEEPS),
            "ris_opt.sweep_s": sum(inclusive[s] for s in SWEEPS),
            "ris_opt.evaluations": self.evaluations,
            "ris_opt.codebook_build_s": inclusive["ris_opt.build_codebook"],
            "ris_opt.select_codeword_calls": calls["ris_opt.select_codeword"],
            "ntn_planner.plan_s": inclusive["ntn_planner.build_plan"],
            "ntn_planner.place_s": inclusive["ntn_planner.place_ntn"],
            "ntn_planner.backhaul_s": inclusive["ntn_planner.form_backhaul"],
            "ntn_planner.relay_sweeps": calls["ntn_planner._try_ris_relay"],
            "ntn_planner.relay_pairs": len(self.relay_pairs),
            "ric.snapshot_calls": calls["ric.Controller.snapshot"],
            "ric.snapshot_rebuilds": rebuilds,
            "ric.ris_power_at_calls": calls["ric.Controller.ris_power_at"],
            "runner.measure_calls": calls["runner.Simulation.measure"],
            "runner.measure_s": inclusive["runner.Simulation.measure"],
            "cfmimo.cluster_calls": calls["cfmimo.cluster"],
            "cfmimo.cluster_s": inclusive["cfmimo.cluster"],
            "cli.self_s": layer_self("cli."),
            "bench.self_s": layer_self("bench."),
            "trace.spans": len(spans),
        }
        for app in APPS:
            m[f"ric.app_s.{app}"] = inclusive[f"ric.app.{app}"]
        for kind in ACTION_KINDS:
            m[f"ric.actions.{kind}"] = self.actions[kind]
        return m

    def write(self, path: str) -> None:
        """One JSON array per span: name, start and end in seconds from the
        first span, and the index of the parent span (-1 for none)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9), parent]))
                fh.write("\n")


def install(tracer: Tracer):
    """Wrap the program's public functions and methods in place; returns a
    function that puts the originals back."""
    mods = {name: importlib.import_module(f"rrsim.{name}") for name in MODULES}
    wrappers: dict[int, object] = {}
    undo: list = []  # (owner, attribute, original), in patch order

    def patch(owner, attr: str, new) -> None:
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    def wrap_function(fn, name: str):
        if id(fn) not in wrappers:
            if name in COUNT_ONLY:
                wrappers[id(fn)] = tracer.counted(name, fn)
            else:
                note = tracer.note_sweep if name in SWEEPS else None
                wrappers[id(fn)] = tracer.timed(name, fn, note=note)
        return wrappers[id(fn)]

    # Module-level functions, at every module attribute that binds them.
    originals = {}
    for mod_name, mod in mods.items():
        for attr, value in vars(mod).items():
            if inspect.isfunction(value) and not attr.startswith("_") and value.__module__ == mod.__name__:
                originals[id(value)] = (value, f"{mod_name}.{attr}")
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in originals and inspect.isfunction(value):
                fn, name = originals[id(value)]
                patch(mod, attr, wrap_function(fn, name))

    # Public methods of the classes each module defines.
    for mod_name, mod in mods.items():
        for cls in [v for v in vars(mod).values() if inspect.isclass(v) and v.__module__ == mod.__name__]:
            for attr, value in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                name = f"{mod_name}.{cls.__name__}.{attr}"
                if isinstance(value, (staticmethod, classmethod)):
                    patch(cls, attr, type(value)(tracer.timed(name, value.__func__)))
                elif inspect.isfunction(value):
                    patch(cls, attr, tracer.timed(name, value))

    # Boundaries that are not public names but carry a layer metric.
    simcore, ric, runner, world, planner = (mods[m] for m in ("simcore", "ric", "runner", "world", "ntn_planner"))
    for cls, mod_name in ((runner.Simulation, "runner"), (world.World, "world"), (ric.Controller, "ric")):
        patch(cls, "__init__", tracer.timed(f"{mod_name}.{cls.__name__}.__init__", cls.__init__))
    patch(ric.Controller, "_run_app", tracer.timed(
        "ric.app", ric.Controller._run_app, name_of=lambda args: f"ric.app.{args[1].name}"
    ))
    patch(ric.Controller, "apply_action", tracer.timed(
        "ric.Controller.apply_action", vars(ric.Controller)["apply_action"].__wrapped__,
        note=tracer.note_action,
    ))
    patch(planner, "_try_ris_relay", tracer.timed(
        "ntn_planner._try_ris_relay", planner._try_ris_relay, note=tracer.note_relay
    ))
    on = vars(simcore.Kernel)["on"].__wrapped__

    def on_traced(kernel, kind, handler):
        return on(kernel, kind, tracer.timed(f"simcore.handler.{kind.value}", handler))

    patch(simcore.Kernel, "on", on_traced)
    return uninstall
