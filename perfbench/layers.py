"""Which program functions each per-layer metric wraps, and how to read them.

``install`` puts the probes in place; ``layer_metrics`` turns the
probe statistics into the ``per_layer`` metrics of BENCHMARK.json.
README.md says which end-to-end metric each layer should move.
"""

from __future__ import annotations

import functools
import inspect
import statistics

from workloads import FIGURES
from tracer import Stat, Tracer

#: Module-name prefixes whose references to a wrapped function are rebound.
ALIAS_PREFIXES = ("repro", "_perfbench_")

#: Timed, without spans: each is called too often to record every call.
TIMED = {
    "mcu.execute_cycles": ["repro.mcu.device:TargetDevice.execute_cycles"],
    "power.step": ["repro.power.supply:PowerSystem.step"],
    # The kernel's event-advancing entry points (run_until has no callers).
    "sim.advance": [
        f"repro.sim.kernel:Simulator.{name}"
        for name in ("advance", "advance_to", "run_until")
    ],
    "core.energy_guard.begin": ["repro.core.board:EDBBoard.begin_energy_guard"],
    "core.energy_guard.end": ["repro.core.board:EDBBoard.end_energy_guard"],
    "core.printf": ["repro.core.libedb:LibEDB.printf"],
    "core.target_memory": [
        "repro.core.board:EDBBoard.read_target_memory",
        "repro.core.board:EDBBoard.write_target_memory",
    ],
    "campaign.oracle": ["repro.campaign.oracle:compare"],
    "campaign.journal": ["repro.campaign.journal:JournalWriter.chunk_done"],
    "campaign.report": ["repro.campaign.report:build_report"],
    "campaign.fuzz.mutate": [
        f"repro.campaign.fuzz:{name}"
        for name in ("nudge", "splice", "havoc", "mutate_stimulus")
    ],
    "campaign.fuzz.corpus": [
        "repro.campaign.corpus:Corpus.consider",
        "repro.campaign.corpus:Corpus.pick",
    ],
    "debug.dispatch": ["repro.debug.service:DebugService.dispatch"],
}

#: Coarse boundaries: timed, and each call recorded as a trace span.
SPANS = {
    "power.charge_until_on": ["repro.power.supply:PowerSystem.charge_until_on"],
    "runtime.checkpoint": ["repro.runtime.checkpoint:CheckpointManager.checkpoint"],
    "runtime.restore": ["repro.runtime.checkpoint:CheckpointManager.restore"],
    "core.breakpoint": ["repro.core.board:EDBBoard.service_breakpoint"],
    "snapshot.capture": ["repro.snapshot:capture"],
    "snapshot.restore": ["repro.snapshot:restore"],
    "campaign.run": ["repro.campaign.scheduler:run_campaign"],
}

#: Counted only.
COUNTED = {
    "mcu.power_failures": ["repro.mcu.device:PowerFailure.__init__"],
    "runtime.tasks": ["repro.runtime.tasks:TaskRuntime.run_one_task"],
    "campaign.errors": ["repro.campaign.errors:error_record"],
    "debug.errors": ["repro.debug.protocol:error_response"],
}

#: Every public method these classes define is one probe.
CLASS_METHODS = {
    "mcu.hlapi": ["repro.mcu.hlapi:DeviceAPI"],
    "runtime.nv": [
        "repro.runtime.nonvolatile:StructView",
        "repro.runtime.nonvolatile:NVCounter",
        "repro.runtime.nonvolatile:NVLinkedList",
        "repro.runtime.nonvolatile:SafeNVLinkedList",
    ],
}

SHRINK_PASSES = [
    "repro.campaign.scheduler:_shrink_pass",
    "repro.campaign.fuzz:_fuzz_shrink_pass",
]
#: How a campaign run's intermittent leg executes.  A leg run inside a
#: shrink pass is a ddmin probe, counted in ``campaign.shrink.probes``.
RUN_LEGS = {
    "campaign.legs.forked": ["repro.campaign.forking:ForkSession.execute"],
    "campaign.legs.from_reset": [
        "repro.campaign.runner:run_intermittent_leg",
        "repro.campaign.fuzz:_fuzz_intermittent_leg",
    ],
}
#: Lane engine: one call runs a whole group; each returned record is one leg.
BATCH_GROUP = "repro.batch.engine:execute_batch_group"

EXECUTOR_LEGS = [
    "repro.runtime.executor:IntermittentExecutor.run",
    "repro.runtime.executor:IntermittentExecutor.run_continuous",
    "repro.runtime.isa_executor:IsaIntermittentExecutor.run",
]
CONTINUOUS = [
    "repro.campaign.forking:continuous_observation",
    "repro.campaign.fuzz:_fuzz_continuous_leg",
    "repro.campaign.runner:run_continuous_leg",
]


def _public_methods(target: str) -> list[str]:
    module_name, _, class_name = target.partition(":")
    cls = getattr(__import__(module_name, fromlist=[class_name]), class_name)
    return [
        f"{target}.{name}" for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
        # A @contextmanager body runs after the call returns: untimeable.
        and not inspect.isgeneratorfunction(getattr(value, "__wrapped__", None))
    ]


def install(tracer: Tracer) -> list[float]:
    """Wrap every probed function; returns the server's per-request
    ``handle_line`` durations list, filled as requests are served."""
    for name, targets in TIMED.items():
        for target in targets:
            tracer.patch(target, lambda fn, n=name: tracer.timed(n, fn))
    for name, targets in SPANS.items():
        for target in targets:
            tracer.patch(target, lambda fn, n=name: tracer.timed(n, fn, span=True))
    for name, targets in COUNTED.items():
        for target in targets:
            tracer.patch(target, lambda fn, n=name: tracer.count(n, fn))
    for name, classes in CLASS_METHODS.items():
        for cls in classes:
            for target in _public_methods(cls):
                tracer.patch(target, lambda fn, n=name: tracer.timed(n, fn))

    # Dispatch: a call is one dispatch unless it is nested in another
    # (step_block deoptimizing to step); instructions are the CPU's
    # retired-count delta, which also covers a block cut by an exception.
    depth = [0]

    def dispatch_probe(name: str):
        stat = tracer.stat(name)

        def before(args):
            depth[0] += 1
            return depth[0] == 1, args[0].instructions_retired

        def after(token, args, took):
            depth[0] -= 1
            top, retired = token
            if top:
                stat.bump("dispatches")
                stat.bump("instructions", args[0].instructions_retired - retired)

        return lambda fn: tracer.timed(name, fn, before=before, after=after)

    tracer.patch("repro.mcu.cpu:Cpu.step", dispatch_probe("mcu.step"))
    tracer.patch("repro.mcu.cpu:Cpu.step_block", dispatch_probe("mcu.step_block"))

    executor = tracer.stat("runtime.executor")
    for target in (EXECUTOR_LEGS[0], EXECUTOR_LEGS[2]):
        tracer.patch(target, lambda fn: tracer.timed("runtime.executor", fn,
                                                     span=True))

    # A continuous-leg request is a memo hit when no continuous
    # execution happened inside it.
    memo = tracer.stat("campaign.continuous")
    memo_depth = [0]

    def memo_before(args):
        memo_depth[0] += 1
        return memo_depth[0] == 1, executor.extra.get("continuous", 0)

    def memo_after(token, args, took):
        memo_depth[0] -= 1
        top, executed = token
        if top:
            memo.bump("requests")
            if executor.extra.get("continuous", 0) == executed:
                memo.bump("hits")

    for target in CONTINUOUS:
        tracer.patch(target, lambda fn: tracer.timed(
            "campaign.continuous", fn, before=memo_before, after=memo_after))

    def continuous_leg(fn):
        def after(token, args, took):
            executor.bump("continuous")
        return tracer.timed("runtime.executor", fn, span=True, after=after)

    tracer.patch(EXECUTOR_LEGS[1], continuous_leg)

    # Campaign run legs, by how they execute; none inside a shrink pass.
    shrinking = [0]

    def shrink_before(args):
        shrinking[0] += 1

    def shrink_after(token, args, took):
        shrinking[0] -= 1

    for target in SHRINK_PASSES:
        tracer.patch(target, lambda fn: tracer.timed(
            "campaign.shrink", fn, span=True,
            before=shrink_before, after=shrink_after))

    def run_leg(name: str):
        stat = tracer.stat(name)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not shrinking[0]:
                    stat.calls += 1
                return fn(*args, **kwargs)
            return wrapper

        return make

    for name, targets in RUN_LEGS.items():
        for target in targets:
            tracer.patch(target, run_leg(name))

    batched = tracer.stat("campaign.legs.batched")

    def batch_group(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            records = fn(*args, **kwargs)
            # None: the group falls back to the scalar paths, counted there.
            if records is not None and not shrinking[0]:
                batched.calls += len(records)
            return records
        return wrapper

    tracer.patch(BATCH_GROUP, batch_group)

    # ddmin probes: count each evaluation of the predicate shrink_schedule
    # is handed.
    shrink = tracer.stat("campaign.shrink")

    def shrink_schedule(fn):
        @functools.wraps(fn)
        def wrapper(schedule, still_fails, *args, **kwargs):
            def probe(candidate):
                shrink.bump("probes")
                return still_fails(candidate)
            return fn(schedule, probe, *args, **kwargs)
        return wrapper

    tracer.patch("repro.campaign.shrinker:shrink_schedule", shrink_schedule)

    handled: list[float] = []
    tracer.patch("repro.debug.server:handle_line", lambda fn: tracer.timed(
        "debug.handle_line", fn, span=True,
        after=lambda token, args, took: handled.append(took)))
    tracer.rebind_aliases(ALIAS_PREFIXES)
    return handled


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: (name, unit, better) of every per-layer metric, in report order.
METRICS: list[tuple[str, str, str]] = []


def _metric(name: str, unit: str, better: str = "lower") -> None:
    METRICS.append((name, unit, better))


for _layer in ("mcu.step", "mcu.step_block"):
    _metric(f"{_layer}.calls", "count")
_metric("mcu.step.self_s", "s")
_metric("mcu.step_block.instructions", "count")
_metric("mcu.instructions_per_dispatch", "instr/dispatch", "higher")
for _layer in ("mcu.execute_cycles", "mcu.hlapi", "power.charge_until_on",
               "power.step", "sim.advance", "runtime.checkpoint",
               "runtime.restore", "runtime.nv", "core.energy_guard",
               "core.printf", "core.breakpoint", "core.target_memory",
               "snapshot.capture", "snapshot.restore", "campaign.oracle",
               "debug.dispatch"):
    _metric(f"{_layer}.calls", "count")
    _metric(f"{_layer}.self_s", "s")
for _name, _unit, _better in (
    ("mcu.power_failures", "count", "lower"),
    ("runtime.executor.legs", "count", "lower"),
    ("runtime.executor.incl_s", "s", "lower"),
    ("runtime.tasks.calls", "count", "lower"),
    ("campaign.legs.forked", "count", "lower"),
    ("campaign.legs.batched", "count", "lower"),
    ("campaign.legs.from_reset", "count", "lower"),
    ("campaign.fork_ratio", "ratio", "higher"),
    ("campaign.continuous.calls", "count", "lower"),
    ("campaign.continuous_memo_ratio", "ratio", "higher"),
    ("campaign.shrink.probes", "count", "lower"),
    ("campaign.shrink.incl_s", "s", "lower"),
    ("campaign.journal.appends", "count", "lower"),
    ("campaign.journal.self_s", "s", "lower"),
    ("campaign.report.self_s", "s", "lower"),
    ("campaign.errors", "count", "lower"),
    ("campaign.fuzz.mutations", "count", "lower"),
    ("campaign.fuzz.mutate_s", "s", "lower"),
    ("campaign.fuzz.corpus_s", "s", "lower"),
    ("debug.codec_s", "s", "lower"),
    ("debug.transport_p50_ms", "ms", "lower"),
    ("debug.errors", "count", "lower"),
):
    _metric(_name, _unit, _better)
for _figure in FIGURES:
    _metric(f"figure.{_figure}.s", "s")
_metric("trace.overhead_s", "s")


def layer_metrics(stats: dict[str, Stat], figure_s: dict[str, float],
                  transport_s: list[float], overhead_s: float) -> dict:
    """Every per-layer metric from merged probe statistics."""
    def get(name: str) -> Stat:
        return stats.get(name, Stat())

    values: dict[str, float] = {}
    for name, _unit, _better in METRICS:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            values[name] = getattr(get(layer), field)
    guard_begin, guard_end = get("core.energy_guard.begin"), get("core.energy_guard.end")
    values["core.energy_guard.calls"] = guard_begin.calls
    values["core.energy_guard.self_s"] = guard_begin.self_s + guard_end.self_s
    step, block = get("mcu.step"), get("mcu.step_block")
    values["mcu.step_block.instructions"] = block.extra.get("instructions", 0)
    values["mcu.instructions_per_dispatch"] = _ratio(
        step.extra.get("instructions", 0) + block.extra.get("instructions", 0),
        step.extra.get("dispatches", 0) + block.extra.get("dispatches", 0),
    )
    executor = get("runtime.executor")
    forked = get("campaign.legs.forked").calls
    batched = get("campaign.legs.batched").calls
    from_reset = get("campaign.legs.from_reset").calls
    memo = get("campaign.continuous")
    handle_line = get("debug.handle_line")
    values.update({
        "mcu.power_failures": get("mcu.power_failures").calls,
        "runtime.executor.legs": executor.calls,
        "runtime.executor.incl_s": executor.incl_s,
        "runtime.tasks.calls": get("runtime.tasks").calls,
        "campaign.legs.forked": forked,
        "campaign.legs.batched": batched,
        "campaign.legs.from_reset": from_reset,
        "campaign.fork_ratio": _ratio(
            forked + batched, forked + batched + from_reset),
        "campaign.continuous.calls": memo.extra.get("requests", 0),
        "campaign.continuous_memo_ratio": _ratio(
            memo.extra.get("hits", 0), memo.extra.get("requests", 0)),
        "campaign.shrink.probes": get("campaign.shrink").extra.get("probes", 0),
        "campaign.shrink.incl_s": get("campaign.shrink").incl_s,
        "campaign.journal.appends": get("campaign.journal").calls,
        "campaign.journal.self_s": get("campaign.journal").self_s,
        "campaign.report.self_s": get("campaign.report").self_s,
        "campaign.errors": get("campaign.errors").calls,
        "campaign.fuzz.mutations": get("campaign.fuzz.mutate").calls,
        "campaign.fuzz.mutate_s": get("campaign.fuzz.mutate").incl_s,
        "campaign.fuzz.corpus_s": get("campaign.fuzz.corpus").incl_s,
        "debug.codec_s": handle_line.incl_s - get("debug.dispatch").incl_s,
        "debug.transport_p50_ms": (
            statistics.median(transport_s) * 1e3 if transport_s else 0.0),
        "debug.errors": get("debug.errors").calls,
        "trace.overhead_s": overhead_s,
    })
    for figure in FIGURES:
        values[f"figure.{figure}.s"] = figure_s.get(figure, 0.0)
    return {name: values.get(name, 0) for name, _unit, _better in METRICS}
