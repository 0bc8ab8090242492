"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the
end-to-end metrics with no probes installed.  ``--trace 1`` first runs
the work untraced in a fresh ``child.py`` process, then runs it again
in this process with the layer probes of ``layers.py`` installed.  The
reference needs its own process because campaign memos and code caches
live for a whole process: a second pass in the same one would start
warm and understate the overhead.  The run checks that both passes
produce the same output bytes and reports the per-layer metrics plus
the tracing overhead (traced wall time minus untraced).

Every metric is printed on its own line with its unit and sample
count; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
with provenance goes to ``perfbench/out/``.  The exit status is 1 when
any output is wrong, 2 when the run is refused.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    OUT_DIR, ROOT, SRC, WORKLOADS, Outcome, connect, launch_server,
    stop_server,
)

#: Fresh-process set-ups timed per run; their median is ``setup_s``.
SETUP_SAMPLES = 7


def refuse(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def preflight() -> None:
    """Refuse non-default execution paths and checkouts without the program."""
    switched = sorted(
        k for k in os.environ if k.startswith(("REPRO_NO_", "REPRO_FORCE_"))
    )
    if switched:
        refuse(f"{', '.join(switched)} set: the benchmark measures only the "
               "default execution paths")
    for needed in (SRC / "repro" / "__init__.py", ROOT / "benchmarks" / "conftest.py"):
        if not needed.is_file():
            refuse(f"{needed.relative_to(ROOT)} is missing: run from the root "
                   "of a full checkout")


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host ran now.

    Shared hosts drift; recording this beside every result lets a reader
    tell a host slowdown from a program regression.
    """
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def provenance(args: argparse.Namespace) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    revision = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        revision = done.stdout.strip() or None
    source = hashlib.sha256()
    for pattern in ("src/**/*.py", "benchmarks/*.py", "benchmarks/out/*.txt",
                    "perfbench/*.py", "perfbench/*.json"):
        for path in sorted(ROOT.glob(pattern)):
            source.update(str(path.relative_to(ROOT)).encode() + b"\0")
            source.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy_version, "nproc": os.cpu_count(),
        "machine": platform.machine(), "git_revision": revision,
        "source_sha256": source.hexdigest(), "host_loop_ms": host_loop_ms(),
    }


def spawn_child(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


def measure_setup(name: str) -> list[float]:
    """Spawn-to-ready seconds of SETUP_SAMPLES fresh set-ups."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        if name == "debug_session":
            process = launch_server()
            try:
                connect(process).ping()
                samples.append(time.perf_counter() - start)
            finally:
                stop_server(process)
            continue
        process = spawn_child(name)
        with process.stdout:
            line = process.stdout.readline()
            samples.append(time.perf_counter() - start)
        if process.wait(timeout=120) != 0 or line != "ready\n":
            raise RuntimeError(f"set-up of {name} failed")
    return samples


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, args) -> tuple[dict, dict, list[str]]:
    setup = measure_setup(workload.name)
    workload.setup()
    outcome = workload.run(args.seed, args.seconds)
    canary = workload.canary()
    problems = outcome.mismatches + canary
    failed = outcome.failed + len(canary)
    rss = outcome.peak_rss_mb or own_peak_rss_mb()
    latencies = outcome.latencies_s
    named = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "ops_per_s": (statistics.median(outcome.rates), "1/s",
                      len(outcome.rates)),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms", len(latencies)),
        "peak_rss_mb": (rss, "MB", 1),
    }
    metrics = {name: value for name, (value, _, _) in named.items()}
    named.update(outcome.named)
    named["error_rate"] = (failed / outcome.attempted, "fraction",
                           outcome.attempted)
    return metrics, {"named": named, "attempted": outcome.attempted,
                     "failed": failed}, problems


def per_layer(workload, args, meta: dict) -> tuple[dict, dict, list[str]]:
    import layers
    from tracer import Tracer, chrome_trace, write_json

    # The untraced reference runs in a fresh process, as the traced run
    # does here: both start with empty campaign memos and code caches.
    child = spawn_child(workload.name, str(args.seed), str(args.seconds))
    with child.stdout:
        lines = child.stdout.read().splitlines()
    if child.wait() != 0 or not lines or lines[0] != "ready":
        raise RuntimeError(f"untraced reference run of {workload.name} failed")
    base = Outcome(latencies_s=[], rates=[], **json.loads(lines[-1]))
    workload.setup()
    tracer = Tracer()
    layers.install(tracer)
    traced = workload.run(args.seed, args.seconds, tracer)
    problems = base.mismatches + traced.mismatches
    if traced.digest != base.digest:
        problems.append("outputs differ between the traced and untraced runs")
    stats = dict(tracer.stats)
    processes = [(f"perfbench {workload.name}", tracer.export())]
    if traced.server_trace is not None:
        Tracer.merge_stats(stats, traced.server_trace)
        processes.append(("edb-server", traced.server_trace))
    metrics = layers.layer_metrics(
        stats, base.figure_s, traced.transport_s, traced.wall_s - base.wall_s
    )
    units = {name: unit for name, unit, _ in layers.METRICS}
    counts = {name: v for name, v in metrics.items() if units[name] == "count"}
    record = OUT_DIR / f"{workload.name}-seed{args.seed}-s{args.seconds}-counts.json"
    if record.exists():
        earlier = json.loads(record.read_text())
        if earlier["source_sha256"] == meta["source_sha256"] and earlier["counts"] != counts:
            changed = sorted(k for k in counts if earlier["counts"].get(k) != counts[k])
            problems.append(f"per-layer counts differ from the previous traced "
                            f"run at this seed: {changed}")
    write_json(str(record), {"source_sha256": meta["source_sha256"], "counts": counts})
    write_json(str(OUT_DIR / f"{workload.name}-seed{args.seed}.trace.json"),
               chrome_trace(processes, meta))
    named = {name: (value, units[name], 1) for name, value in metrics.items()}
    named["trace.untraced_wall_s"] = (base.wall_s, "s", 1)
    named["trace.traced_wall_s"] = (traced.wall_s, "s", 1)
    failed = base.failed + traced.failed + (traced.digest != base.digest)
    return metrics, {"named": named, "attempted": base.attempted + traced.attempted,
                     "failed": failed}, problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    preflight()
    sys.path.insert(0, str(SRC))
    meta = provenance(args)
    workload = WORKLOADS[args.workload]()
    if args.trace:
        metrics, detail, problems = per_layer(workload, args, meta)
    else:
        metrics, detail, problems = end_to_end(workload, args)
    units = {name: unit for name, (_, unit, _) in detail["named"].items()}
    for name, (value, unit, samples) in detail["named"].items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}  (n={samples})")
    print(f"{args.workload}  host_loop_ms = {meta['host_loop_ms']:.4g} ms  "
          "(provenance: fixed loop, median of 5)")
    for problem in problems:
        print(f"MISMATCH {problem}")
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not problems
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": meta, "correct": correct,
                    "problems": problems, "attempted": detail["attempted"],
                    "failed": detail["failed"],
                    "metrics": {k: {"value": v, "unit": u, "samples": n}
                                for k, (v, u, n) in detail["named"].items()}},
                   indent=1)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": int(detail["attempted"]),
        "failed": int(detail["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
