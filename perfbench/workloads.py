"""The benchmark's four workloads, driven through the public entry points.

Each workload does a fixed amount of work for a given ``(seed,
seconds)``: ``seconds`` sets how many passes run, at a nominal pass
length measured on a 2-CPU x86-64 host, and never the wall clock, so
a traced run repeats exactly the work of an untraced one and its call
counts repeat exactly.  Every output is checked: paper renders against
the committed ``benchmarks/out/*.txt`` bytes, campaign reports and the
debug transcript against digests in ``pins.json``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS_PATH = HERE / "pins.json"
OUT_DIR = HERE / "out"

#: The 15 paper outputs, as named by ``report()`` in benchmarks/test_*.py.
FIGURES = (
    "ablation_checkpointing", "ablation_passive_interference",
    "ablation_restore_trim", "ablation_task_model", "fig11_energy_profile",
    "fig12_rfid_trace", "fig2_sawtooth", "fig3_intermittence_bug",
    "fig7_assert_tether", "fig9_energy_guards", "sec412_vreg_tracking",
    "sec413_marker_cost", "table2_interference", "table3_save_restore",
    "table4_printf_cost",
)


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Outcome:
    """What one measured pass set produced."""

    attempted: int
    failed: int
    wall_s: float
    #: Host seconds of each unit of work a user waits for: a suite
    #: regeneration, a campaign report, an inspect request.
    latencies_s: list[float]
    #: Ops per host second of each chunk of work (a suite pass, all the
    #: campaigns, a session round); their median is the throughput.
    rates: list[float]
    #: Digest over every output, compared between traced and untraced.
    digest: str
    mismatches: list[str] = field(default_factory=list)
    #: Named end-to-end figures for the human report: name -> (value, unit, n).
    named: dict = field(default_factory=dict)
    figure_s: dict = field(default_factory=dict)
    peak_rss_mb: float | None = None
    #: Exported tracer of a traced debug server.
    server_trace: dict | None = None
    #: Client latency minus server ``handle_line`` time, per request.
    transport_s: list[float] = field(default_factory=list)


# -- paper_figures -----------------------------------------------------------
class _StubBenchmark:
    """Stands in for pytest-benchmark's fixture: run the callable once."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, **_options):
        return fn(*args, **(kwargs or {}))


class PaperFigures:
    """Every paper table/figure generator in benchmarks/test_*.py, once."""

    name = "paper_figures"
    PASS_S = 30.0

    def setup(self) -> None:
        bench_dir = ROOT / "benchmarks"
        real = _load_module("_perfbench_conftest", bench_dir / "conftest.py")
        self.rendered: dict[str, str] = {}

        def report(name: str, lines: list[str]) -> str:
            # The committed renderer's text, kept in memory: never written.
            text = "\n".join(lines)
            self.rendered[name] = text + "\n"
            return text

        stub = types.ModuleType("conftest")
        stub.report = report
        stub.fmt_row = real.fmt_row
        sys.modules["conftest"] = stub
        self.tests = []
        for path in sorted(bench_dir.glob("test_*.py")):
            module = _load_module(f"_perfbench_{path.stem}", path)
            self.tests += [
                getattr(module, name) for name in sorted(vars(module))
                if name.startswith("test_") and callable(getattr(module, name))
            ]
        self.committed = {
            name: (bench_dir / "out" / f"{name}.txt").read_text()
            for name in FIGURES
        }

    def run(self, seed: int, seconds: float, tracer=None) -> Outcome:
        # The paper's inputs are fixed; the seed cannot change them.
        passes = max(1, round(seconds / self.PASS_S))
        tests = self.tests
        if tracer is not None:
            tests = [
                tracer.timed(f"figure.{t.__name__[5:]}", t, span=True)
                for t in tests
            ]
        latencies, figure_s, mismatches = [], {}, []
        digest = hashlib.sha256()
        for _ in range(passes):
            suite_start = time.perf_counter()
            for test in tests:
                self.rendered.clear()
                start = time.perf_counter()
                test(_StubBenchmark())
                took = time.perf_counter() - start
                for name, text in sorted(self.rendered.items()):
                    figure_s[name] = figure_s.get(name, 0.0) + took / passes
                    digest.update(f"{name}\0{text}\0".encode())
                    if text != self.committed.get(name):
                        mismatches.append(f"{name}: render differs from "
                                          f"benchmarks/out/{name}.txt")
            latencies.append(time.perf_counter() - suite_start)
        wall = sum(latencies)
        missing = sorted(set(FIGURES) - set(figure_s))
        mismatches += [f"{name}: not rendered" for name in missing]
        attempted = len(FIGURES) * passes
        return Outcome(
            attempted=attempted, failed=len(mismatches),
            wall_s=wall, latencies_s=latencies,
            rates=[len(FIGURES) / took for took in latencies],
            digest=digest.hexdigest(), mismatches=mismatches, figure_s=figure_s,
            named={"paper_suite_s": (wall / passes, "s", passes)},
        )

    def canary(self) -> list[str]:
        return []  # every pass is already checked byte for byte


def _load_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- campaigns ---------------------------------------------------------------
class _Campaign:
    """A campaign workload: ``passes`` run_campaign calls of RUNS runs."""

    name = ""
    RUNS = 0
    PASS_S = 1.0
    CANARY_RUNS = 0
    JOURNAL = False
    OPTIONS: dict = {}

    def setup(self) -> None:
        import repro.campaign

        # Called through the module so a traced run sees its wrappers.
        self.api = repro.campaign
        config = self.api.CampaignConfig(runs=self.RUNS, **self.OPTIONS)
        # Assemble the guest once, as the campaign's first leg would.
        self.api.get_adapter(config.app).build(config.protect, config.iterations)
        self.pins = load_pins()[self.name]

    def _campaign(self, campaign_seed: int, runs: int, journal_dir: str | None):
        config = self.api.CampaignConfig(
            runs=runs, seed=campaign_seed, workers=1, **self.OPTIONS
        )
        journal = None
        if journal_dir is not None:
            journal = os.path.join(journal_dir, f"seed{campaign_seed}.jsonl")
        start = time.perf_counter()
        report = self.api.run_campaign(config, journal_path=journal)
        took = time.perf_counter() - start
        return report, self.api.render_json(report), took

    def _check(self, key: str, report: dict, text: str, runs: int) -> list[str]:
        problems = []
        summary = report["summary"]
        verdicts = ("agree", "diverged", "inconclusive", "nonterminating",
                    "errors")
        if ("partial" in report or len(report["runs"]) != runs
                or sorted(r["index"] for r in report["runs"]) != list(range(runs))
                or sum(summary[v] for v in verdicts) != runs):
            problems.append(f"campaign {key}: not one record per run")
        pin = self.pins.get(key)
        if pin is not None:
            got = {
                "sha256": sha256(text),
                **{k: summary[k] for k in ("agree", "diverged",
                                           "observed_reboots")},
            }
            if got != pin:
                problems.append(f"campaign {key}: report {got} != pinned {pin}")
        return problems

    def run(self, seed: int, seconds: float, tracer=None) -> Outcome:
        passes = max(1, round(seconds / self.PASS_S))
        journal_dir = None
        if self.JOURNAL:
            OUT_DIR.mkdir(exist_ok=True)
            journal_dir = tempfile.mkdtemp(prefix="journal-", dir=OUT_DIR)
        latencies, mismatches = [], []
        digest = hashlib.sha256()
        failed = 0
        try:
            for index in range(passes):
                campaign_seed = seed * 1000 + index
                report, text, took = self._campaign(
                    campaign_seed, self.RUNS, journal_dir
                )
                latencies.append(took)
                digest.update(text.encode())
                problems = self._check(
                    f"{campaign_seed}:{self.RUNS}", report, text, self.RUNS
                )
                failed += report["summary"]["errors"] + len(problems)
                mismatches += problems
        finally:
            if journal_dir is not None:
                shutil.rmtree(journal_dir, ignore_errors=True)
        runs, wall = self.RUNS * passes, sum(latencies)
        # Whole campaigns differ in work by seed, so their total rate
        # varies less between seeds than the median campaign's rate.
        return Outcome(
            attempted=runs, failed=failed, wall_s=wall, latencies_s=latencies,
            rates=[runs / wall], digest=digest.hexdigest(),
            mismatches=mismatches,
            named={"runs_per_s": (runs / wall, "runs/s", passes)},
        )

    def canary(self) -> list[str]:
        """A small campaign at the default seed, checked against its pin."""
        report, text, _ = self._campaign(0, self.CANARY_RUNS, None)
        return self._check(f"0:{self.CANARY_RUNS}", report, text,
                           self.CANARY_RUNS)


class CampaignSample(_Campaign):
    """The default CampaignConfig (linked_list, four fault modes, shrink)."""

    name = "campaign_sample"
    RUNS = 1000
    PASS_S = 1.7
    CANARY_RUNS = 100
    JOURNAL = True
    OPTIONS: dict = {}


class CampaignFuzz(_Campaign):
    """Coverage-guided fuzzing of the ISA rfid_firmware target."""

    name = "campaign_fuzz"
    RUNS = 300
    PASS_S = 1.8
    CANARY_RUNS = 60
    OPTIONS = {"app": "rfid_firmware", "mode": "fuzz"}


# -- debug_session -----------------------------------------------------------
def launch_server(trace_out: str | None = None) -> subprocess.Popen:
    """Start ``edb-server`` on stdio through the benchmark's launcher.

    The caller (the client) and the server are pinned to one CPU.  Left
    to the scheduler, the closed loop's rate flips between two modes by
    whether both processes land on the same CPU: on a VM, waking a peer
    on another, idle CPU costs far more than a local switch.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    command = [sys.executable, str(HERE / "server_launcher.py")]
    if trace_out is not None:
        command += ["--trace-out", trace_out]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        bufsize=1, env=env, cwd=ROOT,
    )


def stop_server(process: subprocess.Popen) -> None:
    """Close the server's stdin (it drains and exits) and reap it."""
    try:
        if process.stdin is not None:
            process.stdin.close()
        process.wait(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    finally:
        if process.stdout is not None:
            process.stdout.close()


def connect(process: subprocess.Popen):
    from repro.debug.client import DebugClient

    def send(line: str) -> None:
        process.stdin.write(line)
        process.stdin.flush()

    return DebugClient(send, process.stdout.readline, lambda: None)


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


class DebugSessionWorkload:
    """One closed-loop client scripting edb-server sessions over stdio."""

    name = "debug_session"
    #: Nominal host seconds of one scripted session round.
    ROUND_S = 0.06
    RUNS_PER_ROUND = 3
    RUN_S = 0.02
    INSPECTS_PER_RUN = 16
    CANARY_SEED = 7
    INSPECT = ("mem.read", "regs.read", "energy.vcap")

    def setup(self) -> None:
        from repro.debug.client import DebugRpcError
        from repro.mcu.memory import FRAM_BASE

        self.DebugRpcError = DebugRpcError
        self.fram = FRAM_BASE
        self.pins = load_pins()[self.name]

    def _round(self, call, session_seed: int, rng: random.Random) -> None:
        """session.create ... session.close: the scripted console loop."""
        session = call("session.create", app="fibonacci", seed=session_seed,
                       iterations=198, distance_m=1.6)["session"]
        call("trace.enable", session=session, stream="energy")
        call("energy.charge", session=session, volts=2.4)
        call("break.on_hit", session=session, actions=[
            {"op": "read_u16", "address": self.fram},
            {"op": "charge", "volts": 2.3},
        ])
        call("break.add_energy", session=session, threshold_v=2.0)
        cursor = 0
        for _ in range(self.RUNS_PER_ROUND):
            call("run", session=session, duration=self.RUN_S)
            cursor = call("break.log", session=session,
                          cursor=cursor)["next_cursor"]
            for _ in range(self.INSPECTS_PER_RUN):
                method = self.INSPECT[rng.randrange(3)]
                if method == "mem.read":
                    call(method, session=session, count=2,
                         address=self.fram + 2 * rng.randrange(64))
                else:
                    call(method, session=session)
        cursor = 0
        while True:
            page = call("trace.poll", session=session, cursor=cursor,
                        limit=256, stream="energy")
            cursor = page["next_cursor"]
            if page["remaining"] == 0:
                break
        call("session.status", session=session)
        call("session.close", session=session)

    def run(self, seed: int, seconds: float, tracer=None) -> Outcome:
        rounds = max(1, round(seconds / self.ROUND_S))
        trace_out = None
        if tracer is not None:
            OUT_DIR.mkdir(exist_ok=True)
            trace_out = str(OUT_DIR / f"server-{os.getpid()}.json")
        process = launch_server(trace_out)
        client = connect(process)
        transcript = hashlib.sha256()
        inspect_s, run_s, sequence, mismatches = [], [], [], []
        failed = 0

        def call(method: str, **params):
            nonlocal failed
            start = time.perf_counter()
            try:
                result = client.call(method, **params)
            except self.DebugRpcError as exc:
                result = {"error": exc.code}
                failed += 1
            took = time.perf_counter() - start
            (run_s if method == "run" else inspect_s).append(took)
            sequence.append(took)
            transcript.update(json.dumps(result, sort_keys=True).encode())
            return result

        try:
            self._round(call, self.CANARY_SEED, random.Random(self.CANARY_SEED))
            if transcript.hexdigest() != self.pins["canary"]:
                mismatches.append("debug canary transcript differs from pin")
            for samples in (inspect_s, run_s, sequence):
                samples.clear()
            failed = 0
            transcript = hashlib.sha256()
            rng = random.Random(seed)
            rates = []
            for _ in range(rounds):
                start, done = time.perf_counter(), len(sequence)
                self._round(call, rng.randrange(1 << 30), rng)
                rates.append((len(sequence) - done) / (time.perf_counter() - start))
            wall = sum(sequence)
            rss = peak_rss_mb(process.pid)
        finally:
            stop_server(process)
        digest = transcript.hexdigest()
        pin = self.pins.get(f"{seed}:{rounds}")
        if pin is not None and pin != digest:
            mismatches.append(f"debug transcript {seed}:{rounds} differs from pin")
        server_trace, transport = None, []
        if trace_out is not None:
            server_trace = json.loads(Path(trace_out).read_text())
            os.unlink(trace_out)
            # handle_line times, in request order, after the canary round.
            handled = server_trace["handle_line_s"][-len(sequence):]
            transport = [c - h for c, h in zip(sequence, handled)]
        requests = len(inspect_s) + len(run_s)
        n99 = len(inspect_s)
        return Outcome(
            attempted=requests, failed=failed + len(mismatches),
            wall_s=wall, latencies_s=inspect_s, rates=rates, digest=digest,
            mismatches=mismatches, peak_rss_mb=rss,
            server_trace=server_trace, transport_s=transport,
            named={
                "rpc_p50_ms": (statistics.median(inspect_s) * 1e3, "ms", n99),
                "rpc_p99_ms": (percentile(inspect_s, 99) * 1e3, "ms", n99),
                "run_p50_ms": (statistics.median(run_s) * 1e3, "ms",
                               len(run_s)),
                "rpc_per_s": (statistics.median(rates), "req/s", rounds),
            },
        )

    def canary(self) -> list[str]:
        return []  # the canary round opens every session


WORKLOADS = {
    w.name: w
    for w in (PaperFigures, CampaignSample, CampaignFuzz, DebugSessionWorkload)
}
