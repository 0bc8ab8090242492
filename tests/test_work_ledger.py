"""Exact work counts for fixed workloads, pinned at zero tolerance.

The simulation is deterministic, so the host work a fixed workload does
— instructions retired, blocks translated and dispatched, energy
spends, supply steps, simulator events, snapshot captures and restores,
campaign legs by execution path — is exact.  Every row of
``tests/data/work_ledger.json`` is recomputed here and must match byte
for byte: a change that adds or removes work fails at once, where a
timed gate would see only host noise.  Simulated totals (clock, energy,
capacitor voltage) are recorded as ``float.hex`` so no bit can hide.

The six paper-output rows are counted during the byte-pin render in
``tests/test_paper_outputs.py``, so one render serves both pins.

``REPRO_NO_BLOCKCACHE=1`` fails the ledger by design: it turns off
block translation and the spend window, and every row changes.  A
change that moves a count regenerates the ledger and states why, as it
would for the campaign golden::

    PYTHONPATH=src python tests/test_work_ledger.py

Call counts come from counting wrappers installed with ``monkeypatch``;
nothing in ``src/`` keeps a counter for this test.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import pytest

import repro.campaign.forking as forking
import repro.campaign.fuzz as fuzz
import repro.campaign.runner as runner
from repro.campaign.config import CampaignConfig
from repro.campaign.scheduler import run_campaign
from repro.mcu.assembler import assemble
from repro.mcu.device import PowerFailure, TargetDevice
from repro.power.supply import PowerSystem
from repro.sim.kernel import Simulator
from repro.testing import ISA_LOOP_SOURCE, make_bench_target, make_fast_target

LEDGER_PATH = Path(__file__).resolve().parent / "data" / "work_ledger.json"

#: Ledger key -> the ``(owner, attribute)`` callables whose calls it sums.
COUNTED = {
    "execute_cycles_calls": [(TargetDevice, "execute_cycles")],
    "power_step_calls": [(PowerSystem, "step")],
    "charge_until_on_calls": [(PowerSystem, "charge_until_on")],
    "legs_forked": [(forking.ForkSession, "execute")],
    "legs_from_reset": [
        (runner, "run_intermittent_leg"),
        (fuzz, "_fuzz_intermittent_leg"),
    ],
    "snapshot_captures": [(forking, "capture")],
    "snapshot_restores": [(forking, "restore")],
}

BLOCK_COUNTERS = ("blocks_translated", "blocks_executed", "blocks_deopts")


class WorkTally:
    """Counts calls to :data:`COUNTED` and the events of every simulator.

    The wrappers hold until ``monkeypatch`` undoes them, so build the
    tally before the workload constructs its devices.
    """

    def __init__(self, monkeypatch) -> None:
        self.calls = dict.fromkeys(COUNTED, 0)
        self.simulators: list[Simulator] = []
        for key, targets in COUNTED.items():
            for owner, name in targets:
                monkeypatch.setattr(
                    owner, name, self._counted(key, getattr(owner, name))
                )
        init = Simulator.__init__

        @functools.wraps(init)
        def tracked_init(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            self.simulators.append(sim)

        monkeypatch.setattr(Simulator, "__init__", tracked_init)

    def _counted(self, key: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def row(self, **fields) -> dict:
        """The counts so far, plus the workload's own ``fields``."""
        return {
            **self.calls,
            "events_fired": sum(sim._fired for sim in self.simulators),
            **fields,
        }


def _device_fields(sim: Simulator, target: TargetDevice) -> dict:
    cpu = target.cpu
    return {
        "instructions_retired": cpu.instructions_retired,
        **{key: getattr(cpu, key) for key in BLOCK_COUNTERS},
        "cycles_executed": target.cycles_executed,
        "reboots": target.power.reboots,
        "sim_now": sim.now.hex(),
        "energy_consumed": target.energy_consumed.hex(),
        "capacitor_v": target.power.capacitor.voltage.hex(),
    }


def _isa_loop() -> dict:
    sim = Simulator(seed=7)
    target = make_bench_target(sim)
    target.load_program(assemble(ISA_LOOP_SOURCE))
    target.run(30_128)
    return _device_fields(sim, target)


def _charge_discharge() -> dict:
    sim = Simulator(seed=11)
    target = make_fast_target(sim, distance_m=1.6, fading_sigma=0.0)
    for _ in range(6):
        target.power.charge_until_on()
        try:
            while True:
                target.execute_cycles(64)
        except PowerFailure:
            pass
    return _device_fields(sim, target)


def _campaign(config: CampaignConfig, **kwargs) -> dict:
    forking._continuous_memo.clear()
    stats: dict = {}
    run_campaign(config, stats=stats, **kwargs)
    return {key: stats[key] for key in BLOCK_COUNTERS}


def _campaign_sample() -> dict:
    return _campaign(CampaignConfig(
        app="linked_list", runs=3, seed=1234, workers=1, duration=0.5,
        shrink=False, capture=False,
    ))


def _campaign_prefix_fork() -> dict:
    # ``batch=False`` routes the pinned groups through ForkSession
    # chains and shrink replays whatever REPRO_NO_BATCH says.
    from tests.test_snapshot import PINNED_ENV_CONFIG

    return _campaign(PINNED_ENV_CONFIG, batch=False)


def _campaign_fuzz_grouped() -> dict:
    # Whole-round chunks, so jobs sharing a stimulus form fuzz fork groups.
    from tests.test_fuzz import FUZZ_KW

    return _campaign(CampaignConfig(**{**FUZZ_KW, "chunk": 3}))


#: Row name -> workload; each returns its row's workload-specific fields.
WORKLOADS = {
    "isa_loop": _isa_loop,
    "charge_discharge": _charge_discharge,
    "campaign_sample": _campaign_sample,
    "campaign_prefix_fork": _campaign_prefix_fork,
    "campaign_fuzz_grouped": _campaign_fuzz_grouped,
}


def render_row(row: dict) -> str:
    return json.dumps(row, indent=2, sort_keys=True)


def render_ledger(ledger: dict) -> str:
    return render_row(ledger) + "\n"


def assert_ledger_row(name: str, row: dict) -> None:
    """``row`` must equal the committed ledger row byte for byte."""
    committed = json.loads(LEDGER_PATH.read_text())[name]
    assert render_row(row) == render_row(committed)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_counts_match_ledger(name, monkeypatch):
    tally = WorkTally(monkeypatch)
    fields = WORKLOADS[name]()
    assert_ledger_row(name, tally.row(**fields))


def test_ledger_holds_exactly_the_pinned_rows():
    from tests.test_paper_outputs import CHEAP_OUTPUTS

    text = LEDGER_PATH.read_text()
    ledger = json.loads(text)
    assert sorted(ledger) == sorted([*WORKLOADS, *CHEAP_OUTPUTS])
    assert text == render_ledger(ledger)


def regenerate() -> dict:
    """Recompute every row and rewrite the committed ledger."""
    from tests.test_paper_outputs import CHEAP_OUTPUTS, render

    ledger = {}
    for name, workload in WORKLOADS.items():
        with pytest.MonkeyPatch.context() as monkeypatch:
            tally = WorkTally(monkeypatch)
            ledger[name] = tally.row(**workload())
    for name in CHEAP_OUTPUTS:
        with pytest.MonkeyPatch.context() as monkeypatch:
            tally = WorkTally(monkeypatch)
            render(name, monkeypatch)
            ledger[name] = tally.row()
    LEDGER_PATH.write_text(render_ledger(ledger))
    return ledger


if __name__ == "__main__":
    sys.path.insert(0, str(LEDGER_PATH.parents[2]))
    regenerate()
    print(f"wrote {LEDGER_PATH}")
