"""One assembled image per process, one decode table per image.

``build_rfid_program`` memoizes the fuzz guest, so every leg of a
campaign loads the same read-only :class:`Program`, and
``TargetDevice.load_program`` seeds each CPU's decode cache with a copy
of that image's decode table.  These tests pin the three properties the
sharing rests on: the table is exactly what a live decode produces, no
CPU writes through to it, and the memo never shows in a report.
"""

from __future__ import annotations

import pytest

from repro.apps.asm_programs import (
    assemble_fibonacci,
    assemble_heartbeat,
    assemble_summation,
)
from repro.apps.rfid_isa import RfidIsaFirmware, build_rfid_program
from repro.campaign.config import CampaignConfig
from repro.campaign.report import render_json
from repro.campaign.scheduler import run_campaign
from repro.mcu.assembler import assemble
from repro.mcu.cpu import Halted
from repro.mcu.isa import Op, decode
from repro.sim.kernel import Simulator
from repro.testing import ISA_LOOP_SOURCE, make_bench_target

#: Every image shipped in ``src/``.
IMAGES = {
    "rfid_naive_10": lambda: build_rfid_program(False, 10),
    "rfid_protected_10": lambda: build_rfid_program(True, 10),
    "rfid_naive_300": lambda: build_rfid_program(False, 300),
    "rfid_protected_300": lambda: build_rfid_program(True, 300),
    "fibonacci": assemble_fibonacci,
    "summation": assemble_summation,
    "heartbeat": assemble_heartbeat,
    "perf_isa_loop": lambda: assemble(ISA_LOOP_SOURCE),
}


def _loaded(program):
    device = make_bench_target(Simulator(seed=3))
    device.load_program(program)
    return device


def _data_addresses(program) -> set[int]:
    """Labels inside the image that name data, not instructions."""
    end = program.origin + program.size_bytes
    return {
        address
        for address in program.symbols.values()
        if program.origin <= address < end and address not in program.line_map
    }


@pytest.mark.parametrize("name", sorted(IMAGES))
def test_decode_table_equals_a_live_decode(name):
    program = IMAGES[name]()
    table = program.decode_table
    assert set(table) == set(program.line_map)
    device = _loaded(program)
    read = device.memory.read_u16
    for address, entry in table.items():
        instruction, size = decode(read, address)
        assert entry == (instruction, size, instruction.cycles()), hex(address)
    cpu = device.cpu
    assert cpu._decode_cache == table
    assert cpu._decode_cache is not table
    # A guest data store must never land in the seeded span, or every
    # such store would wipe the decode cache.
    data = _data_addresses(program)
    assert data
    assert not [a for a in data if cpu._cache_lo <= a < cpu._cache_hi]


def test_a_cpu_never_writes_to_the_shared_table():
    program = build_rfid_program(False, 10)
    before = dict(program.decode_table)
    entry = program.entry
    original = before[entry][0]
    assert original.op is not Op.HALT

    a = _loaded(program)
    a.memory.write_bytes(entry, assemble("halt").to_bytes())
    with pytest.raises(Halted):
        a.cpu.step()

    b = _loaded(program)
    assert b.cpu.step() == original
    assert program.decode_table == before


def test_one_program_per_build_whatever_the_stimulus():
    first = RfidIsaFirmware(False, 12, b"\x00")
    second = RfidIsaFirmware(False, 12, b"\x40\xc1")
    assert first._program is second._program
    assert RfidIsaFirmware(True, 12, b"\x00")._program is not first._program


@pytest.mark.parametrize("workers", [1, 2])
def test_memo_is_invisible_in_reports(workers):
    import repro.campaign.forking as forking

    config = CampaignConfig(
        app="rfid_firmware", mode="fuzz", runs=60, seed=5, workers=workers
    )

    def report() -> str:
        forking._continuous_memo.clear()
        return render_json(run_campaign(config))

    build_rfid_program.cache_clear()
    cold = report()
    for protect in (False, True):  # warm before any worker forks
        build_rfid_program(protect, config.iterations)
    assert report() == cold


def test_code_overwritten_by_a_later_org_is_left_to_the_lazy_path():
    program = assemble("start: mov #1, r4\nhalt\n.org 0xA000\n.word 0xFFFF")
    assert sorted(program.line_map) == [0xA000, 0xA006]
    assert list(program.decode_table) == [0xA006]
    _loaded(program)  # loading never decodes the overwritten word
