"""Byte pins on the paper's cheap outputs.

Regenerates the sub-second tables and figures in process — each
benchmark's own test function, with a ``report()`` that captures the
rendered text instead of writing it — and requires every render to
equal the committed ``benchmarks/out/<name>.txt`` byte for byte, so a
drift in any paper number fails tier-1 instead of waiting for a shape
assert to trip.  The same render is counted against its row of the
work-count ledger (``tests/test_work_ledger.py``).
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys
import types

import pytest

from tests.test_work_ledger import WorkTally, assert_ledger_row

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"

#: Output name -> the benchmark module that renders it.
CHEAP_OUTPUTS = {
    "fig2_sawtooth": "test_fig2_sawtooth",
    "table2_interference": "test_table2_interference",
    "sec412_vreg_tracking": "test_sec412_vreg_tracking",
    "sec413_marker_cost": "test_sec413_marker_cost",
    "ablation_restore_trim": "test_ablations",
    "ablation_passive_interference": "test_ablations",
}


class _Benchmark:
    """Stands in for pytest-benchmark's fixture: run the callable once."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, **_options):
        return fn(*args, **(kwargs or {}))


def _load(name: str, path: pathlib.Path) -> types.ModuleType:
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def render(name: str, monkeypatch) -> str:
    """Run output ``name``'s benchmark once; return the text it reports."""
    rendered = {}

    def report(output, lines):
        text = "\n".join(lines)
        rendered[output] = text + "\n"
        return text

    real = _load("_paper_conftest", BENCH_DIR / "conftest.py")
    stub = types.ModuleType("conftest")
    stub.report = report
    stub.fmt_row = real.fmt_row
    monkeypatch.setitem(sys.modules, "conftest", stub)
    module_name = CHEAP_OUTPUTS[name]
    module = _load(f"_paper_{module_name}", BENCH_DIR / f"{module_name}.py")
    getattr(module, f"test_{name}")(_Benchmark())
    return rendered[name]


@pytest.mark.parametrize("name", sorted(CHEAP_OUTPUTS))
def test_render_matches_committed_output(name, monkeypatch):
    tally = WorkTally(monkeypatch)
    rendered = render(name, monkeypatch)
    committed = (BENCH_DIR / "out" / f"{name}.txt").read_text()
    assert rendered == committed
    assert_ledger_row(name, tally.row())

