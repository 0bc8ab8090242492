"""Smoke tests for the standalone scripts in ``examples/``."""

from __future__ import annotations

import importlib.util
import pathlib

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def test_isa_checkpointing_example_completes():
    """The Mementos-style example finishes its sum across reboots."""
    path = EXAMPLES / "isa_checkpointing.py"
    spec = importlib.util.spec_from_file_location("_example_isa_cp", path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    completed, result, boots, manager = example.run(True)
    assert completed
    assert result == (20000 * 20001 // 2) & 0xFFFF == 59664
    assert boots > 1
    assert manager.restores > 0
