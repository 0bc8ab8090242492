#!/bin/sh
# Repository check: the tier-1 test suite, the CI smokes, and a second
# tier-1 pass under REPRO_NO_BATCH=1.
#
# Tier-1 (must stay green):     PYTHONPATH=src python -m pytest -x -q
#
# Both tier-1 passes include the work-count ledger
# (tests/test_work_ledger.py): exact instruction, block, spend, supply
# step, event, snapshot and campaign-leg counts for fixed workloads,
# compared byte for byte with tests/data/work_ledger.json.  The
# simulation is deterministic, so the ledger's tolerance is zero and it
# never flakes on host speed (see docs/PERF.md).
set -e
cd "$(dirname "$0")/.."

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

echo "== tier-1: pytest =="
python -m pytest -x -q

echo "== fuzz smoke: fixed-seed coverage-guided canary =="
python -m pytest -q -m fuzz_smoke

echo "== debug-server smoke: spawn, session, run, trace, shutdown =="
python -m pytest -q -m debug_smoke

echo "== chaos smoke: fixed-seed host-fault injection, golden bytes =="
python -m pytest -q -m chaos_smoke

echo "== batch smoke: lane-vs-scalar byte-identity canary =="
python -m pytest -q -m batch_smoke

echo "== tier-1 under REPRO_NO_BATCH=1: scalar-path parity =="
REPRO_NO_BATCH=1 python -m pytest -x -q
