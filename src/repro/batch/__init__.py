"""Lane-batched campaign execution: step N similar legs as one batch.

The third rung of the campaign speed ladder (after snapshot/fork prefix
sharing and block dispatch): campaign legs
that differ only in *when* their fault lands re-execute nearly identical
trajectories, so the lane engine packs a whole fork-eligible group into
NumPy struct-of-arrays lanes, drives one shared *leader* trajectory
through the existing block dispatch on behalf of every lane, and
*peels* a lane into the scalar path at the exact boot boundary where its
injection schedule first diverges from the shared trajectory
(:mod:`repro.batch.engine`).  :mod:`repro.batch.lanes` holds the
struct-of-arrays snapshot packing and the vectorized closed-form energy
evaluator the lane axis shares.

The contract is the one every prior tier honoured: campaign reports are
byte-identical with batching on (``--batch``, the default), off
(``--no-batch``), and killed (``REPRO_NO_BATCH=1``), pinned by the
lane-vs-scalar differential suite in ``tests/test_batch.py`` and by the
campaign golden.  Batching is an execution-only switch — it never enters
the config, the journal, or the report.
"""

from __future__ import annotations

import os

_NUMPY_OK: bool | None = None


def numpy_available() -> bool:
    """True when NumPy imports; memoized (the answer cannot change)."""
    global _NUMPY_OK
    if _NUMPY_OK is None:
        try:
            import numpy  # noqa: F401
        except Exception:
            _NUMPY_OK = False
        else:
            _NUMPY_OK = True
    return _NUMPY_OK


def batching_disabled() -> bool:
    """True when the ``REPRO_NO_BATCH`` kill switch is set.

    Read per call (not cached) so tests and operators can flip the
    switch at runtime, mirroring ``REPRO_NO_BLOCKCACHE`` on block
    dispatch.
    """
    return os.environ.get("REPRO_NO_BATCH", "") not in ("", "0")


def batching_enabled() -> bool:
    """The gate the engine checks: NumPy present and not killed."""
    return numpy_available() and not batching_disabled()


__all__ = ["batching_disabled", "batching_enabled", "numpy_available"]
