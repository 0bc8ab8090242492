"""Shared fixtures: simulated targets at several fidelity/speed points.

Also the suite's hang guard: every test runs under a wall-clock limit
(default 180 s, override with ``@pytest.mark.timeout_guard(seconds)``),
so a regression that reintroduces a livelock fails loudly instead of
wedging the whole tier-1 run.  The guard uses the same nesting-safe
SIGALRM helper the campaign watchdog uses (`repro.testing.time_limit`)
and degrades to no-op where alarms are unavailable.
"""

from __future__ import annotations

import pytest

from repro import EDB, Simulator, TargetDevice, make_wisp_power_system
from repro.apps.sensors import Accelerometer, I2C_ADDRESS, MotionProfile
from repro.testing import make_fast_target, time_limit

#: Generous default per-test wall budget: the slowest legitimate tier-1
#: tests finish in a few seconds, so only a genuine hang trips this.
DEFAULT_TEST_TIMEOUT_S = 180.0


class TestTimeoutGuard(Exception):
    """A test exceeded the suite's per-test wall-clock guard."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    marker = item.get_closest_marker("timeout_guard")
    seconds = float(marker.args[0]) if marker and marker.args else (
        DEFAULT_TEST_TIMEOUT_S
    )
    with time_limit(
        seconds,
        make_error=lambda: TestTimeoutGuard(
            f"{item.nodeid} exceeded the {seconds:g}s per-test guard "
            f"(likely hang/livelock)"
        ),
    ):
        yield


@pytest.fixture
def from_reset(monkeypatch):
    """``run(config, **kwargs)``: a campaign with every fork fallback forced.

    No :class:`~repro.campaign.forking.ForkSession` can be built (run
    groups, fuzz groups and shrinker replays all fall back), no control
    leg is memoized, and the lane engine is off, so every leg simulates
    from reset — the reference the forked executor must reproduce byte
    for byte.  The patches hold only for the duration of ``run``; pool
    workers inherit them because Linux starts them by fork.
    """
    import repro.campaign.forking as forking
    import repro.campaign.fuzz as fuzz
    from repro.campaign.scheduler import run_campaign

    def refuse(self, *args, **kwargs):
        raise RuntimeError("fork sessions are disabled")

    def run(config, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(forking.ForkSession, "__init__", refuse)
            for module in (forking, fuzz):
                patch.setattr(module, "_memoizable", lambda observation: False)
            forking._continuous_memo.clear()
            return run_campaign(config, batch=False, **kwargs)

    return run


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulation kernel with a fixed seed."""
    return Simulator(seed=1234)


@pytest.fixture
def wisp(sim: Simulator) -> TargetDevice:
    """A paper-faithful WISP (47 uF) on harvested power, charged to ON."""
    power = make_wisp_power_system(sim)
    device = TargetDevice(sim, power)
    power.charge_until_on()
    return device


@pytest.fixture
def fast_target(sim: Simulator) -> TargetDevice:
    """A fast-cycling target (4.7 uF) for many-reboot tests."""
    return make_fast_target(sim)


@pytest.fixture
def wisp_with_edb(sim: Simulator) -> tuple[TargetDevice, EDB]:
    """A charged WISP with an EDB board attached."""
    power = make_wisp_power_system(sim)
    device = TargetDevice(sim, power)
    edb = EDB(sim, device)
    power.charge_until_on()
    return device, edb


@pytest.fixture
def wisp_with_accel(sim: Simulator) -> TargetDevice:
    """A charged WISP with an accelerometer on its I2C bus."""
    power = make_wisp_power_system(sim)
    device = TargetDevice(sim, power)
    device.i2c.attach(I2C_ADDRESS, Accelerometer(sim, MotionProfile()))
    power.charge_until_on()
    return device
