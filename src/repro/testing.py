"""Test and experimentation support: fault injection and fast targets.

Organic intermittence (a harvester racing a load) is the realistic way
to produce power failures, but it is a blunt instrument for unit tests
— the failure point depends on every cost constant upstream.  This
module provides surgical alternatives:

- :class:`BrownoutInjector` — force a brown-out after an exact number
  of device work units, so a test can place the reboot *inside* a
  specific vulnerable window (e.g. mid-``append``) deterministically;
- :func:`fast_wisp_constants` / :func:`make_fast_target` — a scaled-
  down target (10x smaller capacitor) that charge/discharge-cycles
  several times faster, for tests that need many organic reboots
  without burning wall-clock time;
- :func:`make_bench_target` / :data:`ISA_LOOP_SOURCE` — a bench-supplied
  target that never browns out organically, and a tight ISA loop that
  runs on it as pure interpreter work.
"""

from __future__ import annotations

import contextlib
import signal
import threading
from dataclasses import replace
from typing import Iterator

from repro.mcu.device import TargetDevice
from repro.power.capacitor import StorageCapacitor
from repro.power.harvester import ConstantCurrentSource
from repro.power.regulator import LinearRegulator
from repro.power.supply import PowerSystem
from repro.power.wisp import WispPowerConstants, make_wisp_power_system
from repro.sim import units
from repro.sim.kernel import Simulator


def can_use_alarm() -> bool:
    """True when a SIGALRM-based wall-clock guard can be armed here.

    Requires a POSIX platform and the main thread (signal handlers can
    only be installed from the main thread of the main interpreter).
    """
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextlib.contextmanager
def time_limit(
    seconds: float, make_error=None
) -> Iterator[None]:
    """Hard wall-clock limit on a block of code, via ``SIGALRM``.

    Unlike a cooperative check, the alarm interrupts *any* Python
    bytecode — including a host-side ``while True: pass`` livelock that
    never reaches a polling point.  On expiry the block is unwound with
    :class:`~repro.sim.kernel.BudgetExceeded` (or ``make_error()`` if
    given).

    Nesting-safe: the previous handler **and** any previously armed
    itimer are restored on exit, with the outer timer re-armed for its
    remaining time — so a per-test suite guard and a per-run campaign
    watchdog compose instead of clobbering each other.  On platforms or
    threads where alarms are unavailable the block runs unguarded (the
    cooperative watchdog layers still apply).
    """
    from repro.sim.kernel import BudgetExceeded

    if seconds <= 0 or not can_use_alarm():
        yield
        return

    def _on_alarm(signum, frame):
        if make_error is not None:
            raise make_error()
        raise BudgetExceeded(
            f"wall-clock limit of {seconds:g} s exhausted", budget="wall"
        )

    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    old_delay, old_interval = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        spent = seconds - signal.setitimer(signal.ITIMER_REAL, 0.0)[0]
        signal.signal(signal.SIGALRM, old_handler)
        if old_delay:
            # Re-arm the enclosing guard for whatever it has left (it
            # may have expired while ours ran; fire it almost at once).
            signal.setitimer(
                signal.ITIMER_REAL,
                max(1e-3, old_delay - spent),
                old_interval,
            )


class BrownoutInjector:
    """Forces a brown-out after a chosen number of work units.

    Installs itself as a post-work hook on the device; on the N-th
    completed ``execute_cycles`` call it yanks the capacitor below the
    brown-out threshold, so the *next* operation raises
    :class:`~repro.mcu.device.PowerFailure`.  One-shot by default —
    call :meth:`arm` again for the next injection.
    """

    def __init__(self, device: TargetDevice) -> None:
        self.device = device
        self._remaining: int | None = None
        self.injections = 0
        device.post_work_hooks.append(self._hook)

    def arm(self, after_ops: int) -> None:
        """Schedule a brown-out ``after_ops`` completed work units from now."""
        if after_ops < 1:
            raise ValueError(f"after_ops must be >= 1 (got {after_ops})")
        self._remaining = after_ops

    def disarm(self) -> None:
        """Cancel a pending injection."""
        self._remaining = None

    @property
    def armed(self) -> bool:
        """True while an injection is pending."""
        return self._remaining is not None

    def _hook(self) -> None:
        if self._remaining is None:
            return
        self._remaining -= 1
        if self._remaining > 0:
            return
        self._remaining = None
        power: PowerSystem = self.device.power
        if power.force_brownout():
            self.injections += 1

    def remove(self) -> None:
        """Uninstall the hook from the device."""
        if self._hook in self.device.post_work_hooks:
            self.device.post_work_hooks.remove(self._hook)


def fast_wisp_constants() -> WispPowerConstants:
    """WISP constants with a 10x smaller capacitor.

    Same thresholds and currents, so per-op physics are unchanged, but
    each charge/discharge cycle holds 10x less work — tests see many
    organic reboots per simulated second.
    """
    return replace(WispPowerConstants(), capacitance=4.7 * units.UF)


def make_fast_target(
    sim: Simulator,
    distance_m: float = 1.6,
    fading_sigma: float = 1.5,
    constants: WispPowerConstants | None = None,
) -> TargetDevice:
    """A ready-made fast-cycling target for tests.

    Fading jitter is on by default so brown-out points sweep the
    program instead of locking to one phase.
    """
    c = constants or fast_wisp_constants()
    power = make_wisp_power_system(
        sim, constants=c, distance_m=distance_m, fading_sigma=fading_sigma
    )
    return TargetDevice(sim, power, constants=c)


#: A tight loop mixing the operand classes the decode cache must cover:
#: register/immediate ALU, absolute loads/stores (FRAM), and stack ops.
#: Run on :func:`make_bench_target`, it is pure interpreter work.
ISA_LOOP_SOURCE = """
        .org 0xA000
buf:    .word 0
start:  mov #0, r4
loop:   add #1, r4
        mov r4, &buf
        mov &buf, r5
        push r5
        pop r6
        xor r5, r6
        cmp #0, r4
        jnz loop
        halt
"""


def make_bench_target(
    sim: Simulator,
    constants: WispPowerConstants | None = None,
    supply_current: float = 5.0 * units.MA,
) -> TargetDevice:
    """A bench-supplied target that never browns out organically.

    The strong constant-current source out-supplies the active draw, so
    the *only* power failures are the ones an injector forces — the
    substrate for replaying an exact reboot schedule (the campaign
    shrinker's emulated-intermittence mode, in the spirit of §4.2's
    charge/discharge emulation).  After a forced brown-out the capacitor
    recharges to turn-on in microseconds, keeping replays fast.
    """
    c = constants or fast_wisp_constants()
    power = PowerSystem(
        sim=sim,
        source=ConstantCurrentSource(current_a=supply_current),
        capacitor=StorageCapacitor(
            capacitance=c.capacitance,
            voltage=c.turn_on_voltage,
            max_voltage=3.3,
        ),
        regulator=LinearRegulator(),
        turn_on_voltage=c.turn_on_voltage,
        brownout_voltage=c.brownout_voltage,
    )
    return TargetDevice(sim, power, constants=c)
