"""Intermittent execution of ISA programs.

The counterpart of :class:`~repro.runtime.executor.IntermittentExecutor`
for programs that run on the instruction-level core: charge to turn-on,
reboot (registers cleared, PC at the entry point), optionally restore
the newest committed checkpoint, and step instructions until HALT or
brown-out.

Checkpointing convention: programs request checkpoints by writing to
the well-known port ``CHECKPOINT_PORT`` (0x10); when the executor is
given a :class:`~repro.runtime.checkpoint.CheckpointManager`, it
honours every ``checkpoint_every``-th request (bounding the overhead),
and restores on every boot.
"""

from __future__ import annotations

from repro.mcu.assembler import Program
from repro.mcu.cpu import CpuError, Halted
from repro.mcu.device import ExecutionLimit, PowerFailure, TargetDevice
from repro.mcu.isa import DecodeError
from repro.mcu.memory import MemoryFault
from repro.power.supply import ChargingTimeout
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.executor import RunResult, RunStatus
from repro.sim.kernel import Simulator

CHECKPOINT_PORT = 0x10


class IsaIntermittentExecutor:
    """Runs an assembled program across charge/discharge cycles.

    Parameters
    ----------
    sim / device:
        The simulation kernel and the target.
    program:
        The assembled image to load.
    checkpoints:
        A :class:`CheckpointManager`, or ``None`` to run with pure
        restart-from-main semantics.
    checkpoint_every:
        Honour one checkpoint request out of this many (amortises the
        copy cost; 1 = every request).
    """

    def __init__(
        self,
        sim: Simulator,
        device: TargetDevice,
        program: Program,
        checkpoints: CheckpointManager | None = None,
        checkpoint_every: int = 64,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.sim = sim
        self.device = device
        self.program = program
        self.checkpoints = checkpoints
        self.checkpoint_every = checkpoint_every
        self._requests = 0
        device.load_program(program)
        if checkpoints is not None:
            checkpoints.erase()
        if CHECKPOINT_PORT not in device.cpu.ports_out:
            device.cpu.ports_out[CHECKPOINT_PORT] = self._on_checkpoint_request

    def _on_checkpoint_request(self, value: int) -> None:
        self._requests += 1
        if (
            self.checkpoints is not None
            and self._requests % self.checkpoint_every == 0
        ):
            self.checkpoints.checkpoint()

    def run(self, duration: float, max_boots: int | None = None) -> RunResult:
        """Run intermittently for ``duration`` seconds of simulated time."""
        deadline = self.sim.now + duration
        self.device.stop_after = deadline
        start_reboots = self.device.reboot_count
        boots = 0
        faults: list[str] = []
        first_fault: float | None = None
        status = RunStatus.TIMEOUT
        detail = None
        try:
            while self.sim.now < deadline:
                if max_boots is not None and boots >= max_boots:
                    break
                if not self.device.power.is_on:
                    try:
                        self.device.power.charge_until_on(
                            timeout=min(
                                2.0, max(0.01, deadline - self.sim.now) + 0.1
                            )
                        )
                    except ChargingTimeout as exc:
                        if self.sim.now >= deadline:
                            break
                        status = RunStatus.STARVED
                        detail = str(exc)
                        break
                    if self.sim.now >= deadline:
                        break
                self.device.reboot()
                boots += 1
                if self.checkpoints is not None:
                    self.checkpoints.restore()
                try:
                    self.device.run()
                except Halted:
                    status = RunStatus.COMPLETED
                    break
                except PowerFailure:
                    continue
                except (MemoryFault, CpuError, DecodeError) as fault:
                    faults.append(str(fault))
                    if first_fault is None:
                        first_fault = self.sim.now
                    status = RunStatus.CRASHED
                    break
        except ExecutionLimit:
            pass
        finally:
            self.device.stop_after = None
        return RunResult(
            status=status,
            sim_time=self.sim.now,
            reboots=self.device.reboot_count - start_reboots,
            boots=boots,
            faults=faults,
            first_fault_time=first_fault,
            detail=detail,
        )
