"""CommandBuffer and SharedVariableBuffer.

"... it is necessary to use another unit per TSU named the CommandBuffer
which size is 128 Bytes.  This unit, which is also allocated in main
memory[,] holds the commands sent by the kernels executing on the
corresponding SPE.  Also one shared buffer (SharedVariableBuffer) is used
by all kernels for transferring the values of the shared variables
between DThreads" (paper §4.3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

__all__ = ["CommandBuffer", "SharedVariableBuffer", "Command"]

#: Bytes per encoded command word (opcode + DThread id + context).
COMMAND_BYTES = 16


@dataclass(frozen=True)
class Command:
    """One encoded kernel→TSU command."""

    opcode: str  # "complete" | "fetch" | "exit_ack"
    kernel: int
    arg: Any = None
    #: Dynamic outcome riding a "complete" command: a branch key packed
    #: into the command word, or a reference to a spawned Subflow staged
    #: in the SharedVariableBuffer (its transfer is priced separately).
    outcome: Any = None


class CommandBuffer:
    """One SPE's 128-byte command window in main memory.

    Capacity is small (128 B / 16 B = 8 commands); the SPE stalls if the
    PPE has not drained it — visible back-pressure, as on the real chip.
    """

    def __init__(self, size_bytes: int) -> None:
        self.capacity = max(1, size_bytes // COMMAND_BYTES)
        self._cmds: deque[Command] = deque()
        self.writes = 0
        self.stalls = 0

    def try_write(self, cmd: Command) -> bool:
        if len(self._cmds) >= self.capacity:
            self.stalls += 1
            return False
        self._cmds.append(cmd)
        self.writes += 1
        return True

    def drain(self) -> list[Command]:
        out = list(self._cmds)
        self._cmds.clear()
        return out

    def __len__(self) -> int:
        return len(self._cmds)


@dataclass
class SharedVariableBuffer:
    """Main-memory staging area for inter-DThread shared variables.

    Functionally our shared data already lives in the
    :class:`~repro.core.environment.Environment`; this object carries the
    *accounting*: bytes exported after completion and imported before
    execution, which the DMA engine prices.
    """

    bytes_exported: int = 0
    bytes_imported: int = 0
    exports: int = 0
    imports: int = 0

    def record_export(self, nbytes: int) -> None:
        self.bytes_exported += nbytes
        self.exports += 1

    def record_import(self, nbytes: int) -> None:
        self.bytes_imported += nbytes
        self.imports += 1
