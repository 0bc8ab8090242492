"""The debugger↔target wire protocol.

libEDB and the debugger board exchange framed messages over a dedicated
UART (plus one GPIO signal line for attention/interrupt, outside this
module).  The frame format is deliberately simple — the target-side
encoder must run in a handful of cycles on a dying energy budget::

    [SOF=0x7E] [type] [length] [payload ...] [checksum]

``checksum`` is the 8-bit sum of type, length, and payload.  A decoder
consumes bytes incrementally and tolerates garbage between frames
(resyncs on the next SOF), because a power failure can truncate a frame
anywhere.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

SOF = 0x7E
MAX_PAYLOAD = 255


class MsgType(enum.IntEnum):
    """Message vocabulary of the debug link."""

    # target -> debugger
    ASSERT_FAIL = 0x01
    BREAKPOINT_HIT = 0x02
    GUARD_BEGIN = 0x03
    GUARD_END = 0x04
    PRINTF = 0x05
    MEM_DATA = 0x06
    ACK = 0x07
    # debugger -> target
    READ_MEM = 0x10
    WRITE_MEM = 0x11
    RESUME = 0x12
    GET_PC = 0x13
    PC_VALUE = 0x14


class ProtocolError(Exception):
    """A malformed frame (bad length, bad checksum, unknown type)."""


@dataclass(frozen=True)
class Message:
    """One decoded frame."""

    type: MsgType
    payload: bytes = b""

    # -- typed constructors / accessors ------------------------------------
    @staticmethod
    def assert_fail(assert_id: int, text: str = "") -> "Message":
        """Keep-alive assertion failure notification."""
        return Message(
            MsgType.ASSERT_FAIL,
            bytes([assert_id & 0xFF]) + text.encode()[: MAX_PAYLOAD - 1],
        )

    @staticmethod
    def breakpoint_hit(breakpoint_id: int) -> "Message":
        """Code/combined breakpoint notification."""
        return Message(MsgType.BREAKPOINT_HIT, bytes([breakpoint_id & 0xFF]))

    @staticmethod
    def printf(text: str) -> "Message":
        """Energy-interference-free printf payload."""
        return Message(MsgType.PRINTF, text.encode()[:MAX_PAYLOAD])

    @staticmethod
    def read_mem(address: int, count: int) -> "Message":
        """Request ``count`` bytes at ``address``."""
        if not 0 < count <= MAX_PAYLOAD:
            raise ProtocolError(f"read size {count} out of range 1..{MAX_PAYLOAD}")
        return Message(
            MsgType.READ_MEM,
            bytes([address & 0xFF, (address >> 8) & 0xFF, count & 0xFF]),
        )

    @staticmethod
    def write_mem(address: int, data: bytes) -> "Message":
        """Write ``data`` at ``address``."""
        if not 0 < len(data) <= MAX_PAYLOAD - 2:
            raise ProtocolError(f"write size {len(data)} out of range")
        return Message(
            MsgType.WRITE_MEM,
            bytes([address & 0xFF, (address >> 8) & 0xFF]) + bytes(data),
        )

    @staticmethod
    def mem_data(data: bytes) -> "Message":
        """Reply carrying memory contents."""
        return Message(MsgType.MEM_DATA, bytes(data))

    def decode_address(self) -> int:
        """Address field of READ_MEM/WRITE_MEM payloads."""
        if len(self.payload) < 2:
            raise ProtocolError("payload too short for an address")
        return self.payload[0] | (self.payload[1] << 8)

    def decode_text(self, skip: int = 0) -> str:
        """Text portion of PRINTF/ASSERT_FAIL payloads."""
        return self.payload[skip:].decode(errors="replace")


def encode(message: Message) -> bytes:
    """Serialise a message to its wire frame."""
    payload = message.payload
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(f"payload of {len(payload)} bytes exceeds max")
    body = bytes([int(message.type), len(payload)]) + payload
    checksum = sum(body) & 0xFF
    return bytes([SOF]) + body + bytes([checksum])


def frame_size(message: Message) -> int:
    """Total on-wire size of a message in bytes."""
    return 4 + len(message.payload)


class Decoder:
    """Incremental frame decoder with resynchronisation.

    Feed bytes as they arrive; complete messages come back in order.
    Truncated or corrupted frames are counted and skipped — the decoder
    hunts for the next SOF rather than giving up, because frames from
    an intermittently powered target routinely die mid-flight.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.frames_decoded = 0
        self.errors = 0

    def feed(self, data: bytes) -> list[Message]:
        """Consume bytes, returning any complete messages."""
        self._buffer.extend(data)
        out: list[Message] = []
        while True:
            message = self._try_decode_one()
            if message is None:
                return out
            out.append(message)

    def _try_decode_one(self) -> Message | None:
        buffer = self._buffer
        while True:
            # Hunt for a start-of-frame byte.
            while buffer and buffer[0] != SOF:
                buffer.pop(0)
                self.errors += 1
            if len(buffer) < 4:
                return None
            length = buffer[2]
            total = 4 + length
            if len(buffer) < total:
                return None
            body = bytes(buffer[1 : 3 + length])
            checksum = buffer[3 + length]
            if (sum(body) & 0xFF) != checksum:
                # Bad frame: discard the SOF and resync.
                buffer.pop(0)
                self.errors += 1
            else:
                del buffer[:total]
                try:
                    msg_type = MsgType(body[0])
                except ValueError:
                    self.errors += 1
                else:
                    self.frames_decoded += 1
                    return Message(msg_type, body[2:])
            # Resync iteratively: a run of line noise (HDLC idles the
            # line with SOF bytes) must not cost a stack frame per byte.
            if SOF not in buffer:
                return None
