"""Unit + property tests for the debug-link wire protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import (
    Decoder,
    Message,
    MsgType,
    ProtocolError,
    SOF,
    encode,
    frame_size,
)


class TestFraming:
    def test_frame_layout(self):
        frame = encode(Message(MsgType.ACK))
        assert frame[0] == SOF
        assert frame[1] == int(MsgType.ACK)
        assert frame[2] == 0  # length

    def test_checksum_is_sum_of_body(self):
        frame = encode(Message.printf("a"))
        body = frame[1:-1]
        assert frame[-1] == sum(body) & 0xFF

    def test_frame_size_matches_encoding(self):
        message = Message.printf("hello")
        assert frame_size(message) == len(encode(message))

    def test_oversized_payload_rejected(self):
        with pytest.raises(ProtocolError):
            encode(Message(MsgType.PRINTF, b"x" * 300))


class TestTypedConstructors:
    def test_read_mem_fields(self):
        message = Message.read_mem(0x4402, 8)
        assert message.decode_address() == 0x4402
        assert message.payload[2] == 8

    def test_read_mem_size_validated(self):
        with pytest.raises(ProtocolError):
            Message.read_mem(0, 0)
        with pytest.raises(ProtocolError):
            Message.read_mem(0, 300)

    def test_write_mem_fields(self):
        message = Message.write_mem(0x1C00, b"\x01\x02")
        assert message.decode_address() == 0x1C00
        assert message.payload[2:] == b"\x01\x02"

    def test_assert_fail_carries_id_and_text(self):
        message = Message.assert_fail(3, "tail broken")
        assert message.payload[0] == 3
        assert message.decode_text(skip=1) == "tail broken"

    def test_printf_text_roundtrip(self):
        assert Message.printf("hello").decode_text() == "hello"

    def test_decode_address_needs_payload(self):
        with pytest.raises(ProtocolError):
            Message(MsgType.ACK).decode_address()


class TestDecoder:
    def test_single_frame(self):
        decoder = Decoder()
        messages = decoder.feed(encode(Message.printf("hi")))
        assert len(messages) == 1
        assert messages[0].decode_text() == "hi"

    def test_multiple_frames_in_one_feed(self):
        decoder = Decoder()
        data = encode(Message(MsgType.ACK)) + encode(Message.printf("x"))
        messages = decoder.feed(data)
        assert [m.type for m in messages] == [MsgType.ACK, MsgType.PRINTF]

    def test_byte_at_a_time(self):
        decoder = Decoder()
        frame = encode(Message.printf("stream"))
        messages = []
        for i in range(len(frame)):
            messages += decoder.feed(frame[i : i + 1])
        assert len(messages) == 1

    def test_resync_after_garbage(self):
        decoder = Decoder()
        data = b"\x00\x13\x37" + encode(Message(MsgType.ACK))
        messages = decoder.feed(data)
        assert len(messages) == 1
        assert decoder.errors > 0

    def test_corrupted_checksum_dropped(self):
        decoder = Decoder()
        frame = bytearray(encode(Message.printf("ok")))
        frame[-1] ^= 0xFF
        assert decoder.feed(bytes(frame)) == []
        assert decoder.errors > 0

    def test_truncated_frame_then_complete(self):
        """A power failure mid-frame must not poison later frames."""
        decoder = Decoder()
        dead = encode(Message.printf("lost"))[:4]
        alive = encode(Message.printf("ok"))
        messages = decoder.feed(dead + alive)
        texts = [m.decode_text() for m in messages if m.type is MsgType.PRINTF]
        assert texts == ["ok"]

    def test_unknown_type_skipped(self):
        decoder = Decoder()
        body = bytes([0x7F, 0x00])
        frame = bytes([SOF]) + body + bytes([sum(body) & 0xFF])
        assert decoder.feed(frame) == []
        assert decoder.errors == 1

    @given(
        texts=st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=40,
            ),
            min_size=1,
            max_size=10,
        ),
        chunk=st.integers(1, 7),
    )
    def test_stream_roundtrip_property(self, texts, chunk):
        """Any message sequence survives arbitrary chunking."""
        stream = b"".join(encode(Message.printf(t)) for t in texts)
        decoder = Decoder()
        out = []
        for i in range(0, len(stream), chunk):
            out += decoder.feed(stream[i : i + chunk])
        assert [m.decode_text() for m in out] == texts
        assert decoder.errors == 0

    def test_idle_line_noise_does_not_overflow_the_stack(self):
        """SOF is the HDLC idle byte: a long run of it is plain noise."""
        decoder = Decoder()
        assert decoder.feed(bytes([SOF]) * 5000) == []
        assert decoder.errors > 0
        # The decoder still resyncs onto a good frame afterwards, once
        # enough zeros arrive to refute every frame the buffered SOFs
        # claim to start.
        decoder = Decoder()
        messages = decoder.feed(
            bytes([SOF]) * 5000 + b"\x00" * 130 + encode(Message(MsgType.ACK))
        )
        assert [m.type for m in messages] == [MsgType.ACK]

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.binary(max_size=300),
        cuts=st.lists(st.integers(0, 300), max_size=8),
    )
    def test_arbitrary_bytes_never_raise_and_chunking_is_invisible(
        self, data, cuts
    ):
        """Any byte string, split anywhere, decodes like the whole string."""
        whole = Decoder().feed(data)
        decoder = Decoder()
        chunked = []
        bounds = [0, *sorted(c for c in cuts if c <= len(data)), len(data)]
        for start, end in zip(bounds, bounds[1:]):
            chunked += decoder.feed(data[start:end])
        assert chunked == whole
