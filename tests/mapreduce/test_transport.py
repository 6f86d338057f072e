"""The framed-pickle transport refuses hostile length prefixes."""

from __future__ import annotations

import socket
import struct

import pytest

from repro.mapreduce.transport import (
    MAX_FRAME_BYTES,
    Connection,
    ConnectionClosed,
    TransportError,
    encode_message,
)


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    connections = Connection(left), Connection(right)
    yield connections
    for connection in connections:
        connection.close()


class TestFrameBound:
    def test_bound_is_far_below_addressable_memory(self):
        assert MAX_FRAME_BYTES == 1 << 31

    def test_oversized_announcement_is_refused_before_the_payload(self, pair):
        """The length prefix is the peer's word: a frame announcing more
        than the bound is refused on the header alone — no allocation,
        and not one payload byte consumed."""
        sender, receiver = pair
        length = MAX_FRAME_BYTES + 1
        sender.send_bytes(struct.pack(">Q", length) + b"payload!")
        with pytest.raises(TransportError, match=f"frame of {length} bytes refused") as info:
            receiver.recv(timeout=5)
        assert not isinstance(info.value, ConnectionClosed)
        assert receiver.recv_raw(8, timeout=5) == b"payload!"

    def test_frames_within_the_bound_round_trip(self, pair):
        sender, receiver = pair
        message = {"kind": "task", "payload": list(range(1000))}
        sender.send_bytes(encode_message(message))
        assert receiver.recv(timeout=5) == message

    def test_eof_inside_a_frame_is_connection_closed(self, pair):
        sender, receiver = pair
        sender.send_bytes(struct.pack(">Q", 100) + b"short")
        sender.close()
        with pytest.raises(ConnectionClosed, match="95 of 100 bytes unread"):
            receiver.recv(timeout=5)
