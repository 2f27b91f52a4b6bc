"""Frame round-trips over real sockets, async server <-> sync client."""

import asyncio
import socket
import struct
import threading

import pytest

from repro.wire import (
    ProtocolError,
    WorkerDied,
    recv_frame,
    recv_frame_sync,
    send_frame,
    send_frame_sync,
)


def _echo_server():
    """An asyncio echo server on a thread; returns (port, stop)."""
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    box = {}

    async def handle(reader, writer):
        try:
            while True:
                message = await recv_frame(reader)
                await send_frame(writer, {"echo": message})
        except (WorkerDied, ProtocolError):
            pass
        finally:
            writer.close()

    async def serve():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        box["port"] = server.sockets[0].getsockname()[1]
        ready.set()
        async with server:
            await server.serve_forever()

    def run():
        try:
            loop.run_until_complete(serve())
        except asyncio.CancelledError:
            pass
        finally:
            loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10)

    def stop():
        loop.call_soon_threadsafe(
            lambda: [task.cancel() for task in asyncio.all_tasks(loop)])
        thread.join(timeout=10)

    return box["port"], stop


@pytest.fixture()
def echo_port():
    port, stop = _echo_server()
    yield port
    stop()


def test_sync_client_round_trips_through_async_server(echo_port):
    message = {"kind": "read", "op": "digest", "nested": {"a": [1, 2]},
               "text": "schema évolution"}
    with socket.create_connection(("127.0.0.1", echo_port)) as sock:
        send_frame_sync(sock, message)
        reply = recv_frame_sync(sock, timeout=10.0)
    assert reply == {"echo": message}


def test_many_frames_on_one_connection_stay_delimited(echo_port):
    # Sockets do not preserve message boundaries; the length header
    # must. Pipeline several frames before reading any reply.
    with socket.create_connection(("127.0.0.1", echo_port)) as sock:
        for index in range(10):
            send_frame_sync(sock, {"seq": index, "pad": "x" * index * 37})
        for index in range(10):
            reply = recv_frame_sync(sock, timeout=10.0)
            assert reply["echo"]["seq"] == index


def test_server_hangup_surfaces_as_worker_died(echo_port):
    with socket.create_connection(("127.0.0.1", echo_port)) as sock:
        # An oversized length header makes the server drop us.
        sock.sendall(struct.pack("<II", 0xFFFFFFF0, 0))
        with pytest.raises((WorkerDied, ProtocolError)):
            recv_frame_sync(sock, timeout=10.0)


def test_recv_timeout_is_a_protocol_error(echo_port):
    with socket.create_connection(("127.0.0.1", echo_port)) as sock:
        with pytest.raises(ProtocolError, match="no frame within"):
            recv_frame_sync(sock, timeout=0.2)
