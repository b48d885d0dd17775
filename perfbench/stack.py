"""The socket daemon stack, composed in-process for the serving workloads.

``SocketServer`` → ``Dispatcher`` → ``MatchingServer(None)`` (which wraps
the serial backend in a ``ResilientBackend``), with a stream registry
that journals to a ``DurableLog`` (fsync on) when a checkpoint cadence
is given — the same wiring as
``repro.serve.net.serve_listen``, minus its sweep of ``/dev/shm``, so a
run touches nothing outside its checkout.
"""

from __future__ import annotations

import os
import shutil

from harness import STATE_DIR


class Stack:
    def __init__(self, tag: str, *, checkpoint_every: int | None = None) -> None:
        from repro.serve.daemon import Dispatcher, GraphCache, _StreamRegistry
        from repro.serve.journal import DurableLog
        from repro.serve.net import SocketServer
        from repro.serve.server import MatchingServer

        os.makedirs(STATE_DIR, exist_ok=True)
        # Relative, so the unix socket path stays short in any checkout.
        self.sock = os.path.join(STATE_DIR, f"{tag}-{os.getpid()}.sock")
        self.journal_dir = None
        log = None
        if checkpoint_every is not None:
            self.journal_dir = os.path.join(STATE_DIR, f"{tag}-{os.getpid()}.wal")
            shutil.rmtree(self.journal_dir, ignore_errors=True)
            log = DurableLog(self.journal_dir, checkpoint_every=checkpoint_every)
        self.server = MatchingServer(None)
        streams = _StreamRegistry(8, None, journal=log)
        self.dispatcher = Dispatcher(self.server, GraphCache(32), streams)
        self.front = SocketServer(self.dispatcher, f"unix:{self.sock}").start()
        self.address = self.front.address
        self.clients: list = []

    def client(self, k: int):
        from repro.serve.net import ResilientClient

        cli = ResilientClient(
            self.address, keepalive=True, seed=k, client_id=f"bench{k}"
        )
        self.clients.append(cli)
        return cli

    def close(self) -> None:
        for cli in self.clients:
            cli.close()
        self.front.stop()
        self.server.drain(timeout=30.0)
        journal = self.dispatcher.streams.journal
        if journal is not None:
            journal.close()
            shutil.rmtree(self.journal_dir, ignore_errors=True)
