"""A sharded key-value store over the Solros services (§4.4.3).

The paper motivates content-based load balancing with "each request of
key/value store [36]": multiple co-processors listen on one port, and
the control-plane proxy routes each connection by its first request's
key so that every key is owned by exactly one co-processor shard.

This application composes both Solros services:

* **network**: each shard serves the shared port; the balancer is
  ``ContentBasedBalancer(key_hash)``;
* **file system**: each shard persists a snapshot through the Solros
  FS stub (so a restarted shard recovers its keys from the SSD).

The protocol is one request per connection (memcached-binary-flavoured
but trivially simple): requests are tuples ``("get"|"put"|"stats",
key, value?)``; replies are ``("ok"|"miss"|"error", value?)``.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Dict, Generator, Optional, Tuple

from ..fs.vfs import O_CREAT, O_RDWR, O_TRUNC
from ..hw.cpu import Core
from ..net.balancer import ContentBasedBalancer
from ..net.packets import SocketAddr
from ..sim.engine import Engine, Interrupt, ProcessGroup

__all__ = ["KvShard", "KvClient", "key_shard", "KV_PORT"]

KV_PORT = 11211
SHARD_OP_UNITS = 900           # hash-table + protocol work per request


def key_shard(key: str, n_shards: int) -> int:
    """The deterministic key → shard mapping (client and balancer
    must agree)."""
    return zlib.crc32(key.encode()) % n_shards


def _request_key(payload: Any, n_members: int) -> int:
    """Balancer rule: route by the key of the first request."""
    op, key = payload[0], payload[1]
    _ = op
    return key_shard(key, n_members)


def kv_balancer() -> ContentBasedBalancer:
    return ContentBasedBalancer(_request_key)


class KvShard:
    """One co-processor's shard: serving loop + snapshot persistence."""

    def __init__(
        self,
        engine: Engine,
        dataplane,
        net_api,
        shard_index: int,
        snapshot_path: Optional[str] = None,
    ):
        self.engine = engine
        self.dataplane = dataplane
        self.net_api = net_api
        self.shard_index = shard_index
        self.snapshot_path = snapshot_path or f"/kv-shard{shard_index}.snap"
        self.data: Dict[str, str] = {}
        self.stats = {"get": 0, "put": 0, "miss": 0}
        self._procs = ProcessGroup(engine)
        self._running = True

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def start(self, n_handler_cores: int = 4) -> None:
        """Join the shared port and start accept + handler loops."""
        self._procs.spawn(
            self._accept_loop(n_handler_cores), f"kv-shard{self.shard_index}"
        )

    def _accept_loop(self, n_handler_cores: int) -> Generator:
        core = self.dataplane.core(0)
        try:
            balancer = kv_balancer() if self.shard_index == 0 else None
            listener = yield from self.net_api.listen(core, KV_PORT, balancer)
            handler_slot = [0]
            while self._running:
                sock = yield from listener.accept(core)
                handler_core = self.dataplane.core(
                    1 + handler_slot[0] % n_handler_cores
                )
                handler_slot[0] += 1
                self._procs.spawn(
                    self._serve_one(handler_core, sock),
                    f"kv-conn{self.shard_index}",
                )
        except Interrupt:
            pass

    def _serve_one(self, core: Core, sock) -> Generator:
        try:
            while True:
                request, _n = yield from sock.recv(core)
                if request is None:
                    return
                yield core.compute(SHARD_OP_UNITS, "branchy")
                reply = self._apply(request)
                payload = json.dumps(reply)
                yield from sock.send(core, reply, max(32, len(payload)))
        except Interrupt:
            pass

    def _apply(self, request: Tuple) -> Tuple:
        op, key = request[0], request[1]
        if op == "get":
            self.stats["get"] += 1
            if key in self.data:
                return ("ok", self.data[key])
            self.stats["miss"] += 1
            return ("miss", None)
        if op == "put":
            self.stats["put"] += 1
            self.data[key] = request[2]
            return ("ok", None)
        if op == "stats":
            return ("ok", dict(self.stats, keys=len(self.data),
                               shard=self.shard_index))
        return ("error", f"unknown op {op!r}")

    # ------------------------------------------------------------------
    # Persistence through the Solros FS service
    # ------------------------------------------------------------------
    def snapshot(self, core: Optional[Core] = None) -> Generator:
        """Write the shard's contents through the FS stub."""
        core = core or self.dataplane.core(0)
        payload = json.dumps(sorted(self.data.items())).encode()
        vfs = self.dataplane.fs
        fd = yield from vfs.open(
            core, self.snapshot_path, O_CREAT | O_RDWR | O_TRUNC
        )
        yield from vfs.write(core, fd, data=payload)
        yield from vfs.fsync(core, fd)
        yield from vfs.close(core, fd)
        return len(payload)

    def recover(self, core: Optional[Core] = None) -> Generator:
        """Load the last snapshot (no-op if none exists)."""
        core = core or self.dataplane.core(0)
        vfs = self.dataplane.fs
        from ..transport.rpc import RemoteCallError

        try:
            fd = yield from vfs.open(core, self.snapshot_path)
        except RemoteCallError:
            return 0
        st = yield from vfs.stat(core, self.snapshot_path)
        raw = yield from vfs.pread(core, fd, st["size"], 0)
        yield from vfs.close(core, fd)
        if raw:
            self.data = {k: v for k, v in json.loads(raw.decode())}
        return len(self.data)

    def stop(self) -> None:
        self._running = False
        self._procs.stop("kv stop")


class KvClient:
    """Client-machine library: one request per connection, routed by
    the shared socket's content-based balancer."""

    def __init__(self, tcp_host, client_cpu, server_name: str = "host"):
        self.tcp_host = tcp_host
        self.client_cpu = client_cpu
        self.server = SocketAddr(server_name, KV_PORT)
        self._core_rr = 0

    def _core(self) -> Core:
        core = self.client_cpu.cores[self._core_rr % len(self.client_cpu.cores)]
        self._core_rr += 1
        return core

    def _request(self, request: Tuple) -> Generator:
        core = self._core()
        conn = yield from self.tcp_host.connect(core, self.server)
        payload = json.dumps(request)
        yield from conn.send(core, request, max(32, len(payload)))
        reply, _n = yield from conn.recv(core)
        yield from conn.close(core)
        return reply

    def put(self, key: str, value: str) -> Generator:
        return self._request(("put", key, value))

    def get(self, key: str) -> Generator:
        return self._request(("get", key))

    def shard_stats(self, key: str) -> Generator:
        """Stats of whichever shard owns ``key``."""
        return self._request(("stats", key))
