"""NVMe SSD device model (Intel 750-class).

Timing-only: the device charges simulated time for doorbell writes,
command processing, flash access, data DMA, and completion interrupts;
the *bytes* live in :mod:`repro.fs.blockdev`, which layers functional
storage on top of this model.

The model captures the three effects the paper's file-system evaluation
depends on:

* the device's own DMA engine moves data directly to any PCIe-mapped
  target — host RAM or co-processor memory (P2P, §4.3.2) — with
  cross-NUMA P2P throttled by the fabric's relay cap;
* each command costs a doorbell (one PCIe transaction) and a completion
  interrupt (host CPU time, serialized on the IRQ line);
* Solros' io-vector ioctls coalesce all commands of one read/write call
  into a single doorbell ring and a single interrupt (§5, "Optimized
  NVMe device driver"), which is why Phi-Solros can beat even the host
  in Figure 1(a).
"""

from __future__ import annotations

from typing import Generator, List, NamedTuple, Optional, Sequence

from ..obs.hub import hub_of
from ..sim.engine import Engine, SimError
from ..sim.record import record
from ..sim.resources import BandwidthLink, Resource
from .cpu import CPU, Core
from .params import NvmeParams
from .topology import Fabric

__all__ = ["NvmeOp", "NvmeDevice", "NvmeStats"]


class _NvmeOpFields(NamedTuple):
    op: str            # 'read' | 'write'
    offset: int        # byte offset on the device
    nbytes: int
    target: str        # topology node receiving/supplying the data


@record
class NvmeOp(_NvmeOpFields):
    """One I/O request: ``nbytes`` at byte ``offset``, data at ``target``.

    ``target`` is a topology node name: host RAM ("numa0"/"numa1") for
    buffered I/O, or a co-processor node ("phi2") for peer-to-peer.
    An immutable record (:mod:`repro.sim.record`), checked when built.
    """

    __slots__ = ()

    def __new__(cls, op: str, offset: int, nbytes: int, target: str):
        if op != "read" and op != "write":
            raise ValueError(f"bad NVMe op: {op!r}")
        if offset < 0 or nbytes <= 0:
            raise ValueError(f"bad NVMe extent: off={offset} n={nbytes}")
        return tuple.__new__(cls, (op, offset, nbytes, target))


class NvmeStats:
    """Operational counters (doorbells and interrupts tell the
    coalescing story in the ablation bench)."""

    def __init__(self) -> None:
        self.doorbells = 0
        self.commands = 0
        self.interrupts = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def reset(self) -> None:
        self.__init__()


class NvmeDevice:
    """The timing model of one NVMe SSD attached to the fabric."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        node: str,
        params: Optional[NvmeParams] = None,
        irq_cpu: Optional[CPU] = None,
    ):
        self.engine = engine
        self.fabric = fabric
        self.node = node
        self.params = params or NvmeParams()
        # The CPU whose IRQ line takes this device's completions (the
        # control-plane host socket in Solros).
        self.irq_cpu = irq_cpu
        p = self.params
        # Internal flash bandwidth, direction-specific.
        self._read_bus = BandwidthLink(
            engine, p.read_bytes_per_ns, 0, name=f"{node}.flash-read"
        )
        self._write_bus = BandwidthLink(
            engine, p.write_bytes_per_ns, 0, name=f"{node}.flash-write"
        )
        self._slots = Resource(engine, capacity=p.parallelism, name=f"{node}.slots")
        self.stats = NvmeStats()
        # Fault injection (repro.faults); None keeps the hooks dormant.
        self.faults = None
        obs = hub_of(engine)
        self.tracer = obs.tracer
        self._metered = obs.enabled
        self._h_cmd_bytes = obs.metrics.histogram(f"nvme.{node}.cmd_bytes")

    # ------------------------------------------------------------------
    # Command preparation
    # ------------------------------------------------------------------
    def split_mdts(self, op: NvmeOp) -> List[NvmeOp]:
        """Split a request into MDTS-sized NVMe commands."""
        mdts = self.params.mdts_bytes
        if op.nbytes <= mdts:
            return [op]
        cmds = []
        offset, remaining = op.offset, op.nbytes
        while remaining > 0:
            chunk = min(mdts, remaining)
            cmds.append(NvmeOp(op.op, offset, chunk, op.target))
            offset += chunk
            remaining -= chunk
        return cmds

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        initiator: Core,
        ops: Sequence[NvmeOp],
        coalesce_interrupts: bool = False,
        ctx=None,
    ) -> Generator:
        """Submit ``ops``, wait for all data movement and completion.

        ``initiator`` must be a host core: in Solros only the
        control-plane OS touches doorbell registers (§4), and in the
        baselines the host kernel drives the device too.

        With ``coalesce_interrupts`` (the Solros io-vector driver) the
        whole batch rings the doorbell once and raises one interrupt;
        otherwise every command pays its own doorbell + interrupt.
        """
        if initiator.kind != "host":
            raise SimError(
                "NVMe doorbells are host-only (control-plane mediates I/O)"
            )
        if not ops:
            return
        cmds: List[NvmeOp] = []
        for op in ops:
            cmds.extend(self.split_mdts(op))

        # Fault decisions are drawn here, before spawning, so a failing
        # batch raises at the submitter (which is waiting on all_of)
        # rather than inside an unwaited worker process.  Spiked
        # commands still pay their full timing; the error surfaces
        # after the batch completes, like a real completion-queue
        # entry with a bad status field.
        spikes = None
        failed: Optional[NvmeOp] = None
        if self.faults is not None:
            spikes = []
            for cmd in cmds:
                is_p2p = self.fabric.node(cmd.target).kind == "phi"
                extra, fails = self.faults.nvme_command(cmd.op, is_p2p)
                spikes.append(extra)
                if fails and failed is None:
                    failed = cmd

        if coalesce_interrupts:
            yield self.fabric.remote_tx(initiator, 1)  # one doorbell
            self.stats.doorbells += 1
            workers = [
                self.engine.spawn(
                    self._execute(
                        cmd, ctx=ctx,
                        extra_ns=spikes[i] if spikes else 0,
                    ),
                    name=f"nvme-{cmd.op}",
                )
                for i, cmd in enumerate(cmds)
            ]
            yield self.engine.all_of(workers)
            yield from self._interrupt()
        else:
            workers = []
            for i, cmd in enumerate(cmds):
                yield self.fabric.remote_tx(initiator, 1)
                self.stats.doorbells += 1
                workers.append(
                    self.engine.spawn(
                        self._execute(
                            cmd, interrupt=True, ctx=ctx,
                            extra_ns=spikes[i] if spikes else 0,
                        ),
                        name=f"nvme-{cmd.op}",
                    )
                )
            yield self.engine.all_of(workers)
        if failed is not None:
            from ..faults.plan import NvmeInjectedError

            raise NvmeInjectedError(
                f"injected {failed.op} error on {self.node} "
                f"({failed.nbytes}B @ {failed.offset} -> {failed.target})"
            )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _execute(
        self,
        cmd: NvmeOp,
        interrupt: bool = False,
        ctx=None,
        extra_ns: int = 0,
    ) -> Generator:
        p = self.params
        # One span per NVMe command; parallel commands overlap, so
        # per-category accounting must use interval unions.
        span = None
        if ctx is not None:
            span = self.tracer.child(
                f"nvme.cmd.{cmd.op}", "device", ctx, nbytes=cmd.nbytes,
                target=cmd.target,
            )
        if self._metered:
            self._h_cmd_bytes.record(cmd.nbytes)
        yield self._slots.request()
        try:
            self.stats.commands += 1
            yield p.cmd_overhead_ns
            if extra_ns:
                # Injected latency spike (firmware GC pause, thermal
                # throttle) — charged inside the slot like real work.
                yield extra_ns
            if cmd.op == "read":
                yield p.read_latency_ns
                yield from self.fabric.transfer_via(
                    self._read_bus, self.node, cmd.target, cmd.nbytes
                )
                self.stats.bytes_read += cmd.nbytes
            else:
                yield from self.fabric.transfer_via(
                    self._write_bus, cmd.target, self.node, cmd.nbytes
                )
                yield p.write_latency_ns
                self.stats.bytes_written += cmd.nbytes
        finally:
            self._slots.release()
        if span is not None:
            self.tracer.end(span)
        if interrupt:
            yield from self._interrupt()

    def _interrupt(self) -> Generator:
        """Count one completion interrupt; returns its host work to
        ``yield from``: the hold of the IRQ line that
        ``CPU.handle_interrupt`` charges, with no frame of its own."""
        self.stats.interrupts += 1
        cpu = self.irq_cpu
        if cpu is None:
            return _no_irq_cpu()
        return cpu.irq.using(cpu.params.interrupt_ns)


def _no_irq_cpu() -> Generator:
    yield 0
