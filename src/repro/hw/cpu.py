"""Processor model: fat host cores vs lean, massively parallel Phi cores.

The paper's design argument (§3, §4) hinges on processor asymmetry:
host Xeons run complex, branch-divergent code (I/O stacks) fast, while
Xeon Phi cores are individually ~8× slower on such code but come 61 to
a card and are competitive on vectorizable work.  :class:`Core.compute`
charges simulated time per abstract *work unit* (calibrated as
nanoseconds on a host core) scaled by the code kind.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from ..sim.engine import Delay, Engine, SimError
from ..sim.resources import Resource
from .memory import CoherenceStats, MemCell
from .params import CpuParams

__all__ = ["Core", "CPU"]

_WORK_KINDS = ("scalar", "branchy", "simd")


class Core:
    """One hardware thread's execution context."""

    __slots__ = ("engine", "cpu", "cid", "slot", "params", "kind", "work_mult")

    def __init__(self, engine: Engine, cpu: "CPU", cid: int):
        self.engine = engine
        self.cpu = cpu
        self.cid = cid
        # Per-core constants read on every charge: the package's
        # parameters, its kind ("host" | "phi") and per-kind multipliers.
        self.params: CpuParams = cpu.params
        self.kind: str = cpu.params.kind
        self.work_mult = cpu.work_mult
        # Oversubscription: if several simulated threads share a core
        # they serialize through this slot (used by the dispatcher
        # experiments, not the ≤1-thread-per-core microbenchmarks).
        self.slot = Resource(engine, capacity=1, name=f"{cpu.name}.c{cid}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Core {self.cpu.name}.c{self.cid}>"

    @property
    def node(self) -> str:
        """The topology node this core executes at."""
        return self.cpu.node

    # The pure-delay helpers below return the delay in ns; the caller
    # charges it with ``yield core.compute(...)``.

    def compute(self, units: float, kind: str = "scalar") -> Delay:
        """The time to execute ``units`` of work of the given kind.

        One unit == one nanosecond on a host core; Phi cores pay the
        per-kind multiplier from their :class:`CpuParams`.
        """
        try:
            mult = self.work_mult[kind]
        except KeyError:
            raise SimError(f"unknown work kind: {kind!r}") from None
        if units < 0:
            raise SimError(f"negative work: {units}")
        return int(units * mult)

    def syscall(self) -> Delay:
        """Kernel entry/exit overhead."""
        return self.params.syscall_ns

    def memcpy_local(self, nbytes: int) -> Delay:
        """The time to copy ``nbytes`` within this processor's local
        memory."""
        if nbytes < 0:
            raise SimError(f"negative copy size: {nbytes}")
        return max(0, int(nbytes / self.params.local_memcpy_bytes_per_ns))


class CPU:
    """A processor package: a set of cores plus shared facilities.

    ``node`` names the PCIe-topology node the package sits at (set by
    :class:`repro.hw.machine.Machine` during assembly); ``dma`` is the
    package's pool of DMA channels (8 per socket/card in the testbed).
    """

    def __init__(
        self,
        engine: Engine,
        params: CpuParams,
        name: str,
        node: str = "",
        n_cores: Optional[int] = None,
    ):
        self.engine = engine
        self.params = params
        self.name = name
        self.node = node
        self.coherence = CoherenceStats()
        # Per-kind ns per work unit, read by every Core.compute (which
        # relies on them being non-negative).
        self.work_mult = {k: getattr(params, f"{k}_mult") for k in _WORK_KINDS}
        for kind, mult in self.work_mult.items():
            if mult < 0:
                raise ValueError(f"negative {kind}_mult: {mult}")
        count = params.cores if n_cores is None else n_cores
        if count < 1:
            raise ValueError("a CPU needs at least one core")
        self.cores: List[Core] = [Core(engine, self, i) for i in range(count)]
        self.dma = Resource(
            engine, capacity=params.dma_channels, name=f"{name}.dma"
        )
        # Programming a DMA descriptor serializes on the (SCIF) driver
        # lock even though the 8 channels then transfer in parallel —
        # this is why small concurrent DMAs cannot beat parallel
        # load/store copies below the Figure 10 crossover.
        self.dma_prog = Resource(engine, capacity=1, name=f"{name}.dma-prog")
        # IRQ handling serializes on one line/core; interrupt-heavy I/O
        # paths bottleneck here, which io-vector coalescing relieves.
        self.irq = Resource(engine, capacity=1, name=f"{name}.irq")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CPU {self.name} ({self.params.kind}, {len(self.cores)} cores)>"

    def core(self, i: int) -> Core:
        return self.cores[i]

    def new_cell(self, value: Any = None, name: str = "") -> MemCell:
        """Allocate one cache line in this package's memory."""
        return MemCell(
            self.engine, self.params, value=value, name=name, stats=self.coherence
        )

    def handle_interrupt(self) -> Generator:
        """Charge one interrupt's worth of host work, serialized on the
        package's IRQ line."""
        yield from self.irq.using(self.params.interrupt_ns)
