"""The modular MAX-PolyMem: Fig. 3 as separate dataflow kernels.

This is the paper's first, multi-kernel implementation (§III-C): each block
of Fig. 3 — AGU, M, A, the Shuffles, and the Memory Banks — is its own
kernel, connected by the manager through inter-kernel streams.  It is
behaviourally identical to :class:`~repro.maxpolymem.kernel.
FusedPolyMemKernel` (integration-tested), but pays stream-infrastructure
resources on every internal edge and accumulates one cycle of latency per
pipeline stage — reproducing the paper's observation that the modular
version consumes about twice the resources of the fused one.

Pipeline element protocol: a :class:`Bundle` travels down the write path
(AGU → M → A → Address/Write-Data Shuffle → Banks) and each read path
(AGU → M → A → Address Shuffle → Banks → Read Data Shuffle), accumulating
fields at each stage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core.addressing import AddressingFunction
from ..core.agu import AGU, AccessRequest
from ..core.banks import BankArray
from ..core.config import PolyMemConfig
from ..core.schemes import flat_module_assignment
from ..core.shuffle import InverseShuffle, Shuffle
from ..maxeler.kernel import Kernel
from ..maxeler.manager import Manager

__all__ = ["Bundle", "build_modular_design", "ModularDesign"]


@dataclass(frozen=True)
class Bundle:
    """A parallel access in flight through the modular pipeline."""

    request: AccessRequest
    values: np.ndarray | None = None  # DataIn (write path only)
    ii: np.ndarray | None = None      # expanded coordinates (after AGU)
    jj: np.ndarray | None = None
    banks: np.ndarray | None = None   # reordering signal (after M)
    addrs: np.ndarray | None = None   # intra-bank addresses (after A)


class _StageKernel(Kernel):
    """A one-in one-out pipeline stage applying ``transform`` per element."""

    def __init__(self, name: str):
        super().__init__(name)

    def transform(self, element):  # pragma: no cover - abstract
        raise NotImplementedError

    def _tick(self) -> bool:
        inp, out = self.inputs["in"], self.outputs["out"]
        if inp.can_pop() and out.can_push():
            out.push(self.transform(inp.pop()))
            return True
        return False


class AGUKernel(_StageKernel):
    """Expands (i, j, AccType) into per-lane coordinates (paper block AGU)."""

    def __init__(self, name: str, config: PolyMemConfig):
        super().__init__(name)
        self.agu = AGU(config.rows, config.cols, config.p, config.q)

    def transform(self, b: Bundle) -> Bundle:
        ii, jj = self.agu.expand(b.request)
        return replace(b, ii=ii, jj=jj)


class MKernel(_StageKernel):
    """Module Assignment Function: emits the reordering signal (block M)."""

    def __init__(self, name: str, config: PolyMemConfig):
        super().__init__(name)
        self.config = config

    def transform(self, b: Bundle) -> Bundle:
        banks = flat_module_assignment(
            self.config.scheme, b.ii, b.jj, self.config.p, self.config.q
        )
        return replace(b, banks=banks)


class AKernel(_StageKernel):
    """Addressing function: intra-bank addresses (block A)."""

    def __init__(self, name: str, config: PolyMemConfig):
        super().__init__(name)
        self.addressing = AddressingFunction(
            config.rows, config.cols, config.p, config.q
        )

    def transform(self, b: Bundle) -> Bundle:
        return replace(b, addrs=self.addressing(b.ii, b.jj))


class WriteShuffleKernel(_StageKernel):
    """Address Shuffle + Write Data Shuffle: reorders addresses and DataIn
    into bank order before they hit the Memory Banks."""

    def __init__(self, name: str, lanes: int):
        super().__init__(name)
        self._shuffle = Shuffle(lanes)

    def transform(self, b: Bundle) -> Bundle:
        addr_by_bank = self._shuffle(b.addrs, b.banks)
        data_by_bank = self._shuffle(b.values, b.banks)
        return replace(b, addrs=addr_by_bank, values=data_by_bank)


class AddrShuffleKernel(_StageKernel):
    """Address Shuffle of a read path (no data to reorder yet)."""

    def __init__(self, name: str, lanes: int):
        super().__init__(name)
        self._shuffle = Shuffle(lanes)

    def transform(self, b: Bundle) -> Bundle:
        return replace(b, addrs=self._shuffle(b.addrs, b.banks))


class BanksKernel(Kernel):
    """The p x q Memory Banks with one write port and R read ports.

    Inputs: ``write`` (bank-ordered bundles) and ``read{r}``; outputs
    ``rdata{r}`` carrying bank-ordered data plus the reordering signal.
    """

    def __init__(self, name: str, config: PolyMemConfig):
        super().__init__(name)
        self.config = config
        self.banks = BankArray(
            num_banks=config.lanes,
            bank_depth=config.bank_depth,
            read_ports=config.read_ports,
        )
        self._lane_ids = np.arange(config.lanes)

    def _tick(self) -> bool:
        progressed = False
        # reads happen before the write lands (independent port semantics,
        # matching PolyMem.step)
        for port in range(self.config.read_ports):
            inp = self.inputs.get(f"read{port}")
            out = self.outputs.get(f"rdata{port}")
            if inp is not None and inp.can_pop() and out.can_push():
                b: Bundle = inp.pop()
                data = self.banks.read(port, self._lane_ids, b.addrs)
                out.push(replace(b, values=data))
                progressed = True
        wr = self.inputs.get("write")
        if wr is not None and wr.can_pop():
            b = wr.pop()
            self.banks.write(self._lane_ids, b.addrs, b.values)
            progressed = True
        return progressed


class ReadShuffleKernel(_StageKernel):
    """Read Data Shuffle: restores lane order on the way out (inverse of the
    write-side reordering, per §III-B's regular/inverse shuffle pairing)."""

    def __init__(self, name: str, lanes: int):
        super().__init__(name)
        self._shuffle = InverseShuffle(lanes)

    def transform(self, b: Bundle) -> np.ndarray:
        return self._shuffle(b.values, b.banks)


class _CmdAdapter(_StageKernel):
    """Turns the command at the head of its command stream (one
    ``(request, values)`` read from the queued block) into a pipeline
    bundle."""

    COMMAND_PORTS = ("in",)

    def transform(self, cmd) -> Bundle:
        request, values = cmd
        return Bundle(
            request=request, values=None if values is None else np.asarray(values)
        )


@dataclass
class ModularEndpoints:
    """Connection points of a modular PolyMem embedded in a larger design.

    ``wr_cmd`` and ``rd_cmd[r]`` are the (kernel, port) command inputs:
    each takes :class:`~repro.core.plan.AccessBlock` s (write blocks with
    ``(n, lanes)`` values) through a
    :class:`~repro.maxeler.stream.CommandStream`, and its adapter reads
    one command per cycle from the head block.  ``rd_out[r]`` produce
    lane-ordered result vectors.
    """

    banks: BanksKernel
    wr_cmd: tuple[Kernel, str]
    rd_cmd: list[tuple[Kernel, str]]
    rd_out: list[tuple[Kernel, str]]


@dataclass
class ModularDesign:
    """The assembled modular design and its endpoints."""

    manager: Manager
    config: PolyMemConfig
    banks: BanksKernel

    @property
    def pipeline_latency(self) -> int:
        """Read-path stages: adapter, AGU, M, A, addr shuffle, banks, read
        shuffle — one cycle each."""
        return 7


def add_modular_polymem(
    mgr: Manager, config: PolyMemConfig, prefix: str = ""
) -> ModularEndpoints:
    """Instantiate the Fig. 3 pipeline inside an existing design.

    Used both by :func:`build_modular_design` (standalone, host-wired) and
    by larger compositions (e.g. a modular STREAM design) that connect the
    returned endpoints to their own kernels.
    """
    banks = BanksKernel(f"{prefix}banks", config)
    mgr.add_kernel(banks)

    # write path
    wr_in = mgr.add_kernel(_CmdAdapter(f"{prefix}wr_adapter"))
    wr_agu = mgr.add_kernel(AGUKernel(f"{prefix}wr_agu", config))
    wr_m = mgr.add_kernel(MKernel(f"{prefix}wr_m", config))
    wr_a = mgr.add_kernel(AKernel(f"{prefix}wr_a", config))
    wr_sh = mgr.add_kernel(WriteShuffleKernel(f"{prefix}wr_shuffle", config.lanes))
    mgr.connect(wr_in, "out", wr_agu, "in")
    mgr.connect(wr_agu, "out", wr_m, "in")
    mgr.connect(wr_m, "out", wr_a, "in")
    mgr.connect(wr_a, "out", wr_sh, "in")
    mgr.connect(wr_sh, "out", banks, "write")

    rd_cmd: list[tuple[Kernel, str]] = []
    rd_out: list[tuple[Kernel, str]] = []
    for port in range(config.read_ports):
        rd_in = mgr.add_kernel(_CmdAdapter(f"{prefix}rd_adapter{port}"))
        rd_agu = mgr.add_kernel(AGUKernel(f"{prefix}rd_agu{port}", config))
        rd_m = mgr.add_kernel(MKernel(f"{prefix}rd_m{port}", config))
        rd_a = mgr.add_kernel(AKernel(f"{prefix}rd_a{port}", config))
        rd_sh = mgr.add_kernel(
            AddrShuffleKernel(f"{prefix}rd_addr_shuffle{port}", config.lanes)
        )
        rd_data = mgr.add_kernel(
            ReadShuffleKernel(f"{prefix}rd_data_shuffle{port}", config.lanes)
        )
        mgr.connect(rd_in, "out", rd_agu, "in")
        mgr.connect(rd_agu, "out", rd_m, "in")
        mgr.connect(rd_m, "out", rd_a, "in")
        mgr.connect(rd_a, "out", rd_sh, "in")
        mgr.connect(rd_sh, "out", banks, f"read{port}")
        mgr.connect(banks, f"rdata{port}", rd_data, "in")
        rd_cmd.append((rd_in, "in"))
        rd_out.append((rd_data, "out"))

    return ModularEndpoints(
        banks=banks, wr_cmd=(wr_in, "in"), rd_cmd=rd_cmd, rd_out=rd_out
    )


def build_modular_design(
    config: PolyMemConfig, name: str = "max-polymem"
) -> ModularDesign:
    """Assemble the full Fig. 3 pipeline as a standalone modular design.

    Host endpoints: input streams ``wr_cmd`` and ``rd_cmd{r}``; output
    streams ``rd_out{r}``.
    """
    mgr = Manager(name, style="modular")
    ep = add_modular_polymem(mgr, config)
    mgr.host_to_kernel("wr_cmd", *ep.wr_cmd)
    for port in range(config.read_ports):
        mgr.host_to_kernel(f"rd_cmd{port}", *ep.rd_cmd[port])
        mgr.kernel_to_host(f"rd_out{port}", *ep.rd_out[port])
    return ModularDesign(manager=mgr, config=config, banks=ep.banks)
