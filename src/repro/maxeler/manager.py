"""The custom manager: connects kernels into a design (paper §III-C).

The paper builds MAX-PolyMem twice — a *modular* multi-kernel design
(easier to test, ~2x resource usage due to inter-kernel stream
infrastructure) and a *fused* single-kernel design.  :class:`Manager`
models both: the composition style only changes the resource estimate, not
the behaviour, reproducing the paper's modularity-vs-performance trade-off
(`benchmarks/bench_ablation_modular_vs_fused.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.exceptions import SimulationError
from .kernel import Kernel
from .stream import CommandStream, Stream

__all__ = ["Manager", "DesignResources"]

#: LUT cost of one inter-kernel stream endpoint pair (FIFO + handshake),
#: the "additional inter-kernel communication infrastructure" of §III-C
INTERKERNEL_STREAM_LUTS = 420


@dataclass(frozen=True)
class DesignResources:
    """Resource summary of a composed design."""

    kernel_luts: int
    interconnect_luts: int
    num_kernels: int
    num_streams: int

    @property
    def total_luts(self) -> int:
        return self.kernel_luts + self.interconnect_luts


def _stream_type(dst: Kernel, dst_port: str) -> type[Stream]:
    return CommandStream if dst_port.startswith(dst.COMMAND_PORTS) else Stream


class Manager:
    """Builds and owns a dataflow design: kernels + streams + host I/O.

    Parameters
    ----------
    name:
        Design name.
    style:
        ``"modular"`` — each kernel is a separate MaxJ kernel with stream
        interconnect between them (the paper's multi-kernel design);
        ``"fused"`` — kernels share one context, inter-kernel streams are
        plain wires (the paper's single-kernel design).
    """

    def __init__(self, name: str, style: str = "modular"):
        if style not in ("modular", "fused"):
            raise SimulationError(f"unknown design style {style!r}")
        self.name = name
        self.style = style
        self.kernels: dict[str, Kernel] = {}
        self.streams: dict[str, Stream] = {}
        self._host_inputs: dict[str, Stream] = {}
        self._host_outputs: dict[str, Stream] = {}
        self._frozen = False

    # -- construction -----------------------------------------------------
    def add_kernel(self, kernel: Kernel) -> Kernel:
        """Register *kernel* with the design."""
        self._check_mutable()
        if kernel.name in self.kernels:
            raise SimulationError(f"duplicate kernel name {kernel.name!r}")
        self.kernels[kernel.name] = kernel
        return kernel

    def connect(
        self,
        src: Kernel,
        src_port: str,
        dst: Kernel,
        dst_port: str,
        capacity: int = 16,
    ) -> Stream:
        """Create a stream from *src.src_port* to *dst.dst_port*."""
        self._check_mutable()
        self._check_registered(src)
        self._check_registered(dst)
        name = f"{src.name}.{src_port}->{dst.name}.{dst_port}"
        stream = _stream_type(dst, dst_port)(name, capacity)
        src.bind_output(src_port, stream)
        dst.bind_input(dst_port, stream)
        self.streams[name] = stream
        return stream

    def host_to_kernel(self, name: str, dst: Kernel, dst_port: str) -> Stream:
        """An unbounded stream the host writes and *dst* reads (PCIe in)."""
        self._check_mutable()
        self._check_registered(dst)
        stream = _stream_type(dst, dst_port)(f"host->{name}", capacity=None)
        dst.bind_input(dst_port, stream)
        self.streams[stream.name] = stream
        self._host_inputs[name] = stream
        return stream

    def kernel_to_host(self, name: str, src: Kernel, src_port: str) -> Stream:
        """An unbounded stream *src* writes and the host drains (PCIe out)."""
        self._check_mutable()
        self._check_registered(src)
        stream = Stream(f"{name}->host", capacity=None)
        src.bind_output(src_port, stream)
        self.streams[stream.name] = stream
        self._host_outputs[name] = stream
        return stream

    def host_input(self, name: str) -> Stream:
        return self._host_inputs[name]

    def host_output(self, name: str) -> Stream:
        return self._host_outputs[name]

    def freeze(self) -> None:
        """Finish construction ("generate the bitstream")."""
        self._frozen = True

    def _check_mutable(self) -> None:
        if self._frozen:
            raise SimulationError(f"design {self.name!r} is frozen")

    def _check_registered(self, kernel: Kernel) -> None:
        if self.kernels.get(kernel.name) is not kernel:
            raise SimulationError(
                f"kernel {kernel.name!r} is not part of design {self.name!r}"
            )

    # -- resources -----------------------------------------------------------
    def resources(self, kernel_luts: dict[str, int] | None = None) -> DesignResources:
        """Resource estimate of the composed design.

        *kernel_luts* maps kernel name to its intrinsic LUT cost (defaults
        to 0 for generic glue kernels).  In the ``modular`` style every
        kernel-to-kernel stream adds FIFO/handshake infrastructure; fused
        designs pay nothing for internal wires — the §III-C observation
        that the modular version consumes about twice the resources.
        """
        kernel_luts = kernel_luts or {}
        kluts = sum(kernel_luts.get(n, 0) for n in self.kernels)
        internal = [
            s
            for n, s in self.streams.items()
            if "host" not in n.split(".")[0] and not n.endswith("->host")
            and not n.startswith("host->")
        ]
        if self.style == "modular":
            interconnect = INTERKERNEL_STREAM_LUTS * len(internal)
        else:
            interconnect = 0
        return DesignResources(
            kernel_luts=kluts,
            interconnect_luts=interconnect,
            num_kernels=len(self.kernels),
            num_streams=len(self.streams),
        )
