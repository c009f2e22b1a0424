"""Counters collected while scheduling a command trace."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.commands import Command, CommandType
from repro.dram.geometry import DeviceGeometry
from repro.dram.timing import TimingParams


@dataclass
class TraceStats:
    """Aggregate statistics of one scheduled command stream."""

    counts: dict[CommandType, int] = field(default_factory=dict)
    total_cycles: int = 0
    issued_commands: int = 0
    port_issued: list[int] = field(default_factory=list)
    #: Per-channel completion cycles of a multi-channel schedule,
    #: indexed by channel id. Empty for single-channel runs, where
    #: ``total_cycles`` carries the whole story (kept empty there so
    #: ``channels=1`` stats stay identical to the historical form).
    channel_cycles: list[int] = field(default_factory=list)

    @classmethod
    def merge_channels(
        cls, per_channel: list["TraceStats"]
    ) -> "TraceStats":
        """Aggregate independent per-channel schedules into device
        stats: counts and command totals sum, per-port totals sum
        position-wise (every channel owns a full replica of the issue
        ports), and elapsed time is the slowest channel."""
        merged = cls()
        for stats in per_channel:
            for kind, n in stats.counts.items():
                merged.counts[kind] = merged.counts.get(kind, 0) + n
            merged.issued_commands += stats.issued_commands
            for port, n in enumerate(stats.port_issued):
                while len(merged.port_issued) <= port:
                    merged.port_issued.append(0)
                merged.port_issued[port] += n
            merged.channel_cycles.append(stats.total_cycles)
        merged.total_cycles = max(merged.channel_cycles, default=0)
        return merged

    def record(self, cmd: Command, port: int) -> None:
        """Count one issued command."""
        self.counts[cmd.kind] = self.counts.get(cmd.kind, 0) + 1
        self.issued_commands += 1
        while len(self.port_issued) <= port:
            self.port_issued.append(0)
        self.port_issued[port] += 1

    # ------------------------------------------------------------------
    def count(self, kind: CommandType) -> int:
        """Issued commands of one type."""
        return self.counts.get(kind, 0)

    def internal_accesses(self) -> int:
        """GradPIM column accesses (bank <-> register, 64 B each)."""
        return (
            self.count(CommandType.SCALED_READ)
            + self.count(CommandType.WRITEBACK)
            + self.count(CommandType.QREG_LOAD)
            + self.count(CommandType.QREG_STORE)
        )

    def external_accesses(self) -> int:
        """Conventional column accesses (off-chip bus, 64 B each)."""
        return self.count(CommandType.RD) + self.count(CommandType.WR)

    def alu_ops(self) -> int:
        """Parallel-ALU operations."""
        return (
            self.count(CommandType.PIM_ADD)
            + self.count(CommandType.PIM_SUB)
            + self.count(CommandType.PIM_QUANT)
            + self.count(CommandType.PIM_DEQUANT)
        )

    def internal_bytes(self, geometry: DeviceGeometry) -> int:
        """Bytes moved between banks and GradPIM registers."""
        return self.internal_accesses() * geometry.column_bytes

    def external_bytes(self, geometry: DeviceGeometry) -> int:
        """Bytes moved over the off-chip data bus."""
        return self.external_accesses() * geometry.column_bytes

    # ------------------------------------------------------------------
    def elapsed_seconds(self, timing: TimingParams) -> float:
        """Wall-clock duration of the schedule."""
        return timing.cycles_to_s(self.total_cycles)

    def internal_bandwidth(
        self, timing: TimingParams, geometry: DeviceGeometry
    ) -> float:
        """Achieved DRAM-internal bandwidth in bytes/second (Fig. 11)."""
        seconds = self.elapsed_seconds(timing)
        if seconds == 0:
            return 0.0
        return self.internal_bytes(geometry) / seconds

    def external_bandwidth(
        self, timing: TimingParams, geometry: DeviceGeometry
    ) -> float:
        """Achieved off-chip bandwidth in bytes/second."""
        seconds = self.elapsed_seconds(timing)
        if seconds == 0:
            return 0.0
        return self.external_bytes(geometry) / seconds

    def command_bus_utilization(self) -> float:
        """Fraction of single-command-bus slots consumed, aggregated.

        Values above 1.0 mean the stream needed more command slots than
        one bus provides — possible only with buffered (per-rank) command
        generation. This matches the paper's Fig. 11 (top), whose y-axis
        extends to 400 % for GradPIM-Buffered with four ranks.
        """
        if self.total_cycles == 0:
            return 0.0
        return self.issued_commands / self.total_cycles
