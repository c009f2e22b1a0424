"""DRAM timing simulator substrate.

This subpackage implements the memory-system substrate the GradPIM paper
builds on: JEDEC DDR4 timing state machines at bank / bank-group / rank /
channel granularity (multi-channel devices give every channel a private
replica of the whole stack), a cycle-level memory-controller issue engine
with a configurable command-bus model (the lever that separates
GradPIM-Direct from GradPIM-Buffered), the Fig. 7 address mapping with
channel bits above the rank bits, and a Micron-style IDD-based energy
model.

The public surface:

* :class:`repro.dram.timing.TimingParams` and presets (``DDR4_2133`` ...)
* :class:`repro.dram.geometry.DeviceGeometry`
* :class:`repro.dram.commands.Command` / :class:`CommandType`
* :class:`repro.dram.scheduler.CommandScheduler`
* :class:`repro.dram.columnar.ColumnarStream` (struct-of-arrays view)
* :class:`repro.dram.address.AddressMapping`
* :class:`repro.dram.power.EnergyModel`
* :func:`repro.dram.validator.validate_trace` /
  :func:`repro.dram.validator.validate_trace_columnar`
"""

from repro.dram.timing import (
    TimingParams,
    DDR4_2133,
    DDR4_3200,
    HBM_LIKE,
    PRESET_CHANNELS,
    PRESETS,
)
from repro.dram.currents import IddCurrents, DDR4_2133_CURRENTS
from repro.dram.geometry import DeviceGeometry, DEFAULT_GEOMETRY
from repro.dram.commands import Command, CommandType
from repro.dram.address import AddressMapping, DecodedAddress
from repro.dram.columnar import (
    ColumnarSchedule,
    ColumnarStream,
    schedule_columnar,
)
from repro.dram.scheduler import (
    ChannelPartition,
    CommandScheduler,
    IssueModel,
    ScheduleResult,
    replicate_across_channels,
    split_channels,
)
from repro.dram.power import EnergyModel, EnergyBreakdown
from repro.dram.steady import (
    PeriodicOutcome,
    PeriodSegment,
    SegmentLock,
    SegmentRecorder,
    StreamPeriod,
    build_dependents,
)
from repro.dram.validator import validate_trace, validate_trace_columnar

__all__ = [
    "TimingParams",
    "DDR4_2133",
    "DDR4_3200",
    "HBM_LIKE",
    "PRESET_CHANNELS",
    "PRESETS",
    "IddCurrents",
    "DDR4_2133_CURRENTS",
    "DeviceGeometry",
    "DEFAULT_GEOMETRY",
    "Command",
    "CommandType",
    "AddressMapping",
    "DecodedAddress",
    "ChannelPartition",
    "ColumnarSchedule",
    "ColumnarStream",
    "CommandScheduler",
    "IssueModel",
    "ScheduleResult",
    "build_dependents",
    "replicate_across_channels",
    "schedule_columnar",
    "split_channels",
    "EnergyModel",
    "EnergyBreakdown",
    "PeriodicOutcome",
    "PeriodSegment",
    "SegmentLock",
    "SegmentRecorder",
    "StreamPeriod",
    "validate_trace",
    "validate_trace_columnar",
]
