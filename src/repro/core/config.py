"""Configuration model for TPSIM.

Every knob of the paper's simulation model is represented here, mapping
one-to-one onto the parameter tables:

* Table 3.1 — workload and database model (:class:`PartitionConfig`,
  :class:`SubPartition`, :class:`TransactionTypeConfig`).
* Table 3.3 — computing-module parameters (:class:`CMConfig`).
* Table 3.4 — external storage devices (:class:`DiskUnitConfig`,
  :class:`NVEMConfig`, allocation fields).

A complete simulation is described by a :class:`SystemConfig`; its
:meth:`SystemConfig.validate` method rejects the meaningless allocation
combinations called out in the paper's footnote 4 (e.g. a write buffer
both in NVEM and in a disk cache for the same partition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "AccessMode",
    "CCMode",
    "CMConfig",
    "DeviceFault",
    "DeviceSpec",
    "DiskUnitConfig",
    "DiskUnitType",
    "Distribution",
    "LOG_COPY_PRIMARY",
    "LOG_COPY_MIRROR",
    "LogAllocation",
    "MEMORY",
    "MediaConfig",
    "NVEM",
    "NVEMCachingMode",
    "NVEMConfig",
    "PartitionConfig",
    "PolicySpec",
    "RecoveryConfig",
    "SubPartition",
    "SystemConfig",
    "TransactionTypeConfig",
    "UpdateStrategy",
]

#: Allocation target meaning "main memory resident" (no external device).
MEMORY = "memory"
#: Allocation target meaning "resident in non-volatile extended memory".
NVEM = "nvem"
#: Logical fault targets for the two copies of an NVEM-resident log.
LOG_COPY_PRIMARY = "log:0"
LOG_COPY_MIRROR = "log:1"


class UpdateStrategy(Enum):
    """Propagation strategy for modified pages [HR83]."""

    FORCE = "force"
    NOFORCE = "noforce"


class CCMode(Enum):
    """Concurrency-control granularity for a partition (§3.2)."""

    NONE = "none"
    PAGE = "page"
    OBJECT = "object"


class AccessMode(Enum):
    """Whether device access keeps the CPU busy (§3.2)."""

    SYNC = "sync"
    ASYNC = "async"


class NVEMCachingMode(Enum):
    """Which pages migrate from main memory to the NVEM cache (§3.2)."""

    NONE = "none"
    MODIFIED = "modified"
    UNMODIFIED = "unmodified"
    ALL = "all"


class DiskUnitType(Enum):
    """Device kinds behind the disk interface (Table 3.4)."""

    REGULAR = "regular"
    VOLATILE_CACHE = "volatile_cache"
    NONVOLATILE_CACHE = "nonvolatile_cache"
    SSD = "ssd"


class Distribution(Enum):
    """Service-time distribution for a delay parameter."""

    CONSTANT = "constant"
    EXPONENTIAL = "exponential"


@dataclass
class DeviceSpec:
    """A storage device as a ``(kind, params)`` spec.

    ``kind`` names a factory in the device registry
    (:mod:`repro.storage.registry`); ``params`` are its keyword
    arguments.  Configuration stays pure data — it never imports a
    concrete device class.
    """

    kind: str
    name: str
    params: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        if not self.kind:
            raise ValueError(f"device {self.name!r}: empty kind")
        if not self.name:
            raise ValueError(f"device spec of kind {self.kind!r} needs a name")


@dataclass
class PolicySpec:
    """A replacement policy as a ``(kind, params)`` spec.

    Resolved through the policy registry by the buffer manager and the
    disk-cache policies.  ``params`` are forwarded to the policy factory
    (e.g. ``kin`` / ``kout`` for 2Q).
    """

    kind: str = "lru"
    params: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        if not self.kind:
            raise ValueError("replacement policy spec: empty kind")


@dataclass(frozen=True)
class SubPartition:
    """One leg of the generalized b/c access rule (§3.1).

    ``size`` and ``access_prob`` are relative weights; the partition
    normalizes them.  A uniform partition is one subpartition with any
    positive weights.
    """

    size: float
    access_prob: float

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError(f"subpartition size must be positive: {self.size}")
        if self.access_prob < 0:
            raise ValueError(
                f"subpartition access probability must be >= 0: {self.access_prob}"
            )


@dataclass
class PartitionConfig:
    """A database partition (file / relation / index) — Table 3.1."""

    name: str
    num_objects: int
    block_factor: int = 1
    subpartitions: List[SubPartition] = field(
        default_factory=lambda: [SubPartition(1.0, 1.0)]
    )
    cc_mode: CCMode = CCMode.PAGE
    #: Allocation target: MEMORY, NVEM, or the name of a disk unit.
    allocation: str = "unit0"
    access_mode: AccessMode = AccessMode.ASYNC
    nvem_caching: NVEMCachingMode = NVEMCachingMode.NONE
    nvem_write_buffer: bool = False
    #: Sequential partitions are appended to at the current end (HISTORY).
    sequential_append: bool = False

    @property
    def num_pages(self) -> int:
        return max(1, math.ceil(self.num_objects / self.block_factor))

    def page_of_object(self, obj: int) -> int:
        return obj // self.block_factor

    def validate(self) -> None:
        if self.num_objects < 1:
            raise ValueError(f"partition {self.name}: num_objects must be >= 1")
        if self.block_factor < 1:
            raise ValueError(f"partition {self.name}: block_factor must be >= 1")
        if not self.subpartitions:
            raise ValueError(f"partition {self.name}: needs >= 1 subpartition")
        if sum(sp.access_prob for sp in self.subpartitions) <= 0:
            raise ValueError(
                f"partition {self.name}: subpartition access probabilities sum to 0"
            )
        if self.nvem_caching != NVEMCachingMode.NONE and self.nvem_write_buffer:
            # Footnote 4: NVEM caching already covers the write path; a
            # separate write buffer for the same partition is meaningless.
            raise ValueError(
                f"partition {self.name}: NVEM caching and NVEM write buffer "
                "are mutually exclusive"
            )
        if self.allocation == MEMORY and (
            self.nvem_caching != NVEMCachingMode.NONE or self.nvem_write_buffer
        ):
            raise ValueError(
                f"partition {self.name}: memory-resident partitions use no "
                "NVEM cache or write buffer"
            )
        if self.allocation == NVEM and (
            self.nvem_caching != NVEMCachingMode.NONE or self.nvem_write_buffer
        ):
            raise ValueError(
                f"partition {self.name}: NVEM-resident partitions use no "
                "NVEM cache or write buffer"
            )


@dataclass
class TransactionTypeConfig:
    """A transaction type of the synthetic workload model — Table 3.1."""

    name: str
    arrival_rate: float
    tx_size: float
    write_prob: float
    #: Row of the relative reference matrix: partition name -> fraction.
    reference_matrix: Dict[str, float] = field(default_factory=dict)
    sequential: bool = False
    var_size: bool = False

    def validate(self, partition_names: Sequence[str]) -> None:
        if self.arrival_rate < 0:
            raise ValueError(f"tx type {self.name}: negative arrival rate")
        if self.tx_size < 1:
            raise ValueError(f"tx type {self.name}: tx_size must be >= 1")
        if not 0.0 <= self.write_prob <= 1.0:
            raise ValueError(f"tx type {self.name}: write_prob not in [0,1]")
        if not self.reference_matrix:
            raise ValueError(f"tx type {self.name}: empty reference matrix row")
        total = sum(self.reference_matrix.values())
        if not math.isclose(total, 1.0, rel_tol=1e-6):
            raise ValueError(
                f"tx type {self.name}: reference matrix row sums to {total}, "
                "expected 1.0"
            )
        unknown = set(self.reference_matrix) - set(partition_names)
        if unknown:
            raise ValueError(
                f"tx type {self.name}: references unknown partitions {unknown}"
            )


@dataclass
class DiskUnitConfig:
    """One disk unit: SSD, plain disks, or disks with a cache — Table 3.4."""

    name: str
    unit_type: DiskUnitType = DiskUnitType.REGULAR
    num_controllers: int = 1
    controller_delay: float = 0.001
    trans_delay: float = 0.0004
    num_disks: int = 1
    disk_delay: float = 0.015
    cache_size: int = 0
    #: Use the non-volatile cache purely as a write buffer (log units).
    write_buffer_only: bool = False
    #: Table 4.1 gives fixed service times; CONSTANT matches the paper's
    #: "average access time per page" arithmetic (16.4 ms per DB disk
    #: I/O).  Switch to EXPONENTIAL to study service-time variance.
    controller_distribution: Distribution = Distribution.CONSTANT
    disk_distribution: Distribution = Distribution.CONSTANT
    #: How I/Os map to the unit's disk servers: "random" models a
    #: partition "(uniformly) spread across multiple disks" (§3.3) and
    #: avoids hot-page hotspots (e.g. the HISTORY tail page under
    #: FORCE); "page" pins each page to one disk (page_no mod NumDisks).
    striping: str = "random"
    #: Replacement policy of the controller-managed cache (registry
    #: kind + params); the paper's IBM-3990-style caches are LRU.
    cache_policy: PolicySpec = field(default_factory=PolicySpec)

    def validate(self) -> None:
        self.cache_policy.validate()
        if self.striping not in ("random", "page"):
            raise ValueError(
                f"unit {self.name}: unknown striping {self.striping!r}"
            )
        if self.num_controllers < 1:
            raise ValueError(f"unit {self.name}: num_controllers must be >= 1")
        if self.controller_delay < 0 or self.trans_delay < 0:
            raise ValueError(f"unit {self.name}: negative delay")
        if self.unit_type != DiskUnitType.SSD:
            if self.num_disks < 1:
                raise ValueError(f"unit {self.name}: num_disks must be >= 1")
            if self.disk_delay <= 0:
                raise ValueError(f"unit {self.name}: disk_delay must be > 0")
        if self.unit_type in (
            DiskUnitType.VOLATILE_CACHE,
            DiskUnitType.NONVOLATILE_CACHE,
        ):
            if self.cache_size < 1:
                raise ValueError(
                    f"unit {self.name}: cached unit needs cache_size >= 1"
                )
        if self.write_buffer_only and self.unit_type != DiskUnitType.NONVOLATILE_CACHE:
            raise ValueError(
                f"unit {self.name}: write_buffer_only requires a "
                "non-volatile cache"
            )


@dataclass
class NVEMConfig:
    """The non-volatile extended memory device — Table 3.4."""

    num_servers: int = 1
    delay: float = 50e-6
    distribution: Distribution = Distribution.CONSTANT

    def validate(self) -> None:
        if self.num_servers < 1:
            raise ValueError("NVEM needs at least one server")
        if self.delay < 0:
            raise ValueError("NVEM delay must be >= 0")


@dataclass
class LogAllocation:
    """Where the log file lives and whether writes are buffered (§3.3).

    ``device`` is NVEM or a disk-unit name.  ``nvem_write_buffer`` puts a
    write buffer for the log in NVEM (only sensible for a disk-resident
    log).  A write buffer in the disk controller is expressed by giving
    the log unit a non-volatile cache with ``write_buffer_only=True``.
    """

    device: str = "log0"
    nvem_write_buffer: bool = False

    def validate(self) -> None:
        if self.device == MEMORY:
            raise ValueError("the log cannot be volatile-memory resident")
        if self.device == NVEM and self.nvem_write_buffer:
            raise ValueError("an NVEM-resident log needs no NVEM write buffer")


@dataclass
class CMConfig:
    """Computing-module parameters — Table 3.3."""

    mpl: int = 200
    instr_bot: float = 40_000
    instr_or: float = 40_000
    instr_eot: float = 50_000
    num_cpus: int = 4
    mips: float = 50.0
    buffer_size: int = 2000
    update_strategy: UpdateStrategy = UpdateStrategy.NOFORCE
    logging: bool = True
    instr_io: float = 3_000
    instr_nvem: float = 300
    nvem_cache_size: int = 0
    nvem_write_buffer_size: int = 0
    #: Extensions discussed but not modelled in the paper (§3.2 fn. 3,
    #: §4.3): all default off to match the published configuration.
    group_commit_size: int = 1
    group_commit_timeout: float = 0.0
    async_replacement: bool = False
    deferred_nvem_propagation: bool = False
    #: Replacement policies of the software-managed caching levels,
    #: as registry specs ("lru" reproduces the paper).
    mm_policy: PolicySpec = field(default_factory=PolicySpec)
    nvem_policy: PolicySpec = field(default_factory=PolicySpec)

    def validate(self) -> None:
        self.mm_policy.validate()
        self.nvem_policy.validate()
        if self.mpl < 1:
            raise ValueError("MPL must be >= 1")
        if self.num_cpus < 1:
            raise ValueError("need at least one CPU")
        if self.mips <= 0:
            raise ValueError("MIPS must be positive")
        if self.buffer_size < 1:
            raise ValueError("main memory buffer needs >= 1 frame")
        if min(self.instr_bot, self.instr_or, self.instr_eot,
               self.instr_io, self.instr_nvem) < 0:
            raise ValueError("instruction counts must be >= 0")
        if self.nvem_cache_size < 0 or self.nvem_write_buffer_size < 0:
            raise ValueError("NVEM sizes must be >= 0")
        if self.group_commit_size < 1:
            raise ValueError("group_commit_size must be >= 1")
        if self.group_commit_timeout < 0:
            raise ValueError("group_commit_timeout must be >= 0")
        if self.group_commit_size > 1 and self.group_commit_timeout == 0.0:
            # A batch that never fills would wait forever for members
            # that may not arrive: commits would stall indefinitely.
            raise ValueError(
                "group_commit_size > 1 requires a positive "
                "group_commit_timeout (a partial batch must flush)"
            )

    @property
    def instructions_per_second(self) -> float:
        """Capacity of one CPU in instructions per second."""
        return self.mips * 1e6

    def cpu_seconds(self, instructions: float) -> float:
        """Convert an instruction count into seconds on one CPU."""
        return instructions / self.instructions_per_second


@dataclass(frozen=True)
class DeviceFault:
    """One scheduled media fault on a storage device (§4.4 media half).

    ``device`` names a disk unit / registered device, the NVEM bank
    (``"nvem"``), or one logical copy of an NVEM-resident log
    (:data:`LOG_COPY_PRIMARY` / :data:`LOG_COPY_MIRROR`).  ``kind`` is
    ``"transient"`` (I/O errors for ``duration`` seconds, survived by
    retry/backoff at the device access path) or ``"loss"`` (permanent
    media loss at ``time``; the device contents must be rebuilt from the
    archive copy plus a log scan before blocked pages become readable
    again).
    """

    device: str
    time: float
    kind: str = "loss"
    duration: float = 0.0

    def validate(self) -> None:
        if not self.device:
            raise ValueError("device fault: empty device name")
        if self.time <= 0:
            raise ValueError(
                f"device fault on {self.device!r}: time must be positive"
            )
        if self.kind not in ("loss", "transient"):
            raise ValueError(
                f"device fault on {self.device!r}: unknown kind {self.kind!r}"
            )
        if self.kind == "transient" and self.duration <= 0:
            raise ValueError(
                f"transient fault on {self.device!r}: needs duration > 0"
            )
        if self.kind == "loss" and self.duration != 0.0:
            raise ValueError(
                f"loss fault on {self.device!r}: duration is meaningless"
            )


@dataclass
class MediaConfig:
    """Media-failure injection and archive-based media recovery (§4.4).

    All defaults keep the subsystem off; with ``enabled`` and an empty
    fault schedule the run is bit-identical to a build without it (the
    fault gates delegate without touching the event queue or any RNG
    stream).  Retry timing is fully deterministic: a failed attempt
    costs ``error_latency`` to detect plus an exponential backoff
    (``retry_backoff`` doubling by ``retry_backoff_factor`` up to
    ``retry_backoff_max``) and is retried until the transient window
    passes — no randomness, no attempt cap.

    Archive copies model incremental online backups: every
    ``archive_interval`` seconds the archive horizon advances to the
    current log position and the per-device written-page sets reset.
    Rebuilding a lost device restores its pages from the archive device
    in ``archive_batch_pages`` sequential batches (``archive_workers``
    concurrent restore streams) and then redoes every page written
    since the archive horizon from a log scan.
    """

    enabled: bool = False
    faults: Tuple[DeviceFault, ...] = ()
    retry_backoff: float = 0.002
    retry_backoff_factor: float = 2.0
    retry_backoff_max: float = 0.05
    error_latency: float = 0.001
    archive_interval: float = 30.0
    archive_batch_pages: int = 512
    archive_workers: int = 8
    #: Device holding the archive copy; ``None`` means a default
    #: 8-spindle sequential-restore disk unit named ``"archive0"``.
    archive_device: Optional[DeviceSpec] = None
    #: CPU instructions to re-apply one logged page during media redo.
    redo_instr: float = 5_000

    def validate(self) -> None:
        if not self.enabled:
            if self.faults:
                raise ValueError(
                    "media faults configured but media.enabled is False"
                )
            return
        if self.retry_backoff <= 0:
            raise ValueError("retry_backoff must be positive")
        if self.retry_backoff_factor < 1.0:
            raise ValueError("retry_backoff_factor must be >= 1")
        if self.retry_backoff_max < self.retry_backoff:
            raise ValueError("retry_backoff_max must be >= retry_backoff")
        if self.error_latency < 0:
            raise ValueError("error_latency must be >= 0")
        if self.archive_interval <= 0:
            raise ValueError("archive_interval must be positive")
        if self.archive_batch_pages < 1:
            raise ValueError("archive_batch_pages must be >= 1")
        if self.archive_workers < 1:
            raise ValueError("archive_workers must be >= 1")
        if self.redo_instr < 0:
            raise ValueError("media redo_instr must be >= 0")
        if self.archive_device is not None:
            self.archive_device.validate()
        for fault in self.faults:
            fault.validate()


@dataclass
class RecoveryConfig:
    """Crash-recovery and availability simulation (§4.4, [HR83]).

    When ``enabled``, the system runs a fuzzy checkpointer
    (:mod:`repro.recovery.checkpoint`) and honours a deterministic
    crash schedule (:mod:`repro.recovery.crash`): at each instant in
    ``crash_times`` the computing module loses its volatile state,
    in-flight transactions abort, and a restart phase replays the log
    scan and redo I/O through the *actual* configured devices before
    admission resumes.  All defaults keep the subsystem off, so
    recovery-disabled runs are bit-identical to builds without it.
    """

    enabled: bool = False
    #: Fuzzy-checkpoint period in simulated seconds.  Each checkpoint
    #: writes one checkpoint record through the real log device and
    #: (``checkpoint_flush``) destages the dirty page table in the
    #: background, bounding redo work after a crash.
    checkpoint_interval: float = 60.0
    checkpoint_flush: bool = True
    #: Simulated instants at which the CM crashes (strictly increasing).
    #: A crash instant that falls inside a previous restart is skipped
    #: (the module is already down).
    crash_times: Tuple[float, ...] = ()
    #: CPU instructions to apply one redone page during restart.
    redo_instr: float = 5_000
    #: Force every commit log write to two NVEM copies (dual-copy log
    #: mirroring, §4.4): the commit pays a second sequential NVEM force,
    #: and the log survives loss of either single copy.  Requires an
    #: NVEM-resident log.
    log_mirror: bool = False
    #: ARIES-style online redo: after a crash, reopen admission as soon
    #: as the log scan completes and gate page access per-page while the
    #: redo pass runs, instead of holding all transactions until the
    #: full restart finishes.
    online_redo: bool = False
    #: On a crash, volatile disk-controller caches lose their contents;
    #: the pages they held re-enter the redo set (the restart cannot
    #: trust a volatile controller's copies) and post-restart reads miss.
    volatile_cache_loss: bool = True

    def validate(self) -> None:
        if not self.enabled:
            return
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        if self.redo_instr < 0:
            raise ValueError("redo_instr must be >= 0")
        previous = 0.0
        for instant in self.crash_times:
            if instant <= previous:
                raise ValueError(
                    "crash_times must be strictly increasing and positive"
                )
            previous = instant


@dataclass
class TraceConfig:
    """Observability settings (:mod:`repro.trace`) — default off.

    Tracing is a pure side channel: the span sampler draws from its
    own RNG substream and the telemetry process only reads state, so
    simulation results are bit-identical whichever knobs are set (the
    fig4_1 golden checksum is pinned both ways).  ``latency_detail``
    and ``telemetry_interval`` do change the *serialized* Results
    payload (they add ``latency`` / ``timeseries`` blocks), which is
    why each has its own switch instead of riding on ``enabled``.
    """

    enabled: bool = False
    #: Trace every N-th transaction (1 = all).  Sampled from a
    #: dedicated ``trace-sample`` RNG substream.
    sample: int = 1
    #: Bound on recorded spans; once full, further spans are counted
    #: as dropped instead of stored.
    max_spans: int = 250_000
    #: Populate ``Results.latency`` (p50/p95/p99 + SLO attainment).
    latency_detail: bool = False
    #: SLO threshold for ``slo_attainment``, in milliseconds
    #: (default 1 s, the classic TPC-A 90th-percentile bound).
    slo_ms: float = 1000.0
    #: Period of the telemetry gauge sampler in simulated seconds
    #: (0 = no sampler process at all).
    telemetry_interval: float = 0.0
    #: Bound on stored telemetry samples.
    telemetry_max_samples: int = 10_000

    def validate(self) -> None:
        if self.sample < 1:
            raise ValueError("trace sample must be >= 1")
        if self.max_spans < 1:
            raise ValueError("trace max_spans must be >= 1")
        if self.slo_ms <= 0:
            raise ValueError("trace slo_ms must be positive")
        if self.telemetry_interval < 0:
            raise ValueError("telemetry_interval must be >= 0")
        if self.telemetry_max_samples < 1:
            raise ValueError("telemetry_max_samples must be >= 1")
        if self.sample != 1 and not self.enabled:
            raise ValueError(
                "trace sample has no effect with tracing disabled"
            )


@dataclass
class SystemConfig:
    """Complete description of one simulated transaction system."""

    partitions: List[PartitionConfig] = field(default_factory=list)
    disk_units: List[DiskUnitConfig] = field(default_factory=list)
    #: Additional devices behind the disk interface, as registry specs
    #: (``DiskUnitConfig`` entries are spec-resolved the same way; this
    #: list is for kinds the classic table cannot express, e.g.
    #: ``flash_ssd`` or ``battery_dram``).
    devices: List[DeviceSpec] = field(default_factory=list)
    nvem: NVEMConfig = field(default_factory=NVEMConfig)
    cm: CMConfig = field(default_factory=CMConfig)
    log: LogAllocation = field(default_factory=LogAllocation)
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    media: MediaConfig = field(default_factory=MediaConfig)
    trace: TraceConfig = field(default_factory=TraceConfig)
    tx_types: List[TransactionTypeConfig] = field(default_factory=list)
    seed: int = 0

    def device_specs(self) -> List[DeviceSpec]:
        """All disk-interface devices as uniform ``(kind, params)`` specs.

        Classic ``DiskUnitConfig`` entries become specs of their
        ``unit_type`` kind carrying the config object; explicit
        :class:`DeviceSpec` entries pass through.  The storage hierarchy
        resolves every entry through the device registry — this method
        is the single place where the two declaration styles meet.
        """
        specs = [
            DeviceSpec(kind=unit.unit_type.value, name=unit.name,
                       params={"config": unit})
            for unit in self.disk_units
        ]
        specs.extend(self.devices)
        return specs

    def nvem_spec(self) -> DeviceSpec:
        """The NVEM device as a registry spec."""
        return DeviceSpec(kind="nvem", name="nvem",
                          params={"config": self.nvem})

    def partition(self, name: str) -> PartitionConfig:
        for part in self.partitions:
            if part.name == name:
                return part
        raise KeyError(f"unknown partition {name!r}")

    def disk_unit(self, name: str) -> DiskUnitConfig:
        for unit in self.disk_units:
            if unit.name == name:
                return unit
        raise KeyError(f"unknown disk unit {name!r}")

    def validate(self) -> None:
        """Check global consistency; raise ``ValueError`` on nonsense."""
        if not self.partitions:
            raise ValueError("no partitions configured")
        names = [p.name for p in self.partitions]
        if len(set(names)) != len(names):
            raise ValueError("duplicate partition names")
        unit_names = [u.name for u in self.disk_units] + \
            [d.name for d in self.devices]
        if len(set(unit_names)) != len(unit_names):
            raise ValueError("duplicate device names")

        self.cm.validate()
        self.nvem.validate()
        self.log.validate()
        self.recovery.validate()
        self.media.validate()
        self.trace.validate()
        for unit in self.disk_units:
            unit.validate()
        for spec in self.devices:
            spec.validate()
            if spec.kind == "nvem":
                raise ValueError(
                    f"device {spec.name}: the NVEM device is configured "
                    "via SystemConfig.nvem, not the devices list"
                )

        valid_targets = {MEMORY, NVEM} | set(unit_names)
        uses_nvem_cache = False
        uses_nvem_wb = False
        disk_unit_names = {u.name for u in self.disk_units}
        for part in self.partitions:
            part.validate()
            if part.allocation not in valid_targets:
                raise ValueError(
                    f"partition {part.name}: unknown allocation target "
                    f"{part.allocation!r}"
                )
            if part.nvem_caching != NVEMCachingMode.NONE:
                uses_nvem_cache = True
                if part.allocation not in disk_unit_names:
                    unit = None
                else:
                    unit = self.disk_unit(part.allocation)
                if unit is not None and unit.unit_type in (
                    DiskUnitType.VOLATILE_CACHE,
                    DiskUnitType.NONVOLATILE_CACHE,
                ) and not unit.write_buffer_only:
                    # Footnote 4: with NVEM caching there is no further
                    # need for a (read) cache in the disk controller.
                    raise ValueError(
                        f"partition {part.name}: NVEM caching combined with "
                        f"a caching disk unit ({unit.name}) is not meaningful"
                    )
            if part.nvem_write_buffer:
                uses_nvem_wb = True
                unit = self.disk_unit(part.allocation) \
                    if part.allocation in disk_unit_names else None
                if unit is not None and \
                        unit.unit_type == DiskUnitType.NONVOLATILE_CACHE:
                    raise ValueError(
                        f"partition {part.name}: write buffer in both NVEM "
                        f"and non-volatile disk cache ({unit.name})"
                    )
        if uses_nvem_cache and self.cm.nvem_cache_size < 1:
            raise ValueError("NVEM caching enabled but nvem_cache_size is 0")
        if uses_nvem_wb and self.cm.nvem_write_buffer_size < 1:
            raise ValueError(
                "NVEM write buffer enabled but nvem_write_buffer_size is 0"
            )

        if self.log.device not in valid_targets - {MEMORY}:
            raise ValueError(
                f"log allocation target {self.log.device!r} unknown"
            )
        if self.recovery.log_mirror and self.log.device != NVEM:
            raise ValueError(
                "log_mirror requires an NVEM-resident log "
                f"(log device is {self.log.device!r})"
            )

        if self.media.enabled:
            fault_targets = set(unit_names) | {
                NVEM, LOG_COPY_PRIMARY, LOG_COPY_MIRROR,
            }
            archive_name = (
                self.media.archive_device.name
                if self.media.archive_device is not None else "archive0"
            )
            if archive_name in set(unit_names) | {NVEM, MEMORY}:
                raise ValueError(
                    f"archive device name {archive_name!r} collides with a "
                    "configured device"
                )
            for fault in self.media.faults:
                if fault.device not in fault_targets:
                    raise ValueError(
                        f"media fault targets unknown device "
                        f"{fault.device!r}"
                    )
                if fault.device in (LOG_COPY_PRIMARY, LOG_COPY_MIRROR):
                    if fault.kind != "loss":
                        raise ValueError(
                            "transient faults target devices, not log "
                            f"copies ({fault.device!r})"
                        )
                    if self.log.device != NVEM:
                        raise ValueError(
                            f"log-copy fault {fault.device!r} requires an "
                            "NVEM-resident log"
                        )
                    if (fault.device == LOG_COPY_MIRROR
                            and not self.recovery.log_mirror):
                        raise ValueError(
                            f"fault on {LOG_COPY_MIRROR!r} requires "
                            "recovery.log_mirror"
                        )

        for tx_type in self.tx_types:
            tx_type.validate(names)

    def failure_instants(self) -> List[Tuple[str, float]]:
        """``(what, instant)`` of every scheduled crash and media loss."""
        crashes = self.recovery.crash_times if self.recovery.enabled else ()
        return [("crash", instant) for instant in crashes] + [
            (f"loss of {fault.device}", fault.time)
            for fault in self.media.faults if fault.kind == "loss"]

    @property
    def theoretical_mips(self) -> float:
        """Aggregate CPU capacity in MIPS."""
        return self.cm.num_cpus * self.cm.mips

    def fingerprint(self) -> str:
        """Canonical content hash of this configuration.

        A recursive dataclass walk (:mod:`repro.core.fingerprint`)
        normalized to JSON and hashed — the configuration half of the
        point-cache key used by :mod:`repro.experiments.store`.  Two
        configs with equal field values fingerprint identically no
        matter how they were constructed.
        """
        from repro.core.fingerprint import fingerprint

        return fingerprint(self)
