"""Processor-side model: boot sequencing and the post-boot file store.

The host owns no keys and sees only what the guard unit forwards. During
boot it drives the four stages, buffers the streamed boot image, and
discards the whole stream if any forwarded block fails its CRC, which is
exactly how the unit signals a verification failure. After hand-over it
reads and writes files in the data partition through the mediated sector
path, with the flat file table living in the partition's leading sectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .bus import SdioBus, VirtualCard
from .crypto import SECTOR_SIZE
from .identity import CardIdentity, DeviceIdentity
from .image import (
    BootStream,
    CapacityError,
    FileRecord,
    ImageFormatError,
    LoadedEntry,
    Manifest,
    NvmImage,
    build_file_table,
    parse_file_table,
    read_file_table,
)
from .tmiu import BootReport, Denial, ProtocolCrcError, Stage, Tmiu


class HostPhase(Enum):
    PRE_BOOT = "PreBoot"
    LOADING_BOOT = "LoadingBoot"
    OS_RUNNING = "OsRunning"
    HALTED = "Halted"


class HostError(Exception):
    pass


@dataclass(frozen=True)
class BootOutcome:
    ok: bool
    reason: Denial | None
    report: BootReport

    @property
    def outcome_class(self) -> str:
        if self.ok:
            return "OsRunning"
        return self.reason.value if self.reason else "Unknown"


class BootHost:
    def __init__(self, tmiu: Tmiu, bus: SdioBus):
        self.tmiu = tmiu
        self.bus = bus
        self.phase = HostPhase.PRE_BOOT
        self.loaded_entries: list[LoadedEntry] = []
        # (plaintext, records) of the file table last read or written.
        self._table: tuple[bytes, list[FileRecord]] = (b"", [])

    # -- boot ---------------------------------------------------------------

    def run_boot(self, expected_entries: list[tuple[str, int, str]] | None = None) -> BootOutcome:
        """Drive all four stages; on success the host holds the boot image.

        ``expected_entries`` are manifest tuples (kind, length, hex digest)
        for an end-to-end delivery check on top of the unit's own
        verification. An exception raised on the way, a fault inside the
        simulator, halts the host and goes on to the caller.
        """
        self.phase = HostPhase.PRE_BOOT
        self.loaded_entries, self._table = [], (b"", [])
        tmiu, bus = self.tmiu, self.bus
        stream = BootStream()
        try:
            tmiu.power_on()
            if tmiu.stage is Stage.LOCKDOWN:
                return self._denied()
            tmiu.authenticate_memory(bus)
            if tmiu.stage is Stage.LOCKDOWN:
                return self._denied()
            tmiu.generate_keys()

            self.phase = HostPhase.LOADING_BOOT
            tmiu.verify_mbr_and_image(bus, sink=stream.receive)
            if tmiu.stage is not Stage.OPERATIONAL or stream.corrupted:
                # Whatever was partially streamed is discarded wholesale.
                return self._denied()
            try:
                received = stream.loaded_entries()
            except ImageFormatError:
                return self._denied(Denial.IMAGE_DIGEST_MISMATCH)
        except BaseException:
            self.phase = HostPhase.HALTED
            raise
        if expected_entries is not None:
            got = [(e.kind_label, e.length, e.digest.hex()) for e in received]
            if got != [tuple(e) for e in expected_entries]:
                return self._denied(Denial.IMAGE_DIGEST_MISMATCH)
        self.loaded_entries = received
        self.phase = HostPhase.OS_RUNNING
        return BootOutcome(True, None, tmiu.report())

    def reboot(self, expected_entries: list[tuple[str, int, str]] | None = None) -> BootOutcome:
        """Full power cycle of card and unit, then a fresh boot."""
        self.bus.card.power_cycle()
        self.tmiu.reset()
        return self.run_boot(expected_entries)

    def _denied(self, reason: Denial | None = None) -> BootOutcome:
        """Halt; the reason is the unit's own unless the host found it."""
        self.phase = HostPhase.HALTED
        return BootOutcome(False, reason or self.tmiu.reason, self.tmiu.report())

    # -- file store -----------------------------------------------------------

    def _read_plain(self, lba: int, count: int = 1) -> bytes:
        """``count`` sectors from ``lba`` in one mediated read. A read whose
        CRC check fails, the unit's in-band signal of a poisoned sector, is
        re-issued once, and meets the unit's lockdown."""
        try:
            return self.tmiu.mediate_read(self.bus, lba, count)
        except ProtocolCrcError:
            return self.tmiu.mediate_read(self.bus, lba, count)

    def _read_table(self, data_start: int, data_sectors: int) -> tuple[list[FileRecord], int]:
        """(records, sectors) of the file table, read whole through the unit;
        parsed only where it differs from the table last read or written."""
        table = read_file_table(self._read_plain, data_start, data_sectors)
        if table != self._table[0]:
            self._table = (table, parse_file_table(table))
        return self._table[1], len(table) // SECTOR_SIZE

    def read_file(self, label: str) -> bytes:
        """Fetch a file from the data partition through the mediated path:
        the table, then the file's extent, each read as one run. An extent
        that leaves the data partition is a
        :class:`~tmiusim.tmiu.PolicyViolation` before any of it is read."""
        self._require_running()
        data_start, data_sectors = self.tmiu.data_partition
        records, _ = self._read_table(data_start, data_sectors)
        record = next((r for r in records if r.label == label), None)
        if record is None:
            raise FileNotFoundError(label)
        extent = record.lbas(data_start)
        return self._read_plain(extent.start, len(extent))[: record.length] if extent else b""

    def write_file(self, label: str, blob: bytes) -> None:
        """Create or replace a file, its extent and then the table each in
        one mediated write: the table is committed last, and a new version
        goes outside the old one's extent, which stays readable till then."""
        self._require_running()
        blob = memoryview(blob).tobytes()  # counted in bytes, whatever the buffer's format
        data_start, data_sectors = self.tmiu.data_partition
        records, table_sectors = self._read_table(data_start, data_sectors)
        needed = -(-len(blob) // SECTOR_SIZE)

        keep = [r for r in records if r.label != label]
        offset = self._allocate(records, table_sectors, data_sectors, needed)
        record = FileRecord(label=label, offset=offset, length=len(blob))
        table = build_file_table(keep + [record], table_sectors)  # may raise CapacityError

        if needed:
            padded = blob.ljust(needed * SECTOR_SIZE, b"\0")
            self.tmiu.mediate_write(self.bus, data_start + offset // SECTOR_SIZE, padded)
        self.tmiu.mediate_write(self.bus, data_start, table)
        self._table = (table, keep + [record])

    @staticmethod
    def _allocate(
        records: list[FileRecord], table_sectors: int, data_sectors: int, needed: int
    ) -> int:
        """First-fit sector-aligned allocation in the data partition."""
        if needed == 0:
            return table_sectors * SECTOR_SIZE
        occupied = sorted(
            (r.offset // SECTOR_SIZE, -(-r.length // SECTOR_SIZE))
            for r in records
            if r.length > 0
        )
        cursor = table_sectors
        for start, count in occupied:
            if start - cursor >= needed:
                break
            cursor = max(cursor, start + count)
        if cursor + needed > data_sectors:
            raise CapacityError(
                f"no room for {needed} sectors in a {data_sectors}-sector partition"
            )
        return cursor * SECTOR_SIZE

    def _require_running(self) -> None:
        if self.phase is not HostPhase.OS_RUNNING:
            raise HostError(f"file access requires OsRunning, host is {self.phase.value}")


def build_system(
    manifest: Manifest,
    image: NvmImage,
    *,
    dna: int | None = None,
    cid: bytes | None = None,
    trace: bool = False,
) -> tuple[BootHost, Tmiu, SdioBus, VirtualCard]:
    """Assemble a simulator from an image and its manifest.

    Identity overrides model swapped hardware: a different ``dna`` presents a
    foreign device, a different ``cid`` a foreign card. The card answers
    CMD9 with the manifest's CSD, which the unit does not authenticate.
    """
    device = DeviceIdentity(dna=manifest.dna if dna is None else dna)
    identity = CardIdentity(cid=manifest.cid if cid is None else cid, csd=manifest.csd)
    card = VirtualCard(identity, image)
    tmiu = Tmiu(manifest.anchors, device)
    bus = SdioBus(card, ledger=tmiu.ledger, trace=trace)
    host = BootHost(tmiu, bus)
    return host, tmiu, bus, card
