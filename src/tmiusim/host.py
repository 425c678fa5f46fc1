"""Processor-side model: boot sequencing and the post-boot file store.

The host owns no keys and sees only what the guard unit forwards. During
boot it drives the four stages, buffers the streamed boot image, and
discards the whole stream if any forwarded block fails its CRC, which is
exactly how the unit signals a verification failure. After hand-over it
reads and writes files in the data partition through the mediated sector
path, with the flat file table living in the partition's leading sectors.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .bus import DataBlock, SdioBus, VirtualCard
from .crypto import SECTOR_SIZE
from .identity import CardIdentity, DeviceIdentity
from .image import (
    CapacityError,
    EntryKind,
    FileRecord,
    ImageFormatError,
    Manifest,
    NvmImage,
    boot_image_index,
    boot_image_length,
    build_file_table,
    hash_pool,
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
class LoadedEntry:
    kind_label: str
    length: int
    digest: bytes


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


# Each time about this many more bytes of the stream have arrived, one job
# hashes them on the digest worker; the largest entry table (12 + 9 * 65535
# bytes) is whole by the first. On a 13 MB boot, steps of 512 KiB, 1 MiB and
# 2 MiB each took about 1 ms less than the one before; 4 MiB the same as
# 2 MiB, 8 MiB about 3 ms more.
_HAND_OVER_BYTES = 2 << 20


class _StreamBuffer:
    """The forwarded boot stream: verified plaintext arrives as ``bytes``; a
    block, checked by its line CRC, is the unit signalling in-band.

    The first item tells the container's length, and the stream is copied
    in place into one buffer of that length. The entry digests are hashed
    from that buffer, never from a copy. Each time ``_HAND_OVER_BYTES`` more
    has arrived, one job submitted to ``hash_pool`` hashes the newly arrived
    part of each entry; the first hand-over reads the entry table. The rest
    is hashed at the end. The owner calls :meth:`close` however the boot
    ends, which joins any worker."""

    def __init__(self) -> None:
        self.corrupted = False
        self._view = memoryview(b"")  # of the buffer, once the first item tells its length
        self._filled = self._handed = 0
        self._spans, self._hashes, self._jobs = (), [], []
        self._pool = None

    def receive(self, item: bytes | DataBlock) -> None:
        if isinstance(item, DataBlock):
            self.corrupted |= not item.crc_ok
            item = item.payload
        if self.corrupted:
            return  # the stream is discarded wholesale
        if not self._view:
            self._view = memoryview(bytearray(boot_image_length(item)))
        end = self._filled + len(item)
        self._view[self._filled : end] = item  # one copy, in place
        self._filled = end
        if end - self._handed >= _HAND_OVER_BYTES:
            if not self._handed:
                try:
                    self._index()
                except ImageFormatError:
                    pass  # judged again over the whole stream at the end
                if self._spans:  # a card can flip the entry count to 0
                    self._pool = hash_pool(len(self._view))
            if self._pool:
                self._jobs.append(
                    self._pool.submit(_hash_spans, self._view, self._spans, self._hashes, self._handed, end)
                )
            self._handed = end

    def _index(self) -> None:
        """Read the entry table: a span and a fresh hash for each entry."""
        self._spans = boot_image_index(self._view)  # reads the header and table alone
        self._hashes = [hashlib.sha256() for _ in self._spans]

    def loaded_entries(self) -> list[LoadedEntry]:
        """The (kind, length, digest) of each entry of the whole stream; a
        stream its container does not describe is an :class:`ImageFormatError`.
        A job's error is raised here."""
        if self._filled != len(self._view):
            raise ImageFormatError("container length field disagrees with data")
        if not self._jobs:
            self._index()
            self._handed = 0
        for job in self._jobs:
            job.result()
        _hash_spans(self._view, self._spans, self._hashes, self._handed, self._filled)
        return [
            LoadedEntry(kind.label, end - start, hash_.digest())
            for (kind, start, end), hash_ in zip(self._spans, self._hashes)
        ]

    def close(self) -> None:
        """Wait for the digest jobs, join their worker if they have one, and
        release the view of the buffer."""
        if self._pool:
            self._pool.shutdown()
        self._view.release()


def _hash_spans(
    view: memoryview, spans: Sequence[tuple[EntryKind, int, int]], hashes: Sequence, done: int, mark: int
) -> None:
    """Update each of ``hashes`` with the part of its (kind, start, end) span
    of ``view`` that lies in ``[done, mark)``, in place."""
    for hash_, (_, start, end) in zip(hashes, spans):
        if max(start, done) < min(end, mark):
            hash_.update(view[max(start, done) : min(end, mark)])


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
        stream = _StreamBuffer()
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
        finally:
            stream.close()
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
    csd: bytes | None = None,
    trace: bool = False,
) -> tuple[BootHost, Tmiu, SdioBus, VirtualCard]:
    """Assemble a simulator from an image and its manifest.

    Identity overrides model swapped hardware: a different ``dna`` presents a
    foreign device, a different ``cid``/``csd`` a foreign card.
    """
    device = DeviceIdentity(dna=manifest.dna if dna is None else dna)
    identity = CardIdentity(
        cid=manifest.cid if cid is None else cid,
        csd=manifest.csd if csd is None else csd,
    )
    card = VirtualCard(identity, image)
    tmiu = Tmiu(manifest.anchors, device)
    bus = SdioBus(card, ledger=tmiu.ledger, trace=trace)
    host = BootHost(tmiu, bus)
    return host, tmiu, bus, card
