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

from .bus import DataBlock, SdioBus, VirtualCard
from .crypto import SECTOR_SIZE, sha256
from .identity import CardIdentity, DeviceIdentity
from .image import (
    CapacityError,
    FileRecord,
    ImageFormatError,
    Manifest,
    NvmImage,
    build_file_table,
    parse_boot_image,
    read_file_table,
)
from .tmiu import (
    BootReport,
    Denial,
    PromStore,
    ProtocolCrcError,
    RETRY_LIMIT,
    Stage,
    Tmiu,
)


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


class _StreamBuffer:
    """Collects forwarded boot blocks, checking each block's line CRC."""

    def __init__(self) -> None:
        self.blocks: list[bytes] = []
        self.corrupted = False

    def receive(self, block: DataBlock) -> None:
        if not block.crc_ok:
            self.corrupted = True
        self.blocks.append(block.payload)

    def assemble(self) -> bytes:
        return b"".join(self.blocks)


class BootHost:
    def __init__(self, tmiu: Tmiu, bus: SdioBus, card: VirtualCard):
        self.tmiu = tmiu
        self.bus = bus
        self.card = card
        self.phase = HostPhase.PRE_BOOT
        self.loaded_entries: list[LoadedEntry] = []

    # -- boot ---------------------------------------------------------------

    def run_boot(self, expected_entries: list[tuple[str, int, str]] | None = None) -> BootOutcome:
        """Drive all four stages; on success the host holds the boot image.

        ``expected_entries`` are manifest tuples (kind, length, hex digest)
        for an end-to-end delivery check on top of the unit's own
        verification.
        """
        self.phase = HostPhase.PRE_BOOT
        self.loaded_entries = []
        tmiu, bus, card = self.tmiu, self.bus, self.card

        tmiu.power_on()
        if tmiu.stage is Stage.LOCKDOWN:
            return self._denied()
        tmiu.authenticate_memory(bus, card)
        if tmiu.stage is Stage.LOCKDOWN:
            return self._denied()
        tmiu.generate_keys()

        self.phase = HostPhase.LOADING_BOOT
        stream = _StreamBuffer()
        tmiu.verify_mbr_and_image(bus, card, sink=stream.receive)
        if tmiu.stage is not Stage.OPERATIONAL or stream.corrupted:
            # Whatever was partially streamed is discarded wholesale.
            return self._denied()

        try:
            image = parse_boot_image(stream.assemble())
        except ImageFormatError:
            return self._denied(Denial.IMAGE_DIGEST_MISMATCH)
        received = [
            LoadedEntry(kind.label, len(blob), sha256(blob)) for kind, blob in image.entries
        ]
        if expected_entries is not None:
            got = [(e.kind_label, e.length, e.digest.hex()) for e in received]
            if got != [tuple(e) for e in expected_entries]:
                return self._denied(Denial.IMAGE_DIGEST_MISMATCH)
        self.loaded_entries = received
        self.phase = HostPhase.OS_RUNNING
        return BootOutcome(True, None, tmiu.report())

    def reboot(self, expected_entries: list[tuple[str, int, str]] | None = None) -> BootOutcome:
        """Full power cycle of card and unit, then a fresh boot."""
        self.card.power_cycle()
        self.tmiu.reset()
        return self.run_boot(expected_entries)

    def _denied(self, reason: Denial | None = None) -> BootOutcome:
        """Halt; the reason is the unit's own unless the host found it."""
        self.phase = HostPhase.HALTED
        return BootOutcome(False, reason or self.tmiu.reason, self.tmiu.report())

    # -- mediated sector access ----------------------------------------------

    def _retry(self, mediate, *args):
        """Run a mediated access, re-issuing it after each line-CRC failure."""
        for _ in range(RETRY_LIMIT):
            try:
                return mediate(self.bus, self.card, *args)
            except ProtocolCrcError:
                continue
        return mediate(self.bus, self.card, *args)  # a persistent line failure propagates

    def _read_sector(self, lba: int) -> bytes:
        return self._retry(self.tmiu.mediate_read, lba)

    def _write_sector(self, lba: int, payload: bytes) -> None:
        self._retry(self.tmiu.mediate_write, lba, payload)

    # -- file store -----------------------------------------------------------

    def read_file(self, label: str) -> bytes:
        """Fetch a file from the data partition through the mediated path."""
        self._require_running()
        data_start, _ = self.tmiu.data_partition
        records, _ = read_file_table(self._read_sector, data_start)
        record = next((r for r in records if r.label == label), None)
        if record is None:
            raise FileNotFoundError(label)
        blob = b"".join(self._read_sector(lba) for lba in record.lbas(data_start))
        return blob[: record.length]

    def write_file(self, label: str, blob: bytes) -> None:
        """Create or replace a file; the table is committed last."""
        self._require_running()
        data_start, data_sectors = self.tmiu.data_partition
        records, table_sectors = read_file_table(self._read_sector, data_start)
        needed = -(-len(blob) // SECTOR_SIZE)

        keep = [r for r in records if r.label != label]
        offset = self._allocate(keep, table_sectors, data_sectors, needed)
        record = FileRecord(label=label, offset=offset, length=len(blob))
        table = build_file_table(keep + [record], table_sectors)  # may raise CapacityError

        for i, lba in enumerate(record.lbas(data_start)):
            chunk = blob[i * SECTOR_SIZE : (i + 1) * SECTOR_SIZE]
            chunk += bytes(SECTOR_SIZE - len(chunk))
            self._write_sector(lba, chunk)
        for i in range(table_sectors):
            self._write_sector(data_start + i, table[i * SECTOR_SIZE : (i + 1) * SECTOR_SIZE])

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
    prom: PromStore | None = None,
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
    tmiu = Tmiu(manifest.anchors, device, prom=prom)
    bus = SdioBus(card, ledger=tmiu.ledger, trace=trace)
    host = BootHost(tmiu, bus, card)
    return host, tmiu, bus, card
