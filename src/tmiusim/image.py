"""On-disk image format and the provisioning pipeline.

An image is a flat array of 512-byte sectors:

    LBA 0                MBR (partition table, 0x55AA signature)
    boot partition       boot-image container, integrity-sealed as a whole
    data partition       flat file table + sector-aligned file extents
    integrity region     one 32-byte tag per data-partition sector

Provisioning lays the plaintext out, derives the cipher and integrity keys
from the (device, card) identity pair, encrypts every sector including the
MBR and the integrity region, fills the per-sector tags over ciphertext, and
emits the trust anchors plus a text manifest for the secure-environment role.

The boot-image container is self-describing so the guard unit can stream it
with one sector of lookahead:

    magic "TMBI" | version u16 | entry count u16 | total length u32
    entries: kind u8, payload offset u32, length u32
    payload blobs | zero padding | trailing 32-byte SHA-256 over all of it

The unit and :func:`verify_image` check its trailer with one class,
:class:`ContainerCheck`, fed run by run; the host's boot and
:func:`verify_image` read the entries it lets out with one :class:`BootStream`.

All container integers are big-endian; MBR partition fields keep their
conventional little-endian encoding.
"""

from __future__ import annotations

import hashlib
import operator
import struct
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import zip_longest
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Sequence

from .crypto import (
    DIGEST_SIZE,
    RUN_SECTORS,
    SECTOR_SIZE,
    SectorCipher,
    SectorMac,
    check_kdf_counter,
    check_kdf_repetitions,
    sector_tag,
    sha256,
)
from .identity import CardIdentity, DeviceIdentity, TrustAnchors, derive_keys

if TYPE_CHECKING:
    from .bus import DataBlock  # bus imports this module

MBR_SIGNATURE = b"\x55\xaa"
BOOT_PARTITION_TYPE = 0x0C
DATA_PARTITION_TYPE = 0x83

BOOT_IMAGE_MAGIC = b"TMBI"
BOOT_IMAGE_VERSION = 1
_CONTAINER_HEADER = struct.Struct(">4sHHI")
_CONTAINER_ENTRY = struct.Struct(">BII")

FILE_TABLE_MAGIC = b"TMFT"
_TABLE_HEADER = struct.Struct(">4sHH")
_RECORD_FIXED = struct.Struct(">QQ")

TAGS_PER_SECTOR = SECTOR_SIZE // DIGEST_SIZE

# Format limits: a container's u32 total_len, in whole sectors; 32-bit LBAs.
MAX_CONTAINER_SIZE = (1 << 32) - SECTOR_SIZE
MAX_SECTORS = 1 << 32

# A container of at least this many bytes has its trailer and the manifest's
# content digests hashed on a worker thread while provision seals (see
# _hash_pool); a boot starts no thread. Below this size, the thread costs
# more than the overlap saves: with a worker on every call, the tamper
# workload's set-up (a 4 KB kernel) took about 1 ms longer, and with a
# worker on every boot its op_ms_p50 went 1.05 -> 1.49 ms (five alternating
# 20 s pairs, 2-core Xeon, Python 3.11).
HASH_THREAD_MIN_CONTAINER = 1 << 20


class MbrError(ValueError):
    """Structural defect in a master boot record."""


class ImageFormatError(ValueError):
    """Malformed boot-image container."""


class ImageDigestError(ValueError):
    """Boot-image container fails its trailing digest."""


class FileTableError(ValueError):
    """Malformed data-partition file table."""


class CapacityError(ValueError):
    """Content does not fit the requested geometry."""


class ManifestError(ValueError):
    """Malformed provisioning manifest."""


class EntryKind(Enum):
    PARTIAL_BITSTREAM = 1
    FSBL = 2
    SSBL = 3
    KERNEL = 4
    DEVICETREE = 5

    @property
    def label(self) -> str:
        return self.name.lower().replace("_", "-")

    @classmethod
    def from_label(cls, label: str) -> "EntryKind":
        try:
            return cls[label.replace("-", "_").upper()]
        except KeyError:
            raise ValueError(f"unknown boot entry kind: {label!r}") from None


# ---------------------------------------------------------------------------
# MBR


@dataclass(frozen=True)
class PartitionEntry:
    status: int
    ptype: int
    lba_start: int
    sector_count: int

    # CHS fields are opaque; the conventional "use LBA" filler is emitted.
    _CHS = b"\xfe\xff\xff"

    @property
    def bootable(self) -> bool:
        return bool(self.status & 0x80)

    def pack(self) -> bytes:
        return struct.pack(
            "<B3sB3sLL",
            self.status,
            self._CHS,
            self.ptype,
            self._CHS,
            self.lba_start,
            self.sector_count,
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "PartitionEntry | None":
        status, _, ptype, _, start, count = struct.unpack("<B3sB3sLL", raw)
        if ptype == 0:
            return None
        return cls(status=status, ptype=ptype, lba_start=start, sector_count=count)


@dataclass(frozen=True)
class MbrSector:
    partitions: tuple[PartitionEntry, ...]
    bootstrap: bytes = bytes(446)

    def __post_init__(self) -> None:
        if len(self.bootstrap) != 446:
            raise ValueError("bootstrap area must be 446 bytes")
        if len(self.partitions) > 4:
            raise ValueError("at most 4 partition entries")

    def to_bytes(self) -> bytes:
        table = b"".join(p.pack() for p in self.partitions)
        table += bytes(16 * (4 - len(self.partitions)))
        return self.bootstrap + table + MBR_SIGNATURE

    def boot_partition(self) -> PartitionEntry | None:
        for part in self.partitions:
            if part.bootable:
                return part
        return None

    def data_partition(self) -> PartitionEntry | None:
        for part in self.partitions:
            if not part.bootable:
                return part
        return None


def parse_mbr(sector: bytes, total_sectors: int) -> MbrSector:
    """Parse a plaintext MBR sector, enforcing signature, overlap and bounds
    in a ``total_sectors`` geometry; any defect is an :class:`MbrError`."""
    if len(sector) != SECTOR_SIZE:
        raise MbrError("MBR sector must be 512 bytes")
    if sector[510:512] != MBR_SIGNATURE:
        raise MbrError("missing 0x55AA signature")
    parts = []
    for i in range(4):
        entry = PartitionEntry.unpack(sector[446 + 16 * i : 446 + 16 * (i + 1)])
        if entry is not None:
            parts.append(entry)
    spans = sorted((p.lba_start, p.lba_start + p.sector_count) for p in parts)
    for (s1, e1), (s2, _) in zip(spans, spans[1:]):
        if s2 < e1:
            raise MbrError(f"partitions overlap at LBA {s2}")
    for part in parts:
        if part.sector_count == 0 or part.lba_start == 0:
            raise MbrError("partition must start past LBA 0 and be non-empty")
        if part.lba_start + part.sector_count > total_sectors:
            raise MbrError(f"partition [{part.lba_start}, +{part.sector_count}) exceeds geometry")
    return MbrSector(partitions=tuple(parts), bootstrap=sector[:446])


# ---------------------------------------------------------------------------
# Boot-image container


def sealed_container_size(blob_lengths: Sequence[int]) -> int:
    """Length of the sector-aligned container that holds blobs of these
    lengths; past :data:`MAX_CONTAINER_SIZE` it is a :class:`CapacityError`."""
    if not blob_lengths or 0 in blob_lengths:
        raise ValueError("boot image needs one or more entries, none of them empty")
    body_len = _CONTAINER_HEADER.size + _CONTAINER_ENTRY.size * len(blob_lengths)
    size = -(-(body_len + sum(blob_lengths) + DIGEST_SIZE) // SECTOR_SIZE) * SECTOR_SIZE
    if size > MAX_CONTAINER_SIZE:
        raise CapacityError(f"boot container of {size} bytes, at most {MAX_CONTAINER_SIZE} fit")
    return size


def write_boot_image(
    buf: bytearray, offset: int, entries: Sequence[tuple[EntryKind, bytes]]
) -> int:
    """Lay the container of ``entries`` into ``buf`` at ``offset``, its
    trailer zero (:func:`container_trailer` gives it); returns its length."""
    total_len = sealed_container_size([len(blob) for _, blob in entries])
    if not 0 <= offset <= len(buf) - total_len:
        raise ValueError("container does not fit the buffer at this offset")
    _CONTAINER_HEADER.pack_into(
        buf, offset, BOOT_IMAGE_MAGIC, BOOT_IMAGE_VERSION, len(entries), total_len
    )
    pos = offset + _CONTAINER_HEADER.size
    blob_offset = 0
    for kind, blob in entries:
        _CONTAINER_ENTRY.pack_into(buf, pos, kind.value, blob_offset, len(blob))
        pos += _CONTAINER_ENTRY.size
        blob_offset += len(blob)
    end = offset + total_len
    with memoryview(buf) as view:  # a bytearray slice would copy each blob first
        for _, blob in entries:
            view[pos : pos + len(blob)] = blob
            pos += len(blob)
        view[pos:end] = bytes(end - pos)
    return total_len


def container_trailer(buf: bytes | bytearray, offset: int = 0) -> bytes:
    """The trailer of the container laid out in ``buf`` at ``offset``: the
    SHA-256 of all of it before the trailer's own 32 bytes."""
    total_len = boot_image_length(buf[offset : offset + _CONTAINER_HEADER.size])
    with memoryview(buf)[offset : offset + total_len - DIGEST_SIZE] as body:
        return sha256(body)


def boot_image_length(prefix: bytes) -> int:
    """Total container length from its first bytes (one sector suffices)."""
    if len(prefix) < _CONTAINER_HEADER.size:
        raise ImageFormatError("container prefix too short")
    magic, version, count, total_len = _CONTAINER_HEADER.unpack_from(prefix)
    if magic != BOOT_IMAGE_MAGIC:
        raise ImageFormatError("bad container magic")
    if version != BOOT_IMAGE_VERSION:
        raise ImageFormatError(f"unsupported container version {version}")
    if total_len % SECTOR_SIZE or total_len == 0:
        raise ImageFormatError("container length not a multiple of 512")
    if _CONTAINER_HEADER.size + count * _CONTAINER_ENTRY.size + DIGEST_SIZE > total_len:
        raise ImageFormatError("entry table exceeds container")
    return total_len


def boot_image_index(container: bytes | bytearray) -> tuple[tuple[EntryKind, int, int], ...]:
    """The (kind, start, end) of each entry of a container, as offsets into
    it, by structure alone: only the header and the entry table are read,
    nothing is copied and the digest is not checked."""
    total_len = boot_image_length(container)
    if total_len != len(container):
        raise ImageFormatError("container length field disagrees with data")
    _, _, count, _ = _CONTAINER_HEADER.unpack_from(container)
    table_end = _CONTAINER_HEADER.size + count * _CONTAINER_ENTRY.size
    payload_len = total_len - DIGEST_SIZE - table_end
    spans = []
    for i in range(count):
        kind_value, offset, length = _CONTAINER_ENTRY.unpack_from(
            container, _CONTAINER_HEADER.size + i * _CONTAINER_ENTRY.size
        )
        try:
            kind = EntryKind(kind_value)
        except ValueError:
            raise ImageFormatError(f"unknown entry kind {kind_value}") from None
        if offset + length > payload_len or length == 0:
            raise ImageFormatError(f"entry {i} outside payload")
        spans.append((kind, table_end + offset, table_end + offset + length))
    return tuple(spans)


def parse_boot_image(container: bytes | bytearray) -> tuple[tuple[EntryKind, bytes], ...]:
    """The (kind, blob) entries of a container, by structure alone, copied
    out; the digest is not checked. Only the benchmark's tracer names it."""
    spans = boot_image_index(container)
    with memoryview(container) as view:
        return tuple((kind, bytes(view[start:end])) for kind, start, end in spans)


class ContainerCheck:
    """Trailer check over a container's decrypted runs, in order, each of at
    most :attr:`pending` sectors: :meth:`update` releases all but the last
    sector seen, kept as :attr:`held`, and :meth:`finish` checks the trailer."""

    def __init__(self, boot_sectors: int):
        self._boot_sectors = boot_sectors
        self._hash = hashlib.sha256()
        self.pending = 1  # sectors still to come: the first tells the rest
        self.held = b""

    def update(self, run: bytes) -> bytes:
        first = not self.held
        released = self.held + run[:-SECTOR_SIZE]
        self.held = run[-SECTOR_SIZE:]
        if first:
            self.pending = boot_image_length(run) // SECTOR_SIZE
            if self.pending > self._boot_sectors:
                raise ImageFormatError("container exceeds boot partition")
        self.pending -= len(run) // SECTOR_SIZE
        self._hash.update(released)
        return released

    def finish(self) -> None:
        self._hash.update(self.held[:-DIGEST_SIZE])
        if self._hash.digest() != self.held[-DIGEST_SIZE:]:
            raise ImageDigestError("boot image digest mismatch")


@dataclass(frozen=True)
class LoadedEntry:
    kind_label: str
    length: int
    digest: bytes


class BootStream:
    """The one reader of a decrypted container: plaintext arrives as ``bytes``;
    a block, checked by its line CRC, is the unit signalling in-band.

    The first item tells the container's length, and the stream is copied
    in place into one buffer of that length. Each entry is hashed whole,
    from that buffer, never from a copy, on the caller's thread, when
    :meth:`loaded_entries` is called."""

    def __init__(self) -> None:
        self.corrupted = False
        self._view = memoryview(b"")  # of the buffer, once the first item tells its length
        self._filled = 0

    def receive(self, item: bytes | DataBlock) -> None:
        if not isinstance(item, bytes):  # a DataBlock
            self.corrupted |= not item.crc_ok
            item = item.payload
        if self.corrupted:
            return  # the stream is discarded wholesale
        if not self._view:
            self._view = memoryview(bytearray(boot_image_length(item)))
        end = self._filled + len(item)
        self._view[self._filled : end] = item  # one copy, in place
        self._filled = end

    def loaded_entries(self) -> list[LoadedEntry]:
        """The (kind, length, digest) of each entry of the whole stream; an
        entry table that does not fit the container is an
        :class:`ImageFormatError`. Each owner calls it only once a
        :class:`ContainerCheck` has let the whole container through, so the
        stream has filled the buffer."""
        return [
            LoadedEntry(kind.label, end - start, sha256(self._view[start:end]))
            for kind, start, end in boot_image_index(self._view)
        ]


# ---------------------------------------------------------------------------
# Data-partition file table


@dataclass(frozen=True)
class FileRecord:
    label: str
    offset: int  # bytes from the start of the data partition, sector aligned
    length: int

    def lbas(self, data_start: int) -> range:
        """Absolute LBAs of the file's extent."""
        start = data_start + self.offset // SECTOR_SIZE
        return range(start, start + -(-self.length // SECTOR_SIZE))


def _bad_label(label: bytes) -> bool:
    """Whether a label, as UTF-8, is empty or holds a character below
    U+0020: labels land in the line-oriented manifest. With uniqueness in
    its table and the 16-bit length, this is the one label rule."""
    return not label or min(label) < 0x20


def build_file_table(records: Sequence[FileRecord], table_sectors: int) -> bytes:
    """The table's sector count, record count and each label's length are
    16-bit fields; a value past 65535 is a :class:`CapacityError`. A label
    that breaks the label rule (:func:`_bad_label`) is a :class:`ValueError`."""
    if operator.index(table_sectors) > 0xFFFF or len(records) > 0xFFFF:  # a float is a TypeError
        raise CapacityError("a file table holds at most 65535 sectors and 65535 records")
    if len({rec.label for rec in records}) != len(records):
        raise ValueError("duplicate file labels")
    body = bytearray(_TABLE_HEADER.pack(FILE_TABLE_MAGIC, table_sectors, len(records)))
    for rec in records:
        if not isinstance(rec.label, str):
            raise TypeError(f"a file label is a str, not {type(rec.label).__name__}")
        label = rec.label.encode("utf-8")
        if len(label) > 0xFFFF:
            raise CapacityError(f"file label of {len(label)} UTF-8 bytes, at most 65535 fit")
        if _bad_label(label):
            raise ValueError(f"bad file label {rec.label!r}")
        body += struct.pack(">H", len(label)) + label
        body += _RECORD_FIXED.pack(rec.offset, rec.length)
    capacity = table_sectors * SECTOR_SIZE
    if len(body) > capacity:
        raise CapacityError("file table exceeds its reserved sectors")
    return bytes(body) + bytes(capacity - len(body))


def _table_header(table: bytes) -> tuple[int, int]:
    """(table sectors, record count) from a file table's first bytes."""
    if len(table) < _TABLE_HEADER.size:
        raise FileTableError("file table shorter than its header")
    magic, table_sectors, count = _TABLE_HEADER.unpack_from(table)
    if magic != FILE_TABLE_MAGIC:
        raise FileTableError("bad file-table magic")
    return table_sectors, count


def table_sector_count(first_sector: bytes) -> int:
    table_sectors, _ = _table_header(first_sector)
    if table_sectors == 0:
        raise FileTableError("file table claims zero sectors")
    return table_sectors


def parse_file_table(table: bytes) -> list[FileRecord]:
    table_sectors, count = _table_header(table)
    if table_sectors * SECTOR_SIZE != len(table):
        raise FileTableError("file table length disagrees with header")
    records = []
    pos = _TABLE_HEADER.size
    for _ in range(count):
        if pos + 2 > len(table):
            raise FileTableError("truncated file record")
        (label_len,) = struct.unpack_from(">H", table, pos)
        pos += 2
        if pos + label_len + _RECORD_FIXED.size > len(table):
            raise FileTableError("truncated file record")
        raw = table[pos : pos + label_len]
        try:
            label = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise FileTableError("file label is not UTF-8") from None
        if _bad_label(raw):
            raise FileTableError(f"bad file label {label!r}")
        pos += label_len
        offset, length = _RECORD_FIXED.unpack_from(table, pos)
        pos += _RECORD_FIXED.size
        records.append(FileRecord(label=label, offset=offset, length=length))
    if len({rec.label for rec in records}) != len(records):
        raise FileTableError("duplicate file labels")
    return records


def read_file_table(read_plain: Callable[[int, int], bytes], data_start: int, data_sectors: int) -> bytes:
    """The plaintext of the file table heading a ``data_sectors``-sector
    data partition, read through ``read_plain(lba, count) -> plaintext`` of
    ``count`` sectors from ``lba``: the first sector, then the rest as one
    run, unless the table claims more sectors than the partition holds."""
    table = read_plain(data_start, 1)
    sectors = table_sector_count(table)
    if sectors > data_sectors:
        raise FileTableError(f"file table claims {sectors} sectors, the data partition holds {data_sectors}")
    if sectors > 1:
        table += read_plain(data_start + 1, sectors - 1)
    return table


# ---------------------------------------------------------------------------
# Geometry


@dataclass(frozen=True)
class ImageLayout:
    total_sectors: int
    boot_start: int
    boot_sectors: int
    data_start: int
    data_sectors: int

    def __post_init__(self) -> None:
        if not 0 < self.boot_start or self.boot_start + self.boot_sectors != self.data_start:
            raise ValueError("layout regions must be contiguous and ordered")
        if self.meta_sectors * TAGS_PER_SECTOR < self.data_sectors:
            raise ValueError("integrity region too small for the data partition")

    @property
    def meta_start(self) -> int:
        """The integrity region starts right after the data partition."""
        return self.data_start + self.data_sectors

    @property
    def meta_sectors(self) -> int:
        """The integrity region fills the rest of the geometry."""
        return self.total_sectors - self.meta_start

    def lines(self) -> list[str]:
        """The ``key=value`` lines that record this layout in a manifest."""
        return [
            f"geometry={self.total_sectors}",
            f"boot_lba={self.boot_start},{self.boot_sectors}",
            f"data_lba={self.data_start},{self.data_sectors}",
            f"meta_lba={self.meta_start},{self.meta_sectors}",
        ]

    def is_data_lba(self, lba: int) -> bool:
        return self.data_start <= lba < self.data_start + self.data_sectors

    def tag_location(self, lba: int) -> tuple[int, int]:
        """(integrity-region LBA, byte offset) of the tag slot for a data LBA."""
        if not self.is_data_lba(lba):
            raise ValueError(f"LBA {lba} is not in the data partition")
        slot = lba - self.data_start
        return (
            self.meta_start + slot // TAGS_PER_SECTOR,
            (slot % TAGS_PER_SECTOR) * DIGEST_SIZE,
        )


def _layout_for(boot_sectors: int, data_sectors: int, total_sectors: int | None) -> ImageLayout:
    if total_sectors is None:
        total = 1 + boot_sectors + data_sectors + -(-data_sectors // TAGS_PER_SECTOR)
    else:
        remaining = total_sectors - 1 - boot_sectors
        # Largest data partition whose tag region still fits alongside it:
        # d + ceil(d / 16) <= remaining holds exactly when d <= 16 * remaining / 17.
        data = remaining * TAGS_PER_SECTOR // (TAGS_PER_SECTOR + 1)
        if data < data_sectors:
            raise CapacityError(
                f"geometry of {total_sectors} sectors leaves {max(data, 0)} data "
                f"sectors, need {data_sectors}"
            )
        data_sectors = data
        total = total_sectors
    if total > MAX_SECTORS:
        raise CapacityError(f"geometry of {total} sectors, at most {MAX_SECTORS} have 32-bit LBAs")
    return ImageLayout(
        total_sectors=total,
        boot_start=1,
        boot_sectors=boot_sectors,
        data_start=1 + boot_sectors,
        data_sectors=data_sectors,
    )


# ---------------------------------------------------------------------------
# Raw image


class NvmImage:
    """Mutable sector-addressable disk image backing a virtual card."""

    def __init__(self, data: bytearray | bytes):
        """Adopt a ``bytearray`` as the image's storage (the caller hands it
        over); copy anything else."""
        if len(data) % SECTOR_SIZE:
            raise ValueError("image size must be a multiple of 512")
        self._data = data if isinstance(data, bytearray) else bytearray(data)
        self.total_sectors = len(self._data) // SECTOR_SIZE  # the buffer never resizes

    # Reads and writes go through a memoryview, which the statement drops:
    # a bytearray slice is a copy, and assigning bytes to one copies them
    # into a temporary bytearray first.

    def read_sector(self, lba: int) -> bytes:
        self._check(lba)
        return bytes(memoryview(self._data)[lba * SECTOR_SIZE : (lba + 1) * SECTOR_SIZE])

    def write_sector(self, lba: int, payload: bytes) -> None:
        if len(payload) != SECTOR_SIZE:
            raise ValueError("sector payload must be 512 bytes")
        self.write_sectors(lba, payload)

    def read_sectors(self, lba: int, count: int) -> bytes:
        """``count`` consecutive sectors from ``lba``, as one buffer."""
        self._check(lba, count)
        return bytes(memoryview(self._data)[lba * SECTOR_SIZE : (lba + count) * SECTOR_SIZE])

    def write_sectors(self, lba: int, data: bytes) -> None:
        """Store the consecutive sectors of ``data`` from ``lba``."""
        if len(data) % SECTOR_SIZE:
            raise ValueError("sector payload must be a whole number of 512-byte sectors")
        self._check(lba, len(data) // SECTOR_SIZE)
        memoryview(self._data)[lba * SECTOR_SIZE : lba * SECTOR_SIZE + len(data)] = data

    def _check(self, lba: int, count: int = 1) -> None:
        if count < 1 or not 0 <= lba <= self.total_sectors - count:
            raise IndexError(f"LBA {lba} (+{count}) outside geometry {self.total_sectors}")

    def to_bytes(self) -> bytes:
        return bytes(self._data)

    def clone(self) -> "NvmImage":
        return NvmImage(bytearray(self._data))

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self._data)

    @classmethod
    def load(cls, path: str | Path) -> "NvmImage":
        return cls(bytearray(Path(path).read_bytes()))


# ---------------------------------------------------------------------------
# Manifest


@dataclass
class Manifest:
    """Provisioning record: anchors, geometry, identities, content digests.

    The identity fields (dna, cid, csd) belong to the secure-environment
    role; attacker-role tooling must not read them.
    """

    anchors: TrustAnchors
    layout: ImageLayout
    dna: int
    cid: bytes
    csd: bytes
    entries: list[tuple[str, int, str]]
    files: list[tuple[str, int, str]]

    def to_text(self) -> str:
        a = self.anchors
        lines = [
            f"device_checksum={a.device_checksum.hex()}",
            f"nvm_checksum={a.nvm_checksum.hex()}",
            f"mbr_digest={a.mbr_digest.hex()}",
            f"kdf_counter={a.kdf_counter}",
            f"kdf_repetitions={a.kdf_repetitions}",
            *self.layout.lines(),
            f"dna={self.dna:#x}",
            f"cid={self.cid.hex()}",
            f"csd={self.csd.hex()}",
            *self.content_lines(),
        ]
        return "\n".join(lines) + "\n"

    def content_lines(self) -> list[str]:
        """The ``entry=`` and ``file=`` lines: each blob's length and digest."""
        lines = [f"entry={kind},{length},{digest}" for kind, length, digest in self.entries]
        return lines + [f"file={label},{length},{digest}" for label, length, digest in self.files]

    @classmethod
    def from_text(cls, text: str) -> "Manifest":
        fields: dict[str, str] = {}
        entries: list[tuple[str, int, str]] = []
        files: list[tuple[str, int, str]] = []
        # Split on "\n" alone: a file label may hold any other line break.
        for lineno, line in enumerate(text.split("\n"), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ManifestError(f"line {lineno}: expected key=value")
            key, value = line.split("=", 1)
            try:
                if key == "entry":
                    kind, length, digest = value.split(",")
                    entries.append((kind, int(length), digest))
                elif key == "file":
                    label, length, digest = value.rsplit(",", 2)
                    files.append((label, int(length), digest))
                else:
                    fields[key] = value
            except ValueError as exc:
                raise ManifestError(f"line {lineno}: bad {key} record: {exc}") from exc
        try:
            anchors = TrustAnchors(
                device_checksum=bytes.fromhex(fields["device_checksum"]),
                nvm_checksum=bytes.fromhex(fields["nvm_checksum"]),
                mbr_digest=bytes.fromhex(fields["mbr_digest"]),
                kdf_counter=int(fields["kdf_counter"]),
                kdf_repetitions=int(fields["kdf_repetitions"]),
            )
            boot_start, boot_sectors = map(int, fields["boot_lba"].split(","))
            data_start, data_sectors = map(int, fields["data_lba"].split(","))
            meta = tuple(map(int, fields["meta_lba"].split(",")))
            layout = ImageLayout(
                total_sectors=int(fields["geometry"]),
                boot_start=boot_start,
                boot_sectors=boot_sectors,
                data_start=data_start,
                data_sectors=data_sectors,
            )
            if meta != (layout.meta_start, layout.meta_sectors):
                raise ManifestError("meta_lba disagrees with geometry and data_lba")
            device = DeviceIdentity(dna=int(fields["dna"], 16))
            card = CardIdentity(cid=bytes.fromhex(fields["cid"]), csd=bytes.fromhex(fields["csd"]))
            manifest = cls(
                anchors=anchors,
                layout=layout,
                dna=device.dna,
                cid=card.cid,
                csd=card.csd,
                entries=entries,
                files=files,
            )
        except (KeyError, ValueError) as exc:
            raise ManifestError(f"bad manifest: {exc}") from exc
        return manifest

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_text())

    @classmethod
    def load(cls, path: str | Path) -> "Manifest":
        return cls.from_text(Path(path).read_text())


# ---------------------------------------------------------------------------
# Provisioning


@dataclass(frozen=True)
class ProvisionResult:
    image: NvmImage
    anchors: TrustAnchors
    manifest: Manifest
    layout: ImageLayout


def provision(
    boot_entries: Sequence[tuple[EntryKind, bytes]],
    data_files: Sequence[tuple[str, bytes]],
    dev: DeviceIdentity,
    card: CardIdentity,
    *,
    kdf_counter: int = 1,
    kdf_repetitions: int = 1000,
    total_sectors: int | None = None,
    data_slack_sectors: int = 64,
    table_sectors: int = 4,
) -> ProvisionResult:
    """Build a fully encrypted, integrity-protected image for a device pair."""
    if table_sectors < 0 or data_slack_sectors < 0:
        raise ValueError("table and slack sector counts must not be negative")
    check_kdf_counter(kdf_counter)
    check_kdf_repetitions(kdf_repetitions)
    if not all(isinstance(kind, EntryKind) for kind, _ in boot_entries):
        raise TypeError("a boot entry's kind is an EntryKind")
    boot_sectors = sealed_container_size([len(blob) for _, blob in boot_entries]) // SECTOR_SIZE

    records = []
    offset = table_sectors * SECTOR_SIZE
    for label, blob in data_files:
        records.append(FileRecord(label=label, offset=offset, length=len(blob)))
        offset += -(-len(blob) // SECTOR_SIZE) * SECTOR_SIZE
    data_needed = offset // SECTOR_SIZE
    table = build_file_table(records, table_sectors)

    if total_sectors is None:
        layout = _layout_for(boot_sectors, data_needed + data_slack_sectors, None)
    else:
        layout = _layout_for(boot_sectors, data_needed, total_sectors)

    # One buffer: laid out as plaintext, then sealed in place, then adopted
    # by the image.
    buf = bytearray(layout.total_sectors * SECTOR_SIZE)
    mbr = MbrSector(
        partitions=(
            PartitionEntry(0x80, BOOT_PARTITION_TYPE, layout.boot_start, layout.boot_sectors),
            PartitionEntry(0x00, DATA_PARTITION_TYPE, layout.data_start, layout.data_sectors),
        )
    )
    boot_off = layout.boot_start * SECTOR_SIZE
    data_off = layout.data_start * SECTOR_SIZE

    with memoryview(buf) as view:

        def sector(lba: int) -> memoryview:
            return view[lba * SECTOR_SIZE : (lba + 1) * SECTOR_SIZE]

        def seal(first: int, end: int) -> None:
            """Encrypt sectors [first, end) in place, one run at a time."""
            for lba in range(first, end, RUN_SECTORS):
                run = view[lba * SECTOR_SIZE : min(lba + RUN_SECTORS, end) * SECTOR_SIZE]
                run[:] = cipher.crypt(lba, run)

        view[0:SECTOR_SIZE] = mbr.to_bytes()
        boot_len = write_boot_image(buf, boot_off, boot_entries)
        view[data_off : data_off + len(table)] = table
        for rec, (_, blob) in zip(records, data_files):
            start = data_off + rec.offset
            view[start : start + len(blob)] = blob

        # The two keyless hashes, handed over before any key exists: the
        # container's trailer over its plaintext, then the manifest's content
        # digests over the caller's blobs. Meanwhile the data partition and
        # the integrity region are sealed, which the trailer does not cover;
        # the boot region waits for its trailer.
        with _hash_pool(boot_len) as pool:
            trailer = pool.submit(container_trailer, buf, boot_off)
            records = pool.submit(_content_records, boot_entries, data_files)
            aes_key, mac_key = derive_keys(dev, card.cid, kdf_counter, kdf_repetitions)
            cipher, mac = SectorCipher(aes_key), SectorMac(mac_key)
            seal(layout.data_start, layout.meta_start)
            # The integrity region's plaintext: one tag per data sector over
            # its ciphertext, in LBA order (tag_location's consecutive slots).
            data_lbas = range(layout.data_start, layout.meta_start)
            tags = b"".join([sector_tag(mac, lba, sector(lba)) for lba in data_lbas])
            meta_off = layout.meta_start * SECTOR_SIZE
            view[meta_off : meta_off + len(tags)] = tags
            seal(layout.meta_start, layout.total_sectors)
            trailer_off = boot_off + boot_len - DIGEST_SIZE
            view[trailer_off : trailer_off + DIGEST_SIZE] = trailer.result()
            seal(0, layout.data_start)
            mbr_digest = sector_tag(mac, 0, sector(0))
            entries, files = records.result()

    anchors = TrustAnchors.for_pair(
        dev, card, mbr_digest=mbr_digest, kdf_counter=kdf_counter, kdf_repetitions=kdf_repetitions
    )
    manifest = Manifest(
        anchors=anchors,
        layout=layout,
        dna=dev.dna,
        cid=card.cid,
        csd=card.csd,
        entries=entries,
        files=files,
    )
    return ProvisionResult(image=NvmImage(buf), anchors=anchors, manifest=manifest, layout=layout)


class _Inline(Executor):
    """An executor that runs each job inline: on the thread that asks for
    its result, when it asks."""

    def submit(self, fn, /, *args):
        return SimpleNamespace(result=partial(fn, *args))


def _hash_pool(container_len: int) -> Executor:
    """Where the keyless hashes of a container of ``container_len`` bytes
    run: on one worker thread from ``HASH_THREAD_MIN_CONTAINER`` up, else on
    the caller's thread when it asks for a job's result. ``result()`` gives
    the job's value or raises its error, once per job. Leaving the pool as a
    context manager, or its ``shutdown()``, waits for every job and joins
    the worker."""
    if container_len >= HASH_THREAD_MIN_CONTAINER:
        return ThreadPoolExecutor(max_workers=1, thread_name_prefix="tmiusim-hash")
    return _Inline()


def _content_records(
    boot_entries: Sequence[tuple[EntryKind, bytes]], data_files: Sequence[tuple[str, bytes]]
) -> tuple[list[tuple[str, int, str]], list[tuple[str, int, str]]]:
    """The manifest's entry and file records: each blob's length and SHA-256."""
    entries = [(kind.label, len(blob), sha256(blob).hex()) for kind, blob in boot_entries]
    return entries, [(label, len(b), sha256(b).hex()) for label, b in data_files]


# ---------------------------------------------------------------------------
# Offline (secure-environment) readers


def manifest_keys(manifest: Manifest) -> tuple[bytes, bytes]:
    """(cipher key, integrity key) re-derived from manifest identities."""
    anchors = manifest.anchors
    return derive_keys(
        DeviceIdentity(dna=manifest.dna), manifest.cid, anchors.kdf_counter, anchors.kdf_repetitions
    )


def _plain_reader(image: NvmImage, aes_key: bytes) -> Callable[..., bytes]:
    """``read_plain(lba, count=1)``: consecutive sectors, decrypted as one run."""
    cipher = SectorCipher(aes_key)
    return lambda lba, count=1: cipher.crypt(lba, image.read_sectors(lba, count))


def _read_container(
    read_plain: Callable[[int, int], bytes], boot_start: int, boot_sectors: int
) -> tuple[list[LoadedEntry], int]:
    """(entries, sectors) of the plaintext container at ``boot_start`` in a
    ``boot_sectors``-sector boot partition, fed by ``read_plain(lba, count)``
    to a :class:`ContainerCheck` as the unit feeds it, and read by one
    :class:`BootStream` as the host reads it. A format error comes before a
    trailer mismatch; the stream's copy of the container is freed on return."""
    stream, check, lba = BootStream(), ContainerCheck(boot_sectors), boot_start
    while check.pending:
        count = min(RUN_SECTORS, check.pending)
        if released := check.update(read_plain(lba, count)):
            stream.receive(released)
        lba += count
    stream.receive(check.held)
    entries = stream.loaded_entries()
    check.finish()
    return entries, lba - boot_start


def in_use_data_lbas(image: NvmImage, manifest: Manifest) -> list[int]:
    """Absolute LBAs the post-boot read path will touch: the table, and each
    file extent that lies in the data partition, as the unit reads no other."""
    layout = manifest.layout
    aes_key, _ = manifest_keys(manifest)
    table = read_file_table(_plain_reader(image, aes_key), layout.data_start, layout.data_sectors)
    lbas = set(range(layout.data_start, layout.data_start + len(table) // SECTOR_SIZE))
    for rec in parse_file_table(table):
        extent = rec.lbas(layout.data_start)
        if extent.stop <= layout.meta_start:
            lbas.update(extent)
    return sorted(lbas)


def verify_image(image: NvmImage, manifest: Manifest) -> list[str]:
    """Check an image offline against its manifest; one finding per check.

    The checks are the MBR anchor, the boot container (its trailer, then
    each entry against the manifest's), every data-sector tag and the file
    digests (a file whose extent leaves the data partition fails);
    :func:`finding_failed` tells which findings fail.
    An image whose size disagrees with the manifest's geometry yields a
    single ``geometry=FAIL`` finding and no sector is read.
    """
    lay = manifest.layout
    if image.total_sectors != lay.total_sectors:
        return [f"geometry=FAIL image={image.total_sectors} manifest={lay.total_sectors}"]
    aes_key, mac_key = manifest_keys(manifest)
    read_plain = _plain_reader(image, aes_key)
    mac = SectorMac(mac_key)

    mbr_ok = sector_tag(mac, 0, image.read_sector(0)) == manifest.anchors.mbr_digest
    findings = ["mbr=OK" if mbr_ok else "mbr=FAIL lba=0"]

    try:
        entries, sectors = _read_container(read_plain, lay.boot_start, lay.boot_sectors)
        # The trailer is unkeyed: the manifest's digests catch a forgery.
        loaded = [(e.kind_label, e.length, e.digest.hex()) for e in entries]
        for i, (got, want) in enumerate(zip_longest(loaded, manifest.entries)):
            if got != want:
                raise ImageDigestError(f"entry {i} disagrees with the manifest")
        findings.append(f"boot_image=OK sectors={sectors}")
    except (ImageFormatError, ImageDigestError) as exc:
        findings.append(f"boot_image=FAIL ({exc})")

    tag_sectors = {lba: read_plain(lba) for lba in range(lay.meta_start, lay.total_sectors)}
    bad_lbas = []
    for lba in range(lay.data_start, lay.data_start + lay.data_sectors):
        meta_lba, offset = lay.tag_location(lba)
        stored = tag_sectors[meta_lba][offset : offset + DIGEST_SIZE]
        if stored != sector_tag(mac, lba, image.read_sector(lba)):
            bad_lbas.append(lba)
    findings += [f"data=FAIL lba={lba}" for lba in bad_lbas]
    if not bad_lbas:
        findings.append(f"data=OK sectors={lay.data_sectors}")

    try:
        records = parse_file_table(read_file_table(read_plain, lay.data_start, lay.data_sectors))
        by_label = {r.label: r for r in records}
        for label, length, digest in manifest.files:
            record = by_label.get(label)
            ok = (
                record is not None
                and record.length == length
                and all(map(lay.is_data_lba, record.lbas(lay.data_start)))
            )
            if ok:
                blob = b"".join(read_plain(lba) for lba in record.lbas(lay.data_start))
                ok = sha256(blob[:length]).hex() == digest
            findings.append(f"file={label} {'OK' if ok else 'FAIL'}")
    except (ValueError, KeyError) as exc:
        findings.append(f"files=FAIL ({exc})")
    return findings


def finding_failed(finding: str) -> bool:
    """Whether a :func:`verify_image` finding reports a failure."""
    if finding.startswith("file="):
        # A file label is free text; its verdict is the last word.
        return finding.endswith(" FAIL")
    return finding.split(" ", 1)[0].endswith("=FAIL")
