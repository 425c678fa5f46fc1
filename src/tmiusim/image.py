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

All container integers are big-endian; MBR partition fields keep their
conventional little-endian encoding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

from .crypto import (
    DIGEST_SIZE,
    SECTOR_SIZE,
    KdfInput,
    derive_key,
    derive_mac_key,
    encrypt_sector,
    decrypt_sector,
    sector_tag,
    sha256,
)
from .identity import CardIdentity, DeviceIdentity, TrustAnchors

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


class MbrError(ValueError):
    """Structural defect in a master boot record."""


class BadMbrSignature(MbrError):
    pass


class OverlappingPartitions(MbrError):
    pass


class PartitionOutOfBounds(MbrError):
    pass


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


def parse_mbr(sector: bytes, total_sectors: int | None = None) -> MbrSector:
    """Parse a plaintext MBR sector, enforcing signature, overlap and bounds."""
    if len(sector) != SECTOR_SIZE:
        raise MbrError("MBR sector must be 512 bytes")
    if sector[510:512] != MBR_SIGNATURE:
        raise BadMbrSignature("missing 0x55AA signature")
    parts = []
    for i in range(4):
        entry = PartitionEntry.unpack(sector[446 + 16 * i : 446 + 16 * (i + 1)])
        if entry is not None:
            parts.append(entry)
    spans = sorted((p.lba_start, p.lba_start + p.sector_count) for p in parts)
    for (s1, e1), (s2, _) in zip(spans, spans[1:]):
        if s2 < e1:
            raise OverlappingPartitions(f"partitions overlap at LBA {s2}")
    for part in parts:
        if part.sector_count == 0 or part.lba_start == 0:
            raise PartitionOutOfBounds("partition must start past LBA 0 and be non-empty")
        if total_sectors is not None and part.lba_start + part.sector_count > total_sectors:
            raise PartitionOutOfBounds(
                f"partition [{part.lba_start}, +{part.sector_count}) exceeds geometry"
            )
    return MbrSector(partitions=tuple(parts), bootstrap=sector[:446])


# ---------------------------------------------------------------------------
# Boot-image container


@dataclass(frozen=True)
class BootImage:
    version: int
    entries: tuple[tuple[EntryKind, bytes], ...]


def build_boot_image(entries: Sequence[tuple[EntryKind, bytes]]) -> bytes:
    """Serialize boot blobs into a sealed, sector-aligned container."""
    if not entries:
        raise ValueError("boot image needs at least one entry")
    for kind, blob in entries:
        if not blob:
            raise ValueError(f"empty blob for entry kind {kind.label}")
    header_size = _CONTAINER_HEADER.size + _CONTAINER_ENTRY.size * len(entries)
    table = bytearray()
    offset = 0
    for kind, blob in entries:
        table += _CONTAINER_ENTRY.pack(kind.value, offset, len(blob))
        offset += len(blob)
    payload = b"".join(blob for _, blob in entries)
    body_len = header_size + len(payload)
    total_len = -(-(body_len + DIGEST_SIZE) // SECTOR_SIZE) * SECTOR_SIZE
    header = _CONTAINER_HEADER.pack(
        BOOT_IMAGE_MAGIC, BOOT_IMAGE_VERSION, len(entries), total_len
    )
    body = header + bytes(table) + payload
    body += bytes(total_len - DIGEST_SIZE - len(body))
    return body + sha256(body)


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


def boot_image_sectors(prefix: bytes, boot_sectors: int) -> int:
    """Container length in sectors, from its first sector; it must fit the partition."""
    count = boot_image_length(prefix) // SECTOR_SIZE
    if count > boot_sectors:
        raise ImageFormatError("container exceeds boot partition")
    return count


def parse_boot_image(container: bytes) -> BootImage:
    """Structural parse of a container; digest is not checked here."""
    total_len = boot_image_length(container)
    if total_len != len(container):
        raise ImageFormatError("container length field disagrees with data")
    _, version, count, _ = _CONTAINER_HEADER.unpack_from(container)
    table_end = _CONTAINER_HEADER.size + count * _CONTAINER_ENTRY.size
    payload = container[table_end : total_len - DIGEST_SIZE]
    entries = []
    for i in range(count):
        kind_value, offset, length = _CONTAINER_ENTRY.unpack_from(
            container, _CONTAINER_HEADER.size + i * _CONTAINER_ENTRY.size
        )
        try:
            kind = EntryKind(kind_value)
        except ValueError:
            raise ImageFormatError(f"unknown entry kind {kind_value}") from None
        if offset + length > len(payload) or length == 0:
            raise ImageFormatError(f"entry {i} outside payload")
        entries.append((kind, payload[offset : offset + length]))
    return BootImage(version=version, entries=tuple(entries))


def verify_boot_image(container: bytes) -> BootImage:
    """Parse and check the trailing digest; raises on any defect."""
    image = parse_boot_image(container)
    if sha256(container[:-DIGEST_SIZE]) != container[-DIGEST_SIZE:]:
        raise ImageDigestError("boot image digest mismatch")
    return image


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


def build_file_table(records: Sequence[FileRecord], table_sectors: int) -> bytes:
    body = bytearray(_TABLE_HEADER.pack(FILE_TABLE_MAGIC, table_sectors, len(records)))
    for rec in records:
        label = rec.label.encode("utf-8")
        body += struct.pack(">H", len(label)) + label
        body += _RECORD_FIXED.pack(rec.offset, rec.length)
    capacity = table_sectors * SECTOR_SIZE
    if len(body) > capacity:
        raise CapacityError("file table exceeds its reserved sectors")
    return bytes(body) + bytes(capacity - len(body))


def table_sector_count(first_sector: bytes) -> int:
    magic, table_sectors, _ = _TABLE_HEADER.unpack_from(first_sector)
    if magic != FILE_TABLE_MAGIC:
        raise FileTableError("bad file-table magic")
    if table_sectors == 0:
        raise FileTableError("file table claims zero sectors")
    return table_sectors


def parse_file_table(table: bytes) -> list[FileRecord]:
    magic, table_sectors, count = _TABLE_HEADER.unpack_from(table)
    if magic != FILE_TABLE_MAGIC:
        raise FileTableError("bad file-table magic")
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
        label = table[pos : pos + label_len].decode("utf-8")
        pos += label_len
        offset, length = _RECORD_FIXED.unpack_from(table, pos)
        pos += _RECORD_FIXED.size
        records.append(FileRecord(label=label, offset=offset, length=length))
    return records


def read_file_table(
    read_plain: Callable[[int], bytes], data_start: int
) -> tuple[list[FileRecord], int]:
    """(records, table sectors) of the file table, read through
    ``read_plain(lba) -> plaintext``: the first sector once, then the rest."""
    first = read_plain(data_start)
    sectors = table_sector_count(first)
    table = first + b"".join(read_plain(data_start + i) for i in range(1, sectors))
    return parse_file_table(table), sectors


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
        if len(data) % SECTOR_SIZE:
            raise ValueError("image size must be a multiple of 512")
        self._data = bytearray(data)

    @classmethod
    def blank(cls, total_sectors: int) -> "NvmImage":
        return cls(bytearray(total_sectors * SECTOR_SIZE))

    @property
    def total_sectors(self) -> int:
        return len(self._data) // SECTOR_SIZE

    def read_sector(self, lba: int) -> bytes:
        self._check(lba)
        return bytes(self._data[lba * SECTOR_SIZE : (lba + 1) * SECTOR_SIZE])

    def write_sector(self, lba: int, payload: bytes) -> None:
        self._check(lba)
        if len(payload) != SECTOR_SIZE:
            raise ValueError("sector payload must be 512 bytes")
        self._data[lba * SECTOR_SIZE : (lba + 1) * SECTOR_SIZE] = payload

    def _check(self, lba: int) -> None:
        if not 0 <= lba < self.total_sectors:
            raise IndexError(f"LBA {lba} outside geometry {self.total_sectors}")

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
        ]
        if a.bind_csd:
            lines.append("bind_csd=1")
        lines.append(f"dna={self.dna:#x}")
        lines.append(f"cid={self.cid.hex()}")
        lines.append(f"csd={self.csd.hex()}")
        lines += self.content_lines()
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
        for lineno, line in enumerate(text.splitlines(), 1):
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
                bind_csd=fields.get("bind_csd", "0") == "1",
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
            manifest = cls(
                anchors=anchors,
                layout=layout,
                dna=int(fields["dna"], 16),
                cid=bytes.fromhex(fields["cid"]),
                csd=bytes.fromhex(fields["csd"]),
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
    bind_csd: bool = False,
) -> ProvisionResult:
    """Build a fully encrypted, integrity-protected image for a device pair."""
    container = build_boot_image(boot_entries)
    boot_sectors = len(container) // SECTOR_SIZE

    labels = [label for label, _ in data_files]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate file labels")
    for label in labels:
        # Labels land in the line-oriented manifest.
        if not label or any(ord(c) < 0x20 for c in label):
            raise ValueError(f"bad file label {label!r}")
    records = []
    offset = table_sectors * SECTOR_SIZE
    for label, blob in data_files:
        records.append(FileRecord(label=label, offset=offset, length=len(blob)))
        offset += -(-len(blob) // SECTOR_SIZE) * SECTOR_SIZE
    data_needed = offset // SECTOR_SIZE

    if total_sectors is None:
        layout = _layout_for(boot_sectors, data_needed + data_slack_sectors, None)
    else:
        layout = _layout_for(boot_sectors, data_needed, total_sectors)

    table = build_file_table(records, table_sectors)

    plain = bytearray(layout.total_sectors * SECTOR_SIZE)
    mbr = MbrSector(
        partitions=(
            PartitionEntry(0x80, BOOT_PARTITION_TYPE, layout.boot_start, layout.boot_sectors),
            PartitionEntry(0x00, DATA_PARTITION_TYPE, layout.data_start, layout.data_sectors),
        )
    )
    plain[0:SECTOR_SIZE] = mbr.to_bytes()
    boot_off = layout.boot_start * SECTOR_SIZE
    plain[boot_off : boot_off + len(container)] = container
    data_off = layout.data_start * SECTOR_SIZE
    plain[data_off : data_off + len(table)] = table
    for rec, (_, blob) in zip(records, data_files):
        start = data_off + rec.offset
        plain[start : start + len(blob)] = blob

    kdf = KdfInput(
        counter=kdf_counter,
        secret=dev.encoded(),
        other_info=card.cid,
        repetitions=kdf_repetitions,
    )
    aes_key = derive_key(kdf)
    mac_key = derive_mac_key(kdf)

    image = NvmImage.blank(layout.total_sectors)
    for lba in range(layout.meta_start):
        start = lba * SECTOR_SIZE
        image.write_sector(lba, encrypt_sector(aes_key, lba, bytes(plain[start : start + SECTOR_SIZE])))

    meta_plain = bytearray(layout.meta_sectors * SECTOR_SIZE)
    for lba in range(layout.data_start, layout.data_start + layout.data_sectors):
        meta_lba, slot_off = layout.tag_location(lba)
        pos = (meta_lba - layout.meta_start) * SECTOR_SIZE + slot_off
        meta_plain[pos : pos + DIGEST_SIZE] = sector_tag(mac_key, lba, image.read_sector(lba))
    for i in range(layout.meta_sectors):
        lba = layout.meta_start + i
        chunk = bytes(meta_plain[i * SECTOR_SIZE : (i + 1) * SECTOR_SIZE])
        image.write_sector(lba, encrypt_sector(aes_key, lba, chunk))

    anchors = TrustAnchors.for_pair(
        dev,
        card,
        mbr_digest=sector_tag(mac_key, 0, image.read_sector(0)),
        kdf_counter=kdf_counter,
        kdf_repetitions=kdf_repetitions,
        bind_csd=bind_csd,
    )
    manifest = Manifest(
        anchors=anchors,
        layout=layout,
        dna=dev.dna,
        cid=card.cid,
        csd=card.csd,
        entries=[(k.label, len(b), sha256(b).hex()) for k, b in boot_entries],
        files=[(label, len(b), sha256(b).hex()) for label, b in data_files],
    )
    return ProvisionResult(image=image, anchors=anchors, manifest=manifest, layout=layout)


# ---------------------------------------------------------------------------
# Offline (secure-environment) readers


def manifest_keys(manifest: Manifest) -> tuple[bytes, bytes]:
    """(cipher key, integrity key) re-derived from manifest identities."""
    kdf = KdfInput(
        counter=manifest.anchors.kdf_counter,
        secret=manifest.dna.to_bytes(8, "big"),
        other_info=manifest.cid,
        repetitions=manifest.anchors.kdf_repetitions,
    )
    return derive_key(kdf), derive_mac_key(kdf)


def _plain_reader(image: NvmImage, aes_key: bytes) -> Callable[[int], bytes]:
    return lambda lba: decrypt_sector(aes_key, lba, image.read_sector(lba))


def image_file_records(image: NvmImage, manifest: Manifest) -> list[FileRecord]:
    """Decrypt and parse the data-partition file table straight off an image."""
    aes_key, _ = manifest_keys(manifest)
    records, _ = read_file_table(_plain_reader(image, aes_key), manifest.layout.data_start)
    return records


def in_use_data_lbas(image: NvmImage, manifest: Manifest) -> list[int]:
    """Absolute LBAs the post-boot read path will touch: table + file extents."""
    layout = manifest.layout
    aes_key, _ = manifest_keys(manifest)
    records, sectors = read_file_table(_plain_reader(image, aes_key), layout.data_start)
    lbas = set(range(layout.data_start, layout.data_start + sectors))
    for rec in records:
        lbas.update(rec.lbas(layout.data_start))
    return sorted(lbas)


def verify_image(image: NvmImage, manifest: Manifest) -> list[str]:
    """Check an image offline against its manifest; one finding per check.

    The checks are the MBR anchor, the boot container, every data-sector tag
    and the file digests; :func:`finding_failed` tells which findings fail.
    An image whose size disagrees with the manifest's geometry yields a
    single ``geometry=FAIL`` finding and no sector is read.
    """
    lay = manifest.layout
    if image.total_sectors != lay.total_sectors:
        return [f"geometry=FAIL image={image.total_sectors} manifest={lay.total_sectors}"]
    aes_key, mac_key = manifest_keys(manifest)
    read_plain = _plain_reader(image, aes_key)

    mbr_ok = sector_tag(mac_key, 0, image.read_sector(0)) == manifest.anchors.mbr_digest
    findings = ["mbr=OK" if mbr_ok else "mbr=FAIL lba=0"]

    try:
        count = boot_image_sectors(read_plain(lay.boot_start), lay.boot_sectors)
        verify_boot_image(b"".join(read_plain(lay.boot_start + i) for i in range(count)))
        findings.append(f"boot_image=OK sectors={count}")
    except (ImageFormatError, ImageDigestError) as exc:
        findings.append(f"boot_image=FAIL ({exc})")

    tag_sectors = {lba: read_plain(lba) for lba in range(lay.meta_start, lay.total_sectors)}
    bad_lbas = []
    for lba in range(lay.data_start, lay.data_start + lay.data_sectors):
        meta_lba, offset = lay.tag_location(lba)
        stored = tag_sectors[meta_lba][offset : offset + DIGEST_SIZE]
        if stored != sector_tag(mac_key, lba, image.read_sector(lba)):
            bad_lbas.append(lba)
    findings += [f"data=FAIL lba={lba}" for lba in bad_lbas]
    if not bad_lbas:
        findings.append(f"data=OK sectors={lay.data_sectors}")

    try:
        records, _ = read_file_table(read_plain, lay.data_start)
        by_label = {r.label: r for r in records}
        for label, length, digest in manifest.files:
            record = by_label.get(label)
            ok = record is not None and record.length == length
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
