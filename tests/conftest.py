from __future__ import annotations

import functools

import pytest

from tmiusim import CardIdentity, DeviceIdentity, EntryKind, provision
from tmiusim.crypto import SectorCipher
from tmiusim.image import (
    FileRecord,
    Manifest,
    NvmImage,
    ProvisionResult,
    manifest_keys,
    read_file_table,
    sealed_container_size,
    write_boot_image,
)

FIXTURE_DNA = 0x0123456789ABCD
FIXTURE_KDF_REPETITIONS = 25  # full-strength stretching is exercised separately

BOOT_ENTRIES = [
    (EntryKind.PARTIAL_BITSTREAM, b"\xaa\x55" * 900),
    (EntryKind.SSBL, b"ssbl-code " * 313),
    (EntryKind.KERNEL, bytes(range(256)) * 37),
    (EntryKind.DEVICETREE, b"\x00compatible\x00" * 61),
]
DATA_FILES = [
    ("etc/config.txt", b"mode=field\nrelay=7\n" * 41),
    ("var/log.bin", bytes((i * 7) % 256 for i in range(3000))),
    ("keys.db", b"\x00" * 700),
]


def make_provision(
    dna: int = FIXTURE_DNA,
    card_seed: bytes = b"fixture-card",
    boot_entries=BOOT_ENTRIES,
    **kwargs,
) -> ProvisionResult:
    kwargs.setdefault("kdf_repetitions", FIXTURE_KDF_REPETITIONS)
    return provision(
        boot_entries,
        DATA_FILES,
        DeviceIdentity(dna=dna),
        CardIdentity.from_seed(card_seed),
        **kwargs,
    )


@functools.lru_cache(maxsize=None)
def provision_container(sectors: int) -> ProvisionResult:
    """A provisioned image whose boot container is exactly ``sectors`` long."""
    # One entry: a 21-byte header and a 32-byte digest around the blob.
    blob = bytes((i * 29 + sectors) % 256 for i in range(sectors * 512 - 53))
    return make_provision(boot_entries=[(EntryKind.KERNEL, blob)])


def build_boot_image(entries) -> bytes:
    """Serialize boot blobs into a sealed, sector-aligned container."""
    container = bytearray(sealed_container_size([len(blob) for _, blob in entries]))
    write_boot_image(container, 0, entries)
    return bytes(container)


def image_file_records(image: NvmImage, manifest: Manifest) -> list[FileRecord]:
    """Decrypt and parse the data-partition file table straight off an image."""
    cipher = SectorCipher(manifest_keys(manifest)[0])

    def read_plain(lba: int, count: int = 1) -> bytes:
        return cipher.crypt(lba, image.read_sectors(lba, count))

    records, _ = read_file_table(read_plain, manifest.layout.data_start, manifest.layout.data_sectors)
    return records


@pytest.fixture(scope="session")
def provisioned() -> ProvisionResult:
    """A standard provisioned image; clone the image before mutating it."""
    return make_provision()
