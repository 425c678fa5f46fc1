from __future__ import annotations

import functools
import hashlib
from concurrent.futures import ThreadPoolExecutor

import pytest

from tmiusim import CardIdentity, DeviceIdentity, EntryKind, provision
from tmiusim.crypto import SECTOR_SIZE
from tmiusim.image import (
    FileRecord,
    Manifest,
    NvmImage,
    ProvisionResult,
    _plain_reader,
    _read_container,
    container_trailer,
    manifest_keys,
    parse_file_table,
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
def provision_container(sectors: int, **kwargs) -> ProvisionResult:
    """A provisioned image whose boot container is exactly ``sectors`` long;
    ``kwargs`` go to :func:`make_provision`."""
    # One entry: a 21-byte header and a 32-byte digest around the blob.
    blob = bytes((i * 29 + sectors) % 256 for i in range(sectors * 512 - 53))
    return make_provision(boot_entries=[(EntryKind.KERNEL, blob)], **kwargs)


def record_hash_workers(monkeypatch) -> tuple[list, list]:
    """(threads, jobs), filled as the worker threads of ``image._hash_pool``
    are handed jobs: each worker thread once, and each job's (function,
    args). Provisioning is the pool's one caller."""
    threads, jobs = [], []
    submit = ThreadPoolExecutor.submit

    def recording(pool, fn, /, *args):
        future = submit(pool, fn, *args)
        jobs.append((fn, args))
        threads.extend(thread for thread in pool._threads if thread not in threads)
        return future

    monkeypatch.setattr(ThreadPoolExecutor, "submit", recording)
    return threads, jobs


def record_pools(monkeypatch) -> list:
    """Filled with each ``ThreadPoolExecutor`` built from here on."""
    pools = []
    init = ThreadPoolExecutor.__init__

    def recording(pool, *args, **kwargs):
        pools.append(pool)
        init(pool, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "__init__", recording)
    return pools


def build_boot_image(entries) -> bytes:
    """Serialize boot blobs into a sealed, sector-aligned container."""
    container = bytearray(sealed_container_size([len(blob) for _, blob in entries]))
    write_boot_image(container, 0, entries)
    container[-32:] = container_trailer(container)
    return bytes(container)


def entry_digests(entries) -> list[tuple[str, int, bytes]]:
    """The (kind label, length, SHA-256) of each (kind, blob) boot entry."""
    return [(kind.label, len(blob), hashlib.sha256(blob).digest()) for kind, blob in entries]


def check_container(container: bytes) -> list[tuple[str, int, bytes]]:
    """The (kind label, length, SHA-256) of each entry of a plaintext
    container that passes the offline container reader, which feeds a
    :class:`ContainerCheck` as the unit feeds it and reads what it lets out
    as the host reads it. The boot partition is the container's own whole
    sectors."""
    entries, _ = _read_container(
        lambda lba, count: container[lba * SECTOR_SIZE : (lba + count) * SECTOR_SIZE],
        0,
        len(container) // SECTOR_SIZE,
    )
    return [(e.kind_label, e.length, e.digest) for e in entries]


def forge_container(result: ProvisionResult, forged: bytes) -> NvmImage:
    """A copy of ``result``'s image, provisioned with :data:`BOOT_ENTRIES`,
    whose boot container deciphers to ``forged``, a container of the same
    length, made without the key.

    The sector cipher is a stream cipher and the container's digest is
    unkeyed. Whoever knows the boot entries rebuilds the plaintext, edits
    it, reseals its SHA-256 trailer and XORs old ⊕ new into the ciphertext.
    """
    old = build_boot_image(BOOT_ENTRIES)
    assert len(forged) == len(old)
    raw = bytearray(result.image.to_bytes())
    at = result.layout.boot_start * SECTOR_SIZE
    raw[at : at + len(old)] = bytes(c ^ o ^ n for c, o, n in zip(raw[at : at + len(old)], old, forged))
    return NvmImage(raw)


def forge_kernel(result: ProvisionResult) -> tuple[NvmImage, bytes]:
    """A copy of ``result``'s image whose kernel is swapped for a forged one
    of the same length without the key (see :func:`forge_container`); and
    that forged kernel. Only the kernel entry and the trailer change."""
    kernel = b"forged kernel ".ljust(len(dict(BOOT_ENTRIES)[EntryKind.KERNEL]), b"!")
    forged = [(kind, kernel if kind is EntryKind.KERNEL else blob) for kind, blob in BOOT_ENTRIES]
    return forge_container(result, build_boot_image(forged)), kernel


def image_file_records(image: NvmImage, manifest: Manifest) -> list[FileRecord]:
    """Decrypt and parse the data-partition file table straight off an image."""
    read_plain = _plain_reader(image, manifest_keys(manifest)[0])
    return parse_file_table(read_file_table(read_plain, manifest.layout.data_start, manifest.layout.data_sectors))


@pytest.fixture(scope="session")
def provisioned() -> ProvisionResult:
    """A standard provisioned image; clone the image before mutating it."""
    return make_provision()
