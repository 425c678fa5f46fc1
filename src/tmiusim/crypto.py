"""Checksum, cipher, and key-derivation primitives for the guarded data path.

Everything here is a pure function of its inputs: the SD-standard CRC7/CRC16
line checksums, SHA-256, the AES-128 sector cipher in counter mode, the keyed
per-sector integrity tag, and the concatenation KDF that expands a 57-bit
device identifier and a 128-bit card identifier into the symmetric keys. The
two keyed objects are :class:`SectorCipher` and :class:`SectorMac`, whose
outputs are pure functions of the key each was built with, the sector index
and the data.
"""

from __future__ import annotations

import binascii
import functools
import hashlib
import struct
from dataclasses import dataclass

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

SECTOR_SIZE = 512
# Sectors per run where a stream moves in runs. The cipher costs the same per
# sector at any run length; the run length sets how often the per-run ledger
# charge, hash update, sink call and bus fetch are paid. Of 16, 64 and 256,
# 16 boots about 10 % slower and 256 no faster than 64.
RUN_SECTORS = 64
AES_BLOCK_SIZE = 16
AES_KEY_SIZE = 16
MAC_KEY_SIZE = 32
DIGEST_SIZE = 32

CRC7_POLY = 0x09  # x^7 + x^3 + 1, SD command line

# Counter offset separating the integrity-key chain from the cipher-key chain
# (ASCII "MA").
MAC_COUNTER_OFFSET = 0x4D41
# Most hash steps in one KDF chain: 40-80 ms of hashing on a 2-vCPU host, and
# a 3 MB table of counter prefixes (see _counter_prefixes).
MAX_KDF_REPETITIONS = 65535


def _build_crc7_table() -> tuple[int, ...]:
    table = []
    for byte in range(256):
        reg = 0
        for i in range(7, -1, -1):
            feedback = ((byte >> i) & 1) ^ ((reg >> 6) & 1)
            reg = (reg << 1) & 0x7F
            if feedback:
                reg ^= CRC7_POLY
        table.append(reg)
    return tuple(table)


_CRC7_TABLE = _build_crc7_table()


def crc7(message: bytes) -> int:
    """7-bit CRC over the bytes of ``message`` (poly 0x09, init 0, no reflection)."""
    crc = 0
    for byte in memoryview(message).cast("B"):
        crc = _CRC7_TABLE[((crc << 1) ^ byte) & 0xFF]
    return crc


def crc16(block: bytes) -> int:
    """16-bit CRC over ``block`` (poly 0x1021, init 0, no reflection)."""
    # binascii.crc_hqx is exactly CRC-16/XMODEM, the SD data-line CRC.
    return binascii.crc_hqx(block, 0)


def sha256(message: bytes) -> bytes:
    """FIPS-180-4 SHA-256, 32-byte digest."""
    return hashlib.sha256(message).digest()


@dataclass(frozen=True)
class KdfInput:
    """Inputs of the concatenation KDF.

    ``secret`` is the 8-byte big-endian encoding of the 57-bit device
    identifier (top 7 bits zero); ``other_info`` is the 16-byte card
    identifier acting as public salt; ``repetitions`` chains the hash to
    stretch the short secret, from 1 to :data:`MAX_KDF_REPETITIONS` steps.
    Both byte fields are kept as the ``bytes`` of the buffers given.
    """

    counter: int
    secret: bytes
    other_info: bytes
    repetitions: int = 1000

    def __post_init__(self) -> None:
        check_kdf_counter(self.counter)
        for name in ("secret", "other_info"):
            object.__setattr__(self, name, memoryview(getattr(self, name)).tobytes())
        if len(self.secret) != 8:
            raise ValueError("secret must be 8 bytes")
        if self.secret[0] & 0xFE:
            raise ValueError("secret exceeds 57 bits")
        if len(self.other_info) != 16:
            raise ValueError("other_info must be 16 bytes")
        check_kdf_repetitions(self.repetitions)


def check_kdf_counter(counter: int) -> None:
    """Raise ValueError unless ``counter`` fits in 32 bits."""
    if not 0 <= counter <= 0xFFFFFFFF:
        raise ValueError("kdf_counter must fit in 32 bits")


def check_kdf_repetitions(repetitions: int) -> None:
    """Raise ValueError unless 1 <= ``repetitions`` <= MAX_KDF_REPETITIONS."""
    if not 1 <= repetitions <= MAX_KDF_REPETITIONS:
        raise ValueError(f"kdf_repetitions must be from 1 to {MAX_KDF_REPETITIONS}")


@functools.lru_cache(maxsize=4)  # both chains of two KDF settings
def _counter_prefixes(counter: int, repetitions: int) -> tuple[bytes, ...]:
    """be32((counter + i) mod 2^32) for each step i of a chain. These are
    public counter encodings: nothing here derives from a secret."""
    return tuple(struct.pack(">I", (counter + i) & 0xFFFFFFFF) for i in range(repetitions))


# The KDF chain step's hash constructor, chosen once at import. A step
# hashes one 52-byte message, a single 64-byte block. On CPython 3.10 and
# 3.11 that is the built-in ``_sha256``: OpenSSL 3 sets up and copies a
# digest context for each ``hashlib`` object, which costs more than
# compressing one block. A 1000-step chain took 874 vs 1157 us on 3.11.7
# and 1019 vs 1493 us on 3.10.13 (OpenSSL 3.0, 2 vCPUs). On long messages
# OpenSSL is faster (13 MB: 13 vs 111 ms; a sector tag: 2.7 vs 6.2 us), so
# every other hash here stays on ``hashlib``. From CPython 3.12 the built-in
# hash is HACL*'s ``_sha2``, no faster than OpenSSL for a chain, and
# ``_sha256`` is gone: the chain runs on ``hashlib.sha256``. Both constructors
# give the same digests.
try:
    from _sha256 import sha256 as _step_sha256
except ImportError:
    _step_sha256 = hashlib.sha256


def _kdf_chain(counter: int, seed: bytes, other_info: bytes, repetitions: int) -> bytes:
    material = seed
    # The whole per-step cost is the hash: the prefixes are built once.
    for prefix in _counter_prefixes(counter, repetitions):
        material = _step_sha256(prefix + material + other_info).digest()
    return material


def derive_key(params: KdfInput) -> bytes:
    """Derive the 16-byte AES key: chained H(counter+i || D_i || other_info)."""
    digest = _kdf_chain(params.counter, params.secret, params.other_info, params.repetitions)
    return digest[:AES_KEY_SIZE]


def derive_mac_key(params: KdfInput) -> bytes:
    """Derive the independent 32-byte integrity key (counter offset chain)."""
    counter = (params.counter + MAC_COUNTER_OFFSET) & 0xFFFFFFFF
    return _kdf_chain(counter, params.secret, params.other_info, params.repetitions)


# A sector's CTR nonce, be64(sector_index) || 0^64: its counter block j is
# be64(sector_index) || be64(j) (NIST SP 800-38A, 6.5 and Appendix B.1).
_SECTOR_NONCE = struct.Struct(">QQ")


class SectorCipher:
    """AES-128-CTR keyed once, over any run of consecutive 512-byte sectors.

    It holds one CTR context for its whole life, re-nonced for each sector,
    and keeps no copy of the key: no attribute and no ``repr`` exposes it.
    Dropping the instance is how an owner erases the key.
    """

    __slots__ = ("_context",)

    def __init__(self, key: bytes):
        if len(key) != AES_KEY_SIZE:
            raise ValueError("key must be 16 bytes")
        self._context = Cipher(algorithms.AES(key), modes.CTR(bytes(AES_BLOCK_SIZE))).encryptor()

    def __repr__(self) -> str:
        return "SectorCipher(key=<hidden>)"

    def crypt(self, first_sector: int, data: bytes) -> bytes:
        """Encrypt, or (CTR being its own inverse) decrypt, the sectors of
        ``data`` from ``first_sector`` on."""
        count, partial = divmod(len(data), SECTOR_SIZE)
        if partial or not count:
            raise ValueError("a run must be a whole number of 512-byte sectors")
        if not 0 <= first_sector <= (1 << 64) - count:
            raise ValueError("sector index must fit in 64 bits")
        if count == 1:  # no output buffer to fill: the context's own bytes
            self._context.reset_nonce(_SECTOR_NONCE.pack(first_sector, 0))
            return self._context.update(data)
        reset_nonce, update_into = self._context.reset_nonce, self._context.update_into
        out = bytearray(len(data))
        src, dst = memoryview(data), memoryview(out)
        start = 0
        for sector in range(first_sector, first_sector + count):
            end = start + SECTOR_SIZE
            reset_nonce(_SECTOR_NONCE.pack(sector, 0))
            update_into(src[start:end], dst[start:end])
            start = end
        return bytes(out)


def encrypt_sector(cipher: SectorCipher, sector_index: int, plaintext: bytes) -> bytes:
    """AES-128-CTR over one 512-byte sector, keyed by the sector index."""
    if len(plaintext) != SECTOR_SIZE:
        raise ValueError("sector plaintext must be 512 bytes")
    return cipher.crypt(sector_index, plaintext)


def decrypt_sector(cipher: SectorCipher, sector_index: int, ciphertext: bytes) -> bytes:
    """Inverse of :func:`encrypt_sector` (CTR: the same keystream XOR)."""
    if len(ciphertext) != SECTOR_SIZE:
        raise ValueError("sector ciphertext must be 512 bytes")
    return cipher.crypt(sector_index, ciphertext)


# RFC 2104 pads: the key, zero-filled to SHA-256's 64-byte block, XOR 0x36 or 0x5C.
_SHA256_BLOCK_SIZE = 64
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))
_SECTOR_INDEX = struct.Struct(">Q")


class SectorMac:
    """HMAC-SHA-256 (RFC 2104) keyed once, over a sector index and ciphertext.

    It hashes the inner and outer pad blocks once and copies those two
    SHA-256 states for each tag. It keeps no copy of the key: no attribute
    and no ``repr`` exposes it. Dropping the instance is how an owner erases
    the key.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes):
        if len(key) != MAC_KEY_SIZE:
            raise ValueError("key must be 32 bytes")
        block = key.ljust(_SHA256_BLOCK_SIZE, b"\0")
        self._inner = hashlib.sha256(block.translate(_IPAD))
        self._outer = hashlib.sha256(block.translate(_OPAD))

    def __repr__(self) -> str:
        return "SectorMac(key=<hidden>)"

    def tag(self, sector_index: int, ciphertext: bytes) -> bytes:
        """HMAC-SHA-256 of ``be64(sector_index) || ciphertext``."""
        if not 0 <= sector_index < 1 << 64:
            raise ValueError("sector index must fit in 64 bits")
        inner = self._inner.copy()
        inner.update(_SECTOR_INDEX.pack(sector_index))
        inner.update(ciphertext)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


def sector_tag(mac: SectorMac, sector_index: int, ciphertext: bytes) -> bytes:
    """Keyed integrity tag binding a ciphertext sector to its index."""
    if len(ciphertext) != SECTOR_SIZE:
        raise ValueError("sector ciphertext must be 512 bytes")
    return mac.tag(sector_index, ciphertext)
