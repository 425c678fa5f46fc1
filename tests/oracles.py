"""Independent reference implementations used only to check the package.

These are deliberately written straight-line and structurally unlike the
production code: CRCs as explicit polynomial long division over a bit list,
the KDF as a literal transcription of its chained-hash definition, the
sector cipher as explicit counter blocks encrypted in ECB and XORed byte by
byte, where the package re-nonces the library's CTR mode per sector, the
sector tag through the standard library's ``hmac``, where the package keys
the two SHA-256 pad states itself, the boot container read whole, field by
field, where the package checks it as a stream, and the cost formula as the
README states it, where the package charges its ledger as it goes.
"""

from __future__ import annotations

import hashlib
import hmac
import math
import struct

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes


def _bits(data: bytes) -> list[int]:
    out = []
    for byte in data:
        for i in range(7, -1, -1):
            out.append((byte >> i) & 1)
    return out


def crc_long_division(message: bytes, poly: int, width: int) -> int:
    """Remainder of message(x) * x^width divided by the generator polynomial."""
    generator = [1] + [(poly >> i) & 1 for i in range(width - 1, -1, -1)]
    work = _bits(message) + [0] * width
    for i in range(len(work) - width):
        if work[i]:
            for j, g in enumerate(generator):
                work[i + j] ^= g
    value = 0
    for bit in work[-width:]:
        value = (value << 1) | bit
    return value


def crc7_oracle(message: bytes) -> int:
    return crc_long_division(message, 0x09, 7)


def crc16_oracle(message: bytes) -> int:
    return crc_long_division(message, 0x1021, 16)


def kdf_oracle(counter: int, secret: bytes, other_info: bytes, repetitions: int) -> bytes:
    """Literal chained hash: D1 = H(c || secret || info), Di+1 = H(c+i || Di || info)."""
    digest = hashlib.sha256(struct.pack(">I", counter & 0xFFFFFFFF) + secret + other_info).digest()
    for i in range(1, repetitions):
        prefix = struct.pack(">I", (counter + i) & 0xFFFFFFFF)
        digest = hashlib.sha256(prefix + digest + other_info).digest()
    return digest


def kdf_key_oracle(counter: int, secret: bytes, other_info: bytes, repetitions: int) -> bytes:
    return kdf_oracle(counter, secret, other_info, repetitions)[:16]


def kdf_mac_oracle(counter: int, secret: bytes, other_info: bytes, repetitions: int) -> bytes:
    return kdf_oracle(counter + 0x4D41, secret, other_info, repetitions)


def aes_encrypt_block(key: bytes, block: bytes) -> bytes:
    """Raw AES-128 encryption of one 16-byte block (FIPS 197)."""
    if len(key) != 16 or len(block) != 16:
        raise ValueError("key and block must be 16 bytes")
    encryptor = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return encryptor.update(block) + encryptor.finalize()


def ctr_sector_oracle(key: bytes, sector_index: int, data: bytes) -> bytes:
    """Sector cipher via the library CTR mode with the same counter layout."""
    nonce = struct.pack(">QQ", sector_index, 0)
    cipher = Cipher(algorithms.AES(key), modes.CTR(nonce))
    enc = cipher.encryptor()
    return enc.update(data) + enc.finalize()


def ecb_counter_oracle(key: bytes, first_sector: int, data: bytes) -> bytes:
    """Sector cipher over consecutive sectors, built from its definition:
    counter block j of sector s is be64(s) || be64(j); AES-ECB of the
    counter blocks is the keystream, XORed with the data."""
    out = bytearray()
    for start in range(0, len(data), 512):
        sector = first_sector + start // 512
        counters = b"".join(struct.pack(">QQ", sector, j) for j in range(512 // 16))
        ecb = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
        keystream = ecb.update(counters) + ecb.finalize()
        out += bytes(d ^ k for d, k in zip(data[start : start + 512], keystream))
    return bytes(out)


def sector_tag_oracle(key: bytes, sector_index: int, ciphertext: bytes) -> bytes:
    """HMAC-SHA-256 of be64(sector_index) || ciphertext, keyed afresh."""
    message = struct.pack(">Q", sector_index) + bytes(ciphertext)
    return hmac.new(key, message, hashlib.sha256).digest()


def boot_container_oracle(container: bytes) -> list[tuple[int, bytes]]:
    """(kind value, blob) of each entry of a plaintext boot container, read
    field by field: header ">4sHHI", then ">BII" per entry, the blobs, and a
    trailing SHA-256 over all that comes before it."""
    if hashlib.sha256(container[:-32]).digest() != container[-32:]:
        raise ValueError("trailer is not the SHA-256 of the rest")
    magic, version, count, total_len = struct.unpack(">4sHHI", container[:12])
    if (magic, version, total_len) != (b"TMBI", 1, len(container)):
        raise ValueError("bad container header")
    payload = 12 + 9 * count
    entries = []
    for i in range(count):
        kind, offset, length = struct.unpack(">BII", container[12 + 9 * i : 21 + 9 * i])
        entries.append((kind, container[payload + offset : payload + offset + length]))
    return entries


def shannon_entropy(data: bytes) -> float:
    """Plug-in entropy estimate in bits per byte."""
    if not data:
        return 0.0
    counts: dict[int, int] = {}
    for byte in data:
        counts[byte] = counts.get(byte, 0) + 1
    n = len(data)
    return -sum(c / n * math.log2(c / n) for c in counts.values())


# The cost formula (README, "Modelled time"): the PROM load once per boot,
# 1024 cycles and 512 bytes per sector transfer, 52 cycles per pipeline
# check, and nothing for a command. A frame resent after its line CRC
# failed, and a sector a stalling card left unacknowledged, is one more
# transfer, wherever it comes.
CLOCK_HZ = 50_000_000
PROM_CYCLES, PROM_BYTES = 4_896_908, 1_900_000  # ceil(1.9 MB * 50 MHz / 19.4 MB/s)
TRANSFER_CYCLES, TRANSFER_BYTES, CHECK_CYCLES = 1024, 512, 52


def cost(transfers: int, checks: int) -> tuple[int, int]:
    """(cycles, bytes) of ``transfers`` sector transfers and ``checks`` pipeline checks."""
    return transfers * TRANSFER_CYCLES + checks * CHECK_CYCLES, transfers * TRANSFER_BYTES


def boot_terms(mbr_read: bool, forwarded: int, reached_end: bool) -> tuple[int, int]:
    """(transfers, checks) of a boot's stage 3: the MBR's transfer and check
    once it was read, one transfer for each container sector forwarded, and
    the container-end check once the stream reached the length its first
    sector claims."""
    return mbr_read + forwarded, mbr_read + reached_end


def access_terms(write: bool, sectors: int, mismatch_at: int | None = None) -> tuple[int, int]:
    """(transfers, checks) of a mediated access of ``sectors`` sectors that
    completed: a read moves and checks each data sector and its tag sector,
    a write moves and commits each data sector, reads and checks its tag
    sector and commits it. A read whose sector ``mismatch_at`` fails its tag
    charges the reads before it, and that sector's two transfers and one
    check. An access that ends in a bus error charges nothing of its own."""
    if mismatch_at is not None:
        return 2 * mismatch_at + 2, 2 * mismatch_at + 1
    return (3 if write else 2) * sectors, (3 if write else 2) * sectors


def to_ms(cycles: int) -> float:
    return cycles * 1000 / CLOCK_HZ


def rate_mbps(cycles: int, nbytes: int) -> float:
    return nbytes / (cycles / CLOCK_HZ) / 1e6 if cycles else 0.0
