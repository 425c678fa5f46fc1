"""Independent check of a provisioned image, used on provision13's output.

Written from the format description in the package docs, not from its code:
the KDF is the literal chained hash, the sector cipher is the cryptography
library's own CTR mode with nonce be64(lba) || be64(0), and the container
and file table are located by their documented byte layout.
"""

from __future__ import annotations

import hashlib
import hmac
import struct

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

SECTOR = 512
MAC_COUNTER_OFFSET = 0x4D41  # "MA"


def kdf(counter: int, secret: bytes, other_info: bytes, repetitions: int) -> bytes:
    digest = secret
    for i in range(repetitions):
        prefix = struct.pack(">I", (counter + i) & 0xFFFFFFFF)
        digest = hashlib.sha256(prefix + digest + other_info).digest()
    return digest


def ctr_sector(key: bytes, lba: int, data: bytes) -> bytes:
    enc = Cipher(algorithms.AES(key), modes.CTR(struct.pack(">QQ", lba, 0))).encryptor()
    return enc.update(data) + enc.finalize()


def tag(mac_key: bytes, lba: int, ciphertext: bytes) -> bytes:
    return hmac.new(mac_key, struct.pack(">Q", lba) + ciphertext, hashlib.sha256).digest()


def check_provisioned(
    raw: bytes,
    manifest_text: str,
    *,
    dna: int,
    cid: bytes,
    entries: list[tuple[int, bytes]],
    files: list[tuple[str, bytes]],
    kdf_counter: int = 1,
    kdf_repetitions: int = 1000,
) -> list[str]:
    """Findings that contradict the documented format; empty when the image is right.

    ``entries`` are (entry-kind value, blob) in container order; ``files`` are
    (label, blob) in provisioning order.
    """
    fields = {}
    for line in manifest_text.splitlines():
        key, _, value = line.partition("=")
        fields.setdefault(key, value)
    boot_start, boot_sectors = map(int, fields["boot_lba"].split(","))
    data_start, data_sectors = map(int, fields["data_lba"].split(","))
    meta_start, meta_sectors = map(int, fields["meta_lba"].split(","))
    total = int(fields["geometry"])
    findings = []
    if len(raw) != total * SECTOR:
        return [f"image is {len(raw)} bytes, manifest geometry is {total} sectors"]

    secret = dna.to_bytes(8, "big")
    aes_key = kdf(kdf_counter, secret, cid, kdf_repetitions)[:16]
    mac_key = kdf(kdf_counter + MAC_COUNTER_OFFSET, secret, cid, kdf_repetitions)

    def plain(lba: int, count: int = 1) -> bytes:
        return b"".join(
            ctr_sector(aes_key, i, raw[i * SECTOR : (i + 1) * SECTOR]) for i in range(lba, lba + count)
        )

    mbr = plain(0)
    if mbr[510:512] != b"\x55\xaa":
        findings.append("MBR signature")
    parts = [struct.unpack_from("<B3sB3sLL", mbr, 446 + 16 * i) for i in range(2)]
    if [(p[0], p[4], p[5]) for p in parts] != [(0x80, boot_start, boot_sectors), (0, data_start, data_sectors)]:
        findings.append("MBR partition table disagrees with manifest")
    if tag(mac_key, 0, raw[:SECTOR]).hex() != fields["mbr_digest"]:
        findings.append("mbr_digest anchor")

    container = plain(boot_start, boot_sectors)
    if hashlib.sha256(container[:-32]).digest() != container[-32:]:
        findings.append("boot container digest")
    count = struct.unpack_from(">H", container, 6)[0]
    payload = 12 + 9 * count
    for i, (kind, blob) in enumerate(entries):
        got_kind, offset, length = struct.unpack_from(">BII", container, 12 + 9 * i)
        start = payload + offset
        if (got_kind, length) != (kind, len(blob)) or container[start : start + length] != blob:
            findings.append(f"boot entry {i}")

    data = plain(data_start, data_sectors)
    pos = 8  # table header: magic, sector count, record count
    for label, blob in files:
        (label_len,) = struct.unpack_from(">H", data, pos)
        got_label = data[pos + 2 : pos + 2 + label_len].decode()
        offset, length = struct.unpack_from(">QQ", data, pos + 2 + label_len)
        pos += 2 + label_len + 16
        if got_label != label or length != len(blob) or data[offset : offset + length] != blob:
            findings.append(f"file {label}")

    tags = plain(meta_start, meta_sectors)
    for slot in range(data_sectors):
        lba = data_start + slot
        if tag(mac_key, lba, raw[lba * SECTOR : (lba + 1) * SECTOR]) != tags[slot * 32 : slot * 32 + 32]:
            findings.append(f"integrity tag of LBA {lba}")
            break
    return findings
