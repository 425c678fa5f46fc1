"""Device and card identities plus the build-time trust anchors.

The guard unit never stores the raw identifiers it expects: it carries
SHA-256 checksums of them, modelling reference values baked into a hardware
configuration. Both identities are immutable once constructed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum, auto

from . import crypto
from .crypto import DIGEST_SIZE, KdfInput, check_kdf_counter, check_kdf_repetitions, crc7, sha256

DNA_BITS = 57
CID_SIZE = 16
CSD_SIZE = 16


class AuthFailure(Enum):
    DEVICE_MISMATCH = auto()
    NVM_MISMATCH = auto()
    MALFORMED_CID = auto()


@dataclass(frozen=True)
class DeviceIdentity:
    """57-bit factory-burned device identifier, readable only on-chip."""

    dna: int

    def __post_init__(self) -> None:
        if not 0 <= operator.index(self.dna) < 1 << DNA_BITS:  # a float is a TypeError
            raise ValueError(f"device dna must be a {DNA_BITS}-bit value")

    def encoded(self) -> bytes:
        return self.dna.to_bytes(8, "big")


@dataclass(frozen=True)
class CardIdentity:
    """Factory-stamped card registers: 128-bit CID and 128-bit CSD.

    Per SD register layout the last CID byte is (crc7(cid[0:15]) << 1) | 1;
    construction does not enforce it so that malformed cards can be modelled,
    but authentication rejects them.
    """

    cid: bytes
    csd: bytes = bytes(CSD_SIZE)

    def __post_init__(self) -> None:
        for name, size in (("cid", CID_SIZE), ("csd", CSD_SIZE)):
            raw = memoryview(getattr(self, name)).tobytes()  # a str or an int is a TypeError
            if len(raw) != size:
                raise ValueError(f"{name} must be {size} bytes")
            object.__setattr__(self, name, raw)

    def cid_well_formed(self) -> bool:
        return self.cid[15] == ((crc7(self.cid[:15]) << 1) | 1)

    @classmethod
    def from_seed(cls, seed: bytes) -> "CardIdentity":
        """Deterministic factory: a well-formed CID/CSD pair from a seed."""
        body = sha256(b"cid:" + seed)[: CID_SIZE - 1]
        cid = body + bytes([(crc7(body) << 1) | 1])
        csd = sha256(b"csd:" + seed)[:CSD_SIZE]
        return cls(cid=cid, csd=csd)


def device_checksum(dev: DeviceIdentity) -> bytes:
    return sha256(dev.encoded())


def nvm_checksum(card: CardIdentity) -> bytes:
    """The SHA-256 of the CID alone: the card's CSD register is not anchored."""
    return sha256(card.cid)


@dataclass(frozen=True)
class TrustAnchors:
    """Reference checksums and KDF parameters fixed at provisioning time."""

    device_checksum: bytes
    nvm_checksum: bytes
    mbr_digest: bytes
    kdf_counter: int
    kdf_repetitions: int

    def __post_init__(self) -> None:
        for name in ("device_checksum", "nvm_checksum", "mbr_digest"):
            if len(getattr(self, name)) != DIGEST_SIZE:
                raise ValueError(f"{name} must be {DIGEST_SIZE} bytes")
        check_kdf_counter(self.kdf_counter)
        check_kdf_repetitions(self.kdf_repetitions)

    @classmethod
    def for_pair(
        cls,
        dev: DeviceIdentity,
        card: CardIdentity,
        mbr_digest: bytes,
        kdf_counter: int,
        kdf_repetitions: int,
    ) -> "TrustAnchors":
        return cls(
            device_checksum=device_checksum(dev),
            nvm_checksum=nvm_checksum(card),
            mbr_digest=mbr_digest,
            kdf_counter=kdf_counter,
            kdf_repetitions=kdf_repetitions,
        )


def derive_keys(
    dev: DeviceIdentity, cid: bytes, counter: int, repetitions: int
) -> tuple[bytes, bytes]:
    """(cipher key, integrity key) of a device/card pair: the device
    identifier is the KDF secret and the CID its public salt."""
    kdf = KdfInput(counter=counter, secret=dev.encoded(), other_info=cid, repetitions=repetitions)
    # Looked up on the crypto module, so a wrapper installed there sees each call.
    return crypto.derive_key(kdf), crypto.derive_mac_key(kdf)


def authenticate_device(anchors: TrustAnchors, dev: DeviceIdentity) -> AuthFailure | None:
    """Return None when the presented device matches the anchored checksum."""
    if device_checksum(dev) != anchors.device_checksum:
        return AuthFailure.DEVICE_MISMATCH
    return None


def authenticate_nvm(anchors: TrustAnchors, card: CardIdentity) -> AuthFailure | None:
    """Return None when the presented card matches the anchored checksum.

    A CID whose embedded CRC7 field is inconsistent is rejected outright,
    before any checksum comparison.
    """
    if not card.cid_well_formed():
        return AuthFailure.MALFORMED_CID
    if nvm_checksum(card) != anchors.nvm_checksum:
        return AuthFailure.NVM_MISMATCH
    return None
