"""Desk-scale simulator of a trusted memory interface unit (TMIU).

Provisions fully encrypted, integrity-protected card images and models the
hardware guard that mediates every sector between a processor and the card:
staged boot authentication, on-the-fly key derivation, sector-wise
encryption, per-sector integrity tags, and secure lockdown.
"""

from .crypto import KdfInput, crc7, crc16, derive_key, derive_mac_key, sha256
from .host import build_system
from .identity import CardIdentity, DeviceIdentity
from .image import EntryKind, NvmImage, provision, verify_image
from .tmiu import LockdownError

__version__ = "0.1.0"

__all__ = [
    "CardIdentity",
    "DeviceIdentity",
    "EntryKind",
    "KdfInput",
    "LockdownError",
    "NvmImage",
    "build_system",
    "crc16",
    "crc7",
    "derive_key",
    "derive_mac_key",
    "provision",
    "sha256",
    "verify_image",
]
