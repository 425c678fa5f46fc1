"""Trusted memory interface unit: staged boot authentication and data path.

The unit sits between the processor model and the virtual card and is the
only party holding key material. Boot proceeds through four stages:

    1. load own configuration from PROM, authenticate the device identifier
    2. identify the card over the bus, authenticate its CID
    3. derive the cipher/integrity keys, verify the encrypted MBR, then
       stream-verify the boot image (decrypt + whole-image digest)
    4. hand over: the unit turns operational and mediates sector traffic

Any failed check erases the keys, suspends card I/O where a card is
attached, and drops into an absorbing lockdown that only a power cycle
leaves. Error signalling toward the processor stays in-band: a block that
fails verification is forwarded in a shape that breaks the processor-side
CRC check, never as plaintext.

Cycle accounting matches the modelled hardware: PROM loading at its rated
byte rate, sector transfers at the card line rate, and a 52-cycle pipeline
latency that overlaps streaming except for the final drain of each transfer
run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import NoReturn

from .bus import (
    CMD_ALL_SEND_CID,
    CMD_GO_IDLE,
    CMD_READ_MULTIPLE,
    CMD_READ_SINGLE,
    CMD_SELECT,
    CMD_SEND_CSD,
    CMD_SET_BLOCKLEN,
    CMD_STOP_TRANSMISSION,
    CMD_WRITE_SINGLE,
    DataBlock,
    ResponseFrame,
    SdioBus,
    TOKEN_CRC_OK,
    VirtualCard,
)
from .crypto import (
    DIGEST_SIZE,
    SECTOR_SIZE,
    KdfInput,
    crc16,
    decrypt_sector,
    derive_key,
    derive_mac_key,
    encrypt_sector,
    sector_tag,
)
from .identity import (
    AuthFailure,
    CardIdentity,
    DeviceIdentity,
    TrustAnchors,
    authenticate_device,
    authenticate_nvm,
)
from .image import ImageFormatError, ImageLayout, MbrError, boot_image_sectors, parse_mbr

DEFAULT_CLOCK_HZ = 50_000_000
SECTOR_PIPELINE_CYCLES = 52
RETRY_LIMIT = 3

PHASE_PROM = "prom"
PHASE_BOOT = "boot"
PHASE_OPERATIONAL = "operational"


class Stage(Enum):
    PROM_LOAD = "PromLoad"
    DEVICE_AUTH = "DeviceAuth"
    MEMORY_AUTH = "MemoryAuth"
    KEYGEN_IMAGE_AUTH = "KeyGenImageAuth"
    OPERATIONAL = "Operational"
    LOCKDOWN = "Lockdown"


class Denial(Enum):
    """Outcome classes for refused boots and poisoned reads."""

    DEVICE_MISMATCH = "DeviceMismatch"
    NVM_MISMATCH = "NvmMismatch"
    MALFORMED_CID = "MalformedCid"
    BUS_ERROR = "BusError"
    MBR_MISMATCH = "MbrMismatch"
    SECTOR_TAG_MISMATCH = "SectorTagMismatch"
    IMAGE_DIGEST_MISMATCH = "ImageDigestMismatch"


_AUTH_TO_DENIAL = {
    AuthFailure.DEVICE_MISMATCH: Denial.DEVICE_MISMATCH,
    AuthFailure.NVM_MISMATCH: Denial.NVM_MISMATCH,
    AuthFailure.MALFORMED_CID: Denial.MALFORMED_CID,
}


class TmiuError(Exception):
    pass


class StateError(TmiuError):
    """Operation invoked in a stage that does not allow it."""


class ProtocolCrcError(TmiuError):
    """Block failed its line CRC on the processor side; retryable."""


class PolicyViolation(TmiuError):
    """Host access to a region the unit does not mediate."""


class LockdownError(TmiuError):
    def __init__(self, reason: Denial | None):
        super().__init__(f"unit is in lockdown ({reason.value if reason else 'unknown'})")
        self.reason = reason


@dataclass(frozen=True)
class PromStore:
    """One-time-programmable store holding the unit's own configuration."""

    config_size: int = 1_900_000  # bytes
    load_rate: int = 19_400_000  # bytes/s

    def __post_init__(self) -> None:
        if self.config_size <= 0 or self.load_rate <= 0:
            raise ValueError("PROM size and rate must be positive")


class CycleLedger:
    """Monotonic clock-cycle and byte accounting, split by boot phase."""

    def __init__(self, clock_hz: int = DEFAULT_CLOCK_HZ):
        self.clock_hz = clock_hz
        self.cycles = 0
        self.bytes_moved = 0
        self._phases: dict[str, list[int]] = {}

    def reset(self) -> None:
        self.cycles = 0
        self.bytes_moved = 0
        self._phases.clear()

    def charge(self, cycles: int, nbytes: int = 0, phase: str = "other") -> None:
        if cycles < 0 or nbytes < 0:
            raise ValueError("ledger charges are non-negative")
        self.cycles += cycles
        self.bytes_moved += nbytes
        entry = self._phases.setdefault(phase, [0, 0])
        entry[0] += cycles
        entry[1] += nbytes

    def phase_cycles(self, phase: str) -> int:
        return self._phases.get(phase, [0, 0])[0]

    def phase_bytes(self, phase: str) -> int:
        return self._phases.get(phase, [0, 0])[1]

    def to_ms(self, cycles: int) -> float:
        return cycles * 1000.0 / self.clock_hz


@dataclass(frozen=True)
class BootReport:
    stage: str
    reason: str | None
    leds: tuple[bool, bool, bool, bool]
    cycles: int
    bytes_moved: int
    prom_ms: float
    boot_ms: float
    total_ms: float
    rate_mbps: float
    fault_lba: int | None = None

    def to_text(self) -> str:
        lines = [
            f"stage={self.stage}",
            f"reason={self.reason or '-'}",
            "leds=" + "".join("1" if led else "0" for led in self.leds),
            f"cycles={self.cycles}",
            f"bytes={self.bytes_moved}",
            f"prom_ms={self.prom_ms:.3f}",
            f"boot_ms={self.boot_ms:.3f}",
            f"total_ms={self.total_ms:.3f}",
            f"rate_mbps={self.rate_mbps:.3f}",
        ]
        if self.fault_lba is not None:
            lines.append(f"fault_lba={self.fault_lba}")
        return "\n".join(lines) + "\n"


class Tmiu:
    """The guard state machine; one instance per simulated power domain."""

    def __init__(
        self,
        anchors: TrustAnchors,
        device: DeviceIdentity,
        prom: PromStore | None = None,
        clock_hz: int = DEFAULT_CLOCK_HZ,
    ):
        self.anchors = anchors
        self._device = device
        self.prom = prom or PromStore()
        self.clock_hz = clock_hz
        self.ledger = CycleLedger(clock_hz)
        self.reset()

    def __repr__(self) -> str:  # never expose key material
        return (
            f"Tmiu(stage={self.stage.value}, leds={self.leds}, "
            f"keys={'set' if self._keys else 'clear'})"
        )

    def reset(self) -> None:
        """Power cycle: clears keys and every derived register."""
        self.ledger.reset()
        self.stage = Stage.PROM_LOAD
        self.reason: Denial | None = None
        self.fault_lba: int | None = None
        self.leds = [False, False, False, False]
        self._keys: tuple[bytes, bytes] | None = None
        self._cid: bytes | None = None
        self._layout: ImageLayout | None = None
        self.stage_history: list[tuple[Stage, int]] = [(Stage.PROM_LOAD, 0)]

    @property
    def has_keys(self) -> bool:
        return self._keys is not None

    @property
    def data_partition(self) -> tuple[int, int]:
        """(start LBA, sector count) of the mediated data partition."""
        if self._layout is None:
            raise StateError("data partition unknown before image verification")
        return self._layout.data_start, self._layout.data_sectors

    # -- stage bookkeeping -----------------------------------------------

    def _enter(self, stage: Stage) -> Stage:
        self.stage = stage
        self.stage_history.append((stage, self.ledger.cycles))
        return stage

    def _lockdown(
        self, reason: Denial, card: VirtualCard | None = None, lba: int | None = None
    ) -> Stage:
        self._keys = None
        self.reason = reason
        self.fault_lba = lba
        if card is not None:
            card.suspend_io()
        return self._enter(Stage.LOCKDOWN)

    def _fail(self, reason: Denial, card: VirtualCard) -> NoReturn:
        """Lock down and abort the mediated operation in progress."""
        self._lockdown(reason, card)
        raise LockdownError(reason)

    def _require(self, stage: Stage) -> None:
        if self.stage is Stage.LOCKDOWN:
            raise LockdownError(self.reason)
        if self.stage is not stage:
            raise StateError(
                f"operation needs stage {stage.value}, unit is at {self.stage.value}"
            )

    # -- boot stages -------------------------------------------------------

    def power_on(self) -> Stage:
        """Stage 1: PROM load plus device authentication."""
        self._require(Stage.PROM_LOAD)
        prom_cycles = -(-self.prom.config_size * self.clock_hz // self.prom.load_rate)
        self.ledger.charge(prom_cycles, self.prom.config_size, PHASE_PROM)
        self._enter(Stage.DEVICE_AUTH)
        failure = authenticate_device(self.anchors, self._device)
        if failure is not None:
            return self._lockdown(_AUTH_TO_DENIAL[failure])
        self.leds[0] = True
        return self._enter(Stage.MEMORY_AUTH)

    def authenticate_memory(self, bus: SdioBus, card: VirtualCard) -> Stage:
        """Stage 2: read the card identity off the wire and authenticate it."""
        self._require(Stage.MEMORY_AUTH)
        bus.command(CMD_GO_IDLE, 0)  # CMD0 carries no response
        resp = self._command_retry(bus, CMD_ALL_SEND_CID, 0)
        if resp is None or resp.register is None:
            return self._lockdown(Denial.BUS_ERROR, card)
        cid = resp.register
        csd_resp = self._command_retry(bus, CMD_SEND_CSD, 0)
        if csd_resp is None or csd_resp.register is None:
            return self._lockdown(Denial.BUS_ERROR, card)
        presented = CardIdentity(cid=cid, csd=csd_resp.register)
        failure = authenticate_nvm(self.anchors, presented)
        if failure is not None:
            return self._lockdown(_AUTH_TO_DENIAL[failure], card)
        if not self._simple_command(bus, CMD_SELECT) or not self._simple_command(
            bus, CMD_SET_BLOCKLEN, SECTOR_SIZE
        ):
            return self._lockdown(Denial.BUS_ERROR, card)
        self._cid = cid
        self.leds[1] = True
        return self._enter(Stage.KEYGEN_IMAGE_AUTH)

    def generate_keys(self) -> Stage:
        """Stage 3a: expand the authenticated identity pair into keys."""
        self._require(Stage.KEYGEN_IMAGE_AUTH)
        if self._cid is None:
            raise StateError("card identity not received")
        kdf = KdfInput(
            counter=self.anchors.kdf_counter,
            secret=self._device.encoded(),
            other_info=self._cid,
            repetitions=self.anchors.kdf_repetitions,
        )
        self._keys = (derive_key(kdf), derive_mac_key(kdf))
        return self.stage

    def verify_mbr_and_image(self, bus: SdioBus, card: VirtualCard, sink=None) -> Stage:
        """Stage 3b: authenticate the encrypted MBR, then stream-verify the
        boot image, forwarding decrypted blocks to ``sink`` as they pass.

        The final block is withheld until the whole-image digest is checked;
        on mismatch it is forwarded with its last byte modified so the
        processor-side CRC check invalidates the stream.
        """
        self._require(Stage.KEYGEN_IMAGE_AUTH)
        if self._keys is None:
            raise StateError("keys not generated")
        aes_key, mac_key = self._keys

        mbr_block, crc_ok = self._read_single(bus, 0, PHASE_BOOT)
        if not crc_ok:
            return self._lockdown(Denial.BUS_ERROR, card)
        self.ledger.charge(SECTOR_PIPELINE_CYCLES, 0, PHASE_BOOT)
        if sector_tag(mac_key, 0, mbr_block.payload) != self.anchors.mbr_digest:
            return self._lockdown(Denial.MBR_MISMATCH, card)
        try:
            mbr = parse_mbr(decrypt_sector(aes_key, 0, mbr_block.payload), card.geometry)
            boot = mbr.boot_partition()
            data = mbr.data_partition()
            if boot is None or data is None:
                raise MbrError("missing boot or data partition")
            layout = ImageLayout(
                total_sectors=card.geometry,
                boot_start=boot.lba_start,
                boot_sectors=boot.sector_count,
                data_start=data.lba_start,
                data_sectors=data.sector_count,
            )
        except (MbrError, ValueError):
            return self._lockdown(Denial.MBR_MISMATCH, card)
        self._layout = layout
        self.leds[2] = True
        return self._stream_boot_image(bus, card, layout, sink)

    def _stream_boot_image(self, bus: SdioBus, card: VirtualCard, layout, sink) -> Stage:
        aes_key, _ = self._keys
        hasher = hashlib.sha256()
        total_sectors: int | None = None
        streamed = 0
        held: bytes | None = None  # most recent decrypted sector, not yet forwarded
        lba = layout.boot_start
        retries = 0

        def deliver(payload: bytes) -> None:
            if sink is not None:
                sink(DataBlock.for_payload(payload))

        def reject(reason: Denial, final_payload: bytes | None) -> Stage:
            # The stream is invalidated in-band: the withheld block goes out
            # with its last byte modified after the CRC was attached.
            if sink is not None and final_payload is not None:
                mutated = final_payload[:-1] + bytes([final_payload[-1] ^ 0xFF])
                sink(DataBlock(payload=mutated, crc=crc16(final_payload)))
            return self._lockdown(reason, card)

        if not self._simple_command(bus, CMD_READ_MULTIPLE, lba):
            return self._lockdown(Denial.BUS_ERROR, card)
        while total_sectors is None or streamed < total_sectors:
            block = bus.fetch_block()
            if block is None:
                bus.command(CMD_STOP_TRANSMISSION, 0)
                return reject(Denial.BUS_ERROR, held)
            self.ledger.charge(self._transfer_cycles(card), SECTOR_SIZE, PHASE_BOOT)
            if not block.crc_ok:
                retries += 1
                bus.command(CMD_STOP_TRANSMISSION, 0)
                if retries > RETRY_LIMIT:
                    return reject(Denial.BUS_ERROR, held)
                if not self._simple_command(bus, CMD_READ_MULTIPLE, lba):
                    return self._lockdown(Denial.BUS_ERROR, card)
                continue
            retries = 0
            plaintext = decrypt_sector(aes_key, lba, block.payload)
            if total_sectors is None:
                try:
                    total_sectors = boot_image_sectors(plaintext, layout.boot_sectors)
                except ImageFormatError:
                    bus.command(CMD_STOP_TRANSMISSION, 0)
                    return reject(Denial.IMAGE_DIGEST_MISMATCH, plaintext)
            if held is not None:
                hasher.update(held)
                deliver(held)
            held = plaintext
            streamed += 1
            lba += 1
        bus.command(CMD_STOP_TRANSMISSION, 0)
        self.ledger.charge(SECTOR_PIPELINE_CYCLES, 0, PHASE_BOOT)

        assert held is not None
        hasher.update(held[:-DIGEST_SIZE])
        if hasher.digest() != held[-DIGEST_SIZE:]:
            return reject(Denial.IMAGE_DIGEST_MISMATCH, held)
        deliver(held)
        self.leds[3] = True
        return self._enter(Stage.OPERATIONAL)

    # -- operational data path ----------------------------------------------

    def mediate_read(self, bus: SdioBus, card: VirtualCard, lba: int) -> bytes:
        """Verified, decrypted read of one data-partition sector.

        A block failing the line CRC is forwarded as-is (the processor's CRC
        check fails, it retries). A block failing its integrity tag poisons
        the transfer the same way, then locks the unit down and suspends the
        card.
        """
        aes_key, mac_key = self._mediated_keys(lba, "read of")

        # The data leg is not retried here: a line-CRC failure goes to the
        # processor, whose own retry re-issues the whole read.
        block, crc_ok = self._read_single(bus, lba, PHASE_OPERATIONAL, retries=0)
        if block is None:
            self._fail(Denial.BUS_ERROR, card)
        if not crc_ok:
            # Forwarded unencrypted so the processor sees the CRC error.
            raise ProtocolCrcError(f"line CRC failed for LBA {lba}")
        _, offset, tags = self._read_tag_sector(bus, card, lba)
        if sector_tag(mac_key, lba, block.payload) != tags[offset : offset + DIGEST_SIZE]:
            self._lockdown(Denial.SECTOR_TAG_MISMATCH, card, lba=lba)
            raise ProtocolCrcError(f"sector {lba} failed verification; stream poisoned")
        plaintext = decrypt_sector(aes_key, lba, block.payload)
        self.ledger.charge(SECTOR_PIPELINE_CYCLES, 0, PHASE_OPERATIONAL)
        return plaintext

    def mediate_write(
        self, bus: SdioBus, card: VirtualCard, lba: int, plaintext: bytes, crc: int | None = None
    ) -> None:
        """Encrypt-and-tag write of one data-partition sector."""
        aes_key, mac_key = self._mediated_keys(lba, "write to")
        if len(plaintext) != SECTOR_SIZE:
            raise ValueError("sector payload must be 512 bytes")
        if crc is not None and crc != crc16(plaintext):
            raise ProtocolCrcError(f"incoming block for LBA {lba} failed line CRC")

        ciphertext = encrypt_sector(aes_key, lba, plaintext)
        self._write_single(bus, card, lba, ciphertext)
        meta_lba, offset, tags = self._read_tag_sector(bus, card, lba)
        tags = tags[:offset] + sector_tag(mac_key, lba, ciphertext) + tags[offset + DIGEST_SIZE :]
        self._write_single(bus, card, meta_lba, encrypt_sector(aes_key, meta_lba, tags))

    def _mediated_keys(self, lba: int, access: str) -> tuple[bytes, bytes]:
        """The keys, once stage and partition policy allow the access."""
        self._require(Stage.OPERATIONAL)
        if not self._layout.is_data_lba(lba):
            raise PolicyViolation(f"{access} LBA {lba} outside the data partition")
        return self._keys

    def _read_tag_sector(self, bus: SdioBus, card: VirtualCard, lba: int) -> tuple[int, int, bytes]:
        """(integrity-region LBA, tag offset, decrypted tag sector) for a data LBA."""
        meta_lba, offset = self._layout.tag_location(lba)
        block, crc_ok = self._read_single(bus, meta_lba, PHASE_OPERATIONAL)
        if not crc_ok:
            self._fail(Denial.BUS_ERROR, card)
        self.ledger.charge(SECTOR_PIPELINE_CYCLES, 0, PHASE_OPERATIONAL)
        aes_key, _ = self._keys
        return meta_lba, offset, decrypt_sector(aes_key, meta_lba, block.payload)

    # -- reporting ----------------------------------------------------------

    def report(self) -> BootReport:
        """Stage, lockdown diagnostics, LED vector, and timing totals."""
        ledger = self.ledger
        boot_cycles = ledger.phase_cycles(PHASE_BOOT)
        boot_bytes = ledger.phase_bytes(PHASE_BOOT)
        rate = 0.0
        if boot_cycles:
            rate = boot_bytes / (boot_cycles / ledger.clock_hz) / 1e6
        return BootReport(
            stage=self.stage.value,
            reason=self.reason.value if self.reason else None,
            leds=tuple(self.leds),
            cycles=ledger.cycles,
            bytes_moved=ledger.bytes_moved,
            prom_ms=ledger.to_ms(ledger.phase_cycles(PHASE_PROM)),
            boot_ms=ledger.to_ms(boot_cycles),
            total_ms=ledger.to_ms(ledger.cycles),
            rate_mbps=rate,
            fault_lba=self.fault_lba,
        )

    # -- bus helpers ----------------------------------------------------------

    def _transfer_cycles(self, card: VirtualCard) -> int:
        return -(-SECTOR_SIZE * self.clock_hz // card.line_rate)

    def _command_retry(self, bus: SdioBus, index: int, argument: int) -> ResponseFrame | None:
        for _ in range(RETRY_LIMIT + 1):
            resp = bus.command(index, argument)
            if resp is not None:
                return resp
        return None

    def _simple_command(self, bus: SdioBus, index: int, argument: int = 0) -> bool:
        resp = self._command_retry(bus, index, argument)
        return resp is not None and resp.status == 0

    def _read_single(
        self, bus: SdioBus, lba: int, phase: str, retries: int = RETRY_LIMIT
    ) -> tuple[DataBlock | None, bool]:
        """CMD17 read, repeated up to ``retries`` times while the line CRC
        fails: (last block, whether its CRC holds); (None, False) when the
        bus gives up. The CRC is computed once per block."""
        block = None
        for _ in range(retries + 1):
            if not self._simple_command(bus, CMD_READ_SINGLE, lba):
                return None, False
            block = bus.fetch_block()
            if block is None:
                return None, False
            self.ledger.charge(self._transfer_cycles(bus.card), SECTOR_SIZE, phase)
            if block.crc_ok:
                return block, True
        return block, False

    def _write_single(self, bus: SdioBus, card: VirtualCard, lba: int, ciphertext: bytes) -> None:
        """CMD24 write with line-CRC retries, then the pipeline drain; locks
        the unit down when the bus gives up."""
        block = DataBlock.for_payload(ciphertext)
        for _ in range(RETRY_LIMIT + 1):
            if not self._simple_command(bus, CMD_WRITE_SINGLE, lba):
                break
            token = bus.push_block(block)
            if token is None:
                break
            self.ledger.charge(self._transfer_cycles(bus.card), SECTOR_SIZE, PHASE_OPERATIONAL)
            if token == TOKEN_CRC_OK:
                self.ledger.charge(SECTOR_PIPELINE_CYCLES, 0, PHASE_OPERATIONAL)
                return
        self._fail(Denial.BUS_ERROR, card)
