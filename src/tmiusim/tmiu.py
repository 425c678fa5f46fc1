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
run. After hand-over a run of mediated sectors charges what its sectors
would charge one by one.
"""

from __future__ import annotations

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
    LINE_RATE,
    RETRY_LIMIT,
    DataBlock,
    SdioBus,
    TOKEN_CRC_OK,
)
from .crypto import (
    DIGEST_SIZE,
    RUN_SECTORS,
    SECTOR_SIZE,
    SectorCipher,
    SectorMac,
    crc16,
    decrypt_sector,
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
    derive_keys,
)
from .image import ContainerCheck, ImageDigestError, ImageFormatError, ImageLayout, MbrError, parse_mbr

CLOCK_HZ = 50_000_000
# One sector crossing the wire at the card line rate.
SECTOR_TRANSFER_CYCLES = -(-SECTOR_SIZE * CLOCK_HZ // LINE_RATE)
SECTOR_PIPELINE_CYCLES = 52
# A mediated read moves the data sector and its tag sector and checks both; a
# write moves and commits the data sector, reads and checks the tag sector,
# and commits it. A run of n of them charges n times as much.
_READ_CYCLES = 2 * SECTOR_TRANSFER_CYCLES + 2 * SECTOR_PIPELINE_CYCLES
_WRITE_CYCLES = 3 * SECTOR_TRANSFER_CYCLES + 3 * SECTOR_PIPELINE_CYCLES


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
    """Monotonic clock-cycle and byte totals. Which stage a charge fell in
    is read from the unit's ``stage_history``, which marks both totals at
    each stage entry."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.cycles = 0
        self.bytes_moved = 0

    def charge(self, cycles: int, nbytes: int) -> None:
        if cycles < 0 or nbytes < 0:
            raise ValueError("ledger charges are non-negative")
        self.cycles += cycles
        self.bytes_moved += nbytes

    def to_ms(self, cycles: int) -> float:
        return cycles * 1000.0 / CLOCK_HZ


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

    def __init__(self, anchors: TrustAnchors, device: DeviceIdentity, prom: PromStore | None = None):
        self.anchors = anchors
        self._device = device
        self.prom = prom or PromStore()
        self.ledger = CycleLedger()
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
        # (sector cipher, integrity MAC); dropped by lockdown and power cycle.
        self._keys: tuple[SectorCipher, SectorMac] | None = None
        self._cid: bytes | None = None
        self._layout: ImageLayout | None = None
        # (stage, ledger cycles, ledger bytes) as each stage is entered.
        self.stage_history: list[tuple[Stage, int, int]] = [(Stage.PROM_LOAD, 0, 0)]

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
        self.stage_history.append((stage, self.ledger.cycles, self.ledger.bytes_moved))
        return stage

    def _lockdown(self, reason: Denial, bus: SdioBus | None = None, lba: int | None = None) -> Stage:
        self._keys = None
        self.reason = reason
        self.fault_lba = lba
        if bus is not None:
            bus.card.suspend_io()
        return self._enter(Stage.LOCKDOWN)

    def _fail(self, reason: Denial, bus: SdioBus) -> NoReturn:
        """Lock down and abort the mediated operation in progress."""
        self._lockdown(reason, bus)
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
        prom_cycles = -(-self.prom.config_size * CLOCK_HZ // self.prom.load_rate)
        self.ledger.charge(prom_cycles, self.prom.config_size)
        self._enter(Stage.DEVICE_AUTH)
        failure = authenticate_device(self.anchors, self._device)
        if failure is not None:
            return self._lockdown(_AUTH_TO_DENIAL[failure])
        self.leds[0] = True
        return self._enter(Stage.MEMORY_AUTH)

    def authenticate_memory(self, bus: SdioBus) -> Stage:
        """Stage 2: read the card identity off the wire and authenticate it."""
        self._require(Stage.MEMORY_AUTH)
        bus.command(CMD_GO_IDLE, 0)  # CMD0 carries no response
        resp = bus.request(CMD_ALL_SEND_CID)
        if resp is None or resp.register is None:
            return self._lockdown(Denial.BUS_ERROR, bus)
        cid = resp.register
        csd_resp = bus.request(CMD_SEND_CSD)
        if csd_resp is None or csd_resp.register is None:
            return self._lockdown(Denial.BUS_ERROR, bus)
        presented = CardIdentity(cid=cid, csd=csd_resp.register)
        failure = authenticate_nvm(self.anchors, presented)
        if failure is not None:
            return self._lockdown(_AUTH_TO_DENIAL[failure], bus)
        for index, argument in ((CMD_SELECT, 0), (CMD_SET_BLOCKLEN, SECTOR_SIZE)):
            resp = bus.request(index, argument)
            if resp is None or resp.status != 0:
                return self._lockdown(Denial.BUS_ERROR, bus)
        self._cid = cid
        self.leds[1] = True
        return self._enter(Stage.KEYGEN_IMAGE_AUTH)

    def generate_keys(self) -> Stage:
        """Stage 3a: expand the authenticated identity pair into keys."""
        self._require(Stage.KEYGEN_IMAGE_AUTH)
        if self._cid is None:
            raise StateError("card identity not received")
        aes_key, mac_key = derive_keys(
            self._device, self._cid, self.anchors.kdf_counter, self.anchors.kdf_repetitions
        )
        self._keys = (SectorCipher(aes_key), SectorMac(mac_key))
        return self.stage

    def verify_mbr_and_image(self, bus: SdioBus, sink=None) -> Stage:
        """Stage 3b: authenticate the encrypted MBR, then stream-verify the
        boot image, forwarding decrypted plaintext to ``sink`` as it passes,
        as ``bytes``: one call per sector, or per run of up to
        ``RUN_SECTORS`` sectors where the bus moves runs.

        A :class:`~tmiusim.image.ContainerCheck` holds back the final sector
        until the whole-image digest is checked; on mismatch it is forwarded
        as a :class:`DataBlock` with its last byte modified, so the
        processor-side CRC check invalidates the stream.
        """
        self._require(Stage.KEYGEN_IMAGE_AUTH)
        if self._keys is None:
            raise StateError("keys not generated")
        cipher, mac = self._keys

        mbr_sector, crc_ok = self._read_single(bus, 0)
        if not crc_ok:
            return self._lockdown(Denial.BUS_ERROR, bus)
        self.ledger.charge(SECTOR_PIPELINE_CYCLES, 0)
        if sector_tag(mac, 0, mbr_sector) != self.anchors.mbr_digest:
            return self._lockdown(Denial.MBR_MISMATCH, bus)
        try:
            mbr = parse_mbr(decrypt_sector(cipher, 0, mbr_sector), bus.card.geometry)
            boot = mbr.boot_partition()
            data = mbr.data_partition()
            if boot is None or data is None:
                raise MbrError("missing boot or data partition")
            layout = ImageLayout(
                total_sectors=bus.card.geometry,
                boot_start=boot.lba_start,
                boot_sectors=boot.sector_count,
                data_start=data.lba_start,
                data_sectors=data.sector_count,
            )
        except (MbrError, ValueError):
            return self._lockdown(Denial.MBR_MISMATCH, bus)
        self._layout = layout
        self.leds[2] = True
        return self._stream_boot_image(bus, layout, sink)

    def _stream_boot_image(self, bus: SdioBus, layout, sink) -> Stage:
        cipher, _ = self._keys
        sink = sink or (lambda item: None)
        check = ContainerCheck(layout.boot_sectors)
        lba = layout.boot_start
        retries = 0

        def reject(reason: Denial) -> Stage:
            # The stream is invalidated in-band: the withheld block goes out
            # with its last byte modified after the CRC was attached.
            if check.held:
                mutated = check.held[:-1] + bytes([check.held[-1] ^ 0xFF])
                sink(DataBlock(payload=mutated, crc=crc16(check.held)))
            return self._lockdown(reason, bus)

        if not bus.start_transfer(CMD_READ_MULTIPLE, lba):
            return self._lockdown(Denial.BUS_ERROR, bus)
        while check.pending:
            # The first sector comes alone: it tells the container length.
            fetched = bus.fetch_run(min(RUN_SECTORS, check.pending))
            if fetched is None:
                bus.command(CMD_STOP_TRANSMISSION, 0)
                return reject(Denial.BUS_ERROR)
            run, crc_ok = fetched
            count = len(run) // SECTOR_SIZE
            self.ledger.charge(count * SECTOR_TRANSFER_CYCLES, len(run))
            if not crc_ok:
                retries += 1
                bus.command(CMD_STOP_TRANSMISSION, 0)
                if retries > RETRY_LIMIT:
                    return reject(Denial.BUS_ERROR)
                if not bus.start_transfer(CMD_READ_MULTIPLE, lba):
                    return self._lockdown(Denial.BUS_ERROR, bus)
                continue
            retries = 0
            try:
                passed = check.update(cipher.crypt(lba, run))
            except ImageFormatError:
                bus.command(CMD_STOP_TRANSMISSION, 0)
                return reject(Denial.IMAGE_DIGEST_MISMATCH)
            if passed:
                sink(passed)
            lba += count
        bus.command(CMD_STOP_TRANSMISSION, 0)
        self.ledger.charge(SECTOR_PIPELINE_CYCLES, 0)

        try:
            check.finish()
        except ImageDigestError:
            return reject(Denial.IMAGE_DIGEST_MISMATCH)
        sink(check.held)
        self.leds[3] = True
        return self._enter(Stage.OPERATIONAL)

    # -- operational data path ----------------------------------------------

    def mediate_read(self, bus: SdioBus, lba: int, count: int = 1) -> bytes:
        """Verified, decrypted read of the ``count`` data-partition sectors
        from ``lba``, or of only the first of them where frames are observed
        (see :meth:`_frames_observed`): the caller reads on from where the
        returned plaintext ends.

        The whole extent must lie in the data partition, or the read is a
        :class:`PolicyViolation` before any exchange. A block failing the
        line CRC is forwarded as-is (the processor's CRC check fails, it
        retries). A block failing its integrity tag poisons the transfer the
        same way, then locks the unit down and suspends the card, with the
        sectors before it charged as read.
        """
        self._check_extent(lba, count, "read of")
        if self._frames_observed(bus):
            return self._read_sector(bus, lba)
        return self._read_run(bus, lba, count)

    def mediate_write(self, bus: SdioBus, lba: int, plaintext: bytes) -> None:
        """Encrypt-and-tag write of data-partition sectors from ``lba``.

        The whole extent must lie in the data partition, or the write is a
        :class:`PolicyViolation` before any exchange. A write never raises
        :class:`ProtocolCrcError`: each frame is resent on a line-CRC
        failure, and a bus that gives up locks the unit down.
        """
        count, partial = divmod(len(plaintext), SECTOR_SIZE)
        self._check_extent(lba, count, "write to")
        if partial:
            raise ValueError("sector payload must be a whole number of 512-byte sectors")
        if not self._frames_observed(bus):
            self._write_run(bus, lba, plaintext)
            return
        for i in range(count):
            self._write_sector(bus, lba + i, plaintext[i * SECTOR_SIZE : (i + 1) * SECTOR_SIZE])

    def _check_extent(self, lba: int, count: int, access: str) -> None:
        """Raise unless the stage and the partition policy allow access to
        ``count`` sectors from ``lba``."""
        self._require(Stage.OPERATIONAL)
        if count < 1:
            raise ValueError(f"a {access} needs one sector or more")
        layout = self._layout
        if not (layout.is_data_lba(lba) and layout.is_data_lba(lba + count - 1)):
            raise PolicyViolation(f"{access} LBAs {lba}..{lba + count - 1} outside the data partition")

    @staticmethod
    def _frames_observed(bus: SdioBus) -> bool:
        """Whether single frames are observed, by the transcript or a
        pending fault. Only then does a mediated access go sector by sector,
        with every frame on the wire; otherwise it moves its whole extent as
        one run (:meth:`_read_run`, :meth:`_write_run`)."""
        return bus.trace_enabled or bus.faults_pending

    def _read_sector(self, bus: SdioBus, lba: int) -> bytes:
        """One mediated read, every frame on the wire."""
        cipher, mac = self._keys
        # The data leg is not retried here: a line-CRC failure goes to the
        # processor, whose own retry re-issues the whole read.
        ciphertext, crc_ok = self._read_single(bus, lba, retries=0)
        if ciphertext is None:
            self._fail(Denial.BUS_ERROR, bus)
        if not crc_ok:
            # Forwarded unencrypted so the processor sees the CRC error.
            raise ProtocolCrcError(f"line CRC failed for LBA {lba}")
        _, offset, tags = self._read_tag_sector(bus, lba)
        if sector_tag(mac, lba, ciphertext) != tags[offset : offset + DIGEST_SIZE]:
            self._lockdown(Denial.SECTOR_TAG_MISMATCH, bus, lba=lba)
            raise ProtocolCrcError(f"sector {lba} failed verification; stream poisoned")
        plaintext = decrypt_sector(cipher, lba, ciphertext)
        self.ledger.charge(SECTOR_PIPELINE_CYCLES, 0)
        return plaintext

    def _write_sector(self, bus: SdioBus, lba: int, plaintext: bytes) -> None:
        """One mediated write, every frame on the wire."""
        cipher, mac = self._keys
        ciphertext = encrypt_sector(cipher, lba, plaintext)
        self._write_single(bus, lba, ciphertext)
        meta_lba, offset, tags = self._read_tag_sector(bus, lba)
        tags = tags[:offset] + sector_tag(mac, lba, ciphertext) + tags[offset + DIGEST_SIZE :]
        self._write_single(bus, meta_lba, encrypt_sector(cipher, meta_lba, tags))

    def _read_run(self, bus: SdioBus, lba: int, count: int) -> bytes:
        """``count`` mediated reads as one run: each data sector its own
        frameless CMD17, each tag sector they share read once, one cipher
        call, and one ledger charge of what the reads one by one would
        charge, up to and including a sector that fails its tag."""
        cipher, mac = self._keys
        sectors = self._fetch_sectors(bus, lba, count)
        _, slot, tags = self._fetch_tags(bus, lba, count)
        for i, ciphertext in enumerate(sectors):
            if mac.tag(lba + i, ciphertext) != tags[slot : slot + DIGEST_SIZE]:
                # The failing read moved both sectors and checked the tag sector.
                self.ledger.charge(
                    i * _READ_CYCLES + 2 * SECTOR_TRANSFER_CYCLES + SECTOR_PIPELINE_CYCLES,
                    (i + 1) * 2 * SECTOR_SIZE,
                )
                self._lockdown(Denial.SECTOR_TAG_MISMATCH, bus, lba=lba + i)
                raise ProtocolCrcError(f"sector {lba + i} failed verification; stream poisoned")
            slot += DIGEST_SIZE
        self.ledger.charge(count * _READ_CYCLES, count * 2 * SECTOR_SIZE)
        return cipher.crypt(lba, b"".join(sectors))

    def _write_run(self, bus: SdioBus, lba: int, plaintext: bytes) -> None:
        """Mediated writes as one run: one cipher call, each data sector its
        own frameless CMD24, each tag sector they share read, updated and
        written back once, and one ledger charge of what the writes one by
        one would charge."""
        cipher, mac = self._keys
        ciphertext = cipher.crypt(lba, plaintext)
        self._push_sectors(bus, lba, ciphertext)
        count = len(ciphertext) // SECTOR_SIZE
        meta_lba, slot, tags = self._fetch_tags(bus, lba, count)
        tags = bytearray(tags)
        for i in range(count):
            tags[slot : slot + DIGEST_SIZE] = mac.tag(lba + i, ciphertext[i * SECTOR_SIZE : (i + 1) * SECTOR_SIZE])
            slot += DIGEST_SIZE
        self._push_sectors(bus, meta_lba, cipher.crypt(meta_lba, tags))
        self.ledger.charge(count * _WRITE_CYCLES, count * 3 * SECTOR_SIZE)

    def _fetch_tags(self, bus: SdioBus, lba: int, count: int) -> tuple[int, int, bytes]:
        """(first integrity-region LBA, offset of ``lba``'s tag slot, the
        decrypted tag sectors of ``count`` data sectors from ``lba``), each
        tag sector read once and uncharged."""
        meta_lba, offset = self._layout.tag_location(lba)
        last_meta_lba, _ = self._layout.tag_location(lba + count - 1)
        sectors = self._fetch_sectors(bus, meta_lba, last_meta_lba - meta_lba + 1)
        cipher, _ = self._keys
        return meta_lba, offset, cipher.crypt(meta_lba, b"".join(sectors))

    # A run's frameless exchanges. Nothing observes frames, so every line CRC
    # holds, and the card is silent from a run's first exchange or not at
    # all: only a lockdown, or a suspension before the run, silences it.

    def _fetch_sectors(self, bus: SdioBus, lba: int, count: int) -> list[bytes]:
        """CMD17 reads of ``count`` sectors from ``lba``, uncharged; locks
        the unit down when the card is silent."""
        sectors = []
        for sector_lba in range(lba, lba + count):
            fetched = bus.fetch_block() if bus.start_transfer(CMD_READ_SINGLE, sector_lba) else None
            if fetched is None:
                self._fail(Denial.BUS_ERROR, bus)
            sectors.append(fetched[0])
        return sectors

    def _push_sectors(self, bus: SdioBus, lba: int, data: bytes) -> None:
        """CMD24 writes of the sectors of ``data`` from ``lba``, uncharged;
        locks the unit down when the card is silent."""
        for i in range(len(data) // SECTOR_SIZE):
            sector = data[i * SECTOR_SIZE : (i + 1) * SECTOR_SIZE]
            if not bus.start_transfer(CMD_WRITE_SINGLE, lba + i) or bus.push_block(sector) != TOKEN_CRC_OK:
                self._fail(Denial.BUS_ERROR, bus)

    def _read_tag_sector(self, bus: SdioBus, lba: int) -> tuple[int, int, bytes]:
        """(integrity-region LBA, tag offset, decrypted tag sector) for a data LBA."""
        meta_lba, offset = self._layout.tag_location(lba)
        sector, crc_ok = self._read_single(bus, meta_lba)
        if not crc_ok:
            self._fail(Denial.BUS_ERROR, bus)
        self.ledger.charge(SECTOR_PIPELINE_CYCLES, 0)
        cipher, _ = self._keys
        return meta_lba, offset, decrypt_sector(cipher, meta_lba, sector)

    # -- reporting ----------------------------------------------------------

    def _charged_at(self, stage: Stage) -> tuple[int, int]:
        """(cycles, bytes) charged while the unit was at ``stage``, which it
        enters at most once per power cycle."""
        ledger = self.ledger
        marks = self.stage_history + [(None, ledger.cycles, ledger.bytes_moved)]
        for (entered, cycles, nbytes), (_, until_cycles, until_bytes) in zip(marks, marks[1:]):
            if entered is stage:
                return until_cycles - cycles, until_bytes - nbytes
        return 0, 0

    def report(self) -> BootReport:
        """Stage, lockdown diagnostics, LED vector, and timing totals: PROM
        load time is what stage 1 charged at ``PromLoad``, boot time and rate
        what stage 3 charged at ``KeyGenImageAuth``."""
        ledger = self.ledger
        prom_cycles, _ = self._charged_at(Stage.PROM_LOAD)
        boot_cycles, boot_bytes = self._charged_at(Stage.KEYGEN_IMAGE_AUTH)
        rate = 0.0
        if boot_cycles:
            rate = boot_bytes / (boot_cycles / CLOCK_HZ) / 1e6
        return BootReport(
            stage=self.stage.value,
            reason=self.reason.value if self.reason else None,
            leds=tuple(self.leds),
            cycles=ledger.cycles,
            bytes_moved=ledger.bytes_moved,
            prom_ms=ledger.to_ms(prom_cycles),
            boot_ms=ledger.to_ms(boot_cycles),
            total_ms=ledger.to_ms(ledger.cycles),
            rate_mbps=rate,
            fault_lba=self.fault_lba,
        )

    # -- bus helpers ----------------------------------------------------------

    def _read_single(self, bus: SdioBus, lba: int, retries: int = RETRY_LIMIT) -> tuple[bytes | None, bool]:
        """CMD17 read, repeated up to ``retries`` times while the line CRC
        fails: (last sector, whether its CRC holds); (None, False) when the
        bus gives up."""
        payload = None
        for _ in range(retries + 1):
            fetched = bus.fetch_block() if bus.start_transfer(CMD_READ_SINGLE, lba) else None
            if fetched is None:
                return None, False
            self.ledger.charge(SECTOR_TRANSFER_CYCLES, SECTOR_SIZE)
            payload, crc_ok = fetched
            if crc_ok:
                return payload, True
        return payload, False

    def _write_single(self, bus: SdioBus, lba: int, ciphertext: bytes) -> None:
        """CMD24 write with line-CRC retries, then the pipeline drain; locks
        the unit down when the bus gives up."""
        for _ in range(RETRY_LIMIT + 1):
            token = bus.push_block(ciphertext) if bus.start_transfer(CMD_WRITE_SINGLE, lba) else None
            if token is None:
                break
            self.ledger.charge(SECTOR_TRANSFER_CYCLES, SECTOR_SIZE)
            if token == TOKEN_CRC_OK:
                self.ledger.charge(SECTOR_PIPELINE_CYCLES, 0)
                return
        self._fail(Denial.BUS_ERROR, bus)
