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
leaves. So does any other exception raised while the unit verifies the
image or mediates a transfer: it is recorded as a bus error and raised
again, so that a fault inside the simulator fails closed. Error signalling toward the processor stays in-band: a block that
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
from typing import Iterator, NoReturn

from .bus import (
    CMD_ALL_SEND_CID,
    CMD_GO_IDLE,
    CMD_READ_MULTIPLE,
    CMD_SELECT,
    CMD_SEND_CSD,
    CMD_SET_BLOCKLEN,
    CMD_WRITE_MULTIPLE,
    LINE_RATE,
    RETRY_LIMIT,
    DataBlock,
    SdioBus,
)
from .crypto import (
    DIGEST_SIZE,
    RUN_SECTORS,
    SECTOR_SIZE,
    SectorCipher,
    SectorMac,
    crc16,
    decrypt_sector,
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
    """A mediated read failed its CRC check on the processor side: a sector
    failed its integrity tag, so the unit poisoned the read and locked down."""


class PolicyViolation(TmiuError):
    """Host access to a region the unit does not mediate."""


class LockdownError(TmiuError):
    def __init__(self, reason: Denial | None):
        self.reason = None if reason is None else Denial(reason)  # else a ValueError
        super().__init__(f"unit is in lockdown ({self.reason.value if self.reason else 'unknown'})")


@dataclass(frozen=True)
class PromStore:
    """One-time-programmable store holding the unit's own configuration."""

    config_size: int = 1_900_000  # bytes
    load_rate: int = 19_400_000  # bytes/s


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

    def __init__(self, anchors: TrustAnchors, device: DeviceIdentity):
        self.anchors = anchors
        self._device = device
        self.prom = PromStore()
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

    def _fail_closed(self, bus: SdioBus) -> None:
        """Lock down with ``BUS_ERROR`` after an exception that no lockdown
        raised, so that it leaves no key held and no card transfer open."""
        if self.stage is not Stage.LOCKDOWN:
            self._lockdown(Denial.BUS_ERROR, bus)

    def _fail(self, reason: Denial, bus: SdioBus) -> NoReturn:
        """Lock down and abort the operation in progress."""
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

    def verify_mbr_and_image(self, bus: SdioBus, sink) -> Stage:
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
        try:
            self._layout = self._verify_mbr(bus)
            self.leds[2] = True
            return self._stream_boot_image(bus, self._layout, sink)
        except LockdownError:
            return self.stage
        except BaseException:
            self._fail_closed(bus)
            raise

    def _verify_mbr(self, bus: SdioBus) -> ImageLayout:
        """The layout the MBR at LBA 0 describes, once its tag matches the
        anchored digest and it names a boot and a data partition."""
        cipher, mac = self._keys
        mbr_sector = b"".join(self._read(bus, 0, 1))
        self.ledger.charge(SECTOR_TRANSFER_CYCLES + SECTOR_PIPELINE_CYCLES, SECTOR_SIZE)
        if sector_tag(mac, 0, mbr_sector) != self.anchors.mbr_digest:
            self._fail(Denial.MBR_MISMATCH, bus)
        try:
            mbr = parse_mbr(decrypt_sector(cipher, 0, mbr_sector), bus.card.geometry)
            boot = mbr.boot_partition()
            data = mbr.data_partition()
            if boot is None or data is None:
                raise MbrError("missing boot or data partition")
            return ImageLayout(
                total_sectors=bus.card.geometry,
                boot_start=boot.lba_start,
                boot_sectors=boot.sector_count,
                data_start=data.lba_start,
                data_sectors=data.sector_count,
            )
        except ValueError:  # an MbrError, or a layout that breaks its own rules
            self._fail(Denial.MBR_MISMATCH, bus)

    def _stream_boot_image(self, bus: SdioBus, layout: ImageLayout, sink) -> Stage:
        cipher, _ = self._keys
        check = ContainerCheck(layout.boot_sectors)
        lba = layout.boot_start
        try:
            # The first sector comes alone, in a transfer of its own: it
            # tells the container length, and only it can fail the check
            # before the trailer.
            while check.pending:
                for run in self._read(bus, lba, check.pending):
                    self.ledger.charge(len(run) // SECTOR_SIZE * SECTOR_TRANSFER_CYCLES, len(run))
                    try:
                        passed = check.update(cipher.crypt(lba, run))
                    except ImageFormatError:
                        self._fail(Denial.IMAGE_DIGEST_MISMATCH, bus)
                    if passed:
                        sink(passed)
                    lba += len(run) // SECTOR_SIZE
            self.ledger.charge(SECTOR_PIPELINE_CYCLES, 0)
            try:
                check.finish()
            except ImageDigestError:
                self._fail(Denial.IMAGE_DIGEST_MISMATCH, bus)
        except BaseException:
            # The stream is invalidated in-band: the withheld block goes out
            # with its last byte modified after the CRC was attached.
            self._fail_closed(bus)
            if check.held:
                mutated = check.held[:-1] + bytes([check.held[-1] ^ 0xFF])
                sink(DataBlock(payload=mutated, crc=crc16(check.held)))
            raise
        sink(check.held)
        self.leds[3] = True
        return self._enter(Stage.OPERATIONAL)

    # -- operational data path ----------------------------------------------

    def mediate_read(self, bus: SdioBus, lba: int, count: int = 1) -> bytes:
        """Verified, decrypted read of the ``count`` data-partition sectors
        from ``lba`` as one run: the data sectors in one CMD18 transfer, the
        tag sectors they share in another, one cipher call, and one ledger
        charge of what the reads one by one would charge.

        The whole extent must lie in the data partition, or the read is a
        :class:`PolicyViolation` before any exchange. A frame that fails its
        line CRC is resent (see :meth:`_read`). A sector failing its
        integrity tag poisons the transfer: the read raises
        :class:`ProtocolCrcError` (the processor's CRC check fails), having
        locked the unit down and suspended the card, with the sectors before
        it charged as read.
        """
        self._check_extent(lba, count, "read of")
        cipher, mac = self._keys
        try:
            run = b"".join(self._read(bus, lba, count))
            _, slot, tags = self._fetch_tags(bus, lba, count)
            sectors = memoryview(run)
            for i in range(count):
                if mac.tag(lba + i, sectors[i * SECTOR_SIZE : (i + 1) * SECTOR_SIZE]) != tags[slot : slot + DIGEST_SIZE]:
                    # The failing read moved both sectors and checked the tag sector.
                    self.ledger.charge(
                        i * _READ_CYCLES + 2 * SECTOR_TRANSFER_CYCLES + SECTOR_PIPELINE_CYCLES,
                        (i + 1) * 2 * SECTOR_SIZE,
                    )
                    self._lockdown(Denial.SECTOR_TAG_MISMATCH, bus, lba=lba + i)
                    raise ProtocolCrcError(f"sector {lba + i} failed verification; stream poisoned")
                slot += DIGEST_SIZE
            self.ledger.charge(count * _READ_CYCLES, count * 2 * SECTOR_SIZE)
            return cipher.crypt(lba, run)
        except BaseException:
            self._fail_closed(bus)
            raise

    def mediate_write(self, bus: SdioBus, lba: int, plaintext: bytes) -> None:
        """Encrypt-and-tag write of data-partition sectors from ``lba`` as
        one run: one cipher call, the data sectors in one CMD25 transfer, the
        tag sectors they share read (CMD18), updated and written back (CMD25)
        once, and one ledger charge of what the writes one by one would
        charge.

        The whole extent must lie in the data partition, or the write is a
        :class:`PolicyViolation` before any exchange. A write never raises
        :class:`ProtocolCrcError`: a transfer resends from a frame that fails
        its line CRC, and a bus that gives up locks the unit down.
        """
        count, partial = divmod(len(plaintext), SECTOR_SIZE)
        self._check_extent(lba, count, "write to")
        if partial:
            raise ValueError("sector payload must be a whole number of 512-byte sectors")
        cipher, mac = self._keys
        try:
            ciphertext = cipher.crypt(lba, plaintext)
            self._push_sectors(bus, lba, ciphertext)
            meta_lba, slot, tags = self._fetch_tags(bus, lba, count)
            tags, sectors = bytearray(tags), memoryview(ciphertext)
            for i in range(count):
                tags[slot : slot + DIGEST_SIZE] = mac.tag(lba + i, sectors[i * SECTOR_SIZE : (i + 1) * SECTOR_SIZE])
                slot += DIGEST_SIZE
            self._push_sectors(bus, meta_lba, cipher.crypt(meta_lba, tags))
            self.ledger.charge(count * _WRITE_CYCLES, count * 3 * SECTOR_SIZE)
        except BaseException:
            self._fail_closed(bus)
            raise

    def _check_extent(self, lba: int, count: int, access: str) -> None:
        """Raise unless the stage and the partition policy allow access to
        ``count`` sectors from ``lba``."""
        self._require(Stage.OPERATIONAL)
        if count < 1:
            raise ValueError(f"a {access} needs one sector or more")
        layout = self._layout
        if not (layout.is_data_lba(lba) and layout.is_data_lba(lba + count - 1)):
            raise PolicyViolation(f"{access} LBAs {lba}..{lba + count - 1} outside the data partition")

    def _fetch_tags(self, bus: SdioBus, lba: int, count: int) -> tuple[int, int, bytes]:
        """(first integrity-region LBA, offset of ``lba``'s tag slot, the
        decrypted tag sectors of ``count`` data sectors from ``lba``), each
        tag sector read once and uncharged."""
        meta_lba, offset = self._layout.tag_location(lba)
        last_meta_lba, _ = self._layout.tag_location(lba + count - 1)
        cipher, _ = self._keys
        tags = b"".join(self._read(bus, meta_lba, last_meta_lba + 1 - meta_lba))
        return meta_lba, offset, cipher.crypt(meta_lba, tags)

    # The unit's exchanges: multi-block transfers, each opened by CMD18 or CMD25
    # and closed by CMD12. Sectors that cross intact are uncharged here; the
    # caller charges them. A frame that fails its line CRC, which can happen
    # only where frames are observed, costs one more sector transfer and is
    # resent in a new transfer from its sector, at most ``RETRY_LIMIT`` times
    # in a row. A lockdown suspends the card, which ends the open transfer.

    def _read(self, bus: SdioBus, lba: int, count: int) -> Iterator[bytes]:
        """Yield the ``count`` sectors from ``lba`` as the CRC-intact runs,
        each of at most ``RUN_SECTORS`` sectors, that CMD18 transfers bring.
        Locks the unit down when the card refuses a CMD18 or is silent,
        sends anything but whole sectors, one at least and no more than
        asked for, or when a frame fails its line CRC once more than it may
        be resent."""
        end, resends = lba + count, 0
        while lba < end:
            if not bus.start_transfer(CMD_READ_MULTIPLE, lba):
                self._fail(Denial.BUS_ERROR, bus)
            while lba < end:
                limit = min(RUN_SECTORS, end - lba)
                fetched = bus.fetch_run(limit)
                whole_sectors = range(SECTOR_SIZE, (limit + 1) * SECTOR_SIZE, SECTOR_SIZE)
                if fetched is None or len(fetched[0]) not in whole_sectors:
                    self._fail(Denial.BUS_ERROR, bus)
                run, crc_ok = fetched
                if not crc_ok:
                    self.ledger.charge(SECTOR_TRANSFER_CYCLES, SECTOR_SIZE)
                    resends += 1
                    break
                resends = 0
                yield run
                lba += len(run) // SECTOR_SIZE
            bus.stop_transfer()
            if resends > RETRY_LIMIT:
                self._fail(Denial.BUS_ERROR, bus)

    def _push_sectors(self, bus: SdioBus, lba: int, data: bytes) -> None:
        """The sectors of ``data``, written from ``lba`` in CMD25 transfers.
        A sector the card does not acknowledge ends its transfer; the next
        transfer starts at that sector, at most ``RETRY_LIMIT`` times in a
        row. Locks the unit down after that, or when the card does not
        answer a CMD25."""
        retries = 0
        while True:
            if not bus.start_transfer(CMD_WRITE_MULTIPLE, lba):
                self._fail(Denial.BUS_ERROR, bus)
            taken = bus.push_run(data)
            bus.stop_transfer()
            if taken * SECTOR_SIZE == len(data):
                return
            self.ledger.charge(SECTOR_TRANSFER_CYCLES, SECTOR_SIZE)
            retries = retries + 1 if not taken else 1
            if retries > RETRY_LIMIT:
                self._fail(Denial.BUS_ERROR, bus)
            lba, data = lba + taken, data[taken * SECTOR_SIZE :]

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
