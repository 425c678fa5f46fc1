"""SDIO wire model: command/response framing, data blocks, virtual card.

The bus is untimed at the logic level; cycle accounting lives with the guard
unit, which owns the master side. The wire supports one-shot bit-flip fault
injection on command frames and on data blocks in either direction, and an
optional line-oriented transcript of everything that crosses it. The card
implements only the commands the unit sends and answers any other index as
an illegal command.

Command frames cross the wire as objects and sector data as bytes, each
read handed over with whether its line CRC holds. A frame is serialized,
with its CRC7 or CRC16, only where something observes its bytes: a fault
due on that very frame, or the transcript. A data frame so observed is
split back into its payload and whether its CRC16 holds, whatever the
payload's length: judging the shape of what a card sends is the unit's.
An untouched frame's CRC always holds, so both paths have the same wire
semantics, and a fault's ``nth`` counts every frame of its kind either way.
Where no transcript and no fault of its direction observe single frames, a
multi-block read or write (CMD18, CMD25) moves runs of sectors as one
buffer. A data command (CMD18, CMD25) opens through
:meth:`SdioBus.start_transfer`, and CMD12 closes it through
:meth:`SdioBus.stop_transfer`: with no transcript and no command fault
pending, the card meets either in :meth:`VirtualCard.transfer_command`, as
a command frame does, and no frame is built; otherwise the one goes through
:meth:`SdioBus.request`, the loop that resends a command while the card
stays silent, and the other as one frame. The bus alone makes these
choices, and each data leg (:meth:`SdioBus.fetch_block`,
:meth:`SdioBus.fetch_run`, :meth:`SdioBus.push_block`,
:meth:`SdioBus.push_run`) picks bytes or frames by itself.

Command frames are 48 bits (start/direction bits, 6-bit index, 32-bit
argument, CRC7, end bit). R1 responses echo the index with a 32-bit status;
R2 responses carry a 128-bit register. Data blocks are 512 bytes followed by
a 16-bit CRC.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

from .crypto import SECTOR_SIZE, crc7, crc16
from .identity import CardIdentity
from .image import NvmImage

CMD_GO_IDLE = 0
CMD_ALL_SEND_CID = 2
CMD_SELECT = 7
CMD_SEND_CSD = 9
CMD_STOP_TRANSMISSION = 12
CMD_SET_BLOCKLEN = 16
CMD_READ_MULTIPLE = 18
CMD_WRITE_MULTIPLE = 25

STATUS_OUT_OF_RANGE = 1 << 31
STATUS_BLOCK_LEN_ERROR = 1 << 29
STATUS_ILLEGAL_COMMAND = 1 << 22

TOKEN_CRC_OK = 0x05
TOKEN_CRC_ERR = 0x0B

COMMAND_FRAME_SIZE = 6
R1_FRAME_SIZE = 6
R2_FRAME_SIZE = 17

LINE_RATE = 25_000_000  # bytes/s, rated card line speed
RETRY_LIMIT = 3  # resends of a lost or corrupted frame before a bus error


class FramingError(ValueError):
    pass


@dataclass(frozen=True)
class CommandFrame:
    index: int
    argument: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < 64:
            raise ValueError("command index is 6 bits")
        if not 0 <= self.argument <= 0xFFFFFFFF:
            raise ValueError("argument is 32 bits")

    def to_bytes(self) -> bytes:
        body = struct.pack(">BI", 0x40 | self.index, self.argument)
        return body + bytes([(crc7(body) << 1) | 1])


def parse_command(raw: bytes) -> tuple[CommandFrame, bool]:
    """Decode a command frame; the flag reports whether its CRC7 holds."""
    if len(raw) != COMMAND_FRAME_SIZE:
        raise FramingError("command frame must be 6 bytes")
    first, argument = struct.unpack(">BI", raw[:5])
    if first & 0xC0 != 0x40 or raw[5] & 1 != 1:
        raise FramingError("bad start/direction/end bits")
    crc_ok = raw[5] >> 1 == crc7(raw[:5])
    return CommandFrame(index=first & 0x3F, argument=argument), crc_ok


@dataclass(frozen=True)
class ResponseFrame:
    index: int
    status: int = 0
    register: bytes | None = None  # set for R2 responses

    def to_bytes(self) -> bytes:
        if self.register is not None:
            if len(self.register) != 16:
                raise ValueError("R2 register must be 16 bytes")
            return bytes([0x3F]) + self.register
        body = struct.pack(">BI", self.index & 0x3F, self.status)
        return body + bytes([(crc7(body) << 1) | 1])


def parse_response(raw: bytes) -> tuple[ResponseFrame, bool]:
    if len(raw) == R2_FRAME_SIZE:
        if raw[0] != 0x3F:
            raise FramingError("bad R2 reserved bits")
        # The R2 payload carries its own CRC inside the register image.
        return ResponseFrame(index=0x3F, register=raw[1:]), True
    if len(raw) == R1_FRAME_SIZE:
        first, status = struct.unpack(">BI", raw[:5])
        if first & 0xC0 != 0x00 or raw[5] & 1 != 1:
            raise FramingError("bad start/direction/end bits")
        crc_ok = raw[5] >> 1 == crc7(raw[:5])
        return ResponseFrame(index=first & 0x3F, status=status), crc_ok
    raise FramingError(f"unexpected response length {len(raw)}")


@dataclass(frozen=True)
class DataBlock:
    """A 512-byte payload and the CRC16 that travels with it: a parsed data
    frame, or a block the unit poisons in-band."""

    payload: bytes
    crc: int

    def __post_init__(self) -> None:
        if len(self.payload) != SECTOR_SIZE:
            raise ValueError("data block payload must be 512 bytes")
        if not 0 <= self.crc <= 0xFFFF:
            raise ValueError("crc is 16 bits")

    @property
    def crc_ok(self) -> bool:
        return crc16(self.payload) == self.crc


class CardState(Enum):
    IDLE = "idle"
    STANDBY = "standby"
    TRANSFER = "transfer"


class VirtualCard:
    """SD card answering the minimal command subset over one exclusive bus."""

    def __init__(self, identity: CardIdentity, backing: NvmImage):
        self.identity = identity
        self.backing = backing
        self.state = CardState.IDLE
        self.io_suspended = False
        # The open data transfer, (data command, next LBA); only ever set in
        # TRANSFER, and cleared by CMD0, CMD12, power cycle and suspension.
        self._open: tuple[int, int] | None = None
        self.geometry = backing.total_sectors

    def power_cycle(self) -> None:
        self.state = CardState.IDLE
        self.io_suspended = False
        self._open = None

    def suspend_io(self) -> None:
        """Suspend all I/O until power cycle; idempotent and irreversible."""
        self.io_suspended = True
        self._open = None

    def issue(self, raw: bytes) -> bytes | None:
        """Handle a raw command frame; None models a silent card."""
        try:
            frame, crc_ok = parse_command(raw)
        except FramingError:
            return None  # a malformed frame is ignored like a bad CRC
        if not crc_ok:
            return None
        reply = self.answer(frame)
        return None if reply is None else reply.to_bytes()

    def answer(self, frame: CommandFrame) -> ResponseFrame | None:
        """Handle an intact command frame; None models a silent card."""
        if self.io_suspended:
            return None
        idx, arg = frame.index, frame.argument
        if idx == CMD_GO_IDLE:
            self.state = CardState.IDLE
            self._open = None
            return None  # CMD0 carries no response
        if idx == CMD_ALL_SEND_CID:
            if self.state is not CardState.IDLE:
                return ResponseFrame(idx, STATUS_ILLEGAL_COMMAND)
            self.state = CardState.STANDBY
            return ResponseFrame(index=0x3F, register=self.identity.cid)
        if idx == CMD_SEND_CSD:
            if self.state is not CardState.STANDBY:
                return ResponseFrame(idx, STATUS_ILLEGAL_COMMAND)
            return ResponseFrame(index=0x3F, register=self.identity.csd)
        if idx == CMD_SELECT:
            if self.state is not CardState.STANDBY:
                return ResponseFrame(idx, STATUS_ILLEGAL_COMMAND)
            self.state = CardState.TRANSFER
            return ResponseFrame(idx)
        if idx == CMD_SET_BLOCKLEN:
            if self.state is not CardState.TRANSFER:
                return ResponseFrame(idx, STATUS_ILLEGAL_COMMAND)
            if arg != SECTOR_SIZE:
                return ResponseFrame(idx, STATUS_BLOCK_LEN_ERROR)
            return ResponseFrame(idx)
        return ResponseFrame(idx, self.transfer_command(idx, arg))  # CMD12, 18, 25, or illegal

    def transfer_command(self, idx: int, arg: int) -> int | None:
        """Handle transfer command ``idx`` with argument ``arg``: its R1
        status. CMD18 or CMD25 opens its transfer at LBA ``arg``, CMD12
        ends the open transfer, if any, and any other index is illegal;
        None models a silent card."""
        if self.io_suspended:
            return None
        if idx == CMD_STOP_TRANSMISSION:
            self._open = None
            return 0
        if idx not in (CMD_READ_MULTIPLE, CMD_WRITE_MULTIPLE) or self.state is not CardState.TRANSFER:
            return STATUS_ILLEGAL_COMMAND
        if arg >= self.geometry:
            return STATUS_OUT_OF_RANGE
        self._open = (idx, arg)
        return 0

    def take_read(self, limit: int) -> bytes | None:
        """Up to ``limit`` next stored sectors of an open CMD18 transfer, as
        one buffer, never past the geometry: whole sectors, up to but not
        including the first frame that is not one, which comes alone, in
        the next run."""
        idx, lba = self._open or (None, 0)
        if idx != CMD_READ_MULTIPLE or lba >= self.geometry:
            return None
        count = min(limit, self.geometry - lba)
        self._open = (idx, lba + count)
        return self.backing.read_sectors(lba, count)

    def receive_write_block(self, payload: bytes, crc_ok: bool) -> int | None:
        """Accept a data frame of an open CMD25 transfer, told whether its
        CRC held at the card's receiver: its token. An intact payload is
        committed by :meth:`take_write` and acknowledged if all of it is; a
        failed CRC closes the transfer. No token past the geometry."""
        idx, lba = self._open or (None, 0)
        if idx != CMD_WRITE_MULTIPLE or lba >= self.geometry:
            return None
        if not crc_ok:
            self._open = None
            return TOKEN_CRC_ERR
        return TOKEN_CRC_OK if self.take_write(payload) * SECTOR_SIZE == len(payload) else None

    def take_write(self, data: bytes) -> int:
        """Commit the sectors of ``data`` at an open CMD25 transfer's next
        LBAs, never past the geometry: how many of them, from the first, the
        card acknowledged, as the tokens of their frames one by one would."""
        idx, lba = self._open or (None, 0)
        if idx != CMD_WRITE_MULTIPLE or lba >= self.geometry:
            return 0
        count = min(len(data) // SECTOR_SIZE, self.geometry - lba)
        self._open = (idx, lba + count)
        self.backing.write_sectors(lba, data[: count * SECTOR_SIZE])
        return count


@dataclass
class _FaultPlan:
    countdown: int
    byte_offset: int
    bit: int


class SdioBus:
    """One master, one card; applies scheduled wire faults and keeps a trace."""

    def __init__(self, card: VirtualCard, ledger, trace: bool = False):
        self.card = card
        self.ledger = ledger
        self.trace_enabled = trace
        self.transcript: list[str] = []
        self._faults: dict[str, list[_FaultPlan]] = {"cmd": [], "c2h": [], "h2c": []}

    def inject_fault(self, kind: str, nth: int = 1, byte_offset: int = 0, bit: int = 0) -> None:
        """Flip one bit in flight in the nth upcoming frame of ``kind``: "cmd"
        (command), "c2h" (card-to-host data) or "h2c" (host-to-card data).
        Boot sequences recover from any single such fault."""
        if kind not in self._faults:
            raise ValueError(f"unknown fault kind {kind!r}")
        if nth < 1:
            raise ValueError(f"fault frame number must be 1 or more, got {nth}")
        self._faults[kind].append(_FaultPlan(nth, byte_offset, bit))

    @property
    def faults_pending(self) -> bool:
        """Whether a scheduled fault has yet to fire."""
        return any(self._faults.values())

    def _due(self, kind: str) -> list[_FaultPlan]:
        """Count one frame of ``kind`` against every pending plan; the plans
        that fire on it, now off the schedule."""
        plans = self._faults[kind]
        if not plans:
            return []
        for plan in plans:
            plan.countdown -= 1
        self._faults[kind] = [plan for plan in plans if plan.countdown]
        return [plan for plan in plans if not plan.countdown]

    @staticmethod
    def _flip(raw: bytes, due: list[_FaultPlan]) -> bytes:
        """The frame as it arrives: one bit flipped for each plan due on it."""
        if not due:
            return raw
        mutated = bytearray(raw)
        for plan in due:
            mutated[plan.byte_offset % len(mutated)] ^= 1 << (plan.bit & 7)
        return bytes(mutated)

    def _log(self, direction: str, kind: str, raw: bytes) -> None:
        if not self.trace_enabled:
            return
        self.transcript.append(f"t={self.ledger.cycles} DIR={direction} KIND={kind} {raw.hex()}")

    def command(self, index: int, argument: int = 0) -> ResponseFrame | None:
        """Send one command frame; None models no response (bad CRC, silence)."""
        frame = CommandFrame(index=index, argument=argument)
        due = self._due("cmd")
        if not (due or self.trace_enabled):
            return self.card.answer(frame)
        raw = self._flip(frame.to_bytes(), due)
        self._log("H→C", "CMD", raw)
        reply = self.card.issue(raw)
        if reply is None:
            return None
        self._log("C→H", "RSP", reply)
        try:
            response, crc_ok = parse_response(reply)
        except FramingError:
            return None  # a malformed response is ignored like a bad CRC
        return response if crc_ok else None

    def request(self, index: int, argument: int = 0) -> ResponseFrame | None:
        """Send a command, resent up to ``RETRY_LIMIT`` times while no
        intact response comes back; None when the card never answers."""
        for _ in range(RETRY_LIMIT + 1):
            response = self.command(index, argument)
            if response is not None:
                return response
        return None

    def start_transfer(self, index: int, lba: int) -> bool:
        """Open the transfer of data command ``index`` (CMD18 or CMD25) at
        ``lba``; whether the card accepted it.

        Where nothing observes command frames, no transcript and no command
        fault pending, the card checks the command with no frame built;
        otherwise the command goes through :meth:`request`, so that every
        frame is counted and logged."""
        if self.trace_enabled or self._faults["cmd"]:
            response = self.request(index, lba)
            return response is not None and response.status == 0
        if not 0 <= lba <= 0xFFFFFFFF:
            raise ValueError("argument is 32 bits")
        return self.card.transfer_command(index, lba) == 0

    def stop_transfer(self) -> None:
        """Close the open data transfer with CMD12: one frame where command
        frames are observed (see :meth:`start_transfer`), else none."""
        if self.trace_enabled or self._faults["cmd"]:
            self.command(CMD_STOP_TRANSMISSION, 0)
        else:
            self.card.transfer_command(CMD_STOP_TRANSMISSION, 0)

    def _observe(self, direction: str, payload: bytes, due: list[_FaultPlan]) -> tuple[bytes, bool]:
        """A data frame as it arrives where its bytes are observed: serialized
        with its CRC16, flipped by the faults due on it, logged, and split
        into its payload and whether its CRC16 holds."""
        raw = self._flip(payload + struct.pack(">H", crc16(payload)), due)
        self._log(direction, "DAT", raw)
        payload, (crc,) = raw[:-2], struct.unpack(">H", raw[-2:])
        return payload, crc16(payload) == crc

    def fetch_block(self) -> tuple[bytes, bool] | None:
        """The next data frame of an open read transfer, with whether its
        line CRC holds; None when the card sends nothing."""
        payload = self.card.take_read(1)
        if payload is None:
            return None
        due = self._due("c2h")
        if not (due or self.trace_enabled):
            return payload, True
        return self._observe("C→H", payload, due)

    def fetch_run(self, limit: int) -> tuple[bytes, bool] | None:
        """The next sectors of an open read transfer as one buffer, with
        whether their line CRC holds; None when the card sends nothing.

        Up to ``limit`` sectors move at once where nothing observes single
        frames; while the transcript is on or a card-to-host fault is
        pending, one frame moves, through :meth:`fetch_block`, so that every
        frame is counted and logged."""
        if self.trace_enabled or self._faults["c2h"]:
            return self.fetch_block()
        run = self.card.take_read(limit)
        return None if run is None else (run, True)

    def push_block(self, payload: bytes) -> int | None:
        """Send one data frame of an open write transfer to the card."""
        due = self._due("h2c")
        if not (due or self.trace_enabled):
            return self.card.receive_write_block(payload, True)
        token = self.card.receive_write_block(*self._observe("H→C", payload, due))
        if token is not None:
            self._log("C→H", "TOK", bytes([token]))
        return token

    def push_run(self, data: bytes) -> int:
        """Send the sectors of ``data`` to an open write transfer; how many
        of them, from the first, the card acknowledged. They go as one
        buffer, in one card call, where nothing observes single frames (see
        :meth:`fetch_run`); else frame by frame until one is refused or
        unanswered. Both ways count the same sectors."""
        if not (self.trace_enabled or self._faults["h2c"]):
            return self.card.take_write(data)
        count = len(data) // SECTOR_SIZE
        for taken in range(count):
            if self.push_block(data[taken * SECTOR_SIZE : (taken + 1) * SECTOR_SIZE]) != TOKEN_CRC_OK:
                return taken
        return count
