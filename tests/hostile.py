"""Test-only cards that lie on the wire, and a system built around one.

Each is a :class:`VirtualCard` subclass that answers honestly until its
lie is switched on, so a test can let the unit boot and then turn hostile.
"""

from __future__ import annotations

from tmiusim.bus import CMD_READ_MULTIPLE, CMD_WRITE_MULTIPLE, ResponseFrame, SdioBus, VirtualCard
from tmiusim.crypto import SECTOR_SIZE
from tmiusim.host import BootHost
from tmiusim.identity import CardIdentity, DeviceIdentity
from tmiusim.tmiu import Tmiu


class MiscountingCard(VirtualCard):
    """A card that, once ``lie`` is set, sends a CMD18 transfer the wrong
    number of sectors. "short" ends each transfer after two sectors, then
    stays silent until the next data command. Asked for more than one
    sector at once, "long" sends one more, "empty" an empty buffer, and
    "ragged" the sectors asked for with a byte cut off."""

    lie: str | None = None
    _sent: int | None = None  # sectors of the open CMD18 transfer sent so far

    def open_transfer(self, idx, lba):
        self._sent = 0 if idx == CMD_READ_MULTIPLE else None
        return super().open_transfer(idx, lba)

    def take_read(self, limit):
        if self.lie is None or self._sent is None:
            return super().take_read(limit)
        if self.lie == "short":
            run = super().take_read(min(limit, 2 - self._sent)) if self._sent < 2 else None
            self._sent += len(run or b"") // SECTOR_SIZE
            return run
        if limit == 1:
            return super().take_read(1)
        if self.lie == "long":
            return super().take_read(limit + 1)
        return b"" if self.lie == "empty" else super().take_read(limit)[:-1]


class ByteCuttingCard(VirtualCard):
    """A card that, once ``cut_from`` is set, sends every sector read from
    that LBA on with its last byte cut off."""

    cut_from: int | None = None

    def take_read(self, limit):
        _, lba = self._open or (None, 0)
        run = super().take_read(limit)
        if run is None or self.cut_from is None:
            return run
        return b"".join(
            run[at : at + SECTOR_SIZE - (lba + at // SECTOR_SIZE >= self.cut_from)]
            for at in range(0, len(run), SECTOR_SIZE)
        )


class ResponseCuttingCard(VirtualCard):
    """A card that, once ``cut`` is set, answers every CMD18 frame, intact
    or not, with an accepting response a byte short. Only a command sent as
    a frame can meet the lie."""

    cut = False

    def issue(self, raw):
        reply = super().issue(raw)
        if self.cut and raw[0] & 0x3F == CMD_READ_MULTIPLE:
            return ResponseFrame(CMD_READ_MULTIPLE).to_bytes()[:-1]
        return reply


class LbaShiftingCard(VirtualCard):
    """A card that, once ``shift_from`` is set, answers a CMD18 read of each
    sector at or past that LBA with the sector after it: whole sectors, the
    count asked for, each from a different LBA than asked."""

    shift_from: int | None = None

    def take_read(self, limit):
        idx, lba = self._open or (None, 0)
        run = super().take_read(limit)
        if run is None or self.shift_from is None or idx != CMD_READ_MULTIPLE:
            return run
        return b"".join(
            self.backing.read_sector(min(at + 1, self.geometry - 1))
            if at >= self.shift_from
            else run[(at - lba) * SECTOR_SIZE : (at - lba + 1) * SECTOR_SIZE]
            for at in range(lba, lba + len(run) // SECTOR_SIZE)
        )


class RefusingCard(VirtualCard):
    """A card that, once ``refused`` is set to a command index, answers that
    command with the R1 status ``status``, or, where ``status`` is None,
    not at all; a data command only at an LBA in ``lbas``. A suspended card
    stays silent."""

    refused: int | None = None
    status: int | None = None
    lbas: range = range(1 << 32)

    def _refuses(self, idx, argument):
        return idx == self.refused and argument in self.lbas and not self.io_suspended

    def answer(self, frame):
        if self._refuses(frame.index, frame.argument):
            return None if self.status is None else ResponseFrame(frame.index, self.status)
        return super().answer(frame)

    def open_transfer(self, idx, lba):
        return self.status if self._refuses(idx, lba) else super().open_transfer(idx, lba)


# The SD specification's R1 bit for a general or unknown error.
STATUS_ERROR = 1 << 19


class ErrorBitCard(VirtualCard):
    """A card that, once ``flagged`` is set to a command index, carries that
    command out as an honest card would, opening its transfer if it is a
    data command, yet sets the R1 error bits ``status`` in the answer that
    accepts it: as a frame or through an unobserved ``open_transfer``.
    ``flagged_at`` lists the (index, argument) of each answer so flagged."""

    flagged: int | None = None
    status = STATUS_ERROR

    def __init__(self, *args):
        super().__init__(*args)
        self.flagged_at: list[tuple[int, int]] = []

    def _flag(self, idx, argument, status):
        if status == 0 and idx == self.flagged:
            self.flagged_at.append((idx, argument))
            return self.status
        return status

    def answer(self, frame):
        # A data command's frame is answered through open_transfer, which
        # has set the bits already; an accepting answer is flagged once.
        reply = super().answer(frame)
        if reply is None or reply.register is not None:
            return reply
        return ResponseFrame(reply.index, self._flag(frame.index, frame.argument, reply.status))

    def open_transfer(self, idx, lba):
        return self._flag(idx, lba, super().open_transfer(idx, lba))


class StallingCard(VirtualCard):
    """A card that, once ``acked`` is set to k, acknowledges only the first
    k sectors of each CMD25 transfer opened at an LBA in ``lbas``: it
    commits them, then answers nothing until the transfer ends, whether the
    sectors come as frames or as one run. ``stalls`` counts the transfers
    it so cut short."""

    acked: int | None = None
    lbas: range = range(1 << 32)
    stalls = 0
    _left: int | None = None  # sectors the open CMD25 transfer may still commit

    def open_transfer(self, idx, lba):
        status = super().open_transfer(idx, lba)
        stalling = status == 0 and idx == CMD_WRITE_MULTIPLE and lba in self.lbas
        self._left = self.acked if stalling else None
        return status

    def take_write(self, data):
        if self._left is None:
            return super().take_write(data)
        count = min(self._left, len(data) // SECTOR_SIZE)
        taken = super().take_write(data[: count * SECTOR_SIZE]) if count else 0
        self._left -= taken
        self.stalls += taken < len(data) // SECTOR_SIZE
        return taken


class SuspensionIgnoringCard(VirtualCard):
    """A card that ignores ``suspend_io`` and goes on answering. ``calls``
    lists in order each suspension and the name of each command or data
    call that reaches the card, so a test can tell what came after one."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls: list[str] = []

    def suspend_io(self):
        self.calls.append("suspend_io")


def _recorded(name):
    def method(self, *args):
        self.calls.append(name)
        return getattr(VirtualCard, name)(self, *args)

    return method


for _name in ("issue", "answer", "stop_transfer", "open_transfer", "take_read", "take_write", "receive_write_block"):
    setattr(SuspensionIgnoringCard, _name, _recorded(_name))
del _name


def hostile_system(provisioned, card_class, trace):
    manifest = provisioned.manifest
    card = card_class(CardIdentity(cid=manifest.cid, csd=manifest.csd), provisioned.image.clone())
    tmiu = Tmiu(manifest.anchors, DeviceIdentity(dna=manifest.dna))
    bus = SdioBus(card, ledger=tmiu.ledger, trace=trace)
    return BootHost(tmiu, bus), tmiu, bus, card
