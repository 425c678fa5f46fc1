"""One differential state machine over the boot and the file store.

Two systems are built from one drawn image and card class: one untraced, and
one traced that drops its host's kept file table before every op. A model of
the file store holds, for each label, the versions a read may return (None:
no such file). After each step the twins agree on all but the transcript,
each read returned a version the model allows, only documented classes were
raised, and no key showed.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule
from hypothesis.stateful import run_state_machine_as_test

from tmiusim.bus import CMD_ALL_SEND_CID, CMD_READ_MULTIPLE, CMD_SELECT, CMD_SEND_CSD, CMD_SET_BLOCKLEN
from tmiusim.bus import CMD_WRITE_MULTIPLE, STATUS_ILLEGAL_COMMAND, STATUS_OUT_OF_RANGE, DataBlock, VirtualCard
from tmiusim.crypto import DIGEST_SIZE, RUN_SECTORS, SECTOR_SIZE
from tmiusim.host import HostError
from tmiusim.image import CapacityError, FileRecord, build_file_table, in_use_data_lbas, manifest_keys
from tmiusim.image import parse_file_table, read_file_table
from tmiusim.tmiu import SECTOR_TRANSFER_CYCLES, Denial, LockdownError, PolicyViolation, ProtocolCrcError, Stage

from conftest import DATA_FILES, provision_container
from hostile import ByteCuttingCard, ErrorBitCard, LbaShiftingCard, MiscountingCard, RefusingCard, StallingCard
from hostile import hostile_system

LABELS = [label for label, _ in DATA_FILES] + ["new.bin", "big.bin", "missing.bin"]
RAISED = (LockdownError, ProtocolCrcError, PolicyViolation, HostError, FileNotFoundError, CapacityError)
BIT = st.integers(0, 7)
FLIP = st.tuples(st.integers(0, 199), st.integers(0, 511), BIT)  # (boot sector, byte, bit)
# The lies the frame path meets as the run path does. A frame asks for one
# sector, so a CMD18 run too long, empty or ragged, and a response cut
# short, are left to tests/test_tmiu.py.
CARDS = [VirtualCard, MiscountingCard, ByteCuttingCard, LbaShiftingCard, RefusingCard, ErrorBitCard, StallingCard]
COMMANDS = [CMD_ALL_SEND_CID, CMD_SEND_CSD, CMD_SELECT, CMD_SET_BLOCKLEN, CMD_READ_MULTIPLE, CMD_WRITE_MULTIPLE]


class TwinSystems(RuleBasedStateMachine):
    @initialize(
        sectors=st.integers(1, 200),
        # One container in four has a bit flipped for the first boot.
        flip=st.sampled_from([None, None, None, FLIP]).flatmap(lambda flip: st.none() if flip is None else flip),
        card_class=st.sampled_from(CARDS),
    )
    def build(self, sectors, flip, card_class):
        # 200 free data sectors: room for a file of 80 sectors and its next version.
        result = provision_container(sectors, data_slack_sectors=200)
        self.manifest, self.layout = result.manifest, result.layout
        self.keys = [key.hex() for key in manifest_keys(result.manifest)]
        self.systems = [hostile_system(result, card_class, trace) for trace in (False, True)]
        self.sectors = sectors
        # Of each twin's last boot: (bytes, [(offset, CRC verdict) of each block]); and the LBA a card cut from.
        self.forwarded, self.cut = [None, None], None
        for i, (_, tmiu, _, _) in enumerate(self.systems):
            self._record_boots(i, tmiu)
        self.files = {label: {None} for label in LABELS} | {label: {blob} for label, blob in DATA_FILES}
        self.logged = 0  # transcript lines of the traced twin scanned for keys
        flips = [] if flip is None else [(self.layout.boot_start + flip[0] % self.layout.boot_sectors, *flip[1:])]
        for lba, offset, bit in flips:
            self._flip(lba, offset, bit)
        self._both(lambda host, *_: host.run_boot(expected_entries=self.manifest.entries).outcome_class)
        for lba, offset, bit in flips:  # the first boot alone meets the flip
            self._flip(lba, offset, bit)

    def _record_boots(self, i, tmiu):
        verify = tmiu.verify_mbr_and_image

        def recording(bus, sink):
            forwarded, blocks = self.forwarded[i] = bytearray(), []
            self.cut = getattr(self.systems[0][3], "cut_from", None)

            def tee(item):
                sink(item)
                if isinstance(item, DataBlock):
                    blocks.append((len(forwarded), item.crc_ok))
                    item = item.payload
                forwarded.extend(item)

            return verify(bus, sink=tee)

        tmiu.verify_mbr_and_image = recording

    def _flip(self, lba: int, offset: int, bit: int) -> None:
        """One bit of a sector flipped offline, on both cards."""
        for *_, card in self.systems:
            sector = bytearray(card.backing.read_sector(lba))
            sector[offset] ^= 1 << bit
            card.backing.write_sector(lba, bytes(sector))

    @property
    def operational(self) -> bool:
        return self.systems[0][1].stage is Stage.OPERATIONAL

    def _no_key(self, text: str) -> None:
        assert not any(key in text for key in self.keys), "a key shows in a transcript, report or error text"

    def _both(self, op):
        """``op(host, tmiu, bus, card)`` on each twin, the traced twin's kept
        file table dropped first: (what it returned, what it raised), the
        same for both. Any class but a documented one fails the run."""
        self.systems[1][0]._table = (b"", [])
        outcomes = []
        for system in self.systems:
            try:
                outcomes.append((op(*system), None))
            except RAISED as exc:
                self._no_key(str(exc))
                outcomes.append((None, exc))
        (value, exc), (twin_value, twin_exc) = outcomes
        assert (value, type(exc), str(exc)) == (twin_value, type(twin_exc), str(twin_exc))
        return value, exc

    @rule(checked=st.booleans())
    def reboot(self, checked):
        """A power cycle and a boot, with or without the host's check of the
        entries against the manifest."""
        expected = self.manifest.entries if checked else None
        self.forwarded, self.cut = [None, None], None
        self._both(lambda host, *_: host.reboot(expected_entries=expected).outcome_class)

    @rule(label=st.sampled_from(LABELS), size=st.none() | st.integers(0, 80 * SECTOR_SIZE))
    def file_op(self, label, size):
        """A read of ``label``, or a write of ``size`` bytes to it."""
        if size is None:
            blob, exc = self._both(lambda host, *_: host.read_file(label))
            if exc is None or isinstance(exc, FileNotFoundError):
                assert blob in self.files[label]
                self.files[label] = {blob}
            return
        blob = random.Random(f"{label}:{size}").randbytes(size)
        operational = self.operational
        _, exc = self._both(lambda host, *_: host.write_file(label, blob))
        if exc is None:
            self.files[label] = {blob}
        elif operational and not isinstance(exc, (HostError, CapacityError)):
            # README: a write that fails after its data run is not undone;
            # the table names the old version or the new one.
            self.files[label].add(blob)

    @precondition(lambda self: self.operational)
    @rule(write=st.booleans(), extent=st.integers(0, 2))
    def across_the_edge(self, write, extent):
        # Past the end, across the start and across the end of the partition.
        start, end = self.layout.data_start, self.layout.meta_start
        lba, count = [(end, 1), (start - 1, 2), (end - 2, 3)][extent]
        _, exc = self._both(
            lambda _, tmiu, bus, __: tmiu.mediate_write(bus, lba, bytes(count * SECTOR_SIZE))
            if write
            else tmiu.mediate_read(bus, lba, count)
        )
        assert isinstance(exc, (PolicyViolation, LockdownError))

    @rule(in_tag=st.booleans(), pick=st.integers(0, 1 << 20))
    def tamper(self, in_tag, pick):
        """One bit of an in-use data sector or of its tag slot, offline."""
        try:
            lbas = in_use_data_lbas(self.systems[0][3].backing, self.manifest)
        except ValueError:  # a tampered table; the next read of it locks down
            lbas = list(range(self.layout.data_start, self.layout.data_start + 4))  # the fixture's table
        lba = lbas[pick % len(lbas)]
        offset = pick % SECTOR_SIZE
        if in_tag:
            lba, slot = self.layout.tag_location(lba)
            offset = slot + pick % DIGEST_SIZE
        self._flip(lba, offset, (pick >> 9) % 8)

    @precondition(lambda self: not self.systems[0][3].io_suspended)
    @rule()
    def suspend(self):
        for *_, card in self.systems:
            card.suspend_io()

    # (kind, frame, byte, bit): up to 160 frames on, mid-table or mid-file for the next op.
    @rule(fault=st.tuples(st.sampled_from(["cmd", "c2h", "h2c"]), st.integers(1, 160), st.integers(0, 513), BIT))
    def wire_fault(self, fault):
        for _, _, bus, _ in self.systems:
            bus.inject_fault(*fault)

    @precondition(lambda self: self.operational)
    @rule(turn=st.integers(0, 7))
    def retable(self, turn):
        """The table rewritten behind the host, through the unit: its labels
        rotated by ``turn``, and its last record dropped where ``turn`` is odd."""
        start, sectors = self.layout.data_start, self.layout.data_sectors
        plans = []  # each twin's (old label, new record) pairs, once it has read the table

        def op(_, tmiu, bus, __):
            table = read_file_table(lambda lba, count=1: tmiu.mediate_read(bus, lba, count), start, sectors)
            records = parse_file_table(table)
            if records:
                labels = [r.label for r in records]
                labels = labels[turn % len(labels) :] + labels[: turn % len(labels)]
                moved = [(r.label, FileRecord(label, r.offset, r.length)) for label, r in zip(labels, records)]
                plans.append(moved[: len(moved) - turn % 2])
                tmiu.mediate_write(bus, start, build_file_table([r for _, r in plans[-1]], len(table) // SECTOR_SIZE))

        _, exc = self._both(op)
        if plans:
            renamed = {label: {None} for label in LABELS}
            for was, record in plans[0]:
                renamed[record.label] = self.files[was] - {None}
                assert renamed[record.label], f"the table names {was}, which the model holds absent"
            self.files = {label: renamed[label] | (self.files[label] if exc else set()) for label in LABELS}

    @precondition(lambda self: type(self.systems[0][3]) is not VirtualCard)
    @rule(
        on=st.booleans(),
        lba=st.integers(0, 1 << 16),
        command=st.sampled_from(COMMANDS),
        status=st.sampled_from([None, STATUS_ILLEGAL_COMMAND, STATUS_OUT_OF_RANGE]),
        region=st.integers(0, 2),
        acked=st.integers(1, 3),
    )
    def lie(self, on, lba, command, status, region, acked):
        """The card's lie switched on, with what its class reads of the draws,
        or off, so that a reboot can succeed again."""
        layout = self.layout
        lbas = [range(1 << 32), range(layout.data_start, layout.meta_start), range(layout.meta_start, 1 << 32)][region]
        lie = {
            MiscountingCard: {"lie": "short"},
            ByteCuttingCard: {"cut_from": lba % layout.total_sectors},
            LbaShiftingCard: {"shift_from": lba % layout.total_sectors},
            RefusingCard: {"refused": command, "status": status, "lbas": lbas},
            ErrorBitCard: {"flagged": command},
            StallingCard: {"acked": acked, "lbas": lbas},
        }.get(type(self.systems[0][3]), {})
        for *_, card in self.systems:
            for name, value in lie.items():
                if on:
                    setattr(card, name, value)
                else:  # back to the class's honest default
                    vars(card).pop(name, None)

    def _state(self, i):
        host, tmiu, bus, card = self.systems[i]
        ledger = tmiu.ledger
        clock = ((ledger.cycles, ledger.bytes_moved), tmiu.stage_history, tmiu.report().to_text(), self.forwarded[i])
        # The card's registers and its lie's public record, not a lying card's own bookkeeping.
        registers = {name: value for name, value in vars(card).items() if name == "_open" or name[0] != "_"}
        registers["backing"] = card.backing.to_bytes()
        state = (tmiu.stage, tmiu.reason, tmiu.fault_lba, tmiu.leds, host.phase, host.loaded_entries, bus._faults)
        return clock, state, registers

    @invariant()
    def twins_agree(self):
        (clock, *state), (twin_clock, *twin_state) = self._state(0), self._state(1)
        assert state == twin_state
        start = self.layout.boot_start
        if clock == twin_clock or self.cut is None or not start + 1 < self.cut < start + self.sectors:
            assert clock == twin_clock
            return
        # README limit: a boot denied for a sector cut short strictly inside
        # a run of the container. Traced, the k whole sectors before it in
        # that run are charged and forwarded, and the last of them goes out
        # poisoned; untraced, the run is refused whole, and the sector
        # before it goes out poisoned.
        (cycles, moved), history, _, (forwarded, blocks) = clock
        (twin_cycles, twin_moved), twin_history, _, (twin_forwarded, twin_blocks) = twin_clock
        k = (twin_moved - moved) // SECTOR_SIZE
        tmiu = self.systems[0][1]
        assert (tmiu.stage, tmiu.reason) == (Stage.LOCKDOWN, Denial.BUS_ERROR) and 0 < k < RUN_SECTORS
        assert (twin_cycles - cycles, twin_moved - moved) == (k * SECTOR_TRANSFER_CYCLES, k * SECTOR_SIZE)
        assert len(twin_forwarded) == (self.cut - start) * SECTOR_SIZE == len(forwarded) + k * SECTOR_SIZE
        assert twin_forwarded.startswith(forwarded[:-1])
        assert twin_blocks == [(offset + k * SECTOR_SIZE, ok) for offset, ok in blocks]
        assert [stage for stage, *_ in history] == [stage for stage, *_ in twin_history]

    @invariant()
    def no_key(self):
        (_, tmiu, _, _), (_, traced, bus, _) = self.systems
        self._no_key("\n".join([*bus.transcript[self.logged :], tmiu.report().to_text(), repr(tmiu), repr(traced)]))
        self.logged = len(bus.transcript)


def test_the_twins_agree_with_each_other_and_with_the_model():
    run_state_machine_as_test(
        TwinSystems, settings=settings(max_examples=100, stateful_step_count=25, derandomize=True, deadline=None)
    )


def _replay(*steps, card_class=VirtualCard) -> TwinSystems:
    """A run of the machine through ``steps``, each a rule's name and its
    arguments, and the invariants after each."""
    machine = TwinSystems()
    machine.build(sectors=30, flip=None, card_class=card_class)
    for name, *arguments in steps:
        getattr(machine, name)(*arguments)
        machine.twins_agree()
        machine.no_key()
    return machine


def _lie(lba=0, command=CMD_READ_MULTIPLE, status=None, region=0):
    return ("lie", True, lba, command, status, region, 1)


BOOT, READ, WRITE = ("reboot", True), ("file_op", "keys.db", None), ("file_op", "new.bin", 3000)
BIG_READ, BIG_WRITE = ("file_op", "big.bin", None), ("file_op", "big.bin", 35_000)
OK, BUS = (Stage.OPERATIONAL, None), (Stage.LOCKDOWN, Denial.BUS_ERROR)
TAG = (Stage.LOCKDOWN, Denial.SECTOR_TAG_MISMATCH)
# Each run: the card class, the unit's (stage, reason) at its end, and the
# steps after the first boot. In the 30-sector container the boot stream
# starts at LBA 1 and the data partition at LBA 31.
PINNED = {
    # A 69-sector file: the fault fires on the data frame of its 31st
    # sector, after the table's 6 frames and 30 more. The unit resends that
    # frame in a new transfer from its sector, and the read goes on.
    "a_fault_mid_file": (VirtualCard, OK, BIG_WRITE, ("wire_fault", ("c2h", 37, 100, 3)), BIG_READ),
    # A flipped bit in etc/config.txt's first sector, which neither read meets.
    "an_unread_tampered_sector": (VirtualCard, OK, ("tamper", False, 4), ("file_op", "var/log.bin", None), READ),
    "a_suspended_card": (VirtualCard, BUS, ("across_the_edge", False, 0), ("suspend",), READ, READ),
    "a_tampered_tag_then_a_write_fault": (
        VirtualCard, TAG, BIG_WRITE, ("tamper", True, 57), BIG_READ, ("wire_fault", ("h2c", 9, 0, 0)), BIG_WRITE
    ),
    "tables_rewritten_behind_the_host": (
        VirtualCard, OK, READ, ("retable", 1), READ, ("file_op", "keys.db", 900), BOOT, ("retable", 2), READ,
        ("file_op", "new.bin", 600),
    ),
    # The lies of tests/test_tmiu.py's hostile cards, met by both twins.
    "short_transfer_at_boot": (MiscountingCard, BUS, _lie(), BOOT),
    "short_transfer_in_a_read": (MiscountingCard, BUS, _lie(), READ),
    "short_transfer_in_a_write": (MiscountingCard, BUS, _lie(), ("file_op", "keys.db", 900)),
    "cut_sector_in_the_mbr": (ByteCuttingCard, BUS, _lie(0), BOOT),
    "cut_sector_in_the_boot_stream": (ByteCuttingCard, BUS, _lie(1), BOOT),
    # README limit: the second of the container's sectors is charged and
    # forwarded traced, and left out untraced with the rest of its run.
    "cut_sector_mid_boot_run": (ByteCuttingCard, BUS, _lie(3), BOOT),
    "cut_sector_in_a_read": (ByteCuttingCard, BUS, _lie(31), READ),
    "shifted_lba_in_a_read": (LbaShiftingCard, TAG, _lie(31), READ),
    "silent_cmd9_at_boot": (RefusingCard, BUS, _lie(command=CMD_SEND_CSD), BOOT),
    "refused_data_run": (RefusingCard, BUS, _lie(0, CMD_WRITE_MULTIPLE, STATUS_OUT_OF_RANGE, 1), WRITE),
    "refused_tag_run": (RefusingCard, BUS, _lie(0, CMD_WRITE_MULTIPLE, STATUS_OUT_OF_RANGE, 2), WRITE),
    "error_bit_on_cmd18": (ErrorBitCard, BUS, _lie(), READ),
    "stalled_write": (StallingCard, OK, _lie(), WRITE, ("file_op", "new.bin", None)),
}


@pytest.mark.parametrize("run", PINNED.values(), ids=PINNED)
def test_a_pinned_run(run):
    card_class, want, *steps = run
    (_, tmiu, _, card), _ = _replay(*steps, card_class=card_class).systems
    assert (tmiu.stage, tmiu.reason) == want
    assert getattr(card, "stalls", 1) > 0  # a stalled write completes after resends

