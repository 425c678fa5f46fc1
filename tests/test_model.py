"""One differential state machine over the boot and the file store.

Two systems are built from one drawn image and card class: one untraced, and
one traced that drops its host's kept file table before every op. A model of
the file store holds, for each label, the versions a read may return (None:
no such file). After each step the twins agree on all but the transcript,
each read returned a version the model allows, only documented classes were
raised, no key showed, a unit in lockdown held nothing open, and each twin's
ledger and report read what the cost formula charges for what it did.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import seed, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule
from hypothesis.stateful import run_state_machine_as_test

from tmiusim.bus import CMD_ALL_SEND_CID, CMD_READ_MULTIPLE, CMD_SELECT, CMD_SEND_CSD, CMD_SET_BLOCKLEN
from tmiusim.bus import CMD_STOP_TRANSMISSION, CMD_WRITE_MULTIPLE, STATUS_BLOCK_LEN_ERROR, STATUS_ILLEGAL_COMMAND
from tmiusim.bus import STATUS_OUT_OF_RANGE, DataBlock, VirtualCard
from tmiusim.crypto import DIGEST_SIZE, SECTOR_SIZE
from tmiusim.host import HostError
from tmiusim.image import CapacityError, FileRecord, ImageFormatError, boot_image_length, build_file_table
from tmiusim.image import in_use_data_lbas, manifest_keys, parse_file_table, read_file_table
from tmiusim.tmiu import Denial, LockdownError, PolicyViolation, ProtocolCrcError, Stage

from conftest import DATA_FILES, provision_container
from hostile import ByteCuttingCard, ErrorBitCard, LbaShiftingCard, MiscountingCard, RefusingCard, StallingCard
from hostile import hostile_system
from oracles import PROM_BYTES, PROM_CYCLES, access_terms, boot_terms, cost, rate_mbps, to_ms

LABELS = [label for label, _ in DATA_FILES] + ["new.bin", "big.bin", "missing.bin"]
TABLE = 4  # the fixture's file table, in sectors
IN_BOOT, AFTER = 0, 1  # the parts of the ledger charged at KeyGenImageAuth, and after hand-over
RAISED = (LockdownError, ProtocolCrcError, PolicyViolation, HostError, FileNotFoundError, CapacityError)
BIT = st.integers(0, 7)
FLIP = st.tuples(st.integers(0, 199), st.integers(0, 511), BIT)  # (boot sector, byte, bit)
# The lies the frame path meets as the run path does. A frame asks for one
# sector, so a CMD18 run too long, empty or ragged, and a response cut
# short, are left to tests/test_tmiu.py.
CARDS = [VirtualCard, MiscountingCard, ByteCuttingCard, LbaShiftingCard, RefusingCard, ErrorBitCard, StallingCard]
COMMANDS = [
    CMD_ALL_SEND_CID, CMD_SEND_CSD, CMD_SELECT, CMD_SET_BLOCKLEN, CMD_READ_MULTIPLE, CMD_WRITE_MULTIPLE,
    CMD_STOP_TRANSMISSION,
]


# A fixed seed: with derandomize alone the run is seeded from this class's
# source, so that an edit of any of its docstrings or code would change what
# it draws.
@seed(6)
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
        self.manifest, self.layout, self.image = result.manifest, result.layout, result.image
        self.keys = [key.hex() for key in manifest_keys(result.manifest)]
        self.systems = [hostile_system(result, card_class, trace) for trace in (False, True)]
        # Of each twin's last boot: (bytes, [(offset, CRC verdict) of each block]).
        self.forwarded = [None, None]
        # Of each twin since power-on: [transfers, checks] charged IN_BOOT and AFTER.
        self.clock = [None, None]
        for i, system in enumerate(self.systems):
            self._record(i, system)
        self.files = {label: {None} for label in LABELS} | {label: {blob} for label, blob in DATA_FILES}
        self.logged = 0  # transcript lines of the traced twin scanned for keys
        flips = [] if flip is None else [(self.layout.boot_start + flip[0] % self.layout.boot_sectors, *flip[1:])]
        for lba, offset, bit in flips:
            self._flip(lba, offset, bit)
        self._both(lambda host, *_: host.run_boot(expected_entries=self.manifest.entries).outcome_class)
        for lba, offset, bit in flips:  # the first boot alone meets the flip
            self._flip(lba, offset, bit)

    def _record(self, i, system):
        """Twin ``i`` wrapped so that the model charges by the cost formula each
        boot, each mediated access by how it ended, each stall and each frame
        resent; ``self.moved`` counts the sectors of completed accesses."""
        _, tmiu, bus, card = system
        power_on, verify, observe = tmiu.power_on, tmiu.verify_mbr_and_image, bus._observe

        def charge(part, transfers, checks=0):
            self.clock[i][part][0] += transfers
            self.clock[i][part][1] += checks

        def powering_on():
            self.clock[i] = [[0, 0], [0, 0]]
            return power_on()

        def booting(bus, sink):
            forwarded, blocks = self.forwarded[i] = bytearray(), []

            def tee(item):
                sink(item)
                if isinstance(item, DataBlock):
                    blocks.append((len(forwarded), item.crc_ok))
                    item = item.payload
                forwarded.extend(item)

            stage = verify(bus, sink=tee)
            try:
                reached_end = boot_image_length(forwarded) == len(forwarded)
            except ImageFormatError:
                reached_end = False
            # The MBR was read unless the wire failed first: it was judged or passed.
            mbr_read = tmiu.leds[2] or tmiu.reason is Denial.MBR_MISMATCH
            charge(IN_BOOT, *boot_terms(mbr_read, len(forwarded) // SECTOR_SIZE, reached_end))
            return stage

        def access(call, write):
            def mediated(bus, lba, arg=1):
                sectors, stalls = len(arg) // SECTOR_SIZE if write else arg, getattr(card, "stalls", 0)
                try:
                    value = call(bus, lba, arg)
                except ProtocolCrcError:
                    charge(AFTER, *access_terms(write, sectors, mismatch_at=tmiu.fault_lba - lba))
                    raise
                finally:
                    charge(AFTER, getattr(card, "stalls", 0) - stalls)
                charge(AFTER, *access_terms(write, sectors))
                self.moved[i][write] += sectors
                return value

            return mediated

        def observing(direction, payload, due):
            payload, crc_ok = observe(direction, payload, due)
            if not crc_ok and len(payload) == SECTOR_SIZE:  # the unit resends it
                charge(AFTER if tmiu.stage is Stage.OPERATIONAL else IN_BOOT, 1)
            return payload, crc_ok

        tmiu.power_on, tmiu.verify_mbr_and_image, bus._observe = powering_on, booting, observing
        tmiu.mediate_read, tmiu.mediate_write = access(tmiu.mediate_read, False), access(tmiu.mediate_write, True)

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
        self.moved = [[0, 0], [0, 0]]
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
        self.forwarded = [None, None]
        self._both(lambda host, *_: host.reboot(expected_entries=expected).outcome_class)

    @rule(label=st.sampled_from(LABELS), size=st.none() | st.integers(0, 80 * SECTOR_SIZE))
    def file_op(self, label, size):
        """A read of ``label``, or a write of ``size`` bytes to it."""
        if size is None:
            blob, exc = self._both(lambda host, *_: host.read_file(label))
            if exc is None or isinstance(exc, FileNotFoundError):
                assert blob in self.files[label]
                self.files[label] = {blob}
                # The table, then the file's sectors.
                assert self.moved == [[TABLE + -(-len(blob or b"") // SECTOR_SIZE), 0]] * 2
            return
        blob = random.Random(f"{label}:{size}").randbytes(size)
        operational = self.operational
        _, exc = self._both(lambda host, *_: host.write_file(label, blob))
        if exc is None:
            self.files[label] = {blob}
            # The table read, then the file's sectors and the table written.
            assert self.moved == [[TABLE, -(-size // SECTOR_SIZE) + TABLE]] * 2
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
            lbas = list(range(self.layout.data_start, self.layout.data_start + TABLE))
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
        # The card's registers and its lie's public record, not a lying card's own bookkeeping.
        registers = {name: value for name, value in vars(card).items() if name == "_open" or name[0] != "_"}
        registers["backing"] = card.backing.to_bytes()
        unit = (tmiu.stage_history, tmiu.report().to_text(), self.forwarded[i])
        return unit, registers, host.phase, host.loaded_entries, bus._faults

    @invariant()
    def twins_agree(self):
        assert self._state(0) == self._state(1)

    @invariant()
    def lockdown_is_closed(self):
        """A unit in lockdown holds no key, its card is suspended with no
        transfer open, a fault LBA names a tag mismatch alone, and a boot
        denied in stage 3 forwarded nothing or ends in one block that fails
        its CRC."""
        for (_, tmiu, _, card), forwarded in zip(self.systems, self.forwarded):
            if tmiu.stage is not Stage.LOCKDOWN:
                continue
            assert tmiu._keys is None and card.io_suspended and card._open is None
            assert (tmiu.fault_lba is not None) == (tmiu.reason is Denial.SECTOR_TAG_MISMATCH)
            if tmiu.stage_history[-2][0] is Stage.KEYGEN_IMAGE_AUTH:
                output, blocks = forwarded
                assert blocks == ([(len(output) - SECTOR_SIZE, False)] if output else [])

    @invariant()
    def the_clock(self):
        """Each twin's report reads the PROM load, and the terms the model
        charged since power-on, as the cost formula prices them, exactly:
        the boot's part at KeyGenImageAuth, and all of it in the totals."""
        for (_, tmiu, _, _), (boot, after) in zip(self.systems, self.clock):
            boot_cycles, boot_bytes = cost(*boot)
            cycles, nbytes = cost(boot[0] + after[0], boot[1] + after[1])
            cycles, nbytes = PROM_CYCLES + cycles, PROM_BYTES + nbytes
            r = tmiu.report()
            assert (r.cycles, r.bytes_moved, r.prom_ms, r.boot_ms, r.total_ms, r.rate_mbps) == (
                cycles, nbytes, to_ms(PROM_CYCLES), to_ms(boot_cycles), to_ms(cycles),
                rate_mbps(boot_cycles, boot_bytes),
            )

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
    arguments, and every invariant after each."""
    machine = TwinSystems()
    machine.build(sectors=30, flip=None, card_class=card_class)
    for name, *arguments in steps:
        getattr(machine, name)(*arguments)
        for check in machine.invariants:
            check.function(machine)
    return machine


def _lie(lba=0, command=CMD_READ_MULTIPLE, status=None, region=0):
    return ("lie", True, lba, command, status, region, 1)


BOOT, READ, WRITE = ("reboot", True), ("file_op", "keys.db", None), ("file_op", "new.bin", 3000)
BIG_READ, BIG_WRITE = ("file_op", "big.bin", None), ("file_op", "big.bin", 35_000)
# A run's end: the last stage the unit entered before any lockdown, its
# denial and fault LBA, the offset of the poisoned block the last boot
# forwarded, whether the card's image changed, and whether a wire fault is
# still pending. Up, up and changed, a bus error after hand-over, and one
# in stage 2.
UP, CHANGED = (Stage.OPERATIONAL, None, None, None, False, False), (Stage.OPERATIONAL, None, None, None, True, False)
BUS = (Stage.OPERATIONAL, Denial.BUS_ERROR, None, None, False, False)
ID_BUS = (Stage.MEMORY_AUTH, Denial.BUS_ERROR, None, None, False, False)


def _denied_boot(reason=Denial.BUS_ERROR, poisoned=None):
    return Stage.KEYGEN_IMAGE_AUTH, reason, None, poisoned, False, False


# Each run: the card class, its end, and the steps after the first boot. In
# the 30-sector container the boot stream starts at LBA 1 and the data
# partition at LBA 31.
PINNED = {
    # A 69-sector file: the fault fires on the data frame of its 31st
    # sector, after the table's 6 frames and 30 more. The unit resends that
    # frame in a new transfer from its sector, and the read goes on.
    "a_fault_mid_file": (VirtualCard, CHANGED, BIG_WRITE, ("wire_fault", ("c2h", 37, 100, 3)), BIG_READ),
    # The boot's second data frame is resent, charged to the boot; the command fault is free.
    "faults_at_boot": (VirtualCard, UP, ("wire_fault", ("cmd", 3, 0, 0)), ("wire_fault", ("c2h", 2, 9, 1)), BOOT),
    # One card-to-host frame failing its CRC costs one resend wherever it
    # falls, and nothing else: the MBR, the container's first sector, its
    # last sector (held until the stream is checked), the tag frame of a
    # read's first data run, and a write's tag read.
    "a_c2h_fault_on_the_mbr": (VirtualCard, UP, ("wire_fault", ("c2h", 1, 37, 1)), BOOT),
    "a_c2h_fault_on_the_container_start": (VirtualCard, UP, ("wire_fault", ("c2h", 2, 74, 2)), BOOT),
    "a_c2h_fault_on_the_held_last_sector": (VirtualCard, UP, ("wire_fault", ("c2h", 31, 511, 7)), BOOT),
    "a_c2h_fault_on_a_read_tag": (VirtualCard, UP, ("wire_fault", ("c2h", 2, 0, 0)), READ),
    "a_c2h_fault_on_a_write_tag_read": (VirtualCard, CHANGED, ("wire_fault", ("c2h", 7, 259, 3)), WRITE),
    # The write's second data frame is resent, and the write goes on.
    "a_write_fault": (VirtualCard, CHANGED, ("wire_fault", ("h2c", 2, 0, 0)), WRITE),
    # The table's first frame fails, and so does each of its three resends.
    "a_frame_failing_four_times": (VirtualCard, BUS, *[("wire_fault", ("c2h", n, 0, 0)) for n in range(1, 5)], READ),
    # A flipped bit in etc/config.txt's first sector, which neither read meets.
    "an_unread_tampered_sector": (VirtualCard, CHANGED, ("tamper", False, 4), ("file_op", "var/log.bin", None), READ),
    "a_suspended_card": (VirtualCard, BUS, ("across_the_edge", False, 0), ("suspend",), READ, READ),
    # The write fault never fires: the unit is in lockdown before the write.
    "a_tampered_tag_then_a_write_fault": (
        VirtualCard, (Stage.OPERATIONAL, Denial.SECTOR_TAG_MISMATCH, 88, None, True, True),
        BIG_WRITE, ("tamper", True, 57), BIG_READ, ("wire_fault", ("h2c", 9, 0, 0)), BIG_WRITE,
    ),
    "tables_rewritten_behind_the_host": (
        VirtualCard, CHANGED, READ, ("retable", 1), READ, ("file_op", "keys.db", 900), BOOT, ("retable", 2), READ,
        ("file_op", "new.bin", 600),
    ),
    # Each lie of a hostile card, met by both twins.
    "short_transfer_at_boot": (MiscountingCard, _denied_boot(poisoned=2 * SECTOR_SIZE), _lie(), BOOT),
    "short_transfer_in_a_read": (MiscountingCard, BUS, _lie(), READ),
    "short_transfer_in_a_write": (MiscountingCard, BUS, _lie(), ("file_op", "keys.db", 900)),
    "cut_sector_in_the_mbr": (ByteCuttingCard, _denied_boot(), _lie(0), BOOT),
    "cut_sector_in_the_boot_stream": (ByteCuttingCard, _denied_boot(), _lie(1), BOOT),
    # The container's first sector is forwarded, and the second, the
    # whole run before the cut, goes out poisoned.
    "cut_sector_mid_boot_run": (ByteCuttingCard, _denied_boot(poisoned=SECTOR_SIZE), _lie(3), BOOT),
    "cut_sector_in_a_read": (ByteCuttingCard, BUS, _lie(31), READ),
    "shifted_lba_in_the_mbr": (LbaShiftingCard, _denied_boot(Denial.MBR_MISMATCH), _lie(0), BOOT),
    # The container's first sector deciphers to no header: refused, forwarded poisoned.
    "shifted_lba_at_the_container_start": (
        LbaShiftingCard, _denied_boot(Denial.IMAGE_DIGEST_MISMATCH, poisoned=0), _lie(1), BOOT
    ),
    "shifted_lba_in_the_boot_stream": (
        LbaShiftingCard, _denied_boot(Denial.IMAGE_DIGEST_MISMATCH, poisoned=29 * SECTOR_SIZE), _lie(15), BOOT
    ),
    # The fault LBA is the one asked for.
    "shifted_lba_in_a_read": (
        LbaShiftingCard, (Stage.OPERATIONAL, Denial.SECTOR_TAG_MISMATCH, 31, None, False, False), _lie(31), READ
    ),
    "silent_cmd2_at_boot": (RefusingCard, ID_BUS, _lie(command=CMD_ALL_SEND_CID), BOOT),
    "silent_cmd9_at_boot": (RefusingCard, ID_BUS, _lie(command=CMD_SEND_CSD), BOOT),
    "refused_cmd7_at_boot": (RefusingCard, ID_BUS, _lie(command=CMD_SELECT, status=STATUS_ILLEGAL_COMMAND), BOOT),
    "refused_cmd16_at_boot": (
        RefusingCard, ID_BUS, _lie(command=CMD_SET_BLOCKLEN, status=STATUS_BLOCK_LEN_ERROR), BOOT
    ),
    "refused_cmd18_at_boot": (RefusingCard, _denied_boot(), _lie(status=STATUS_OUT_OF_RANGE), BOOT),
    "silent_cmd18_in_a_read": (RefusingCard, BUS, _lie(region=1), READ),
    # The table's first sector has moved when its tag run is refused: the read charges nothing.
    "silent_tag_cmd18_in_a_read": (RefusingCard, BUS, _lie(region=2), READ),
    "refused_data_run": (RefusingCard, BUS, _lie(0, CMD_WRITE_MULTIPLE, STATUS_OUT_OF_RANGE, 1), WRITE),
    # The data run commits outside the old extent before the tag run is refused.
    "refused_tag_run": (
        RefusingCard, (Stage.OPERATIONAL, Denial.BUS_ERROR, None, None, True, False),
        _lie(0, CMD_WRITE_MULTIPLE, STATUS_OUT_OF_RANGE, 2), WRITE,
    ),
    # The unit never reads CMD12's answer: silent, the card leaves the last
    # transfer of a read, a boot or a write open, and the next data command
    # opens another.
    "refused_cmd12": (RefusingCard, UP, _lie(command=CMD_STOP_TRANSMISSION), READ),
    "refused_cmd12_at_boot": (RefusingCard, UP, _lie(command=CMD_STOP_TRANSMISSION), BOOT),
    "refused_cmd12_in_a_write": (RefusingCard, CHANGED, _lie(command=CMD_STOP_TRANSMISSION), WRITE),
    "error_bit_on_cmd7": (ErrorBitCard, ID_BUS, _lie(command=CMD_SELECT), BOOT),
    "error_bit_on_cmd16": (ErrorBitCard, ID_BUS, _lie(command=CMD_SET_BLOCKLEN), BOOT),
    "error_bit_on_cmd18_at_boot": (ErrorBitCard, _denied_boot(), _lie(), BOOT),
    "error_bit_on_cmd18": (ErrorBitCard, BUS, _lie(), READ),
    "error_bit_on_cmd25": (ErrorBitCard, BUS, _lie(command=CMD_WRITE_MULTIPLE), WRITE),
    "flagged_cmd12": (ErrorBitCard, UP, _lie(command=CMD_STOP_TRANSMISSION), READ),
    "flagged_cmd12_at_boot": (ErrorBitCard, UP, _lie(command=CMD_STOP_TRANSMISSION), BOOT),
    "flagged_cmd12_in_a_write": (ErrorBitCard, CHANGED, _lie(command=CMD_STOP_TRANSMISSION), WRITE),
    "stalled_write": (StallingCard, CHANGED, _lie(), WRITE, ("file_op", "new.bin", None)),
}
# A lying card's record at the end of its run: each answer flagged, once
# for a command the unit checks, and at each CMD12 for the one it does not
# (a read's six, a boot's three, a write's ten); the transfer a silent CMD12
# left open; the writes stalled.
RECORDS = {
    "refused_cmd12": {"_open": (CMD_READ_MULTIPLE, 246)},
    "refused_cmd12_at_boot": {"_open": (CMD_READ_MULTIPLE, 31)},
    "refused_cmd12_in_a_write": {"_open": (CMD_WRITE_MULTIPLE, 246)},
    "error_bit_on_cmd7": {"flagged_at": [(CMD_SELECT, 0)]},
    "error_bit_on_cmd16": {"flagged_at": [(CMD_SET_BLOCKLEN, SECTOR_SIZE)]},
    "error_bit_on_cmd18_at_boot": {"flagged_at": [(CMD_READ_MULTIPLE, 0)]},
    "error_bit_on_cmd18": {"flagged_at": [(CMD_READ_MULTIPLE, 31)]},
    "error_bit_on_cmd25": {"flagged_at": [(CMD_WRITE_MULTIPLE, 45)]},
    "flagged_cmd12": {"_open": None, "flagged_at": [(CMD_STOP_TRANSMISSION, 0)] * 6},
    "flagged_cmd12_at_boot": {"_open": None, "flagged_at": [(CMD_STOP_TRANSMISSION, 0)] * 3},
    "flagged_cmd12_in_a_write": {"_open": None, "flagged_at": [(CMD_STOP_TRANSMISSION, 0)] * 10},
    "stalled_write": {"stalls": 9},
}


def _end(machine):
    """The end of the untraced twin's run, as a pinned run states it."""
    (_, tmiu, bus, card), _ = machine.systems
    stages = [stage for stage, *_ in tmiu.stage_history]
    _, blocks = machine.forwarded[0] or (b"", [])
    return (
        stages[-2] if stages[-1] is Stage.LOCKDOWN else stages[-1], tmiu.reason, tmiu.fault_lba,
        blocks[0][0] if blocks else None, card.backing.to_bytes() != machine.image.to_bytes(), bus.faults_pending,
    )


@pytest.mark.parametrize("name", PINNED)
def test_a_pinned_run(name):
    card_class, want, *steps = PINNED[name]
    machine = _replay(*steps, card_class=card_class)
    card = machine.systems[0][3]
    record = RECORDS.get(name, {})
    assert (_end(machine), {attr: getattr(card, attr) for attr in record}) == (want, record)


# Data frames of a boot, a write of new.bin and its read-back: card to host,
# the MBR, the 30 boot sectors, and the table, tag and file sectors of the
# write and the read; host to card, the write's file, tag and table sectors.
DATA_FRAMES = {"c2h": 54, "h2c": 13}


@pytest.mark.parametrize("kind, nth", [(kind, n) for kind, count in DATA_FRAMES.items() for n in range(1, count + 2)])
def test_one_data_frame_failing_its_crc_costs_one_resend_wherever_it_falls(kind, nth):
    # The clock charges the one frame resent, and the read-back meets what
    # the model wrote. A fault due past the last frame never fires.
    machine = _replay(("wire_fault", (kind, nth, nth * 37 % 514, nth % 8)), BOOT, WRITE, ("file_op", "new.bin", None))
    assert _end(machine) == CHANGED[:-1] + (nth > DATA_FRAMES[kind],)
