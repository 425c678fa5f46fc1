import re

import pytest
from hypothesis import given, settings, strategies as st

from tmiusim.bus import (
    CMD_ALL_SEND_CID,
    CMD_GO_IDLE,
    CMD_READ_MULTIPLE,
    CMD_SELECT,
    CMD_SEND_CSD,
    CMD_SET_BLOCKLEN,
    CMD_STOP_TRANSMISSION,
    CMD_WRITE_MULTIPLE,
    COMMAND_FRAME_SIZE,
    R2_FRAME_SIZE,
    CardState,
    CommandFrame,
    DataBlock,
    ResponseFrame,
    SdioBus,
    _FaultPlan,
    STATUS_ILLEGAL_COMMAND,
    STATUS_OUT_OF_RANGE,
    TOKEN_CRC_ERR,
    TOKEN_CRC_OK,
    FramingError,
    VirtualCard,
    parse_command,
    parse_response,
)
from tmiusim.crypto import RUN_SECTORS, SECTOR_SIZE, SectorCipher, crc16
from tmiusim.host import build_system
from tmiusim.identity import CardIdentity
from tmiusim.tmiu import CycleLedger

from conftest import DATA_FILES, image_file_records, provision_container

DATA_FRAME_SIZE = SECTOR_SIZE + 2  # a sector, then its CRC16


@pytest.fixture()
def card(provisioned):
    identity = CardIdentity(cid=provisioned.manifest.cid, csd=provisioned.manifest.csd)
    return VirtualCard(identity, provisioned.image.clone())


_DATA_COMMANDS = (CMD_READ_MULTIPLE, CMD_WRITE_MULTIPLE)


def _to_transfer(card):
    card.issue(CommandFrame(CMD_GO_IDLE, 0).to_bytes())
    card.issue(CommandFrame(CMD_ALL_SEND_CID, 0).to_bytes())
    card.issue(CommandFrame(CMD_SELECT, 0).to_bytes())


def _write(card, lba, payload, crc_ok):
    """CMD25, one data frame and CMD12, straight to the card, whose receiver
    found the frame's CRC good or bad; the write token."""
    card.issue(CommandFrame(CMD_WRITE_MULTIPLE, lba).to_bytes())
    token = card.receive_write_block(payload, crc_ok)
    card.issue(CommandFrame(CMD_STOP_TRANSMISSION, 0).to_bytes())
    return token


@pytest.fixture()
def crc_calls(monkeypatch):
    """Every line CRC the package computes, as (name, message) pairs."""
    from tmiusim import bus, tmiu

    calls = []

    def counted(name, fn):
        return lambda data: calls.append((name, bytes(data))) or fn(data)

    for module in (bus, tmiu):
        for name in ("crc7", "crc16"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


_payloads = st.binary(min_size=512, max_size=512)
_PROPERTY = settings(max_examples=200, derandomize=True, deadline=None)


class TestFraming:
    @_PROPERTY
    @given(index=st.integers(0, 63), argument=st.integers(0, 0xFFFFFFFF))
    def test_command_round_trip(self, index, argument):
        frame = CommandFrame(index, argument)
        raw = frame.to_bytes()
        assert len(raw) == 6
        parsed, crc_ok = parse_command(raw)
        assert parsed == frame and crc_ok

    @_PROPERTY
    @given(
        index=st.integers(0, 63),
        status=st.integers(0, 0xFFFFFFFF),
        register=st.binary(min_size=16, max_size=16),
    )
    def test_response_round_trips(self, index, status, register):
        r1 = ResponseFrame(index=index, status=status)
        parsed, crc_ok = parse_response(r1.to_bytes())
        assert parsed == r1 and crc_ok
        r2 = ResponseFrame(index=0x3F, register=register)
        parsed2, crc_ok = parse_response(r2.to_bytes())
        assert parsed2 == r2 and crc_ok

    # SdioBus._observe is the bus's one data-frame encoder and checker.
    @_PROPERTY
    @given(payload=_payloads, direction=st.sampled_from(["C→H", "H→C"]))
    def test_data_round_trip(self, payload, direction):
        bus = SdioBus(None, CycleLedger(), trace=True)
        assert bus._observe(direction, payload, []) == (payload, True)
        # The frame as it crossed: the sector, then its CRC16, MSB first.
        assert bus.transcript[0].endswith(f"KIND=DAT {payload.hex()}{crc16(payload):04x}")
        assert DataBlock(payload, crc16(payload)).crc_ok

    @_PROPERTY
    @given(payload=_payloads, bit=st.integers(0, DATA_FRAME_SIZE * 8 - 1))
    def test_any_single_bit_flip_of_a_data_frame_fails_its_crc(self, payload, bit):
        arrived, crc_ok = SdioBus(None, CycleLedger())._observe("C→H", payload, [_FaultPlan(0, bit // 8, bit % 8)])
        # A flip in the CRC16 leaves the sector as it was sent.
        assert not crc_ok and len(arrived) == SECTOR_SIZE and (arrived == payload) == (bit >= SECTOR_SIZE * 8)

    @_PROPERTY
    @given(
        index=st.integers(0, 63),
        argument=st.integers(0, 0xFFFFFFFF),
        bit=st.integers(0, COMMAND_FRAME_SIZE * 8 - 1),
    )
    def test_any_single_bit_flip_of_a_command_frame_is_caught(self, index, argument, bit):
        raw = bytearray(CommandFrame(index, argument).to_bytes())
        raw[bit // 8] ^= 1 << (bit % 8)
        try:
            _, crc_ok = parse_command(bytes(raw))
        except FramingError:
            return
        assert not crc_ok

    @_PROPERTY
    @given(
        raw=st.one_of(
            st.binary(max_size=600),
            *(st.binary(min_size=n, max_size=n) for n in (COMMAND_FRAME_SIZE, R2_FRAME_SIZE, DATA_FRAME_SIZE)),
        )
    )
    def test_parsers_raise_only_framing_errors(self, raw):
        for parse in (parse_command, parse_response):
            try:
                parse(raw)
            except FramingError:
                pass

    def test_corrupted_command_crc_detected(self):
        raw = bytearray(CommandFrame(17, 1234).to_bytes())
        raw[2] ^= 0x40
        _, crc_ok = parse_command(bytes(raw))
        assert not crc_ok


class TestVirtualCard:
    def test_fresh_card_sends_cid(self, card):
        reply = card.issue(CommandFrame(CMD_ALL_SEND_CID, 0).to_bytes())
        frame, _ = parse_response(reply)
        assert frame.register == card.identity.cid
        assert card.state is CardState.STANDBY

    def test_csd_only_in_standby(self, card):
        reply = card.issue(CommandFrame(CMD_SEND_CSD, 0).to_bytes())
        frame, _ = parse_response(reply)
        assert frame.status & STATUS_ILLEGAL_COMMAND
        card.issue(CommandFrame(CMD_ALL_SEND_CID, 0).to_bytes())
        reply = card.issue(CommandFrame(CMD_SEND_CSD, 0).to_bytes())
        frame, _ = parse_response(reply)
        assert frame.register == card.identity.csd

    def test_read_while_idle_is_illegal(self, card):
        reply = card.issue(CommandFrame(CMD_READ_MULTIPLE, 0).to_bytes())
        frame, _ = parse_response(reply)
        assert frame.status & STATUS_ILLEGAL_COMMAND
        assert card._open is None

    def test_bad_crc_means_silence(self, card):
        # A CRC7 bit, then the start, direction and end bits of the frame.
        for offset, bit in ((1, 0), (0, 7), (0, 6), (5, 0)):
            raw = bytearray(CommandFrame(CMD_ALL_SEND_CID, 0).to_bytes())
            raw[offset] ^= 1 << bit
            assert card.issue(bytes(raw)) is None
            assert card.state is CardState.IDLE  # ignored, state unchanged

    def test_read_out_of_range(self, card):
        _to_transfer(card)
        reply = card.issue(CommandFrame(CMD_READ_MULTIPLE, card.geometry).to_bytes())
        frame, _ = parse_response(reply)
        assert frame.status & STATUS_OUT_OF_RANGE
        assert card._open is None

    def test_blocklen_must_be_512(self, card):
        _to_transfer(card)
        reply = card.issue(CommandFrame(CMD_SET_BLOCKLEN, 1024).to_bytes())
        frame, _ = parse_response(reply)
        assert frame.status != 0

    def test_read_block_returns_stored_ciphertext(self, card, provisioned):
        _to_transfer(card)
        card.issue(CommandFrame(CMD_READ_MULTIPLE, 0).to_bytes())
        assert card.take_read(1) == provisioned.image.read_sector(0)
        card.issue(CommandFrame(CMD_STOP_TRANSMISSION, 0).to_bytes())
        assert card.take_read(RUN_SECTORS) is None  # CMD12 closed the read
        bus = SdioBus(card, CycleLedger())
        bus.command(CMD_READ_MULTIPLE, 0)
        assert bus.fetch_block() == (provisioned.image.read_sector(0), True)
        bus.command(CMD_STOP_TRANSMISSION, 0)
        assert bus.fetch_block() is None

    def test_write_block_commits_only_on_good_crc(self, card):
        _to_transfer(card)
        lba = 20
        before = card.backing.read_sector(lba)
        payload = bytes(range(256)) * 2
        assert _write(card, lba, payload, True) == TOKEN_CRC_OK
        assert card.backing.read_sector(lba) == payload
        assert _write(card, lba, before, False) == TOKEN_CRC_ERR
        assert card.backing.read_sector(lba) == payload  # unchanged by bad write

    def test_write_to_integrity_region_is_allowed_at_bus_level(self, card, provisioned):
        # Region policy is the guard unit's job, not the card's.
        _to_transfer(card)
        lba = provisioned.layout.meta_start
        assert _write(card, lba, bytes(512), True) == TOKEN_CRC_OK

    def test_suspension_silences_everything(self, card):
        _to_transfer(card)
        card.issue(CommandFrame(CMD_READ_MULTIPLE, 0).to_bytes())
        card.suspend_io()
        card.suspend_io()  # idempotent
        assert card.take_read(1) is None
        assert _write(card, 20, bytes(512), True) is None
        assert card.issue(CommandFrame(CMD_GO_IDLE, 0).to_bytes()) is None
        card.power_cycle()
        assert not card.io_suspended
        assert card.state is CardState.IDLE

    def test_multi_block_write_advances_its_lba_up_to_the_geometry(self, card):
        total = card.geometry
        sectors = [bytes([n]) * 512 for n in range(1, 5)]
        reply = card.issue(CommandFrame(CMD_WRITE_MULTIPLE, 0).to_bytes())
        assert parse_response(reply)[0].status & STATUS_ILLEGAL_COMMAND  # not in TRANSFER
        _to_transfer(card)
        reply = card.issue(CommandFrame(CMD_WRITE_MULTIPLE, total).to_bytes())
        assert parse_response(reply)[0].status & STATUS_OUT_OF_RANGE
        assert card.receive_write_block(sectors[0], True) is None  # no open transfer
        reply = card.issue(CommandFrame(CMD_WRITE_MULTIPLE, total - 4).to_bytes())
        assert parse_response(reply)[0].status == 0
        assert card.receive_write_block(sectors[0], True) == TOKEN_CRC_OK
        assert card._open == (CMD_WRITE_MULTIPLE, total - 3)
        assert card.receive_write_block(sectors[1] + sectors[2], True) == TOKEN_CRC_OK
        # The last sector fits; the one after it finds no room and gets no token.
        assert card.receive_write_block(sectors[3] + sectors[0], True) is None
        assert card.backing.read_sectors(total - 4, 4) == b"".join(sectors)
        assert card.receive_write_block(sectors[0], True) is None

    @pytest.mark.parametrize("open_", ["none", "cmd18", "cmd25_at_the_geometry"])
    def test_a_write_run_with_no_room_in_an_open_cmd25_commits_nothing(self, card, open_):
        _to_transfer(card)
        if open_ == "cmd18":
            assert card.transfer_command(CMD_READ_MULTIPLE, 20) == 0
        elif open_ == "cmd25_at_the_geometry":
            assert card.transfer_command(CMD_WRITE_MULTIPLE, card.geometry - 1) == 0
            assert card.take_write(bytes(SECTOR_SIZE)) == 1
        before = card.backing.to_bytes()
        assert card.take_write(bytes(range(256)) * 4) == 0
        assert card.backing.to_bytes() == before

    @pytest.mark.parametrize("close", ["cmd12", "power_cycle", "suspend", "bad_crc"])
    def test_multi_block_write_ends_at_a_stop_a_power_cycle_a_suspension_or_a_bad_crc(self, card, close):
        _to_transfer(card)
        before = card.backing.read_sectors(20, 2)
        card.issue(CommandFrame(CMD_WRITE_MULTIPLE, 20).to_bytes())
        if close == "cmd12":
            reply = card.issue(CommandFrame(CMD_STOP_TRANSMISSION, 0).to_bytes())
            assert parse_response(reply)[0].status == 0
        elif close == "power_cycle":
            card.power_cycle()
        elif close == "suspend":
            card.suspend_io()
            assert card.issue(CommandFrame(CMD_WRITE_MULTIPLE, 20).to_bytes()) is None  # silent
        else:
            assert card.receive_write_block(bytes(512), False) == TOKEN_CRC_ERR
        assert card._open is None
        assert card.receive_write_block(bytes(1024), True) is None
        assert card.backing.read_sectors(20, 2) == before

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        script=st.lists(
            st.tuples(
                st.sampled_from([0, 2, 7, 9, 12, 16, 17, 18, 24, 25, 63]),
                st.sampled_from([0, 1, 512, 113, 114, 0xFFFFFFFF]),
            ),
            max_size=12,
        )
    )
    def test_card_answers_objects_as_it_answers_bytes(self, provisioned, script):
        identity = CardIdentity(cid=provisioned.manifest.cid, csd=provisioned.manifest.csd)
        raw_card = VirtualCard(identity, provisioned.image)
        obj_card = VirtualCard(identity, provisioned.image)
        for index, argument in script:
            frame = CommandFrame(index, argument)
            reply = obj_card.answer(frame)
            assert raw_card.issue(frame.to_bytes()) == (None if reply is None else reply.to_bytes())
            assert raw_card.state is obj_card.state
        assert raw_card.take_read(RUN_SECTORS) == obj_card.take_read(RUN_SECTORS)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data(), limits=st.lists(st.integers(1, 2 * RUN_SECTORS), min_size=1, max_size=20))
    def test_multi_block_reads_concatenate_to_the_stored_sectors(self, provisioned, data, limits):
        image = provisioned.image
        total = image.total_sectors
        start = data.draw(st.one_of(st.integers(0, total - 1), st.integers(max(0, total - 70), total - 1)))
        card = VirtualCard(CardIdentity(cid=provisioned.manifest.cid, csd=provisioned.manifest.csd), image)
        _to_transfer(card)
        card.issue(CommandFrame(CMD_READ_MULTIPLE, start).to_bytes())
        lba, chunks = start, []
        for limit in limits:
            chunk = card.take_read(limit)
            if chunk is None:
                assert lba == total
                break
            assert len(chunk) == min(limit, total - lba) * 512
            chunks.append(chunk)
            lba += len(chunk) // 512
            assert lba <= total
        assert b"".join(chunks) == image.read_sectors(start, lba - start)

    def test_the_card_answers_no_command_the_unit_does_not_send(self, provisioned):
        # The card models only what the unit uses: the commands a traced
        # boot, file read and file write send.
        manifest = provisioned.manifest
        host, _, bus, _ = build_system(manifest, provisioned.image.clone(), trace=True)
        assert host.run_boot(expected_entries=manifest.entries).ok
        label, blob = DATA_FILES[0]
        assert host.read_file(label) == blob
        host.write_file(label, blob[::-1])
        sent = {
            parse_command(bytes.fromhex(line.split()[-1]))[0].index
            for line in bus.transcript
            if "KIND=CMD" in line
        }
        assert {CMD_READ_MULTIPLE, CMD_WRITE_MULTIPLE, CMD_STOP_TRANSMISSION} <= sent
        identity = CardIdentity(cid=manifest.cid, csd=manifest.csd)
        answered = []
        for state in ("idle", "transfer"):
            for index in sorted(set(range(64)) - sent):
                card = VirtualCard(identity, provisioned.image)
                if state == "transfer":
                    _to_transfer(card)
                    card.answer(CommandFrame(CMD_READ_MULTIPLE, 5))
                before = (card.state, card._open)
                frame = CommandFrame(index, 5)
                # As a frame object, as bytes, and as an unobserved
                # SdioBus.start_transfer meets it.
                replies = {card.answer(frame), parse_response(card.issue(frame.to_bytes()))[0]}
                status = card.transfer_command(index, 5)
                refused = replies == {ResponseFrame(index, STATUS_ILLEGAL_COMMAND)} and status == STATUS_ILLEGAL_COMMAND
                if not refused or (card.state, card._open) != before:
                    answered.append((state, index))
        assert answered == []


class TestBus:
    def test_protocol_liveness_script(self, card, provisioned):
        bus = SdioBus(card, CycleLedger(), trace=True)
        bus.command(CMD_GO_IDLE, 0)
        cid = bus.command(CMD_ALL_SEND_CID, 0)
        assert cid.register == card.identity.cid
        assert bus.command(CMD_SELECT, 0).status == 0
        assert bus.command(CMD_READ_MULTIPLE, 0).status == 0
        assert bus.fetch_block() == (provisioned.image.read_sector(0), True)
        assert bus.command(CMD_STOP_TRANSMISSION, 0).status == 0

    def test_transcript_format(self, card):
        bus = SdioBus(card, CycleLedger(), trace=True)
        bus.command(CMD_ALL_SEND_CID, 0)
        pattern = re.compile(r"^t=\d+ DIR=(H→C|C→H) KIND=(CMD|RSP|DAT|TOK) [0-9a-f]+$")
        assert bus.transcript
        for line in bus.transcript:
            assert pattern.match(line), line

    def test_run_read_advances_an_open_multi_block_read_up_to_the_geometry(self, card, provisioned):
        image = provisioned.image
        total = card.geometry
        _to_transfer(card)
        assert card.take_read(4) is None  # no open transfer
        card.issue(CommandFrame(CMD_READ_MULTIPLE, 3).to_bytes())
        assert card.take_read(1) == image.read_sector(3)  # one sector when one is asked for
        card.issue(CommandFrame(CMD_STOP_TRANSMISSION, 0).to_bytes())
        assert card.take_read(4) is None
        card.issue(CommandFrame(CMD_READ_MULTIPLE, total - 5).to_bytes())
        assert card.take_read(3) == image.read_sectors(total - 5, 3)
        assert card.take_read(1) == image.read_sector(total - 2)
        assert card.take_read(RUN_SECTORS) == image.read_sector(total - 1)
        assert card.take_read(RUN_SECTORS) is None

    @pytest.mark.parametrize(
        "trace, pending, moves_runs",
        [(False, (), True), (True, (), False), (False, ("c2h",), False), (False, ("cmd", "h2c"), True)],
    )
    def test_runs_move_only_where_no_single_frame_is_observed(self, card, provisioned, trace, pending, moves_runs):
        bus = SdioBus(card, CycleLedger(), trace=trace)
        bus.command(CMD_GO_IDLE, 0)
        bus.command(CMD_ALL_SEND_CID, 0)
        bus.command(CMD_SELECT, 0)
        for kind in pending:
            bus.inject_fault(kind, nth=1000)
        bus.command(CMD_READ_MULTIPLE, 1)
        run, crc_ok = bus.fetch_run(8)
        assert crc_ok
        if moves_runs:
            assert run == provisioned.image.read_sectors(1, 8)
            assert bus.fetch_block() == (provisioned.image.read_sector(9), True)
        else:
            # One frame, counted against the pending fault and logged.
            assert run == provisioned.image.read_sector(1)
            assert bus.fetch_run(8) == (provisioned.image.read_sector(2), True)
        assert bus.faults_pending == bool(pending)
        assert sum("KIND=DAT" in line for line in bus.transcript) == (2 if trace else 0)

    @pytest.mark.parametrize("trace, fault", [(False, False), (True, False), (False, True)])
    def test_stop_transfer_sends_cmd12_as_one_frame_only_where_command_frames_are_observed(
        self, card, monkeypatch, trace, fault
    ):
        bus = SdioBus(card, CycleLedger(), trace=trace)
        _to_transfer(card)
        assert bus.start_transfer(CMD_READ_MULTIPLE, 5)
        if fault:
            bus.inject_fault("cmd", nth=1, byte_offset=1, bit=0)
        bus.transcript.clear()
        calls = TestSingleReadExchange._count_frames(monkeypatch)
        bus.stop_transfer()
        sent = [parse_command(bytes.fromhex(line.split()[-1]))[0] for line in bus.transcript if "KIND=CMD" in line]
        if not (trace or fault):
            assert calls == [] and card._open is None
        elif trace:
            assert calls.count("command") == 1 and card._open is None
            assert [frame.index for frame in sent] == [CMD_STOP_TRANSMISSION]
        else:
            # The fault fires on the CMD12 frame; the card ignores it, and
            # the transfer stays open.
            assert calls.count("command") == 1 and not bus.faults_pending
            assert card._open == (CMD_READ_MULTIPLE, 5)

    @pytest.mark.parametrize("trace", [False, True])
    def test_clean_file_ops_leave_no_transfer_open(self, provisioned, trace):
        host, _, _, card = build_system(provisioned.manifest, provisioned.image.clone(), trace=trace)
        assert host.run_boot(expected_entries=provisioned.manifest.entries).ok
        assert card._open is None
        for label, blob in DATA_FILES:
            assert host.read_file(label) == blob
            assert card._open is None
            host.write_file(label, blob[::-1])
            assert card._open is None
        host.write_file("new.bin", bytes(1500))
        assert card._open is None

    @pytest.mark.parametrize("state", ["idle", "transfer", "suspended"])
    def test_single_read_exchange_answers_as_its_frames_do(self, provisioned, state):
        identity = CardIdentity(cid=provisioned.manifest.cid, csd=provisioned.manifest.csd)
        sides = []
        for trace in (False, True):
            card = VirtualCard(identity, provisioned.image.clone())
            bus = SdioBus(card, CycleLedger(), trace=trace)
            if state != "idle":
                _to_transfer(card)
            if state == "suspended":
                card.suspend_io()
            lbas = (0, card.geometry - 1, card.geometry, 0xFFFFFFFF)
            results = []
            for index in _DATA_COMMANDS:
                for lba in lbas:
                    results.append((bus.start_transfer(index, lba), card._open))
                for lba in (-1, 1 << 32):
                    with pytest.raises(ValueError):
                        bus.start_transfer(index, lba)
            sides.append((results, card.state))
            commands = sum("KIND=CMD" in line for line in bus.transcript)
            # A silent card is asked four times, a refusing card once.
            sent = len(_DATA_COMMANDS) * len(lbas)
            assert commands == (0 if not trace else 4 * sent if state == "suspended" else sent)
        assert sides[0] == sides[1]
        if state == "transfer":
            last = provisioned.image.total_sectors - 1
            # A refused command leaves the transfer opened before it.
            expected = [
                (accepted, (index, opened))
                for index in _DATA_COMMANDS
                for accepted, opened in ((True, 0), (True, last), (False, last), (False, last))
            ]
            assert sides[0][0] == expected
        else:
            assert sides[0][0] == [(False, None)] * len(results)

    @pytest.mark.parametrize("nth", [0, -1, -4])
    def test_fault_on_frame_below_one_is_rejected(self, card, nth):
        bus = SdioBus(card, CycleLedger())
        for kind in ("cmd", "c2h", "h2c"):
            with pytest.raises(ValueError):
                bus.inject_fault(kind, nth=nth)
        assert not bus.faults_pending

    def test_single_command_fault_converges(self, provisioned):
        identity = CardIdentity(cid=provisioned.manifest.cid, csd=provisioned.manifest.csd)
        runs = []
        for fault in (False, True):
            card = VirtualCard(identity, provisioned.image.clone())
            bus = SdioBus(card, CycleLedger(), trace=True)
            if fault:
                bus.inject_fault("cmd", nth=2, byte_offset=3, bit=5)
            # The script resends a lost command once, so one fault is absorbed.
            bus.command(CMD_GO_IDLE, 0)
            if bus.command(CMD_ALL_SEND_CID, 0) is None:
                bus.command(CMD_ALL_SEND_CID, 0)
            bus.command(CMD_SELECT, 0)
            out = []
            for lba in range(3):  # CMD18, one data frame and CMD12 each
                bus.command(CMD_READ_MULTIPLE, lba)
                out.append(bus.fetch_block())
                bus.command(CMD_STOP_TRANSMISSION, 0)
            assert card.state is CardState.TRANSFER
            runs.append((out, [line.split(" ", 1)[1] for line in bus.transcript]))
        (clean, stripped), (out, faulted) = runs
        assert out == clean
        it = iter(faulted)
        assert all(any(entry == other for other in it) for entry in stripped), (
            "clean transcript is not a subsequence of the faulted one"
        )


class TestCrcCost:
    """Counts, not timings: which line CRCs each path computes."""

    def test_a_faulted_write_frame_costs_the_crc_sent_and_the_cards_check(self, provisioned, crc_calls):
        host, _, bus, _ = build_system(provisioned.manifest, provisioned.image.clone())
        assert host.run_boot(expected_entries=provisioned.manifest.entries).ok
        blob = bytes(range(256)) * 2
        bus.inject_fault("h2c", nth=1, byte_offset=7, bit=3)
        host.write_file("crc.bin", blob)
        assert not bus.faults_pending
        # The first data frame of the write is serialized and checked at the
        # card, which refuses it; the retry and every other frame cross as bytes.
        assert [name for name, _ in crc_calls] == ["crc16", "crc16"]
        (_, sent), (_, received) = crc_calls
        assert bytes(a ^ b for a, b in zip(sent, received)) == bytes(7) + b"\x08" + bytes(504)
        assert host.read_file("crc.bin") == blob
        assert len(crc_calls) == 2

    def test_a_faulted_block_is_rechecked_and_fails_its_crc(self, provisioned, crc_calls):
        manifest = provisioned.manifest
        clean, _, _, _ = build_system(manifest, provisioned.image.clone())
        clean_bytes = clean.run_boot(expected_entries=manifest.entries).report.bytes_moved
        host, _, bus, _ = build_system(manifest, provisioned.image.clone())
        bus.inject_fault("c2h", nth=10, byte_offset=100, bit=1)
        outcome = host.run_boot(expected_entries=manifest.entries)
        assert outcome.ok
        # The card serializes the one faulted frame, the unit rechecks what
        # arrived; every other frame crosses as an object.
        assert [name for name, _ in crc_calls] == ["crc16", "crc16"]
        (_, sent), (_, received) = crc_calls
        assert bytes(a ^ b for a, b in zip(sent, received)) == bytes(100) + b"\x02" + bytes(411)
        assert crc16(received) != crc16(sent)
        assert outcome.report.bytes_moved == clean_bytes + 512  # one retried sector


    @pytest.mark.parametrize("sectors", [1, 2, 30, 64, 65, 66, 129, 130, 200])
    def test_clean_untraced_boot_makes_one_keystream_call_per_run(self, sectors, monkeypatch, crc_calls):
        result = provision_container(sectors)
        runs = []
        crypt = SectorCipher.crypt
        monkeypatch.setattr(
            SectorCipher, "crypt", lambda cipher, first, data: runs.append(len(data) // 512) or crypt(cipher, first, data)
        )
        host, _, _, _ = build_system(result.manifest, result.image.clone())
        assert host.run_boot(expected_entries=result.manifest.entries).ok
        # The MBR, the container's first sector, then its runs.
        assert len(runs) == 2 + -(-(sectors - 1) // RUN_SECTORS)
        assert runs[:2] == [1, 1] and sum(runs[2:]) == sectors - 1
        assert crc_calls == []


class TestSingleReadExchange:
    """Counts, not timings: what a mediated CMD18 read or CMD25 write builds
    and calls."""

    @pytest.fixture()
    def booted(self, provisioned):
        host, _, bus, _ = build_system(provisioned.manifest, provisioned.image.clone())
        assert host.run_boot(expected_entries=provisioned.manifest.entries).ok
        return host, bus

    @staticmethod
    def _count_frames(monkeypatch) -> list[str]:
        """Record every frame object the bus builds and every command sent."""
        from tmiusim import bus as bus_module

        calls = []

        def counted(name, fn):
            return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

        for name in ("CommandFrame", "ResponseFrame", "DataBlock"):
            monkeypatch.setattr(bus_module, name, counted(name, getattr(bus_module, name)))
        monkeypatch.setattr(SdioBus, "command", counted("command", SdioBus.command))
        return calls

    def test_clean_untraced_boot_and_file_ops_compute_no_crc_and_build_no_frame(
        self, provisioned, crc_calls, monkeypatch
    ):
        host, _, _, _ = build_system(provisioned.manifest, provisioned.image.clone())
        assert host.run_boot(expected_entries=provisioned.manifest.entries).ok
        frames = self._count_frames(monkeypatch)  # a boot sends its identification commands as frames
        label, blob = DATA_FILES[1]
        assert host.read_file(label) == blob
        host.write_file(label, blob[::-1])
        host.write_file("new.bin", blob)
        assert host.read_file(label) == blob[::-1] and host.read_file("new.bin") == blob
        assert crc_calls == frames == []

    @pytest.mark.parametrize("kind", ["cmd", "c2h"])
    @pytest.mark.parametrize("nth", [1, 2, 7, 12])
    def test_a_pending_fault_fires_on_its_frame_and_the_read_recovers(self, booted, monkeypatch, kind, nth):
        # The table's first sector, the rest of the table and the six-sector
        # file are three mediated reads, each a run of data frames and a run
        # of one tag frame: 13 card-to-host frames, and 12 command frames,
        # a CMD18 and a CMD12 per run.
        host, bus = booted
        counted, fired = [], []
        due = bus._due

        def counting_due(frame_kind):
            plans = due(frame_kind)
            if frame_kind == kind:
                counted.append(frame_kind)
                if plans:
                    fired.append(len(counted))
            return plans

        monkeypatch.setattr(bus, "_due", counting_due)
        bus.inject_fault(kind, nth=nth, byte_offset=3, bit=2)
        label, blob = DATA_FILES[1]
        assert host.read_file(label) == blob
        assert fired == [nth]
        assert not bus.faults_pending


class TestRunFrameShape:
    def test_file_ops_move_as_runs_of_one_frame_per_sector(self, provisioned):
        manifest = provisioned.manifest
        layout = manifest.layout
        host, _, bus, card = build_system(manifest, provisioned.image.clone(), trace=True)
        assert host.run_boot(expected_entries=manifest.entries).ok
        del bus.transcript[:]
        blob = bytes(range(256)) * 5
        host.write_file("shape.bin", blob)
        assert host.read_file("shape.bin") == blob

        # (data command, LBA, data frames, their directions) per transfer.
        runs, closed = [], True
        for line in bus.transcript:
            _, direction, kind, raw = line.split()
            raw = bytes.fromhex(raw)
            if kind == "KIND=CMD":
                frame, _ = parse_command(raw)
                if frame.index == CMD_STOP_TRANSMISSION:
                    assert not closed
                else:
                    assert closed and frame.index in (CMD_READ_MULTIPLE, CMD_WRITE_MULTIPLE)
                    runs.append([frame.index, frame.argument, 0, set()])
                closed = frame.index == CMD_STOP_TRANSMISSION
            elif kind == "KIND=DAT":
                assert len(raw) == DATA_FRAME_SIZE
                runs[-1][2] += 1
                runs[-1][3].add(direction)
        assert closed

        def read(lba, count):
            # The data sectors, then each tag sector they share, once.
            meta_lba, _ = layout.tag_location(lba)
            last_meta_lba, _ = layout.tag_location(lba + count - 1)
            return [(CMD_READ_MULTIPLE, lba, count), (CMD_READ_MULTIPLE, meta_lba, last_meta_lba - meta_lba + 1)]

        def write(lba, count):
            _, tags = read(lba, count)
            return [(CMD_WRITE_MULTIPLE, lba, count), tags, (CMD_WRITE_MULTIPLE,) + tags[1:]]

        start = layout.data_start
        table = read(start, 1) + read(start + 1, 3)  # the first sector alone, then the rest
        record = next(r for r in image_file_records(card.backing, manifest) if r.label == "shape.bin")
        extent = record.lbas(start)
        expected = (
            table + write(extent.start, len(extent)) + write(start, 4)
            + table + read(extent.start, len(extent))
        )
        assert [tuple(run[:3]) for run in runs] == expected
        for index, _, _, directions in runs:
            assert directions == {"DIR=C→H" if index == CMD_READ_MULTIPLE else "DIR=H→C"}
