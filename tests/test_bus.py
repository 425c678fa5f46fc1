import functools
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from tmiusim.bus import (
    CMD_ALL_SEND_CID,
    CMD_GO_IDLE,
    CMD_READ_MULTIPLE,
    CMD_READ_SINGLE,
    CMD_SELECT,
    CMD_SEND_CSD,
    CMD_SET_BLOCKLEN,
    CMD_WRITE_SINGLE,
    COMMAND_FRAME_SIZE,
    DATA_FRAME_SIZE,
    R2_FRAME_SIZE,
    CardState,
    CommandFrame,
    DataBlock,
    ResponseFrame,
    SdioBus,
    STATUS_ILLEGAL_COMMAND,
    STATUS_OUT_OF_RANGE,
    TOKEN_CRC_ERR,
    TOKEN_CRC_OK,
    FramingError,
    VirtualCard,
    parse_command,
    parse_data,
    parse_response,
)
from tmiusim.crypto import DIGEST_SIZE, RUN_SECTORS, SectorCipher, crc16
from tmiusim.host import build_system
from tmiusim.identity import CardIdentity
from tmiusim.image import CapacityError
from tmiusim.tmiu import LockdownError, ProtocolCrcError, Stage, TmiuError

from conftest import DATA_FILES, image_file_records, make_provision, provision_container


@pytest.fixture()
def card(provisioned):
    identity = CardIdentity(cid=provisioned.manifest.cid, csd=provisioned.manifest.csd)
    return VirtualCard(identity, provisioned.image.clone())


_DATA_COMMANDS = (CMD_READ_SINGLE, CMD_READ_MULTIPLE, CMD_WRITE_SINGLE)


def _to_transfer(card):
    card.issue(CommandFrame(CMD_GO_IDLE, 0).to_bytes())
    card.issue(CommandFrame(CMD_ALL_SEND_CID, 0).to_bytes())
    card.issue(CommandFrame(CMD_SELECT, 0).to_bytes())


def _write(card, lba, payload, crc_ok):
    """CMD24 then one data frame, straight to the card, whose receiver found
    its CRC good or bad; the write token."""
    card.issue(CommandFrame(CMD_WRITE_SINGLE, lba).to_bytes())
    return card.receive_write_block(payload, crc_ok)


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

    @_PROPERTY
    @given(payload=_payloads, crc=st.integers(0, 0xFFFF))
    def test_data_round_trip(self, payload, crc):
        block = DataBlock(payload, crc16(payload))
        assert parse_data(block.to_bytes()) == block
        assert block.crc_ok
        given_crc = DataBlock(payload=payload, crc=crc)
        assert parse_data(given_crc.to_bytes()) == given_crc

    @_PROPERTY
    @given(payload=_payloads, bit=st.integers(0, DATA_FRAME_SIZE * 8 - 1))
    def test_any_single_bit_flip_of_a_data_frame_fails_its_crc(self, payload, bit):
        raw = bytearray(DataBlock(payload, crc16(payload)).to_bytes())
        raw[bit // 8] ^= 1 << (bit % 8)
        assert not parse_data(bytes(raw)).crc_ok

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
        for parse in (parse_command, parse_response, parse_data):
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
        reply = card.issue(CommandFrame(CMD_READ_SINGLE, 0).to_bytes())
        frame, _ = parse_response(reply)
        assert frame.status & STATUS_ILLEGAL_COMMAND

    def test_bad_crc_means_silence(self, card):
        # A CRC7 bit, then the start, direction and end bits of the frame.
        for offset, bit in ((1, 0), (0, 7), (0, 6), (5, 0)):
            raw = bytearray(CommandFrame(CMD_ALL_SEND_CID, 0).to_bytes())
            raw[offset] ^= 1 << bit
            assert card.issue(bytes(raw)) is None
            assert card.state is CardState.IDLE  # ignored, state unchanged

    def test_read_out_of_range(self, card):
        _to_transfer(card)
        reply = card.issue(CommandFrame(CMD_READ_SINGLE, card.geometry).to_bytes())
        frame, _ = parse_response(reply)
        assert frame.status & STATUS_OUT_OF_RANGE

    def test_blocklen_must_be_512(self, card):
        _to_transfer(card)
        reply = card.issue(CommandFrame(CMD_SET_BLOCKLEN, 1024).to_bytes())
        frame, _ = parse_response(reply)
        assert frame.status != 0

    def test_read_block_returns_stored_ciphertext(self, card, provisioned):
        _to_transfer(card)
        card.issue(CommandFrame(CMD_READ_SINGLE, 0).to_bytes())
        assert card.take_read(RUN_SECTORS) == provisioned.image.read_sector(0)
        assert card.take_read(RUN_SECTORS) is None  # a single read closes itself
        bus = SdioBus(card)
        bus.command(CMD_READ_SINGLE, 0)
        assert bus.fetch_block() == (provisioned.image.read_sector(0), True)
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
        card.issue(CommandFrame(CMD_READ_SINGLE, 0).to_bytes())
        card.suspend_io()
        card.suspend_io()  # idempotent
        assert card.take_read(1) is None
        assert _write(card, 20, bytes(512), True) is None
        assert card.issue(CommandFrame(CMD_GO_IDLE, 0).to_bytes()) is None
        card.power_cycle()
        assert not card.io_suspended
        assert card.state is CardState.IDLE

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


class TestBus:
    def test_protocol_liveness_script(self, card, provisioned):
        bus = SdioBus(card, trace=True)
        bus.command(CMD_GO_IDLE, 0)
        cid = bus.command(CMD_ALL_SEND_CID, 0)
        assert cid.register == card.identity.cid
        assert bus.command(CMD_SELECT, 0).status == 0
        assert bus.command(CMD_READ_SINGLE, 0).status == 0
        assert bus.fetch_block() == (provisioned.image.read_sector(0), True)

    def test_transcript_format(self, card):
        bus = SdioBus(card, trace=True)
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
        card.issue(CommandFrame(CMD_READ_SINGLE, 3).to_bytes())
        assert card.take_read(4) == image.read_sector(3)  # a single-block read sends one sector
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
        bus = SdioBus(card, trace=trace)
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

    @pytest.mark.parametrize("state", ["idle", "transfer", "suspended"])
    def test_single_read_exchange_answers_as_its_frames_do(self, provisioned, state):
        identity = CardIdentity(cid=provisioned.manifest.cid, csd=provisioned.manifest.csd)
        sides = []
        for trace in (False, True):
            card = VirtualCard(identity, provisioned.image.clone())
            bus = SdioBus(card, trace=trace)
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

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data(), limits=st.lists(st.integers(1, 2 * RUN_SECTORS), min_size=1, max_size=8))
    def test_draining_runs_yields_the_same_bytes_with_or_without_the_transcript(
        self, provisioned, data, limits
    ):
        image = provisioned.image
        total = image.total_sectors
        start = data.draw(st.integers(0, total - 1))
        identity = CardIdentity(cid=provisioned.manifest.cid, csd=provisioned.manifest.csd)
        drained = []
        for trace in (False, True):
            bus = SdioBus(VirtualCard(identity, image), trace=trace)
            bus.command(CMD_GO_IDLE, 0)
            bus.command(CMD_ALL_SEND_CID, 0)
            bus.command(CMD_SELECT, 0)
            bus.command(CMD_READ_MULTIPLE, start)
            out = bytearray()
            for step in range(total + 1):
                fetched = bus.fetch_run(limits[step % len(limits)])
                if fetched is None:
                    break
                run, crc_ok = fetched
                assert crc_ok
                out += run
            drained.append(bytes(out))
        assert drained[0] == drained[1] == image.read_sectors(start, total - start)

    @pytest.mark.parametrize("nth", [0, -1, -4])
    def test_fault_on_frame_below_one_is_rejected(self, card, nth):
        bus = SdioBus(card)
        for kind in ("cmd", "c2h", "h2c"):
            with pytest.raises(ValueError):
                bus.inject_fault(kind, nth=nth)
        assert not bus.faults_pending

    def _scripted_read(self, bus):
        bus.command(CMD_GO_IDLE, 0)
        bus.command(CMD_ALL_SEND_CID, 0)
        bus.command(CMD_SELECT, 0)
        out = []
        for lba in range(3):
            resp = bus.command(CMD_READ_SINGLE, lba)
            if resp is None:
                continue
            fetched = bus.fetch_block()
            if fetched is None or not fetched[1]:
                bus.command(CMD_READ_SINGLE, lba)
                fetched = bus.fetch_block()
            out.append(fetched[0])
        return out

    def test_single_command_fault_converges(self, provisioned):
        identity = CardIdentity(cid=provisioned.manifest.cid, csd=provisioned.manifest.csd)
        clean_bus = SdioBus(VirtualCard(identity, provisioned.image.clone()), trace=True)
        clean = self._scripted_read(clean_bus)

        card = VirtualCard(identity, provisioned.image.clone())
        bus = SdioBus(card, trace=True)
        bus.inject_fault("cmd", nth=2, byte_offset=3, bit=5)
        # The script retries a lost command once, so one fault is absorbed.
        bus.command(CMD_GO_IDLE, 0)
        if bus.command(CMD_ALL_SEND_CID, 0) is None:
            bus.command(CMD_ALL_SEND_CID, 0)
        bus.command(CMD_SELECT, 0)
        out = []
        for lba in range(3):
            bus.command(CMD_READ_SINGLE, lba)
            out.append(bus.fetch_block()[0])
        assert out == clean
        assert card.state is CardState.TRANSFER

        stripped = [line.split(" ", 1)[1] for line in clean_bus.transcript]
        faulted = [line.split(" ", 1)[1] for line in bus.transcript]
        it = iter(faulted)
        assert all(any(entry == other for other in it) for entry in stripped), (
            "clean transcript is not a subsequence of the faulted one"
        )

    def test_single_data_fault_converges(self, provisioned):
        identity = CardIdentity(cid=provisioned.manifest.cid, csd=provisioned.manifest.csd)
        clean = self._scripted_read(
            SdioBus(VirtualCard(identity, provisioned.image.clone()), trace=False)
        )
        card = VirtualCard(identity, provisioned.image.clone())
        bus = SdioBus(card)
        bus.inject_fault("c2h", nth=1, byte_offset=100, bit=1)
        assert self._scripted_read(bus) == clean
        assert card.backing.to_bytes() == provisioned.image.to_bytes()

    def test_write_fault_leaves_sector_unchanged_then_retry_commits(self, provisioned):
        identity = CardIdentity(cid=provisioned.manifest.cid, csd=provisioned.manifest.csd)
        card = VirtualCard(identity, provisioned.image.clone())
        bus = SdioBus(card)
        bus.command(CMD_GO_IDLE, 0)
        bus.command(CMD_ALL_SEND_CID, 0)
        bus.command(CMD_SELECT, 0)
        lba = provisioned.layout.data_start
        before = card.backing.read_sector(lba)
        payload = b"\x5a" * 512
        bus.inject_fault("h2c", nth=1, byte_offset=50, bit=2)
        bus.command(CMD_WRITE_SINGLE, lba)
        token = bus.push_block(payload)
        assert token == TOKEN_CRC_ERR
        assert card.backing.read_sector(lba) == before
        bus.command(CMD_WRITE_SINGLE, lba)
        assert bus.push_block(payload) == TOKEN_CRC_OK
        assert card.backing.read_sector(lba) == payload


class TestCrcCost:
    """Counts, not timings: which line CRCs each path computes."""

    def test_clean_untraced_boot_and_read_compute_no_crc(self, provisioned, crc_calls):
        host, _, _, _ = build_system(provisioned.manifest, provisioned.image.clone())
        assert host.run_boot(expected_entries=provisioned.manifest.entries).ok
        label, blob = DATA_FILES[0]
        assert host.read_file(label) == blob
        host.write_file("crc.bin", blob)
        assert host.read_file("crc.bin") == blob
        assert crc_calls == []

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
    """Counts, not timings: what a mediated CMD17 read or CMD24 write builds
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

    def test_clean_untraced_read_builds_no_frame(self, booted, monkeypatch):
        host, _ = booted
        calls = self._count_frames(monkeypatch)
        label, blob = DATA_FILES[1]
        assert host.read_file(label) == blob
        assert calls == []

    def test_clean_untraced_write_builds_no_frame(self, booted, monkeypatch):
        host, _ = booted
        calls = self._count_frames(monkeypatch)
        label, blob = DATA_FILES[1]
        host.write_file(label, blob[::-1])
        assert calls == []
        assert host.read_file(label) == blob[::-1]

    @pytest.mark.parametrize("kind", ["cmd", "c2h"])
    @pytest.mark.parametrize("nth", [1, 2, 7, 14])
    def test_a_pending_fault_fires_on_its_frame_and_the_read_recovers(self, booted, monkeypatch, kind, nth):
        # The file is six sectors behind a one-sector table: seven mediated
        # reads, each a data and a tag sector, so 14 frames of either kind.
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


def _faulted_io_run(provisioned, fault, trace):
    """Fixture boot, one file write and read with ``fault`` scheduled
    beforehand: (outcomes, whether the fault fired, report text, final
    image). A command fault's retry charges no cycles, so only whether it
    fired tells the two paths apart."""
    manifest = provisioned.manifest
    host, tmiu, bus, card = build_system(manifest, provisioned.image.clone(), trace=trace)
    bus.inject_fault(*fault)
    outcome = host.run_boot(expected_entries=manifest.entries)
    events = [outcome.outcome_class]
    if outcome.ok:
        blob = bytes(range(251)) * 3
        for step in (lambda: host.write_file("trace.bin", blob), lambda: host.read_file("trace.bin")):
            try:
                events.append(step())
            except (LockdownError, ProtocolCrcError) as exc:
                events.append(repr(exc))
    fired = not bus._faults[fault[0]]
    return events, fired, tmiu.report().to_text(), card.backing.to_bytes()


class TestTraceOnlyObserves:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        kind=st.sampled_from(["cmd", "c2h", "h2c"]),
        nth=st.integers(1, 80),
        offset=st.integers(0, DATA_FRAME_SIZE - 1),
        bit=st.integers(0, 7),
    )
    def test_trace_flag_changes_nothing_but_the_transcript(self, provisioned, kind, nth, offset, bit):
        # A clean fixture boot plus the file write and read sends 46
        # command, 57 card-to-host and 12 host-to-card data frames.
        fault = (kind, nth, offset, bit)
        assert _faulted_io_run(provisioned, fault, True) == _faulted_io_run(provisioned, fault, False)


def _stream_boot(result, flip, fault, trace):
    """A boot of ``result``'s image, driven stage by stage, with one
    container bit flipped and one fault scheduled (either may be None):
    (report text, forwarded bytes, offset and CRC verdict of each block the
    unit forwarded, whether the fault fired, final image)."""
    image = result.image.clone()
    if flip is not None:
        index, offset, bit = flip
        lba = result.layout.boot_start + index % result.layout.boot_sectors
        sector = bytearray(image.read_sector(lba))
        sector[offset] ^= 1 << bit
        image.write_sector(lba, bytes(sector))
    _, tmiu, bus, card = build_system(result.manifest, image, trace=trace)
    if fault is not None:
        bus.inject_fault(*fault)
    forwarded, blocks = bytearray(), []
    tmiu.power_on()
    if tmiu.authenticate_memory(bus) is Stage.KEYGEN_IMAGE_AUTH:
        tmiu.generate_keys()

        def sink(item):
            if isinstance(item, DataBlock):
                blocks.append((len(forwarded), item.crc_ok))
                item = item.payload
            forwarded.extend(item)

        tmiu.verify_mbr_and_image(bus, sink=sink)
    return tmiu.report().to_text(), bytes(forwarded), blocks, not bus.faults_pending, card.backing.to_bytes()


class TestRunPathEquivalence:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        sectors=st.integers(1, 200),
        flip=st.none() | st.tuples(st.integers(0, 199), st.integers(0, 511), st.integers(0, 7)),
        fault=st.none()
        | st.tuples(
            st.sampled_from(["cmd", "c2h", "h2c"]),
            st.integers(1, 220),
            st.integers(0, DATA_FRAME_SIZE - 1),
            st.integers(0, 7),
        ),
    )
    def test_run_path_matches_per_frame_path(self, sectors, flip, fault):
        # Untraced, with no card-to-host fault pending, the stream moves in
        # runs; the transcript forces one frame at a time.
        result = provision_container(sectors)
        assert _stream_boot(result, flip, fault, False) == _stream_boot(result, flip, fault, True)


@functools.lru_cache(maxsize=None)
def _roomy_provision():
    """The fixture's files in a data partition of 214 sectors, which spans 14
    tag sectors: room for files of up to 80 sectors."""
    return make_provision(data_slack_sectors=200)


def _in_use_lbas(card, manifest) -> list[int]:
    """The data LBAs a file op reads: the table's, then each file's extent
    as far as it lies in the data partition."""
    layout = manifest.layout
    end = layout.data_start + layout.data_sectors
    lbas = set(range(layout.data_start, layout.data_start + 4))  # the fixture's table
    try:
        records = image_file_records(card.backing, manifest)
    except ValueError:  # a tampered table; the next read of it locks down
        records = []
    for record in records:
        extent = record.lbas(layout.data_start)
        lbas.update(range(extent.start, min(extent.stop, end)))
    return sorted(lbas)


def _mediated_ops(provisioned, ops, trace):
    """Fixture boot, then ``ops`` through the host and the unit: (each op's
    bytes or exception class, ledger totals, the unit's stage record, card
    image, the unit's stage, reason and fault LBA)."""
    manifest = provisioned.manifest
    host, tmiu, bus, card = build_system(manifest, provisioned.image.clone(), trace=trace)
    assert host.run_boot(expected_entries=manifest.entries).ok
    data_start, data_sectors = tmiu.data_partition
    data_end = data_start + data_sectors
    outcomes = []
    for op, arg in ops:
        try:
            if op == "read":
                outcomes.append(host.read_file(arg))
            elif op == "write":
                label, size = arg
                host.write_file(label, bytes((i * 13 + size) % 256 for i in range(size)))
                outcomes.append(None)
            elif op == "outside":  # past, before or across the partition's end
                lba, count = [(data_end, 1), (data_start - 1, 1), (data_end - 2, 3)][arg]
                outcomes.append(tmiu.mediate_read(bus, lba, count))
            elif op == "outside_write":  # across the partition's end
                outcomes.append(tmiu.mediate_write(bus, data_end - 1, bytes(512 * (arg + 2))))
            elif op == "tamper":  # one bit of an in-use data sector or of its tag slot
                in_tag, pick = arg
                lbas = _in_use_lbas(card, manifest)
                lba = lbas[pick % len(lbas)]
                if in_tag:
                    lba, offset = manifest.layout.tag_location(lba)
                    offset += pick % DIGEST_SIZE
                else:
                    offset = pick % 512
                sector = bytearray(card.backing.read_sector(lba))
                sector[offset] ^= 1 << (pick >> 9) % 8
                card.backing.write_sector(lba, bytes(sector))
                outcomes.append(None)
            elif op == "fault":  # a wire fault due some frames into the next ops
                bus.inject_fault(*arg)
                outcomes.append(None)
            else:  # the card stops answering while the unit is operational
                card.suspend_io()
                outcomes.append(None)
        except (TmiuError, FileNotFoundError, CapacityError) as exc:
            outcomes.append(type(exc).__name__)
    ledger = tmiu.ledger
    unit = (tmiu.stage, tmiu.reason, tmiu.fault_lba)
    return outcomes, (ledger.cycles, ledger.bytes_moved, tmiu.stage_history), card.backing.to_bytes(), unit


_LABELS = [label for label, _ in DATA_FILES] + ["new.bin", "big.bin", "missing.bin"]
_EVENT_AT = st.integers(0, 8)


class TestSingleReadPathEquivalence:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("read"), st.sampled_from(_LABELS)),
                st.tuples(st.just("read"), st.sampled_from(_LABELS)),
                # Up to 79 sectors: a file spans up to six tag sectors.
                st.tuples(st.just("write"), st.tuples(st.sampled_from(_LABELS), st.integers(0, 40_000))),
                st.tuples(st.just("outside"), st.integers(0, 2)),
                st.tuples(st.just("outside_write"), st.integers(0, 2)),
            ),
            max_size=8,
        ),
        events=st.lists(
            st.one_of(
                st.tuples(_EVENT_AT, st.just("tamper"), st.tuples(st.booleans(), st.integers(0, 1 << 20))),
                st.tuples(_EVENT_AT, st.just("suspend"), st.none()),
                # Up to 160 frames on: mid-table or mid-file for the next op.
                st.tuples(
                    _EVENT_AT,
                    st.just("fault"),
                    st.tuples(
                        st.sampled_from(["c2h", "cmd", "h2c"]),
                        st.integers(1, 160),
                        st.integers(0, DATA_FRAME_SIZE - 1),
                        st.integers(0, 7),
                    ),
                ),
            ),
            max_size=2,
        ),
    )
    @example(ops=[("read", "var/log.bin"), ("read", "keys.db")], events=[(0, "tamper", (False, 4))])
    @example(ops=[("outside", 0), ("read", "keys.db"), ("read", "keys.db")], events=[(1, "suspend", None)])
    # A 69-sector file: the fault fires on the data frame of its 15th
    # sector, after the table's 8 frames and 28 more, so the retried read
    # goes on as one run.
    @example(
        ops=[("write", ("big.bin", 35_000)), ("read", "big.bin")],
        events=[(1, "fault", ("c2h", 37, 100, 3))],
    )
    @example(
        ops=[("write", ("big.bin", 35_000)), ("read", "big.bin"), ("write", ("big.bin", 20_000))],
        events=[(1, "tamper", (True, 57)), (3, "fault", ("h2c", 9, 0, 0))],
    )
    def test_single_read_exchange_matches_per_frame_path(self, ops, events):
        # Untraced, with no fault pending, a file's table and extent each move
        # as one run of CMD17 or CMD24 exchanges; the transcript, or a pending
        # fault, forces every frame, sector by sector.
        for at, event, arg in events:
            ops.insert(at, (event, arg))
        provisioned = _roomy_provision()
        assert _mediated_ops(provisioned, ops, False) == _mediated_ops(provisioned, ops, True)
