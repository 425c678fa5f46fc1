import random
import re

import pytest

from tmiusim.bus import (
    CMD_ALL_SEND_CID,
    CMD_GO_IDLE,
    CMD_READ_SINGLE,
    CMD_SELECT,
    CMD_SEND_CSD,
    CMD_SET_BLOCKLEN,
    CMD_WRITE_SINGLE,
    CardState,
    CommandFrame,
    DataBlock,
    ResponseFrame,
    SdioBus,
    STATUS_ILLEGAL_COMMAND,
    STATUS_OUT_OF_RANGE,
    TOKEN_CRC_ERR,
    TOKEN_CRC_OK,
    VirtualCard,
    parse_command,
    parse_data,
    parse_response,
)
from tmiusim.crypto import crc16
from tmiusim.identity import CardIdentity

from conftest import make_provision


@pytest.fixture()
def card(provisioned):
    identity = CardIdentity(cid=provisioned.manifest.cid, csd=provisioned.manifest.csd)
    return VirtualCard(identity, provisioned.image.clone())


def _to_transfer(card):
    card.issue(CommandFrame(CMD_GO_IDLE, 0).to_bytes())
    card.issue(CommandFrame(CMD_ALL_SEND_CID, 0).to_bytes())
    card.issue(CommandFrame(CMD_SELECT, 0).to_bytes())


def _write(card, lba, block):
    """CMD24 then one data frame, straight to the card; the write token."""
    card.issue(CommandFrame(CMD_WRITE_SINGLE, lba).to_bytes())
    return card.receive_write_block(block.to_bytes())


class TestFraming:
    def test_command_round_trip(self):
        rng = random.Random(0xF0)
        for _ in range(200):
            frame = CommandFrame(rng.randrange(64), rng.randrange(1 << 32))
            raw = frame.to_bytes()
            assert len(raw) == 6
            parsed, crc_ok = parse_command(raw)
            assert parsed == frame and crc_ok

    def test_response_round_trips(self):
        rng = random.Random(0xF1)
        for _ in range(200):
            r1 = ResponseFrame(index=rng.randrange(64), status=rng.randrange(1 << 32))
            parsed, crc_ok = parse_response(r1.to_bytes())
            assert parsed == r1 and crc_ok
            r2 = ResponseFrame(index=0x3F, register=rng.randbytes(16))
            parsed2, _ = parse_response(r2.to_bytes())
            assert parsed2.register == r2.register

    def test_data_round_trip(self):
        rng = random.Random(0xF2)
        for _ in range(50):
            block = DataBlock.for_payload(rng.randbytes(512))
            assert parse_data(block.to_bytes()) == block
            assert block.crc_ok

    def test_only_blocks_from_the_wire_or_a_given_crc_are_rechecked(self, monkeypatch):
        from tmiusim import bus

        payload = bytes(range(256)) * 2
        built = DataBlock.for_payload(payload)
        calls = []
        monkeypatch.setattr(bus, "crc16", lambda data: calls.append(1) or crc16(data))
        raw = built.to_bytes()
        assert built.crc_ok
        assert calls == []
        assert parse_data(raw).crc_ok
        assert not DataBlock(payload=payload, crc=built.crc ^ 1).crc_ok
        assert not parse_data(raw[:-1] + bytes([raw[-1] ^ 1])).crc_ok
        assert len(calls) == 3

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
        block = parse_data(card.take_read_block())
        assert block.payload == provisioned.image.read_sector(0)
        assert block.crc == crc16(block.payload)
        assert card.take_read_block() is None  # a single read closes itself

    def test_write_block_commits_only_on_good_crc(self, card):
        _to_transfer(card)
        lba = 20
        before = card.backing.read_sector(lba)
        payload = bytes(range(256)) * 2
        good = DataBlock.for_payload(payload)
        assert _write(card, lba, good) == TOKEN_CRC_OK
        assert card.backing.read_sector(lba) == payload
        bad = DataBlock(payload=before, crc=good.crc ^ 1)
        assert _write(card, lba, bad) == TOKEN_CRC_ERR
        assert card.backing.read_sector(lba) == payload  # unchanged by bad write

    def test_write_to_integrity_region_is_allowed_at_bus_level(self, card, provisioned):
        # Region policy is the guard unit's job, not the card's.
        _to_transfer(card)
        lba = provisioned.layout.meta_start
        assert _write(card, lba, DataBlock.for_payload(bytes(512))) == TOKEN_CRC_OK

    def test_suspension_silences_everything(self, card):
        _to_transfer(card)
        card.issue(CommandFrame(CMD_READ_SINGLE, 0).to_bytes())
        card.suspend_io()
        card.suspend_io()  # idempotent
        assert card.take_read_block() is None
        assert _write(card, 20, DataBlock.for_payload(bytes(512))) is None
        assert card.issue(CommandFrame(CMD_GO_IDLE, 0).to_bytes()) is None
        card.power_cycle()
        assert not card.io_suspended
        assert card.state is CardState.IDLE


class TestBus:
    def test_protocol_liveness_script(self, card, provisioned):
        bus = SdioBus(card, trace=True)
        bus.command(CMD_GO_IDLE, 0)
        cid = bus.command(CMD_ALL_SEND_CID, 0)
        assert cid.register == card.identity.cid
        assert bus.command(CMD_SELECT, 0).status == 0
        assert bus.command(CMD_READ_SINGLE, 0).status == 0
        block = bus.fetch_block()
        assert block.payload == provisioned.image.read_sector(0)

    def test_transcript_format(self, card):
        bus = SdioBus(card, trace=True)
        bus.command(CMD_ALL_SEND_CID, 0)
        pattern = re.compile(r"^t=\d+ DIR=(H→C|C→H) KIND=(CMD|RSP|DAT|TOK) [0-9a-f]+$")
        assert bus.transcript
        for line in bus.transcript:
            assert pattern.match(line), line

    def _scripted_read(self, bus):
        bus.command(CMD_GO_IDLE, 0)
        bus.command(CMD_ALL_SEND_CID, 0)
        bus.command(CMD_SELECT, 0)
        out = []
        for lba in range(3):
            resp = bus.command(CMD_READ_SINGLE, lba)
            if resp is None:
                continue
            block = bus.fetch_block()
            if block is None or not block.crc_ok:
                resp = bus.command(CMD_READ_SINGLE, lba)
                block = bus.fetch_block()
            out.append(block.payload)
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
            out.append(bus.fetch_block().payload)
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
        token = bus.push_block(DataBlock.for_payload(payload))
        assert token == TOKEN_CRC_ERR
        assert card.backing.read_sector(lba) == before
        bus.command(CMD_WRITE_SINGLE, lba)
        assert bus.push_block(DataBlock.for_payload(payload)) == TOKEN_CRC_OK
        assert card.backing.read_sector(lba) == payload
