import dataclasses
import functools
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from tmiusim.bus import CMD_READ_MULTIPLE, CMD_WRITE_MULTIPLE, RETRY_LIMIT, STATUS_OUT_OF_RANGE, DataBlock, VirtualCard
from tmiusim.crypto import SECTOR_SIZE, SectorCipher, SectorMac, decrypt_sector, sector_tag
from tmiusim import image as image_module
from tmiusim.host import build_system
from tmiusim.identity import CardIdentity
from tmiusim.image import (
    BOOT_PARTITION_TYPE,
    FileRecord,
    MbrSector,
    PartitionEntry,
    build_file_table,
    in_use_data_lbas,
    manifest_keys,
)
from tmiusim.tmiu import (
    Denial,
    LockdownError,
    PolicyViolation,
    PromStore,
    ProtocolCrcError,
    SECTOR_PIPELINE_CYCLES,
    SECTOR_TRANSFER_CYCLES,
    Stage,
    StateError,
)

from conftest import DATA_FILES, image_file_records, make_provision, provision_container, record_pools
from hostile import MiscountingCard, RefusingCard, ResponseCuttingCard, StallingCard, hostile_system


def _system(provisioned, image=None, dna=None, cid=None, trace=False):
    return build_system(
        provisioned.manifest,
        image if image is not None else provisioned.image.clone(),
        dna=dna,
        cid=cid,
        trace=trace,
    )


def _boot_to_operational(provisioned, image=None):
    host, tmiu, bus, card = _system(provisioned, image=image)
    tmiu.power_on()
    tmiu.authenticate_memory(bus)
    tmiu.generate_keys()
    tmiu.verify_mbr_and_image(bus, lambda item: None)
    assert tmiu.stage is Stage.OPERATIONAL
    return host, tmiu, bus, card


class TestPowerOn:
    def test_matching_device_advances_and_charges_prom_time(self, provisioned):
        _, tmiu, _, _ = _system(provisioned)
        assert tmiu.power_on() is Stage.MEMORY_AUTH
        assert tmiu.leds == [True, False, False, False]
        report = tmiu.report()
        assert abs(report.prom_ms - 98.0) <= 98.0 * 0.02

    def test_mismatching_device_locks_down_without_keys(self, provisioned):
        _, tmiu, _, _ = _system(provisioned, dna=provisioned.manifest.dna ^ 0x4)
        assert tmiu.power_on() is Stage.LOCKDOWN
        assert tmiu.reason is Denial.DEVICE_MISMATCH
        assert tmiu._keys is None
        assert tmiu.leds == [False, False, False, False]

    def test_reset_returns_to_prom_load_and_erases_keys(self, provisioned):
        _, tmiu, bus, _ = _system(provisioned)
        tmiu.power_on()
        tmiu.authenticate_memory(bus)
        tmiu.generate_keys()
        assert tmiu._keys is not None
        tmiu.reset()
        assert tmiu.stage is Stage.PROM_LOAD
        assert tmiu._keys is None
        assert tmiu.ledger.cycles == 0


class TestMemoryAuth:
    def test_provisioned_card_advances(self, provisioned):
        _, tmiu, bus, _ = _system(provisioned)
        tmiu.power_on()
        assert tmiu.authenticate_memory(bus) is Stage.KEYGEN_IMAGE_AUTH
        assert tmiu.leds[1]

    def test_foreign_card_locks_down_and_suspends(self, provisioned):
        foreign = CardIdentity.from_seed(b"not-the-right-card")
        _, tmiu, bus, card = _system(provisioned, cid=foreign.cid)
        tmiu.power_on()
        assert tmiu.authenticate_memory(bus) is Stage.LOCKDOWN
        assert tmiu.reason is Denial.NVM_MISMATCH
        assert card.io_suspended

    def test_malformed_cid_is_distinct(self, provisioned):
        cid = bytearray(provisioned.manifest.cid)
        cid[15] ^= 0x02  # break the embedded CRC7 field
        _, tmiu, bus, _ = _system(provisioned, cid=bytes(cid))
        tmiu.power_on()
        tmiu.authenticate_memory(bus)
        assert tmiu.reason is Denial.MALFORMED_CID

    def test_silent_card_exhausts_retries(self, provisioned):
        _, tmiu, bus, card = _system(provisioned)
        card.suspend_io()  # model a dead card: nothing ever answers
        tmiu.power_on()
        assert tmiu.authenticate_memory(bus) is Stage.LOCKDOWN
        assert tmiu.reason is Denial.BUS_ERROR

    def test_the_csd_is_read_but_not_anchored(self, provisioned):
        # A card whose CSD differs from the provisioned one still boots:
        # the unit asks for the CSD (CMD9) and anchors the CID alone.
        twin = dataclasses.replace(provisioned.manifest, csd=bytes(reversed(provisioned.manifest.csd)))
        host, _, bus, _ = build_system(twin, provisioned.image.clone(), trace=True)
        assert host.run_boot(expected_entries=twin.entries).ok
        assert any(twin.csd.hex() in line for line in bus.transcript)


def _held(tmiu, kind):
    """The ``kind`` objects the unit references directly or in a tuple."""
    held = []
    for value in vars(tmiu).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, kind):
                held.append(item)
    return held


def _held_ciphers(tmiu):
    return _held(tmiu, SectorCipher)


class TestCipherLifetime:
    def test_key_generation_installs_one_cipher(self, provisioned):
        _, tmiu, bus, _ = _system(provisioned)
        tmiu.power_on()
        tmiu.authenticate_memory(bus)
        assert _held_ciphers(tmiu) == []
        tmiu.generate_keys()
        assert len(_held_ciphers(tmiu)) == 1

    def test_lockdown_drops_the_cipher(self, provisioned):
        image = provisioned.image.clone()
        lba = provisioned.layout.data_start
        sector = bytearray(image.read_sector(lba))
        sector[7] ^= 0x01
        image.write_sector(lba, bytes(sector))
        _, tmiu, bus, _ = _boot_to_operational(provisioned, image=image)
        assert len(_held_ciphers(tmiu)) == 1
        with pytest.raises(ProtocolCrcError):
            tmiu.mediate_read(bus, lba)
        assert tmiu.stage is Stage.LOCKDOWN
        assert _held_ciphers(tmiu) == []
        assert tmiu._keys is None

    def test_reset_drops_the_cipher(self, provisioned):
        _, tmiu, _, _ = _boot_to_operational(provisioned)
        assert len(_held_ciphers(tmiu)) == 1
        tmiu.reset()
        assert _held_ciphers(tmiu) == []
        assert tmiu._keys is None

    def test_key_generation_installs_one_mac(self, provisioned):
        _, tmiu, bus, _ = _system(provisioned)
        tmiu.power_on()
        tmiu.authenticate_memory(bus)
        assert _held(tmiu, SectorMac) == []
        tmiu.generate_keys()
        assert len(_held(tmiu, SectorMac)) == 1

    def test_lockdown_and_reset_drop_the_mac(self, provisioned):
        image = provisioned.image.clone()
        lba = provisioned.layout.data_start
        sector = bytearray(image.read_sector(lba))
        sector[7] ^= 0x01
        image.write_sector(lba, bytes(sector))
        _, tmiu, bus, _ = _boot_to_operational(provisioned, image=image)
        assert len(_held(tmiu, SectorMac)) == 1
        with pytest.raises(ProtocolCrcError):
            tmiu.mediate_read(bus, lba)
        assert tmiu.stage is Stage.LOCKDOWN
        assert _held(tmiu, SectorMac) == []

        _, tmiu, _, _ = _boot_to_operational(provisioned)
        assert len(_held(tmiu, SectorMac)) == 1
        tmiu.reset()
        assert _held(tmiu, SectorMac) == []


class TestKeyGeneration:
    def test_keys_match_provisioning_keys(self, provisioned):
        # Behavioural equality: sectors decrypted by the unit equal sectors
        # decrypted offline with manifest-derived keys.
        host, tmiu, bus, _ = _boot_to_operational(provisioned)
        aes_key, _ = manifest_keys(provisioned.manifest)
        cipher = SectorCipher(aes_key)
        lba = provisioned.layout.data_start
        via_unit = tmiu.mediate_read(bus, lba)
        direct = decrypt_sector(cipher, lba, provisioned.image.read_sector(lba))
        assert via_unit == direct

    def test_requires_received_cid(self, provisioned):
        _, tmiu, bus, _ = _system(provisioned)
        tmiu.power_on()
        with pytest.raises(StateError):
            tmiu.generate_keys()

    def test_deterministic_across_boots(self, provisioned):
        _, tmiu1, bus1, _ = _boot_to_operational(provisioned)
        _, tmiu2, bus2, _ = _boot_to_operational(provisioned)
        lba = provisioned.layout.data_start + 1
        assert tmiu1.mediate_read(bus1, lba) == tmiu2.mediate_read(bus2, lba)


class TestVerifyMbrAndImage:
    def test_clean_image_reaches_operational(self, provisioned):
        _, tmiu, _, _ = _boot_to_operational(provisioned)
        assert tmiu.leds == [True, True, True, True]

    def test_boot_partition_bit_flip_denies_with_image_digest(self, provisioned):
        rng = random.Random(0xB17)
        image = provisioned.image.clone()
        lba = provisioned.layout.boot_start + rng.randrange(provisioned.layout.boot_sectors)
        sector = bytearray(image.read_sector(lba))
        sector[rng.randrange(512)] ^= 1 << rng.randrange(8)
        image.write_sector(lba, bytes(sector))

        _, tmiu, bus, card = _system(provisioned, image=image)
        tmiu.power_on()
        tmiu.authenticate_memory(bus)
        tmiu.generate_keys()
        assert tmiu.verify_mbr_and_image(bus, lambda item: None) is Stage.LOCKDOWN
        assert tmiu.reason is Denial.IMAGE_DIGEST_MISMATCH
        assert card.io_suspended
        assert tmiu._keys is None

    def test_mbr_tamper_denied_before_partition_parsing(self, provisioned):
        image = provisioned.image.clone()
        sector = bytearray(image.read_sector(0))
        sector[446 + 8] ^= 0xFF  # partition entry LBA field, still ciphertext
        image.write_sector(0, bytes(sector))
        _, tmiu, bus, _ = _system(provisioned, image=image)
        tmiu.power_on()
        tmiu.authenticate_memory(bus)
        tmiu.generate_keys()
        assert tmiu.verify_mbr_and_image(bus, lambda item: None) is Stage.LOCKDOWN
        assert tmiu.reason is Denial.MBR_MISMATCH

    def test_a_keyed_mbr_without_a_data_partition_is_denied(self, provisioned):
        # Sealed and anchored with the pair's own keys, so only the layout
        # check can refuse it.
        layout = provisioned.layout
        boot = PartitionEntry(0x80, BOOT_PARTITION_TYPE, layout.boot_start, layout.boot_sectors)
        aes_key, mac_key = manifest_keys(provisioned.manifest)
        sealed = SectorCipher(aes_key).crypt(0, MbrSector(partitions=(boot,)).to_bytes())
        digest = sector_tag(SectorMac(mac_key), 0, sealed)
        anchors = dataclasses.replace(provisioned.manifest.anchors, mbr_digest=digest)
        manifest = dataclasses.replace(provisioned.manifest, anchors=anchors)
        image = provisioned.image.clone()
        image.write_sector(0, sealed)
        for trace in (False, True):
            host, tmiu, _, card = build_system(manifest, image.clone(), trace=trace)
            outcome = host.run_boot(expected_entries=manifest.entries)
            assert outcome.reason is Denial.MBR_MISMATCH and tmiu.stage is Stage.LOCKDOWN
            assert tmiu.leds == [True, True, False, False] and card.io_suspended

    def test_corrupt_final_block_signals_processor(self, provisioned):
        image = provisioned.image.clone()
        boot_start = provisioned.layout.boot_start
        sector = bytearray(image.read_sector(boot_start + 1))
        sector[0] ^= 1
        image.write_sector(boot_start + 1, bytes(sector))
        aes_key, _ = manifest_keys(provisioned.manifest)
        cipher = SectorCipher(aes_key)
        container = b"".join(
            decrypt_sector(cipher, lba, image.read_sector(lba))
            for lba in range(boot_start, boot_start + provisioned.layout.boot_sectors)
        )

        # Untraced, the unit forwards runs; traced, one sector per frame.
        for trace in (False, True):
            _, tmiu, bus, _ = _system(provisioned, image=image.clone(), trace=trace)
            tmiu.power_on()
            tmiu.authenticate_memory(bus)
            tmiu.generate_keys()
            received = []
            tmiu.verify_mbr_and_image(bus, sink=received.append)
            assert len(received) >= 2, "stream should have been forwarded before the verdict"
            *verified, pill = received
            assert all(type(item) is bytes for item in verified)  # verified plaintext passes
            assert isinstance(pill, DataBlock) and not pill.crc_ok  # the in-band poison pill
            forwarded = b"".join(verified) + pill.payload
            assert len(forwarded) == len(container)
            assert forwarded[:-1] == container[:-1]
            assert forwarded[-1] == container[-1] ^ 0xFF


class TestMediatedDataPath:
    def test_read_returns_provisioned_plaintext(self, provisioned):
        host, tmiu, bus, _ = _boot_to_operational(provisioned)
        aes_key, _ = manifest_keys(provisioned.manifest)
        cipher = SectorCipher(aes_key)
        layout = provisioned.layout
        for lba in range(layout.data_start, layout.data_start + 8):
            expected = decrypt_sector(cipher, lba, provisioned.image.read_sector(lba))
            assert tmiu.mediate_read(bus, lba) == expected

    def test_tampered_backing_store_poisons_then_locks(self, provisioned):
        image = provisioned.image.clone()
        lba = provisioned.layout.data_start + 2
        sector = bytearray(image.read_sector(lba))
        sector[99] ^= 0x08
        image.write_sector(lba, bytes(sector))
        _, tmiu, bus, card = _boot_to_operational(provisioned, image=image)
        with pytest.raises(ProtocolCrcError):
            tmiu.mediate_read(bus, lba)
        assert tmiu.stage is Stage.LOCKDOWN
        assert tmiu.reason is Denial.SECTOR_TAG_MISMATCH
        assert tmiu.fault_lba == lba
        assert card.io_suspended
        with pytest.raises(LockdownError):
            tmiu.mediate_read(bus, lba)

    def test_write_then_read_round_trip_and_tag_update(self, provisioned):
        _, tmiu, bus, card = _boot_to_operational(provisioned)
        layout = provisioned.layout
        lba = layout.data_start + layout.data_sectors - 1
        payload = bytes((i * 31) % 256 for i in range(512))
        tmiu.mediate_write(bus, lba, payload)
        assert tmiu.mediate_read(bus, lba) == payload

        aes_key, mac_key = manifest_keys(provisioned.manifest)
        cipher, mac_key = SectorCipher(aes_key), SectorMac(mac_key)
        stored = card.backing.read_sector(lba)
        assert stored != payload  # ciphertext at rest
        meta_lba, offset = layout.tag_location(lba)
        meta_plain = decrypt_sector(cipher, meta_lba, card.backing.read_sector(meta_lba))
        assert meta_plain[offset : offset + 32] == sector_tag(mac_key, lba, stored)

    def test_write_policy_protects_other_regions(self, provisioned):
        _, tmiu, bus, _ = _boot_to_operational(provisioned)
        with pytest.raises(PolicyViolation):
            tmiu.mediate_write(bus, 0, bytes(512))
        with pytest.raises(PolicyViolation):
            tmiu.mediate_write(bus, provisioned.layout.boot_start, bytes(512))
        with pytest.raises(PolicyViolation):
            tmiu.mediate_read(bus, provisioned.layout.meta_start)

    @pytest.mark.parametrize("trace, fault", [(False, None), (True, None), (False, "h2c"), (False, "c2h")])
    def test_a_read_moves_its_whole_extent_traced_or_not(self, provisioned, trace, fault):
        host, tmiu, bus, _ = _system(provisioned, trace=trace)
        assert host.run_boot().ok
        if fault is not None:
            bus.inject_fault(fault, nth=1000)  # pending, never due in this read
        cipher = SectorCipher(manifest_keys(provisioned.manifest)[0])
        lba = provisioned.layout.data_start + 3
        expected = cipher.crypt(lba, provisioned.image.read_sectors(lba, 20))
        assert tmiu.mediate_read(bus, lba, 20) == expected
        assert bus.faults_pending == (fault is not None)

    def test_an_access_needs_whole_sectors(self, provisioned):
        _, tmiu, bus, _ = _boot_to_operational(provisioned)
        lba = provisioned.layout.data_start
        for access in (
            lambda: tmiu.mediate_read(bus, lba, 0),
            lambda: tmiu.mediate_write(bus, lba, b""),
            lambda: tmiu.mediate_write(bus, lba, bytes(700)),
        ):
            with pytest.raises(ValueError):
                access()
        assert tmiu.stage is Stage.OPERATIONAL

    @pytest.mark.parametrize("trace", [False, True])
    def test_extent_across_the_partition_end_is_refused_before_any_exchange(self, provisioned, trace):
        # A file table written with the key can name an extent that leaves
        # the data partition. Reading that file charges the table alone.
        host, tmiu, bus, card = _system(provisioned, trace=trace)
        assert host.run_boot().ok
        layout = provisioned.layout
        end = layout.data_start + layout.data_sectors
        record = FileRecord("across", offset=(layout.data_sectors - 2) * 512, length=5 * 512)
        tmiu.mediate_write(bus, layout.data_start, build_file_table([record], 4))
        # The table alone is read, as the offline list of in-use LBAs says.
        table = [*range(layout.data_start, layout.data_start + 4)]
        assert in_use_data_lbas(card.backing, provisioned.manifest) == table

        def state():
            return tmiu.ledger.cycles, tmiu.ledger.bytes_moved, len(bus.transcript), card.backing.to_bytes()

        cycles, nbytes, frames, image = state()
        with pytest.raises(PolicyViolation):
            host.read_file("across")
        read = 2 * (SECTOR_TRANSFER_CYCLES + SECTOR_PIPELINE_CYCLES)
        assert state()[:2] == (cycles + 4 * read, nbytes + 4 * 1024)

        cycles, nbytes, frames, image = state()
        with pytest.raises(PolicyViolation):
            tmiu.mediate_read(bus, end - 2, 3)
        with pytest.raises(PolicyViolation):
            tmiu.mediate_write(bus, end - 1, bytes(1024))
        with pytest.raises(PolicyViolation):
            tmiu.mediate_read(bus, layout.data_start - 1, 2)
        assert state() == (cycles, nbytes, frames, image)
        assert tmiu.stage is Stage.OPERATIONAL

    def test_wire_fault_on_read_is_retryable(self, provisioned):
        # The unit resends the failed data frame itself: the read succeeds
        # on its first call, charged one more sector transfer.
        _, tmiu, bus, _ = _boot_to_operational(provisioned)
        lba = provisioned.layout.data_start
        bus.inject_fault("c2h", nth=1, byte_offset=10, bit=0)
        ledger = tmiu.ledger
        before = ledger.cycles, ledger.bytes_moved
        aes_key, _ = manifest_keys(provisioned.manifest)
        cipher = SectorCipher(aes_key)
        assert tmiu.mediate_read(bus, lba) == decrypt_sector(
            cipher, lba, provisioned.image.read_sector(lba)
        )
        assert tmiu.stage is Stage.OPERATIONAL
        read = 2 * (SECTOR_TRANSFER_CYCLES + SECTOR_PIPELINE_CYCLES)
        assert (ledger.cycles - before[0], ledger.bytes_moved - before[1]) == (
            read + SECTOR_TRANSFER_CYCLES,
            3 * SECTOR_SIZE,
        )
        assert not bus.faults_pending

    @pytest.mark.parametrize("op", ["read", "read_data", "write"])
    @pytest.mark.parametrize("failures", [RETRY_LIMIT, RETRY_LIMIT + 1])
    def test_a_frame_is_resent_at_most_retry_limit_times_in_a_row(self, provisioned, op, failures):
        _, tmiu, bus, _ = _boot_to_operational(provisioned)
        lba = provisioned.layout.data_start + 4
        payload = bytes(range(256)) * 6
        # A read's tag frame follows its three data frames; a read's second
        # data frame fails, and so does each resend of it; a write's second
        # data frame is refused, and so is each resend of it.
        kind, first = {"read": ("c2h", 4), "read_data": ("c2h", 2), "write": ("h2c", 2)}[op]
        for nth in range(first, first + failures):
            bus.inject_fault(kind, nth=nth, byte_offset=9, bit=1)
        ledger = tmiu.ledger
        before = ledger.cycles, ledger.bytes_moved
        if failures > RETRY_LIMIT:
            with pytest.raises(LockdownError):
                tmiu.mediate_write(bus, lba, payload) if op == "write" else tmiu.mediate_read(bus, lba, 3)
            assert (tmiu.reason, tmiu.fault_lba) == (Denial.BUS_ERROR, None)
            return
        if op != "write":
            cipher = SectorCipher(manifest_keys(provisioned.manifest)[0])
            assert tmiu.mediate_read(bus, lba, 3) == cipher.crypt(lba, provisioned.image.read_sectors(lba, 3))
            moved = 2
        else:
            tmiu.mediate_write(bus, lba, payload)
            moved = 3
        # Each sector of the access, and each resent frame, as charged one by one.
        cycles = 3 * moved * (SECTOR_TRANSFER_CYCLES + SECTOR_PIPELINE_CYCLES) + failures * SECTOR_TRANSFER_CYCLES
        assert (ledger.cycles - before[0], ledger.bytes_moved - before[1]) == (cycles, (3 * moved + failures) * 512)
        assert not bus.faults_pending
        if op == "write":
            assert tmiu.mediate_read(bus, lba, 3) == payload

    def test_each_processed_sector_charges_pipeline_latency(self, provisioned):
        _, tmiu, bus, _ = _boot_to_operational(provisioned)
        lba = provisioned.layout.data_start
        before = tmiu.ledger.cycles
        tmiu.mediate_read(bus, lba)
        delta = tmiu.ledger.cycles - before
        # Two sectors cross the wire (data + its tag sector), each with its
        # line-rate transfer plus exactly 52 cycles of processing.
        assert delta == 2 * (SECTOR_TRANSFER_CYCLES + SECTOR_PIPELINE_CYCLES)


def _forwarded_by_boot(tmiu, bus) -> list:
    """Everything the unit forwards in a boot driven stage by stage."""
    tmiu.power_on()
    tmiu.authenticate_memory(bus)
    tmiu.generate_keys()
    received = []
    tmiu.verify_mbr_and_image(bus, sink=received.append)
    return received


def _assert_bus_error_lockdown(provisioned, tmiu, bus, card, *texts):
    """The unit locked down for the wire, with no fault LBA, the card
    suspended and unwritten, and no key byte in what anyone can read."""
    assert (tmiu.stage, tmiu.reason, tmiu.fault_lba) == (Stage.LOCKDOWN, Denial.BUS_ERROR, None)
    assert card.io_suspended
    assert card.backing.to_bytes() == provisioned.image.to_bytes()
    text = "\n".join([*texts, tmiu.report().to_text(), repr(tmiu), *bus.transcript])
    assert not any(key.hex() in text for key in manifest_keys(provisioned.manifest))


def _assert_poisoned(received):
    """Whatever a refused boot forwarded ends in a block that fails its CRC
    at the host."""
    *verified, last = received or [None]
    assert all(type(item) is bytes for item in verified)
    assert not received or (isinstance(last, DataBlock) and not last.crc_ok)


class TestMiscountedRun:
    # Untraced, so that the unit asks for runs; frame by frame it asks for
    # one sector at a time. A run too long, empty or ragged breaks the run
    # contract of VirtualCard.take_read, so these lies test Tmiu._read's own
    # whole-sector check on what comes from outside the unit, which stays,
    # and that the unit charges nothing for the run it refuses.
    # A transfer that ends short and a sector cut short keep the contract:
    # they are pinned runs of tests/test_model.py, met on both paths.
    LIES = ["long", "empty", "ragged"]

    @pytest.mark.parametrize("lie", LIES)
    @pytest.mark.parametrize("op", ["read_file", "write_file"])
    def test_a_cmd18_transfer_of_the_wrong_length_is_a_bus_error(self, provisioned, op, lie):
        host, tmiu, bus, card = hostile_system(provisioned, MiscountingCard, False)
        assert host.run_boot(expected_entries=provisioned.manifest.entries).ok
        # The table's first sector is read alone, its other three as one run.
        card.lie = lie
        label, blob = DATA_FILES[0]
        with pytest.raises(LockdownError) as raised:
            host.read_file(label) if op == "read_file" else host.write_file(label, blob[::-1])
        _assert_bus_error_lockdown(provisioned, tmiu, bus, card, str(raised.value))
        assert tmiu._charged_at(Stage.OPERATIONAL) == (2 * (SECTOR_TRANSFER_CYCLES + SECTOR_PIPELINE_CYCLES), 1024)

    @pytest.mark.parametrize("lie", LIES)
    def test_a_cmd18_transfer_of_the_wrong_length_during_boot_is_a_bus_error(self, provisioned, lie):
        # The MBR and the image's first sector are read alone, the rest of
        # the image as runs.
        _, tmiu, bus, card = hostile_system(provisioned, MiscountingCard, False)
        card.lie = lie
        _assert_poisoned(_forwarded_by_boot(tmiu, bus))
        _assert_bus_error_lockdown(provisioned, tmiu, bus, card)
        assert tmiu._charged_at(Stage.KEYGEN_IMAGE_AUTH) == (2 * SECTOR_TRANSFER_CYCLES + SECTOR_PIPELINE_CYCLES, 1024)

    @pytest.mark.parametrize("observed", ["trace", "cmd_fault"])
    @pytest.mark.parametrize("where", ["boot", "read_file"])
    def test_a_response_a_byte_short_is_a_bus_error(self, provisioned, where, observed):
        # Where command frames are observed, the response crosses the wire
        # as bytes. One of the wrong length reads as silence: the command is
        # resent, and the unit, not the bus, gives up. Untraced, the frames
        # are observed while a command fault is pending: one fault per send
        # of the first CMD18, each flipping a bit of its CRC.
        host, tmiu, bus, card = hostile_system(provisioned, ResponseCuttingCard, observed == "trace")
        entries = provisioned.manifest.entries
        if where == "read_file":
            assert host.run_boot(expected_entries=entries).ok
        card.cut = True
        if observed == "cmd_fault":
            first = 1 if where == "read_file" else _first_cmd18_frame(provisioned)
            for nth in range(first, first + RETRY_LIMIT + 1):
                bus.inject_fault("cmd", nth, byte_offset=5, bit=4)
        texts = []
        if where == "read_file":
            with pytest.raises(LockdownError) as raised:
                host.read_file(DATA_FILES[0][0])
            texts.append(str(raised.value))
        else:
            assert not host.run_boot(expected_entries=entries).ok
        _assert_bus_error_lockdown(provisioned, tmiu, bus, card, *texts)
        assert not bus.faults_pending


class TestRefusingCard:
    """A card that refuses the CMD25 of a write's tag run. Every other
    refusal, and every accepting answer with an error bit, is a pinned run
    of tests/test_model.py."""

    def test_a_refused_tag_run_leaves_the_old_file_readable(self, provisioned):
        # Rewritten at its own size, the first file is placed outside its old
        # extent: the data run commits there, and the tag run is refused
        # before the table could name it.
        host, tmiu, bus, card = hostile_system(provisioned, RefusingCard, False)
        layout, entries = provisioned.layout, provisioned.manifest.entries
        assert host.run_boot(expected_entries=entries).ok
        card.refused, card.status = CMD_WRITE_MULTIPLE, STATUS_OUT_OF_RANGE
        card.lbas = range(layout.meta_start, layout.total_sectors)
        (label, blob), (other, other_blob) = DATA_FILES[:2]
        record = next(r for r in image_file_records(card.backing, provisioned.manifest) if r.label == label)
        extent = record.lbas(layout.data_start)
        with pytest.raises(LockdownError, match="BusError"):
            host.write_file(label, blob[::-1])
        assert (tmiu.stage, tmiu.reason, tmiu.fault_lba) == (Stage.LOCKDOWN, Denial.BUS_ERROR, None)
        assert tmiu._keys is None and card.io_suspended and card._open is None
        changed = [
            lba for lba in range(layout.total_sectors)
            if card.backing.read_sector(lba) != provisioned.image.read_sector(lba)
        ]
        assert len(changed) == len(extent) and not set(changed) & set(extent)
        assert all(layout.data_start <= lba < layout.meta_start for lba in changed)
        # After a power cycle the table still names the old extent, whose
        # sectors and tags the write left alone: the old version reads back,
        # and so do the files the write did not touch.
        card.refused = None
        assert host.reboot(expected_entries=entries).ok
        assert host.read_file(label) == blob
        assert host.read_file(other) == other_blob


class TestStallingCard:
    """A card that acknowledges only the first k sectors of each CMD25
    transfer, commits them and then answers nothing. Each transfer is
    resent from its first unacknowledged sector, one sector transfer more
    each time, and the write completes."""

    @pytest.mark.parametrize("acked", [1, 2, 3])
    @pytest.mark.parametrize("run, size", [("data", 3072), ("tag", 60 * SECTOR_SIZE)], ids=["data_run", "tag_run"])
    def test_a_write_resumes_at_the_first_unacknowledged_sector(self, provisioned, run, size, acked):
        # A 60-sector file's tags fill four tag sectors or more, so k <= 3
        # cuts its tag run too.
        layout, entries = provisioned.layout, provisioned.manifest.entries
        data, meta = range(layout.data_start, layout.meta_start), range(layout.meta_start, layout.total_sectors)
        stalled = data if run == "data" else meta
        blob = random.Random(acked).randbytes(size)
        results = []
        for card_class in (VirtualCard, StallingCard):
            host, tmiu, _, card = hostile_system(provisioned, card_class, False)
            assert host.run_boot(expected_entries=entries).ok
            card.acked, card.lbas = acked, stalled
            host.write_file("new.bin", blob)
            charged = (tmiu.ledger.cycles, tmiu.ledger.bytes_moved)
            assert tmiu.stage is Stage.OPERATIONAL and host.read_file("new.bin") == blob
            results.append((getattr(card, "stalls", 0), charged, card.backing.to_bytes()))
        (_, clean, stored), (stalls, stalled, stalled_stored) = results
        assert stalls > 0 and stalled_stored == stored
        assert stalled == (clean[0] + stalls * SECTOR_TRANSFER_CYCLES, clean[1] + stalls * SECTOR_SIZE)


class InternalFault(Exception):
    """A fault inside the simulator, raised by a patched step."""


class TestInternalFault:
    """An exception inside the unit that is not a lockdown of its own locks
    it down as a bus error does: no key held, the card suspended with no
    transfer open, the held block of a boot forwarded poisoned, no thread
    left, and the original exception raised to the caller."""

    @pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize(
        "step, where",
        [
            ("crypt", "mbr"),
            ("tag", "mbr"),
            # Only the container's first sector tells its length.
            ("boot_image_length", "boot_start"),
            ("crypt", "boot_stream"),
            ("sink", "boot_stream"),
            ("crypt", "read"),
            ("tag", "read"),
            ("crypt", "write"),
            ("tag", "write"),
        ],
    )
    def test_the_unit_fails_closed(self, step, where, trace, monkeypatch):
        # Past HASH_THREAD_MIN_CONTAINER, where provisioning hashes on a
        # worker thread, and 2 MiB into the stream: the boot starts none.
        result = provision_container(6000)
        layout = result.layout
        late = layout.boot_start + 5000
        host, tmiu, bus, card = hostile_system(result, VirtualCard, trace)
        pools = record_pools(monkeypatch)
        before = threading.active_count()
        if where in ("read", "write"):
            assert host.run_boot(expected_entries=result.manifest.entries).ok
        at = {"mbr": 0, "boot_start": layout.boot_start, "boot_stream": late}.get(where, layout.data_start)
        at_fault = []  # (threads alive, the card's open transfer)

        def fault(*args):
            at_fault.append((threading.active_count(), card._open))
            raise InternalFault(step)

        crypt, receive = SectorCipher.crypt, image_module.BootStream.receive
        received, arrived = [], []

        def receiving(stream, item):
            received.append(item)
            if step == "sink" and type(item) is bytes:
                arrived.append(len(item))
                if sum(arrived) > (late - layout.boot_start) * SECTOR_SIZE:
                    fault()
            receive(stream, item)

        monkeypatch.setattr(image_module.BootStream, "receive", receiving)
        if step == "crypt":
            monkeypatch.setattr(
                SectorCipher, "crypt", lambda cipher, first, data: fault() if first >= at else crypt(cipher, first, data)
            )
        elif step == "tag":
            monkeypatch.setattr(SectorMac, "tag", fault)
        elif step == "boot_image_length":
            monkeypatch.setattr("tmiusim.image.boot_image_length", fault)

        with pytest.raises(InternalFault, match=step):
            if where == "read":
                tmiu.mediate_read(bus, layout.data_start, 2)
            elif where == "write":
                tmiu.mediate_write(bus, layout.data_start + 8, bytes(2 * SECTOR_SIZE))
            else:
                host.run_boot(expected_entries=result.manifest.entries)

        ((threads_alive, transfer),) = at_fault
        assert threads_alive == before
        if where == "boot_stream":
            assert transfer[0] == CMD_READ_MULTIPLE  # the transfer was open
        if where.startswith("boot"):
            assert received  # the held block, forwarded poisoned
            _assert_poisoned(received)
        else:
            assert received == []  # nothing was held to forward
        assert (tmiu.stage, tmiu.reason, tmiu._keys) == (Stage.LOCKDOWN, Denial.BUS_ERROR, None)
        assert card.io_suspended and card._open is None
        assert pools == [] and threading.active_count() == before
        text = "\n".join([tmiu.report().to_text(), repr(tmiu), *bus.transcript])
        assert not any(key.hex() in text for key in manifest_keys(result.manifest))
        with pytest.raises(LockdownError):
            tmiu.mediate_read(bus, layout.data_start, 1)


def _first_cmd18_frame(provisioned) -> int:
    """The number of the first CMD18 among a clean boot's command frames."""
    host, _, bus, _ = hostile_system(provisioned, VirtualCard, True)
    assert host.run_boot().ok
    commands = [line.rsplit(" ", 1)[1] for line in bus.transcript if "KIND=CMD" in line]
    return next(n for n, raw in enumerate(commands, 1) if int(raw[:2], 16) & 0x3F == CMD_READ_MULTIPLE)


class TestStageMachine:
    def test_golden_stage_ordering(self, provisioned):
        _, tmiu, _, _ = _boot_to_operational(provisioned)
        stages = [stage for stage, _, _ in tmiu.stage_history]
        assert stages == [
            Stage.PROM_LOAD,
            Stage.DEVICE_AUTH,
            Stage.MEMORY_AUTH,
            Stage.KEYGEN_IMAGE_AUTH,
            Stage.OPERATIONAL,
        ]
        cycles = [at for _, at, _ in tmiu.stage_history]
        assert cycles == sorted(cycles)

    # Run -> the stage it ends at; each boots the fixture, then writes and
    # reads a file twice (the second access meets a lockdown, if any).
    CHARGE_RUNS = {
        "clean": Stage.OPERATIONAL,
        "boot_c2h_fault": Stage.OPERATIONAL,
        "boot_cmd_fault": Stage.OPERATIONAL,
        "foreign_device": Stage.LOCKDOWN,
        "foreign_card": Stage.LOCKDOWN,
        "mbr_flip": Stage.LOCKDOWN,
        "image_flip": Stage.LOCKDOWN,
        "table_flip": Stage.LOCKDOWN,
        "card_silent": Stage.LOCKDOWN,
    }

    @pytest.mark.parametrize("run", sorted(CHARGE_RUNS))
    def test_nothing_is_charged_at_device_auth_memory_auth_or_lockdown(self, provisioned, run):
        image = provisioned.image.clone()
        layout = provisioned.layout
        flip = {"mbr_flip": 0, "image_flip": layout.boot_start + 3, "table_flip": layout.data_start}
        if run in flip:
            sector = bytearray(image.read_sector(flip[run]))
            sector[7] ^= 0x01
            image.write_sector(flip[run], bytes(sector))
        dna = provisioned.manifest.dna ^ 1 if run == "foreign_device" else None
        cid = CardIdentity.from_seed(b"charging-card").cid if run == "foreign_card" else None
        host, tmiu, bus, card = _system(provisioned, image=image, dna=dna, cid=cid)
        if run.endswith("_fault"):
            bus.inject_fault(run.split("_")[1], 5, 3, 2)
        if host.run_boot().ok:
            if run == "card_silent":
                card.suspend_io()
            for _ in range(2):
                try:
                    host.write_file("charged.bin", bytes(700))
                    host.read_file("charged.bin")
                except LockdownError:
                    pass
        assert tmiu.stage is self.CHARGE_RUNS[run]
        assert not bus.faults_pending
        stages = [stage for stage, _, _ in tmiu.stage_history]
        assert len(stages) == len(set(stages))  # each stage is entered at most once
        marks = tmiu.stage_history + [(None, tmiu.ledger.cycles, tmiu.ledger.bytes_moved)]
        for (stage, cycles, nbytes), (_, until_cycles, until_bytes) in zip(marks, marks[1:]):
            if stage in (Stage.DEVICE_AUTH, Stage.MEMORY_AUTH, Stage.LOCKDOWN):
                assert (until_cycles, until_bytes) == (cycles, nbytes), stage

    def test_operations_out_of_order_raise_state_error(self, provisioned):
        _, tmiu, bus, _ = _system(provisioned)
        with pytest.raises(StateError):
            tmiu.authenticate_memory(bus)
        tmiu.power_on()
        with pytest.raises(StateError):
            tmiu.verify_mbr_and_image(bus, lambda item: None)
        with pytest.raises(StateError):
            tmiu.mediate_read(bus, 0)

    def test_lockdown_is_absorbing(self, provisioned):
        _, tmiu, bus, _ = _system(provisioned, dna=provisioned.manifest.dna ^ 1)
        tmiu.power_on()
        assert tmiu.stage is Stage.LOCKDOWN
        for op in (
            lambda: tmiu.power_on(),
            lambda: tmiu.authenticate_memory(bus),
            lambda: tmiu.generate_keys(),
            lambda: tmiu.verify_mbr_and_image(bus, lambda item: None),
            lambda: tmiu.mediate_read(bus, 50),
            lambda: tmiu.mediate_write(bus, 50, bytes(512)),
        ):
            with pytest.raises(LockdownError):
                op()
            assert tmiu.stage is Stage.LOCKDOWN
            assert tmiu.reason is Denial.DEVICE_MISMATCH

    def test_report_fields(self, provisioned):
        _, tmiu, _, _ = _boot_to_operational(provisioned)
        text = tmiu.report().to_text()
        for key in ("stage=", "reason=", "leds=", "cycles=", "bytes=", "boot_ms=", "rate_mbps="):
            assert key in text
        assert "leds=1111" in text
        assert "stage=Operational" in text

    def test_repr_hides_keys(self, provisioned):
        _, tmiu, bus, _ = _system(provisioned)
        tmiu.power_on()
        tmiu.authenticate_memory(bus)
        tmiu.generate_keys()
        assert "keys=set" in repr(tmiu)
        aes_key, mac_key = manifest_keys(provisioned.manifest)
        assert aes_key.hex() not in repr(tmiu)
        assert mac_key.hex() not in repr(tmiu)


class TestCostFormula:
    """The ledger against the cost formula stated in the README: PROM load
    once, 1024 cycles per sector moved, 52 cycles per pipeline check, and
    commands free. A clean boot of an n-sector container moves the MBR and
    the n sectors and makes two checks (the MBR and the container's end);
    after hand-over a mediated read moves and checks the data sector and
    its tag sector, and a write moves and commits the data sector, reads
    and checks the tag sector, and commits it."""

    CLOCK_HZ = 50_000_000
    PROM_CYCLES, PROM_BYTES = 4_896_908, 1_900_000  # ceil(1.9 MB * 50 MHz / 19.4 MB/s)
    READ_CYCLES, READ_BYTES = 2 * 1024 + 2 * 52, 2 * 512
    WRITE_CYCLES, WRITE_BYTES = 3 * 1024 + 3 * 52, 3 * 512

    @staticmethod
    def boot_terms(container_sectors: int) -> tuple[int, int]:
        """(cycles, bytes) charged at KeyGenImageAuth by a clean boot."""
        return (container_sectors + 1) * 1024 + 2 * 52, (container_sectors + 1) * 512

    def test_formula_reproduces_the_13_mb_pin(self):
        # 13,000,000 bytes of kernel seal into a 25,391-sector container.
        boot_cycles, boot_bytes = self.boot_terms(25_391)
        assert self.PROM_CYCLES + boot_cycles == 30_898_420
        assert f"{self.PROM_CYCLES * 1000 / self.CLOCK_HZ:.3f}" == "97.938"
        assert f"{boot_cycles * 1000 / self.CLOCK_HZ:.3f}" == "520.030"
        assert f"{boot_bytes / (boot_cycles / self.CLOCK_HZ) / 1e6:.3f}" == "25.000"

    def test_terms_are_the_modules_constants(self):
        prom = PromStore()
        assert self.PROM_CYCLES == -(-prom.config_size * self.CLOCK_HZ // prom.load_rate)
        assert self.PROM_BYTES == prom.config_size
        assert (SECTOR_TRANSFER_CYCLES, SECTOR_PIPELINE_CYCLES) == (1024, 52)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        container_sectors=st.integers(1, 200),
        accesses=st.lists(st.tuples(st.booleans(), st.integers(0, 1 << 16)), max_size=12),
    )
    def test_report_follows_the_formula(self, container_sectors, accesses):
        provisioned = provision_container(container_sectors, kdf_repetitions=1)
        _, tmiu, bus, _ = _boot_to_operational(provisioned)
        layout = provisioned.layout
        for write, pick in accesses:
            lba = layout.data_start + pick % layout.data_sectors
            if write:
                tmiu.mediate_write(bus, lba, bytes([pick % 256]) * 512)
            else:
                tmiu.mediate_read(bus, lba)
        writes = sum(write for write, _ in accesses)
        reads = len(accesses) - writes
        boot_cycles, boot_bytes = self.boot_terms(container_sectors)
        cycles = self.PROM_CYCLES + boot_cycles + reads * self.READ_CYCLES + writes * self.WRITE_CYCLES
        nbytes = self.PROM_BYTES + boot_bytes + reads * self.READ_BYTES + writes * self.WRITE_BYTES

        report = tmiu.report()
        assert (report.cycles, report.bytes_moved) == (cycles, nbytes)
        assert report.prom_ms == pytest.approx(self.PROM_CYCLES * 1000 / self.CLOCK_HZ, rel=1e-12)
        assert report.boot_ms == pytest.approx(boot_cycles * 1000 / self.CLOCK_HZ, rel=1e-12)
        assert report.total_ms == pytest.approx(cycles * 1000 / self.CLOCK_HZ, rel=1e-12)
        assert report.rate_mbps == pytest.approx(
            boot_bytes / (boot_cycles / self.CLOCK_HZ) / 1e6, rel=1e-12
        )

    TABLE_SECTORS = 4  # the fixture's file table

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        boot_fault=st.none() | st.tuples(st.sampled_from(["c2h", "cmd"]), st.integers(0, 1 << 16)),
        ops=st.lists(
            st.tuples(
                st.booleans(),
                st.sampled_from(["etc/config.txt", "a.bin", "b.bin", "missing.bin"]),
                # Up to 60 sectors, so a file spans up to five tag sectors.
                st.integers(0, 60 * 512),
                st.none() | st.tuples(st.sampled_from(["c2h", "cmd"]), st.integers(0, 1 << 16)),
            ),
            max_size=6,
        ),
    )
    def test_file_operations_follow_the_formula(self, boot_fault, ops):
        # A read of an n-sector file reads the table, then the file: T + n
        # mediated reads. A write reads the table, writes the n sectors, then
        # the table: T reads and n + T writes. A read of a missing file reads
        # the table alone. One line fault resends one sector, 1024 cycles and
        # 512 bytes more, wherever it lands; a command fault resends only the
        # command, which costs nothing.
        provisioned = _file_store_provision()
        host, tmiu, bus, _ = _system(provisioned)
        container_sectors = provisioned.layout.boot_sectors
        boot_cycles, boot_bytes = self.boot_terms(container_sectors)
        if boot_fault is not None:
            kind, pick = boot_fault
            # Both kinds send more frames than this before hand-over: the MBR
            # and the container's sectors, or CMD0 to CMD18.
            bus.inject_fault(kind, nth=1 + pick % (1 + container_sectors if kind == "c2h" else 7))
            if kind == "c2h":
                boot_cycles, boot_bytes = boot_cycles + 1024, boot_bytes + 512
        assert host.run_boot(expected_entries=provisioned.manifest.entries).ok
        assert not bus.faults_pending

        sizes = {label: len(blob) for label, blob in DATA_FILES}
        cycles, nbytes = self.PROM_CYCLES + boot_cycles, self.PROM_BYTES + boot_bytes
        for write, label, size, fault in ops:
            n = -(-(size if write else sizes.get(label, 0)) // 512)
            if fault is not None:
                kind, pick = fault
                # The frames an op surely sends. A mediated read is two runs,
                # its data sectors and then their tag sectors; a write is
                # three, its data sectors, then their tag sectors read and
                # written back. Each run is one CMD18 or CMD25 and one CMD12,
                # and each tag read moves one frame or more. Every op reads
                # the table, its first sector alone and then the rest. A read
                # of a file with sectors reads them; a write writes the
                # file's sectors, if any, and then the table.
                reads = 2 + (not write and n > 0)
                writes = write * (1 + (n > 0))
                sent = {
                    "c2h": self.TABLE_SECTORS + (0 if write else n) + reads + writes,
                    "cmd": 2 * (2 * reads + 3 * writes),
                }
                bus.inject_fault(kind, nth=1 + pick % sent[kind])
                if kind == "c2h":
                    cycles, nbytes = cycles + 1024, nbytes + 512
            reads, writes = self.TABLE_SECTORS, 0
            if write:
                host.write_file(label, bytes([size % 256]) * size)
                sizes[label] = size
                writes = n + self.TABLE_SECTORS
            elif label in sizes:
                assert len(host.read_file(label)) == sizes[label]
                reads += n
            else:
                with pytest.raises(FileNotFoundError):
                    host.read_file(label)
            assert not bus.faults_pending
            cycles += reads * self.READ_CYCLES + writes * self.WRITE_CYCLES
            nbytes += reads * self.READ_BYTES + writes * self.WRITE_BYTES

        report = tmiu.report()
        assert (report.cycles, report.bytes_moved) == (cycles, nbytes)
        assert report.boot_ms == pytest.approx(boot_cycles * 1000 / self.CLOCK_HZ, rel=1e-12)
        assert report.total_ms == pytest.approx(cycles * 1000 / self.CLOCK_HZ, rel=1e-12)
        assert report.rate_mbps == pytest.approx(
            boot_bytes / (boot_cycles / self.CLOCK_HZ) / 1e6, rel=1e-12
        )


@functools.lru_cache(maxsize=None)
def _file_store_provision():
    """The fixture's image at one KDF step, with 800 free data sectors."""
    return make_provision(kdf_repetitions=1, data_slack_sectors=800)
