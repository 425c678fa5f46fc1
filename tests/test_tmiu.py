import dataclasses
import random
import threading

import pytest

from tmiusim.bus import CMD_READ_MULTIPLE, CMD_WRITE_MULTIPLE, RETRY_LIMIT, STATUS_OUT_OF_RANGE, DataBlock, VirtualCard
from tmiusim.crypto import SECTOR_SIZE, SectorCipher, SectorMac, decrypt_sector, sector_tag
from tmiusim import image as image_module, tmiu as tmiu_module
from tmiusim.host import build_system
from tmiusim.identity import CardIdentity
from tmiusim.image import (
    BOOT_PARTITION_TYPE,
    DATA_PARTITION_TYPE,
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

from conftest import DATA_FILES, image_file_records, provision_container, record_pools
from hostile import MiscountingCard, RefusingCard, ResponseCuttingCard, StallingCard, hostile_system
from oracles import CHECK_CYCLES, CLOCK_HZ, PROM_BYTES, PROM_CYCLES, TRANSFER_BYTES, TRANSFER_CYCLES
from oracles import boot_terms, cost, rate_mbps, to_ms


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

    @pytest.mark.parametrize("missing", ["boot", "data"])
    def test_a_keyed_mbr_missing_a_partition_is_denied(self, provisioned, missing):
        # Sealed and anchored with the pair's own keys, so only the layout
        # check can refuse it.
        layout = provisioned.layout
        partitions = {
            "boot": PartitionEntry(0x80, BOOT_PARTITION_TYPE, layout.boot_start, layout.boot_sectors),
            "data": PartitionEntry(0x00, DATA_PARTITION_TYPE, layout.data_start, layout.data_sectors),
        }
        del partitions[missing]
        aes_key, mac_key = manifest_keys(provisioned.manifest)
        sealed = SectorCipher(aes_key).crypt(0, MbrSector(partitions=tuple(partitions.values())).to_bytes())
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
            assert tmiu.stage is Stage.OPERATIONAL and host.read_file("new.bin") == blob
            results.append((getattr(card, "stalls", 0), card.backing.to_bytes()))
        (_, stored), (stalls, stalled_stored) = results
        assert stalls > 0 and stalled_stored == stored


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
    """The cost formula of ``oracles``, which the clock of tests/test_model.py
    checks every step against, against the paper's figure and the modules' constants."""

    def test_formula_reproduces_the_13_mb_pin(self):
        # 13,000,000 bytes of kernel seal into a 25,391-sector container.
        boot_cycles, boot_bytes = cost(*boot_terms(True, 25_391, True))
        assert PROM_CYCLES + boot_cycles == 30_898_420
        assert f"{to_ms(PROM_CYCLES):.3f}" == "97.938"
        assert f"{to_ms(boot_cycles):.3f}" == "520.030"
        assert f"{rate_mbps(boot_cycles, boot_bytes):.3f}" == "25.000"

    def test_terms_are_the_modules_constants(self):
        prom = PromStore()
        assert PROM_CYCLES == -(-prom.config_size * CLOCK_HZ // prom.load_rate)
        assert (PROM_BYTES, CLOCK_HZ) == (prom.config_size, tmiu_module.CLOCK_HZ)
        terms = (TRANSFER_CYCLES, TRANSFER_BYTES, CHECK_CYCLES)
        assert terms == (SECTOR_TRANSFER_CYCLES, SECTOR_SIZE, SECTOR_PIPELINE_CYCLES)
