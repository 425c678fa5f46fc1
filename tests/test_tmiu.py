import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tmiusim.bus import DataBlock, SdioBus, VirtualCard
from tmiusim.crypto import SectorCipher, SectorMac, decrypt_sector, sector_tag
from tmiusim.host import build_system
from tmiusim.identity import CardIdentity, DeviceIdentity
from tmiusim.image import FileRecord, build_file_table, manifest_keys
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
    Tmiu,
)

from conftest import DATA_FILES, make_provision, provision_container


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
    tmiu.verify_mbr_and_image(bus)
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
        assert not tmiu.has_keys
        assert tmiu.leds == [False, False, False, False]

    def test_reset_returns_to_prom_load_and_erases_keys(self, provisioned):
        _, tmiu, bus, _ = _system(provisioned)
        tmiu.power_on()
        tmiu.authenticate_memory(bus)
        tmiu.generate_keys()
        assert tmiu.has_keys
        tmiu.reset()
        assert tmiu.stage is Stage.PROM_LOAD
        assert not tmiu.has_keys
        assert tmiu.ledger.cycles == 0

    def test_custom_prom_store(self, provisioned):
        manifest = provisioned.manifest
        tmiu = Tmiu(
            manifest.anchors,
            DeviceIdentity(manifest.dna),
            prom=PromStore(config_size=970_000, load_rate=19_400_000),
        )
        tmiu.power_on()
        assert abs(tmiu.report().prom_ms - 50.0) < 0.01


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

    def test_csd_binding_enforced_over_the_wire(self):
        result = make_provision(bind_csd=True)
        host, _, _, _ = build_system(result.manifest, result.image.clone())
        assert host.run_boot(expected_entries=result.manifest.entries).ok

        twin_csd = bytes(reversed(result.manifest.csd))
        _, tmiu, bus, _ = build_system(result.manifest, result.image.clone(), csd=twin_csd)
        tmiu.power_on()
        assert tmiu.authenticate_memory(bus) is Stage.LOCKDOWN
        assert tmiu.reason is Denial.NVM_MISMATCH


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
        assert not tmiu.has_keys

    def test_reset_drops_the_cipher(self, provisioned):
        _, tmiu, _, _ = _boot_to_operational(provisioned)
        assert len(_held_ciphers(tmiu)) == 1
        tmiu.reset()
        assert _held_ciphers(tmiu) == []
        assert not tmiu.has_keys

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
        assert tmiu.verify_mbr_and_image(bus) is Stage.LOCKDOWN
        assert tmiu.reason is Denial.IMAGE_DIGEST_MISMATCH
        assert card.io_suspended
        assert not tmiu.has_keys

    def test_mbr_tamper_denied_before_partition_parsing(self, provisioned):
        image = provisioned.image.clone()
        sector = bytearray(image.read_sector(0))
        sector[446 + 8] ^= 0xFF  # partition entry LBA field, still ciphertext
        image.write_sector(0, bytes(sector))
        _, tmiu, bus, _ = _system(provisioned, image=image)
        tmiu.power_on()
        tmiu.authenticate_memory(bus)
        tmiu.generate_keys()
        assert tmiu.verify_mbr_and_image(bus) is Stage.LOCKDOWN
        assert tmiu.reason is Denial.MBR_MISMATCH

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

    @pytest.mark.parametrize("trace, fault", [(False, None), (True, None), (False, "h2c")])
    def test_a_read_moves_its_whole_extent_unless_frames_are_observed(self, provisioned, trace, fault):
        host, tmiu, bus, _ = _system(provisioned, trace=trace)
        assert host.run_boot().ok
        if fault is not None:
            bus.inject_fault(fault)  # pending: no write follows
        cipher = SectorCipher(manifest_keys(provisioned.manifest)[0])
        lba = provisioned.layout.data_start + 3
        expected = cipher.crypt(lba, provisioned.image.read_sectors(lba, 20))
        observed = trace or fault is not None
        assert tmiu.mediate_read(bus, lba, 20) == (expected[:512] if observed else expected)

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
        _, tmiu, bus, _ = _boot_to_operational(provisioned)
        lba = provisioned.layout.data_start
        bus.inject_fault("c2h", nth=1, byte_offset=10, bit=0)
        with pytest.raises(ProtocolCrcError):
            tmiu.mediate_read(bus, lba)
        assert tmiu.stage is Stage.OPERATIONAL
        aes_key, _ = manifest_keys(provisioned.manifest)
        cipher = SectorCipher(aes_key)
        assert tmiu.mediate_read(bus, lba) == decrypt_sector(
            cipher, lba, provisioned.image.read_sector(lba)
        )

    def test_each_processed_sector_charges_pipeline_latency(self, provisioned):
        _, tmiu, bus, _ = _boot_to_operational(provisioned)
        lba = provisioned.layout.data_start
        before = tmiu.ledger.cycles
        tmiu.mediate_read(bus, lba)
        delta = tmiu.ledger.cycles - before
        # Two sectors cross the wire (data + its tag sector), each with its
        # line-rate transfer plus exactly 52 cycles of processing.
        assert delta == 2 * (SECTOR_TRANSFER_CYCLES + SECTOR_PIPELINE_CYCLES)


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
            tmiu.verify_mbr_and_image(bus)
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
            lambda: tmiu.verify_mbr_and_image(bus),
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
                # Every op sends at least 2T + n frames of either kind.
                bus.inject_fault(kind, nth=1 + pick % (2 * self.TABLE_SECTORS + n))
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
