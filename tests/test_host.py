import random

import pytest

from tmiusim.crypto import sha256
from tmiusim.host import HostError, HostPhase, build_system
from tmiusim.identity import CardIdentity
from tmiusim.image import CapacityError
from tmiusim.tmiu import Denial, LockdownError, Stage

from conftest import DATA_FILES, forge_kernel, image_file_records, make_provision
from oracles import shannon_entropy


def _boot(provisioned, image=None, **overrides):
    host, tmiu, bus, card = build_system(
        provisioned.manifest,
        image if image is not None else provisioned.image.clone(),
        **overrides,
    )
    outcome = host.run_boot(expected_entries=provisioned.manifest.entries)
    return host, tmiu, bus, card, outcome


class TestRunBoot:
    def test_clean_boot_reaches_os_running(self, provisioned):
        host, tmiu, _, _, outcome = _boot(provisioned)
        assert outcome.ok and outcome.outcome_class == "OsRunning"
        assert host.phase is HostPhase.OS_RUNNING
        assert tmiu.leds == [True, True, True, True]
        got = [(e.kind_label, e.length, e.digest.hex()) for e in host.loaded_entries]
        assert got == [tuple(e) for e in provisioned.manifest.entries]

    def test_wrong_card_denies_with_zero_bytes_delivered(self, provisioned):
        foreign = CardIdentity.from_seed(b"attacker-card")
        host, tmiu, bus, _, outcome = _boot(provisioned, cid=foreign.cid, trace=True)
        assert not outcome.ok
        assert outcome.outcome_class == "NvmMismatch"
        assert host.phase is HostPhase.HALTED
        assert host.loaded_entries == []
        # Denied before streaming: the unit never reached stage 3, and the
        # transcript carries no data frames at all.
        assert Stage.KEYGEN_IMAGE_AUTH not in [stage for stage, _, _ in tmiu.stage_history]
        assert outcome.report.boot_ms == 0
        assert not any("KIND=DAT" in line for line in bus.transcript)

    def test_tampered_boot_image_denies_and_discards_partial_stream(self, provisioned):
        rng = random.Random(0x40)
        image = provisioned.image.clone()
        layout = provisioned.layout
        lba = layout.boot_start + rng.randrange(layout.boot_sectors)
        sector = bytearray(image.read_sector(lba))
        sector[rng.randrange(512)] ^= 1 << rng.randrange(8)
        image.write_sector(lba, bytes(sector))
        host, _, _, _, outcome = _boot(provisioned, image=image)
        assert outcome.outcome_class == "ImageDigestMismatch"
        assert host.phase is HostPhase.HALTED
        assert host.loaded_entries == []

    def test_expected_entry_mismatch_halts(self, provisioned):
        host, _, _, _ = build_system(provisioned.manifest, provisioned.image.clone())
        wrong = [("kernel", 1, "00" * 32)]
        outcome = host.run_boot(expected_entries=wrong)
        assert not outcome.ok
        assert host.phase is HostPhase.HALTED


class TestFileStore:
    def test_provisioned_file_round_trip(self, provisioned):
        host, _, _, _, _ = _boot(provisioned)
        for label, blob in DATA_FILES:
            assert host.read_file(label) == blob

    def test_unknown_label(self, provisioned):
        host, _, _, _, _ = _boot(provisioned)
        with pytest.raises(FileNotFoundError):
            host.read_file("nope.bin")

    def test_requires_running_phase(self, provisioned):
        host, _, _, _ = build_system(provisioned.manifest, provisioned.image.clone())
        with pytest.raises(HostError):
            host.read_file("etc/config.txt")

    def test_tampered_file_sector_blocks_the_read(self, provisioned):
        host, tmiu, bus, card, _ = _boot(provisioned)
        # Tamper the backing store behind the first file's first sector.
        records = {r.label: r for r in image_file_records(provisioned.image, provisioned.manifest)}
        record = records["var/log.bin"]
        lba = provisioned.layout.data_start + record.offset // 512
        sector = bytearray(card.backing.read_sector(lba))
        sector[0] ^= 1
        card.backing.write_sector(lba, bytes(sector))
        with pytest.raises(LockdownError) as exc_info:
            host.read_file("var/log.bin")
        assert exc_info.value.reason is Denial.SECTOR_TAG_MISMATCH

    def test_write_read_reboot_persistence(self, provisioned):
        host, _, _, _, _ = _boot(provisioned)
        blob = bytes(random.Random(11).randbytes(2500))
        host.write_file("state/checkpoint", blob)
        assert host.read_file("state/checkpoint") == blob
        outcome = host.reboot(expected_entries=provisioned.manifest.entries)
        assert outcome.ok
        assert host.read_file("state/checkpoint") == blob
        assert host.read_file("etc/config.txt") == dict(DATA_FILES)["etc/config.txt"]

    def test_overwrite_and_zero_length_files(self, provisioned):
        host, _, _, _, _ = _boot(provisioned)
        host.write_file("x", b"first version")
        host.write_file("x", b"v2" * 600)
        assert host.read_file("x") == b"v2" * 600
        host.write_file("empty", b"")
        assert host.read_file("empty") == b""

    def test_capacity_exceeded_leaves_table_intact(self, provisioned):
        host, _, _, _, _ = _boot(provisioned)
        data_sectors = provisioned.layout.data_sectors
        with pytest.raises(CapacityError):
            host.write_file("huge", bytes(data_sectors * 512))
        # No partial commit: old files still resolve, new label absent.
        for label, blob in DATA_FILES:
            assert host.read_file(label) == blob
        with pytest.raises(FileNotFoundError):
            host.read_file("huge")

    def test_label_past_16_bits_is_a_capacity_error_and_writes_nothing(self, provisioned):
        host, _, _, card, _ = _boot(provisioned)
        before = card.backing.to_bytes()
        with pytest.raises(CapacityError):
            host.write_file("x" * 0x10000, b"payload")
        assert card.backing.to_bytes() == before
        for label, blob in DATA_FILES:
            assert host.read_file(label) == blob

    def test_written_sectors_are_high_entropy_at_rest(self, provisioned):
        host, _, _, card, _ = _boot(provisioned)
        host.write_file("zeros.bin", bytes(4 * 512))  # maximally compressible
        backing_manifest = provisioned.manifest
        records = {
            r.label: r
            for r in image_file_records(card.backing, backing_manifest)
        }
        record = records["zeros.bin"]
        start = provisioned.layout.data_start + record.offset // 512
        for i in range(4):
            assert shannon_entropy(card.backing.read_sector(start + i)) > 7.0

    def test_freed_extents_are_reused(self, provisioned):
        host, _, _, _, _ = _boot(provisioned)
        # Alternate large/small rewrites of the same label; a leaking
        # allocator would exhaust the partition.
        for i in range(40):
            host.write_file("cycled", bytes([i]) * (3000 if i % 2 else 700))
        assert host.read_file("cycled") == bytes([39]) * 3000


class TestThreatModelEdges:
    def test_rollback_of_a_sector_with_its_tag_goes_undetected(self, provisioned):
        # Tags bind a ciphertext to its LBA, not to a version. A data sector
        # restored together with its tag sector from an older snapshot of the
        # same card verifies, and the read returns the old plaintext.
        host, tmiu, bus, card, _ = _boot(provisioned)
        layout = provisioned.layout
        lba = layout.data_start + layout.data_sectors - 1
        meta_lba, _ = layout.tag_location(lba)
        snapshot = card.backing.clone()
        old = tmiu.mediate_read(bus, lba)
        new = bytes(range(256)) * 2
        assert new != old
        tmiu.mediate_write(bus, lba, new)
        assert host.reboot(expected_entries=provisioned.manifest.entries).ok
        assert tmiu.mediate_read(bus, lba) == new

        for restored in (lba, meta_lba):
            card.backing.write_sector(restored, snapshot.read_sector(restored))
        outcome = host.reboot(expected_entries=provisioned.manifest.entries)
        assert outcome.outcome_class == "OsRunning"
        assert tmiu.mediate_read(bus, lba) == old
        assert tmiu.reason is None

    def test_container_forged_from_known_plaintext_without_the_key(self, provisioned):
        # The unkeyed container digest passes a kernel swapped without the
        # key (see forge_kernel).
        image, kernel = forge_kernel(provisioned)
        host, tmiu, _, _ = build_system(provisioned.manifest, image)
        assert host.run_boot().outcome_class == "OsRunning"
        assert tmiu.stage is Stage.OPERATIONAL
        assert ("kernel", len(kernel), sha256(kernel)) in [
            (e.kind_label, e.length, e.digest) for e in host.loaded_entries
        ]
        # Online, only the host's check of the manifest's entry digests
        # catches it; offline, verify_image does the same check.
        outcome = host.reboot(expected_entries=provisioned.manifest.entries)
        assert outcome.outcome_class == "ImageDigestMismatch"
        assert host.phase is HostPhase.HALTED
        assert tmiu.stage is Stage.OPERATIONAL
