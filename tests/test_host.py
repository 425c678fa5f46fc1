import array
import functools
import hashlib
import random
import struct
import threading

import pytest

from tmiusim.bus import DataBlock, VirtualCard
from tmiusim.crypto import RUN_SECTORS, SECTOR_SIZE, SectorCipher, sha256
from tmiusim import image as image_module
from tmiusim.host import HostError, HostPhase, build_system
from tmiusim.identity import CardIdentity
from tmiusim.image import (
    HASH_THREAD_MIN_CONTAINER,
    CapacityError,
    EntryKind,
    manifest_keys,
    verify_image,
)
from tmiusim.tmiu import Denial, LockdownError, Stage

from conftest import (
    BOOT_ENTRIES,
    DATA_FILES,
    build_boot_image,
    forge_container,
    forge_kernel,
    image_file_records,
    make_provision,
    provision_container,
    record_pools,
)
from hostile import ByteCuttingCard, MiscountingCard, hostile_system
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

    @pytest.mark.parametrize("trace", [False, True])
    def test_a_boot_that_raises_halts_the_host(self, provisioned, monkeypatch, trace):
        # The cipher's third call deciphers the boot stream's first run,
        # after the MBR and the container's first sector.
        class CipherFault(Exception):
            pass

        calls, crypt = [], SectorCipher.crypt

        def failing_crypt(cipher, first_sector, data):
            calls.append(first_sector)
            if len(calls) == 3:
                raise CipherFault("cipher failed")
            return crypt(cipher, first_sector, data)

        monkeypatch.setattr(SectorCipher, "crypt", failing_crypt)
        host, tmiu, _, _ = build_system(provisioned.manifest, provisioned.image.clone(), trace=trace)
        with pytest.raises(CipherFault):
            host.run_boot(expected_entries=provisioned.manifest.entries)
        assert calls[2] > provisioned.layout.boot_start  # mid-stream
        assert (tmiu.stage, tmiu.reason) == (Stage.LOCKDOWN, Denial.BUS_ERROR)
        assert host.phase is HostPhase.HALTED and host.loaded_entries == []
        with pytest.raises(HostError, match="host is Halted"):
            host.read_file(DATA_FILES[0][0])


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

    @pytest.mark.parametrize("label", ["", "a\nb", "x\x00"])
    def test_a_label_that_breaks_the_rule_is_refused_and_writes_nothing(self, provisioned, label):
        host, _, _, card, _ = _boot(provisioned)
        before = card.backing.to_bytes()
        with pytest.raises(ValueError, match="bad file label"):
            host.write_file(label, b"payload")
        assert card.backing.to_bytes() == before
        host.write_file("after", b"payload")
        assert host.read_file("after") == b"payload"
        for name, blob in DATA_FILES:
            assert host.read_file(name) == blob

    @pytest.mark.parametrize(
        "wrap", [lambda b: memoryview(b).cast("I"), lambda b: array.array("I", b)], ids=["memoryview", "array"]
    )
    def test_a_buffer_of_wider_items_is_stored_by_its_bytes(self, provisioned, wrap):
        # A one-sector hole before another file: a blob counted in items
        # (512 of 4 bytes) would be given the hole and overrun the file.
        host, _, _, _, _ = _boot(provisioned)
        host.write_file("hole", bytes(512))
        host.write_file("victim", b"v" * 512)
        host.write_file("hole", bytes(1024))
        blob = bytes(range(256)) * 8
        host.write_file("wide", wrap(blob))
        assert host.read_file("wide") == blob
        assert host.read_file("victim") == b"v" * 512
        for name, data in DATA_FILES:
            assert host.read_file(name) == data

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

    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("expect", [False, True], ids=["unchecked", "expected_entries"])
    @pytest.mark.parametrize("edit", ["kind", "offset"])
    def test_an_entry_table_forged_without_the_key_is_denied_by_the_host(self, provisioned, edit, expect, trace):
        # The same keyless forgery as above, made to the first entry of the
        # table: a kind no EntryKind has, or an offset past the payload. The
        # resealed trailer passes the unit; the host's parse of the table
        # denies the boot, whether or not it has entries to check against.
        container = bytearray(build_boot_image(BOOT_ENTRIES))
        if edit == "kind":
            container[12] = 9
        else:
            payload_len = len(container) - 32 - (12 + 9 * len(BOOT_ENTRIES))
            struct.pack_into(">I", container, 13, payload_len)
        container[-32:] = sha256(bytes(container[:-32]))
        image = forge_container(provisioned, bytes(container))
        host, tmiu, _, _ = build_system(provisioned.manifest, image, trace=trace)
        outcome = host.run_boot(expected_entries=provisioned.manifest.entries if expect else None)
        assert outcome.outcome_class == "ImageDigestMismatch"
        assert (tmiu.stage, tmiu.reason) == (Stage.OPERATIONAL, None)
        assert host.phase is HostPhase.HALTED and host.loaded_entries == []


# 3 MiB: past HASH_THREAD_MIN_CONTAINER, where provisioning hashes on a
# worker thread.
LARGE_ENTRIES = [
    (EntryKind.FSBL, b"fsbl" * 300),
    (EntryKind.KERNEL, random.Random(11).randbytes(3 << 20)),
    (EntryKind.DEVICETREE, b"\x00dt" * 700),
]


@functools.lru_cache(maxsize=None)
def _large_provision():
    return make_provision(boot_entries=LARGE_ENTRIES)


def _container_with_spans(total_len: int, spans) -> bytes:
    """A sealed container of ``total_len`` bytes over random payload bytes,
    whose entry table names ``spans``, (kind, payload offset, length) each:
    they may overlap and come in any order."""
    body = bytearray(struct.pack(">4sHHI", b"TMBI", 1, len(spans), total_len))
    for kind, offset, length in spans:
        body += struct.pack(">BII", kind.value, offset, length)
    body += random.Random(total_len).randbytes(total_len - 32 - len(body))
    return bytes(body) + hashlib.sha256(body).digest()


class TestBootDigests:
    """The host hashes each entry of a container whole, on the booting
    thread, once the unit has let the whole container through."""

    def test_a_boot_reads_the_sha256_of_each_entry(self):
        result = _large_provision()
        assert result.layout.boot_sectors * SECTOR_SIZE >= HASH_THREAD_MIN_CONTAINER
        want = [(kind.label, len(blob), hashlib.sha256(blob).digest()) for kind, blob in LARGE_ENTRIES]
        host, _, _, _, outcome = _boot(result)
        assert outcome.ok
        assert [(e.kind_label, e.length, e.digest) for e in host.loaded_entries] == want

    def test_each_entry_is_hashed_once_whole_after_the_stream_ends(self, monkeypatch):
        events = []  # ("receive" or "hash", byte count), in order
        receive, hash_ = image_module.BootStream.receive, image_module.sha256

        def receiving(stream, item):
            events.append(("receive", len(item) if type(item) is bytes else 0))
            receive(stream, item)

        def hashing(data):
            events.append(("hash", len(data)))
            return hash_(data)

        result = _large_provision()
        monkeypatch.setattr(image_module.BootStream, "receive", receiving)
        monkeypatch.setattr(image_module, "sha256", hashing)
        _, _, _, _, outcome = _boot(result)
        assert outcome.ok
        kinds = [kind for kind, _ in events]
        received = kinds.count("receive")
        assert kinds == ["receive"] * received + ["hash"] * len(LARGE_ENTRIES)
        assert [size for _, size in events[received:]] == [len(blob) for _, blob in LARGE_ENTRIES]
        assert sum(size for _, size in events[:received]) == result.layout.boot_sectors * SECTOR_SIZE

    @pytest.mark.parametrize("end", ["clean", "sector_flip", "short_run", "short_sector", "crypt_raises"])
    def test_a_boot_starts_no_thread(self, monkeypatch, end):
        result = _large_provision()
        layout = result.layout
        late = layout.boot_start + layout.boot_sectors - 200  # past 2 MiB of the stream
        host, tmiu, _, card = hostile_system(result, {"short_sector": ByteCuttingCard}.get(end, MiscountingCard), False)
        if end == "sector_flip":
            sector = bytearray(card.backing.read_sector(late))
            sector[17] ^= 0x04
            card.backing.write_sector(late, bytes(sector))
        elif end == "short_sector":
            card.cut_from = late
        arrived = []
        receive = image_module.BootStream.receive

        def receiving(stream, item):
            arrived.append(len(item) if type(item) is bytes else 0)
            if end == "short_run" and sum(arrived) >= (late - layout.boot_start) * SECTOR_SIZE:
                card.lie = "short"  # from here each CMD18 transfer ends after two sectors
            receive(stream, item)

        crypt = SectorCipher.crypt

        def failing_crypt(cipher, first_sector, data):
            if first_sector >= late:
                raise RuntimeError("cipher failed")
            return crypt(cipher, first_sector, data)

        monkeypatch.setattr(image_module.BootStream, "receive", receiving)
        if end == "crypt_raises":
            monkeypatch.setattr(SectorCipher, "crypt", failing_crypt)
        pools = record_pools(monkeypatch)
        before = threading.active_count()
        if end == "crypt_raises":
            with pytest.raises(RuntimeError, match="cipher failed"):
                host.run_boot()
            assert tmiu.reason is Denial.BUS_ERROR  # the unit failed closed
        else:
            outcome = host.run_boot(expected_entries=result.manifest.entries)
            want = {"clean": "OsRunning", "sector_flip": "ImageDigestMismatch"}.get(end, "BusError")
            assert outcome.outcome_class == want
        assert sum(arrived) > 2 << 20
        assert (tmiu.stage is Stage.OPERATIONAL) == (end == "clean")
        assert pools == [] and threading.active_count() == before

    def test_an_offline_container_check_starts_no_thread(self, monkeypatch):
        result = _large_provision()
        pools = record_pools(monkeypatch)
        before = threading.active_count()
        findings = verify_image(result.image, result.manifest)
        assert f"boot_image=OK sectors={result.layout.boot_sectors}" in findings
        assert pools == [] and threading.active_count() == before

    @pytest.mark.parametrize("trace", [False, True])
    def test_an_entry_count_flipped_to_zero_is_denied(self, monkeypatch, trace):
        # The boot region is ciphered sector by sector with no tag, so a card
        # can flip the ciphertext bits of the first sector's entry count (the
        # header's bytes 6-7) to make it read 0 in the plaintext.
        result = _large_provision()
        boot_start = result.layout.boot_start
        host, tmiu, _, card = hostile_system(result, VirtualCard, trace)
        sector = bytearray(card.backing.read_sector(boot_start))
        sector[6:8] = bytes(a ^ b for a, b in zip(sector[6:8], len(LARGE_ENTRIES).to_bytes(2, "big")))
        card.backing.write_sector(boot_start, bytes(sector))
        received = []
        receive = image_module.BootStream.receive
        monkeypatch.setattr(
            image_module.BootStream, "receive", lambda self, item: received.append(item) or receive(self, item)
        )
        outcome = host.run_boot(expected_entries=result.manifest.entries)
        assert outcome.outcome_class == "ImageDigestMismatch"
        assert tmiu.stage is Stage.LOCKDOWN and host.phase is HostPhase.HALTED
        assert isinstance(received[-1], DataBlock) and not received[-1].crc_ok
        assert card.io_suspended and card._open is None

    def test_any_flip_of_the_header_or_entry_table_is_denied(self):
        # Every byte the host reads to find the entries: the header and the
        # entry table.
        result = _large_provision()
        boot_start = result.layout.boot_start
        rng = random.Random(0x25)
        for at in range(12 + 9 * len(LARGE_ENTRIES)):
            host, tmiu, _, card = hostile_system(result, VirtualCard, False)
            sector = bytearray(card.backing.read_sector(boot_start))
            sector[at] ^= rng.randrange(1, 256)
            card.backing.write_sector(boot_start, bytes(sector))
            outcome = host.run_boot(expected_entries=result.manifest.entries)
            assert outcome.outcome_class == "ImageDigestMismatch", at
            assert tmiu.stage is Stage.LOCKDOWN and card.io_suspended

    def test_a_hash_that_raises_halts_the_host(self, monkeypatch):
        raised_on = []

        def failing_sha256(data):
            raised_on.append(threading.current_thread())
            raise MemoryError("no room to hash")

        result = _large_provision()
        # The host's entry hashes fail; the unit's container hash does not.
        monkeypatch.setattr(image_module, "sha256", failing_sha256)
        host, tmiu, _, _ = build_system(result.manifest, result.image.clone())
        with pytest.raises(MemoryError, match="no room to hash"):
            host.run_boot()
        assert raised_on == [threading.current_thread()]  # raised once, on the booting thread
        assert host.phase is HostPhase.HALTED and host.loaded_entries == []
        assert tmiu.stage is Stage.OPERATIONAL  # the unit let the container through

    @pytest.mark.parametrize(
        "ssbls, run_sectors",
        [(59, RUN_SECTORS), (396, 7)],
        ids=["60_entries", "397_entries_in_runs_of_7"],
    )
    def test_a_table_past_the_first_item_is_read(self, monkeypatch, ssbls, run_sectors):
        # Traced, each item is one 512-byte sector, and a table of more than
        # 55 entries (12 + 9 * 56 = 516 bytes) does not fit in the first.
        # Untraced, in runs of 7 sectors the first item is 3,584 bytes: it
        # ends inside the length field of the last entry of a 397-entry
        # table, before the length's low byte.
        monkeypatch.setattr("tmiusim.tmiu.RUN_SECTORS", run_sectors)
        entries = [(EntryKind.SSBL, bytes([i % 256]) * 300) for i in range(ssbls)]
        entries.append((EntryKind.KERNEL, random.Random(13).randbytes(64 << 10)))
        result = make_provision(boot_entries=entries)
        want = [(kind.label, len(blob), hashlib.sha256(blob).digest()) for kind, blob in entries]
        runs = []
        for trace in (True, False):
            host, _, bus, _, outcome = _boot(result, trace=trace)
            assert outcome.ok
            assert [(e.kind_label, e.length, e.digest) for e in host.loaded_entries] == want
            runs.append((outcome.report.to_text(), bus.transcript))
        assert runs[0][0] == runs[1][0] and runs[0][1] and runs[1][1] == []

    def test_entries_whose_spans_overlap_or_come_out_of_order(self):
        result = provision_container(6000)
        layout = result.layout
        total_len = layout.boot_sectors * SECTOR_SIZE
        payload_len = total_len - 32 - 12 - 9 * 5
        spans = [
            (EntryKind.FSBL, 0, payload_len),  # all of it
            (EntryKind.KERNEL, 1_500_000, 1_200_000),
            (EntryKind.SSBL, 100, 50),  # earlier than the one before it
            (EntryKind.DEVICETREE, 1_400_000, 800_000),  # overlapping the kernel
            (EntryKind.KERNEL, payload_len - 1, 1),  # the last payload byte
        ]
        container = _container_with_spans(total_len, spans)
        image = result.image.clone()
        cipher = SectorCipher(manifest_keys(result.manifest)[0])
        image.write_sectors(layout.boot_start, cipher.crypt(layout.boot_start, container))
        table_end = 12 + 9 * len(spans)
        want = [
            (kind.label, length, hashlib.sha256(container[table_end + at : table_end + at + length]).digest())
            for kind, at, length in spans
        ]
        host, _, _, _ = build_system(result.manifest, image)
        assert host.run_boot().ok
        assert [(e.kind_label, e.length, e.digest) for e in host.loaded_entries] == want
