import random

import pytest

from tmiusim.crypto import SECTOR_SIZE, decrypt_sector, sector_tag, sha256
from tmiusim.identity import CardIdentity, DeviceIdentity
from tmiusim.image import (
    BadMbrSignature,
    CapacityError,
    EntryKind,
    FileRecord,
    ImageDigestError,
    ImageFormatError,
    ImageLayout,
    Manifest,
    MbrSector,
    NvmImage,
    OverlappingPartitions,
    PartitionEntry,
    PartitionOutOfBounds,
    boot_image_length,
    build_boot_image,
    build_file_table,
    finding_failed,
    in_use_data_lbas,
    manifest_keys,
    parse_boot_image,
    parse_file_table,
    parse_mbr,
    provision,
    table_sector_count,
    verify_boot_image,
    verify_image,
)

from conftest import BOOT_ENTRIES, DATA_FILES, make_provision
from oracles import shannon_entropy


class TestMbr:
    def _mbr(self):
        return MbrSector(
            partitions=(
                PartitionEntry(0x80, 0x0C, 1, 40),
                PartitionEntry(0x00, 0x83, 41, 80),
            )
        )

    def test_round_trip(self):
        raw = self._mbr().to_bytes()
        assert len(raw) == SECTOR_SIZE
        assert raw[510:512] == b"\x55\xaa"
        parsed = parse_mbr(raw, total_sectors=128)
        assert parsed.boot_partition().lba_start == 1
        assert parsed.data_partition().sector_count == 80

    def test_little_endian_entry_fields(self):
        raw = self._mbr().to_bytes()
        # Entry 0 starts at 446: status, chs, type, chs, then LBA fields.
        assert raw[446] == 0x80
        assert raw[446 + 8 : 446 + 12] == (1).to_bytes(4, "little")
        assert raw[446 + 12 : 446 + 16] == (40).to_bytes(4, "little")

    def test_bad_signature(self):
        raw = bytearray(self._mbr().to_bytes())
        raw[510] = 0
        with pytest.raises(BadMbrSignature):
            parse_mbr(bytes(raw))

    def test_overlapping_partitions(self):
        raw = MbrSector(
            partitions=(
                PartitionEntry(0x80, 0x0C, 1, 50),
                PartitionEntry(0x00, 0x83, 30, 40),
            )
        ).to_bytes()
        with pytest.raises(OverlappingPartitions):
            parse_mbr(raw)

    def test_out_of_bounds(self):
        raw = self._mbr().to_bytes()
        with pytest.raises(PartitionOutOfBounds):
            parse_mbr(raw, total_sectors=100)

    def test_partition_may_not_cover_lba_zero(self):
        raw = MbrSector(partitions=(PartitionEntry(0x80, 0x0C, 0, 40),)).to_bytes()
        with pytest.raises(PartitionOutOfBounds):
            parse_mbr(raw, total_sectors=128)


class TestBootImage:
    def test_single_byte_blob_fits_one_sector(self):
        container = build_boot_image([(EntryKind.KERNEL, b"x")])
        assert len(container) == SECTOR_SIZE

    def test_size_is_next_sector_multiple(self):
        for size in (1, 400, 480, 481, 512, 5000):
            container = build_boot_image([(EntryKind.KERNEL, b"k" * size)])
            assert len(container) % SECTOR_SIZE == 0
            # header(12) + table(9) + payload + token(32), rounded up
            assert len(container) == -(-(12 + 9 + size + 32) // SECTOR_SIZE) * SECTOR_SIZE

    def test_round_trip_and_verify(self):
        container = build_boot_image(BOOT_ENTRIES)
        image = verify_boot_image(container)
        assert [(k, bytes(b)) for k, b in image.entries] == [
            (k, b) for k, b in BOOT_ENTRIES
        ]
        assert boot_image_length(container[:64]) == len(container)

    def test_any_payload_tamper_breaks_digest(self):
        container = bytearray(build_boot_image(BOOT_ENTRIES))
        container[100] ^= 0x20
        with pytest.raises(ImageDigestError):
            verify_boot_image(bytes(container))

    def test_entry_table_tamper_breaks_digest(self):
        container = bytearray(build_boot_image(BOOT_ENTRIES))
        container[13] ^= 0x01  # inside the entry table
        with pytest.raises((ImageDigestError, ImageFormatError)):
            verify_boot_image(bytes(container))

    def test_truncated_container_is_malformed(self):
        container = build_boot_image(BOOT_ENTRIES)
        with pytest.raises(ImageFormatError):
            verify_boot_image(container[:-100])

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            build_boot_image([])
        with pytest.raises(ValueError):
            build_boot_image([(EntryKind.KERNEL, b"")])

    def test_randomized_build_verify_property(self):
        rng = random.Random(0xB001)
        kinds = list(EntryKind)
        for _ in range(50):
            entries = [
                (rng.choice(kinds), rng.randbytes(rng.randrange(1, 3000)))
                for _ in range(rng.randrange(1, 6))
            ]
            image = verify_boot_image(build_boot_image(entries))
            assert [(k, bytes(b)) for k, b in image.entries] == entries

    def test_kind_labels(self):
        assert EntryKind.PARTIAL_BITSTREAM.label == "partial-bitstream"
        assert EntryKind.from_label("devicetree") is EntryKind.DEVICETREE
        with pytest.raises(ValueError):
            EntryKind.from_label("rootkit")


class TestFileTable:
    def test_round_trip(self):
        records = [FileRecord("a.txt", 2048, 100), FileRecord("dir/b", 2560, 513)]
        table = build_file_table(records, table_sectors=4)
        assert len(table) == 4 * SECTOR_SIZE
        assert table_sector_count(table[:SECTOR_SIZE]) == 4
        assert parse_file_table(table) == records

    def test_table_capacity(self):
        records = [FileRecord(f"file-{i:04d}", 0, 0) for i in range(200)]
        with pytest.raises(CapacityError):
            build_file_table(records, table_sectors=1)


class TestLayout:
    def test_tag_location(self):
        layout = ImageLayout(
            total_sectors=100,
            boot_start=1,
            boot_sectors=10,
            data_start=11,
            data_sectors=83,
        )
        assert layout.tag_location(11) == (94, 0)
        assert layout.tag_location(11 + 16) == (95, 0)
        assert layout.tag_location(11 + 17) == (95, 32)
        with pytest.raises(ValueError):
            layout.tag_location(5)

    def test_rejects_inconsistent_regions(self):
        with pytest.raises(ValueError):
            ImageLayout(
                total_sectors=100,
                boot_start=1,
                boot_sectors=10,
                data_start=12,  # gap
                data_sectors=82,
            )
        with pytest.raises(ValueError):
            ImageLayout(  # integrity region too small
                total_sectors=100,
                boot_start=1,
                boot_sectors=10,
                data_start=11,
                data_sectors=88,
            )


class TestProvision:
    def test_plaintext_round_trip(self, provisioned):
        aes_key, _ = manifest_keys(provisioned.manifest)
        layout = provisioned.layout
        image = provisioned.image

        mbr_plain = decrypt_sector(aes_key, 0, image.read_sector(0))
        mbr = parse_mbr(mbr_plain, layout.total_sectors)
        assert mbr.boot_partition().lba_start == layout.boot_start
        assert mbr.data_partition().sector_count == layout.data_sectors

        container = b"".join(
            decrypt_sector(aes_key, layout.boot_start + i, image.read_sector(layout.boot_start + i))
            for i in range(layout.boot_sectors)
        )
        parsed = verify_boot_image(container[: boot_image_length(container)])
        assert [(k, bytes(b)) for k, b in parsed.entries] == BOOT_ENTRIES

        table_plain = decrypt_sector(
            aes_key, layout.data_start, image.read_sector(layout.data_start)
        )
        sectors = table_sector_count(table_plain)
        table = b"".join(
            decrypt_sector(aes_key, layout.data_start + i, image.read_sector(layout.data_start + i))
            for i in range(sectors)
        )
        records = {r.label: r for r in parse_file_table(table)}
        for label, blob in DATA_FILES:
            rec = records[label]
            assert rec.length == len(blob)
            start = layout.data_start + rec.offset // SECTOR_SIZE
            count = -(-len(blob) // SECTOR_SIZE) if blob else 0
            plain = b"".join(
                decrypt_sector(aes_key, start + i, image.read_sector(start + i))
                for i in range(count)
            )
            assert plain[: len(blob)] == blob

    def test_every_data_sector_tag_verifies(self, provisioned):
        aes_key, mac_key = manifest_keys(provisioned.manifest)
        layout = provisioned.layout
        image = provisioned.image
        for lba in range(layout.data_start, layout.data_start + layout.data_sectors):
            meta_lba, offset = layout.tag_location(lba)
            meta_plain = decrypt_sector(aes_key, meta_lba, image.read_sector(meta_lba))
            assert meta_plain[offset : offset + 32] == sector_tag(
                mac_key, lba, image.read_sector(lba)
            )

    def test_single_bit_flip_breaks_exactly_one_tag(self, provisioned):
        rng = random.Random(0xF11)
        aes_key, mac_key = manifest_keys(provisioned.manifest)
        layout = provisioned.layout
        image = provisioned.image.clone()
        lba = rng.randrange(layout.data_start, layout.data_start + layout.data_sectors)
        sector = bytearray(image.read_sector(lba))
        sector[rng.randrange(512)] ^= 1 << rng.randrange(8)
        image.write_sector(lba, bytes(sector))

        bad = []
        for check in range(layout.data_start, layout.data_start + layout.data_sectors):
            meta_lba, offset = layout.tag_location(check)
            meta_plain = decrypt_sector(aes_key, meta_lba, image.read_sector(meta_lba))
            if meta_plain[offset : offset + 32] != sector_tag(
                mac_key, check, image.read_sector(check)
            ):
                bad.append(check)
        assert bad == [lba]

    def test_mbr_digest_anchors_encrypted_mbr(self, provisioned):
        _, mac_key = manifest_keys(provisioned.manifest)
        assert provisioned.anchors.mbr_digest == sector_tag(
            mac_key, 0, provisioned.image.read_sector(0)
        )

    def test_no_plaintext_window_survives(self, provisioned):
        image_bytes = provisioned.image.to_bytes()
        container = build_boot_image(BOOT_ENTRIES)
        for start in range(0, len(container) - 16, 997):
            assert container[start : start + 16] not in image_bytes
        for _, blob in DATA_FILES:
            if len(blob) >= 16:
                assert blob[:16] not in image_bytes

    def test_in_use_sector_entropy_exceeds_threshold(self, provisioned):
        # The fixture's plaintext is highly compressible (repeating text,
        # all-zero key store), so this is a real no-plaintext check.
        image = provisioned.image
        layout = provisioned.layout
        lbas = [0, layout.meta_start]
        lbas += range(layout.boot_start, layout.boot_start + layout.boot_sectors)
        lbas += in_use_data_lbas(image, provisioned.manifest)
        for lba in lbas:
            assert shannon_entropy(image.read_sector(lba)) > 7.0

    def test_deterministic(self):
        a = make_provision()
        b = make_provision()
        assert a.image.to_bytes() == b.image.to_bytes()
        assert a.manifest.to_text() == b.manifest.to_text()

    def test_capacity_exceeded(self):
        with pytest.raises(CapacityError):
            make_provision(total_sectors=40)

    def test_duplicate_labels_rejected(self):
        dev = DeviceIdentity(dna=1)
        card = CardIdentity.from_seed(b"c")
        with pytest.raises(ValueError):
            provision(
                [(EntryKind.KERNEL, b"k")],
                [("same", b"a"), ("same", b"b")],
                dev,
                card,
                kdf_repetitions=1,
            )

    def test_explicit_geometry_is_honored(self):
        result = make_provision(total_sectors=256)
        assert result.layout.total_sectors == 256
        assert result.image.total_sectors == 256

    def test_provision_without_data_files_boots(self):
        from tmiusim import build_system

        result = provision(
            [(EntryKind.KERNEL, b"tiny")],
            [],
            DeviceIdentity(dna=5),
            CardIdentity.from_seed(b"nofiles"),
            kdf_repetitions=1,
        )
        host, _, _, _ = build_system(result.manifest, result.image)
        assert host.run_boot(expected_entries=result.manifest.entries).ok


class TestManifest:
    def test_text_round_trip(self, provisioned):
        text = provisioned.manifest.to_text()
        parsed = Manifest.from_text(text)
        assert parsed == provisioned.manifest
        assert parsed.to_text() == text

    def test_canonical_fields_present(self, provisioned):
        text = provisioned.manifest.to_text()
        for key in (
            "device_checksum=",
            "nvm_checksum=",
            "mbr_digest=",
            "kdf_counter=",
            "kdf_repetitions=",
            "geometry=",
            "boot_lba=",
            "data_lba=",
            "meta_lba=",
        ):
            assert key in text

    def test_entry_digests_match_content(self, provisioned):
        for (kind, blob), (label, length, digest) in zip(
            BOOT_ENTRIES, provisioned.manifest.entries
        ):
            assert kind.label == label
            assert len(blob) == length
            assert sha256(blob).hex() == digest

    def test_malformed_manifests_rejected(self, provisioned):
        from tmiusim.image import ManifestError

        good = provisioned.manifest.to_text()
        layout = provisioned.layout
        with pytest.raises(ManifestError):
            Manifest.from_text(good.replace("kdf_counter=", "kdf_kounter="))
        with pytest.raises(ManifestError):
            Manifest.from_text(good + "just a stray line\n")
        with pytest.raises(ManifestError):
            Manifest.from_text(good.replace("geometry=", "geometry=not-a-number;"))
        for record in ("entry=kernel,6", "file=a,b", "entry=kernel,x,abc"):
            with pytest.raises(ManifestError, match=r"^line \d+:"):
                Manifest.from_text(good + record + "\n")
        meta = f"meta_lba={layout.meta_start},{layout.meta_sectors}"
        shifted = f"meta_lba={layout.meta_start + 1},{layout.meta_sectors - 1}"
        with pytest.raises(ManifestError):
            Manifest.from_text(good.replace(meta, shifted))


def test_image_save_load_round_trip(tmp_path, provisioned):
    path = tmp_path / "card.nvm"
    provisioned.image.save(path)
    loaded = NvmImage.load(path)
    assert loaded.to_bytes() == provisioned.image.to_bytes()
    with pytest.raises(IndexError):
        loaded.read_sector(loaded.total_sectors)


def _flip(image, lba, offset):
    sector = bytearray(image.read_sector(lba))
    sector[offset] ^= 0x10
    image.write_sector(lba, bytes(sector))


class TestVerifyImage:
    @pytest.mark.parametrize("case", ["clean", "data", "tag", "boot", "mbr", "short"])
    def test_findings(self, case, provisioned):
        layout = provisioned.layout
        image = provisioned.image.clone()
        data_lbas = range(layout.data_start, layout.data_start + layout.data_sectors)
        expected = []
        if case == "data":
            _flip(image, layout.data_start + 5, 300)
            expected = [f"data=FAIL lba={layout.data_start + 5}"]
        elif case == "tag":
            _flip(image, layout.meta_start, 100)  # inside the fourth tag slot
            expected = [
                f"data=FAIL lba={lba}"
                for lba in data_lbas
                if layout.tag_location(lba) == (layout.meta_start, 96)
            ]
            assert len(expected) == 1
        elif case == "boot":
            _flip(image, layout.boot_start + 1, 7)
        elif case == "mbr":
            _flip(image, 0, 450)
            expected = ["mbr=FAIL lba=0"]
        elif case == "short":  # no sector is read when the size disagrees
            image = NvmImage(image.to_bytes()[:-SECTOR_SIZE])
            total = layout.total_sectors
            expected = [f"geometry=FAIL image={total - 1} manifest={total}"]

        findings = verify_image(image, provisioned.manifest)
        failed = [f for f in findings if finding_failed(f)]
        if case == "boot":
            assert [f.split(" ")[0] for f in failed] == ["boot_image=FAIL"]
        else:
            assert failed == expected
        if case == "short":
            assert findings == expected
        if case == "clean":
            assert findings == [
                "mbr=OK",
                f"boot_image=OK sectors={layout.boot_sectors}",
                f"data=OK sectors={layout.data_sectors}",
            ] + [f"file={label} OK" for label, _ in DATA_FILES]

    def test_verdict_of_file_finding_is_its_last_word(self):
        assert finding_failed("file=notes=FAIL v2 OK") is False
        assert finding_failed("file=FAIL.txt FAIL") is True
        assert finding_failed("data=FAIL lba=3") is True
        assert finding_failed("data=OK sectors=9") is False
