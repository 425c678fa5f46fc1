import hashlib
import random
import struct
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from tmiusim.crypto import (
    RUN_SECTORS,
    SECTOR_SIZE,
    SectorCipher,
    SectorMac,
    decrypt_sector,
    encrypt_sector,
    sector_tag,
    sha256,
)
from tmiusim.identity import CardIdentity, DeviceIdentity
from tmiusim.image import (
    HASH_THREAD_MIN_CONTAINER,
    MAX_CONTAINER_SIZE,
    CapacityError,
    ContainerCheck,
    EntryKind,
    FileRecord,
    FileTableError,
    ImageDigestError,
    ImageFormatError,
    ImageLayout,
    Manifest,
    ManifestError,
    MbrError,
    MbrSector,
    NvmImage,
    PartitionEntry,
    ProvisionResult,
    boot_image_index,
    boot_image_length,
    build_file_table,
    container_trailer,
    finding_failed,
    in_use_data_lbas,
    manifest_keys,
    parse_boot_image,
    parse_file_table,
    parse_mbr,
    provision,
    sealed_container_size,
    table_sector_count,
    verify_image,
    write_boot_image,
)

from conftest import (
    BOOT_ENTRIES,
    DATA_FILES,
    build_boot_image,
    check_container,
    entry_digests,
    forge_kernel,
    image_file_records,
    make_provision,
    provision_container,
    record_hash_workers,
)
from oracles import (
    boot_container_oracle,
    ctr_sector_oracle,
    kdf_key_oracle,
    kdf_mac_oracle,
    sector_tag_oracle,
    shannon_entropy,
)


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
        with pytest.raises(MbrError, match="missing 0x55AA signature"):
            parse_mbr(bytes(raw), total_sectors=128)

    def test_overlapping_partitions(self):
        raw = MbrSector(
            partitions=(
                PartitionEntry(0x80, 0x0C, 1, 50),
                PartitionEntry(0x00, 0x83, 30, 40),
            )
        ).to_bytes()
        with pytest.raises(MbrError, match="partitions overlap at LBA 30"):
            parse_mbr(raw, total_sectors=128)

    def test_out_of_bounds(self):
        raw = self._mbr().to_bytes()
        with pytest.raises(MbrError, match=r"partition \[41, \+80\) exceeds geometry"):
            parse_mbr(raw, total_sectors=100)

    def test_partition_may_not_cover_lba_zero(self):
        raw = MbrSector(partitions=(PartitionEntry(0x80, 0x0C, 0, 40),)).to_bytes()
        with pytest.raises(MbrError, match="partition must start past LBA 0 and be non-empty"):
            parse_mbr(raw, total_sectors=128)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        raw=st.one_of(
            st.binary(max_size=600),
            st.binary(min_size=510, max_size=510).map(lambda body: body + b"\x55\xaa"),
        ),
        total=st.integers(-2, 1 << 33),
    )
    def test_parse_raises_only_its_format_error(self, raw, total):
        try:
            parse_mbr(raw, total)
        except MbrError:
            pass

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_non_overlapping_partitions_round_trip(self, data):
        spans, end = [], 1
        for gap, count in data.draw(st.lists(st.tuples(st.integers(0, 1 << 24), st.integers(1, 1 << 24)), max_size=4)):
            spans.append((end + gap, count))
            end += gap + count
        order = data.draw(st.permutations(range(len(spans))))
        mbr = MbrSector(
            partitions=tuple(
                PartitionEntry(data.draw(st.integers(0, 255)), data.draw(st.integers(1, 255)), *spans[i])
                for i in order
            ),
            bootstrap=data.draw(st.binary(min_size=446, max_size=446)),
        )
        assert parse_mbr(mbr.to_bytes(), total_sectors=end) == mbr
        if spans:
            with pytest.raises(MbrError, match="exceeds geometry"):
                parse_mbr(mbr.to_bytes(), total_sectors=end - 1)


_CONTAINER_ENTRIES = st.lists(
    st.tuples(st.sampled_from(EntryKind), st.binary(min_size=1, max_size=700)), min_size=1, max_size=4
)


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
        assert check_container(container) == entry_digests(BOOT_ENTRIES)
        assert boot_image_length(container[:64]) == len(container)

    def test_any_payload_tamper_breaks_digest(self):
        container = bytearray(build_boot_image(BOOT_ENTRIES))
        container[100] ^= 0x20
        with pytest.raises(ImageDigestError):
            check_container(bytes(container))

    def test_entry_table_tamper_breaks_digest(self):
        container = bytearray(build_boot_image(BOOT_ENTRIES))
        container[13] ^= 0x01  # inside the entry table
        with pytest.raises((ImageDigestError, ImageFormatError)):
            check_container(bytes(container))

    def test_truncated_container_is_malformed(self):
        container = build_boot_image(BOOT_ENTRIES)
        with pytest.raises(ImageFormatError):
            check_container(container[:-100])

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
            assert check_container(build_boot_image(entries)) == entry_digests(entries)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_parse_raises_only_its_format_error(self, data):
        if data.draw(st.booleans()):
            raw = bytearray(data.draw(st.binary(max_size=2048)))
        else:
            # A valid container with bytes overwritten and bits flipped
            # (mostly in the header and entry table), perhaps cut and
            # extended.
            raw = bytearray(build_boot_image(data.draw(_CONTAINER_ENTRIES)))
            positions = st.one_of(st.integers(0, 48), st.integers(0, len(raw) - 1))
            for pos, value in data.draw(st.lists(st.tuples(positions, st.integers(0, 255)), max_size=3)):
                raw[pos] = value
            for pos, bit in data.draw(st.lists(st.tuples(positions, st.integers(0, 7)), max_size=3)):
                raw[pos] ^= 1 << bit
            if data.draw(st.booleans()):
                raw = raw[: data.draw(st.integers(0, len(raw)))] + data.draw(st.binary(max_size=600))
        results = []
        for container in (bytes(raw), raw):
            try:
                results.append(parse_boot_image(container))
            except ImageFormatError as exc:
                results.append(str(exc))
        assert results[0] == results[1]
        try:
            spans = boot_image_index(raw)
        except ImageFormatError as exc:
            assert results[0] == str(exc)  # the same error, where parse raised
        else:
            assert results[0] == tuple((kind, bytes(raw[start:end])) for kind, start, end in spans)
        raw.append(0)  # no view of the bytearray outlives the parse

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(entries=_CONTAINER_ENTRIES)
    def test_parse_copies_entries_out_of_a_bytearray(self, entries):
        container = build_boot_image(entries)
        parsed = parse_boot_image(bytearray(container))
        assert all(type(blob) is bytes for _, blob in parsed)
        assert parsed == parse_boot_image(container)
        assert list(parsed) == entries

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(entries=_CONTAINER_ENTRIES)
    def test_index_spans_reproduce_the_parsed_blobs(self, entries):
        container = build_boot_image(entries)
        spans = boot_image_index(container)
        assert [(kind, container[start:end]) for kind, start, end in spans] == entries
        # Laid out in order, right after the entry table.
        assert spans[0][1] == 12 + 9 * len(entries)
        assert all(end == start for (_, _, end), (_, start, _) in zip(spans, spans[1:]))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(entries=_CONTAINER_ENTRIES, offset=st.integers(1, 2000), tail=st.integers(0, 600))
    def test_in_place_writer_matches_build(self, entries, offset, tail):
        container = build_boot_image(entries)
        buf = bytearray(offset + len(container) + tail)
        assert write_boot_image(buf, offset, entries) == len(container)
        # Everything but the trailer, which is left zero for container_trailer.
        trailer_at = offset + len(container) - 32
        assert buf[offset:trailer_at] == container[:-32]
        assert not any(buf[:offset]) and not any(buf[trailer_at:])
        assert container_trailer(buf, offset) == container[-32:]
        with pytest.raises(ValueError):
            write_boot_image(buf, offset + tail + 1, entries)
        dirty = bytearray(b"\xa5" * len(buf))  # the padding is written, not assumed
        write_boot_image(dirty, offset, entries)
        assert dirty[offset:trailer_at] == container[:-32]
        assert dirty[trailer_at : trailer_at + 32] == bytes(32)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_check_over_any_run_split(self, data):
        # One kernel entry: a 21-byte header and a 32-byte digest around it.
        sectors = data.draw(st.integers(1, 200), label="sectors")
        blob = random.Random(sectors).randbytes(sectors * SECTOR_SIZE - 53)
        container = bytearray(build_boot_image([(EntryKind.KERNEL, blob)]))
        flip = data.draw(st.none() | st.integers(0, len(container) * 8 - 1), label="flip")
        if flip is not None:
            container[flip // 8] ^= 1 << flip % 8
        check = ContainerCheck(sectors)
        released = []
        start = 0
        try:
            # pending is 1 until the first sector is in: it comes alone.
            while check.pending:
                count = min(data.draw(st.integers(1, 2 * RUN_SECTORS), label="run"), check.pending)
                released.append(check.update(bytes(container[start : start + count * SECTOR_SIZE])))
                start += count * SECTOR_SIZE
            check.finish()
        except ImageFormatError:
            assert flip is not None and not released  # from the first run's header
            return
        except ImageDigestError:
            assert flip is not None
            return
        assert flip is None
        assert b"".join(released) + check.held == container

    def test_container_longer_than_the_boot_partition_is_malformed(self):
        container = build_boot_image(BOOT_ENTRIES)
        check = ContainerCheck(len(container) // SECTOR_SIZE - 1)
        with pytest.raises(ImageFormatError, match="container exceeds boot partition"):
            check.update(container[:SECTOR_SIZE])
        assert check.held == container[:SECTOR_SIZE]  # what the unit rejects in-band

    def test_a_first_sector_with_a_bad_header_is_held(self):
        first = bytearray(build_boot_image(BOOT_ENTRIES)[:SECTOR_SIZE])
        first[0] ^= 1  # inside the magic
        check = ContainerCheck(100)
        with pytest.raises(ImageFormatError, match="bad container magic"):
            check.update(bytes(first))
        assert check.held == first

    def test_kind_labels(self):
        assert EntryKind.PARTIAL_BITSTREAM.label == "partial-bitstream"
        assert EntryKind.from_label("devicetree") is EntryKind.DEVICETREE
        with pytest.raises(ValueError):
            EntryKind.from_label("rootkit")


_FILE_RECORDS = st.lists(
    st.builds(
        FileRecord,
        # The label rule: non-empty, no character below U+0020, unique.
        label=st.text(st.characters(min_codepoint=0x20, blacklist_categories=("Cs",)), min_size=1, max_size=40),
        offset=st.integers(0, (1 << 64) - 1),
        length=st.integers(0, (1 << 64) - 1),
    ),
    max_size=12,
    unique_by=lambda record: record.label,
)
BAD_LABELS = ["", "a\nb", "x\x00", "tab\there", "\x1f"]


def raw_file_table(*labels: bytes) -> bytes:
    """A one-sector file table holding ``labels`` as they are, whatever the
    label rule says, each naming a one-byte file."""
    body = b"TMFT" + struct.pack(">HH", 1, len(labels))
    for label in labels:
        body += struct.pack(">H", len(label)) + label + struct.pack(">QQ", 2048, 1)
    return body.ljust(SECTOR_SIZE, b"\0")


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

    @pytest.mark.parametrize(
        "records, table_sectors",
        [
            ([], 0x10000),
            ([FileRecord("x" * 0x10000, 0, 0)], 300),
            ([FileRecord("é" * 0x8000, 0, 0)], 300),  # 65,536 UTF-8 bytes from 32,768 characters
            ([FileRecord("", 0, 0)] * 0x10000, 4),
        ],
        ids=["table_sectors", "label_bytes", "label_utf8_bytes", "record_count"],
    )
    def test_a_field_past_16_bits_is_a_capacity_error(self, records, table_sectors):
        with pytest.raises(CapacityError):
            build_file_table(records, table_sectors)

    def test_largest_16_bit_label_still_fits(self):
        records = [FileRecord("x" * 0xFFFF, 0, 0)]
        assert parse_file_table(build_file_table(records, 130)) == records

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(records=_FILE_RECORDS, spare=st.integers(0, 2))
    def test_build_parse_round_trip(self, records, spare):
        size = 8 + sum(2 + len(r.label.encode("utf-8")) + 16 for r in records)
        sectors = -(-size // SECTOR_SIZE) + spare
        table = build_file_table(records, sectors)
        assert table_sector_count(table) == sectors
        assert parse_file_table(table) == records

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_parsers_raise_only_their_table_error(self, data):
        if data.draw(st.booleans()):
            raw = bytearray(data.draw(st.binary(max_size=1100)))
        else:
            # A valid table with bytes overwritten (mostly in the header and
            # the first records, where lengths and labels sit), perhaps cut.
            raw = bytearray(build_file_table(data.draw(_FILE_RECORDS), 2))
            positions = st.one_of(st.integers(0, 64), st.integers(0, len(raw) - 1))
            for pos, value in data.draw(st.lists(st.tuples(positions, st.integers(0, 255)), max_size=4)):
                raw[pos] = value
            if data.draw(st.booleans()):
                raw = raw[: data.draw(st.integers(0, len(raw)))]
        for parse in (table_sector_count, parse_file_table):
            try:
                parse(bytes(raw))
            except FileTableError:
                pass

    @pytest.mark.parametrize("raw", [b"", b"TMFT", b"TMFT\x00\x01\x00"])
    def test_input_shorter_than_the_header_is_a_table_error(self, raw):
        for parse in (table_sector_count, parse_file_table):
            with pytest.raises(FileTableError):
                parse(raw)

    @pytest.mark.parametrize("label", BAD_LABELS)
    def test_a_label_that_breaks_the_rule_is_refused_both_ways(self, label):
        with pytest.raises(ValueError, match="bad file label"):
            build_file_table([FileRecord(label, 2048, 1)], 1)
        with pytest.raises(FileTableError, match="bad file label"):
            parse_file_table(raw_file_table(label.encode()))

    def test_a_repeated_label_is_refused_both_ways(self):
        with pytest.raises(ValueError, match="duplicate file labels"):
            build_file_table([FileRecord("a", 2048, 1), FileRecord("a", 2560, 1)], 1)
        with pytest.raises(FileTableError, match="duplicate file labels"):
            parse_file_table(raw_file_table(b"a", b"a"))
        assert [r.label for r in parse_file_table(raw_file_table(b"a", b"b"))] == ["a", "b"]

    def test_label_that_is_not_utf8_is_a_table_error(self):
        table = bytearray(build_file_table([FileRecord("ab", 2048, 1)], 1))
        table[10] = 0xFF  # the label's first byte
        with pytest.raises(FileTableError):
            parse_file_table(bytes(table))


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
        cipher = SectorCipher(aes_key)
        layout = provisioned.layout
        image = provisioned.image

        mbr_plain = decrypt_sector(cipher, 0, image.read_sector(0))
        mbr = parse_mbr(mbr_plain, layout.total_sectors)
        assert mbr.boot_partition().lba_start == layout.boot_start
        assert mbr.data_partition().sector_count == layout.data_sectors

        container = b"".join(
            decrypt_sector(cipher, layout.boot_start + i, image.read_sector(layout.boot_start + i))
            for i in range(layout.boot_sectors)
        )
        assert check_container(container[: boot_image_length(container)]) == entry_digests(BOOT_ENTRIES)

        table_plain = decrypt_sector(
            cipher, layout.data_start, image.read_sector(layout.data_start)
        )
        sectors = table_sector_count(table_plain)
        table = b"".join(
            decrypt_sector(cipher, layout.data_start + i, image.read_sector(layout.data_start + i))
            for i in range(sectors)
        )
        records = {r.label: r for r in parse_file_table(table)}
        for label, blob in DATA_FILES:
            rec = records[label]
            assert rec.length == len(blob)
            start = layout.data_start + rec.offset // SECTOR_SIZE
            count = -(-len(blob) // SECTOR_SIZE) if blob else 0
            plain = b"".join(
                decrypt_sector(cipher, start + i, image.read_sector(start + i))
                for i in range(count)
            )
            assert plain[: len(blob)] == blob

    def test_every_data_sector_tag_verifies(self, provisioned):
        aes_key, mac_key = manifest_keys(provisioned.manifest)
        cipher, mac_key = SectorCipher(aes_key), SectorMac(mac_key)
        layout = provisioned.layout
        image = provisioned.image
        for lba in range(layout.data_start, layout.data_start + layout.data_sectors):
            meta_lba, offset = layout.tag_location(lba)
            meta_plain = decrypt_sector(cipher, meta_lba, image.read_sector(meta_lba))
            assert meta_plain[offset : offset + 32] == sector_tag(
                mac_key, lba, image.read_sector(lba)
            )

    def test_single_bit_flip_breaks_exactly_one_tag(self, provisioned):
        rng = random.Random(0xF11)
        aes_key, mac_key = manifest_keys(provisioned.manifest)
        cipher, mac_key = SectorCipher(aes_key), SectorMac(mac_key)
        layout = provisioned.layout
        image = provisioned.image.clone()
        lba = rng.randrange(layout.data_start, layout.data_start + layout.data_sectors)
        sector = bytearray(image.read_sector(lba))
        sector[rng.randrange(512)] ^= 1 << rng.randrange(8)
        image.write_sector(lba, bytes(sector))

        bad = []
        for check in range(layout.data_start, layout.data_start + layout.data_sectors):
            meta_lba, offset = layout.tag_location(check)
            meta_plain = decrypt_sector(cipher, meta_lba, image.read_sector(meta_lba))
            if meta_plain[offset : offset + 32] != sector_tag(
                mac_key, check, image.read_sector(check)
            ):
                bad.append(check)
        assert bad == [lba]

    def test_mbr_digest_anchors_encrypted_mbr(self, provisioned):
        mac_key = SectorMac(manifest_keys(provisioned.manifest)[1])
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

    def test_geometry_past_32_bit_lbas_is_a_capacity_error(self):
        with pytest.raises(CapacityError, match="32-bit LBAs"):
            make_provision(total_sectors=2**32 + 1)

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"kdf_repetitions": 65536}, "kdf_repetitions must be from 1 to 65535"),
            ({"kdf_counter": -1}, "kdf_counter must fit in 32 bits"),
            ({"kdf_counter": 1 << 32}, "kdf_counter must fit in 32 bits"),
        ],
        ids=["repetitions", "counter-1", "counter2^32"],
    )
    def test_kdf_repetitions_past_the_limit_fail_before_the_buffer(self, monkeypatch, setting, message):
        def unreached(*args, **kwargs):
            raise AssertionError("provision went past its input checks")

        monkeypatch.setattr("tmiusim.image.bytearray", unreached, raising=False)
        monkeypatch.setattr("tmiusim.image.derive_keys", unreached)
        with pytest.raises(ValueError, match=message):
            make_provision(**setting)

    @pytest.mark.parametrize("label", BAD_LABELS)
    def test_a_label_that_breaks_the_rule_is_refused(self, label):
        with pytest.raises(ValueError, match="bad file label"):
            provision(
                [(EntryKind.KERNEL, b"k")], [(label, b"a")], DeviceIdentity(dna=1), CardIdentity.from_seed(b"c")
            )

    def test_duplicate_labels_rejected(self):
        dev = DeviceIdentity(dna=1)
        card = CardIdentity.from_seed(b"c")
        with pytest.raises(ValueError, match="duplicate file labels"):
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
        manifest = provisioned.manifest
        for field, bad in (
            (f"dna={manifest.dna:#x}", "dna=0xffffffffffffffff"),
            (f"cid={manifest.cid.hex()}", "cid=" + manifest.cid[:15].hex()),
            (f"csd={manifest.csd.hex()}", "csd=" + manifest.csd.hex() + "00"),
        ):
            with pytest.raises(ManifestError):
                Manifest.from_text(good.replace(field, bad))
        meta = f"meta_lba={layout.meta_start},{layout.meta_sectors}"
        shifted = f"meta_lba={layout.meta_start + 1},{layout.meta_sectors - 1}"
        with pytest.raises(ManifestError):
            Manifest.from_text(good.replace(meta, shifted))

    def test_kdf_repetitions_past_the_limit_are_a_manifest_error(self, provisioned):
        good = provisioned.manifest.to_text()
        field = f"kdf_repetitions={provisioned.anchors.kdf_repetitions}"
        assert Manifest.from_text(good.replace(field, "kdf_repetitions=65535"))
        with pytest.raises(ManifestError, match="kdf_repetitions"):
            Manifest.from_text(good.replace(field, "kdf_repetitions=65536"))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_parse_raises_only_its_format_error(self, provisioned, data):
        # Arbitrary text, or the fixture's manifest with some lines given a
        # new value or replaced outright (an empty one drops the line).
        lines = provisioned.manifest.to_text().split("\n")
        if data.draw(st.booleans()):
            for _ in range(data.draw(st.integers(1, 4))):
                i = data.draw(st.integers(0, len(lines) - 1))
                prefix = data.draw(st.sampled_from([lines[i].split("=", 1)[0] + "=", ""]))
                lines[i] = prefix + data.draw(st.text(max_size=40))
            text = "\n".join(lines)
        else:
            text = data.draw(st.text(max_size=300))
        try:
            Manifest.from_text(text)
        except ManifestError:
            pass

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        labels=st.lists(
            st.text(st.one_of(st.characters(), st.sampled_from("\x85\u2028\u2029\r\n\x0b\x1c,=# ")), max_size=8),
            min_size=1,
            max_size=3,
        )
    )
    def test_text_round_trips_for_every_label_provision_accepts(self, labels):
        try:
            result = provision(
                [(EntryKind.KERNEL, b"k")],
                [(label, b"f") for label in labels],
                DeviceIdentity(dna=7),
                CardIdentity.from_seed(b"labels"),
                kdf_repetitions=1,
                data_slack_sectors=0,
            )
        except ValueError:
            return  # a label provision refuses
        assert Manifest.from_text(result.manifest.to_text()) == result.manifest


WORKER_ENTRIES = [
    (EntryKind.FSBL, b"fsbl" * 300),
    (EntryKind.KERNEL, random.Random(7).randbytes(HASH_THREAD_MIN_CONTAINER)),
]
WORKER_FILES = [("rootfs.img", random.Random(8).randbytes(70_000)), ("motd", b"hello")]


def _worker_provision() -> ProvisionResult:
    """A provisioning whose container is past HASH_THREAD_MIN_CONTAINER, so
    that its trailer and content digests are hashed on the worker thread."""
    return provision(
        WORKER_ENTRIES,
        WORKER_FILES,
        DeviceIdentity(dna=0x5EED),
        CardIdentity.from_seed(b"hash-worker"),
        kdf_repetitions=3,
    )


def _reachable(obj):
    """``obj`` and everything inside its tuples and lists."""
    yield obj
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _reachable(item)


class TestHashWorker:
    def test_output_matches_inline_hashing_and_the_oracles(self, monkeypatch):
        result = _worker_provision()
        manifest, layout, image = result.manifest, result.layout, result.image
        assert layout.boot_sectors * SECTOR_SIZE >= HASH_THREAD_MIN_CONTAINER
        findings = verify_image(image, manifest)
        assert findings and not any(map(finding_failed, findings))

        monkeypatch.setattr("tmiusim.image.HASH_THREAD_MIN_CONTAINER", MAX_CONTAINER_SIZE + 1)
        inline = _worker_provision()
        assert inline.image.to_bytes() == image.to_bytes()
        assert inline.manifest.to_text() == manifest.to_text()

        secret = manifest.dna.to_bytes(8, "big")
        aes_key = kdf_key_oracle(1, secret, manifest.cid, 3)
        mac_key = kdf_mac_oracle(1, secret, manifest.cid, 3)
        assert sector_tag_oracle(mac_key, 0, image.read_sector(0)) == manifest.anchors.mbr_digest
        container = b"".join(
            ctr_sector_oracle(aes_key, lba, image.read_sector(lba))
            for lba in range(layout.boot_start, layout.data_start)
        )
        # The oracle checks the trailer over the container as a whole.
        blobs = boot_container_oracle(container[: boot_image_length(container)])
        assert blobs == [(kind.value, blob) for kind, blob in WORKER_ENTRIES]
        assert manifest.entries == [
            (kind.label, len(blob), hashlib.sha256(blob).hexdigest()) for kind, blob in WORKER_ENTRIES
        ]
        assert manifest.files == [
            (label, len(blob), hashlib.sha256(blob).hexdigest()) for label, blob in WORKER_FILES
        ]
        for lba in range(layout.data_start, layout.meta_start):
            meta_lba, offset = layout.tag_location(lba)
            tags = ctr_sector_oracle(aes_key, meta_lba, image.read_sector(meta_lba))
            assert tags[offset : offset + 32] == sector_tag_oracle(mac_key, lba, image.read_sector(lba))

    def test_one_worker_gets_no_key_and_is_joined(self, monkeypatch):
        threads, jobs = record_hash_workers(monkeypatch)
        before = threading.active_count()
        result = _worker_provision()
        assert threading.active_count() == before
        assert len(threads) == 1 and not threads[0].is_alive()
        assert [fn.__name__ for fn, _ in jobs] == ["container_trailer", "_content_records"]
        keys = manifest_keys(result.manifest)
        for obj in _reachable(jobs):
            assert not isinstance(obj, (SectorCipher, SectorMac))
            if callable(obj):
                assert getattr(obj, "__closure__", None) is None  # nothing captured
            if isinstance(obj, (bytes, bytearray)):
                assert not any(key in obj for key in keys)

    def test_a_small_container_starts_no_thread(self, monkeypatch):
        threads, jobs = record_hash_workers(monkeypatch)
        before = threading.active_count()
        result = make_provision()
        assert result.layout.boot_sectors * SECTOR_SIZE < HASH_THREAD_MIN_CONTAINER
        assert threads == jobs == [] and threading.active_count() == before

    def test_no_thread_outlives_a_step_that_raises_while_it_hashes(self, monkeypatch):
        import tmiusim.image as image_module

        release = threading.Event()
        alive = []
        content_records = image_module._content_records

        def held_records(*args):
            release.wait(timeout=10)
            return content_records(*args)

        def failing_crypt(self, first_sector, data):
            alive.append(threading.active_count())
            release.set()
            raise RuntimeError("sealing failed")

        monkeypatch.setattr(image_module, "_content_records", held_records)
        monkeypatch.setattr(SectorCipher, "crypt", failing_crypt)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="sealing failed"):
            _worker_provision()
        assert alive == [before + 1]  # the worker was still hashing
        assert threading.active_count() == before

    def test_a_hash_that_raises_is_raised_by_provision(self, monkeypatch):
        def failing_trailer(buf, offset=0):
            raise MemoryError("no room to hash")

        monkeypatch.setattr("tmiusim.image.container_trailer", failing_trailer)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="no room to hash"):
            _worker_provision()
        assert threading.active_count() == before


def test_image_save_load_round_trip(tmp_path, provisioned):
    path = tmp_path / "card.nvm"
    provisioned.image.save(path)
    loaded = NvmImage.load(path)
    assert loaded.to_bytes() == provisioned.image.to_bytes()
    with pytest.raises(IndexError):
        loaded.read_sector(loaded.total_sectors)


class TestImageBuffers:
    def test_clone_is_independent_both_ways(self, provisioned):
        source = NvmImage(provisioned.image.to_bytes())
        copy = source.clone()
        copy.write_sector(3, b"\x01" * SECTOR_SIZE)
        assert source.to_bytes() == provisioned.image.to_bytes()
        source.write_sector(4, b"\x02" * SECTOR_SIZE)
        assert copy.read_sector(4) == provisioned.image.read_sector(4)
        assert copy.read_sector(3) == b"\x01" * SECTOR_SIZE

    def test_load_is_independent_both_ways(self, tmp_path):
        path = tmp_path / "card.nvm"
        source = NvmImage(bytes(4 * SECTOR_SIZE))
        source.save(path)
        first, second = NvmImage.load(path), NvmImage.load(path)
        first.write_sector(1, b"\x01" * SECTOR_SIZE)
        assert second.read_sector(1) == bytes(SECTOR_SIZE)
        assert source.read_sector(1) == bytes(SECTOR_SIZE)
        source.write_sector(2, b"\x02" * SECTOR_SIZE)
        assert first.read_sector(2) == bytes(SECTOR_SIZE)
        assert path.read_bytes() == bytes(4 * SECTOR_SIZE)

    @pytest.mark.parametrize("view", [False, True], ids=["bytes", "memoryview"])
    def test_anything_but_a_bytearray_is_copied(self, view):
        backing = bytearray(2 * SECTOR_SIZE)
        image = NvmImage(memoryview(backing) if view else bytes(backing))
        image.write_sector(0, b"\x07" * SECTOR_SIZE)
        assert backing == bytes(2 * SECTOR_SIZE)
        backing[SECTOR_SIZE:] = b"\x09" * SECTOR_SIZE
        assert image.read_sector(1) == bytes(SECTOR_SIZE)

    def test_a_bytearray_is_adopted(self):
        buf = bytearray(2 * SECTOR_SIZE)
        image = NvmImage(buf)
        image.write_sector(1, b"\x05" * SECTOR_SIZE)
        assert buf[SECTOR_SIZE:] == b"\x05" * SECTOR_SIZE

    def test_provisioned_image_holds_no_buffer_view(self):
        result = make_provision()
        result.image._data.append(0)  # resizable: no memoryview of it is left


    def test_each_blob_is_copied_once(self):
        # Assigning bytes to a bytearray slice copies them into a temporary
        # bytearray first, and bytes() of a bytearray slice copies twice.
        blob = bytes(range(256)) * 8192  # 2 MB
        container = bytearray(sealed_container_size([len(blob)]))
        image = NvmImage(bytearray(len(blob)))
        steps = {
            "write_boot_image": lambda: write_boot_image(container, 0, [(EntryKind.KERNEL, blob)]),
            "read_sectors": lambda: image.read_sectors(0, len(blob) // SECTOR_SIZE),
            "write_sectors": lambda: image.write_sectors(0, blob),
            "provision": lambda: provision(
                [(EntryKind.KERNEL, blob)],
                [("copy.bin", blob)],
                DeviceIdentity(dna=1),
                CardIdentity.from_seed(b"copies"),
                kdf_repetitions=1,
            ),
        }
        copies = {}
        for name, step in steps.items():
            tracemalloc.start()
            try:
                out = step()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # A provisioned image is one buffer; what matters is the peak above it.
            held = len(out.image.to_bytes()) if name == "provision" else 0
            copies[name] = (peak - held) / len(blob)
        assert copies["write_boot_image"] < 0.05
        assert 0.95 < copies["read_sectors"] < 1.05
        assert copies["write_sectors"] < 0.05
        assert copies["provision"] < 0.5


def test_multi_sector_read_and_write_are_bounds_checked():
    image = NvmImage(bytes(range(256)) * 2 * 10)
    assert image.read_sectors(2, 3) == b"".join(image.read_sector(lba) for lba in (2, 3, 4))
    assert image.read_sectors(0, 10) == image.to_bytes()
    for lba, count in ((-1, 1), (9, 2), (10, 1), (0, 11), (0, 0)):
        with pytest.raises(IndexError):
            image.read_sectors(lba, count)


def _flip(image, lba, offset):
    sector = bytearray(image.read_sector(lba))
    sector[offset] ^= 0x10
    image.write_sector(lba, bytes(sector))


def _write_keyed(image, manifest, lba, plaintext):
    """Encrypt and re-tag one data sector, as a holder of the keys would."""
    aes_key, mac_key = manifest_keys(manifest)
    cipher, mac_key = SectorCipher(aes_key), SectorMac(mac_key)
    ciphertext = encrypt_sector(cipher, lba, plaintext)
    image.write_sector(lba, ciphertext)
    meta_lba, offset = manifest.layout.tag_location(lba)
    tags = bytearray(decrypt_sector(cipher, meta_lba, image.read_sector(meta_lba)))
    tags[offset : offset + 32] = sector_tag(mac_key, lba, ciphertext)
    image.write_sector(meta_lba, encrypt_sector(cipher, meta_lba, bytes(tags)))


class TestVerifyImage:
    @pytest.mark.parametrize(
        "case", ["clean", "data", "tag", "boot", "mbr", "short", "file_past_image"]
    )
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
        elif case == "file_past_image":  # a keyed record whose extent leaves the partition
            records = image_file_records(image, provisioned.manifest)
            moved = FileRecord(records[0].label, layout.total_sectors * SECTOR_SIZE, records[0].length)
            table = build_file_table([moved] + records[1:], table_sectors=4)
            for i in range(4):
                chunk = table[i * SECTOR_SIZE : (i + 1) * SECTOR_SIZE]
                _write_keyed(image, provisioned.manifest, layout.data_start + i, chunk)
            expected = [f"file={moved.label} FAIL"]

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

    @pytest.mark.parametrize("claim", ["partition+1", 0xFFFF])
    def test_forged_table_length_is_a_finding(self, claim, provisioned):
        # CTR malleability: XOR-ing the plaintext difference into the first
        # table sector's ciphertext rewrites its 16-bit sector count, no key
        # needed. Past the partition it is a finding, not an exception.
        layout = provisioned.layout
        claim = layout.data_sectors + 1 if claim == "partition+1" else claim
        image = provisioned.image.clone()
        sector = bytearray(image.read_sector(layout.data_start))
        sector[4:6] = (int.from_bytes(sector[4:6], "big") ^ 4 ^ claim).to_bytes(2, "big")
        image.write_sector(layout.data_start, bytes(sector))
        findings = verify_image(image, provisioned.manifest)
        assert [f for f in findings if finding_failed(f)] == [
            f"data=FAIL lba={layout.data_start}",
            f"files=FAIL (file table claims {claim} sectors, the data partition holds {layout.data_sectors})",
        ]

    @pytest.mark.parametrize("flip", [None, 0, 63, 64, 65, 149])
    def test_boot_container_across_runs(self, flip):
        result = provision_container(150)
        image = result.image.clone()
        if flip is not None:
            _flip(image, result.layout.boot_start + flip, 200)
        boot = verify_image(image, result.manifest)[1]
        if flip is None:
            assert boot == "boot_image=OK sectors=150"
        else:
            assert boot.startswith("boot_image=FAIL")

    def test_boot_container_check_keeps_one_copy(self):
        # The runs the check lets out are copied once, into the reader's
        # buffer, and the entries are hashed in place there. That copy is
        # freed before the file checks read a 1 MiB file back.
        result = provision(
            [(EntryKind.KERNEL, random.Random(3).randbytes(3 << 20))],
            [("big.bin", random.Random(4).randbytes(1 << 20))],
            DeviceIdentity(dna=1),
            CardIdentity.from_seed(b"one-copy"),
            kdf_repetitions=1,
        )
        sectors = result.layout.boot_sectors
        tracemalloc.start()
        try:
            findings = verify_image(result.image, result.manifest)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert findings[1] == f"boot_image=OK sectors={sectors}" and findings[-1] == "file=big.bin OK"
        assert peak < 1.25 * sectors * SECTOR_SIZE

    def test_container_forged_from_known_plaintext_is_a_finding(self, provisioned):
        # The trailer passes (see forge_kernel); the manifest's digest of
        # the kernel, entry 2, does not.
        image, _ = forge_kernel(provisioned)
        findings = verify_image(image, provisioned.manifest)
        assert [f for f in findings if finding_failed(f)] == [
            "boot_image=FAIL (entry 2 disagrees with the manifest)"
        ]

    def test_verdict_of_file_finding_is_its_last_word(self):
        assert finding_failed("file=notes=FAIL v2 OK") is False
        assert finding_failed("file=FAIL.txt FAIL") is True
        assert finding_failed("data=FAIL lba=3") is True
        assert finding_failed("data=OK sectors=9") is False
