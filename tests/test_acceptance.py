"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Every expected value is either a published test vector or comes
from the independent oracles in ``oracles.py``.
"""

import random
import time

import pytest

from tmiusim import (
    CardIdentity,
    DeviceIdentity,
    EntryKind,
    KdfInput,
    build_system,
    crc7,
    crc16,
    derive_key,
    derive_mac_key,
    provision,
    sha256,
)
from tmiusim.image import boot_image_length, in_use_data_lbas, manifest_keys
from tmiusim.scenarios import Mutation, Scenario, builtin_scenarios, run_scenario
from tmiusim.tmiu import Denial, LockdownError, Stage

from conftest import make_provision
from oracles import (
    aes_encrypt_block,
    boot_container_oracle,
    crc7_oracle,
    crc16_oracle,
    ctr_sector_oracle,
    kdf_key_oracle,
    kdf_mac_oracle,
)


def _announce(criterion: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS")


def _tiny_provision(rng: random.Random, **kwargs):
    dna = rng.randrange(1, 1 << 57)
    seed = rng.randbytes(8)
    entries = [(EntryKind.KERNEL, rng.randbytes(rng.randrange(200, 900)))]
    files = [("blob.bin", rng.randbytes(rng.randrange(100, 900)))]
    kwargs.setdefault("kdf_repetitions", 2)
    kwargs.setdefault("table_sectors", 1)
    kwargs.setdefault("data_slack_sectors", 4)
    return provision(
        entries, files, DeviceIdentity(dna=dna), CardIdentity.from_seed(seed), **kwargs
    )


# ---------------------------------------------------------------------------
# 1. Boot-denial completeness


def test_criterion_1_boot_denial_completeness(provisioned):
    started = time.monotonic()
    rng = random.Random(0xACCE551)
    layout = provisioned.layout
    in_use = in_use_data_lbas(provisioned.image, provisioned.manifest)

    denied = 0
    for i in range(200):
        region = ("mbr", "boot", "data", "meta")[i % 4]
        if region == "mbr":
            target, offset = "mbr", rng.randrange(512)
            expected = Denial.MBR_MISMATCH.value
        elif region == "boot":
            target = f"boot_lba:{rng.randrange(layout.boot_sectors)}"
            offset = rng.randrange(512)
            expected = Denial.IMAGE_DIGEST_MISMATCH.value
        elif region == "data":
            lba = rng.choice(in_use)
            target = f"data_lba:{lba - layout.data_start}"
            offset = rng.randrange(512)
            expected = Denial.SECTOR_TAG_MISMATCH.value
        else:
            data_lba = rng.choice(in_use)
            meta_lba, slot = layout.tag_location(data_lba)
            target = f"meta_lba:{meta_lba - layout.meta_start}"
            offset = slot + rng.randrange(32)
            expected = Denial.SECTOR_TAG_MISMATCH.value
        scenario = Scenario(
            name=f"tamper-{i}",
            target=target,
            mutation=Mutation(kind="flip_bit", offset=offset, bit=rng.randrange(8)),
            expect=expected,
        )
        observed, _ = run_scenario(scenario, provisioned.image, provisioned.manifest)
        assert observed == expected, f"{scenario.name} ({target}): {observed} != {expected}"
        denied += 1

    for name in ("card_swap", "device_swap"):
        scenario = builtin_scenarios()[name]
        observed, _ = run_scenario(scenario, provisioned.image, provisioned.manifest)
        assert observed == scenario.expect
        denied += 1

    clean = 0
    for _ in range(200):
        result = _tiny_provision(rng)
        host, _, _, _ = build_system(result.manifest, result.image)
        outcome = host.run_boot(expected_entries=result.manifest.entries)
        assert outcome.ok, f"false denial: {outcome.outcome_class}"
        for label, length, digest in result.manifest.files:
            blob = host.read_file(label)
            assert len(blob) == length and sha256(blob).hex() == digest
        clean += 1

    elapsed = time.monotonic() - started
    assert denied == 202 and clean == 200
    assert elapsed < 60.0, f"criterion must finish in under 60 s, took {elapsed:.1f}"
    _announce("1 boot-denial completeness (202 denials, 200 clean boots)")


# ---------------------------------------------------------------------------
# 2. Stage fidelity


def test_criterion_2_stage_fidelity(provisioned):
    host, tmiu, bus, card = build_system(
        provisioned.manifest, provisioned.image.clone(), trace=True
    )
    led_snapshots = [list(tmiu.leds)]
    tmiu.power_on()
    led_snapshots.append(list(tmiu.leds))
    tmiu.authenticate_memory(bus)
    led_snapshots.append(list(tmiu.leds))
    tmiu.generate_keys()
    tmiu.verify_mbr_and_image(bus, lambda item: None)
    led_snapshots.append(list(tmiu.leds))

    # Golden transcript shape: the command sequence on the wire is fixed for
    # a clean boot (reset, CID, CSD, select, block length, then three
    # multi-block reads, each closed by a stop: the MBR, the image's first
    # sector, and the rest of the image stream).
    commands = [
        int(line.split()[-1][:2], 16) & 0x3F
        for line in bus.transcript
        if "KIND=CMD" in line
    ]
    assert commands == [0, 2, 9, 7, 16, 18, 12, 18, 12, 18, 12]

    stages = [stage for stage, _, _ in tmiu.stage_history]
    assert stages == [
        Stage.PROM_LOAD,
        Stage.DEVICE_AUTH,
        Stage.MEMORY_AUTH,
        Stage.KEYGEN_IMAGE_AUTH,
        Stage.OPERATIONAL,
    ]
    marks = [at for _, at, _ in tmiu.stage_history]
    assert marks == sorted(marks)
    for earlier, later in zip(led_snapshots, led_snapshots[1:]):
        for was, still in zip(earlier, later):
            assert not was or still  # leds only ever turn on
    assert tmiu.leds == [True, True, True, True]

    # Lockdown absorption under randomized operation sequences.
    foreign = CardIdentity.from_seed(b"absorbing-lockdown")
    host, tmiu, bus, card = build_system(
        provisioned.manifest, provisioned.image.clone(), cid=foreign.cid
    )
    tmiu.power_on()
    tmiu.authenticate_memory(bus)
    assert tmiu.stage is Stage.LOCKDOWN
    locked_reason = tmiu.reason
    rng = random.Random(0x10CD)
    operations = [
        lambda: tmiu.power_on(),
        lambda: tmiu.authenticate_memory(bus),
        lambda: tmiu.generate_keys(),
        lambda: tmiu.verify_mbr_and_image(bus, lambda item: None),
        lambda: tmiu.mediate_read(bus, rng.randrange(provisioned.layout.total_sectors)),
        lambda: tmiu.mediate_write(bus, rng.randrange(provisioned.layout.total_sectors), bytes(512)),
        lambda: tmiu.report(),
    ]
    for _ in range(1000):
        op = rng.choice(operations)
        try:
            op()
        except LockdownError:
            pass
        assert tmiu.stage is Stage.LOCKDOWN
        assert tmiu.reason is locked_reason
        assert tmiu._keys is None
        assert card.io_suspended
        assert tmiu.leds == [True, False, False, False]
    _announce("2 stage fidelity (golden ordering, monotone leds, absorbing lockdown x1000)")


# ---------------------------------------------------------------------------
# 3. KDF and crypto conformance


def test_criterion_3_kdf_and_crypto_conformance():
    rng = random.Random(0xC0FFEE)
    for _ in range(10_000):
        message = rng.randbytes(rng.randrange(0, 16))
        assert crc7(message) == crc7_oracle(message)
        assert crc16(message) == crc16_oracle(message)

    assert sha256(b"").hex() == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    assert sha256(b"abc").hex() == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    assert (
        aes_encrypt_block(
            bytes.fromhex("000102030405060708090a0b0c0d0e0f"),
            bytes.fromhex("00112233445566778899aabbccddeeff"),
        ).hex()
        == "69c4e0d86a7b0430d8cdb78070b4c55a"
    )

    for i in range(100):
        counter = rng.randrange(0, 1 << 32)
        secret = rng.randrange(0, 1 << 57).to_bytes(8, "big")
        info = rng.randbytes(16)
        repetitions = 1000 if i < 3 else rng.randrange(1, 64)
        params = KdfInput(
            counter=counter, secret=secret, other_info=info, repetitions=repetitions
        )
        assert derive_key(params) == kdf_key_oracle(counter, secret, info, repetitions)
        assert derive_mac_key(params) == kdf_mac_oracle(counter, secret, info, repetitions)
    _announce("3 crypto conformance (CRC x10000, SHA/AES vectors, KDF oracle x100)")


# ---------------------------------------------------------------------------
# 4. Timing reproduction


def test_criterion_4_timing_reproduction():
    started = time.monotonic()
    result = provision(
        [(EntryKind.KERNEL, bytes(13_000_000))],
        [("fs.bin", b"fs")],
        DeviceIdentity(dna=0x0123456789ABCD),
        CardIdentity.from_seed(b"timing"),
        kdf_repetitions=4,
    )
    host, _, _, _ = build_system(result.manifest, result.image)
    outcome = host.run_boot()
    assert outcome.ok
    report = outcome.report

    assert abs(report.prom_ms - 98.0) <= 98.0 * 0.02, report.prom_ms
    assert abs(report.boot_ms - 526.0) <= 526.0 * 0.05, report.boot_ms
    assert abs(report.rate_mbps - 24.7) <= 24.7 * 0.05, report.rate_mbps

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion must finish in under 5 s, took {elapsed:.1f}"
    _announce(
        f"4 timing reproduction (prom {report.prom_ms:.1f} ms, "
        f"13 MB boot {report.boot_ms:.1f} ms at {report.rate_mbps:.2f} MB/s)"
    )


# ---------------------------------------------------------------------------
# 5. Data-path oracle equivalence and persistent store


def test_criterion_5_datapath_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(0xDA7A)
    result = provision(
        [
            (EntryKind.PARTIAL_BITSTREAM, rng.randbytes(400_000)),
            (EntryKind.KERNEL, rng.randbytes(1_100_000)),
        ],
        [
            ("rootfs.img", rng.randbytes(800_000)),
            ("settings.cfg", rng.randbytes(5_000)),
        ],
        DeviceIdentity(dna=0x00FEDCBA987654),
        CardIdentity.from_seed(b"oracle-image"),
        kdf_repetitions=3,
        total_sectors=8192,  # 4 MB
    )
    manifest = result.manifest
    layout = result.layout

    # Independent key derivation: straight-line oracle, not the package KDF.
    secret = manifest.dna.to_bytes(8, "big")
    counter = manifest.anchors.kdf_counter
    repetitions = manifest.anchors.kdf_repetitions
    aes_key = kdf_key_oracle(counter, secret, manifest.cid, repetitions)
    mac_key = kdf_mac_oracle(counter, secret, manifest.cid, repetitions)
    assert (aes_key, mac_key) == manifest_keys(manifest)

    host, tmiu, bus, _ = build_system(manifest, result.image)
    assert host.run_boot(expected_entries=manifest.entries).ok

    for lba in range(layout.data_start, layout.data_start + layout.data_sectors):
        direct = ctr_sector_oracle(aes_key, lba, result.image.read_sector(lba))
        assert tmiu.mediate_read(bus, lba) == direct

    # The boot image the host received equals a direct decryption of the
    # boot partition with the oracle keys.
    container = b"".join(
        ctr_sector_oracle(
            aes_key, layout.boot_start + i, result.image.read_sector(layout.boot_start + i)
        )
        for i in range(layout.boot_sectors)
    )
    direct_entries = [
        (EntryKind(kind).label, len(b), sha256(b).hex())
        for kind, b in boot_container_oracle(container[: boot_image_length(container)])
    ]
    assert direct_entries == [tuple(e) for e in manifest.entries]
    assert [(e.kind_label, e.length, e.digest.hex()) for e in host.loaded_entries] == direct_entries

    # Persistent key-value behaviour over randomized op interleavings.
    store = make_provision(card_seed=b"kv-store")
    host, _, _, _ = build_system(store.manifest, store.image.clone())
    assert host.run_boot().ok
    model: dict[str, bytes] = {}
    labels = [f"kv/{i}" for i in range(6)]
    ops = 0
    for _ in range(520):
        action = rng.random()
        if action < 0.55:
            label = rng.choice(labels)
            blob = rng.randbytes(rng.randrange(0, 2200))
            host.write_file(label, blob)
            model[label] = blob
        elif action < 0.90:
            label = rng.choice(labels)
            if label in model:
                assert host.read_file(label) == model[label]
            else:
                with pytest.raises(FileNotFoundError):
                    host.read_file(label)
        else:
            assert host.reboot().ok
            for label, blob in model.items():
                assert host.read_file(label) == blob
        ops += 1

    elapsed = time.monotonic() - started
    assert ops >= 500
    assert elapsed < 30.0, f"criterion must finish in under 30 s, took {elapsed:.1f}"
    _announce("5 data-path oracle equivalence (4 MB sweep, 520-op persistent store)")


# ---------------------------------------------------------------------------
# 6. No key leakage in any serialized artifact


def test_criterion_6_no_key_leak_scan():
    rng = random.Random(0x6EA5)
    for run in range(1000):
        result = _tiny_provision(rng)
        host, tmiu, bus, _ = build_system(result.manifest, result.image, trace=True)
        outcome = host.run_boot(expected_entries=result.manifest.entries)
        assert outcome.ok

        aes_key, mac_key = manifest_keys(result.manifest)
        binary_artifacts = result.image.to_bytes()
        text_artifacts = "\n".join(
            [outcome.report.to_text(), result.manifest.to_text(), repr(tmiu), *bus.transcript]
        )
        for key in (aes_key, mac_key):
            assert key not in binary_artifacts
            assert key.hex() not in text_artifacts
    _announce("6 no-key-leak scan (1000 randomized runs)")
