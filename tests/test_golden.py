"""Golden fixed points: SHA-256 of every byte the fixture produces.

A refactor leaves each digest unchanged. An intended model change updates
the affected constants and says why in the change log.

The faulted runs pin the path where frames cross the wire as bytes: one bit
flipped in flight during the fixture boot, or during a post-boot file write
and read. Each is pinned traced (transcript, report, image), and the same
run untraced must give the same report and image.
"""

import contextlib
import hashlib
import io

import pytest

from tmiusim import CardIdentity, DeviceIdentity, EntryKind, provision
from tmiusim.cli import main
from tmiusim.host import build_system
from tmiusim.tmiu import Denial, LockdownError

from conftest import FIXTURE_DNA, FIXTURE_KDF_REPETITIONS, image_file_records

IO_FILE = ("golden.bin", bytes(range(256)) * 5)

# Run name -> (when the fault is scheduled, inject_fault arguments).
FAULTED_RUNS = {
    "boot_cmd": ("boot", ("cmd", 5, 3, 2)),
    "boot_c2h": ("boot", ("c2h", 10, 100, 1)),
    "io_h2c": ("io", ("h2c", 2, 77, 6)),
    "io_c2h": ("io", ("c2h", 3, 300, 4)),
}

GOLDEN = {
    "image": "27dc951342b5cb8f0f4c00c37c67e8becf6bb24bdc56b21c4cd029593d603479",
    "manifest": "d3b73e8a9015fe4b0633625b7ff930edf6375ddae0c72f04cbc9fbca865b1ebe",
    "transcript": "6021702e37bf7d7603b7da7c3f2c4d1c167dfde86d3307290b8227bf9ff60364",
    "report": "a8105e3a6c53ec8c827236fbe22fb3f2ec09c33b1223e6de66ad91409332014e",
    "io_image": "7855bc58625b4def9fabd680c6498a1f2647ae138e47d2cf00e5f3c9a37e4fd4",
    "io_report": "d4fffd3a34feedca132a99fb87a507ab236ad38dadfd0c850232666bcd3278dc",
    "inspect_clean": "222febbbb8ed2f96d4537f8aa4a6d49b52b66a420166d9527bdce6dc2e4fd26f",
    "inspect_data_flip": "cf129d4286d78338cea82df65d43753f512b275d6e81dca5778ee0255e04a5e2",
    "boot_cmd_transcript": "0c9867da7f417bccb45e3c09b9a2927bd719cada7c1c5642a5b09a110b119c86",
    "boot_cmd_report": "a8105e3a6c53ec8c827236fbe22fb3f2ec09c33b1223e6de66ad91409332014e",
    "boot_cmd_image": "27dc951342b5cb8f0f4c00c37c67e8becf6bb24bdc56b21c4cd029593d603479",
    "boot_c2h_transcript": "7bad1ecaef373417c7f313d17250c8a08081abedd3092cd59dafd63e69b8fb8e",
    "boot_c2h_report": "5d6ea218346f7a9308a05ebb3d7ff6e8ccb80d8237f045b0e3c358f6b0938653",
    "boot_c2h_image": "27dc951342b5cb8f0f4c00c37c67e8becf6bb24bdc56b21c4cd029593d603479",
    "io_h2c_transcript": "e2ed430c5339454038e8139810e1f03a81a95223c8ea60e1c786d69da67681b0",
    "io_h2c_report": "ca1dcb4178bcf615c9ae3e65c160f08ee63f57766693c34fc28157eade27b515",
    "io_h2c_image": "7855bc58625b4def9fabd680c6498a1f2647ae138e47d2cf00e5f3c9a37e4fd4",
    "io_c2h_transcript": "1fb1eed876a01f6a234aedd4b5b88a6a5b3400becd3d9936e34bec70779f1663",
    "io_c2h_report": "ca1dcb4178bcf615c9ae3e65c160f08ee63f57766693c34fc28157eade27b515",
    "io_c2h_image": "7855bc58625b4def9fabd680c6498a1f2647ae138e47d2cf00e5f3c9a37e4fd4",
}

# Lockdown -> report text of the fixture run it ends: a foreign device, a
# foreign card, one bit flipped in the MBR, and one bit flipped in a file
# sector that a post-boot read_file meets.
DENIED_GOLDEN = {
    "DeviceMismatch": "5c378820d962d8824ad5a48eef1f5f6e5be88b8b6a7436ef2bb13019b3d14040",
    "NvmMismatch": "c51ff0d4f360ca9f58970c58b3a2c9341bb993c0e055aefabdd7642e1dbc23c2",
    "MbrMismatch": "09811fe64cc67f9f50506ac464a5d022323e6706f5d06d199e49ec5005c02957",
    "SectorTagMismatch": "77591f22d13bab2eb6cd50bbd23b1ef3cabcac1387783ec11a0570487372e509",
}

# 21 header bytes + 76,723 payload bytes + 32 digest bytes = 150 sectors.
RUN_SPAN_ENTRIES = [
    (EntryKind.FSBL, b"fsbl " * 2000),
    (EntryKind.KERNEL, bytes((i * 31 + 7) % 251 for i in range(66723))),
]
RUN_SPAN_SECTORS = 150
# Boot name -> container index of the one flipped sector (None: clean).
RUN_SPAN_BOOTS = {"clean": None, "flip63": 63, "flip64": 64, "flip65": 65}

RUN_SPAN_GOLDEN = {
    "image": "45c750d58ea253492075fb50b491617e80fffbb044701ff6be8469a595ba2335",
    "manifest": "0cb031af309a85f5ddfb96a3f0d2e747acb1f8929d040eb1b0ea39914315ac16",
    "transcript": "3b6959119a9753b68aab2ea57df9aeab4616d3a47b4b36c3fb312cda66394bc1",
    "clean_report": "2df836fe21b97b1b1b712efdd2f3bbaaba0f42e1d4cfd613c195f8716a5bfc51",
    "clean_delivered": "21bc3fafcf67e201fd43ef562051fb7266ed20e91509ea1e53a4fb6ab3d523b9",
    "flip63_report": "88431c18522c06becb82fa5349b48b912cee0d701a656a07462d074289085709",
    "flip63_delivered": "51522495cacbaeaa836a66b07216bc6944c658f349eeecc3bee0cf76c33b04d2",
    "flip64_report": "88431c18522c06becb82fa5349b48b912cee0d701a656a07462d074289085709",
    "flip64_delivered": "2035b1c687cf1fd103e6adcef271e8b1b6a9aaa233dd7e1103b6c30e5efd9d09",
    "flip65_report": "88431c18522c06becb82fa5349b48b912cee0d701a656a07462d074289085709",
    "flip65_delivered": "def4666a89bbaaaf954c92c86f63df30b4428fa9aa9097624a1b7e4eb6f7348b",
}


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _faulted_run(provisioned, run: str, trace: bool) -> dict[str, str]:
    """Digests of one faulted run: report and final image, plus the
    transcript when traced."""
    manifest = provisioned.manifest
    when, fault = FAULTED_RUNS[run]
    host, tmiu, bus, card = build_system(manifest, provisioned.image.clone(), trace=trace)
    if when == "boot":
        bus.inject_fault(*fault)
    assert host.run_boot(expected_entries=manifest.entries).ok
    if when == "io":
        bus.inject_fault(*fault)
        host.write_file(*IO_FILE)
        assert host.read_file(IO_FILE[0]) == IO_FILE[1]
    assert not any(bus._faults.values()), "the fault never fired"
    out = {
        f"{run}_report": _sha(tmiu.report().to_text()),
        f"{run}_image": _sha(card.backing.to_bytes()),
    }
    if trace:
        out[f"{run}_transcript"] = _sha("\n".join(bus.transcript) + "\n")
    return out


def _inspect_stdout(tmp_path, image, manifest) -> str:
    image.save(tmp_path / "card.nvm")
    manifest.save(tmp_path / "card.manifest")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        main(["inspect", "--image", str(tmp_path / "card.nvm"), "--manifest", str(tmp_path / "card.manifest")])
    return stdout.getvalue()


@pytest.fixture(scope="module")
def digests(provisioned, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("golden")
    manifest = provisioned.manifest
    out = {
        "image": _sha(provisioned.image.to_bytes()),
        "manifest": _sha(manifest.to_text()),
    }

    host, _, bus, _ = build_system(manifest, provisioned.image.clone(), trace=True)
    outcome = host.run_boot(expected_entries=manifest.entries)
    assert outcome.ok
    out["transcript"] = _sha("\n".join(bus.transcript) + "\n")
    out["report"] = _sha(outcome.report.to_text())

    # The mediated read and write paths: their ciphertext, tags and cycles.
    host, tmiu, _, card = build_system(manifest, provisioned.image.clone())
    assert host.run_boot(expected_entries=manifest.entries).ok
    host.write_file(*IO_FILE)
    assert host.read_file(IO_FILE[0]) == IO_FILE[1]
    out["io_image"] = _sha(card.backing.to_bytes())
    out["io_report"] = _sha(tmiu.report().to_text())

    out["inspect_clean"] = _sha(_inspect_stdout(tmp_path, provisioned.image, manifest))
    flipped = provisioned.image.clone()
    lba = manifest.layout.data_start + 1
    sector = bytearray(flipped.read_sector(lba))
    sector[33] ^= 0x80
    flipped.write_sector(lba, bytes(sector))
    out["inspect_data_flip"] = _sha(_inspect_stdout(tmp_path, flipped, manifest))

    for run in FAULTED_RUNS:
        out.update(_faulted_run(provisioned, run, trace=True))
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name, digests):
    assert digests[name] == GOLDEN[name]


@pytest.mark.parametrize("run", sorted(FAULTED_RUNS))
def test_untraced_faulted_run_matches_traced_pins(run, provisioned):
    digests = _faulted_run(provisioned, run, trace=False)
    assert digests == {key: GOLDEN[key] for key in digests}


def _denied_report(provisioned, denial: Denial):
    """The report of a fixture run that ``denial`` locks down."""
    manifest = provisioned.manifest
    image = provisioned.image.clone()
    overrides = {}
    if denial is Denial.DEVICE_MISMATCH:
        overrides["dna"] = manifest.dna ^ 0x4
    elif denial is Denial.NVM_MISMATCH:
        overrides["cid"] = CardIdentity.from_seed(b"foreign-card").cid
    else:
        record = image_file_records(image, manifest)[0]
        lba = 0 if denial is Denial.MBR_MISMATCH else record.lbas(manifest.layout.data_start)[0]
        sector = bytearray(image.read_sector(lba))
        sector[45] ^= 0x10
        image.write_sector(lba, bytes(sector))
    host, tmiu, _, _ = build_system(manifest, image, **overrides)
    outcome = host.run_boot(expected_entries=manifest.entries)
    if denial is Denial.SECTOR_TAG_MISMATCH:
        assert outcome.ok
        with pytest.raises(LockdownError):
            host.read_file(record.label)
        assert tmiu.fault_lba == lba
    assert tmiu.reason is denial
    return tmiu.report()


@pytest.mark.parametrize("name", sorted(DENIED_GOLDEN))
def test_denied_report_digest(name, provisioned):
    assert _sha(_denied_report(provisioned, Denial(name)).to_text()) == DENIED_GOLDEN[name]


def test_post_boot_lockdown_keeps_the_boot_timing(provisioned):
    clean, _, _, _ = build_system(provisioned.manifest, provisioned.image.clone())
    boot = clean.run_boot().report
    denied = _denied_report(provisioned, Denial.SECTOR_TAG_MISMATCH)
    # The operational reads add cycles, but not to the boot figures.
    assert denied.cycles > boot.cycles
    assert (denied.prom_ms, denied.boot_ms, denied.rate_mbps) == (boot.prom_ms, boot.boot_ms, boot.rate_mbps)


@pytest.fixture(scope="module")
def run_span():
    result = provision(
        RUN_SPAN_ENTRIES,
        [("run.bin", b"run-span " * 100)],
        DeviceIdentity(dna=FIXTURE_DNA),
        CardIdentity.from_seed(b"run-span-card"),
        kdf_repetitions=FIXTURE_KDF_REPETITIONS,
    )
    assert result.manifest.layout.boot_sectors == RUN_SPAN_SECTORS
    return result


def _run_span_boot(run_span, boot: str, trace: bool) -> dict[str, str]:
    """Digests of one boot of the run-span image, driven stage by stage:
    report and every byte the unit forwards, plus the transcript when traced."""
    image = run_span.image.clone()
    index = RUN_SPAN_BOOTS[boot]
    if index is not None:
        lba = run_span.layout.boot_start + index
        sector = bytearray(image.read_sector(lba))
        sector[100] ^= 0x08
        image.write_sector(lba, bytes(sector))
    _, tmiu, bus, _ = build_system(run_span.manifest, image, trace=trace)
    tmiu.power_on()
    tmiu.authenticate_memory(bus)
    tmiu.generate_keys()
    forwarded = []
    # A forwarded item is a data block or the verified bytes themselves.
    tmiu.verify_mbr_and_image(bus, sink=lambda item: forwarded.append(getattr(item, "payload", item)))
    assert tmiu.reason is (None if index is None else Denial.IMAGE_DIGEST_MISMATCH)
    out = {
        f"{boot}_report": _sha(tmiu.report().to_text()),
        f"{boot}_delivered": _sha(b"".join(forwarded)),
    }
    if trace and index is None:
        out["transcript"] = _sha("\n".join(bus.transcript) + "\n")
    return out


@pytest.fixture(scope="module")
def run_span_digests(run_span):
    out = {"image": _sha(run_span.image.to_bytes()), "manifest": _sha(run_span.manifest.to_text())}
    for boot in RUN_SPAN_BOOTS:
        out.update(_run_span_boot(run_span, boot, trace=False))
    out.update(_run_span_boot(run_span, "clean", trace=True))
    return out


@pytest.mark.parametrize("name", sorted(RUN_SPAN_GOLDEN))
def test_run_span_digest(name, run_span_digests):
    assert run_span_digests[name] == RUN_SPAN_GOLDEN[name]


@pytest.mark.parametrize("boot", sorted(RUN_SPAN_BOOTS))
def test_traced_run_span_boot_matches_untraced_pins(boot, run_span):
    digests = _run_span_boot(run_span, boot, trace=True)
    assert digests == {key: RUN_SPAN_GOLDEN[key] for key in digests}
