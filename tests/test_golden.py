"""Golden fixed points: SHA-256 of every byte the fixture produces.

A refactor leaves each digest unchanged. An intended model change updates
the affected constants and says why in the change log.
"""

import contextlib
import hashlib
import io

import pytest

from tmiusim.cli import main
from tmiusim.host import build_system

GOLDEN = {
    "image": "27dc951342b5cb8f0f4c00c37c67e8becf6bb24bdc56b21c4cd029593d603479",
    "manifest": "d3b73e8a9015fe4b0633625b7ff930edf6375ddae0c72f04cbc9fbca865b1ebe",
    "transcript": "6559ae41c68cd31aed298e31a3bd8328ca6f51713c09c4ca39d2f395af4fdaa9",
    "report": "a8105e3a6c53ec8c827236fbe22fb3f2ec09c33b1223e6de66ad91409332014e",
    "io_image": "7855bc58625b4def9fabd680c6498a1f2647ae138e47d2cf00e5f3c9a37e4fd4",
    "io_report": "d4fffd3a34feedca132a99fb87a507ab236ad38dadfd0c850232666bcd3278dc",
    "inspect_clean": "222febbbb8ed2f96d4537f8aa4a6d49b52b66a420166d9527bdce6dc2e4fd26f",
    "inspect_data_flip": "cf129d4286d78338cea82df65d43753f512b275d6e81dca5778ee0255e04a5e2",
}


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


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
    host.write_file("golden.bin", bytes(range(256)) * 5)
    assert host.read_file("golden.bin") == bytes(range(256)) * 5
    out["io_image"] = _sha(card.backing.to_bytes())
    out["io_report"] = _sha(tmiu.report().to_text())

    out["inspect_clean"] = _sha(_inspect_stdout(tmp_path, provisioned.image, manifest))
    flipped = provisioned.image.clone()
    lba = manifest.layout.data_start + 1
    sector = bytearray(flipped.read_sector(lba))
    sector[33] ^= 0x80
    flipped.write_sector(lba, bytes(sector))
    out["inspect_data_flip"] = _sha(_inspect_stdout(tmp_path, flipped, manifest))
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name, digests):
    assert digests[name] == GOLDEN[name]
