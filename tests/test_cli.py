import os
import re
from pathlib import Path

import pytest

from tmiusim.cli import main


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kernel.bin").write_bytes(bytes((i * 13) % 256 for i in range(9000)))
    (tmp_path / "dt.dtb").write_bytes(b"\xd0\x0d\xfe\xed" + bytes(800))
    (tmp_path / "fs.tar").write_bytes(b"data!" * 800)
    return tmp_path


def _provision(capsys, extra=()):
    rc = main(
        [
            "provision",
            "--boot", "kernel.bin",
            "--boot", "dt.dtb",
            "--data", "fs.tar",
            "--out", "card.nvm",
            "--dna", "0x0123456789abcd",
            "--repetitions", "32",
            *extra,
        ]
    )
    out = capsys.readouterr().out
    return rc, out


class TestProvision:
    def test_creates_image_and_manifest(self, workspace, capsys):
        rc, out = _provision(capsys)
        assert rc == 0
        assert Path("card.nvm").exists()
        assert Path("card.nvm.manifest").exists()
        assert "geometry=" in out and "boot_lba=" in out
        assert "entry=kernel,9000," in out
        assert "entry=devicetree,804," in out
        assert "file=fs.tar,4000," in out

    def test_deterministic_output(self, workspace, capsys):
        _provision(capsys)
        first = Path("card.nvm").read_bytes()
        first_manifest = Path("card.nvm.manifest").read_text()
        _provision(capsys)
        assert Path("card.nvm").read_bytes() == first
        assert Path("card.nvm.manifest").read_text() == first_manifest

    def test_capacity_exceeded_exits_2(self, workspace, capsys):
        rc = main(
            [
                "provision",
                "--boot", "kernel.bin",
                "--data", "fs.tar",
                "--out", "tiny.nvm",
                "--dna", "0x1",
                "--repetitions", "2",
                "--sectors", "24",
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "CapacityExceeded" in err


class TestBoot:
    def test_clean_boot_exits_0(self, workspace, capsys):
        _provision(capsys)
        rc = main(["boot", "--image", "card.nvm", "--manifest", "card.nvm.manifest"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stage=Operational" in out
        assert "leds=1111" in out
        assert re.search(r"rate_mbps=2[0-9]\.\d{3}", out)

    def test_wrong_dna_exits_3(self, workspace, capsys):
        _provision(capsys)
        rc = main(
            ["boot", "--image", "card.nvm", "--manifest", "card.nvm.manifest", "--dna", "0x2"]
        )
        out = capsys.readouterr().out
        assert rc == 3
        assert "reason=DeviceMismatch" in out
        assert "leds=0000" in out

    def test_trace_and_report_files(self, workspace, capsys):
        _provision(capsys)
        rc = main(
            [
                "boot",
                "--image", "card.nvm",
                "--manifest", "card.nvm.manifest",
                "--trace", "bus.trace",
                "--report", "boot.report",
            ]
        )
        capsys.readouterr()
        assert rc == 0
        trace = Path("bus.trace").read_text().splitlines()
        assert trace and all(line.startswith("t=") for line in trace)
        assert "stage=Operational" in Path("boot.report").read_text()

    def test_malformed_manifest_exits_2(self, workspace, capsys):
        _provision(capsys)
        with open("card.nvm.manifest", "a") as manifest:
            manifest.write("entry=kernel,6\n")
        rc = main(["boot", "--image", "card.nvm", "--manifest", "card.nvm.manifest"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: cannot load manifest") and "Traceback" not in err

    def test_deterministic_report(self, workspace, capsys):
        _provision(capsys)
        main(["boot", "--image", "card.nvm", "--manifest", "card.nvm.manifest"])
        first = capsys.readouterr().out
        main(["boot", "--image", "card.nvm", "--manifest", "card.nvm.manifest"])
        assert capsys.readouterr().out == first


class TestTamper:
    def test_all_builtins_pass(self, workspace, capsys):
        _provision(capsys)
        rc = main(
            ["tamper", "--image", "card.nvm", "--manifest", "card.nvm.manifest", "--all-builtins"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "result=MISMATCH" not in out
        assert "name=card_swap expect=NvmMismatch observed=NvmMismatch result=ok" in out

    def test_scenario_file(self, workspace, capsys):
        _provision(capsys)
        Path("suite.txt").write_text(
            "name=flip target=boot_lba:0 mutate=flip_bit:40:1 expect=ImageDigestMismatch\n"
        )
        rc = main(
            ["tamper", "--image", "card.nvm", "--manifest", "card.nvm.manifest", "--scenario", "suite.txt"]
        )
        assert rc == 0

    def test_wrong_expectation_exits_1(self, workspace, capsys):
        _provision(capsys)
        Path("suite.txt").write_text(
            "name=flip target=boot_lba:0 mutate=flip_bit:40:1 expect=MbrMismatch\n"
        )
        rc = main(
            ["tamper", "--image", "card.nvm", "--manifest", "card.nvm.manifest", "--scenario", "suite.txt"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "result=MISMATCH" in out

    def test_unknown_builtin_exits_2(self, workspace, capsys):
        _provision(capsys)
        rc = main(
            ["tamper", "--image", "card.nvm", "--manifest", "card.nvm.manifest", "--builtin", "nope"]
        )
        assert rc == 2


class TestBench:
    def test_small_payload_dominated_by_prom_phase(self, capsys):
        rc = main(["bench", "--size", "0.1", "--repetitions", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        fields = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert abs(float(fields["prom_ms"]) - 98.0) < 98.0 * 0.02
        assert float(fields["boot_ms"]) < 10.0
        assert 95.0 < float(fields["total_ms"]) < 115.0

    def test_rate_approaches_line_rate_monotonically(self, capsys):
        rates = []
        for size in ("0.05", "0.5", "2"):
            main(["bench", "--size", size, "--repetitions", "2"])
            out = capsys.readouterr().out
            fields = dict(line.split("=", 1) for line in out.strip().splitlines())
            rates.append(float(fields["rate_mbps"]))
        assert rates == sorted(rates)
        assert rates[-1] < 25.0 + 1e-6


class TestInspect:
    def test_clean_image(self, workspace, capsys):
        _provision(capsys)
        rc = main(["inspect", "--image", "card.nvm", "--manifest", "card.nvm.manifest"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mbr=OK" in out and "boot_image=OK" in out and "data=OK" in out
        assert "file=fs.tar OK" in out

    def test_tampered_sector_fails_at_exact_lba(self, workspace, capsys):
        _provision(capsys)
        capsys.readouterr()
        from tmiusim import NvmImage
        from tmiusim.image import Manifest

        manifest = Manifest.load("card.nvm.manifest")
        image = NvmImage.load("card.nvm")
        lba = manifest.layout.data_start + 1
        sector = bytearray(image.read_sector(lba))
        sector[33] ^= 0x80
        image.write_sector(lba, bytes(sector))
        image.save("card.nvm")

        rc = main(["inspect", "--image", "card.nvm", "--manifest", "card.nvm.manifest"])
        out = capsys.readouterr().out
        assert rc == 1
        fails = [line for line in out.splitlines() if line.startswith("data=FAIL")]
        assert fails == [f"data=FAIL lba={lba}"]

    def test_image_shorter_than_geometry_fails(self, workspace, capsys):
        _provision(capsys)
        from tmiusim.image import Manifest

        geometry = Manifest.load("card.nvm.manifest").layout.total_sectors
        image = Path("card.nvm").read_bytes()
        Path("card.nvm").write_bytes(image[: (geometry // 2) * 512])
        rc = main(["inspect", "--image", "card.nvm", "--manifest", "card.nvm.manifest"])
        out = capsys.readouterr().out
        assert rc == 1
        assert out.splitlines()[4:] == [f"geometry=FAIL image={geometry // 2} manifest={geometry}"]

    def test_missing_manifest_exits_2(self, workspace, capsys):
        _provision(capsys)
        rc = main(["inspect", "--image", "card.nvm", "--manifest", "missing.manifest"])
        assert rc == 2

    def test_missing_image_exits_2(self, workspace, capsys):
        _provision(capsys)
        rc = main(["boot", "--image", "gone.nvm", "--manifest", "card.nvm.manifest"])
        assert rc == 2

    def test_transcript_summary(self, workspace, capsys):
        _provision(capsys)
        main(
            ["boot", "--image", "card.nvm", "--manifest", "card.nvm.manifest", "--trace", "bus.trace"]
        )
        capsys.readouterr()
        rc = main(
            [
                "inspect",
                "--image", "card.nvm",
                "--manifest", "card.nvm.manifest",
                "--transcript", "bus.trace",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert re.search(r"transcript lines=\d+ cmd=\d+ rsp=\d+ dat=\d+ tok=\d+", out)
