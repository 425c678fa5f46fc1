import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tmiusim
from tmiusim.cli import main
from tmiusim.scenarios import OUTCOME_CLASSES, builtin_scenarios

from conftest import forge_kernel


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

    @pytest.mark.parametrize("flag", [["--table-sectors", "-1"], ["--slack", "-5"]])
    def test_negative_sector_count_exits_2(self, workspace, capsys, flag):
        rc = main(
            ["provision", "--boot", "kernel.bin", "--out", "card.nvm", "--dna", "0x1",
             "--repetitions", "2", *flag]
        )
        assert rc == 2
        assert "must not be negative" in capsys.readouterr().err
        assert not Path("card.nvm").exists()


    @pytest.mark.parametrize(
        "flag",
        [["--table-sectors", "70000"], ["--data", "x" * 0x10000 + "=fs.tar"]],
        ids=["table_sectors", "label"],
    )
    def test_file_table_field_past_16_bits_exits_2(self, workspace, capsys, flag):
        rc = main(
            ["provision", "--boot", "kernel.bin", "--out", "card.nvm", "--dna", "0x1",
             "--repetitions", "2", *flag]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: CapacityExceeded") and "Traceback" not in err
        assert not Path("card.nvm").exists()

    @pytest.mark.parametrize(
        "flag", [["--slack", "4294967296"], ["--sectors", "4294967297"]], ids=["slack", "sectors"]
    )
    def test_geometry_past_32_bit_lbas_exits_2_before_allocating(self, workspace, capsys, flag):
        rc = main(
            ["provision", "--boot", "kernel.bin", "--out", "card.nvm", "--dna", "0x1",
             "--repetitions", "2", *flag]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: CapacityExceeded") and "Traceback" not in err
        assert not Path("card.nvm").exists()

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--repetitions", "65536"], "kdf_repetitions must be from 1 to 65535"),
            (["--counter", "-1"], "kdf_counter must fit in 32 bits"),
        ],
        ids=["repetitions", "counter"],
    )
    def test_repetitions_past_the_limit_exit_2_before_allocating(self, workspace, capsys, flag, message):
        rc = main(
            ["provision", "--boot", "kernel.bin", "--out", "card.nvm", "--dna", "0x1",
             *flag, "--sectors", "4294967297"]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: {message}\n"
        assert not Path("card.nvm").exists()

    def test_label_with_unicode_line_breaks_boots_and_inspects(self, workspace, capsys):
        # U+2028 and U+0085 break lines for str.splitlines, not for the manifest.
        label = "a\u2028b\x85c"
        rc, _ = _provision(capsys, ["--data", f"{label}=fs.tar"])
        assert rc == 0
        for command in ("boot", "inspect"):
            assert main([command, "--image", "card.nvm", "--manifest", "card.nvm.manifest"]) == 0
        assert f"file={label} OK" in capsys.readouterr().out

    @pytest.mark.parametrize("dna", ["-1", "0x200000000000000", "0x1ffffffffffffffff"])
    def test_dna_out_of_range_exits_2(self, workspace, capsys, dna):
        rc = main(["provision", "--boot", "kernel.bin", "--out", "card.nvm", "--dna", dna])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: --dna must be a 57-bit value")
        assert not Path("card.nvm").exists()


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

    @pytest.mark.parametrize("dna", ["-1", "0x200000000000000"])
    def test_dna_out_of_range_exits_2(self, workspace, capsys, dna):
        _provision(capsys)
        rc = main(["boot", "--image", "card.nvm", "--manifest", "card.nvm.manifest", "--dna", dna])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: --dna must be a 57-bit value")
        assert captured.out == ""

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

    @pytest.mark.parametrize("flag", ["--trace", "--report"])
    def test_unwritable_output_exits_2(self, workspace, capsys, flag):
        _provision(capsys)
        rc = main(
            ["boot", "--image", "card.nvm", "--manifest", "card.nvm.manifest", flag, "no/such/dir/out"]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: cannot write output") and "Traceback" not in err

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

    @pytest.mark.parametrize("target", ["bus:cmd:0", "bus:cmd:-4", "bus:data:100000"])
    def test_bus_fault_that_never_fires_exits_2(self, workspace, capsys, target):
        _provision(capsys)
        Path("suite.txt").write_text(f"name=wire target={target} mutate=flip_bit:2:0 expect=OsRunning\n")
        rc = main(
            ["tamper", "--image", "card.nvm", "--manifest", "card.nvm.manifest", "--scenario", "suite.txt"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "result=" not in captured.out
        assert "wire" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("value", ["300", "-1"])
    def test_set_byte_value_outside_a_byte_exits_2(self, workspace, capsys, value):
        _provision(capsys)
        Path("suite.txt").write_text(
            f"name=poke target=data_lba:0 mutate=set_byte:0:{value} expect=SectorTagMismatch\n"
        )
        rc = main(
            ["tamper", "--image", "card.nvm", "--manifest", "card.nvm.manifest", "--scenario", "suite.txt"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "result=" not in captured.out
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_manifest_file_missing_from_the_card_exits_2(self, workspace, capsys):
        # The file sweep after a clean boot finds no such label in the card's
        # table: the manifest does not describe this card.
        _provision(capsys)
        manifest = Path("card.nvm.manifest")
        manifest.write_text(manifest.read_text().replace("file=fs.tar,", "file=gone.tar,"))
        rc = main(
            ["tamper", "--image", "card.nvm", "--manifest", "card.nvm.manifest", "--builtin", "bus_cmd_bitflip"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "result=" not in captured.out
        assert captured.err == "error: bus_cmd_bitflip: file 'gone.tar' is not in the card's file table\n"

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

    @pytest.mark.parametrize(
        "args",
        [
            ["--size", "0"],
            ["--size", "nan"],
            ["--size", "inf"],
            ["--size", "1e308"],  # finite, but not as a byte count
            ["--size", "0.01", "--repetitions", "0"],
            ["--size", "0.01", "--repetitions", "65536"],
        ],
    )
    def test_bad_input_exits_2(self, capsys, args):
        assert main(["bench", *args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("size", ["4295", "1e12"])
    def test_container_past_its_32_bit_length_exits_2_before_allocating(self, capsys, size):
        assert main(["bench", "--size", size]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: CapacityExceeded") and "Traceback" not in captured.err
        assert captured.out == ""


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

    def test_forged_table_length_fails_without_traceback(self, workspace, capsys):
        _provision(capsys)
        from tmiusim import NvmImage
        from tmiusim.image import Manifest

        # The table's sector count, 4 -> 0xFFFF through the cipher's
        # malleability: XOR the plaintext difference into the ciphertext.
        data_start = Manifest.load("card.nvm.manifest").layout.data_start
        image = NvmImage.load("card.nvm")
        sector = bytearray(image.read_sector(data_start))
        sector[4:6] = (int.from_bytes(sector[4:6], "big") ^ 4 ^ 0xFFFF).to_bytes(2, "big")
        image.write_sector(data_start, bytes(sector))
        image.save("card.nvm")

        env = dict(os.environ, PYTHONPATH=str(Path(tmiusim.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "tmiusim", "inspect", "--image", "card.nvm", "--manifest", "card.nvm.manifest"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "files=FAIL (file table claims 65535 sectors" in done.stdout

    def test_container_forged_from_known_plaintext_fails(self, workspace, capsys, provisioned):
        image, _ = forge_kernel(provisioned)
        image.save("forged.nvm")
        provisioned.manifest.save("forged.nvm.manifest")
        rc = main(["inspect", "--image", "forged.nvm", "--manifest", "forged.nvm.manifest"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "boot_image=FAIL (entry 2 disagrees with the manifest)" in out.splitlines()

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


@pytest.mark.parametrize(
    "argv",
    [
        ["boot", "--image", "card.nvm", "--manifest", "binary.txt"],
        ["tamper", "--image", "card.nvm", "--manifest", "card.nvm.manifest", "--scenario", "binary.txt"],
        ["inspect", "--image", "card.nvm", "--manifest", "card.nvm.manifest", "--transcript", "binary.txt"],
    ],
    ids=["manifest", "scenario", "transcript"],
)
def test_text_input_that_is_not_utf8_exits_2(workspace, capsys, argv):
    _provision(capsys)
    Path("binary.txt").write_bytes(b"\xff\xfe\x00name=x\n")
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "command, extra", [("boot", []), ("tamper", ["--all-builtins"]), ("inspect", [])]
)
def test_manifest_repetitions_past_the_limit_exit_2(workspace, capsys, command, extra):
    _provision(capsys)
    manifest = Path("card.nvm.manifest")
    manifest.write_text(manifest.read_text().replace("kdf_repetitions=32", "kdf_repetitions=65536"))
    rc = main([command, "--image", "card.nvm", "--manifest", str(manifest), *extra])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: cannot load manifest") and "Traceback" not in captured.err
    assert "kdf_repetitions" in captured.err
    assert captured.out == ""


def test_python_dash_m_runs_the_cli():
    # The package runs as a module from a plain source checkout, uninstalled,
    # and its exit code reaches the shell.
    env = dict(os.environ, PYTHONPATH=str(Path(tmiusim.__file__).resolve().parents[1]))

    def bench(*args):
        return subprocess.run(
            [sys.executable, "-m", "tmiusim", "bench", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )

    done = bench("--size", "0.01", "--repetitions", "2")
    assert done.returncode == 0, done.stderr
    assert "rate_mbps=" in done.stdout
    bad = bench("--size", "nan")
    assert bad.returncode == 2
    assert "Traceback" not in bad.stderr


@pytest.mark.parametrize("repetitions, code", [("65535", 0), ("65536", 2)])
def test_bench_repetition_limit_from_the_shell(repetitions, code):
    # Past the limit the command fails at once, before any KDF step runs.
    env = dict(os.environ, PYTHONPATH=str(Path(tmiusim.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "tmiusim", "bench", "--size", "0.01", "--repetitions", repetitions],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    if code:
        assert done.stderr == "error: kdf_repetitions must be from 1 to 65535\n"
        assert done.stdout == ""


# ---------------------------------------------------------------------------
# Fuzzing: random argv over the five commands exits 0, 1, 2 or 3 and never
# raises. Sizes stay small (a few thousand sectors, payloads of a few KB,
# KDF repetitions of 3 or fewer), so no case allocates more than a few MB;
# the only larger sizes and repetition counts lie past the format's limits,
# refused before any buffer is allocated or any KDF step runs.


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "kernel.bin").write_bytes(bytes((i * 13) % 256 for i in range(3000)))
    (root / "dt.dtb").write_bytes(b"\xd0\x0d\xfe\xed" + bytes(300))
    (root / "fs.tar").write_bytes(b"data!" * 400)
    (root / "binary.txt").write_bytes(b"\xff\xfe\x00\x80")
    (root / "garbage.manifest").write_text("geometry=12\nnot a line\n")
    (root / "dir").mkdir()
    assert main(
        ["provision", "--boot", str(root / "kernel.bin"), "--boot", str(root / "dt.dtb"),
         "--data", str(root / "fs.tar"), "--out", str(root / "card.nvm"), "--dna", "0x1",
         "--repetitions", "1"]
    ) == 0
    manifest = (root / "card.nvm.manifest").read_text()
    assert "file=fs.tar," in manifest
    (root / "renamed.manifest").write_text(manifest.replace("file=fs.tar,", "file=gone.tar,"))
    (root / "short.nvm").write_bytes((root / "card.nvm").read_bytes()[: 10 * 512])
    (root / "empty.nvm").write_bytes(b"")
    assert main(
        ["boot", "--image", str(root / "card.nvm"), "--manifest", str(root / "card.nvm.manifest"),
         "--trace", str(root / "bus.trace")]
    ) == 0
    return root


def _mostly(valid, invalid):
    """A value from ``valid`` four times in five, else from ``invalid``."""
    return st.integers(0, 4).flatmap(lambda n: valid if n else invalid)


_dna = st.one_of(
    st.integers(0, (1 << 57) - 1).map(hex),
    st.sampled_from(["-1", "0x200000000000000", "0x1ffffffffffffffff", "zz", ""]),
)
_hex16 = st.one_of(
    st.binary(min_size=16, max_size=16).map(bytes.hex),
    st.binary(max_size=20).map(bytes.hex),
    st.sampled_from(["zz", "0x" + "0" * 30]),
)
_repetitions = st.sampled_from(["1", "2", "3", "0", "-1", "x", "65536"])
_scenario_lines = st.lists(
    st.builds(
        "name=s target={} mutate={} expect={}".format,
        _mostly(
            st.sampled_from(
                ["mbr", "boot_lba:0", "boot_lba:3", "data_lba:0", "data_lba:1", "meta_lba:0", "cid",
                 "device_dna", "bus:cmd:2", "bus:data:1"]
            ),
            st.sampled_from(
                ["data_lba:99999", "data_lba:x", "bus:cmd:0", "bus:data:100000", "bus:x:1", "nowhere"]
            ),
        ),
        _mostly(
            st.one_of(
                st.builds("flip_bit:{}:{}".format, st.integers(-600, 600), st.integers(-9, 9)),
                st.builds("set_byte:{}:{}".format, st.integers(-600, 600), st.integers(0, 255)),
                st.sampled_from(["replace_region:" + "ab" * 16, "copy_from:0", "copy_from:1"]),
            ),
            st.one_of(
                st.builds("set_byte:{}:{}".format, st.integers(0, 9), st.sampled_from([-1, 256, 300])),
                st.sampled_from(["replace_region:00", "replace_region:zz", "copy_from:-1", "flip_bit", "warp:1"]),
            ),
        ),
        _mostly(st.sampled_from(OUTCOME_CLASSES), st.just("Nope")),
    ),
    min_size=1,
    max_size=2,
)


def _fuzz_calls(root):
    """Per command: the argv of a call that works, and the values to try
    for each flag, valid or not (None for a bare switch)."""

    def paths(*names):
        return st.sampled_from([str(root / name) for name in names])

    card, manifest = str(root / "card.nvm"), str(root / "card.nvm.manifest")
    kernel, fs = root / "kernel.bin", root / "fs.tar"
    outputs = paths("out/card.nvm", "out/other", "dir", "missing/x.out")
    pair = {
        "--image": paths("card.nvm", "short.nvm", "empty.nvm", "binary.txt", "missing.nvm"),
        "--manifest": paths("card.nvm.manifest", "renamed.manifest", "garbage.manifest", "binary.txt", "missing"),
        "--nope": None,
    }
    return {
        "provision": (
            ["--boot", str(kernel), "--out", str(root / "out/card.nvm"), "--dna", "0x1", "--repetitions", "1"],
            {
                "--boot": st.sampled_from(
                    [str(kernel), f"kernel={kernel}", f"devicetree={root / 'dt.dtb'}", f"bogus={kernel}",
                     str(root / "missing.bin"), str(root / "dir")]
                ),
                "--data": st.sampled_from(
                    [str(fs), f"etc/fs={fs}", f"é={fs}", f"a b={fs}", f"{'x' * 0x10000}={fs}", f"={fs}",
                     f"bad\x01={fs}", f"a\u2028b\x85c={fs}", str(root / "missing.bin")]
                ),
                "--out": outputs,
                "--manifest": outputs,
                "--dna": _dna,
                "--cid": _hex16,
                "--csd": _hex16,
                "--sectors": st.one_of(st.integers(-3, 3000), st.just(4294967297)).map(str),
                "--slack": st.one_of(st.integers(-3, 2000), st.just(4294967296)).map(str),
                "--table-sectors": st.one_of(st.integers(-2, 40), st.sampled_from([65536, 70000])).map(str),
                "--counter": st.integers(-1, 1 << 33).map(str),
                "--repetitions": _repetitions,
                "--nope": None,
            },
        ),
        "boot": (
            ["--image", card, "--manifest", manifest],
            {**pair, "--dna": _dna, "--cid": _hex16, "--csd": _hex16, "--trace": outputs, "--report": outputs},
        ),
        "tamper": (
            ["--image", card, "--manifest", manifest, "--scenario", str(root / "suite.txt")],
            {
                **pair,
                "--scenario": paths("suite.txt", "binary.txt", "missing"),
                "--builtin": st.sampled_from(sorted(builtin_scenarios()) + ["nope"]),
                "--all-builtins": None,
            },
        ),
        "bench": (
            # Every call keeps a --size: the default, 13 MB, is too big here.
            ["--size", "0.001", "--repetitions", "1"],
            {
                "--size": st.one_of(
                    st.floats(0.0005, 0.02).map(str),
                    st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e308", "4295", "1e12", "1e-9", "x"]),
                ),
                "--repetitions": _repetitions,
                "--nope": None,
            },
        ),
        "inspect": (
            ["--image", card, "--manifest", manifest],
            {**pair, "--transcript": paths("bus.trace", "binary.txt", "kernel.bin", "missing")},
        ),
    }


@st.composite
def _argv(draw, root, command):
    """A working call with up to three flags added or overridden (argparse
    keeps the last value of a flag, and appends --boot, --data and
    --builtin)."""
    base, flags = _fuzz_calls(root)[command]
    argv = [command, *base]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3)):
        argv += [flag] if flags[flag] is None else [flag, draw(flags[flag])]
    return argv


@pytest.mark.parametrize("command", ["provision", "boot", "tamper", "bench", "inspect"])
@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_random_argv_exits_with_a_documented_code(fuzz_dir, command, data):
    # Every case writes only under out/, which starts empty.
    shutil.rmtree(fuzz_dir / "out", ignore_errors=True)
    (fuzz_dir / "out").mkdir()
    (fuzz_dir / "suite.txt").write_text("\n".join(data.draw(_scenario_lines, label="suite")) + "\n")
    argv = data.draw(_argv(fuzz_dir, command), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
