"""Command-line front end: provision, boot, tamper, bench, inspect.

Exit codes are fixed for scriptability: 0 success (or expected outcome),
1 verification/expectation failure, 2 usage or I/O error, 3 boot denied.
Output is deterministic for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .host import build_system
from .identity import CardIdentity, DeviceIdentity
from .image import (
    CapacityError,
    EntryKind,
    Manifest,
    ManifestError,
    NvmImage,
    finding_failed,
    provision,
    verify_image,
)
from .scenarios import ScenarioError, builtin_scenarios, load_scenarios, run_scenario

REFERENCE_SIZE_MB = 13.0
REFERENCE_BOOT_MS = 526.0
REFERENCE_RATE_MBPS = 24.7

_EXTENSION_KINDS = {
    ".dtb": EntryKind.DEVICETREE,
    ".bit": EntryKind.PARTIAL_BITSTREAM,
    ".bitstream": EntryKind.PARTIAL_BITSTREAM,
}


class CliError(Exception):
    """Usage or I/O failure; maps to exit code 2."""


def _parse_boot_arg(value: str) -> tuple[EntryKind, Path]:
    if "=" in value:
        label, path = value.split("=", 1)
        try:
            return EntryKind.from_label(label), Path(path)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    path = Path(value)
    return _EXTENSION_KINDS.get(path.suffix.lower(), EntryKind.KERNEL), path


def _parse_data_arg(value: str) -> tuple[str, Path]:
    if "=" in value:
        label, path = value.split("=", 1)
        return label, Path(path)
    path = Path(value)
    return path.name, path


def _read_blob(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _parse_int(value: str) -> int:
    try:
        return int(value, 0)
    except ValueError as exc:
        raise CliError(f"bad integer {value!r}") from exc


def _parse_hex_bytes(value: str, size: int, what: str) -> bytes:
    try:
        raw = bytes.fromhex(value)
    except ValueError as exc:
        raise CliError(f"bad hex for {what}: {exc}") from exc
    if len(raw) != size:
        raise CliError(f"{what} must be {size} bytes ({size * 2} hex digits)")
    return raw


def _load_pair(image_path: str, manifest_path: str) -> tuple[NvmImage, Manifest]:
    try:
        image = NvmImage.load(image_path)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load image {image_path}: {exc}") from exc
    try:
        manifest = Manifest.load(manifest_path)
    except (OSError, ManifestError) as exc:
        raise CliError(f"cannot load manifest {manifest_path}: {exc}") from exc
    return image, manifest


# ---------------------------------------------------------------------------


def cmd_provision(args: argparse.Namespace) -> int:
    entries = []
    for value in args.boot:
        kind, path = _parse_boot_arg(value)
        entries.append((kind, _read_blob(path)))
    files = []
    for value in args.data or []:
        label, path = _parse_data_arg(value)
        files.append((label, _read_blob(path)))

    dna = _parse_int(args.dna)
    derived = CardIdentity.from_seed(dna.to_bytes(8, "big"))
    cid = _parse_hex_bytes(args.cid, 16, "cid") if args.cid else derived.cid
    csd = _parse_hex_bytes(args.csd, 16, "csd") if args.csd else derived.csd

    try:
        device = DeviceIdentity(dna=dna)
        card = CardIdentity(cid=cid, csd=csd)
        result = provision(
            entries,
            files,
            device,
            card,
            kdf_counter=args.counter,
            kdf_repetitions=args.repetitions,
            total_sectors=args.sectors,
            data_slack_sectors=args.slack,
            table_sectors=args.table_sectors,
        )
    except CapacityError as exc:
        raise CliError(f"CapacityExceeded: {exc}") from exc
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    out = Path(args.out)
    manifest_path = Path(args.manifest) if args.manifest else out.with_suffix(out.suffix + ".manifest")
    try:
        result.image.save(out)
        result.manifest.save(manifest_path)
    except OSError as exc:
        raise CliError(f"cannot write output: {exc}") from exc

    print(f"image={out}")
    print(f"manifest={manifest_path}")
    for line in result.layout.lines() + result.manifest.content_lines():
        print(line)
    return 0


def cmd_boot(args: argparse.Namespace) -> int:
    image, manifest = _load_pair(args.image, args.manifest)
    dna = _parse_int(args.dna) if args.dna else None
    cid = _parse_hex_bytes(args.cid, 16, "cid") if args.cid else None
    csd = _parse_hex_bytes(args.csd, 16, "csd") if args.csd else None

    host, _, bus, _ = build_system(
        manifest, image, dna=dna, cid=cid, csd=csd, trace=bool(args.trace)
    )
    outcome = host.run_boot(expected_entries=manifest.entries)
    report = outcome.report.to_text()
    print(report, end="")
    if args.report:
        Path(args.report).write_text(report)
    if args.trace:
        bus.write_transcript(args.trace)
    return 0 if outcome.ok else 3


def cmd_tamper(args: argparse.Namespace) -> int:
    image, manifest = _load_pair(args.image, args.manifest)
    scenarios = []
    if args.scenario:
        try:
            scenarios.extend(load_scenarios(args.scenario))
        except (OSError, ScenarioError) as exc:
            raise CliError(str(exc)) from exc
    known = builtin_scenarios()
    for name in args.builtin or []:
        if name not in known:
            raise CliError(f"unknown builtin scenario {name!r} (have: {', '.join(sorted(known))})")
        scenarios.append(known[name])
    if args.all_builtins:
        scenarios.extend(known.values())
    if not scenarios:
        raise CliError("no scenarios given (use --scenario, --builtin, or --all-builtins)")

    mismatches = 0
    for scenario in scenarios:
        try:
            observed, _ = run_scenario(scenario, image, manifest)
        except ScenarioError as exc:
            raise CliError(f"{scenario.name}: {exc}") from exc
        verdict = "ok" if observed == scenario.expect else "MISMATCH"
        if observed != scenario.expect:
            mismatches += 1
        print(
            f"name={scenario.name} expect={scenario.expect} observed={observed} result={verdict}"
        )
    return 0 if mismatches == 0 else 1


def cmd_bench(args: argparse.Namespace) -> int:
    payload_bytes = int(args.size * 1_000_000)
    if payload_bytes <= 0:
        raise CliError("--size must be positive")
    device = DeviceIdentity(dna=0x0123456789ABCD)
    card = CardIdentity.from_seed(b"bench-card")
    result = provision(
        [(EntryKind.KERNEL, bytes(payload_bytes))],
        [("bench.dat", b"bench")],
        device,
        card,
        kdf_repetitions=args.repetitions,
    )
    host, _, _, _ = build_system(result.manifest, result.image)
    outcome = host.run_boot(expected_entries=result.manifest.entries)
    if not outcome.ok:
        raise CliError(f"bench boot denied: {outcome.outcome_class}")
    report = outcome.report
    print(f"size_mb={args.size:.3f}")
    print(f"payload_bytes={payload_bytes}")
    print(f"boot_sectors={result.layout.boot_sectors}")
    print(f"prom_ms={report.prom_ms:.3f}")
    print(f"boot_ms={report.boot_ms:.3f}")
    print(f"total_ms={report.total_ms:.3f}")
    print(f"rate_mbps={report.rate_mbps:.3f}")
    if abs(args.size - REFERENCE_SIZE_MB) < 1e-9:
        print(f"reference_boot_ms={REFERENCE_BOOT_MS:.3f}")
        print(f"reference_rate_mbps={REFERENCE_RATE_MBPS:.3f}")
        print(f"boot_ms_delta_pct={(report.boot_ms - REFERENCE_BOOT_MS) / REFERENCE_BOOT_MS * 100:+.3f}")
        print(
            f"rate_delta_pct={(report.rate_mbps - REFERENCE_RATE_MBPS) / REFERENCE_RATE_MBPS * 100:+.3f}"
        )
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    image, manifest = _load_pair(args.image, args.manifest)
    findings = verify_image(image, manifest)
    for line in manifest.layout.lines() + findings:
        print(line)

    if args.transcript:
        try:
            lines = Path(args.transcript).read_text().splitlines()
        except OSError as exc:
            raise CliError(f"cannot read transcript: {exc}") from exc
        counts: dict[str, int] = {}
        for line in lines:
            for token in line.split():
                if token.startswith("KIND="):
                    counts[token[5:]] = counts.get(token[5:], 0) + 1
        summary = " ".join(f"{kind.lower()}={counts.get(kind, 0)}" for kind in ("CMD", "RSP", "DAT", "TOK"))
        print(f"transcript lines={len(lines)} {summary}")

    return 1 if any(finding_failed(f) for f in findings) else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmiusim",
        description="Provision encrypted card images and simulate the guarded boot path.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("provision", help="build an encrypted, tagged image plus manifest")
    p.add_argument("--boot", action="append", required=True, metavar="[KIND=]PATH",
                   help="boot entry; kind inferred from extension unless given "
                        "(partial-bitstream, fsbl, ssbl, kernel, devicetree)")
    p.add_argument("--data", action="append", metavar="[LABEL=]PATH", help="data-partition file")
    p.add_argument("--out", required=True, help="output image path (.nvm)")
    p.add_argument("--manifest", help="manifest path (default: <out>.manifest)")
    p.add_argument("--dna", required=True, help="57-bit device identifier (e.g. 0x0123456789abcd)")
    p.add_argument("--cid", help="128-bit card identifier, 32 hex digits (default: derived)")
    p.add_argument("--csd", help="128-bit card CSD register, 32 hex digits (default: derived)")
    p.add_argument("--sectors", type=int, help="total geometry in sectors (default: minimal+slack)")
    p.add_argument("--counter", type=int, default=1, help="KDF counter (default 1)")
    p.add_argument("--repetitions", type=int, default=1000, help="KDF iterations (default 1000)")
    p.add_argument("--table-sectors", type=int, default=4, help="file-table reservation (default 4)")
    p.add_argument("--slack", type=int, default=64, help="spare data sectors when auto-sizing")
    p.set_defaults(func=cmd_provision)

    p = sub.add_parser("boot", help="boot an image and print the report")
    p.add_argument("--image", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--dna", help="present a different device identifier")
    p.add_argument("--cid", help="present a different card identifier (32 hex digits)")
    p.add_argument("--csd", help="present a different CSD register (32 hex digits)")
    p.add_argument("--trace", help="write the bus transcript to a file")
    p.add_argument("--report", help="also write the report to a file")
    p.set_defaults(func=cmd_boot)

    p = sub.add_parser("tamper", help="run tamper scenarios against a copy of the image")
    p.add_argument("--image", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--scenario", help="scenario file (one scenario per line)")
    p.add_argument("--builtin", action="append", metavar="NAME", help="bundled scenario name")
    p.add_argument("--all-builtins", action="store_true", help="run the whole bundled suite")
    p.set_defaults(func=cmd_tamper)

    p = sub.add_parser("bench", help="boot a synthetic payload and report modelled timing")
    p.add_argument("--size", type=float, default=13.0, help="payload size in MB (default 13)")
    p.add_argument("--repetitions", type=int, default=1000, help="KDF iterations (default 1000)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("inspect", help="verify an image offline against its manifest")
    p.add_argument("--image", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--transcript", help="summarize a transcript file")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
