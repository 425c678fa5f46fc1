"""Attack harness: declarative tamper scenarios against a provisioned image.

A scenario names a target, one mutation, and the expected outcome class.
Scenario files are line oriented; each non-comment line is one scenario:

    name=mbr_tamper target=mbr mutate=flip_bit:100:0 expect=MbrMismatch

Targets:
    mbr                  the encrypted MBR sector
    boot_lba:<i>         sector i of the boot partition
    data_lba:<i>         sector i of the data partition
    meta_lba:<i>         sector i of the integrity region
    cid | device_dna     the identity presented at boot
    bus:cmd:<n>          one-shot fault on the n-th command frame
    bus:data:<n>         one-shot fault on the n-th card-to-host data frame

Mutations: flip_bit:<offset>:<bit>, set_byte:<offset>:<value>,
replace_region:<hex>, copy_from:<sector-index> (same region).

Mutations are applied to a copy of the image or to the presented identity;
the attacker role never reads the manifest's identity fields, it only
rewrites public material. After a successful boot the runner sweeps every
provisioned file through the mediated read path, so tampering that only
post-boot traffic can reveal is still observed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .crypto import sha256
from .host import BootHost, build_system
from .identity import CardIdentity, DNA_BITS
from .image import Manifest, NvmImage
from .tmiu import BootReport, Denial, LockdownError, ProtocolCrcError

OUTCOME_CLASSES = ("OsRunning",) + tuple(d.value for d in Denial)


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Mutation:
    kind: str
    offset: int = 0
    bit: int = 0
    value: int = 0
    data: bytes = b""
    source: int = 0

    @classmethod
    def parse(cls, text: str) -> "Mutation":
        parts = text.split(":")
        kind = parts[0]
        try:
            if kind == "flip_bit":
                return cls(kind=kind, offset=int(parts[1]), bit=int(parts[2]))
            if kind == "set_byte":
                return cls(kind=kind, offset=int(parts[1]), value=int(parts[2], 0))
            if kind == "replace_region":
                return cls(kind=kind, data=bytes.fromhex(parts[1]))
            if kind == "copy_from":
                return cls(kind=kind, source=int(parts[1]))
        except (IndexError, ValueError) as exc:
            raise ScenarioError(f"bad mutation {text!r}: {exc}") from exc
        raise ScenarioError(f"unknown mutation kind {kind!r}")

    def apply(self, region: bytes) -> bytes:
        buf = bytearray(region)
        if self.kind == "flip_bit":
            buf[self.offset % len(buf)] ^= 1 << (self.bit & 7)
        elif self.kind == "set_byte":
            if buf[self.offset % len(buf)] == self.value:
                raise ScenarioError("set_byte value equals the original byte")
            buf[self.offset % len(buf)] = self.value
        elif self.kind == "replace_region":
            if len(self.data) != len(buf):
                raise ScenarioError(
                    f"replacement is {len(self.data)} bytes, region is {len(buf)}"
                )
            buf[:] = self.data
        else:
            raise ScenarioError(f"mutation {self.kind} needs image context")
        return bytes(buf)


@dataclass(frozen=True)
class Scenario:
    name: str
    target: str
    mutation: Mutation
    expect: str


def parse_scenario(line: str, default_name: str = "scenario") -> Scenario:
    fields: dict[str, str] = {}
    for token in line.split():
        if "=" not in token:
            raise ScenarioError(f"expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        fields[key] = value
    try:
        scenario = Scenario(
            name=fields.get("name", default_name),
            target=fields["target"],
            mutation=Mutation.parse(fields["mutate"]),
            expect=fields["expect"],
        )
    except KeyError as exc:
        raise ScenarioError(f"missing field {exc.args[0]}") from exc
    if scenario.expect not in OUTCOME_CLASSES:
        raise ScenarioError(f"unknown outcome class {scenario.expect!r}")
    return scenario


def load_scenarios(path: str | Path) -> list[Scenario]:
    scenarios = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        scenarios.append(parse_scenario(line, default_name=f"line{lineno}"))
    if not scenarios:
        raise ScenarioError(f"no scenarios in {path}")
    return scenarios


def builtin_scenarios() -> dict[str, Scenario]:
    """The bundled threat-model suite for default-provisioned images."""
    foreign = CardIdentity.from_seed(b"foreign-card")
    table = [
        Scenario("device_swap", "device_dna", Mutation.parse("flip_bit:7:0"), "DeviceMismatch"),
        Scenario(
            "card_swap",
            "cid",
            Mutation(kind="replace_region", data=foreign.cid),
            "NvmMismatch",
        ),
        Scenario("cid_corrupt", "cid", Mutation.parse("flip_bit:15:1"), "MalformedCid"),
        Scenario("mbr_tamper", "mbr", Mutation.parse("flip_bit:100:0"), "MbrMismatch"),
        Scenario(
            "mbr_partition_tamper", "mbr", Mutation.parse("flip_bit:450:0"), "MbrMismatch"
        ),
        Scenario(
            "bootimage_bitflip", "boot_lba:0", Mutation.parse("flip_bit:64:3"), "ImageDigestMismatch"
        ),
        Scenario(
            "data_sector_tamper", "data_lba:0", Mutation.parse("flip_bit:10:2"), "SectorTagMismatch"
        ),
        Scenario(
            "integrity_region_tamper", "meta_lba:0", Mutation.parse("flip_bit:0:0"), "SectorTagMismatch"
        ),
        Scenario("sector_replay", "data_lba:1", Mutation.parse("copy_from:0"), "SectorTagMismatch"),
        Scenario("bus_cmd_bitflip", "bus:cmd:2", Mutation.parse("flip_bit:2:0"), "OsRunning"),
        Scenario("bus_data_bitflip", "bus:data:1", Mutation.parse("flip_bit:5:1"), "OsRunning"),
    ]
    return {s.name: s for s in table}


def _target_index(target: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ScenarioError(f"bad index {text!r} in target {target!r}") from None


def _resolve_lba(target: str, manifest: Manifest) -> int:
    layout = manifest.layout
    if target == "mbr":
        return 0
    region, _, index_text = target.partition(":")
    index = _target_index(target, index_text) if index_text else 0
    spans = {
        "boot_lba": (layout.boot_start, layout.boot_sectors),
        "data_lba": (layout.data_start, layout.data_sectors),
        "meta_lba": (layout.meta_start, layout.meta_sectors),
    }
    if region not in spans:
        raise ScenarioError(f"unknown target {target!r}")
    start, count = spans[region]
    if not 0 <= index < count:
        raise ScenarioError(f"index {index} outside {region} ({count} sectors)")
    return start + index


def run_scenario(
    scenario: Scenario, image: NvmImage, manifest: Manifest
) -> tuple[str, BootReport]:
    """Apply the mutation to copies, boot, sweep files; return the outcome."""
    work = image.clone()
    dna: int | None = None
    cid: bytes | None = None
    bus_fault: tuple[str, int, Mutation] | None = None
    target = scenario.target
    mutation = scenario.mutation

    if target == "cid":
        cid = mutation.apply(manifest.cid)
    elif target == "device_dna":
        mutated = mutation.apply(manifest.dna.to_bytes(8, "big"))
        dna = int.from_bytes(mutated, "big")
        if dna >= 1 << DNA_BITS or dna == manifest.dna:
            raise ScenarioError("device_dna mutation must stay a distinct 57-bit value")
    elif target.startswith("bus:"):
        parts = target.split(":")
        kind = parts[1] if len(parts) > 1 else ""
        nth = _target_index(target, parts[2]) if len(parts) > 2 else 1
        if kind not in ("cmd", "data"):
            raise ScenarioError(f"unknown bus target {target!r}")
        if mutation.kind != "flip_bit":
            raise ScenarioError("bus faults support flip_bit only")
        bus_fault = (kind, nth, mutation)
    else:
        lba = _resolve_lba(target, manifest)
        if mutation.kind == "copy_from":
            source = _resolve_lba(f"{target.partition(':')[0]}:{mutation.source}", manifest)
            work.write_sector(lba, work.read_sector(source))
        else:
            work.write_sector(lba, mutation.apply(work.read_sector(lba)))

    host, tmiu, bus, _ = build_system(manifest, work, dna=dna, cid=cid)
    if bus_fault is not None:
        kind, nth, fault = bus_fault
        if kind == "cmd":
            bus.inject_command_fault(nth=nth, byte_offset=fault.offset, bit=fault.bit)
        else:
            bus.inject_card_to_host_fault(nth=nth, byte_offset=fault.offset, bit=fault.bit)

    outcome = host.run_boot(expected_entries=manifest.entries)
    if not outcome.ok:
        return outcome.outcome_class, outcome.report
    observed = _sweep_files(host, manifest)
    return observed, tmiu.report()


def _sweep_files(host: BootHost, manifest: Manifest) -> str:
    try:
        for label, length, digest in manifest.files:
            blob = host.read_file(label)
            if len(blob) != length or sha256(blob).hex() != digest:
                return Denial.SECTOR_TAG_MISMATCH.value
        return "OsRunning"
    except LockdownError as exc:
        return exc.reason.value if exc.reason else "Unknown"
    except ProtocolCrcError:
        return Denial.BUS_ERROR.value
