"""The four workloads of the host-time benchmark.

Each workload builds all of its inputs from the seed, sets up (the part timed
as ``setup_s``), then runs ops from one thread in a closed loop. One op has
three steps, and only the middle one is timed:

* ``prepare`` draws the op's input from the seeded stream;
* ``call`` makes the library call that ``tmiusim``'s CLI makes;
* ``check`` compares the output with an expectation computed independently,
  and returns an :class:`OpResult`.

The library is called through module attributes (``image.provision``), never
through names imported into this module, so the traced run's wrappers see
every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from tmiusim import host, image, scenarios, tmiu
from tmiusim.identity import CardIdentity, DeviceIdentity
from tmiusim.image import EntryKind

import oracle

SECTOR = 512
KDF_REPETITIONS = 1000  # full strength, as provisioned by the CLI
FIXED_POINTS = json.loads(Path(__file__).with_name("fixed_points.json").read_text())

BOOT13_KERNEL_BYTES = 13_000_000  # the shape of `tmiusim bench --size 13`
PROVISION13_FILES = 16
PROVISION13_FILE_BYTES = 125_000  # 16 files, 2 MB of data beside the 13 MB boot payload
FILESTORE_FILES = 36
FILESTORE_MIN_BYTES = 512
FILESTORE_MAX_BYTES = 64 * 1024
FILESTORE_READS_PER_10 = 7
TAMPER_FLIPS = 200
TAMPER_SWAPS = 20  # seeded foreign cards, and as many foreign devices


@dataclass
class OpResult:
    ok: bool = True
    detail: str = ""  # why the op failed
    kind: str = "op"  # filestore: "read" or "write"
    payload_bytes: int = 0  # numerator of mb_per_s
    cycles: int = 0  # modelled ledger cycles the op charged
    bytes_moved: int = 0  # modelled ledger bytes the op charged
    outcome: str = ""  # tamper: observed outcome class
    lockdown: str = ""  # lockdown reason the op ended in, if any
    delivered_sectors: int = 0  # boot-image sectors a successful boot delivered
    payload_sectors: int = 0  # file sectors a file op needed
    digest: str = ""  # provision13: image and manifest SHA-256
    seconds: float = 0.0  # host time of the call, set by the run loop

    def fail(self, detail: str) -> "OpResult":
        self.ok = False
        self.detail = detail
        return self


class Workload:
    name = ""
    # The first ``prefix_ops`` ops always run, however short the run; their
    # modelled figures and digests must repeat exactly for a given seed.
    prefix_ops = 1
    # Every ``period`` consecutive ops hold the same mix of op kinds, so rate
    # blocks made of whole periods do not differ in what they contain.
    period = 1

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, stream: str = "inputs") -> random.Random:
        return random.Random(f"{self.name}:{stream}:{self.seed}")

    def identities(self, rng: random.Random) -> tuple[DeviceIdentity, CardIdentity]:
        return DeviceIdentity(dna=rng.randrange(1, 1 << 57)), CardIdentity.from_seed(rng.randbytes(16))

    def setup(self) -> SimpleNamespace:
        raise NotImplementedError

    def prepare(self, state: SimpleNamespace, i: int):
        return None

    def call(self, state: SimpleNamespace, args):
        raise NotImplementedError

    def check(self, state: SimpleNamespace, args, out) -> OpResult:
        raise NotImplementedError


class Boot13(Workload):
    """One cold boot of a provisioned 13 MB image, checked against the pins."""

    name = "boot13"

    def setup(self) -> SimpleNamespace:
        rng = self.rng()
        kernel = rng.randbytes(BOOT13_KERNEL_BYTES)
        dev, card = self.identities(rng)
        result = image.provision(
            [(EntryKind.KERNEL, kernel)], [("bench.dat", b"bench")], dev, card,
            kdf_repetitions=KDF_REPETITIONS,
        )
        boot_host, _, _, _ = host.build_system(result.manifest, result.image)
        return SimpleNamespace(
            host=boot_host,
            manifest=result.manifest,
            boot_sectors=result.layout.boot_sectors,
            expected=[("kernel", len(kernel), hashlib.sha256(kernel).digest())],
            pins=FIXED_POINTS["boot13"],
        )

    def call(self, state, args):
        return state.host.reboot(state.manifest.entries)

    def check(self, state, args, outcome) -> OpResult:
        report = outcome.report
        result = OpResult(
            payload_bytes=state.boot_sectors * SECTOR,
            cycles=report.cycles,
            bytes_moved=report.bytes_moved,
            lockdown=report.reason or "",
        )
        if not outcome.ok:
            return result.fail(f"boot denied: {outcome.outcome_class}")
        for field, pinned in state.pins.items():
            got = getattr(report, field)
            if f"{got:.3f}" != f"{pinned:.3f}":
                return result.fail(f"modelled {field} {got} drifted from pinned {pinned}")
        loaded = [(e.kind_label, e.length, e.digest) for e in state.host.loaded_entries]
        if loaded != state.expected:
            return result.fail("delivered boot entries differ from the provisioned kernel")
        result.delivered_sectors = state.boot_sectors
        return result


class Provision13(Workload):
    """One provisioning of a 13 MB boot payload plus 2 MB of data files."""

    name = "provision13"

    def setup(self) -> SimpleNamespace:
        rng = self.rng()
        entries = [(EntryKind.KERNEL, rng.randbytes(BOOT13_KERNEL_BYTES))]
        files = [
            (f"data/{i:02d}.bin", rng.randbytes(PROVISION13_FILE_BYTES))
            for i in range(PROVISION13_FILES)
        ]
        dev, card = self.identities(rng)
        return SimpleNamespace(entries=entries, files=files, dev=dev, card=card, reference=None)

    def call(self, state, args):
        return image.provision(
            state.entries, state.files, state.dev, state.card, kdf_repetitions=KDF_REPETITIONS
        )

    def check(self, state, args, result) -> OpResult:
        raw = result.image.to_bytes()
        text = result.manifest.to_text()
        digest = f"{hashlib.sha256(raw).hexdigest()}:{hashlib.sha256(text.encode()).hexdigest()}"
        op = OpResult(payload_bytes=len(raw), digest=digest)
        if state.reference is None:
            findings = oracle.check_provisioned(
                raw,
                text,
                dna=state.dev.dna,
                cid=state.card.cid,
                entries=[(kind.value, blob) for kind, blob in state.entries],
                files=state.files,
                kdf_repetitions=KDF_REPETITIONS,
            )
            if findings:
                return op.fail("image contradicts the format: " + ", ".join(findings))
            state.reference = digest
        elif digest != state.reference:
            return op.fail("image or manifest differs from the first op's")
        return op


def _stratified_sizes(rng: random.Random, n: int) -> list[int]:
    """n sizes, one from each of n equal slices of the size range, shuffled.

    Stratifying keeps every seed's size mix close to uniform, so the spread of
    the medians between seeds stays small.
    """
    strata = list(range(n))
    rng.shuffle(strata)
    span = FILESTORE_MAX_BYTES - FILESTORE_MIN_BYTES
    return [FILESTORE_MIN_BYTES + int((k + rng.random()) * span / n) for k in strata]


def _filestore_ops(rng: random.Random, labels: list[str]):
    """Endless op stream: 7 reads and 3 writes in every 10, in seeded order.

    Reads and writes each walk the labels in a fresh seeded permutation, so
    every file is read and rewritten evenly.
    """
    reads: list[str] = []
    writes: list[str] = []
    sizes: list[int] = []
    while True:
        kinds = ["read"] * FILESTORE_READS_PER_10 + ["write"] * (10 - FILESTORE_READS_PER_10)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "read":
                reads = reads or rng.sample(labels, len(labels))
                yield "read", reads.pop(), None
            else:
                writes = writes or rng.sample(labels, len(labels))
                sizes = sizes or _stratified_sizes(rng, 10)
                yield "write", writes.pop(), rng.randbytes(sizes.pop())


class Filestore(Workload):
    """One read_file or write_file on a booted system, checked against a dict."""

    name = "filestore"
    prefix_ops = 100
    period = 10

    def setup(self) -> SimpleNamespace:
        rng = self.rng()
        labels = [f"files/{i:02d}.bin" for i in range(FILESTORE_FILES)]
        files = [
            (label, rng.randbytes(size))
            for label, size in zip(labels, _stratified_sizes(rng, FILESTORE_FILES))
        ]
        dev, card = self.identities(rng)
        # Room for every file twice over at its largest: first-fit then
        # always finds a gap, so no write meets CapacityError.
        slack = 2 * FILESTORE_FILES * (FILESTORE_MAX_BYTES // SECTOR)
        result = image.provision(
            [(EntryKind.KERNEL, rng.randbytes(4096))], files, dev, card,
            kdf_repetitions=KDF_REPETITIONS, data_slack_sectors=slack,
        )
        boot_host, unit, _, _ = host.build_system(result.manifest, result.image)
        outcome = boot_host.run_boot(result.manifest.entries)
        if not outcome.ok:
            raise RuntimeError(f"filestore set-up boot denied: {outcome.outcome_class}")
        return SimpleNamespace(
            host=boot_host, ledger=unit.ledger, model=dict(files),
            ops=_filestore_ops(self.rng("ops"), labels),
        )

    def prepare(self, state, i):
        kind, label, blob = next(state.ops)
        return kind, label, blob, state.ledger.cycles, state.ledger.bytes_moved

    def call(self, state, args):
        kind, label, blob, _, _ = args
        if kind == "read":
            return state.host.read_file(label)
        state.host.write_file(label, blob)
        return blob

    def check(self, state, args, blob) -> OpResult:
        kind, label, _, cycles, moved = args
        result = OpResult(
            kind=kind,
            payload_bytes=len(blob),
            payload_sectors=-(-len(blob) // SECTOR),
            cycles=state.ledger.cycles - cycles,
            bytes_moved=state.ledger.bytes_moved - moved,
        )
        if kind == "write":
            state.model[label] = blob
        elif blob != state.model[label]:
            return result.fail(f"read-back of {label} differs from the last write")
        return result


def _tamper_flips(rng: random.Random, manifest, in_use: list[int]) -> list:
    """Seeded single-bit flips over MBR, boot sectors, in-use data sectors and
    their tag slots, in turn, each with the outcome class it must produce."""
    layout = manifest.layout
    flips = []
    for i in range(TAMPER_FLIPS):
        region = ("mbr", "boot", "data", "meta")[i % 4]
        if region == "mbr":
            target, offset, expect = "mbr", rng.randrange(SECTOR), "MbrMismatch"
        elif region == "boot":
            target = f"boot_lba:{rng.randrange(layout.boot_sectors)}"
            offset, expect = rng.randrange(SECTOR), "ImageDigestMismatch"
        elif region == "data":
            target = f"data_lba:{rng.choice(in_use) - layout.data_start}"
            offset, expect = rng.randrange(SECTOR), "SectorTagMismatch"
        else:
            meta_lba, slot = layout.tag_location(rng.choice(in_use))
            target = f"meta_lba:{meta_lba - layout.meta_start}"
            offset, expect = slot + rng.randrange(32), "SectorTagMismatch"
        mutation = scenarios.Mutation(kind="flip_bit", offset=offset, bit=rng.randrange(8))
        flips.append(scenarios.Scenario(f"flip-{i}", target, mutation, expect))
    return flips


def _tamper_swaps(rng: random.Random) -> list:
    """Seeded foreign cards (well-formed CIDs) and foreign devices (one DNA bit)."""
    swaps = []
    for i in range(TAMPER_SWAPS):
        cid = CardIdentity.from_seed(rng.randbytes(16)).cid
        swaps.append(scenarios.Scenario(
            f"card-swap-{i}", "cid", scenarios.Mutation(kind="replace_region", data=cid), "NvmMismatch"
        ))
        # Bytes 1-7 of the big-endian DNA keep it below 2**57 whatever the bit.
        flip = scenarios.Mutation(kind="flip_bit", offset=rng.randrange(1, 8), bit=rng.randrange(8))
        swaps.append(scenarios.Scenario(f"device-swap-{i}", "device_dna", flip, "DeviceMismatch"))
    return swaps


class Tamper(Workload):
    """One run_scenario on a fixture-sized image at full-strength KDF."""

    name = "tamper"
    prefix_ops = len(scenarios.builtin_scenarios()) + 2 * TAMPER_SWAPS + TAMPER_FLIPS
    period = prefix_ops  # one pass over the suite

    def setup(self) -> SimpleNamespace:
        rng = self.rng()
        entries = [
            (EntryKind.PARTIAL_BITSTREAM, rng.randbytes(1800)),
            (EntryKind.SSBL, rng.randbytes(3130)),
            (EntryKind.KERNEL, rng.randbytes(9472)),
            (EntryKind.DEVICETREE, rng.randbytes(793)),
        ]
        files = [
            ("etc/config.txt", rng.randbytes(779)),
            ("var/log.bin", rng.randbytes(3000)),
            ("keys.db", rng.randbytes(700)),
        ]
        dev, card = self.identities(rng)
        result = image.provision(entries, files, dev, card, kdf_repetitions=KDF_REPETITIONS)
        in_use = image.in_use_data_lbas(result.image, result.manifest)
        suite = list(scenarios.builtin_scenarios().values()) + _tamper_swaps(rng)
        suite += _tamper_flips(rng, result.manifest, in_use)
        return SimpleNamespace(
            image=result.image,
            manifest=result.manifest,
            suite=suite,
            boot_sectors=result.layout.boot_sectors,
            prom_bytes=tmiu.PromStore().config_size,
        )

    def prepare(self, state, i):
        return state.suite[i % len(state.suite)]

    def call(self, state, scenario):
        return scenarios.run_scenario(scenario, state.image, state.manifest)

    def check(self, state, scenario, out) -> OpResult:
        observed, report = out
        result = OpResult(
            # Card sector traffic the unit simulated, without the PROM load.
            payload_bytes=report.bytes_moved - state.prom_bytes,
            cycles=report.cycles,
            bytes_moved=report.bytes_moved,
            outcome=observed,
            lockdown=report.reason or "",
            delivered_sectors=state.boot_sectors if report.leds[3] else 0,
        )
        if observed != scenario.expect:
            return result.fail(f"{scenario.name}: expected {scenario.expect}, observed {observed}")
        return result


WORKLOADS = {w.name: w for w in (Boot13, Provision13, Filestore, Tamper)}
