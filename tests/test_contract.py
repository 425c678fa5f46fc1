"""The library's error contract: each public call, given edge arguments,
returns or raises one of its documented error classes, never another.

The calls are the names in ``tmiusim.__all__`` and a host's ``read_file``,
``write_file`` and ``reboot``. Arguments are drawn at their edges: empty,
huge, negative, of a wrong type, and as ``bytearray`` or ``memoryview``
where bytes are expected. No drawn size allocates more than a few MB: a
size past a format limit is refused before any buffer exists, and every
other size is small. Object parameters (a manifest, an image, a device or
card identity) are drawn as real objects in edge states: a wrong type
there is duck-typed, and what it raises is not part of the contract.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import tmiusim
from tmiusim import (
    CardIdentity,
    DeviceIdentity,
    EntryKind,
    KdfInput,
    LockdownError,
    NvmImage,
    build_system,
    crc7,
    crc16,
    derive_key,
    derive_mac_key,
    provision,
    sha256,
    verify_image,
)
from tmiusim.host import HostError
from tmiusim.image import FileTableError
from tmiusim.tmiu import Denial, TmiuError

_MB = 1 << 20
_WRONG = st.sampled_from([None, 1.5, "text", [1, 2], object()])


def _wide(b: bytes) -> memoryview:
    """``b`` as a ``memoryview`` of 4-byte items when its size allows: its
    ``len`` is then not its size in bytes."""
    return memoryview(b).cast("I") if len(b) % 4 == 0 else memoryview(b)


def _blobs(*sizes: int):
    """Bytes of a drawn short value or of one of ``sizes`` zero bytes, as
    ``bytes``, ``bytearray``, ``memoryview`` or :func:`_wide`."""
    raw = st.one_of(st.binary(max_size=40), st.sampled_from(sizes).map(bytes))
    return st.tuples(raw, st.sampled_from([bytes, bytearray, memoryview, _wide])).map(lambda p: p[1](p[0]))


def _ints(lo: int, hi: int, *edges: int):
    return st.one_of(st.integers(lo, hi), st.sampled_from(edges))


def _mostly(valid, edge):
    """A value from ``valid`` three times in four, else from ``edge``: so
    that one edge argument at a time gets past the checks of the others."""
    return st.integers(0, 3).flatmap(lambda n: valid if n else edge)


def _call(fn, *args, **kwargs):
    """A strategy for a zero-argument call of ``fn`` on drawn arguments."""
    return st.builds(partial, st.just(fn), *args, **kwargs)


_COUNTERS = _mostly(st.integers(0, 3), st.one_of(_ints(-2, -1, 0xFFFFFFFF, 1 << 32, -(1 << 70)), _WRONG))
_REPETITIONS = _mostly(st.integers(1, 3), st.one_of(_ints(-2, 0, 65536, 1 << 70), _WRONG))
_SECRETS = _mostly(
    st.binary(min_size=8, max_size=8).map(lambda b: bytes([b[0] & 1]) + b[1:]),
    st.one_of(_blobs(0, 7, 9), st.sampled_from([b"\xff" * 8, bytearray(8), memoryview(bytes(8))]), _WRONG),
)
_CIDS = _mostly(
    st.binary(min_size=16, max_size=16), st.one_of(_blobs(0, 15, 16, 17, 4 * _MB), st.just("x" * 16), _WRONG)
)
_LABELS = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "a\nb", "x\x00", "\x7f", "é" * 0x8000, "x" * 0x10000]),
    st.binary(max_size=4),
    _WRONG,
)


def _then(use, make, *args):
    """``make(*args)``, then ``use`` of what it made: an object a constructor
    accepts works."""
    return use(make(*args))


def _derive(derive, *kdf_args):
    return derive(KdfInput(*kdf_args))


def _provision_calls(result):
    kinds = _mostly(st.sampled_from(EntryKind), st.sampled_from([4, "kernel", None]))
    blobs = _mostly(st.binary(min_size=1, max_size=600), _blobs(0, _MB))
    entries = _mostly(
        st.lists(st.tuples(kinds, blobs), min_size=1, max_size=3),
        st.one_of(st.just([]), st.lists(st.tuples(kinds), min_size=1, max_size=1), _WRONG),
    )
    files = st.lists(st.tuples(_mostly(st.text(min_size=1, max_size=8), _LABELS), _blobs(0, 513)), max_size=3)
    return _call(
        provision,
        entries,
        files,
        st.just(DeviceIdentity(dna=1)),
        st.just(CardIdentity.from_seed(b"contract")),
        kdf_counter=_COUNTERS,
        kdf_repetitions=_REPETITIONS,
        # The sizes stay small or lie past the format's limits.
        total_sectors=_mostly(st.none(), st.one_of(_ints(-3, 3000, (1 << 32) + 1, 1 << 70), _WRONG)),
        data_slack_sectors=_mostly(st.integers(0, 64), st.one_of(_ints(-3, 2000, 1 << 33), _WRONG)),
        table_sectors=_mostly(st.integers(1, 4), st.one_of(_ints(-2, 40, 0x10000, 1 << 40), _WRONG)),
    )


def _images(result):
    """The fixture's image, cut short, emptied, or with one sector flipped."""
    image = result.image

    def flipped(lba: int) -> NvmImage:
        copy = image.clone()
        copy.write_sector(lba, bytes(b ^ 0xFF for b in copy.read_sector(lba)))
        return copy

    return st.one_of(
        st.just(image).map(NvmImage.clone),
        st.sampled_from([0, 1, 10]).map(lambda n: NvmImage(image.read_sectors(0, n) if n else b"")),
        st.integers(0, image.total_sectors - 1).map(flipped),
    )


def _manifests(result):
    """The fixture's manifest, or one whose anchors, layout or entries lie."""
    manifest = result.manifest
    layout = manifest.layout
    return st.sampled_from(
        [
            manifest,
            dataclasses.replace(manifest, entries=[], files=[("gone", 1, "00")]),
            dataclasses.replace(manifest, anchors=dataclasses.replace(manifest.anchors, kdf_repetitions=1)),
            dataclasses.replace(
                manifest,
                layout=dataclasses.replace(
                    layout, data_start=layout.data_start - 1, boot_sectors=layout.boot_sectors - 1
                ),
            ),
        ]
    )


def _build_and_boot(manifest, image, **overrides):
    """Build a system, which may refuse its arguments, then boot it: a
    system once built boots to an outcome and raises nothing."""
    try:
        host, _, _, _ = build_system(manifest, image, **overrides)
    except _BAD_VALUE:
        return None
    return host.run_boot(expected_entries=manifest.entries)


def _system_calls(result):
    return _call(
        _build_and_boot,
        _manifests(result),
        _images(result),
        dna=_mostly(st.none(), st.one_of(_ints(-1, 3, 1 << 57, 1 << 70), _WRONG)),
        cid=_mostly(st.none(), _CIDS),
        trace=st.booleans(),
    )


def _host(result, phase: str):
    """A host over a copy of the fixture's card: booted, never booted, or
    halted by a denied boot."""
    host, _, _, _ = build_system(result.manifest, result.image.clone(), dna=2 if phase == "halted" else None)
    if phase != "fresh":
        host.run_boot(expected_entries=result.manifest.entries)
    return host


def _on_host(result, method: str, phase: str, *args):
    return getattr(_host(result, phase), method)(*args)


_PHASES = st.sampled_from(["booted", "booted", "fresh", "halted"])
_BAD_VALUE = (ValueError, TypeError)

# name -> (strategy of calls, given the provisioned fixture; documented
# errors). A constructor's object is used once, and a built system boots.
CALLS = {
    "CardIdentity": (
        lambda r: _call(_then, st.just(CardIdentity.cid_well_formed), st.just(CardIdentity), _CIDS, _CIDS),
        _BAD_VALUE,
    ),
    "DeviceIdentity": (
        lambda r: _call(
            _then,
            st.just(DeviceIdentity.encoded),
            st.just(DeviceIdentity),
            st.one_of(_ints(-2, 3, 1 << 57, 1 << 70), _WRONG),
        ),
        _BAD_VALUE,
    ),
    "EntryKind": (lambda r: _call(EntryKind, st.one_of(_ints(-1, 7, 1 << 70), _WRONG)), (ValueError,)),
    "KdfInput": (lambda r: _call(KdfInput, _COUNTERS, _SECRETS, _CIDS, _REPETITIONS), _BAD_VALUE),
    "LockdownError": (
        lambda r: _call(LockdownError, st.one_of(st.none(), st.sampled_from(Denial), _WRONG)),
        (ValueError,),
    ),
    "NvmImage": (lambda r: _call(NvmImage, st.one_of(_blobs(0, 511, 512, 1024, 4 * _MB), _WRONG)), _BAD_VALUE),
    "build_system": (_system_calls, ()),
    "crc16": (lambda r: _call(crc16, st.one_of(_blobs(0, 514, 4 * _MB), _WRONG)), (TypeError,)),
    "crc7": (lambda r: _call(crc7, st.one_of(_blobs(0, 5, 64 << 10), _WRONG)), (TypeError,)),
    "derive_key": (
        lambda r: _call(_derive, st.just(derive_key), _COUNTERS, _SECRETS, _CIDS, _REPETITIONS),
        _BAD_VALUE,
    ),
    "derive_mac_key": (
        lambda r: _call(_derive, st.just(derive_mac_key), _COUNTERS, _SECRETS, _CIDS, _REPETITIONS),
        _BAD_VALUE,
    ),
    "provision": (_provision_calls, _BAD_VALUE),
    "sha256": (lambda r: _call(sha256, st.one_of(_blobs(0, 64, 4 * _MB), _WRONG)), (TypeError,)),
    "verify_image": (lambda r: _call(verify_image, _images(r), _manifests(r)), ()),
    "BootHost.read_file": (
        lambda r: _call(_on_host, st.just(r), st.just("read_file"), _PHASES, _LABELS),
        (HostError, FileNotFoundError, FileTableError, TmiuError),
    ),
    "BootHost.write_file": (
        lambda r: _call(
            _on_host, st.just(r), st.just("write_file"), _PHASES, _LABELS, st.one_of(_blobs(0, 513, 4 * _MB), _WRONG)
        ),
        (HostError, ValueError, TypeError, TmiuError),
    ),
    "BootHost.reboot": (
        lambda r: _call(
            _on_host,
            st.just(r),
            st.just("reboot"),
            _PHASES,
            st.one_of(
                st.none(), st.just(r.manifest.entries), st.lists(st.tuples(st.text(max_size=3)), max_size=2), _WRONG
            ),
        ),
        (TypeError,),
    ),
}


def test_the_contract_covers_every_exported_name():
    assert sorted(name for name in CALLS if "." not in name) == sorted(tmiusim.__all__)


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(
    max_examples=60,  # about 3 s of Tier-1 for all the calls
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_only_documented_errors_escape(provisioned, name, data):
    calls, documented = CALLS[name]
    call = data.draw(calls(provisioned), label="call")
    try:
        call()
    except documented:
        pass


def _outcome(call):
    """What ``call()`` returns, or the class and text of the error it raises."""
    try:
        return call()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    message=st.binary(max_size=40),
    secret=st.one_of(
        st.binary(min_size=8, max_size=8).map(lambda b: bytes([b[0] & 1]) + b[1:]),
        st.sampled_from([bytes(2), bytes(32), b"\x02" + bytes(7)]),
    ),
    cid=st.one_of(st.binary(min_size=16, max_size=16), st.sampled_from([bytes(4), bytes(64)])),
    wrap=st.sampled_from([bytes, bytearray, memoryview, _wide]),
)
@example(message=bytes(range(16)), secret=bytes(32), cid=bytes(16), wrap=_wide)
@example(message=bytes(range(16)), secret=bytes(8), cid=bytes(64), wrap=_wide)
def test_a_buffer_is_read_as_its_bytes(message, secret, cid, wrap):
    # A view of 4-byte items has a len of a quarter of its size: crc7 and
    # KdfInput count bytes, whatever the format.
    assert crc7(wrap(message)) == crc7(message)

    def derived(secret, cid):
        return _outcome(lambda: [derive(KdfInput(1, secret, cid, 2)) for derive in (derive_key, derive_mac_key)])

    assert derived(wrap(secret), wrap(cid)) == derived(secret, cid)
