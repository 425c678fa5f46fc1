import dataclasses
import random

import pytest

from tmiusim.crypto import crc7, sha256
from tmiusim.identity import (
    AuthFailure,
    CardIdentity,
    DeviceIdentity,
    TrustAnchors,
    authenticate_device,
    authenticate_nvm,
    device_checksum,
    nvm_checksum,
)


def _anchors(dev, card):
    return TrustAnchors.for_pair(dev, card, mbr_digest=bytes(32), kdf_counter=1, kdf_repetitions=10)


class TestDeviceIdentity:
    def test_accepts_57_bit_values(self):
        dev = DeviceIdentity(dna=(1 << 57) - 1)
        assert dev.encoded() == b"\x01" + b"\xff" * 7

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DeviceIdentity(dna=1 << 57)
        with pytest.raises(ValueError):
            DeviceIdentity(dna=-1)

    def test_write_once(self):
        dev = DeviceIdentity(dna=7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            dev.dna = 8


class TestCardIdentity:
    def test_from_seed_is_well_formed(self):
        card = CardIdentity.from_seed(b"any seed")
        assert len(card.cid) == 16
        assert card.cid_well_formed()
        assert card.cid[15] == (crc7(card.cid[:15]) << 1) | 1

    def test_corrupted_crc_field_detected(self):
        card = CardIdentity.from_seed(b"s")
        broken = CardIdentity(cid=card.cid[:15] + bytes([card.cid[15] ^ 2]), csd=card.csd)
        assert not broken.cid_well_formed()

    def test_length_validation(self):
        with pytest.raises(ValueError):
            CardIdentity(cid=bytes(15))
        with pytest.raises(ValueError):
            CardIdentity(cid=bytes(16), csd=bytes(17))

    @pytest.mark.parametrize("cid, csd", [("x" * 16, bytes(16)), (16, bytes(16)), (bytes(16), "y" * 16)])
    def test_registers_that_are_not_bytes_are_refused(self, cid, csd):
        with pytest.raises(TypeError):
            CardIdentity(cid=cid, csd=csd)

    def test_registers_are_kept_as_bytes(self):
        card = CardIdentity(cid=bytearray(16), csd=memoryview(bytes(range(16))))
        assert type(card.cid) is type(card.csd) is bytes and card.csd == bytes(range(16))


class TestAuthenticateDevice:
    def test_matching_device_passes(self):
        dev = DeviceIdentity(dna=0x0123456789ABCD)
        anchors = _anchors(dev, CardIdentity.from_seed(b"c"))
        assert authenticate_device(anchors, dev) is None

    def test_one_bit_differs_fails(self):
        dev = DeviceIdentity(dna=0x0123456789ABCD)
        anchors = _anchors(dev, CardIdentity.from_seed(b"c"))
        other = DeviceIdentity(dna=dev.dna ^ 1)
        assert authenticate_device(anchors, other) is AuthFailure.DEVICE_MISMATCH

    def test_checksum_is_hash_of_encoding(self):
        dev = DeviceIdentity(dna=42)
        assert device_checksum(dev) == sha256((42).to_bytes(8, "big"))


class TestAuthenticateNvm:
    def test_matching_card_passes(self):
        dev = DeviceIdentity(dna=1)
        card = CardIdentity.from_seed(b"mine")
        assert authenticate_nvm(_anchors(dev, card), card) is None

    def test_swapped_card_fails(self):
        dev = DeviceIdentity(dna=1)
        anchors = _anchors(dev, CardIdentity.from_seed(b"mine"))
        foreign = CardIdentity.from_seed(b"theirs")
        assert authenticate_nvm(anchors, foreign) is AuthFailure.NVM_MISMATCH

    def test_malformed_cid_is_distinct_failure(self):
        dev = DeviceIdentity(dna=1)
        card = CardIdentity.from_seed(b"mine")
        anchors = _anchors(dev, card)
        broken = CardIdentity(cid=card.cid[:15] + bytes([card.cid[15] ^ 0xFE]), csd=card.csd)
        assert authenticate_nvm(anchors, broken) is AuthFailure.MALFORMED_CID

    def test_the_nvm_is_bound_by_its_cid_alone(self):
        dev = DeviceIdentity(dna=1)
        card = CardIdentity.from_seed(b"mine")
        anchors = _anchors(dev, card)
        assert anchors.nvm_checksum == nvm_checksum(card) == sha256(card.cid)
        twin = CardIdentity(cid=card.cid, csd=sha256(b"other csd")[:16])
        assert authenticate_nvm(anchors, twin) is None


def test_pairing_property_random_perturbations():
    rng = random.Random(0xA11)
    dev = DeviceIdentity(dna=0x00AA55AA55AA55)
    card = CardIdentity.from_seed(b"paired")
    anchors = _anchors(dev, card)
    for _ in range(1000):
        if rng.random() < 0.5:
            other = DeviceIdentity(dna=dev.dna ^ (1 << rng.randrange(57)))
            assert authenticate_device(anchors, other) is not None
        else:
            mutated = bytearray(card.cid)
            mutated[rng.randrange(16)] ^= 1 << rng.randrange(8)
            other_card = CardIdentity(cid=bytes(mutated), csd=card.csd)
            assert authenticate_nvm(anchors, other_card) is not None


def test_anchors_are_immutable():
    dev = DeviceIdentity(dna=1)
    anchors = _anchors(dev, CardIdentity.from_seed(b"c"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        anchors.kdf_counter = 2
    with pytest.raises(ValueError):
        TrustAnchors(
            device_checksum=bytes(31),
            nvm_checksum=bytes(32),
            mbr_digest=bytes(32),
            kdf_counter=1,
            kdf_repetitions=1,
        )


def test_anchor_kdf_repetitions_are_bounded():
    dev, card = DeviceIdentity(dna=1), CardIdentity.from_seed(b"c")
    for repetitions in (1, 65535):
        anchors = TrustAnchors.for_pair(
            dev, card, mbr_digest=bytes(32), kdf_counter=1, kdf_repetitions=repetitions
        )
        assert anchors.kdf_repetitions == repetitions
    for repetitions in (0, 65536):
        with pytest.raises(ValueError, match="kdf_repetitions"):
            TrustAnchors.for_pair(
                dev, card, mbr_digest=bytes(32), kdf_counter=1, kdf_repetitions=repetitions
            )
