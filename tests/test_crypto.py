import hashlib
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tmiusim import crypto
from tmiusim.crypto import (
    KdfInput,
    SectorCipher,
    SectorMac,
    crc7,
    crc16,
    decrypt_sector,
    derive_key,
    derive_mac_key,
    encrypt_sector,
    sector_tag,
    sha256,
)
from tmiusim.identity import CardIdentity, DeviceIdentity, derive_keys

from oracles import (
    aes_encrypt_block,
    crc7_oracle,
    crc16_oracle,
    ctr_sector_oracle,
    ecb_counter_oracle,
    kdf_key_oracle,
    kdf_mac_oracle,
    sector_tag_oracle,
)


class TestCrc7:
    def test_zero_input_zero_remainder(self):
        assert crc7(bytes(5)) == 0x00

    def test_cmd0_frame(self):
        # First command frame of every boot: index 0, zero argument.
        assert crc7(bytes([0x40, 0, 0, 0, 0])) == 0x4A

    def test_cmd17_frame(self):
        assert crc7(bytes([0x51, 0, 0, 0, 0])) == 0x2A

    def test_matches_long_division_oracle(self):
        rng = random.Random(0xC7)
        for _ in range(1000):
            message = rng.randbytes(rng.randrange(0, 24))
            assert crc7(message) == crc7_oracle(message)

    def test_range(self):
        rng = random.Random(1)
        assert all(crc7(rng.randbytes(6)) < 128 for _ in range(200))


class TestCrc16:
    def test_empty(self):
        assert crc16(b"") == 0x0000

    def test_all_ones_sector(self):
        # The canonical SD data-line check value for a 0xFF-filled sector.
        assert crc16(b"\xff" * 512) == 0x7FA1

    def test_matches_long_division_oracle(self):
        rng = random.Random(0xC16)
        for _ in range(1000):
            message = rng.randbytes(rng.randrange(0, 32))
            assert crc16(message) == crc16_oracle(message)

    def test_detects_every_single_bit_flip(self):
        rng = random.Random(2)
        for _ in range(20):
            block = bytearray(rng.randbytes(512))
            reference = crc16(bytes(block))
            for bitpos in range(4096):
                block[bitpos >> 3] ^= 1 << (bitpos & 7)
                assert crc16(bytes(block)) != reference
                block[bitpos >> 3] ^= 1 << (bitpos & 7)


class TestSha256:
    def test_empty_vector(self):
        assert sha256(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_abc_vector(self):
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_last_byte_change_changes_digest(self):
        message = b"boot image payload"
        altered = message[:-1] + bytes([message[-1] ^ 1])
        assert sha256(message) != sha256(altered)


class TestAes:
    def test_fips197_block_vector(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert aes_encrypt_block(key, plaintext).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_sector_round_trip(self):
        rng = random.Random(3)
        for _ in range(10):
            cipher = SectorCipher(rng.randbytes(16))
            index = rng.randrange(0, 1 << 48)
            plaintext = rng.randbytes(512)
            assert decrypt_sector(cipher, index, encrypt_sector(cipher, index, plaintext)) == plaintext

    def test_sector_index_separates_keystreams(self):
        cipher = SectorCipher(bytes(16))
        plaintext = bytes(512)
        assert encrypt_sector(cipher, 0, plaintext) != encrypt_sector(cipher, 1, plaintext)

    def test_matches_ctr_mode_oracle(self):
        rng = random.Random(4)
        for _ in range(10):
            key = rng.randbytes(16)
            index = rng.randrange(0, 1 << 60)
            plaintext = rng.randbytes(512)
            assert encrypt_sector(SectorCipher(key), index, plaintext) == ctr_sector_oracle(
                key, index, plaintext
            )

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            encrypt_sector(SectorCipher(bytes(16)), 0, bytes(511))
        with pytest.raises(ValueError):
            decrypt_sector(SectorCipher(bytes(16)), 0, bytes(513))

    def test_rejects_out_of_range_sector_index(self):
        with pytest.raises(ValueError):
            encrypt_sector(SectorCipher(bytes(16)), 1 << 64, bytes(512))
        with pytest.raises(ValueError):
            decrypt_sector(SectorCipher(bytes(16)), -1, bytes(512))


class TestSectorCipher:
    KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")  # SP 800-38A F.5 key

    @pytest.mark.parametrize("index", [0, 1, 1 << 32, 1 << 63, (1 << 64) - 1])
    def test_matches_ctr_mode_oracle_at_edge_indices(self, index):
        cipher = SectorCipher(self.KEY)
        data = bytes(range(256)) * 2
        assert encrypt_sector(cipher, index, data) == ctr_sector_oracle(self.KEY, index, data)
        assert decrypt_sector(cipher, index, data) == ctr_sector_oracle(self.KEY, index, data)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        key=st.binary(min_size=16, max_size=16),
        index=st.integers(min_value=0, max_value=(1 << 64) - 1),
        data=st.binary(min_size=512, max_size=512),
    )
    def test_matches_ctr_mode_oracle_on_any_input(self, key, index, data):
        assert encrypt_sector(SectorCipher(key), index, data) == ctr_sector_oracle(key, index, data)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        key=st.binary(min_size=16, max_size=16),
        count=st.integers(min_value=1, max_value=70),
        first=st.one_of(
            st.integers(min_value=0, max_value=1 << 40),
            st.integers(min_value=(1 << 64) - 70, max_value=(1 << 64) - 1),
        ),
        seed=st.integers(0, 1 << 32),
    )
    def test_run_is_bit_identical_to_sector_calls(self, key, count, first, seed):
        if first + count > 1 << 64:
            count = (1 << 64) - first
        cipher = SectorCipher(key)
        data = random.Random(seed).randbytes(count * 512)
        sectors = [data[i * 512 : (i + 1) * 512] for i in range(count)]
        encrypted = cipher.crypt(first, data)
        assert encrypted == b"".join(encrypt_sector(cipher, first + i, s) for i, s in enumerate(sectors))
        decrypted = cipher.crypt(first, encrypted)
        assert decrypted == data
        assert decrypted == b"".join(
            decrypt_sector(cipher, first + i, encrypted[i * 512 : (i + 1) * 512]) for i in range(count)
        )

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(
        key=st.binary(min_size=16, max_size=16),
        count=st.integers(min_value=1, max_value=70),
        first=st.one_of(
            st.integers(min_value=0, max_value=(1 << 64) - 71),
            st.integers(min_value=(1 << 64) - 70, max_value=(1 << 64) - 1),
        ),
        seed=st.integers(0, 1 << 32),
    )
    def test_matches_ecb_counter_oracle(self, key, count, first, seed):
        count = min(count, (1 << 64) - first)
        cipher = SectorCipher(key)
        data = random.Random(seed).randbytes(count * 512)
        expected = ecb_counter_oracle(key, first, data)
        assert cipher.crypt(first, data) == expected
        assert cipher.crypt(first, expected) == data
        for i in range(count):
            plain, sealed = data[i * 512 : (i + 1) * 512], expected[i * 512 : (i + 1) * 512]
            assert encrypt_sector(cipher, first + i, plain) == sealed
            assert decrypt_sector(cipher, first + i, sealed) == plain

    def test_carries_no_state_between_calls(self):
        # A CTR context is stateful; every call must start from its own
        # sector's nonce, whatever came before it on the same cipher.
        cipher = SectorCipher(self.KEY)
        rng = random.Random(11)
        sector, run = rng.randbytes(512), rng.randbytes(5 * 512)
        assert encrypt_sector(cipher, 9, sector) == ecb_counter_oracle(self.KEY, 9, sector)
        assert cipher.crypt(40, run) == ecb_counter_oracle(self.KEY, 40, run)
        assert decrypt_sector(cipher, 9, sector) == ecb_counter_oracle(self.KEY, 9, sector)
        with pytest.raises(ValueError):
            encrypt_sector(cipher, 9, sector[:511])
        with pytest.raises(ValueError):
            cipher.crypt(40, run[:-1])
        assert cipher.crypt(40, run) == ecb_counter_oracle(self.KEY, 40, run)
        assert cipher.crypt(2, run) == ecb_counter_oracle(self.KEY, 2, run)
        assert decrypt_sector(cipher, 3, run[512:1024]) == ecb_counter_oracle(self.KEY, 3, run[512:1024])

    @pytest.mark.parametrize("form", [bytes, bytearray, memoryview])
    def test_one_sector_call_is_its_slice_of_a_run(self, form):
        cipher = SectorCipher(self.KEY)
        run = random.Random(5).randbytes(4 * 512)
        sealed = cipher.crypt(70, run)
        for i in range(4):
            one = cipher.crypt(70 + i, form(run[i * 512 : (i + 1) * 512]))
            assert type(one) is bytes
            assert one == sealed[i * 512 : (i + 1) * 512]
            assert cipher.crypt(70 + i, form(one)) == run[i * 512 : (i + 1) * 512]

    def test_one_sector_call_writes_back_in_place(self):
        # As provisioning seals its buffer: each sector through a view of
        # the bytearray, its result written back over that same view.
        cipher = SectorCipher(self.KEY)
        buf = bytearray(random.Random(6).randbytes(3 * 512))
        expected = cipher.crypt(8, bytes(buf))
        with memoryview(buf) as view:
            for i in range(3):
                sector = view[i * 512 : (i + 1) * 512]
                sector[:] = cipher.crypt(8 + i, sector)
        assert buf == expected

    @pytest.mark.parametrize("form", [bytes, bytearray, memoryview])
    def test_one_sector_call_keeps_its_errors(self, form):
        cipher = SectorCipher(self.KEY)
        for size in (511, 513):
            with pytest.raises(ValueError):
                cipher.crypt(0, form(bytes(size)))
        for index in (-1, 1 << 64):
            with pytest.raises(ValueError):
                cipher.crypt(index, form(bytes(512)))
        assert cipher.crypt((1 << 64) - 1, form(bytes(512))) == ecb_counter_oracle(self.KEY, (1 << 64) - 1, bytes(512))

    @pytest.mark.parametrize("size", [0, 1, 511, 513, 1000])
    def test_run_rejects_partial_sectors(self, size):
        with pytest.raises(ValueError):
            SectorCipher(bytes(16)).crypt(0, bytes(size))

    @pytest.mark.parametrize("first, count", [(-1, 1), ((1 << 64) - 1, 2), ((1 << 64) - 63, 64), (1 << 64, 1)])
    def test_run_rejects_a_last_index_past_64_bits(self, first, count):
        with pytest.raises(ValueError):
            SectorCipher(bytes(16)).crypt(first, bytes(512 * count))

    @pytest.mark.parametrize("size", [0, 15, 17, 24, 32])
    def test_rejects_key_that_is_not_16_bytes(self, size):
        with pytest.raises(ValueError):
            SectorCipher(bytes(size))

    def test_exposes_no_key(self):
        key = bytes(range(0xA0, 0xB0))
        cipher = SectorCipher(key)
        assert key.hex() not in repr(cipher)
        assert repr(key) not in repr(cipher)
        assert not hasattr(cipher, "__dict__")
        assert all(getattr(cipher, name) != key for name in SectorCipher.__slots__)


class TestSectorMac:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        key=st.binary(min_size=32, max_size=32),
        index=st.one_of(
            st.integers(min_value=0, max_value=(1 << 64) - 1),
            st.sampled_from([0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1]),
        ),
        data=st.one_of(st.binary(min_size=512, max_size=512), st.binary(max_size=1100)),
        form=st.sampled_from([bytes, bytearray, memoryview]),
    )
    def test_matches_hmac_oracle(self, key, index, data, form):
        mac = SectorMac(key)
        expected = sector_tag_oracle(key, index, data)
        assert mac.tag(index, form(data)) == expected
        # The keyed states are copied, never advanced: a second tag on the
        # same instance, after a different one, is the same.
        mac.tag(index ^ 1, data + b"x")
        assert mac.tag(index, form(data)) == expected
        if len(data) == 512:
            assert sector_tag(mac, index, form(data)) == expected

    @pytest.mark.parametrize("size", [0, 16, 31, 33, 64])
    def test_rejects_key_that_is_not_32_bytes(self, size):
        with pytest.raises(ValueError):
            SectorMac(bytes(size))

    @pytest.mark.parametrize("index", [-1, 1 << 64])
    def test_rejects_an_index_past_64_bits(self, index):
        with pytest.raises(ValueError):
            SectorMac(bytes(32)).tag(index, bytes(512))

    def test_exposes_no_key(self):
        key = bytes(range(0xC0, 0xE0))
        mac = SectorMac(key)
        assert key.hex() not in repr(mac)
        assert repr(key) not in repr(mac)
        assert not hasattr(mac, "__dict__")
        padded = key + bytes(32)
        pads = [bytes(b ^ pad for b in padded) for pad in (0x36, 0x5C)]
        secrets = [key, *pads]
        for name in SectorMac.__slots__:
            state = getattr(mac, name)
            assert not isinstance(state, (bytes, bytearray, memoryview, str))
            reachable = [state] + [
                value
                for value in (getattr(state, attr) for attr in dir(state))
                if not callable(value)
            ]
            for value in reachable:
                assert all(secret.hex() not in repr(value) for secret in secrets)
                if isinstance(value, (bytes, bytearray)):
                    assert all(secret not in value for secret in secrets)


class TestKdf:
    def test_zero_input_vector(self):
        # sha256(be32(1) || 0^8 || 0^16) truncated to 16 bytes.
        params = KdfInput(counter=1, secret=bytes(8), other_info=bytes(16), repetitions=1)
        assert derive_key(params).hex() == "16297934b5984ef021a2927727fe3e1d"

    def test_mac_key_zero_input_vector(self):
        params = KdfInput(counter=1, secret=bytes(8), other_info=bytes(16), repetitions=1)
        assert derive_mac_key(params).hex() == (
            "4f51a67ef21a06edb63980fc7a3905bc461e46dbe17471f840dd426f4a2ffdd4"
        )

    def test_matches_straight_line_oracle(self):
        rng = random.Random(5)
        for _ in range(25):
            counter = rng.randrange(0, 1 << 32)
            secret = (rng.randrange(0, 1 << 57)).to_bytes(8, "big")
            info = rng.randbytes(16)
            reps = rng.randrange(1, 40)
            params = KdfInput(counter=counter, secret=secret, other_info=info, repetitions=reps)
            assert derive_key(params) == kdf_key_oracle(counter, secret, info, reps)
            assert derive_mac_key(params) == kdf_mac_oracle(counter, secret, info, reps)

    def test_output_is_16_bytes_and_deterministic(self):
        params = KdfInput(counter=9, secret=b"\x00" * 7 + b"\x41", other_info=b"i" * 16)
        assert len(derive_key(params)) == 16
        assert derive_key(params) == derive_key(params)

    def test_repetitions_change_key(self):
        base = dict(counter=1, secret=bytes(8), other_info=bytes(16))
        assert derive_key(KdfInput(repetitions=1, **base)) != derive_key(
            KdfInput(repetitions=1000, **base)
        )

    def test_mac_key_independent_of_cipher_key(self):
        params = KdfInput(counter=1, secret=bytes(8), other_info=bytes(16), repetitions=3)
        assert derive_mac_key(params)[:16] != derive_key(params)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            KdfInput(counter=1, secret=b"\x80" + bytes(7), other_info=bytes(16))  # 58th bit
        with pytest.raises(ValueError):
            KdfInput(counter=1, secret=bytes(7), other_info=bytes(16))
        with pytest.raises(ValueError):
            KdfInput(counter=1, secret=bytes(8), other_info=bytes(15))
        with pytest.raises(ValueError):
            KdfInput(counter=1, secret=bytes(8), other_info=bytes(16), repetitions=0)
        with pytest.raises(ValueError):
            KdfInput(counter=1 << 32, secret=bytes(8), other_info=bytes(16))
        with pytest.raises(ValueError, match="from 1 to 65535"):
            KdfInput(counter=1, secret=bytes(8), other_info=bytes(16), repetitions=65536)
        assert KdfInput(counter=1, secret=bytes(8), other_info=bytes(16), repetitions=65535)

    # Full-strength chains, and the longest allowed, from counters where a
    # chain's 32-bit counter wraps before, at, or partway through its steps.
    @pytest.mark.parametrize("repetitions", [1000, 65535])
    @pytest.mark.parametrize(
        "counter",
        [1, 0xFFFFFFFF, 2**32 - 500, 2**32 - 0x4D41 - 500],
        ids=["one", "last", "cipher_chain_wraps", "mac_chain_wraps"],
    )
    def test_long_chain_matches_oracle_across_the_counter_wrap(self, counter, repetitions):
        secret, info = (0x0123456789ABCD).to_bytes(8, "big"), bytes(range(16))
        params = KdfInput(counter=counter, secret=secret, other_info=info, repetitions=repetitions)
        assert derive_key(params) == kdf_key_oracle(counter, secret, info, repetitions)
        assert derive_mac_key(params) == kdf_mac_oracle(counter, secret, info, repetitions)


class TestKdfPrefixTable:
    """Each chain reads its counter prefixes from a table built once per
    (counter, repetitions). The table must hold public values only."""

    DEVICE = DeviceIdentity(dna=0x0123456789ABCD)
    CID = CardIdentity.from_seed(b"prefix-table").cid

    def test_table_holds_only_the_public_counter_encodings(self):
        counter, repetitions = 0xFFFFFE00, 1000  # the cipher chain wraps
        keys = derive_keys(self.DEVICE, self.CID, counter, repetitions)
        for chain_counter in (counter, (counter + 0x4D41) % 2**32):
            misses = crypto._counter_prefixes.cache_info().misses
            table = crypto._counter_prefixes(chain_counter, repetitions)
            assert crypto._counter_prefixes.cache_info().misses == misses  # the table the chain used
            assert all(len(prefix) == 4 for prefix in table)
            assert table == tuple(
                struct.pack(">I", (chain_counter + i) % 2**32) for i in range(repetitions)
            )
            flat = b"".join(table)
            for value in (self.DEVICE.encoded(), self.CID, *keys):
                assert value not in flat

    def test_a_second_derivation_builds_no_table_and_only_hashes(self, monkeypatch):
        repetitions = 1000
        keys = derive_keys(self.DEVICE, self.CID, 7, repetitions)
        misses = crypto._counter_prefixes.cache_info().misses
        hashed = []
        step_sha256 = crypto._step_sha256

        def counting_sha256(data):
            hashed.append(len(data))
            return step_sha256(data)

        monkeypatch.setattr(crypto, "_step_sha256", counting_sha256)
        assert derive_keys(self.DEVICE, self.CID, 7, repetitions) == keys
        assert crypto._counter_prefixes.cache_info().misses == misses
        # Per chain: be32 || secret || CID, then be32 || digest || CID.
        assert hashed == ([4 + 8 + 16] + [4 + 32 + 16] * (repetitions - 1)) * 2


class TestKdfStepHash:
    """The chain step's SHA-256 constructor is chosen at import: CPython's
    built-in ``_sha256`` where it imports, else ``hashlib.sha256``. Either
    gives the same keys."""

    DEVICE = DeviceIdentity(dna=0x0123456789ABCD)
    CID = CardIdentity.from_seed(b"step-hash").cid
    # The cipher chain wraps its 32-bit counter from 0xFFFFFE00 on.
    CASES = [(1, 1), (7, 1000), (0xFFFFFE00, 1000), (0xFFFFFFFF, 3), (2**32 - 0x4D41 - 2, 5)]

    @pytest.mark.parametrize("counter, repetitions", CASES)
    def test_hashlib_steps_give_the_same_keys(self, monkeypatch, counter, repetitions):
        keys = derive_keys(self.DEVICE, self.CID, counter, repetitions)
        monkeypatch.setattr(crypto, "_step_sha256", hashlib.sha256)
        assert derive_keys(self.DEVICE, self.CID, counter, repetitions) == keys

    def test_the_chain_runs_on_the_builtin_hash_where_it_imports(self):
        try:
            from _sha256 import sha256 as expected
        except ImportError:  # CPython 3.12 on
            expected = hashlib.sha256
        assert crypto._step_sha256 is expected

    def test_a_fresh_interpreter_without_the_builtin_hash_derives_the_same_keys(self):
        # The path of a Python with no ``_sha256``, taken without reloading
        # any module in this process.
        counter, repetitions = 0xFFFFFE00, 1000
        script = "\n".join([
            "import hashlib, sys",
            "sys.modules['_sha256'] = None",
            "from tmiusim import crypto",
            "from tmiusim.identity import DeviceIdentity, derive_keys",
            "assert crypto._step_sha256 is hashlib.sha256",
            f"keys = derive_keys(DeviceIdentity(dna={self.DEVICE.dna}), "
            f"bytes.fromhex('{self.CID.hex()}'), {counter}, {repetitions})",
            "print(*(key.hex() for key in keys))",
        ])
        env = dict(os.environ, PYTHONPATH=str(Path(crypto.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.returncode == 0, done.stderr
        keys = derive_keys(self.DEVICE, self.CID, counter, repetitions)
        assert done.stdout.split() == [key.hex() for key in keys]


class TestSectorTag:
    # HMAC zero-fills a key shorter than the 64-byte block, so an RFC 4231
    # key of n < 32 bytes is the 32-byte key K || 0^(32-n). A message's first
    # 8 bytes are the big-endian sector index and the rest is the ciphertext.
    def test_rfc4231_case1_hmac(self):
        mac = SectorMac(b"\x0b" * 20 + bytes(12))
        assert mac.tag(int.from_bytes(b"Hi There", "big"), b"").hex() == (
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        )

    def test_rfc4231_case2_hmac(self):
        mac = SectorMac(b"Jefe" + bytes(28))
        assert mac.tag(int.from_bytes(b"what do ", "big"), b"ya want for nothing?").hex() == (
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        )

    def test_tag_binds_ciphertext(self):
        key = SectorMac(bytes(32))
        sector = bytes(512)
        altered = b"\x01" + sector[1:]
        assert sector_tag(key, 5, sector) != sector_tag(key, 5, altered)

    def test_tag_binds_sector_index(self):
        key = SectorMac(bytes(32))
        sector = bytes(512)
        assert sector_tag(key, 5, sector) != sector_tag(key, 6, sector)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            sector_tag(SectorMac(bytes(32)), 0, bytes(100))


def test_primitives_are_stateless():
    # Interleaving calls in any order, on one shared cipher, never changes a
    # result.
    cipher = SectorCipher(bytes(range(16)))
    mac = SectorMac(bytes(range(32)))
    inputs = [bytes([i]) * 512 for i in range(4)]
    first = [
        (crc16(b), sector_tag(mac, i, b), encrypt_sector(cipher, i, b))
        for i, b in enumerate(inputs)
    ]
    for i, b in reversed(list(enumerate(inputs))):
        assert crc16(b) == first[i][0]
        assert sector_tag(mac, i, b) == first[i][1]
        assert encrypt_sector(cipher, i, b) == first[i][2]
        assert decrypt_sector(cipher, 3 - i, first[3 - i][2]) == inputs[3 - i]
    assert crc7(b"xyz") == crc7(b"xyz")
