"""Fast crypto kernels versus the reference path.

The table-driven AES (:class:`~repro.crypto.aesfast.AesFast`) and the
whole-payload CBC/CTR kernels in :mod:`repro.crypto.modes` exist purely
for speed; their contract is byte-identical output to the per-block
reference path on every input.  This suite pins that contract three
ways: FIPS-197 vectors, hypothesis fuzzing across keys/IVs/lengths
(including every padding boundary), and an on-disk oracle check that
writes a chunk store with the platform's AES and decrypts every live
payload under each AES implementation the platform has.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.chunkstore import ChunkStore
from repro.config import ChunkStoreConfig, SecurityProfile
from repro.crypto import (
    HAVE_NATIVE_BACKEND,
    Aes,
    AesFast,
    CbcPayloadCipher,
    NativeAes,
    best_aes,
    create_hash_engine,
    create_payload_cipher,
    modes,
)
from repro.crypto import cipher as cipher_mod
from repro.errors import ConfigError, CryptoError
from repro.platform import (
    MemoryOneWayCounter,
    MemorySecretStore,
    MemoryUntrustedStore,
)

# Lengths that exercise every PKCS#7 / partial-block boundary.
BOUNDARY_LENGTHS = [0, 1, 15, 16, 17, 31, 32, 33, 255, 4096]

keys = st.one_of(st.binary(min_size=16, max_size=16),
                 st.binary(min_size=32, max_size=32))
ivs = st.binary(min_size=16, max_size=16)
payloads = st.one_of(
    st.sampled_from(BOUNDARY_LENGTHS).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)
    ),
    st.binary(min_size=0, max_size=512),
)


# ---------------------------------------------------------------------------
# Block-level equivalence
# ---------------------------------------------------------------------------


class TestAesFastVectors:
    def test_fips197_aes128(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        expect = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        fast = AesFast(key)
        assert fast.encrypt_block(plain) == expect
        assert fast.decrypt_block(expect) == plain

    def test_fips197_aes256(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f"
            "101112131415161718191a1b1c1d1e1f"
        )
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        expect = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        fast = AesFast(key)
        assert fast.encrypt_block(plain) == expect
        assert fast.decrypt_block(expect) == plain

    def test_rejects_bad_key_sizes(self):
        for size in (0, 15, 17, 33):
            with pytest.raises(CryptoError):
                AesFast(b"k" * size)

    @given(key=keys, block=st.binary(min_size=16, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_per_block(self, key, block):
        fast, ref = AesFast(key), Aes(key)
        ct = fast.encrypt_block(block)
        assert ct == ref.encrypt_block(block)
        assert fast.decrypt_block(ct) == block
        assert ref.decrypt_block(ct) == block


# ---------------------------------------------------------------------------
# Whole-payload mode kernels
# ---------------------------------------------------------------------------


class TestModeKernels:
    @given(key=keys, iv=ivs, data=payloads)
    @settings(max_examples=150, deadline=None)
    def test_cbc_fast_equals_reference(self, key, iv, data):
        fast, ref = AesFast(key), Aes(key)
        ct_fast = modes.cbc_encrypt(fast, data, iv)
        ct_ref = modes.cbc_encrypt(ref, data, iv)
        assert ct_fast == ct_ref
        # Cross-decrypt both directions: one path's output is the
        # other's input on disk.
        assert modes.cbc_decrypt(ref, ct_fast) == data
        assert modes.cbc_decrypt(fast, ct_ref) == data

    @given(key=keys, nonce=st.binary(min_size=0, max_size=12), data=payloads)
    @settings(max_examples=150, deadline=None)
    def test_ctr_fast_equals_reference(self, key, nonce, data):
        fast, ref = AesFast(key), Aes(key)
        out_fast = modes.ctr_transform(fast, data, nonce)
        assert out_fast == modes.ctr_transform(ref, data, nonce)
        # CTR is an involution on either kernel.
        assert modes.ctr_transform(ref, out_fast, nonce) == data

    def test_boundary_lengths_round_trip(self):
        key = b"0123456789abcdef"
        iv = b"\xaa" * 16
        fast = AesFast(key)
        for n in BOUNDARY_LENGTHS:
            data = bytes(i % 251 for i in range(n))
            assert modes.cbc_decrypt(fast, modes.cbc_encrypt(fast, data, iv)) == data

    def test_unpad_rejects_corrupt_padding(self):
        key = b"0123456789abcdef"
        fast = AesFast(key)
        ct = bytearray(modes.cbc_encrypt(fast, b"hello world", b"\x11" * 16))
        ct[-1] ^= 0x01  # garble the final (padding-carrying) block
        with pytest.raises(CryptoError):
            modes.cbc_decrypt(fast, bytes(ct))

    def test_unpad_rejects_every_bad_tail(self):
        # pkcs7_unpad must reject any tail that is not n copies of n,
        # for the whole range of claimed lengths.
        for claimed in range(1, 17):
            block = bytearray(b"\x00" * (16 - claimed) + bytes([claimed]) * claimed)
            block[-2 if claimed > 1 else -1] ^= 0x80
            if claimed == 1:
                block[-1] = 0  # zero is never valid padding
            with pytest.raises(CryptoError):
                modes.pkcs7_unpad(bytes(block), 16)


# ---------------------------------------------------------------------------
# Hash engines vs hashlib
# ---------------------------------------------------------------------------


class TestHashEngines:
    @given(data=payloads)
    @settings(max_examples=100, deadline=None)
    def test_pure_sha1_matches_hashlib(self, data):
        import hashlib

        pure = create_hash_engine("sha1-pure")
        fast = create_hash_engine("sha1")
        expect = hashlib.sha1(data).digest()
        assert pure.digest(data) == expect
        assert fast.digest(data) == expect

    @given(parts=st.lists(st.binary(max_size=64), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_digest_many_streams_like_concatenation(self, parts):
        # HashlibEngine.digest_many feeds parts incrementally; the
        # Merkle node digests must not depend on that optimization.
        for name in ("sha1", "sha256", "sha1-pure"):
            engine = create_hash_engine(name)
            assert engine.digest_many(*parts) == engine.digest(b"".join(parts))


# ---------------------------------------------------------------------------
# The platform's AES against the oracle, on a real store image
# ---------------------------------------------------------------------------


AES_BY_NAME = {"native": NativeAes, "fast": AesFast, "reference": Aes}
INTEROP_CONFIG = ChunkStoreConfig(segment_size=8192, initial_segments=2, map_fanout=8)


def _aes_classes():
    """Every AES implementation this platform can run."""
    return [Aes, AesFast] + ([NativeAes] if HAVE_NATIVE_BACKEND else [])


def _write_store():
    """Format a small store, commit twelve chunks, close it."""
    untrusted = MemoryUntrustedStore()
    secret = MemorySecretStore(b"interop-secret-0123456789abcdef0")
    counter = MemoryOneWayCounter()
    store = ChunkStore.format(untrusted, secret, counter, INTEROP_CONFIG)
    expected = {}
    for i in range(12):
        cid = store.allocate_chunk_id()
        expected[cid] = bytes((i * 13 + j) % 256 for j in range(50 + 37 * i))
    store.commit(expected, durable=True)
    store.close()
    return (untrusted, secret, counter), expected


class TestKernelInterop:
    def test_store_image_decrypts_under_every_aes(self):
        """The store writes with the platform's AES; every AES reads it."""
        assert isinstance(
            best_aes(b"k" * 16), NativeAes if HAVE_NATIVE_BACKEND else AesFast
        )
        platform, expected = _write_store()
        key = platform[1].derive_key("tdb-chunk-encryption", 32)[:16]
        ciphers = [cls(key) for cls in _aes_classes()]
        store = ChunkStore.open(*platform, INTEROP_CONFIG)
        live = list(store.location_map.iterate())
        assert sorted(cid for cid, _ in live) == sorted(expected)
        for cid, locator in live:
            raw = store.read_payload_raw(locator)
            plaintexts = {modes.cbc_decrypt(cipher, raw) for cipher in ciphers}
            assert plaintexts == {expected[cid]}
        assert store.scrub().clean
        store.close()

    @pytest.mark.parametrize(
        "write_aes,read_aes",
        [
            ("fast", "reference"),
            ("reference", "fast"),
            ("native", "reference"),
            ("reference", "native"),
            ("native", "fast"),
            ("fast", "native"),
        ],
    )
    def test_cross_kernel_store_images(self, write_aes, read_aes, monkeypatch):
        """A store written with one AES opens clean under another."""
        if "native" in (write_aes, read_aes) and not HAVE_NATIVE_BACKEND:
            pytest.skip("needs OpenSSL AES")
        monkeypatch.setattr(cipher_mod, "best_aes", AES_BY_NAME[write_aes])
        platform, expected = _write_store()
        monkeypatch.setattr(cipher_mod, "best_aes", AES_BY_NAME[read_aes])
        reopened = ChunkStore.open(*platform, INTEROP_CONFIG)
        for cid, payload in expected.items():
            assert reopened.read(cid) == payload
        assert reopened.scrub().clean
        reopened.close()

    def test_cipher_factory_kernel_selection(self):
        key = b"k" * 16
        platform = create_payload_cipher("aes-128", key)
        assert type(platform._cipher) is type(best_aes(key))
        data = b"payload" * 37
        # Every AES decrypts the platform's ciphertext and vice versa.
        for cls in _aes_classes():
            other = CbcPayloadCipher(cls(key), "aes-128")
            assert other.decrypt(platform.encrypt(data)) == data
            assert platform.decrypt(other.encrypt(data)) == data

    def test_resolved_kernel_names_the_platform_aes(self):
        expected = "native" if HAVE_NATIVE_BACKEND else "fast"
        assert SecurityProfile().resolved_kernel == expected

    def test_profile_rejects_unknown_names_with_config_error(self):
        """Bad knobs fail at profile construction, naming the valid set."""
        with pytest.raises(ConfigError, match="unknown cipher"):
            SecurityProfile(cipher_name="rot13")
        with pytest.raises(ConfigError, match="unknown hash"):
            SecurityProfile(hash_name="md5")
        with pytest.raises(ConfigError, match="valid: null, aes-128"):
            create_payload_cipher("rot13", b"k" * 16)
