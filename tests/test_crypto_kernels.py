"""Fast crypto kernels versus the reference path.

The table-driven AES (:class:`~repro.crypto.aesfast.AesFast`) and the
whole-payload CBC/CTR kernels in :mod:`repro.crypto.modes` exist purely
for speed; their contract is byte-identical output to the per-block
reference path on every input.  This suite pins that contract three
ways: FIPS-197 vectors, hypothesis fuzzing across keys/IVs/lengths
(including every padding boundary), and an on-disk oracle check that
writes a chunk store with the platform's AES and decrypts every live
payload under each AES implementation the platform has.  The held
OpenSSL contexts of :class:`~repro.crypto.native.NativeAes` are pinned
against a fresh ``Cipher`` per payload, against misaligned and badly
padded inputs, against threads sharing one store's cipher, and against
a store image written by the per-payload-``Cipher`` construction.
"""

from __future__ import annotations

import base64
import contextlib
import json
import os
import random
import sys
import threading

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
#: A store image written before NativeAes held its contexts, with one
#: ``Cipher(AES, CBC(iv))`` per payload: the twelve payloads of
#: ``_write_store``, each in its own durable commit, in INTEROP_CONFIG.
FRESH_CIPHER_IMAGE = os.path.join(
    os.path.dirname(__file__), "data", "store_image_fresh_cipher.json"
)


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

    def test_fresh_cipher_store_image_opens_and_reads(self):
        """An image written with one ``Cipher`` per payload opens here,
        and every payload in it decrypts under every AES."""
        with open(FRESH_CIPHER_IMAGE) as handle:
            image = json.load(handle)
        untrusted = MemoryUntrustedStore()
        for name, data in image["files"].items():
            untrusted.write(name, 0, base64.b64decode(data))
        secret = MemorySecretStore(image["secret"].encode())
        counter = MemoryOneWayCounter(image["counter"])
        store = ChunkStore.open(untrusted, secret, counter, INTEROP_CONFIG)
        key = secret.derive_key("tdb-chunk-encryption", 32)[:16]
        for i, cid in enumerate(image["chunk_ids"]):
            expected = bytes((i * 13 + j) % 256 for j in range(50 + 37 * i))
            assert store.read(cid) == expected
            raw = store.read_payload_raw(store.location_map.lookup(cid))
            for cls in _aes_classes():
                assert modes.cbc_decrypt(cls(key), raw) == expected
        assert store.scrub().clean
        store.close()

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


# ---------------------------------------------------------------------------
# NativeAes's held contexts against a fresh Cipher per payload
# ---------------------------------------------------------------------------

needs_native = pytest.mark.skipif(not HAVE_NATIVE_BACKEND, reason="needs OpenSSL AES")
HELD_KEY = bytes(range(16))


def _fresh_cbc(key: bytes, iv: bytes):
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes as cmodes

    return Cipher(algorithms.AES(key), cmodes.CBC(iv))


def _round_trips(cipher, rng: random.Random, count: int) -> list:
    """Encrypt, decrypt and compare ``count`` payloads; return the faults."""
    faults = []
    for _ in range(count):
        data = rng.randbytes(rng.randrange(0, 64 * 1024))
        try:
            if cipher.decrypt(cipher.encrypt(data)) != data:
                faults.append("round trip changed the payload")
        except Exception as exc:  # a fault, whatever its type
            faults.append(repr(exc))
    return faults


def _hammer(cipher, threads: int = 4, count: int = 300) -> list:
    """Several threads share ``cipher``, interleaving encrypts and decrypts.

    Payloads of up to 64 KiB keep a thread inside an OpenSSL context for
    tens of microseconds, and a tiny switch interval hands the GIL to
    another thread within one, so unguarded entries into one context
    overlap in nearly every run instead of once in a long while.
    """
    faults = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(
                target=lambda seed=seed: faults.extend(
                    _round_trips(cipher, random.Random(seed), count)
                )
            )
            for seed in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive(), "a round-trip thread hung"
    finally:
        sys.setswitchinterval(interval)
    return faults


@needs_native
class TestHeldContexts:
    def test_decrypt_equals_fresh_cipher_for_every_length(self):
        """Every payload length 0-4 KB: held decrypt == fresh ``Cipher``,
        for valid records and for arbitrary block-aligned bodies, while
        encrypts move the held chain state in between."""
        aes = NativeAes(HELD_KEY)
        rng = random.Random(41)
        for length in range(0, 4097):
            iv = rng.randbytes(16)
            padded = modes.pkcs7_pad(rng.randbytes(length), 16)
            body = _fresh_cbc(HELD_KEY, iv).encryptor().update(padded)
            assert aes.cbc_decrypt_payload(iv + body) == padded
            noise = rng.randbytes(len(body))
            fresh = _fresh_cbc(HELD_KEY, iv).decryptor().update(noise)
            assert aes.cbc_decrypt_payload(iv + noise) == fresh
            aes.cbc_encrypt_payload(padded)

    def test_held_encrypt_decrypts_under_reference_and_fast(self):
        for key in (HELD_KEY, bytes(range(32))):
            native = create_payload_cipher(f"aes-{len(key) * 8}", key)
            assert isinstance(native._cipher, NativeAes)
            for length in BOUNDARY_LENGTHS + [160, 864]:
                data = bytes(i % 251 for i in range(length))
                record = native.encrypt(data)
                assert len(record) == length + native.ciphertext_overhead(length)
                for oracle in (Aes(key), AesFast(key)):
                    assert modes.cbc_decrypt(oracle, record) == data

    def test_explicit_iv_keeps_the_classic_bytes(self):
        data = b"known answer" * 9
        iv = bytes(range(100, 116))
        expect = iv + _fresh_cbc(HELD_KEY, iv).encryptor().update(modes.pkcs7_pad(data, 16))
        aes = NativeAes(HELD_KEY)
        for _ in range(3):  # the held chain state must not leak in
            assert modes.cbc_encrypt(aes, data, iv) == expect
            modes.cbc_encrypt(aes, data)

    def test_random_ivs_are_distinct(self):
        cipher = create_payload_cipher("aes-128", HELD_KEY)
        plaintext = b"the same plaintext every time"
        ivs = {cipher.encrypt(plaintext)[:16] for _ in range(100_000)}
        assert len(ivs) == 100_000


class TestHeldContextPoisoning:
    """A refused input must not leave a held context out of step."""

    def _assert_healthy(self, cipher):
        for data in (b"", b"after the refusal", bytes(range(256)) * 4):
            assert cipher.decrypt(cipher.encrypt(data)) == data

    def test_refused_inputs_leave_the_cipher_healthy(self):
        cipher = create_payload_cipher("aes-128", HELD_KEY)
        good = cipher.encrypt(b"good payload")
        bad_padding = bytearray(cipher.encrypt(b"x" * 31))
        bad_padding[-17] ^= 0x01  # flips the last plaintext byte: the pad length
        for refused in (good[:-1], good + b"\x00", bytes(bad_padding), good[:16]):
            with pytest.raises(CryptoError):
                cipher.decrypt(refused)
            assert cipher.decrypt(good) == b"good payload"
        self._assert_healthy(cipher)

    @needs_native
    def test_native_kernels_refuse_misaligned_input(self):
        aes = NativeAes(HELD_KEY)
        cipher = CbcPayloadCipher(aes, "aes-128")
        good = cipher.encrypt(b"good payload")
        for length in (1, 15, 17, 33, 100):
            with pytest.raises(CryptoError, match="block-aligned"):
                aes.cbc_decrypt_payload(bytes(length))
            with pytest.raises(CryptoError, match="block-aligned"):
                aes.cbc_encrypt_payload(bytes(length))
            with pytest.raises(CryptoError, match="block-aligned"):
                aes.cbc_encrypt_payload(bytes(length), bytes(16))
            assert cipher.decrypt(good) == b"good payload"
        self._assert_healthy(cipher)


@needs_native
class TestHeldContextThreads:
    def test_threads_share_one_payload_cipher(self):
        cipher = create_payload_cipher("aes-128", HELD_KEY)
        assert _hammer(cipher) == []

    def test_mutation_guard_threads_catch_unlocked_contexts(self, monkeypatch):
        """Meta-test: with the per-direction locks removed, threads sharing
        one cipher must fault — proving the hammer has teeth."""
        cipher = create_payload_cipher("aes-128", HELD_KEY)
        monkeypatch.setattr(cipher._cipher, "_encrypt_lock", contextlib.nullcontext())
        monkeypatch.setattr(cipher._cipher, "_decrypt_lock", contextlib.nullcontext())
        faults = []
        for _ in range(10):  # a single run faults nearly always
            faults = _hammer(cipher)
            if faults:
                break
        assert faults, (
            "threads shared unlocked OpenSSL contexts without a fault — "
            "the concurrency test failed its mutation test"
        )
