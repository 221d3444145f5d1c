"""Differential oracle suite: platform AES == fast == reference, always.

The payload cipher runs on whatever AES the platform has
(:func:`~repro.crypto.native.best_aes`: OpenSSL's when ``cryptography``
is importable, the table kernels otherwise), and the promise that a
store image does not depend on the platform rests entirely on every AES
here being a *byte-identical function* of (key, IV, plaintext).  This
suite fuzzes that equivalence directly at the primitive layer, where a
divergence is cheapest to localize:

* CBC and CTR, all AES key sizes, across empty / odd-length / padding-
  boundary payloads, with every AES decrypting every other AES's output;
* a deterministic multi-megabyte payload (a whole segment) for OpenSSL
  against the table kernels;
* the hash/MAC side: the from-scratch SHA-1 vs hashlib, the from-scratch
  HMAC vs :mod:`hmac`, streamed ``digest_many`` vs one-shot digests;
* the platform without ``cryptography``: the table kernels, and no
  native AES.

The store-level oracle check lives in ``test_crypto_kernels.py``; this
file is the microscope, that one is the end-to-end alarm.
"""

from __future__ import annotations

import hashlib
import hmac as stdlib_hmac

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import (
    CIPHER_KEY_SIZES,
    HAVE_NATIVE_BACKEND,
    Aes,
    AesFast,
    CbcPayloadCipher,
    NativeAes,
    best_aes,
    create_hash_engine,
    create_mac,
    create_payload_cipher,
    modes,
)
from repro.crypto import native as native_mod
from repro.errors import CryptoError

ALL_KEY_SIZES = (16, 24, 32)

any_key = st.sampled_from(ALL_KEY_SIZES).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)
)
ivs = st.binary(min_size=16, max_size=16)
nonces = st.binary(min_size=0, max_size=12)
# Empty, odd, and every padding-boundary length, plus arbitrary fills.
payloads = st.one_of(
    st.sampled_from([0, 1, 15, 16, 17, 31, 33, 255, 257, 4096]).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)
    ),
    st.binary(min_size=0, max_size=1024),
)


def _engines(key: bytes):
    return best_aes(key), AesFast(key), Aes(key)


class TestCipherDifferential:
    @given(key=any_key, iv=ivs, data=payloads)
    @settings(max_examples=120, deadline=None)
    def test_cbc_all_engines_agree(self, key, iv, data):
        native, fast, ref = _engines(key)
        ct = modes.cbc_encrypt(native, data, iv)
        assert ct == modes.cbc_encrypt(fast, data, iv)
        assert ct == modes.cbc_encrypt(ref, data, iv)
        # Every engine decrypts the shared ciphertext.
        for engine in (native, fast, ref):
            assert modes.cbc_decrypt(engine, ct) == data

    @given(key=any_key, nonce=nonces, data=payloads)
    @settings(max_examples=120, deadline=None)
    def test_ctr_all_engines_agree(self, key, nonce, data):
        native, fast, ref = _engines(key)
        out = modes.ctr_transform(native, data, nonce)
        assert out == modes.ctr_transform(fast, data, nonce)
        assert out == modes.ctr_transform(ref, data, nonce)
        # Involution under a different engine than the one that encrypted.
        assert modes.ctr_transform(ref, out, nonce) == data

    @given(key=any_key, block=st.binary(min_size=16, max_size=16))
    @settings(max_examples=120, deadline=None)
    def test_single_block_all_engines_agree(self, key, block):
        native, fast, ref = _engines(key)
        ct = native.encrypt_block(block)
        assert ct == fast.encrypt_block(block) == ref.encrypt_block(block)
        assert (
            native.decrypt_block(ct)
            == fast.decrypt_block(ct)
            == ref.decrypt_block(ct)
            == block
        )

    @pytest.mark.parametrize("cipher_name", ["aes-128", "aes-192", "aes-256"])
    def test_payload_cipher_cross_engine(self, cipher_name):
        key = bytes(range(32))
        native = create_payload_cipher(cipher_name, key)
        key = key[:CIPHER_KEY_SIZES[cipher_name]]
        fast = CbcPayloadCipher(AesFast(key), cipher_name)
        ref = CbcPayloadCipher(Aes(key), cipher_name)
        for n in (0, 1, 17, 333):
            data = bytes((7 * i + n) % 256 for i in range(n))
            # encrypt() draws a random IV, so equality is asserted via
            # cross-decryption rather than ciphertext comparison.
            ct = native.encrypt(data)
            assert fast.decrypt(ct) == data
            assert ref.decrypt(ct) == data
            assert native.decrypt(fast.encrypt(data)) == data
            assert native.decrypt(ref.encrypt(data)) == data

    @pytest.mark.skipif(not HAVE_NATIVE_BACKEND, reason="needs OpenSSL AES")
    def test_multi_megabyte_payload(self):
        # A whole segment.  The reference AES is orders of magnitude too
        # slow for this size; OpenSSL vs the table kernels still pins the
        # batched kernels against an independent implementation.
        key = b"\x5a" * 16
        iv = b"\xa5" * 16
        data = (b"\x00\x01\x02\x03" * 1024 + b"odd") * 512  # ~2 MiB, odd
        native, fast = NativeAes(key), AesFast(key)
        ct = modes.cbc_encrypt(native, data, iv)
        assert ct == modes.cbc_encrypt(fast, data, iv)
        assert modes.cbc_decrypt(fast, ct) == data
        stream = modes.ctr_transform(native, data, b"nonce-equal!")
        assert stream == modes.ctr_transform(fast, data, b"nonce-equal!")

    def test_platform_aes_without_openssl_is_aesfast(self, monkeypatch):
        # Without the cryptography package, best_aes hands out AesFast
        # (word kernels engaged) and there is no native AES to build.
        monkeypatch.setattr(native_mod, "HAVE_NATIVE_BACKEND", False)
        key = b"fallback-key-16b"
        platform = native_mod.best_aes(key)
        assert type(platform) is AesFast
        assert modes._has_word_kernel(platform)
        assert not modes._has_native_kernel(platform)
        with pytest.raises(CryptoError, match="cryptography"):
            NativeAes(key)


class TestHashAndMacDifferential:
    @given(data=payloads)
    @settings(max_examples=100, deadline=None)
    def test_hash_engines_match_hashlib(self, data):
        assert (
            create_hash_engine("sha1-pure").digest(data)
            == create_hash_engine("sha1").digest(data)
            == hashlib.sha1(data).digest()
        )
        assert (
            create_hash_engine("sha256").digest(data)
            == hashlib.sha256(data).digest()
        )

    @given(parts=st.lists(st.binary(max_size=128), max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_streamed_digest_many_matches_one_shot(self, parts):
        for name in ("sha1", "sha256", "sha1-pure"):
            engine = create_hash_engine(name)
            assert engine.digest_many(*parts) == engine.digest(b"".join(parts))

    @given(
        key=st.binary(min_size=1, max_size=80),
        data=st.binary(max_size=512),
    )
    @settings(max_examples=100, deadline=None)
    def test_mac_matches_stdlib_hmac(self, key, data):
        for hash_name, mod in (("sha1", hashlib.sha1), ("sha256", hashlib.sha256)):
            ours = create_mac(key, hash_name).tag(data)
            theirs = stdlib_hmac.new(key, data, mod).digest()
            assert ours == theirs
