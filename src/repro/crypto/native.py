"""Native AES: the platform's AES, when the platform has one.

Pure-python crypto is the wall of every GB-scale scenario: the table
kernels (:class:`~repro.crypto.aesfast.AesFast`) top out around 1 MB/s
while the disk underneath moves hundreds.  This module puts the
`cryptography <https://cryptography.io>`_ package's OpenSSL-backed AES
behind the same :class:`BlockCipher` shape, and :func:`best_aes` is the
one place that decides which AES encrypts a chunk: :class:`NativeAes`
when the package is importable, :class:`AesFast` otherwise.  There is
no setting; the package is an optional dependency, not a requirement.

The choice never shows on disk.  CBC and CTR are deterministic given
key and IV, so OpenSSL produces byte-for-byte the ciphertext of the
table and reference kernels, and a store written on one platform opens
on the other.  The reference :class:`~repro.crypto.aes.Aes` stays as the
oracle the test suite decrypts real store images with.

:class:`NativeAes` exposes ``encrypt_block`` / ``decrypt_block`` like
every other block cipher here, plus the *whole-payload* methods
(:meth:`cbc_encrypt_payload` and friends) that :mod:`repro.crypto.modes`
dispatches to — one C call per payload instead of one Python call per
16-byte block.  Each instance holds one CBC and one ECB context per
direction, each behind a lock.  CBC runs through a *sacrificial block*:
decrypt drops the first output block of ``iv ‖ body``; a random-IV
encrypt of ``R ‖ padded`` keeps it, ``E_k(R ⊕ state)``, as the IV.
DES/3DES have no native path (the paper's 3DES profile is for fidelity).
"""

from __future__ import annotations

import os
import threading

from repro.crypto.aesfast import AesFast
from repro.errors import CryptoError

__all__ = ["HAVE_NATIVE_BACKEND", "NativeAes", "best_aes"]

try:  # pragma: no cover - exercised indirectly by every native test
    from cryptography.hazmat.primitives.ciphers import (
        Cipher as _Cipher,
        algorithms as _algorithms,
        modes as _cmodes,
    )

    HAVE_NATIVE_BACKEND = True
except ImportError:  # pragma: no cover - container without cryptography
    _Cipher = _algorithms = _cmodes = None
    HAVE_NATIVE_BACKEND = False


class NativeAes:
    """AES-128/192/256 over OpenSSL; needs :data:`HAVE_NATIVE_BACKEND`."""

    block_size = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise CryptoError(
                f"AES key must be 16, 24, or 32 bytes, got {len(key)}"
            )
        if not HAVE_NATIVE_BACKEND:
            raise CryptoError("native AES needs the 'cryptography' package")
        self._algorithm = _algorithms.AES(key)
        cbc = _Cipher(self._algorithm, _cmodes.CBC(bytes(16)))
        ecb = _Cipher(self._algorithm, _cmodes.ECB())
        self._cbc_encryptor, self._cbc_decryptor = cbc.encryptor(), cbc.decryptor()
        self._ecb_encryptor, self._ecb_decryptor = ecb.encryptor(), ecb.decryptor()
        self._encrypt_lock, self._decrypt_lock = threading.Lock(), threading.Lock()

    # -- per-block interface (shared by every AES here) ------------------

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        with self._encrypt_lock:
            return self._ecb_encryptor.update(block)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        with self._decrypt_lock:
            return self._ecb_decryptor.update(block)

    # -- whole-payload interface (modes._has_native_kernel) ---------------

    def cbc_encrypt_payload(self, padded: bytes, iv: bytes | None = None) -> bytes:
        """CBC-encrypt an already-padded payload; returns ``iv ‖ body``."""
        if len(padded) % 16:  # a partial block would stay in the held context
            raise CryptoError(f"CBC input must be block-aligned, got {len(padded)}")
        if iv is not None:  # known answers and benches: a one-off context
            ctx = _Cipher(self._algorithm, _cmodes.CBC(iv)).encryptor()
            return iv + ctx.update(padded)
        nonce = os.urandom(16)
        with self._encrypt_lock:
            return self._cbc_encryptor.update(nonce + padded)

    def cbc_decrypt_payload(self, data: bytes) -> bytes:
        """CBC-decrypt an ``iv ‖ body`` record; returns padded plaintext."""
        if len(data) % 16:
            raise CryptoError(f"CBC input must be block-aligned, got {len(data)}")
        with self._decrypt_lock:
            return self._cbc_decryptor.update(data)[16:]

    def ctr_payload(self, data: bytes, prefix: bytes) -> bytes:
        """CTR-transform ``data``; ``prefix`` is the 12-byte nonce block.

        The initial counter block is ``prefix || 0x00000000`` — OpenSSL
        increments the whole 128-bit block, which matches the reference
        path's 32-bit big-endian counter for every payload smaller than
        2**32 blocks (64 GiB), far beyond any segment or backup stream.
        """
        ctx = _Cipher(
            self._algorithm, _cmodes.CTR(prefix + b"\x00\x00\x00\x00")
        ).encryptor()
        return ctx.update(data) + ctx.finalize()


def best_aes(key: bytes):
    """The platform's AES: OpenSSL when importable, the table kernels if not.

    Every AES in this package produces identical bytes, so the choice
    is free: chunk payloads (:func:`~repro.crypto.cipher.create_payload_cipher`)
    and the backup store's CTR keystream both take whatever this returns.
    """
    return NativeAes(key) if HAVE_NATIVE_BACKEND else AesFast(key)
