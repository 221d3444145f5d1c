"""Payload ciphers: what the chunk store calls to (de)crypt chunk states.

A :class:`PayloadCipher` turns a variable-length plaintext into an opaque
ciphertext and back.  The CBC implementation prepends a random IV and pads
with PKCS#7 — exactly the "padding for block encryption" overhead the paper
charges to TDB-S.  The null cipher is the insecure profile: it passes data
through unchanged (and unpadded), matching plain TDB.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Protocol

from repro.crypto import modes
from repro.crypto.des import Des, TripleDes
from repro.crypto.native import best_aes
from repro.errors import ConfigError, CryptoError

__all__ = [
    "BlockCipher",
    "PayloadCipher",
    "NullPayloadCipher",
    "CbcPayloadCipher",
    "CIPHER_KEY_SIZES",
    "create_payload_cipher",
]

#: Cipher profile names and the key bytes each consumes.
CIPHER_KEY_SIZES = {
    "aes-128": 16,
    "aes-192": 24,
    "aes-256": 32,
    "des": 8,
    "3des": 24,
}


class BlockCipher(Protocol):
    """Structural interface of the raw block ciphers in this package."""

    block_size: int

    def encrypt_block(self, block: bytes) -> bytes: ...

    def decrypt_block(self, block: bytes) -> bytes: ...


class PayloadCipher(ABC):
    """Encrypt/decrypt a whole chunk payload."""

    name: str

    @abstractmethod
    def encrypt(self, plaintext: bytes) -> bytes:
        """Return the ciphertext of ``plaintext``."""

    @abstractmethod
    def decrypt(self, data: bytes) -> bytes:
        """Invert :meth:`encrypt`; raise :class:`CryptoError` if malformed."""

    @abstractmethod
    def ciphertext_overhead(self, plaintext_length: int) -> int:
        """Bytes of expansion for a plaintext of the given length."""


class NullPayloadCipher(PayloadCipher):
    """Identity transform for the insecure (plain TDB) profile."""

    name = "null"

    def encrypt(self, plaintext: bytes) -> bytes:
        return plaintext

    def decrypt(self, data: bytes) -> bytes:
        return data

    def ciphertext_overhead(self, plaintext_length: int) -> int:
        return 0


class CbcPayloadCipher(PayloadCipher):
    """CBC over a block cipher with random IV and PKCS#7 padding."""

    def __init__(self, block_cipher: BlockCipher, name: str) -> None:
        self._cipher = block_cipher
        self.name = name
        self._encrypt, self._decrypt = modes.cbc_kernels(block_cipher)

    def encrypt(self, plaintext: bytes) -> bytes:
        return self._encrypt(plaintext)

    def decrypt(self, data: bytes) -> bytes:
        return self._decrypt(data)

    def ciphertext_overhead(self, plaintext_length: int) -> int:
        block = self._cipher.block_size
        padding = block - (plaintext_length % block)
        return block + padding  # IV + PKCS#7


def create_payload_cipher(name: str, key: bytes) -> PayloadCipher:
    """Build a payload cipher from a profile name and raw key material.

    ``key`` may be longer than needed; the required prefix is used.  Names:
    ``"null"``, ``"aes-128"``, ``"aes-192"``, ``"aes-256"``, ``"des"``,
    ``"3des"``.  The AES profiles run on the platform's AES
    (:func:`~repro.crypto.native.best_aes`); every AES implementation
    here produces identical ciphertext for the same key and IV, so the
    choice never shows on disk.
    """
    if name == "null":
        return NullPayloadCipher()
    if name not in CIPHER_KEY_SIZES:
        raise ConfigError(
            f"unknown cipher: {name!r} "
            f"(valid: null, {', '.join(CIPHER_KEY_SIZES)})"
        )
    needed = CIPHER_KEY_SIZES[name]
    if len(key) < needed:
        raise CryptoError(
            f"cipher {name!r} needs {needed} key bytes, got {len(key)}"
        )
    key = key[:needed]
    if name.startswith("aes"):
        return CbcPayloadCipher(best_aes(key), name)
    if name == "des":
        return CbcPayloadCipher(Des(key), name)
    return CbcPayloadCipher(TripleDes(key), name)
