"""Block-cipher modes of operation and PKCS#7 padding.

The chunk store encrypts each chunk independently in CBC mode with a fresh
random IV (the paper pads to the block size; that padding is part of
TDB-S's measured write overhead).  CTR mode is provided for length-
preserving streams (used by the backup store).

Three code paths coexist:

* the **per-block reference path** drives any
  :class:`~repro.crypto.cipher.BlockCipher` through ``encrypt_block`` /
  ``decrypt_block`` one 16-byte ``bytes`` object at a time — slow, but
  obviously correct, and the oracle the property tests compare against;
* the **batched kernels** engage automatically for ciphers exposing the
  word interface (:class:`~repro.crypto.aesfast.AesFast`): the whole
  payload is unpacked into 32-bit words once, chained with int-XOR in
  one flat loop, and packed back once — no per-block allocations.  CTR
  generates its keystream in one batch and applies it with a single
  big-int XOR;
* the **native payload path** engages for ciphers exposing the
  whole-payload interface (:class:`~repro.crypto.native.NativeAes`):
  one C call on a context the cipher holds transforms the whole ``iv ‖
  body`` record, the random IV included.  PKCS#7 framing and validation
  stay here in one place, so every AES shares the exact record layout.

All paths produce byte-identical output for the same key and IV, so a
store image does not depend on which AES wrote it.
"""

from __future__ import annotations

import functools
import hmac as _stdlib_hmac
import os
import struct
from typing import Optional

from repro.errors import CryptoError

__all__ = [
    "pkcs7_pad",
    "pkcs7_unpad",
    "cbc_encrypt",
    "cbc_decrypt",
    "ctr_transform",
]

_WORD4 = struct.Struct(">4I")


def pkcs7_pad(data: bytes, block_size: int) -> bytes:
    """Pad ``data`` to a multiple of ``block_size`` (always adds >= 1 byte)."""
    if not 1 <= block_size <= 255:
        raise CryptoError("PKCS#7 block size must be in [1, 255]")
    pad_length = block_size - (len(data) % block_size)
    return data + bytes([pad_length]) * pad_length


def pkcs7_unpad(data: bytes, block_size: int) -> bytes:
    """Strip and validate PKCS#7 padding.

    The padding-bytes comparison runs in constant time
    (:func:`hmac.compare_digest`), so a tamper probe cannot use the
    validation latency to learn *where* in the final block the padding
    check failed (the classic padding-oracle side channel).
    """
    if not data or len(data) % block_size:
        raise CryptoError("PKCS#7: ciphertext length is not a block multiple")
    pad_length = data[-1]
    if not 1 <= pad_length <= block_size:
        raise CryptoError("PKCS#7: invalid padding length byte")
    if not _stdlib_hmac.compare_digest(
        data[-pad_length:], bytes([pad_length]) * pad_length
    ):
        raise CryptoError("PKCS#7: padding bytes are inconsistent")
    return data[:-pad_length]


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Batched word kernels (ciphers exposing encrypt_words/decrypt_words)
# ---------------------------------------------------------------------------


def _cbc_encrypt_words(cipher, padded: bytes, iv: Optional[bytes]) -> bytes:
    """Whole-payload CBC encryption over the word interface.

    One unpack, one flat loop of int-XOR + word encryption, one pack:
    no per-block ``bytes`` objects are created.  A random IV if None.
    """
    word_count = len(padded) // 4
    words = struct.unpack(f">{word_count}I", padded)
    out = [0] * (word_count + 4)
    out[0:4] = _WORD4.unpack(iv or os.urandom(16))
    c0, c1, c2, c3 = out[0], out[1], out[2], out[3]
    encrypt_words = cipher.encrypt_words
    position = 0
    while position < word_count:
        c0, c1, c2, c3 = encrypt_words(
            words[position] ^ c0,
            words[position + 1] ^ c1,
            words[position + 2] ^ c2,
            words[position + 3] ^ c3,
        )
        base = position + 4
        out[base] = c0
        out[base + 1] = c1
        out[base + 2] = c2
        out[base + 3] = c3
        position += 4
    return struct.pack(f">{word_count + 4}I", *out)


def _cbc_decrypt_words(cipher, data: bytes) -> bytes:
    """Whole-payload CBC decryption of an ``iv ‖ body`` record over the
    word interface; each block XORs against the words just before it."""
    word_count = len(data) // 4
    words = struct.unpack(f">{word_count}I", data)
    out = [0] * (word_count - 4)
    decrypt_words = cipher.decrypt_words
    position = 4
    while position < word_count:
        d0, d1, d2, d3 = decrypt_words(
            words[position],
            words[position + 1],
            words[position + 2],
            words[position + 3],
        )
        out[position - 4] = d0 ^ words[position - 4]
        out[position - 3] = d1 ^ words[position - 3]
        out[position - 2] = d2 ^ words[position - 2]
        out[position - 1] = d3 ^ words[position - 1]
        position += 4
    return struct.pack(f">{word_count - 4}I", *out)


def _ctr_transform_words(cipher, data: bytes, prefix: bytes) -> bytes:
    """Batched CTR: build the whole keystream, apply one big-int XOR."""
    block_count = (len(data) + 15) // 16
    w0, w1, w2 = struct.unpack(">3I", prefix)
    encrypt_words = cipher.encrypt_words
    keystream_words = [0] * (4 * block_count)
    position = 0
    for counter in range(block_count):
        k0, k1, k2, k3 = encrypt_words(w0, w1, w2, counter)
        keystream_words[position] = k0
        keystream_words[position + 1] = k1
        keystream_words[position + 2] = k2
        keystream_words[position + 3] = k3
        position += 4
    keystream = struct.pack(f">{4 * block_count}I", *keystream_words)
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(keystream[:len(data)], "big")
    ).to_bytes(len(data), "big")


def _has_word_kernel(cipher) -> bool:
    return (
        cipher.block_size == 16
        and hasattr(cipher, "encrypt_words")
        and hasattr(cipher, "decrypt_words")
    )


def _has_native_kernel(cipher) -> bool:
    return hasattr(cipher, "cbc_encrypt_payload")


def _cbc_encrypt_blocks(cipher, padded: bytes, iv: Optional[bytes]) -> bytes:
    """Reference CBC, one ``encrypt_block`` per block; random IV if None."""
    block = cipher.block_size
    out = bytearray(iv or os.urandom(block))
    for offset in range(0, len(padded), block):
        out.extend(cipher.encrypt_block(
            _xor_bytes(padded[offset:offset + block], out[-block:])
        ))
    return bytes(out)


def _cbc_decrypt_blocks(cipher, data: bytes) -> bytes:
    """Reference CBC over an ``iv ‖ body`` record, block by block."""
    block = cipher.block_size
    return b"".join(
        _xor_bytes(cipher.decrypt_block(data[at:at + block]), data[at - block:at])
        for at in range(block, len(data), block)
    )


def cbc_kernels(cipher):
    """:func:`cbc_encrypt` and :func:`cbc_decrypt` bound to ``cipher``,
    its path resolved once: ``(encrypt(plaintext, iv=None), decrypt(data))``."""
    block = cipher.block_size
    if _has_native_kernel(cipher):
        seal, unseal = cipher.cbc_encrypt_payload, cipher.cbc_decrypt_payload
    else:
        word = _has_word_kernel(cipher)
        seal = functools.partial(_cbc_encrypt_words if word else _cbc_encrypt_blocks, cipher)
        unseal = functools.partial(_cbc_decrypt_words if word else _cbc_decrypt_blocks, cipher)

    def encrypt(plaintext: bytes, iv: Optional[bytes] = None) -> bytes:
        if iv is not None and len(iv) != block:
            raise CryptoError(f"IV must be {block} bytes, got {len(iv)}")
        return seal(pkcs7_pad(plaintext, block), iv)

    def decrypt(data: bytes) -> bytes:
        if len(data) < 2 * block or len(data) % block:
            raise CryptoError("CBC ciphertext too short or not block-aligned")
        return pkcs7_unpad(unseal(data), block)

    return encrypt, decrypt


# ---------------------------------------------------------------------------
# Public modes
# ---------------------------------------------------------------------------


def cbc_encrypt(cipher, plaintext: bytes, iv: Optional[bytes] = None) -> bytes:
    """CBC-encrypt ``plaintext`` (PKCS#7 padded) and prepend the IV."""
    return cbc_kernels(cipher)[0](plaintext, iv)


def cbc_decrypt(cipher, data: bytes) -> bytes:
    """Invert :func:`cbc_encrypt`: strip IV, decrypt, unpad."""
    return cbc_kernels(cipher)[1](data)


def ctr_transform(cipher, data: bytes, nonce: bytes) -> bytes:
    """Encrypt or decrypt ``data`` in CTR mode (the operation is its own
    inverse).  ``nonce`` must be at most ``block_size - 4`` bytes; the
    remaining bytes carry a big-endian block counter."""
    block = cipher.block_size
    if len(nonce) > block - 4:
        raise CryptoError(
            f"CTR nonce must leave 4 counter bytes (max {block - 4})"
        )
    prefix = nonce.ljust(block - 4, b"\x00")
    if not data:
        return b""
    if _has_native_kernel(cipher):
        return cipher.ctr_payload(data, prefix)
    if _has_word_kernel(cipher):
        return _ctr_transform_words(cipher, data, prefix)
    out = bytearray()
    for counter in range((len(data) + block - 1) // block):
        keystream = cipher.encrypt_block(prefix + counter.to_bytes(4, "big"))
        start = counter * block
        segment = data[start:start + block]
        out.extend(_xor_bytes(segment, keystream[:len(segment)]))
    return bytes(out)
