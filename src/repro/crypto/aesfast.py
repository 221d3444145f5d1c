"""Precomputed-table AES: the fast kernel behind the ``"fast"`` profile.

The reference :class:`~repro.crypto.aes.Aes` applies SubBytes, ShiftRows
and MixColumns byte by byte; clear, but it makes crypto the dominant CPU
cost of every chunk read and write.  This module implements the classic
T-table formulation instead: SubBytes + ShiftRows + MixColumns collapse
into four 256-entry tables of 32-bit words, so one round of one column
is four table lookups and four XORs on Python ints.  Decryption uses the
*equivalent inverse cipher* with InvMixColumns fused into the round keys
(FIPS 197 section 5.3.5), so both directions run the same shape of loop.

The state is held as four 32-bit big-endian column words, which is also
the interface (:meth:`AesFast.encrypt_words`) the batched CBC/CTR
kernels in :mod:`repro.crypto.modes` consume — whole payloads are
transformed without building per-block ``bytes`` objects.

Key schedule and test vectors are shared with the reference cipher: the
round keys are expanded by :class:`~repro.crypto.aes.Aes` itself, so the
two kernels cannot drift apart, and the property tests in the suite pit
them against each other on random inputs.
"""

from __future__ import annotations

import struct

from repro.crypto.aes import _MUL, _SBOX, _INV_SBOX, Aes
from repro.errors import CryptoError

__all__ = ["AesFast"]

_WORD4 = struct.Struct(">4I")

# Encryption tables: _TE0[x] packs the MixColumns column of S[x] as
# (2s, s, s, 3s) from MSB to LSB; _TE1.._TE3 are byte rotations of it.
_mul2, _mul3 = _MUL[2], _MUL[3]
_TE0 = tuple(
    (_mul2[s] << 24) | (s << 16) | (s << 8) | _mul3[s]
    for s in _SBOX
)
_TE1 = tuple(((t >> 8) | ((t & 0xFF) << 24)) for t in _TE0)
_TE2 = tuple(((t >> 8) | ((t & 0xFF) << 24)) for t in _TE1)
_TE3 = tuple(((t >> 8) | ((t & 0xFF) << 24)) for t in _TE2)

# Decryption tables over InvSBox with the InvMixColumns coefficients
# (14, 9, 13, 11); _TD0[S[x]] == InvMixColumns word of x, which is how
# the decryption round keys are fused below.
_mul9, _mul11, _mul13, _mul14 = _MUL[9], _MUL[11], _MUL[13], _MUL[14]
_TD0 = tuple(
    (_mul14[s] << 24) | (_mul9[s] << 16) | (_mul13[s] << 8) | _mul11[s]
    for s in _INV_SBOX
)
_TD1 = tuple(((t >> 8) | ((t & 0xFF) << 24)) for t in _TD0)
_TD2 = tuple(((t >> 8) | ((t & 0xFF) << 24)) for t in _TD1)
_TD3 = tuple(((t >> 8) | ((t & 0xFF) << 24)) for t in _TD2)


def _inv_mix_word(word: int) -> int:
    """InvMixColumns of one column word (round-key fusion)."""
    return (
        _TD0[_SBOX[word >> 24]]
        ^ _TD1[_SBOX[(word >> 16) & 0xFF]]
        ^ _TD2[_SBOX[(word >> 8) & 0xFF]]
        ^ _TD3[_SBOX[word & 0xFF]]
    )


class AesFast:
    """T-table AES-128/192/256 over 16-byte blocks.

    Bit-compatible with :class:`~repro.crypto.aes.Aes` (same key sizes,
    same block interface) plus the word-level batch interface
    (:meth:`encrypt_words` / :meth:`decrypt_words`) the whole-payload
    mode kernels use.
    """

    block_size = 16

    def __init__(self, key: bytes) -> None:
        reference = Aes(key)  # validates the key and expands the schedule
        self.rounds = reference.rounds
        words_per_schedule = 4 * (self.rounds + 1)
        self._ek = list(
            struct.unpack(
                f">{words_per_schedule}I", b"".join(reference._round_keys)
            )
        )
        # Fused decryption schedule: rounds reversed, InvMixColumns
        # applied to every middle round key.
        dk = []
        for round_index in range(self.rounds, -1, -1):
            words = self._ek[4 * round_index:4 * round_index + 4]
            if 0 < round_index < self.rounds:
                words = [_inv_mix_word(word) for word in words]
            dk.extend(words)
        self._dk = dk

    # -- word-level kernels (used by the batched modes) -----------------

    def encrypt_words(self, s0: int, s1: int, s2: int, s3: int):
        """Encrypt one block given as four big-endian column words."""
        ek = self._ek
        te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
        sbox = _SBOX
        s0 ^= ek[0]
        s1 ^= ek[1]
        s2 ^= ek[2]
        s3 ^= ek[3]
        k = 4
        for _ in range(self.rounds - 1):
            t0 = te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF] ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ ek[k]
            t1 = te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF] ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ ek[k + 1]
            t2 = te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF] ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ ek[k + 2]
            t3 = te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF] ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ ek[k + 3]
            s0, s1, s2, s3 = t0, t1, t2, t3
            k += 4
        return (
            ((sbox[s0 >> 24] << 24) | (sbox[(s1 >> 16) & 0xFF] << 16)
             | (sbox[(s2 >> 8) & 0xFF] << 8) | sbox[s3 & 0xFF]) ^ ek[k],
            ((sbox[s1 >> 24] << 24) | (sbox[(s2 >> 16) & 0xFF] << 16)
             | (sbox[(s3 >> 8) & 0xFF] << 8) | sbox[s0 & 0xFF]) ^ ek[k + 1],
            ((sbox[s2 >> 24] << 24) | (sbox[(s3 >> 16) & 0xFF] << 16)
             | (sbox[(s0 >> 8) & 0xFF] << 8) | sbox[s1 & 0xFF]) ^ ek[k + 2],
            ((sbox[s3 >> 24] << 24) | (sbox[(s0 >> 16) & 0xFF] << 16)
             | (sbox[(s1 >> 8) & 0xFF] << 8) | sbox[s2 & 0xFF]) ^ ek[k + 3],
        )

    def decrypt_words(self, s0: int, s1: int, s2: int, s3: int):
        """Invert :meth:`encrypt_words` (equivalent inverse cipher)."""
        dk = self._dk
        td0, td1, td2, td3 = _TD0, _TD1, _TD2, _TD3
        inv_sbox = _INV_SBOX
        s0 ^= dk[0]
        s1 ^= dk[1]
        s2 ^= dk[2]
        s3 ^= dk[3]
        k = 4
        for _ in range(self.rounds - 1):
            t0 = td0[s0 >> 24] ^ td1[(s3 >> 16) & 0xFF] ^ td2[(s2 >> 8) & 0xFF] ^ td3[s1 & 0xFF] ^ dk[k]
            t1 = td0[s1 >> 24] ^ td1[(s0 >> 16) & 0xFF] ^ td2[(s3 >> 8) & 0xFF] ^ td3[s2 & 0xFF] ^ dk[k + 1]
            t2 = td0[s2 >> 24] ^ td1[(s1 >> 16) & 0xFF] ^ td2[(s0 >> 8) & 0xFF] ^ td3[s3 & 0xFF] ^ dk[k + 2]
            t3 = td0[s3 >> 24] ^ td1[(s2 >> 16) & 0xFF] ^ td2[(s1 >> 8) & 0xFF] ^ td3[s0 & 0xFF] ^ dk[k + 3]
            s0, s1, s2, s3 = t0, t1, t2, t3
            k += 4
        return (
            ((inv_sbox[s0 >> 24] << 24) | (inv_sbox[(s3 >> 16) & 0xFF] << 16)
             | (inv_sbox[(s2 >> 8) & 0xFF] << 8) | inv_sbox[s1 & 0xFF]) ^ dk[k],
            ((inv_sbox[s1 >> 24] << 24) | (inv_sbox[(s0 >> 16) & 0xFF] << 16)
             | (inv_sbox[(s3 >> 8) & 0xFF] << 8) | inv_sbox[s2 & 0xFF]) ^ dk[k + 1],
            ((inv_sbox[s2 >> 24] << 24) | (inv_sbox[(s1 >> 16) & 0xFF] << 16)
             | (inv_sbox[(s0 >> 8) & 0xFF] << 8) | inv_sbox[s3 & 0xFF]) ^ dk[k + 2],
            ((inv_sbox[s3 >> 24] << 24) | (inv_sbox[(s2 >> 16) & 0xFF] << 16)
             | (inv_sbox[(s1 >> 8) & 0xFF] << 8) | inv_sbox[s0 & 0xFF]) ^ dk[k + 3],
        )

    # -- block interface (compatibility with the reference cipher) ------

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != 16:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        return _WORD4.pack(*self.encrypt_words(*_WORD4.unpack(block)))

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != 16:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        return _WORD4.pack(*self.decrypt_words(*_WORD4.unpack(block)))
