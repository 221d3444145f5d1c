"""Cryptographic substrate of the chunk store.

The paper's TDB-S configuration hashes with SHA-1 and encrypts with 3DES.
SHA-1, DES/3DES and AES are implemented from scratch and verified against
``hashlib`` and the FIPS test vectors in the test suite.  The one optional
third-party package is ``cryptography``: when it is importable, AES runs
on OpenSSL (:class:`~repro.crypto.native.NativeAes`); otherwise on the
table kernels (:class:`~repro.crypto.aesfast.AesFast`).  The platform
picks (:func:`~repro.crypto.native.best_aes`); there is no setting.

The chunk store consumes three small interfaces:

* :class:`~repro.crypto.hashes.HashEngine` — one-way hash for the Merkle
  tree (``create_hash_engine``),
* :class:`~repro.crypto.cipher.PayloadCipher` — encrypt/decrypt a chunk
  payload (``create_payload_cipher``),
* :class:`~repro.crypto.mac.Hmac` — keyed MAC for the master record and
  commit trailers (``create_mac``).
"""

from repro.crypto.hashes import (
    HashEngine,
    HashlibEngine,
    PureSha1Engine,
    create_hash_engine,
)
from repro.crypto.cipher import (
    CIPHER_KEY_SIZES,
    BlockCipher,
    PayloadCipher,
    NullPayloadCipher,
    CbcPayloadCipher,
    create_payload_cipher,
)
from repro.crypto.mac import Hmac, create_mac
from repro.crypto.sha1 import sha1
from repro.crypto.des import Des, TripleDes
from repro.crypto.aes import Aes
from repro.crypto.aesfast import AesFast
from repro.crypto.native import HAVE_NATIVE_BACKEND, NativeAes, best_aes
from repro.crypto.instrument import (
    InstrumentedHashEngine,
    InstrumentedPayloadCipher,
)
from repro.crypto import modes

__all__ = [
    "HashEngine",
    "HashlibEngine",
    "PureSha1Engine",
    "create_hash_engine",
    "BlockCipher",
    "PayloadCipher",
    "NullPayloadCipher",
    "CbcPayloadCipher",
    "create_payload_cipher",
    "Hmac",
    "create_mac",
    "sha1",
    "Des",
    "TripleDes",
    "Aes",
    "AesFast",
    "NativeAes",
    "HAVE_NATIVE_BACKEND",
    "best_aes",
    "CIPHER_KEY_SIZES",
    "InstrumentedHashEngine",
    "InstrumentedPayloadCipher",
    "modes",
]
