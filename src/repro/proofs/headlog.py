"""The transparency log: hash-chained, signed commit heads.

Every checkpoint appends one *signed commit head* to an append-only
``head.log`` file in the untrusted store.  A head binds
``(generation, commit seqno, counter, map depth, Merkle root digest)``
to the hash of the previous head, so the sequence of heads forms a
hash chain rooted in a per-database genesis value.  Publishing the
chain (or just its tip) lets clients, auditors, and replicas verify:

* **inclusion** — a chunk read proves up to the root digest a signed
  head names (:mod:`repro.proofs.merkle`),
* **append-only history** — a consistency proof between two heads is
  simply the chained entries between them; any fork or rewrite breaks
  a prev-hash link or a signature,
* **freshness** — a verifier that pins the newest head it has seen
  refuses any head whose index regresses (rollback) or that differs at
  a pinned index (fork / equivocation).

Signing is dual: every entry carries an HMAC-SHA256 tag under a key
derived from the device secret (always verifiable with the stdlib),
and additionally an Ed25519 signature when the ``cryptography``
package is importable.  The platform picks the scheme, as it picks the
AES implementation: ``ed25519`` when ``cryptography`` imports, ``hmac``
otherwise.  The Ed25519-present flag lives *inside* the MAC'd body, so
stripping the public-key signature breaks the MAC.

Crash model: appends go through ``UntrustedStore.append``, so a torn
append leaves a strict byte-prefix of one entry at the tail.  Loading
tolerates (and, on a writable open, truncates) such a torn tail; any
*full-length* entry that fails its MAC, its chain link, or its index
is tampering and raises :class:`~repro.errors.TamperDetectedError`.
Because the head is appended only after the master record reaches the
media, a crash can leave the tip at most one generation behind the
master and never ahead of it; :func:`bind_tip` is the one statement of
that rule, for the store's open, the audit tool and the replica applier.

This module must stay import-free of :mod:`repro.chunkstore` (the
store imports it).
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigError, TamperDetectedError

try:  # pragma: no cover - exercised via the CI uninstall job
    from cryptography.hazmat.primitives.asymmetric.ed25519 import (
        Ed25519PrivateKey as _Ed25519PrivateKey,
    )
    from cryptography.hazmat.primitives.serialization import (
        Encoding as _Encoding,
        PublicFormat as _PublicFormat,
    )
    from cryptography.exceptions import InvalidSignature as _InvalidSignature

    HAVE_ED25519 = True
except ImportError:  # pragma: no cover
    _Ed25519PrivateKey = _Encoding = _PublicFormat = None
    _InvalidSignature = None
    HAVE_ED25519 = False

__all__ = [
    "HAVE_ED25519",
    "HEAD_LOG_FILE",
    "SignedHead",
    "HeadVerifier",
    "TransparencyLog",
    "TIP_AHEAD",
    "TIP_LAGS",
    "TIP_SIGNED",
    "bind_tip",
    "head_signs",
]

HEAD_LOG_FILE = "head.log"

_HEADER_MAGIC = b"TDBHEADL"
_HEADER = struct.Struct(">8sBB16sB32s")  # magic, version, scheme, uuid, hash, pub
_HEADER_VERSION = 1
_SCHEME_BYTES = {"hmac": 0, "ed25519": 1}

_ENTRY_MAGIC = b"HD"
_ENTRY_HEAD = struct.Struct(">2sQQQQBB")  # magic, index, gen, seqno, counter, depth, flags
_MAC_SIZE = 32
_CHAIN_SIZE = 32
_ED_SIG_SIZE = 64

FLAG_ED25519 = 0x01
FLAG_EMPTY_ROOT = 0x02

_MAC_PURPOSE = "tdb-head-log-mac"
_ED_SEED_PURPOSE = "tdb-head-ed25519-seed"
_GENESIS_PREFIX = b"tdb-head-genesis"


def _platform_scheme() -> str:
    """The signing scheme this platform supports."""
    return "ed25519" if HAVE_ED25519 else "hmac"


def genesis_hash(db_uuid: bytes) -> bytes:
    """The chain anchor before the first head of database ``db_uuid``."""
    return hashlib.sha256(_GENESIS_PREFIX + db_uuid).digest()


def entry_hash(raw: bytes) -> bytes:
    """The chain link: hash of one full serialized entry."""
    return hashlib.sha256(raw).digest()


@dataclass(frozen=True)
class SignedHead:
    """One parsed (and, via :class:`HeadVerifier`, verified) commit head."""

    index: int
    generation: int
    seqno: int
    counter: int
    depth: int
    flags: int
    root_digest: bytes
    prev_hash: bytes
    raw: bytes

    @property
    def has_ed_signature(self) -> bool:
        return bool(self.flags & FLAG_ED25519)

    @property
    def empty_root(self) -> bool:
        return bool(self.flags & FLAG_EMPTY_ROOT)

    def describe(self) -> str:
        root = self.root_digest.hex()[:16] or "-"
        sig = "hmac+ed25519" if self.has_ed_signature else "hmac"
        return (
            f"head #{self.index}: generation {self.generation}, "
            f"seqno {self.seqno}, counter {self.counter}, root {root} [{sig}]"
        )


#: The benign ways a log's tip can stand to the master record (bind_tip).
TIP_SIGNED, TIP_LAGS, TIP_AHEAD = "signed", "lags", "ahead"


def head_signs(head: SignedHead, master, hash_size: int) -> bool:
    """Whether ``head`` signs exactly ``master``, on every signed field."""
    root = master.root
    return (
        head.generation == master.generation
        and head.seqno == master.commit_seqno
        and head.counter == master.expected_counter
        and head.depth == master.depth
        and head.root_digest == (
            root.hash_value if root is not None else bytes(hash_size)
        )
        and head.empty_root == (root is None)
    )


def bind_tip(
    heads: Sequence[SignedHead], master, hash_size: int
) -> Tuple[str, Optional[SignedHead]]:
    """Classify the tip of the verified ``heads`` against ``master``.

    Returns ``(outcome, head)``:

    * ``TIP_SIGNED`` — the tip signs the master;
    * ``TIP_LAGS`` — the tip (``None`` for an empty log) is exactly one
      generation behind: a crash between master write and head append;
    * ``TIP_AHEAD`` — the tip is newer but ``head``, an earlier entry,
      signs the master: the dual-master fallback (the newest master
      copy was lost; the counter check has ruled out lost commits).

    Anything else raises :class:`TamperDetectedError`.
    """
    tip = heads[-1] if heads else None
    have, want = (tip.generation if tip is not None else 0), master.generation
    if tip is not None and have == want:
        if head_signs(tip, master, hash_size):
            return TIP_SIGNED, tip
        raise TamperDetectedError(
            f"head log tip for generation {have} does not match the "
            "master record it claims to sign"
        )
    if have == want - 1:
        return TIP_LAGS, tip
    if have > want:
        anchor = next((h for h in reversed(heads) if h.generation <= want), None)
        if anchor is not None and head_signs(anchor, master, hash_size):
            return TIP_AHEAD, anchor
        raise TamperDetectedError(
            f"head log tip is generation {have} but the master record is "
            f"generation {want}: the database image was rolled back"
        )
    raise TamperDetectedError(
        f"head log tip is generation {have} but the master record is "
        f"generation {want}: the log was truncated"
    )


def _entry_length(flags: int, hash_size: int) -> int:
    length = _ENTRY_HEAD.size + hash_size + _CHAIN_SIZE + _MAC_SIZE
    if flags & FLAG_ED25519:
        length += _ED_SIG_SIZE
    return length


def _derive_ed_private(secret_store):
    seed = secret_store.derive_key(_ED_SEED_PURPOSE, 32)
    return _Ed25519PrivateKey.from_private_bytes(seed)


def derive_ed_public_bytes(secret_store) -> Optional[bytes]:
    """The raw Ed25519 public key for this device secret (None without
    the backend)."""
    if not HAVE_ED25519:
        return None
    return _derive_ed_private(secret_store).public_key().public_bytes(
        _Encoding.Raw, _PublicFormat.Raw
    )


class HeadVerifier:
    """Verifies entries and chains under one device secret + identity.

    Holds only derived keys, so it works for the store, the verifying
    client, the replica applier, and the offline audit tool alike.
    """

    def __init__(self, secret_store, db_uuid: bytes, hash_size: int) -> None:
        self.db_uuid = bytes(db_uuid)
        self.hash_size = hash_size
        self.mac_key = secret_store.derive_key(_MAC_PURPOSE, 32)
        self.ed_public = derive_ed_public_bytes(secret_store)

    # -- single entries ----------------------------------------------------

    def parse_entry(self, raw: bytes) -> SignedHead:
        """Structural parse of one full entry (no authentication)."""
        try:
            magic, index, generation, seqno, counter, depth, flags = (
                _ENTRY_HEAD.unpack_from(raw, 0)
            )
        except struct.error as exc:
            raise TamperDetectedError(f"malformed head entry: {exc}") from exc
        if magic != _ENTRY_MAGIC:
            raise TamperDetectedError("head entry has a bad magic")
        if len(raw) != _entry_length(flags, self.hash_size):
            raise TamperDetectedError(
                f"head entry #{index} has {len(raw)} bytes, expected "
                f"{_entry_length(flags, self.hash_size)}"
            )
        offset = _ENTRY_HEAD.size
        root_digest = raw[offset:offset + self.hash_size]
        offset += self.hash_size
        prev_hash = raw[offset:offset + _CHAIN_SIZE]
        return SignedHead(
            index=index,
            generation=generation,
            seqno=seqno,
            counter=counter,
            depth=depth,
            flags=flags,
            root_digest=root_digest,
            prev_hash=prev_hash,
            raw=bytes(raw),
        )

    def _body_and_sigs(self, head: SignedHead):
        body_len = _ENTRY_HEAD.size + self.hash_size + _CHAIN_SIZE
        body = head.raw[:body_len]
        mac = head.raw[body_len:body_len + _MAC_SIZE]
        ed_sig = head.raw[body_len + _MAC_SIZE:]
        return body, mac, ed_sig

    def verify_signature(self, raw: bytes) -> SignedHead:
        """Authenticate one entry in isolation (no chain placement)."""
        head = self.parse_entry(raw)
        body, mac, ed_sig = self._body_and_sigs(head)
        want = _hmac.new(self.mac_key, body, hashlib.sha256).digest()
        if not _hmac.compare_digest(mac, want):
            raise TamperDetectedError(
                f"head entry #{head.index} failed MAC verification"
            )
        if head.has_ed_signature and HAVE_ED25519:
            from cryptography.hazmat.primitives.asymmetric.ed25519 import (
                Ed25519PublicKey,
            )

            try:
                Ed25519PublicKey.from_public_bytes(self.ed_public).verify(
                    ed_sig, body
                )
            except _InvalidSignature as exc:
                raise TamperDetectedError(
                    f"head entry #{head.index} failed Ed25519 verification"
                ) from exc
        return head

    # -- chains ------------------------------------------------------------

    def verify_chain(
        self,
        raws: List[bytes],
        after: Optional[SignedHead] = None,
    ) -> List[SignedHead]:
        """Verify consecutive entries; ``after`` anchors the start.

        With ``after=None`` the chain must start at index 0 from the
        genesis hash; otherwise at ``after.index + 1`` from the hash of
        ``after.raw``.  Generations must strictly increase.
        """
        prev_hash = entry_hash(after.raw) if after is not None else genesis_hash(self.db_uuid)
        index = after.index + 1 if after is not None else 0
        last_generation = after.generation if after is not None else -1
        heads: List[SignedHead] = []
        for raw in raws:
            head = self.verify_signature(raw)
            if head.index != index:
                raise TamperDetectedError(
                    f"head entry at log position {index} claims "
                    f"index {head.index}"
                )
            if head.prev_hash != prev_hash:
                raise TamperDetectedError(
                    f"head entry #{head.index} does not chain to its "
                    "predecessor: the head log was rewritten"
                )
            if head.generation <= last_generation:
                raise TamperDetectedError(
                    f"head entry #{head.index} regresses the generation "
                    f"({head.generation} after {last_generation})"
                )
            heads.append(head)
            prev_hash = entry_hash(raw)
            index += 1
            last_generation = head.generation
        return heads


class TransparencyLog:
    """The append-only signed head log over one untrusted store."""

    def __init__(
        self,
        untrusted,
        secret_store,
        verifier: HeadVerifier,
        scheme: str,
        heads: List[SignedHead],
        writable: bool,
    ) -> None:
        self.untrusted = untrusted
        self.secret_store = secret_store
        self.verifier = verifier
        self.scheme = scheme
        self.writable = writable
        self._heads = heads

    # -- construction ------------------------------------------------------

    @classmethod
    def exists(cls, untrusted) -> bool:
        return untrusted.exists(HEAD_LOG_FILE)

    @classmethod
    def create(
        cls,
        untrusted,
        secret_store,
        db_uuid: bytes,
        hash_size: int,
    ) -> "TransparencyLog":
        """Start a fresh head log, replacing any stale file."""
        scheme = _platform_scheme()
        verifier = HeadVerifier(secret_store, db_uuid, hash_size)
        pubkey = verifier.ed_public if scheme == "ed25519" else None
        header = _HEADER.pack(
            _HEADER_MAGIC,
            _HEADER_VERSION,
            _SCHEME_BYTES[scheme],
            bytes(db_uuid),
            hash_size,
            pubkey or bytes(32),
        )
        if untrusted.exists(HEAD_LOG_FILE):
            untrusted.truncate(HEAD_LOG_FILE, 0)
        untrusted.write(HEAD_LOG_FILE, 0, header)
        untrusted.sync(HEAD_LOG_FILE)
        return cls(untrusted, secret_store, verifier, scheme, [], True)

    @classmethod
    def load(
        cls,
        untrusted,
        secret_store,
        db_uuid: bytes,
        hash_size: int,
        writable: bool,
    ) -> "TransparencyLog":
        """Load and fully verify an existing head log.

        A torn trailing entry (crash mid-append) is dropped — and, when
        ``writable``, truncated off the file.  Everything else that does
        not verify raises :class:`TamperDetectedError`.
        """
        data = untrusted.read(HEAD_LOG_FILE)
        if len(data) < _HEADER.size:
            raise TamperDetectedError("head log is too short for its header")
        magic, version, scheme_byte, header_uuid, header_hash, pubkey = (
            _HEADER.unpack_from(data, 0)
        )
        if magic != _HEADER_MAGIC or version != _HEADER_VERSION:
            raise TamperDetectedError("head log has a bad header")
        if header_uuid != bytes(db_uuid):
            raise TamperDetectedError(
                "head log belongs to a different database identity"
            )
        if header_hash != hash_size:
            raise TamperDetectedError(
                f"head log hash size {header_hash} does not match the "
                f"store's {hash_size}"
            )
        verifier = HeadVerifier(secret_store, db_uuid, hash_size)
        if any(pubkey) and verifier.ed_public is not None:
            if pubkey != verifier.ed_public:
                raise TamperDetectedError(
                    "head log names an Ed25519 key this device secret "
                    "does not derive"
                )
        raws: List[bytes] = []
        offset = _HEADER.size
        while len(data) - offset >= _ENTRY_HEAD.size:
            need = _entry_length(data[offset + _ENTRY_HEAD.size - 1], hash_size)
            if len(data) - offset < need:
                break  # torn tail: a crashed append's byte prefix
            raws.append(data[offset:offset + need])
            offset += need
        heads = verifier.verify_chain(raws)
        if writable and offset < len(data):
            untrusted.truncate(HEAD_LOG_FILE, offset)
        return cls(
            untrusted, secret_store, verifier, _platform_scheme(), heads, writable
        )

    # -- appends -----------------------------------------------------------

    def _sign(self, body: bytes, flags: int) -> bytes:
        mac = _hmac.new(self.verifier.mac_key, body, hashlib.sha256).digest()
        raw = body + mac
        if flags & FLAG_ED25519:
            raw += _derive_ed_private(self.secret_store).sign(body)
        return raw

    def append(
        self,
        generation: int,
        seqno: int,
        counter: int,
        depth: int,
        root_digest: Optional[bytes],
    ) -> SignedHead:
        """Sign and append the head of a just-written master record."""
        flags = 0
        if self.scheme == "ed25519":
            flags |= FLAG_ED25519
        if root_digest is None:
            flags |= FLAG_EMPTY_ROOT
            root_digest = bytes(self.verifier.hash_size)
        tip = self.tip()
        prev_hash = entry_hash(tip.raw) if tip else genesis_hash(self.verifier.db_uuid)
        body = _ENTRY_HEAD.pack(
            _ENTRY_MAGIC, len(self._heads), generation, seqno, counter,
            depth, flags,
        ) + bytes(root_digest) + prev_hash
        raw = self._sign(body, flags)
        self.untrusted.append(HEAD_LOG_FILE, raw)
        head = self.verifier.parse_entry(raw)
        self._heads.append(head)
        return head

    def append_entry(self, raw: bytes) -> SignedHead:
        """Adopt one already-signed entry verbatim (replica catch-up).

        The entry must verify and chain onto the current tip; replicas
        use this to mirror the primary's log byte-for-byte so auditors
        see one history regardless of which node they ask.
        """
        heads = self.verifier.verify_chain([bytes(raw)], after=self.tip())
        self.untrusted.append(HEAD_LOG_FILE, bytes(raw))
        self._heads.append(heads[0])
        return heads[0]

    def truncate_to(self, index: int) -> None:
        """Drop every head after ``index``.

        Used when the dual-master fallback engaged (the newest master
        copy was lost but the survivor is on the signed history and the
        counter ruled out lost commits): the heads past the surviving
        master are orphans of a master write that no longer exists, and
        the next checkpoint re-signs from here.
        """
        if not self.writable:
            raise ConfigError("cannot truncate a read-only head log")
        keep = self._heads[:index + 1]
        offset = _HEADER.size + sum(len(head.raw) for head in keep)
        self.untrusted.truncate(HEAD_LOG_FILE, offset)
        self.untrusted.sync(HEAD_LOG_FILE)
        self._heads = keep

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._heads)

    def tip(self) -> Optional[SignedHead]:
        return self._heads[-1] if self._heads else None

    def heads(self) -> List[SignedHead]:
        return list(self._heads)

    def entries_raw(self, lo: int, hi: int) -> List[bytes]:
        """Raw entries ``lo..hi`` inclusive (a consistency proof)."""
        if lo < 0 or hi >= len(self._heads) or lo > hi:
            raise TamperDetectedError(
                f"head-log range [{lo}, {hi}] outside 0..{len(self._heads) - 1}"
            )
        return [head.raw for head in self._heads[lo:hi + 1]]

    def entry_for_generation(self, generation: int) -> Optional[SignedHead]:
        for head in reversed(self._heads):
            if head.generation == generation:
                return head
            if head.generation < generation:
                return None
        return None
