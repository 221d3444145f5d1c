"""Tests for chunk-store record framing, locators, and the master codec."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.chunkstore.format import (
    CheckpointBody,
    CommitBody,
    CommitItem,
    LinkBody,
    Locator,
    MapNodeBody,
    RecordCodec,
    RecordKind,
    SegHeaderBody,
)
from repro.chunkstore.locmap import MapNode
from repro.config import SecurityProfile
from repro.crypto import create_hash_engine, create_mac
from repro.errors import ChunkStoreError, TamperDetectedError

HASH_SIZE = 20


def secure_codec(chain=b"genesis-chain-value!"):
    engine = create_hash_engine("sha1")
    mac = create_mac(b"0123456789abcdef0123456789abcdef", "sha1")
    return RecordCodec(engine, mac, chain=chain)


def insecure_codec():
    return RecordCodec()


class TestLocator:
    def test_roundtrip_with_hash(self):
        locator = Locator(3, 4096, 100, b"\xab" * HASH_SIZE)
        encoded = locator.encode(HASH_SIZE)
        decoded, offset = Locator.decode(encoded, 0, HASH_SIZE)
        assert decoded == locator
        assert offset == len(encoded) == Locator.encoded_size(HASH_SIZE)

    def test_roundtrip_without_hash(self):
        locator = Locator(1, 2, 3)
        decoded, _ = Locator.decode(locator.encode(0), 0, 0)
        assert decoded == locator

    def test_wrong_hash_size_rejected(self):
        with pytest.raises(ChunkStoreError):
            Locator(1, 2, 3, b"short").encode(HASH_SIZE)

    def test_truncated_decode_rejected(self):
        locator = Locator(1, 2, 3, b"\x01" * HASH_SIZE)
        data = locator.encode(HASH_SIZE)[:-1]
        with pytest.raises(ChunkStoreError):
            Locator.decode(data, 0, HASH_SIZE)


class TestBodies:
    def test_commit_body_roundtrip(self):
        body = CommitBody(
            seqno=7,
            durable=True,
            from_cleaner=False,
            expected_counter=3,
            next_chunk_id=12,
            writes=[CommitItem(1, b"abc"), CommitItem(5, b"")],
            deallocs=[2, 9],
        )
        decoded = CommitBody.decode(body.encode(), body_offset_in_record=8)
        assert decoded.seqno == 7
        assert decoded.durable is True
        assert decoded.from_cleaner is False
        assert decoded.expected_counter == 3
        assert decoded.next_chunk_id == 12
        assert [(w.chunk_id, w.payload) for w in decoded.writes] == [
            (1, b"abc"),
            (5, b""),
        ]
        assert decoded.deallocs == [2, 9]

    def test_commit_payload_offsets_match_parse(self):
        body = CommitBody(
            seqno=1,
            durable=False,
            from_cleaner=True,
            expected_counter=0,
            next_chunk_id=2,
            writes=[CommitItem(0, b"xy"), CommitItem(1, b"z" * 10)],
            deallocs=[],
        )
        encoded = body.encode()
        predicted = body.encoded_payload_offsets(body_offset_in_record=8)
        decoded = CommitBody.decode(encoded, body_offset_in_record=8)
        assert decoded.payload_offsets == predicted
        # The offsets really do point at the payloads within the record.
        record = b"HHHHHHHH" + encoded  # fake 8-byte header
        for item, offset in zip(decoded.writes, decoded.payload_offsets):
            assert record[offset:offset + len(item.payload)] == item.payload

    def test_commit_truncated_rejected(self):
        body = CommitBody(1, True, False, 0, 1, [CommitItem(0, b"abcd")], []).encode()
        with pytest.raises(ChunkStoreError):
            CommitBody.decode(body[:-2], 8)

    def test_map_node_roundtrip(self):
        body = MapNodeBody(level=2, index=17, payload=b"node-bytes")
        decoded = MapNodeBody.decode(body.encode(), body_offset_in_record=8)
        assert (decoded.level, decoded.index, decoded.payload) == (2, 17, b"node-bytes")
        assert decoded.payload_offset == MapNodeBody.payload_offset_in_record(8)

    def test_checkpoint_roundtrip_with_and_without_root(self):
        root = Locator(1, 2, 3, b"\x07" * HASH_SIZE)
        with_root = CheckpointBody(5, 6, 7, 2, root)
        decoded = CheckpointBody.decode(with_root.encode(HASH_SIZE), HASH_SIZE)
        assert decoded.root == root
        assert (decoded.seqno, decoded.expected_counter) == (5, 6)
        empty = CheckpointBody(1, 0, 0, 1, None)
        assert CheckpointBody.decode(empty.encode(HASH_SIZE), HASH_SIZE).root is None

    def test_seg_header_and_link_roundtrip(self):
        assert SegHeaderBody.decode(SegHeaderBody(9).encode()).segment == 9
        assert LinkBody.decode(LinkBody(4).encode()).next_segment == 4


class TestSecureCodec:
    def test_frame_and_verify_roundtrip(self):
        writer = secure_codec()
        reader = secure_codec()
        record = writer.frame(RecordKind.LINK, LinkBody(2).encode())
        kind, body = reader.verify_and_advance(record)
        assert kind == RecordKind.LINK
        assert LinkBody.decode(body).next_segment == 2
        assert reader.chain == writer.chain

    def test_chain_orders_records(self):
        writer = secure_codec()
        first = writer.frame(RecordKind.LINK, LinkBody(1).encode())
        second = writer.frame(RecordKind.LINK, LinkBody(2).encode())
        reader = secure_codec()
        # Verifying the second record first must fail: its tag commits to
        # the chain value *after* the first record.
        with pytest.raises(TamperDetectedError):
            reader.verify_and_advance(second)
        reader = secure_codec()
        reader.verify_and_advance(first)
        reader.verify_and_advance(second)

    def test_bit_flip_detected(self):
        writer = secure_codec()
        record = bytearray(writer.frame(RecordKind.LINK, LinkBody(1).encode()))
        record[10] ^= 0x01
        with pytest.raises(TamperDetectedError):
            secure_codec().verify_and_advance(bytes(record))

    def test_wrong_chain_start_detected(self):
        writer = secure_codec(chain=b"one-chain-start-....")
        record = writer.frame(RecordKind.LINK, LinkBody(1).encode())
        reader = secure_codec(chain=b"another-chain-start!")
        with pytest.raises(TamperDetectedError):
            reader.verify_and_advance(record)

    def test_record_size_accounts_tag(self):
        codec = secure_codec()
        record = codec.frame(RecordKind.LINK, LinkBody(1).encode())
        assert len(record) == codec.record_size(LinkBody._FIXED.size)

    def test_bad_magic_rejected(self):
        codec = secure_codec()
        with pytest.raises(ChunkStoreError):
            codec.parse_header(b"XX\x02\x00\x00\x00\x00\x04")

    def test_unknown_kind_rejected(self):
        codec = secure_codec()
        with pytest.raises(ChunkStoreError):
            codec.parse_header(b"TR\x63\x00\x00\x00\x00\x04")


class TestInsecureCodec:
    def test_crc_roundtrip(self):
        writer = insecure_codec()
        record = writer.frame(RecordKind.SEG_HEADER, SegHeaderBody(1).encode())
        kind, body = insecure_codec().verify_and_advance(record)
        assert kind == RecordKind.SEG_HEADER

    def test_crc_detects_torn_write(self):
        writer = insecure_codec()
        record = bytearray(writer.frame(RecordKind.SEG_HEADER, SegHeaderBody(1).encode()))
        record[-1] ^= 0xFF
        with pytest.raises(TamperDetectedError):
            insecure_codec().verify_and_advance(bytes(record))

    @given(st.binary(max_size=64))
    @settings(max_examples=30)
    def test_property_any_body_roundtrips(self, payload):
        body = MapNodeBody(0, 0, payload).encode()
        writer = insecure_codec()
        record = writer.frame(RecordKind.MAP_NODE, body)
        kind, parsed = insecure_codec().verify_and_advance(record)
        assert kind == RecordKind.MAP_NODE
        assert MapNodeBody.decode(parsed, 8).payload == payload


#: The digest size of the shipping security profile's hash engine.
ENGINE_HASH_SIZE = create_hash_engine(SecurityProfile().hash_name).digest_size


def sample_node(hash_size: int) -> MapNode:
    """A map node whose slots were set out of order, with edge values."""
    node = MapNode(1, 3)
    node.children[63] = Locator(7, 2**40 + 5, 4096, bytes(range(hash_size)))
    node.children[0] = Locator(1, 0, 17, b"\xff" * hash_size)
    node.children[5] = Locator(2**32 - 1, 123456, 2**32 - 1, b"\x5a" * hash_size)
    return node


class TestMapNodeCodec:
    #: What the per-field encoder wrote for :func:`sample_node`: the
    #: one-struct encoder must produce the same bytes, so images written
    #: before and after it open alike.
    PINNED = {
        0: "4d4e01000000000000000300030000000000010000000000000000000000110005"
        "ffffffff000000000001e240ffffffff003f000000070000010000000005"
        "00001000",
        20: "4d4e0100000000000000030003000000000001000000000000000000000011"
        "ffffffffffffffffffffffffffffffffffffffff0005ffffffff000000000001e240"
        "ffffffff5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a003f0000000700000100"
        "0000000500001000000102030405060708090a0b0c0d0e0f10111213",
    }

    def test_engine_digest_is_pinned(self):
        assert ENGINE_HASH_SIZE == 20

    @pytest.mark.parametrize("hash_size", sorted(PINNED))
    def test_serialize_bytes_are_pinned(self, hash_size):
        assert sample_node(hash_size).serialize(hash_size).hex() == self.PINNED[hash_size]

    @pytest.mark.parametrize("hash_size", [0, ENGINE_HASH_SIZE])
    def test_roundtrip(self, hash_size):
        node = sample_node(hash_size)
        decoded = MapNode.deserialize(node.serialize(hash_size), hash_size)
        assert (decoded.level, decoded.index) == (1, 3)
        assert decoded.children == node.children
        assert sorted(decoded.children) == [0, 5, 63]

    def test_empty_node_roundtrips(self):
        decoded = MapNode.deserialize(MapNode(0, 9).serialize(0), 0)
        assert (decoded.level, decoded.index, decoded.children) == (0, 9, {})

    @pytest.mark.parametrize("hash_size", [0, ENGINE_HASH_SIZE])
    def test_truncated_body_rejected(self, hash_size):
        data = sample_node(hash_size).serialize(hash_size)
        for cut in (1, 2, len(data) - 12):
            with pytest.raises(ChunkStoreError):
                MapNode.deserialize(data[:-cut], hash_size)

    @pytest.mark.parametrize("hash_size", [0, ENGINE_HASH_SIZE])
    def test_extra_bytes_rejected(self, hash_size):
        data = sample_node(hash_size).serialize(hash_size)
        with pytest.raises(ChunkStoreError):
            MapNode.deserialize(data + b"\x00", hash_size)

    def test_short_header_rejected(self):
        with pytest.raises(ChunkStoreError):
            MapNode.deserialize(b"MN\x01", 0)

    def test_wrong_digest_size_rejected_on_serialize(self):
        with pytest.raises(ChunkStoreError):
            sample_node(ENGINE_HASH_SIZE).serialize(ENGINE_HASH_SIZE + 1)

    def test_decoded_locator_equals_and_hashes_like_original(self):
        node = sample_node(ENGINE_HASH_SIZE)
        decoded = MapNode.deserialize(node.serialize(ENGINE_HASH_SIZE), ENGINE_HASH_SIZE)
        for slot, original in node.children.items():
            locator = decoded.children[slot]
            assert type(locator) is Locator
            assert locator == original
            assert hash(locator) == hash(original)
            assert locator.hash_value == original.hash_value
            assert {locator: slot}[original] == slot

    def test_locator_has_no_instance_dict(self):
        assert not hasattr(Locator(1, 2, 3), "__dict__")
