"""Shared fixtures for the TDB reproduction test suite."""

from __future__ import annotations

import pytest

import repro.crypto.cipher
from repro.config import ChunkStoreConfig, ObjectStoreConfig, SecurityProfile
from repro.crypto import Aes
from repro.platform import (
    MemoryArchivalStore,
    MemoryOneWayCounter,
    MemorySecretStore,
    MemoryUntrustedStore,
)

@pytest.fixture(params=("native", "reference"))
def store_aes(request, monkeypatch):
    """Run a store suite on the platform's AES, then on the oracle.

    ``native`` leaves :func:`~repro.crypto.native.best_aes` in charge
    (OpenSSL where importable, the table kernels otherwise);
    ``reference`` hands every payload cipher built during the test the
    per-block reference :class:`~repro.crypto.aes.Aes` instead.  Every
    AES writes the same bytes, so images cached under one verify under
    the other.
    """
    if request.param == "reference":
        monkeypatch.setattr(repro.crypto.cipher, "best_aes", Aes)
    return request.param


@pytest.fixture
def secret_store():
    return MemorySecretStore(b"unit-test-secret-0123456789abcdef")


@pytest.fixture
def untrusted_store():
    return MemoryUntrustedStore()


@pytest.fixture
def counter():
    return MemoryOneWayCounter()


@pytest.fixture
def archival_store():
    return MemoryArchivalStore()


@pytest.fixture
def secure_config():
    """Small-segment secure chunk-store config that exercises the cleaner."""
    return ChunkStoreConfig(
        segment_size=8 * 1024,
        initial_segments=4,
        checkpoint_residual_bytes=16 * 1024,
        map_fanout=8,
        security=SecurityProfile(enabled=True, hash_name="sha1", cipher_name="aes-128"),
    )


@pytest.fixture
def insecure_config():
    return ChunkStoreConfig(
        segment_size=8 * 1024,
        initial_segments=4,
        checkpoint_residual_bytes=16 * 1024,
        map_fanout=8,
        security=SecurityProfile.insecure(),
    )


@pytest.fixture
def object_store_config():
    return ObjectStoreConfig(cache_bytes=256 * 1024, lock_timeout=0.2)
