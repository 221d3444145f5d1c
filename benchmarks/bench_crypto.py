"""AES microbench: native vs fast vs reference.

Measures whole-payload CBC encrypt+decrypt and CTR throughput for each
AES implementation (``native`` — OpenSSL via the cryptography package,
measured only where it is importable; ``fast`` — table-driven pure
python, the platform's AES without it; ``reference`` — per-block
oracle), whole-segment verification throughput (the scrub/shipment
shape: content digest + trial decryption of a 64 KiB payload),
hash-engine throughput, and — where OpenSSL is present — the store's
own path: a random-IV encrypt and a decrypt of one chunk payload at
160 B, 864 B and 4 KiB, through a fresh ``Cipher`` per payload against
the held contexts of ``NativeAes``.
Results land in ``BENCH_crypto.json`` next to the repository root (the
non-gating CI artifact).

Four headline gates guard the implementations on the 4 KiB chunk-store
hot path, the 64 KiB segment-verification path and the store's path:

* ``fast``   >=  5x ``reference`` on 4 KiB CBC (the PR-4 gate, kept);
* ``native`` >= 50x ``reference`` on 4 KiB CBC;
* ``native`` >= 10x ``fast`` on whole-segment verification;
* held contexts >= 2x a fresh ``Cipher`` per payload, both directions,
  at every store-path size.

Run directly (``python benchmarks/bench_crypto.py``) or via pytest
(``pytest benchmarks/bench_crypto.py -q``).
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.crypto import (
    Aes,
    AesFast,
    CbcPayloadCipher,
    HAVE_NATIVE_BACKEND,
    NativeAes,
    create_hash_engine,
    modes,
)

KEY = bytes(range(16))
IV = bytes(range(16, 32))
NONCE = b"bench-nonce!"
PAYLOAD_SIZES = (256, 4096, 65536)
STORE_PATH_SIZES = (160, 864, 4096)
SEGMENT_SIZE = 65536
HASH_SIZE = 4096
OUTPUT = os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCH_crypto.json")

ENGINES = {"fast": AesFast, "reference": Aes}
if HAVE_NATIVE_BACKEND:
    ENGINES = {"native": NativeAes, **ENGINES}


def _payload(size: int) -> bytes:
    return bytes(i % 251 for i in range(size))


def _time_loop(fn, min_seconds: float = 0.2, min_iters: int = 3):
    """Run ``fn`` until the clock budget is spent; return seconds/iter."""
    iters = 0
    started = time.perf_counter()
    while True:
        fn()
        iters += 1
        elapsed = time.perf_counter() - started
        if elapsed >= min_seconds and iters >= min_iters:
            return elapsed / iters


def _mb_per_s(nbytes: int, seconds: float) -> float:
    return (nbytes / (1024 * 1024)) / seconds


def bench_cbc(size: int):
    data = _payload(size)
    ciphers = {name: cls(KEY) for name, cls in ENGINES.items()}
    baseline_ct = modes.cbc_encrypt(ciphers["reference"], data, IV)
    entry = {"payload_bytes": size}
    seconds = {}
    for name, cipher in ciphers.items():
        # Same key+IV must mean the same bytes under every engine.
        assert modes.cbc_encrypt(cipher, data, IV) == baseline_ct
        seconds[name] = _time_loop(
            lambda c=cipher: modes.cbc_decrypt(c, modes.cbc_encrypt(c, data, IV))
        )
        entry[f"{name}_ms"] = round(seconds[name] * 1e3, 3)
        entry[f"{name}_mb_per_s"] = round(_mb_per_s(2 * size, seconds[name]), 2)
    entry["speedup"] = round(seconds["reference"] / seconds["fast"], 2)
    if "native" in seconds:
        entry["native_vs_reference"] = round(
            seconds["reference"] / seconds["native"], 2
        )
        entry["native_vs_fast"] = round(seconds["fast"] / seconds["native"], 2)
    return entry


def bench_ctr(size: int):
    data = _payload(size)
    entry = {"payload_bytes": size}
    seconds = {}
    for name, cls in ENGINES.items():
        cipher = cls(KEY)
        seconds[name] = _time_loop(
            lambda c=cipher: modes.ctr_transform(c, data, NONCE)
        )
        entry[f"{name}_ms"] = round(seconds[name] * 1e3, 3)
        entry[f"{name}_mb_per_s"] = round(_mb_per_s(size, seconds[name]), 2)
    entry["speedup"] = round(seconds["reference"] / seconds["fast"], 2)
    if "native" in seconds:
        entry["native_vs_fast"] = round(seconds["fast"] / seconds["native"], 2)
    return entry


def bench_segment_verify(size: int = SEGMENT_SIZE):
    """Whole-segment verification: digest + trial decrypt, per AES.

    This is the scrub / shipment unit of work.  The reference AES is
    benched on a 16x smaller payload (then scaled) to keep the bench
    affordable.
    """
    hasher = create_hash_engine("sha1")
    out = {}
    for name, cls in ENGINES.items():
        cipher = CbcPayloadCipher(cls(KEY), "aes-128")
        bench_size = size if name != "reference" else size // 16
        data = _payload(bench_size - 32)
        ct = cipher.encrypt(data)

        def verify(c=cipher, ct=ct):
            hasher.digest(ct)
            c.decrypt(ct)

        seconds = _time_loop(verify) * (size / bench_size)
        out[name] = {
            "segment_bytes": size,
            "ms_per_segment": round(seconds * 1e3, 3),
            "mb_per_s": round(_mb_per_s(size, seconds), 2),
        }
    if "native" in out:
        out["native_vs_fast"] = round(
            out["fast"]["ms_per_segment"] / out["native"]["ms_per_segment"], 2
        )
    return out


def bench_store_path(size: int):
    """Random-IV encrypt and decrypt of one chunk payload, as the store
    calls them: a fresh ``Cipher`` per payload against held contexts."""
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
    from cryptography.hazmat.primitives.ciphers import modes as cmodes

    algorithm = algorithms.AES(KEY)

    def fresh_encrypt(plaintext):
        iv = os.urandom(16)
        ctx = Cipher(algorithm, cmodes.CBC(iv)).encryptor()
        return iv + ctx.update(modes.pkcs7_pad(plaintext, 16)) + ctx.finalize()

    def fresh_decrypt(record):
        ctx = Cipher(algorithm, cmodes.CBC(record[:16])).decryptor()
        return modes.pkcs7_unpad(ctx.update(record[16:]) + ctx.finalize(), 16)

    held = CbcPayloadCipher(NativeAes(KEY), "aes-128")
    data = _payload(size)
    record = held.encrypt(data)
    assert fresh_decrypt(record) == data and held.decrypt(fresh_encrypt(data)) == data
    entry = {"payload_bytes": size}
    for direction, fresh, kept, arg in (
        ("encrypt", fresh_encrypt, held.encrypt, data),
        ("decrypt", fresh_decrypt, held.decrypt, record),
    ):
        fresh_s = _time_loop(lambda: fresh(arg))
        held_s = _time_loop(lambda: kept(arg))
        entry[f"fresh_{direction}_us"] = round(fresh_s * 1e6, 2)
        entry[f"held_{direction}_us"] = round(held_s * 1e6, 2)
        entry[f"held_vs_fresh_{direction}"] = round(fresh_s / held_s, 2)
    return entry


def bench_hashes(size: int = HASH_SIZE):
    data = _payload(size)
    out = {}
    for name in ("sha1", "sha256", "sha1-pure"):
        engine = create_hash_engine(name)
        seconds = _time_loop(lambda: engine.digest(data))
        out[name] = {
            "payload_bytes": size,
            "us_per_digest": round(seconds * 1e6, 2),
            "mb_per_s": round(_mb_per_s(size, seconds), 2),
        }
    return out


def run_all():
    return {
        "native_backend": "openssl" if HAVE_NATIVE_BACKEND else "fallback",
        "cpu_count": os.cpu_count(),
        "cbc_encrypt_decrypt": [bench_cbc(size) for size in PAYLOAD_SIZES],
        "ctr_transform": [bench_ctr(size) for size in PAYLOAD_SIZES],
        "segment_verify": bench_segment_verify(),
        "store_path_cbc": (
            [bench_store_path(size) for size in STORE_PATH_SIZES]
            if HAVE_NATIVE_BACKEND else []
        ),
        "hash_engines": bench_hashes(),
    }


def write_report(results, path: str = OUTPUT) -> None:
    with open(path, "w") as handle:
        json.dump({"crypto": results}, handle, indent=2)
        handle.write("\n")


def test_crypto_kernel_speedup():
    """Smoke gates: each faster AES earns its place on the hot paths."""
    results = run_all()
    by_size = {entry["payload_bytes"]: entry for entry in results["cbc_encrypt_decrypt"]}
    assert by_size[4096]["speedup"] >= 5.0, by_size[4096]
    for entry in results["ctr_transform"]:
        assert entry["speedup"] > 1.0, entry
    if HAVE_NATIVE_BACKEND:
        assert by_size[4096]["native_vs_reference"] >= 50.0, by_size[4096]
        assert results["segment_verify"]["native_vs_fast"] >= 10.0, (
            results["segment_verify"]
        )
        for entry in results["store_path_cbc"]:
            assert entry["held_vs_fresh_encrypt"] >= 2.0, entry
            assert entry["held_vs_fresh_decrypt"] >= 2.0, entry
    write_report(results)


if __name__ == "__main__":
    report = run_all()
    write_report(report)
    json.dump({"crypto": report}, sys.stdout, indent=2)
