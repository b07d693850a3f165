"""Content-addressed on-disk result cache.

Entries are JSON files named by the SHA-256 of their canonical key. A hit
requires a deep key comparison (a hash collision is treated as a miss) and
the entry's numerics tag to match; corrupt files are quarantined rather
than trusted or deleted. Entries are published with `publish`, which every
file the program writes goes through.

The key names the computation but not the code that produced the value, so
each entry also records NUMERICS_TAG, the SHA-256 of the name and source of
every module of the package. An entry written by any other code is a miss
and is recomputed, whether that code differs in its numerics, its units,
what the CLI caches or the layout of an entry.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


NUMERICS_TAG = _source_digest()


def canonical_key_text(key: dict) -> str:
    """Deterministic serialization used both for hashing and deep compare."""
    return json.dumps(key, sort_keys=True, separators=(",", ":"))


def key_hash(key: dict) -> str:
    return hashlib.sha256(canonical_key_text(key).encode("utf-8")).hexdigest()


def entry_path(cache_dir, key: dict) -> Path:
    return Path(cache_dir) / f"{key_hash(key)}.json"


def publish(path, data: bytes) -> Path:
    """Make the file at path hold exactly data, creating its directory if
    needed. A file that already holds data is left as it is, inode and
    mtime included; otherwise data goes to a temp file that replaces path
    in one rename, so a reader sees the old bytes or the new ones, never a
    mix. A failed write or rename removes the temp file and re-raises."""
    path = Path(path)
    try:
        if path.stat().st_size == len(data) and path.read_bytes() == data:
            return path
    except OSError:  # absent, a directory or unreadable: write it anyway
        pass
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def cache_put(cache_dir, key: dict, value) -> Path:
    """Publish an entry; last writer wins on races."""
    return publish(entry_path(cache_dir, key), json.dumps({
        "numerics": NUMERICS_TAG,
        "key": key,
        "value": value,
    }, sort_keys=True).encode("utf-8"))


def cache_get(cache_dir, key: dict):
    """Return the cached value or None on any kind of miss.

    Misses: absent file, numerics-tag mismatch, deep-compare key mismatch
    (hash collision). A file that fails to parse, or nests deeper than the
    parser recurses, is renamed to *.corrupt so it is inspectable but
    never consulted again.
    """
    path = entry_path(cache_dir, key)
    if not path.is_file():
        return None
    try:
        entry = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(entry, dict):
            raise ValueError("cache entry is not an object")
        numerics = entry.get("numerics")
        stored_key = entry["key"]
        value = entry["value"]
    except (ValueError, KeyError, RecursionError):
        quarantine = path.with_suffix(".corrupt")
        os.replace(path, quarantine)
        return None
    if (numerics != NUMERICS_TAG
            or canonical_key_text(stored_key) != canonical_key_text(key)):
        return None
    return value
