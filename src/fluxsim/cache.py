"""Content-addressed on-disk result cache.

Entries are JSON files named by the SHA-256 of their canonical key. A hit
requires a deep key comparison (a hash collision is treated as a miss), the
schema version must match, and corrupt files are quarantined rather than
trusted or deleted. Entries are published with `publish`, which every
file the program writes goes through.

The key names the computation but not the code that produced the value.
A change to the layout of a cached value must bump CACHE_SCHEMA_VERSION,
and each entry also records NUMERICS_TAG, the SHA-256 of the source of the
modules whose output is cached (`qubit`, `coupled`, `readout`, and `gates`
for the optimised pulses) and of the unit conversions (`units`, and
`config`, which maps the GHz values in the key through them): an entry
written under another version or by other numerics code is a miss and is
recomputed, so an edit that forgets the bump cannot be served stale
values. Version 2: real flux-affine spectra and whole-sweep chi and
landscape entries. Version 3: the spectrum entry holds only the energies
in GHz. Version 4: spectra solved at the canonical flux in [0, 1/2]
(values change in their last bits). Version 5: every entry holds an object
of named flat arrays (NaN as null), and spectra are no longer cached.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

CACHE_SCHEMA_VERSION = 5


def _source_digest(names):
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode("utf-8"))
        digest.update(Path(__file__).with_name(name).read_bytes())
    return digest.hexdigest()


NUMERICS_TAG = _source_digest(("qubit.py", "coupled.py", "readout.py",
                               "gates.py", "units.py", "config.py"))


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
        "schema_version": CACHE_SCHEMA_VERSION,
        "numerics": NUMERICS_TAG,
        "key": key,
        "value": value,
    }, sort_keys=True).encode("utf-8"))


def cache_get(cache_dir, key: dict):
    """Return the cached value or None on any kind of miss.

    Misses: absent file, schema-version or numerics-tag mismatch,
    deep-compare key mismatch (hash collision). A file that fails to parse
    is renamed to *.corrupt so it is inspectable but never consulted again.
    """
    path = entry_path(cache_dir, key)
    if not path.is_file():
        return None
    try:
        entry = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(entry, dict):
            raise ValueError("cache entry is not an object")
        version = entry["schema_version"]
        numerics = entry.get("numerics")
        stored_key = entry["key"]
        value = entry["value"]
    except (ValueError, KeyError):
        quarantine = path.with_suffix(".corrupt")
        os.replace(path, quarantine)
        return None
    if version != CACHE_SCHEMA_VERSION or numerics != NUMERICS_TAG:
        return None
    if canonical_key_text(stored_key) != canonical_key_text(key):
        return None
    return value
