"""CSV and manifest emission.

Numbers are written as the shortest decimal string that round-trips the
IEEE-754 double, in the notation of Python's repr, so emitted files diff
bit-exactly across runs and platforms. repr is the reference: its digits
(Gay's dtoa) are the shortest that round-trip and its notation is fixed by
the language. A float64 column is formatted in one orjson call, whose Ryu
digits (Adams, PLDI 2018) are the same shortest round-trip digits at about
a tenth of repr's cost per double; only the cells whose notation differs
from repr's (non-finite, |x| >= 1e16, small exponents) are re-formatted by
repr. Every emitted file is listed in manifest.json with the SHA-256 of the
bytes `write_csv` published, carried on the path it returns, so no output
is read back; the manifest also records the config hash, seed, tool
version, and every default the run relied on. Files are written through
`cache.publish`, so a rerun that produces the same bytes leaves each file
untouched.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import orjson

from . import __version__
from .cache import canonical_key_text, publish


def format_value(value) -> str:
    """Shortest round-trip decimal for floats, coerced to the builtin type
    so numpy scalars emit the bare number; str() for everything else."""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _is_scalar(column) -> bool:
    return isinstance(column, str) or not hasattr(column, "__len__")


def _float_cells(column) -> list:
    """A float64 array's cells, each as float.__repr__ writes it.

    orjson gives repr's digits everywhere; its notation differs for
    non-finite values (null), for |x| >= 1e16 (e16, not e+16) and for
    1e-9 <= |x| < 1e-4 (fixed notation down to 1e-5, then one-digit
    exponents without repr's zero padding), so those cells alone go through
    repr. The band is taken from 1e-11, two decades below where the two
    notations meet again.
    """
    column = np.ascontiguousarray(column)
    if not column.size:
        return []
    text = orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY)
    cells = text[1:-1].decode("ascii").split(",")
    magnitude = np.abs(column)
    patch = (~np.isfinite(column) | (magnitude >= 1e16)
             | ((magnitude >= 1e-11) & (magnitude < 1e-4)))
    for i in np.flatnonzero(patch):
        cells[i] = repr(float(column[i]))
    return cells


def _column_text(column, n_rows):
    """One column's cells: a float64 array through _float_cells, another
    sequence through format_value per element, a scalar formatted once and
    repeated."""
    if _is_scalar(column):
        return [format_value(column)] * n_rows
    if getattr(column, "dtype", None) == float:
        return _float_cells(column)
    return map(format_value, column)


class PublishedFile(type(Path())):
    """The path of a file `write_csv` published, with the SHA-256 hex
    digest of the bytes it published there."""

    sha256: str


def write_csv(path, header, columns) -> PublishedFile:
    """Write a CSV column by column, with deterministic formatting and a
    trailing newline. A column is a sequence or a scalar repeated on every
    row; sequences share one length, and scalars alone make one row."""
    lengths = {len(c) for c in columns if not _is_scalar(c)}
    if len(lengths) > 1 or len(columns) != len(header):
        raise ValueError(f"ragged table: {len(header)} header names, "
                         f"column lengths {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 1
    text = [_column_text(c, n_rows) for c in columns]
    lines = [",".join(header), *map(",".join, zip(*text))]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    published = PublishedFile(publish(path, data))
    published.sha256 = hashlib.sha256(data).hexdigest()
    return published


def config_hash(run_config) -> str:
    return hashlib.sha256(
        canonical_key_text(run_config.raw).encode("utf-8")).hexdigest()


def _previous_records(path, chash, seed) -> dict:
    """{name: record} of the manifest at path when it is from the same
    (config, seed, version); empty when it is absent, is not JSON, is from
    another run, or its files are not a list of records with string
    name, schema and sha256."""
    try:
        previous = json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, IsADirectoryError, ValueError):
        return {}
    if not (isinstance(previous, dict)
            and previous.get("config_hash") == chash
            and previous.get("seed") == seed
            and previous.get("tool_version") == __version__):
        return {}
    files = previous.get("files", [])
    if not (isinstance(files, list) and all(
            isinstance(rec, dict)
            and all(isinstance(rec.get(k), str)
                    for k in ("name", "schema", "sha256"))
            for rec in files)):
        return {}
    return {rec["name"]: rec for rec in files}


def write_manifest(out_dir, files, run_config) -> Path:
    """Emit manifest.json covering every file written by the run, with the
    config's noise seed.

    files is a sequence of (path, schema) pairs, each path a
    `PublishedFile` inside out_dir whose digest is recorded as it is.
    """
    path = Path(out_dir) / "manifest.json"
    chash, seed = config_hash(run_config), run_config.noise.seed
    # merge with a previous manifest from the same (config, seed, version) so
    # successive subcommands sharing an output directory stay fully listed
    records = _previous_records(path, chash, seed)
    for file_path, schema in files:
        records[file_path.name] = {
            "name": file_path.name,
            "schema": schema,
            "sha256": file_path.sha256,
        }
    manifest = {
        "tool_version": __version__,
        "config_hash": chash,
        "seed": seed,
        "defaults_used": list(run_config.defaults_used),
        "files": [records[k] for k in sorted(records)],
    }
    return publish(path, (json.dumps(manifest, indent=2, sort_keys=True)
                          + "\n").encode("utf-8"))
