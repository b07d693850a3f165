"""CSV and manifest emission.

Numbers are written as the shortest decimal string that round-trips the
IEEE-754 double, in the notation of Python's repr, so emitted files diff
bit-exactly across runs and platforms. repr is the reference: its digits
(Gay's dtoa) are the shortest that round-trip and its notation is fixed by
the language. A table is written row-major. Each run of adjacent float64
columns is stacked and dumped flat in one orjson call, whose Ryu digits
(Adams, PLDI 2018) are the same shortest round-trip digits at about a
tenth of repr's cost per double. One scan of that text for commas turns
every row's last comma into a newline and bounds the cells whose notation
differs from repr's (non-finite, |x| >= 1e16, small exponents); only those
are re-formatted by repr and spliced in. Constant columns after a float
run are appended to every row in one replace, a numpy str column (status,
or cells cut once by `float_cells`) is joined as tolist() gives it, and
the other columns (levels, the gate rows) are formatted cell by cell. Each
emitted file is listed in manifest.json with the SHA-256 of the bytes
`write_csv` published, carried on the path it returns, so no output is
read back; the manifest also records the config hash, seed, tool version,
and every default the run relied on. Files are written through
`cache.publish`, so a rerun that produces the same bytes leaves each file
untouched.
"""

from __future__ import annotations

import hashlib
import json
from itertools import groupby
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


def _kind(column) -> str:
    """A column's kind: scalar, float (a float64 array), text (a numpy str
    array) or cells (any other sequence)."""
    if _is_scalar(column):
        return "scalar"
    dtype = getattr(column, "dtype", np.dtype(object))
    return ("float" if dtype == float
            else "text" if dtype.kind == "U" else "cells")


def _float_rows(columns) -> list:
    """Rows of adjacent float64 columns, each cell as float.__repr__ writes
    it, cells joined by "," and rows by a newline, with none after the last;
    returned as buffers for the one join that makes the file.

    The columns are stacked and dumped flat in one orjson call. orjson
    gives repr's digits everywhere; its notation differs for non-finite
    values (null), for |x| >= 1e16 (e16, not e+16) and for 1e-9 <= |x| <
    1e-4 (fixed notation down to 1e-5, then one-digit exponents without
    repr's zero padding), so those cells alone go through repr. The band is
    taken from 1e-11, two decades below where the two notations meet again.
    One scan for commas gives both the row ends (every k-th comma of k
    columns) and the bounds of the cells that repr replaces.
    """
    values = np.column_stack(columns).ravel()
    text = bytearray(orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY))
    view = np.frombuffer(text, np.uint8)
    commas = np.flatnonzero(view == ord(","))
    view[commas[len(columns) - 1::len(columns)]] = ord("\n")
    magnitude = np.abs(values)
    # not below 1e16: NaN and +-inf as well as the large magnitudes
    band = np.flatnonzero(~(magnitude < 1e16)
                          | ((magnitude >= 1e-11) & (magnitude < 1e-4)))
    # cell i spans bounds[i] + 1 up to bounds[i + 1], inside the brackets
    bounds = np.concatenate(([0], commas, [len(text) - 1]))
    text = memoryview(text)
    pieces, end = [], 1
    for start, stop, value in zip((bounds[band] + 1).tolist(),
                                  bounds[band + 1].tolist(),
                                  values[band].tolist()):
        pieces += (text[end:start], repr(value).encode("ascii"))
        end = stop
    pieces.append(text[end:-1])
    return pieces


def float_cells(columns) -> np.ndarray:
    """(rows, columns) numpy str array of float64 columns, each cell as repr
    writes it, from one `_float_rows` pass over tables that share columns."""
    text = b"".join(_float_rows(columns)).decode("ascii")
    return np.array(text.replace("\n", ",").split(",")).reshape(
        -1, len(columns))


def _rows(columns, n_rows) -> list:
    """The table's rows, each ending in a newline, as buffers to join. A
    float run followed by nothing but constant columns is written as one
    block, the constants appended to every row at once; any other table
    joins its rows cell by cell, a float run's rows each counting as one
    cell."""
    if not n_rows:
        return []
    runs = [(kind, list(group)) for kind, group in groupby(columns, _kind)]
    if [kind for kind, _ in runs] in (["float"], ["float", "scalar"]):
        rows = [*_float_rows(runs[0][1]), b"\n"]
        suffix = "".join("," + format_value(c)
                         for _, group in runs[1:] for c in group)
        if suffix:
            return [b"".join(rows).replace(b"\n", f"{suffix}\n".encode())]
        return rows
    cells = []
    for kind, group in runs:
        if kind == "float":
            text = b"".join(_float_rows(group)).decode("ascii")
            cells.append(text.split("\n"))
        elif kind == "scalar":
            cells.append([",".join(map(format_value, group))] * n_rows)
        elif kind == "text":
            cells.extend(column.tolist() for column in group)
        else:
            cells.extend(map(format_value, column) for column in group)
    return [("\n".join(map(",".join, zip(*cells))) + "\n").encode("utf-8")]


class PublishedFile(type(Path())):
    """The path of a file `write_csv` published, with the SHA-256 hex
    digest of the bytes it published there."""

    sha256: str


def write_csv(path, header, columns) -> PublishedFile:
    """Write a CSV row-major, with deterministic formatting and a trailing
    newline. A column is a sequence or a scalar repeated on every row;
    sequences share one length, and scalars alone make one row."""
    lengths = {len(c) for c in columns if not _is_scalar(c)}
    if len(lengths) > 1 or len(columns) != len(header):
        raise ValueError(f"ragged table: {len(header)} header names, "
                         f"column lengths {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 1
    data = b"".join([(",".join(header) + "\n").encode("utf-8"),
                     *_rows(columns, n_rows)])
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
    except (FileNotFoundError, IsADirectoryError, ValueError, RecursionError):
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
    # ASCII only: the bytes of json.dumps(manifest, indent=2, sort_keys=True)
    return publish(path, orjson.dumps(
        manifest, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS) + b"\n")
