"""Tests for CSV formatting and manifest emission."""

import builtins
import hashlib
import io
import json
import math
import os

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fluxsim.cli import NOISE_HEADER, READOUT_HEADER, _noise_columns
from fluxsim.config import config_from_dict
from fluxsim.noise import McCurve
from fluxsim.output import (
    config_hash,
    format_value,
    write_csv,
    write_manifest,
)

MINIMAL = {"device": {"e_j_ghz": 4.75, "e_c_ghz": 1.25, "e_l_ghz": 1.5}}


def test_format_value_round_trips_floats():
    for x in (0.1, 1.0 / 3.0, 1e-17, -2.5e300, 0.0, 123.456):
        assert float(format_value(x)) == x
    assert format_value(3) == "3"
    assert format_value(True) == "True"
    assert format_value("ok") == "ok"


def test_format_value_coerces_numpy_scalars():
    assert format_value(float(np.float64(0.1))) == "0.1"
    assert format_value(np.float64(0.327)) == "0.327"
    assert "np." not in format_value(np.float64(1.5))


def test_write_csv_deterministic(tmp_path):
    columns = [[0.1, 2.0], ["ok", "resonant"]]
    p1 = write_csv(tmp_path / "a.csv", ["x", "status"], columns)
    p2 = write_csv(tmp_path / "b.csv", ["x", "status"], columns)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.endswith(b"\n")
    assert b1.decode().splitlines()[0] == "x,status"


def _old_format_value(value):
    """format_value as the row-at-a-time writer had it."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, int):
        return str(int(value))
    return str(value)


def _row_formatter_bytes(header, columns):
    """The CSV the row-at-a-time writer produced: every cell of a row
    through the old format_value, scalars repeated on every row."""
    n = max((len(c) for c in columns if not isinstance(c, (str, int, float))),
            default=1)
    cells = [c if not isinstance(c, (str, int, float)) else [c] * n
             for c in columns]
    lines = [",".join(header)]
    for row in zip(*cells):
        lines.append(",".join(_old_format_value(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
               2.225073858507201e-308, 1e300, -1e300, 1e-300, -1e-300]
# where repr's notation changes (1e-4, 1e16) or orjson's differs from it
# (1e-5, 1e-9), the lower edge of the re-formatted band (1e-11), and the
# neighbouring doubles of each
NOTATION_EDGES = [sign * y for x in (1e-11, 1e-9, 1e-5, 1e-4, 1e16)
                  for y in (math.nextafter(x, 0.0), x,
                            math.nextafter(x, math.inf))
                  for sign in (1.0, -1.0)]
SUBNORMALS = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)
FLOATS = (st.floats(width=64) | st.sampled_from(EDGE_FLOATS + NOTATION_EDGES)
          | SUBNORMALS)
TEXT = st.text(alphabet="abcxyz_ 0123456789.-", max_size=8)


def _columns(n):
    """One column of each kind, n rows: float64 array (contiguous, the real
    part of a complex array, every third element), float list, int array
    and list, bool array, str array and list, and scalars."""
    return st.one_of(
        st.lists(FLOATS, min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=float)),
        st.lists(FLOATS, min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=complex).real),
        st.lists(FLOATS, min_size=3 * n, max_size=3 * n).map(
            lambda v: np.array(v, dtype=float)[::3]),
        st.lists(FLOATS, min_size=n, max_size=n),
        st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.integers(), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
        st.lists(TEXT, min_size=n, max_size=n).map(np.array),
        st.lists(TEXT, min_size=n, max_size=n),
        FLOATS, st.integers(), st.booleans(), TEXT)


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    columns = draw(st.lists(_columns(n), min_size=1, max_size=6))
    return [f"c{i}" for i in range(len(columns))], columns


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tables())
def test_write_csv_matches_row_formatter(tmp_path, table):
    header, columns = table
    path = write_csv(tmp_path / "t.csv", header, columns)
    assert path.read_bytes() == _row_formatter_bytes(header, columns)


# doubles whose notation repr alone writes: non-finite, |x| >= 1e16 and the
# 1e-11 <= |x| < 1e-4 band, with the edges of each
BAND_FLOATS = (st.sampled_from([math.nan, math.inf, -math.inf]
                               + NOTATION_EDGES)
               | st.floats(1e-11, 1e-4) | st.floats(-1e-4, -1e-11)
               | st.floats(1e16, 1e308) | st.floats(-1e308, -1e16))
STATUS = st.sampled_from(["ok", "resonant"]) | st.text(
    alphabet="abcxyz_ -.0123456789\u00e9\u03c7", max_size=8)


def _text_table_columns(n):
    """A column of a table around its text columns, n rows: a numpy str
    array or a str list, a float64 array of band and ordinary doubles, an
    int range, or a scalar."""
    return st.one_of(
        st.lists(STATUS, min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=str)),
        st.lists(STATUS, min_size=n, max_size=n),
        st.lists(BAND_FLOATS | FLOATS, min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=float)),
        st.integers(-5, 5).map(lambda k: range(k, k + n)),
        BAND_FLOATS, st.integers(), STATUS)


@st.composite
def text_tables(draw):
    """A table with at least one numpy str column, anywhere in it."""
    n = draw(st.integers(0, 12))
    columns = draw(st.lists(_text_table_columns(n), max_size=5))
    text = np.array(draw(st.lists(STATUS, min_size=n, max_size=n)), dtype=str)
    columns.insert(draw(st.integers(0, len(columns))), text)
    return [f"c{i}" for i in range(len(columns))], columns


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text_tables())
def test_write_csv_text_columns_match_row_formatter(tmp_path, table):
    header, columns = table
    path = write_csv(tmp_path / "t.csv", header, columns)
    assert path.read_bytes() == _row_formatter_bytes(header, columns)


def test_write_csv_float_column_matches_repr_on_random_bits(tmp_path):
    # a seeded sweep of random 64-bit patterns: every exponent, sign and
    # non-finite value, with float.__repr__ as the reference
    bits = np.random.default_rng(20181).integers(0, 2**64, 500_000,
                                                 dtype=np.uint64)
    values = bits.view(np.float64)
    path = write_csv(tmp_path / "bits.csv", ["x"], [values])
    header, *cells = path.read_text().splitlines()
    expected = list(map(float.__repr__, values.tolist()))
    wrong = [(e, c) for e, c in zip(expected, cells) if e != c]
    assert (header, len(cells)) == ("x", len(expected))
    assert not wrong, f"{len(wrong)} cells differ from repr, e.g. {wrong[:5]}"


def _band_values(rng, n):
    """n doubles inside the cells repr re-formats: non-finite values,
    |x| >= 1e16 and 1e-11 <= |x| < 1e-4, with the notation edges."""
    edges = [x for x in NOTATION_EDGES
             if 1e-11 <= abs(x) < 1e-4 or abs(x) >= 1e16]
    pool = np.concatenate([[math.nan, math.inf, -math.inf], edges,
                           10.0 ** rng.uniform(-11.0, -4.0, 64),
                           -(10.0 ** rng.uniform(16.0, 300.0, 64))])
    return rng.choice(pool, n)


def _mixed_floats(rng, shape):
    """Ordinary doubles, random 64-bit patterns and band values, about a
    third each."""
    values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    pick = rng.integers(0, 3, shape)
    bits = rng.integers(0, 2**64, shape, dtype=np.uint64).view(np.float64)
    values[pick == 1] = bits[pick == 1]
    values[pick == 2] = _band_values(rng, int(np.sum(pick == 2)))
    return values


def test_write_csv_wide_float_table_matches_row_formatter(tmp_path):
    # the readout tables' shape, 5 001 rows of 9 float64 columns, all but
    # the first strided views; band cells open rows, close rows and close
    # the table
    rng = np.random.default_rng(32)
    values = _mixed_floats(rng, (5001, 9))
    values[[0, 7, 4999], 0] = _band_values(rng, 3)
    values[[1, 7, 5000], 8] = _band_values(rng, 3)
    values[2] = _band_values(rng, 9)
    stored = values.astype(complex)
    columns = [values[:, 0].copy(), stored[:, 1].real, *values[:, 2:].T]
    header = [f"c{i}" for i in range(9)]
    path = write_csv(tmp_path / "wide.csv", header, columns)
    assert path.read_bytes() == _row_formatter_bytes(header, columns)


# a float run is split or flanked by constant (c) and per-row text (t)
# columns at the start, in the middle and at the end
@pytest.mark.parametrize("layout", ["cFF", "FcF", "FFcc", "tFF", "FtF",
                                    "FFt", "ctFcFtc", "FcFcF"])
def test_write_csv_float_runs_split_by_other_columns(tmp_path, layout):
    rng = np.random.default_rng(sum(map(ord, layout)))
    n = 301
    constants = iter([1e-5, 7, "GHz", -0.0, 2**70, "ok", 1.5e16])
    columns = []
    for kind in layout:
        if kind == "F":
            # a band cell first, an ordinary one last
            column = _mixed_floats(rng, n)
            column[[0, n - 1]] = _band_values(rng, 1)[0], 0.5
        elif kind == "t":
            column = rng.choice(np.array(["ok", "resonant", "x y"]), n)
        else:
            column = next(constants)
        columns.append(column)
    header = [f"c{i}" for i in range(len(columns))]
    path = write_csv(tmp_path / "split.csv", header, columns)
    assert path.read_bytes() == _row_formatter_bytes(header, columns)


def test_write_csv_dumps_each_float_run_once(tmp_path, monkeypatch):
    dumps, real_dumps = [], orjson.dumps

    def counting(value, **kwargs):
        dumps.append(value.size)
        return real_dumps(value, **kwargs)

    # the columns cli.cmd_readout and cli._noise_columns pass: a readout
    # table's output fields are views into complex arrays
    rng = np.random.default_rng(5)
    field = (rng.standard_normal((2, 5001))
             + 1j * rng.standard_normal((2, 5001)))
    readout = [np.linspace(0.0, 250.0, 5001), *rng.standard_normal((4, 5001)),
               field[0].real, field[0].imag, field[1].real, field[1].imag]
    curve = McCurve(np.linspace(0.0, 250.0, 5001), np.zeros((16, 5001)),
                    np.ones(16, dtype=bool), *rng.standard_normal((2, 5001)),
                    16, 0, 1e-2, 1234)
    monkeypatch.setattr("fluxsim.output.orjson.dumps", counting)
    for header, columns in ((READOUT_HEADER, readout),
                            (NOISE_HEADER, _noise_columns(curve))):
        path = write_csv(tmp_path / "t.csv", header, columns)
        assert path.read_bytes() == _row_formatter_bytes(header, columns)
    # one dump per table, of all its 9 x 5 001 and 3 x 5 001 doubles
    assert dumps == [9 * 5001, 3 * 5001], dumps


def test_write_csv_empty_table_is_header_only(tmp_path):
    path = write_csv(tmp_path / "e.csv", ["x", "status"],
                     [np.array([], dtype=float), []])
    assert path.read_bytes() == b"x,status\n"


def test_write_csv_scalar_column_repeats(tmp_path):
    path = write_csv(tmp_path / "s.csv", ["x", "seed"],
                     [np.array([0.5, -0.0]), 7])
    assert path.read_text() == "x,seed\n0.5,7\n-0.0,7\n"
    one = write_csv(tmp_path / "one.csv", ["a", "b"], [0.25, "ok"])
    assert one.read_text() == "a,b\n0.25,ok\n"


def test_write_csv_rejects_ragged_tables(tmp_path):
    with pytest.raises(ValueError, match=r"column lengths \[2, 3\]"):
        write_csv(tmp_path / "r.csv", ["x", "y"],
                  [np.array([1.0, 2.0]), [1, 2, 3]])
    with pytest.raises(ValueError, match="1 header names"):
        write_csv(tmp_path / "r.csv", ["x"], [[1.0], [2.0]])
    assert not (tmp_path / "r.csv").exists()


def test_config_hash_stable_under_key_order():
    cfg = config_from_dict(MINIMAL)
    raw = json.loads(json.dumps(cfg.raw))
    reordered = {k: raw[k] for k in reversed(list(raw))}
    cfg2 = config_from_dict(reordered)
    assert config_hash(cfg) == config_hash(cfg2)


def test_manifest_lists_files_with_hashes(tmp_path):
    cfg = config_from_dict({**MINIMAL, "noise": {"seed": 4321},
                            "out_dir": str(tmp_path)})
    f1 = write_csv(tmp_path / "one.csv", ["x"], [[1.0]])
    mpath = write_manifest(tmp_path, [(f1, "one")], cfg)
    manifest = json.loads(mpath.read_text())
    assert manifest["seed"] == 4321  # the config's noise seed
    assert manifest["config_hash"] == config_hash(cfg)
    assert manifest["defaults_used"] == list(cfg.defaults_used)
    (rec,) = manifest["files"]
    assert rec["name"] == "one.csv"
    assert rec["schema"] == "one"
    assert rec["sha256"] == hashlib.sha256(f1.read_bytes()).hexdigest()


def test_manifest_bytes_are_the_indented_sorted_json_dump(tmp_path):
    cfg = config_from_dict({**MINIMAL, "out_dir": str(tmp_path)})
    files = [(write_csv(tmp_path / f"{name}.csv", ["x"], [[1.0]]), name)
             for name in ("two", "one")]
    data = write_manifest(tmp_path, files, cfg).read_bytes()
    doc = json.loads(data)
    assert doc["defaults_used"] == list(cfg.defaults_used)
    assert data == (json.dumps(doc, indent=2, sort_keys=True)
                    + "\n").encode("utf-8")


def test_manifest_opens_no_output_file(tmp_path, monkeypatch):
    cfg = config_from_dict({**MINIMAL, "out_dir": str(tmp_path)})
    files = [(write_csv(tmp_path / f"{name}.csv", ["x"], [[value]]), name)
             for name, value in (("one", 1.0), ("two", 2.0))]
    want = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path, _ in files}
    opened = []

    def recording(open_fn):
        def wrapper(file, *args, **kwargs):
            opened.append(os.fspath(file))
            return open_fn(file, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(builtins, "open", recording(builtins.open))
    monkeypatch.setattr(io, "open", recording(io.open))
    monkeypatch.setattr(os, "open", recording(os.open))
    mpath = write_manifest(tmp_path, files, cfg)
    monkeypatch.undo()
    assert opened, "the recorder saw no open at all"
    assert not [f for f in opened if f.endswith(".csv")], opened
    got = {rec["name"]: rec["sha256"]
           for rec in json.loads(mpath.read_text())["files"]}
    assert got == want


def test_deeply_nested_previous_manifest_is_treated_as_absent(tmp_path):
    cfg = config_from_dict({**MINIMAL, "out_dir": str(tmp_path)})
    # nested far deeper than a JSON parser recurses
    (tmp_path / "manifest.json").write_text("[" * 200000 + "]" * 200000)
    f1 = write_csv(tmp_path / "one.csv", ["x"], [[1.0]])
    mpath = write_manifest(tmp_path, [(f1, "one")], cfg)
    names = [r["name"] for r in json.loads(mpath.read_text())["files"]]
    assert names == ["one.csv"]


def test_manifest_merges_across_subcommands(tmp_path):
    cfg = config_from_dict({**MINIMAL, "noise": {"seed": 1},
                            "out_dir": str(tmp_path)})
    f1 = write_csv(tmp_path / "one.csv", ["x"], [[1.0]])
    write_manifest(tmp_path, [(f1, "one")], cfg)
    f2 = write_csv(tmp_path / "two.csv", ["x"], [[2.0]])
    mpath = write_manifest(tmp_path, [(f2, "two")], cfg)
    names = [r["name"] for r in json.loads(mpath.read_text())["files"]]
    assert names == ["one.csv", "two.csv"]


def test_manifest_reset_when_config_changes(tmp_path):
    cfg1 = config_from_dict({**MINIMAL, "noise": {"seed": 1},
                             "out_dir": str(tmp_path)})
    f1 = write_csv(tmp_path / "one.csv", ["x"], [[1.0]])
    write_manifest(tmp_path, [(f1, "one")], cfg1)
    cfg2 = config_from_dict({**MINIMAL, "noise": {"seed": 1},
                             "out_dir": str(tmp_path), "flux": 0.6})
    f2 = write_csv(tmp_path / "two.csv", ["x"], [[2.0]])
    mpath = write_manifest(tmp_path, [(f2, "two")], cfg2)
    names = [r["name"] for r in json.loads(mpath.read_text())["files"]]
    assert names == ["two.csv"]  # stale listing from the old config dropped
