"""Tests for the content-addressed result cache."""

import base64
import json
import math
import sys

import numpy as np
import pytest

from fluxsim.cache import (
    NUMERICS_TAG,
    cache_get,
    cache_put,
    canonical_key_text,
    entry_path,
    key_hash,
)
from fluxsim.cli import _cached

from conftest import b64

KEY = {"op": "chi", "f": 0.5, "device": {"e_j_ghz": 4.75}}
ONE = {"chi": 1}


def _bits(arrays):
    """{name: the float64 bytes of each array}: equal exactly when every
    value is the same double, NaN payload and the sign of zero included."""
    return {name: np.asarray(values, dtype=float).tobytes()
            for name, values in arrays.items()}


def test_put_then_get_round_trips(tmp_path):
    value = {"chi": np.array([0.527, math.nan]), "omega_q": np.array([6.5])}
    cache_put(tmp_path, KEY, value)
    got = cache_get(tmp_path, KEY, {"chi": 2, "omega_q": 1})
    assert _bits(got) == _bits(value)
    assert list(got) == ["chi", "omega_q"]


# NaN (with a payload too), signed zeros and infinities, the smallest
# subnormals and the largest finite doubles
EDGE_BITS = [math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324,
             -5e-324, 2.225073858507201e-308, -2.225073858507201e-308,
             sys.float_info.max, -sys.float_info.max, sys.float_info.min]


def test_round_trip_is_bit_exact(tmp_path):
    payload_nan = np.array([0x7FF8_0000_DEAD_BEEF], np.uint64).view(float)
    random_bits = np.random.default_rng(38).integers(
        0, 2**64, 4096, dtype=np.uint64).view(float)
    values = {"edges": np.array(EDGE_BITS), "payload": payload_nan,
              "random": random_bits}
    cache_put(tmp_path, KEY, values)
    got = cache_get(tmp_path, KEY, {k: v.size for k, v in values.items()})
    assert _bits(got) == _bits(values)
    # the caller owns what it is handed
    assert all(a.flags.writeable and a.flags.owndata and a.dtype == float
               for a in got.values())
    entry = json.loads(entry_path(tmp_path, KEY).read_text(encoding="utf-8"))
    assert base64.b64decode(entry["value"]["edges"]) == np.array(
        EDGE_BITS, "<f8").tobytes()


def test_absent_entry_is_a_miss(tmp_path):
    assert cache_get(tmp_path, {"op": "nothing"}, ONE) is None


def test_canonical_key_is_order_insensitive():
    a = {"x": 1, "y": {"b": 2, "a": 3}}
    b = {"y": {"a": 3, "b": 2}, "x": 1}
    assert canonical_key_text(a) == canonical_key_text(b)
    assert key_hash(a) == key_hash(b)


def test_key_collision_treated_as_miss(tmp_path):
    # forge an entry at KEY's path whose stored key differs (simulated
    # hash collision): the deep compare must reject it
    path = entry_path(tmp_path, KEY)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "numerics": NUMERICS_TAG,
        "key": {"op": "chi", "f": 0.6},
        "value": 123,
    }), encoding="utf-8")
    assert cache_get(tmp_path, KEY, ONE) is None
    assert path.is_file()  # not quarantined: never decoded


def test_numerics_tag_mismatch_is_a_miss(tmp_path):
    # the same key, written by other code: with another tag, with no tag,
    # or in the layout of the code before the source-digest tag (a schema
    # version beside that code's tag)
    path = entry_path(tmp_path, KEY)
    path.parent.mkdir(parents=True, exist_ok=True)
    for tagged in ({"numerics": "0" * 64}, {},
                   {"schema_version": 5, "numerics": "1" * 64}):
        path.write_text(json.dumps({**tagged, "key": KEY, "value": 123}),
                        encoding="utf-8")
        assert cache_get(tmp_path, KEY, ONE) is None
        assert path.is_file()  # not quarantined, just ignored
    cache_put(tmp_path, KEY, {"chi": [7.0]})
    assert json.loads(path.read_text(encoding="utf-8"))["numerics"] == NUMERICS_TAG
    assert cache_get(tmp_path, KEY, ONE)["chi"].tolist() == [7.0]


def test_an_older_layout_is_a_plain_miss(tmp_path):
    # the float lists, NaN as null, that code before the byte encoding
    # wrote, under its own tag: a miss, recomputed and overwritten, never
    # quarantined
    path = entry_path(tmp_path, KEY)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"numerics": "1" * 64, "key": KEY,
                                "value": {"chi": [0.25, None]}}),
                    encoding="utf-8")
    assert cache_get(tmp_path, KEY, {"chi": 2}) is None
    assert path.is_file()
    got = _cached(tmp_path, KEY, {"chi": 2},
                  lambda: {"chi": [0.5, math.nan]})
    assert _bits(got) == _bits({"chi": [0.5, math.nan]})
    assert _bits(cache_get(tmp_path, KEY, {"chi": 2})) == _bits(got)
    assert not list(tmp_path.glob("*.corrupt"))


# (label, the value of an entry under this code's tag and KEY), for a
# caller that expects {"chi": 2 values}
MALFORMED = [
    ("short", {"chi": b64([0.25])}),
    ("long", {"chi": b64([0.25, 0.5, 0.75])}),
    ("missing name", {"omega_q": b64([0.25, 0.5])}),
    ("extra name", {"chi": b64([0.25, 0.5]), "omega_q": b64([0.25, 0.5])}),
    ("not base64", {"chi": "not base64!"}),
    ("not whole doubles", {"chi": base64.b64encode(b"\0" * 12).decode()}),
    ("non-ASCII", {"chi": "\u03c7" * 16}),
    ("float list", {"chi": [0.25, None]}),
    ("number", {"chi": 0.25}),
    ("list", ["chi"]),
    ("text", "chi"),
    ("null", None),
]


@pytest.mark.parametrize("value", [v for _, v in MALFORMED],
                         ids=[label for label, _ in MALFORMED])
def test_a_malformed_entry_of_this_code_is_quarantined(tmp_path, value):
    # tagged and keyed as this code writes it, but its arrays do not decode
    # to the names and sizes the caller computes: quarantined and recomputed
    path = entry_path(tmp_path, KEY)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps({"numerics": NUMERICS_TAG, "key": KEY, "value": value})
    path.write_text(text, encoding="utf-8")
    got = _cached(tmp_path, KEY, {"chi": 2}, lambda: {"chi": [0.5, -0.0]})
    assert _bits(got) == _bits({"chi": [0.5, -0.0]})
    assert path.with_suffix(".corrupt").read_text(encoding="utf-8") == text
    assert _bits(cache_get(tmp_path, KEY, {"chi": 2})) == _bits(got)


def test_corrupt_entry_quarantined(tmp_path):
    path = entry_path(tmp_path, KEY)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{not json", encoding="utf-8")
    assert cache_get(tmp_path, KEY, ONE) is None
    assert not path.is_file()
    assert path.with_suffix(".corrupt").is_file()
    # a fresh write recovers the slot
    cache_put(tmp_path, KEY, {"chi": [7.0]})
    assert cache_get(tmp_path, KEY, ONE)["chi"].tolist() == [7.0]


@pytest.mark.parametrize("text", ["[" * 200000, "[" * 200000 + "]" * 200000],
                         ids=["unclosed", "closed"])
def test_deeply_nested_entry_is_quarantined_and_recomputed(tmp_path, text):
    # nested far deeper than a JSON parser recurses
    path = entry_path(tmp_path, KEY)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    computed = []

    def compute():
        computed.append(KEY)
        return {"chi": [0.25, float("nan")]}

    first = _cached(tmp_path, KEY, {"chi": 2}, compute)
    assert path.with_suffix(".corrupt").read_text(encoding="utf-8") == text
    # recomputed and stored again: the next read is a hit
    again = _cached(tmp_path, KEY, {"chi": 2}, compute)
    assert len(computed) == 1
    assert first["chi"].tolist()[0] == again["chi"].tolist()[0] == 0.25
    assert _bits(cache_get(tmp_path, KEY, {"chi": 2})) == _bits(
        {"chi": [0.25, math.nan]})


def test_overwrite_wins(tmp_path):
    cache_put(tmp_path, KEY, {"chi": [1.0]})
    cache_put(tmp_path, KEY, {"chi": [2.0]})
    assert cache_get(tmp_path, KEY, ONE)["chi"].tolist() == [2.0]
