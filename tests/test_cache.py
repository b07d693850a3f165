"""Tests for the content-addressed result cache."""

import json

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

KEY = {"op": "chi", "f": 0.5, "device": {"e_j_ghz": 4.75}}


def test_put_then_get_round_trips(tmp_path):
    value = {"chi": 0.527, "status": "ok"}
    cache_put(tmp_path, KEY, value)
    assert cache_get(tmp_path, KEY) == value


def test_absent_entry_is_a_miss(tmp_path):
    assert cache_get(tmp_path, {"op": "nothing"}) is None


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
    assert cache_get(tmp_path, KEY) is None


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
        assert cache_get(tmp_path, KEY) is None
        assert path.is_file()  # not quarantined, just ignored
    cache_put(tmp_path, KEY, 7)
    assert json.loads(path.read_text(encoding="utf-8"))["numerics"] == NUMERICS_TAG
    assert cache_get(tmp_path, KEY) == 7


def test_corrupt_entry_quarantined(tmp_path):
    path = entry_path(tmp_path, KEY)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{not json", encoding="utf-8")
    assert cache_get(tmp_path, KEY) is None
    assert not path.is_file()
    assert path.with_suffix(".corrupt").is_file()
    # a fresh write recovers the slot
    cache_put(tmp_path, KEY, 7)
    assert cache_get(tmp_path, KEY) == 7


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

    first = _cached(tmp_path, KEY, compute)
    assert path.with_suffix(".corrupt").read_text(encoding="utf-8") == text
    # recomputed and stored again: the next read is a hit
    again = _cached(tmp_path, KEY, compute)
    assert len(computed) == 1
    assert first["chi"].tolist()[0] == again["chi"].tolist()[0] == 0.25
    assert cache_get(tmp_path, KEY) == {"chi": [0.25, None]}


def test_overwrite_wins(tmp_path):
    cache_put(tmp_path, KEY, 1)
    cache_put(tmp_path, KEY, 2)
    assert cache_get(tmp_path, KEY) == 2
