"""Tests for the repro.exec content-addressed result cache.

One entry per sweep: the key is stable across processes and changes with
every config field, the params, the experiment and the model version; a
damaged entry is a miss, is evicted, and the sweep recomputes the same
values (recompute, never crash).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.config import KB, PolyMemConfig
from repro.core.schemes import Scheme
from repro.exec import (
    ResultCache,
    cache_key,
    default_cache_dir,
    run_sweep,
)
from repro.exec import cache as cache_mod


@pytest.fixture
def config():
    return PolyMemConfig(512 * KB, p=2, q=4, scheme=Scheme.ReRo, read_ports=2)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestCacheKey:
    def test_deterministic_within_process(self, config):
        a = cache_key("dse.point", [config], {"validate": False})
        b = cache_key("dse.point", [config], {"validate": False})
        assert a == b
        assert len(a) == 64 and int(a, 16) >= 0  # sha256 hex

    def test_param_order_irrelevant(self, config):
        a = cache_key("x", [config], {"a": 1, "b": 2})
        b = cache_key("x", [config], {"b": 2, "a": 1})
        assert a == b

    def test_stable_across_processes_and_hash_seeds(self, config):
        """The key must be reproducible in a fresh interpreter — including
        under a different PYTHONHASHSEED (no dict-order/str-hash leakage)."""
        expected = cache_key("dse.point", [config], {"validate": True, "rows": 8})
        script = (
            "from repro.core.config import KB, PolyMemConfig\n"
            "from repro.core.schemes import Scheme\n"
            "from repro.exec import cache_key\n"
            "cfg = PolyMemConfig(512 * KB, p=2, q=4, scheme=Scheme.ReRo,"
            " read_ports=2)\n"
            "print(cache_key('dse.point', [cfg],"
            " {'validate': True, 'rows': 8}))\n"
        )
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == expected

    def test_invalidates_on_config_field_change(self, config):
        base = cache_key("dse.point", [config])
        variants = [
            config.with_(capacity_bytes=1024 * KB),
            config.with_(scheme=Scheme.ReCo),
            config.with_(read_ports=1),
            config.with_(p=2, q=8),
            config.with_(width_bits=32),
        ]
        keys = {cache_key("dse.point", [v]) for v in variants}
        assert base not in keys
        assert len(keys) == len(variants)  # every field participates
        # so does the order and the number of configs in the sweep
        other = config.with_(scheme=Scheme.ReCo)
        assert cache_key("x", [config, other]) != cache_key("x", [other, config])
        assert cache_key("x", [config]) != cache_key("x", [config, config])

    def test_invalidates_on_model_version_bump(self, config, monkeypatch):
        current = cache_key("dse.point", [config])
        monkeypatch.setattr(cache_mod, "MODEL_VERSION", "2099.01.0")
        assert current != cache_key("dse.point", [config])

    def test_invalidates_on_experiment_and_params(self, config):
        assert cache_key("dse.point", [config]) != cache_key(
            "maxpolymem.validate", [config]
        )
        assert cache_key("x", [config], {"rows": 8}) != cache_key(
            "x", [config], {"rows": 16}
        )

    def test_enum_and_mapping_canonicalization(self):
        a = cache_key("x", [{"scheme": Scheme.ReRo, "n": (1, 2)}])
        b = cache_key("x", [{"scheme": "ReRo", "n": [1, 2]}])
        assert a == b


def _each(configs, offset=0):
    return [{"v": c * 10 + offset, "seq": [c, None]} for c in configs]


def _sweep(cache, n=4):
    return run_sweep("t", range(n), _each, params={"offset": 1}, cache=cache)


def _entry_path(cache, n=4):
    return cache.path_for(cache_key("t", range(n), {"offset": 1}))


def _damage_wrong_key(cache, path):
    # another sweep's valid entry, padded to this sweep's length
    _sweep(cache, n=3)
    entry = json.loads(_entry_path(cache, n=3).read_text())
    entry["values"].append(entry["values"][-1])
    path.write_text(json.dumps(entry))


def _damage_wrong_length(cache, path):
    entry = json.loads(path.read_text())
    entry["values"].pop()
    path.write_text(json.dumps(entry))


DAMAGE = {
    "corrupted": lambda cache, path: path.write_text("\x00garbage"),
    "truncated": lambda cache, path: path.write_text(path.read_text()[:20]),
    "foreign-format": lambda cache, path: path.write_text(
        json.dumps({"format": "other/1", "value": 42})
    ),
    "wrong-key": _damage_wrong_key,
    "wrong-length": _damage_wrong_length,
}


class TestResultCache:
    def test_roundtrip(self, cache):
        key = cache_key("t", [1])
        assert cache.get(key, 1) is None
        values = [{"mbps": 15301.5, "nested": {"ok": True}, "seq": [1, 2, 3]}]
        cache.put(key, values)
        assert cache.path_for(key).is_file()
        assert cache.get(key, 1) == values

    def test_cached_none_distinct_from_miss(self, cache):
        key = cache_key("t", [2])
        cache.put(key, [None])
        assert cache.get(key, 1) == [None]

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_entry_is_an_evicted_miss(self, cache, damage):
        first = _sweep(cache)
        path = _entry_path(cache)
        DAMAGE[damage](cache, path)
        assert cache.get(cache_key("t", range(4), {"offset": 1}), 4) is None
        assert not path.exists()  # evicted
        again = _sweep(cache)
        assert not again.cached  # recomputed, no exception
        assert again.values == first.values
        assert _sweep(cache).cached  # and stored again

    def test_corrupted_entry_recovers(self, cache):
        key = cache_key("t", [3])
        cache.put(key, [{"v": 1}])
        path = cache.path_for(key)
        path.write_text("{ not json at all")
        assert cache.get(key, 1) is None
        assert not path.exists()  # evicted, next put recreates it
        cache.put(key, [{"v": 2}])
        assert cache.get(key, 1) == [{"v": 2}]

    def test_truncated_entry_recovers(self, cache):
        key = cache_key("t", [4])
        cache.put(key, [{"v": list(range(100))}])
        path = cache.path_for(key)
        path.write_text(path.read_text()[:20])
        assert cache.get(key, 1) is None

    def test_foreign_or_mismatched_entry_recovers(self, cache):
        key = cache_key("t", [5])
        other = cache_key("t", [6])
        cache.put(other, [{"v": "other"}])
        # copy the other entry under the wrong key: detected and evicted
        path = cache.path_for(key)
        path.write_text(cache.path_for(other).read_text())
        assert cache.get(key, 1) is None
        assert cache.get(other, 1) == [{"v": "other"}]
        # valid JSON without the envelope is also a miss
        path.write_text(json.dumps({"value": 42}))
        assert cache.get(key, 1) is None
        # so is the right envelope holding the wrong number of values
        assert cache.get(other, 2) is None

    def test_corrupted_entry_never_crashes_a_sweep(self, cache, config):
        from repro.dse.explore import evaluate_points_batch

        first = run_sweep("dse.point", [config], evaluate_points_batch, cache=cache)
        assert not first.cached
        cache.path_for(cache_key("dse.point", [config])).write_text("\x00garbage")
        again = run_sweep("dse.point", [config], evaluate_points_batch, cache=cache)
        assert not again.cached  # recomputed, no exception
        assert again.values == first.values

    def test_model_version_bump_misses(self, cache, monkeypatch):
        first = _sweep(cache)
        monkeypatch.setattr(cache_mod, "MODEL_VERSION", "2099.01.0")
        bumped = _sweep(cache)
        assert not bumped.cached
        assert bumped.values == first.values
        assert _sweep(cache).cached


class TestDefaultCacheDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"
