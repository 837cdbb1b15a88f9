"""ResultCache: round-trip fidelity, key discipline, corruption safety."""

import json
import pickle

import numpy as np
import pytest

from repro.parallel import CACHE_FORMAT, ResultCache, cache_key


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestCacheKey:
    def test_stable_and_order_independent(self):
        a = cache_key("e2", {"n_chips": 8, "seed": 42}, version="1.0")
        b = cache_key("e2", {"seed": 42, "n_chips": 8}, version="1.0")
        assert a == b
        assert len(a) == 64 and int(a, 16) >= 0

    def test_sensitive_to_every_input(self):
        base = cache_key("e2", {"seed": 42}, version="1.0")
        assert cache_key("e3", {"seed": 42}, version="1.0") != base
        assert cache_key("e2", {"seed": 43}, version="1.0") != base
        assert cache_key("e2", {"seed": 42}, version="1.1") != base

    def test_version_stale_means_new_key(self, cache):
        """A new release can never be served a previous release's physics."""
        old = cache_key("e2", {"seed": 1}, version="0.9")
        cache.put(old, {"x": 1})
        assert cache.get(cache_key("e2", {"seed": 1}, version="1.0")) is None

    def test_empty_experiment_rejected(self):
        with pytest.raises(ValueError):
            cache_key("", {"seed": 1})


class TestRoundTrip:
    def test_miss_then_hit_identical_payload(self, cache):
        key = cache_key("e2", {"seed": 7}, version="1.0")
        assert cache.get(key) is None
        payload = {
            "responses": np.arange(24, dtype=np.uint8).reshape(4, 6),
            "flips": [0.0, 3.25, 7.5],
            "label": "e2",
        }
        cache.put(key, payload, meta={"experiment": "e2"})
        got = cache.get(key)
        assert np.array_equal(got["responses"], payload["responses"])
        assert got["responses"].dtype == payload["responses"].dtype
        assert got["flips"] == payload["flips"]
        assert got["label"] == "e2"
        assert key in cache
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1}

    def test_sidecar_records_audit_meta(self, cache):
        key = cache_key("e5", {"seed": 9}, version="1.0")
        path = cache.put(key, [1, 2, 3], meta={"experiment": "e5"})
        sidecar = json.loads(path.with_suffix(".json").read_text())
        assert sidecar["format"] == CACHE_FORMAT
        assert sidecar["meta"]["experiment"] == "e5"
        assert sidecar["payload_bytes"] > 0

    def test_overwrite_updates_entry(self, cache):
        key = cache_key("e2", {"seed": 1}, version="1.0")
        cache.put(key, "old")
        cache.put(key, "new")
        assert cache.get(key) == "new"


class TestCorruptionSafety:
    def _store(self, cache):
        key = cache_key("e2", {"seed": 5}, version="1.0")
        cache.put(key, {"value": 123})
        return key

    def test_corrupted_payload_warns_and_misses(self, cache):
        key = self._store(cache)
        (cache.root / f"{key}.pkl").write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="unusable"):
            assert cache.get(key) is None

    def test_tampered_but_valid_pickle_fails_digest(self, cache):
        """A well-formed pickle with the wrong bytes is still rejected."""
        key = self._store(cache)
        (cache.root / f"{key}.pkl").write_bytes(pickle.dumps({"value": 999}))
        with pytest.warns(RuntimeWarning, match="SHA-256"):
            assert cache.get(key) is None

    def test_bad_sidecar_warns_and_misses(self, cache):
        key = self._store(cache)
        (cache.root / f"{key}.json").write_text("{broken json")
        with pytest.warns(RuntimeWarning, match="unusable"):
            assert cache.get(key) is None

    def test_future_format_warns_and_misses(self, cache):
        key = self._store(cache)
        meta_path = cache.root / f"{key}.json"
        meta = json.loads(meta_path.read_text())
        meta["format"] = CACHE_FORMAT + 1
        meta_path.write_text(json.dumps(meta))
        with pytest.warns(RuntimeWarning, match="format"):
            assert cache.get(key) is None

    def test_missing_sidecar_is_silent_miss(self, cache):
        """Half an entry (payload only) is a plain miss — only *present
        but unusable* entries warn."""
        key = self._store(cache)
        (cache.root / f"{key}.json").unlink()
        assert cache.get(key) is None

    def test_recompute_after_corruption_repairs(self, cache):
        key = self._store(cache)
        (cache.root / f"{key}.pkl").write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning):
            assert cache.get(key) is None
        cache.put(key, {"value": 123})
        assert cache.get(key) == {"value": 123}


def _sidecar_truncated(meta_text, other_meta):
    return meta_text[: len(meta_text) // 2]


def _sidecar_not_an_object(meta_text, other_meta):
    return "[]"


def _sidecar_wrong_digest(meta_text, other_meta):
    meta = json.loads(meta_text)
    meta["payload_sha256"] = "0" * 64
    return json.dumps(meta)


def _sidecar_no_digest(meta_text, other_meta):
    meta = json.loads(meta_text)
    del meta["payload_sha256"]
    return json.dumps(meta)


def _sidecar_from_other_entry(meta_text, other_meta):
    return other_meta


class TestCorruptSidecar:
    """A damaged ``.json`` sidecar must warn and miss, never hand back
    data it cannot vouch for; the recomputed result then repairs it."""

    @pytest.mark.parametrize(
        "corrupt",
        [
            _sidecar_truncated,
            _sidecar_not_an_object,
            _sidecar_wrong_digest,
            _sidecar_no_digest,
            _sidecar_from_other_entry,
        ],
    )
    def test_warns_misses_and_recompute_repairs(self, cache, corrupt):
        key = cache_key("e2", {"seed": 5}, version="1.0")
        other = cache_key("e2", {"seed": 6}, version="1.0")
        cache.put(key, {"value": 123})
        cache.put(other, {"value": 456})
        meta_path = cache.root / f"{key}.json"
        meta_path.write_text(
            corrupt(
                meta_path.read_text(), (cache.root / f"{other}.json").read_text()
            )
        )
        with pytest.warns(RuntimeWarning, match="unusable"):
            assert cache.get(key) is None
        assert cache.misses == 1 and cache.hits == 0
        cache.put(key, {"value": 123})
        assert cache.get(key) == {"value": 123}

    @pytest.mark.parametrize(
        "field, value",
        [("shape", [3, 3]), ("dtype", "<i4"), ("kind", "pickle"), (None, None)],
    )
    def test_array_sidecar(self, cache, field, value):
        key = cache_key("spill", {"seed": 1}, version="1.0")
        arr = cache.create_array(key, (4, 2))
        arr[:] = np.arange(8.0).reshape(4, 2)
        arr.flush()
        del arr
        cache.commit_array(key)
        meta_path = cache.root / f"{key}.json"
        if field is None:
            meta_path.write_text("{broken")
        else:
            meta = json.loads(meta_path.read_text())
            meta[field] = value
            meta_path.write_text(json.dumps(meta))
        with pytest.warns(RuntimeWarning, match="unusable"):
            assert cache.open_array(key) is None

    def test_cli_recomputes_identical_tables(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        argv = ["run", "e3", "--chips", "4", "--ros", "16", "--seed", "3",
                "--cache", str(cache_dir)]
        assert main(argv) == 0
        first = capsys.readouterr().out.split("\ncache:")[0]
        for sidecar in cache_dir.glob("*.json"):
            sidecar.write_text(_sidecar_wrong_digest(sidecar.read_text(), ""))
        with pytest.warns(RuntimeWarning, match="unusable"):
            assert main(argv) == 0
        second = capsys.readouterr().out
        assert "cache hit" not in second
        assert second.split("\ncache:")[0] == first
