"""Unit tests of the serving result store (``repro.serve.store``).

What these pin down, per the store's contract:

* **key distinctness** — every ``CompilerOptions`` flag flip yields a
  distinct backend stage key (the serving extension of the
  ``test_compiler_options.py`` audit), while the option-independent
  stages share keys across flag flips — which is exactly the partial-hit
  property;
* **integrity** — a corrupted, truncated, or cross-key-substituted
  entry is detected on ``get``, counted, dropped, and never returned;
  the caller's recompute repairs the store;
* **eviction** — the size cap is honored, pinned (in-flight) entries
  are never evicted, unpinned entries go oldest-first.
"""

from __future__ import annotations

import inspect
import itertools
import json

import pytest

from repro import obs
from repro.driver import CompilerOptions
from repro.serve import (STAGES, ResultStore, ServeRequest, options_digest,
                         run_pipeline, source_digest, stage_key)

FLAGS = list(inspect.signature(CompilerOptions).parameters)


def _options_with(enabled: tuple[str, ...]) -> CompilerOptions:
    defaults = {name: parameter.default for name, parameter
                in inspect.signature(CompilerOptions).parameters.items()}
    return CompilerOptions(**{name: not defaults[name] if name in enabled
                              else defaults[name] for name in defaults})


@pytest.fixture()
def metrics():
    obs.enable()
    obs.reset()
    yield obs
    obs.disable()
    obs.reset()


def _counter(name: str) -> float:
    return obs.snapshot()["counters"].get(name, 0)


class TestKeys:
    def test_every_flag_flip_changes_the_backend_key(self):
        """Pairwise flag-flip audit, lifted to serving keys."""
        src = source_digest("int main(void){return 0;}")
        combinations = [()] + [
            combo for r in (1, 2)
            for combo in itertools.combinations(FLAGS, r)]
        keys = {}
        for combo in combinations:
            key = stage_key("backend", src,
                            options_digest(_options_with(combo)))
            assert key not in keys, \
                f"options {combo} and {keys[key]} alias backend key {key}"
            keys[key] = combo

    def test_option_independent_stages_share_keys_across_flags(self):
        """The structural fact behind near-repeat partial hits."""
        source = "int main(void){return 0;}"
        for combo in [()] + [(f,) for f in FLAGS]:
            request = ServeRequest(source, options=_options_with(combo))
            keys = request.keys()
            baseline = ServeRequest(source).keys()
            for stage in ("frontend", "analyze", "check"):
                assert keys[stage] == baseline[stage]
            if combo:
                assert keys["backend"] != baseline["backend"]

    def test_source_digest_ignores_filename_but_not_macros(self):
        source = "int main(void){return N;}"
        assert ServeRequest(source, filename="a.c").keys() \
            == ServeRequest(source, filename="b.c").keys()
        assert source_digest(source, {"N": "1"}) \
            != source_digest(source, {"N": "2"})
        assert source_digest(source, {"N": "1"}) != source_digest(source)

    def test_key_embeds_the_stage_name(self):
        src = source_digest("x")
        names = {stage_key(stage, src) for stage in STAGES}
        assert len(names) == len(STAGES)


class TestRoundTrip:
    @pytest.mark.parametrize("root", ["memory", "disk"])
    def test_json_and_pickle_codecs(self, root, tmp_path, metrics):
        store = ResultStore(None if root == "memory" else str(tmp_path))
        payload = {"frame_sizes": {"main": 16}, "metric": {"main": 20}}
        store.put("backend:abc:def", payload)
        assert store.get("backend:abc:def") == payload
        blob = {"nested": (1, 2, {"three"})}        # not JSON-able
        store.put("frontend:abc", blob, codec="pickle")
        assert store.get("frontend:abc", codec="pickle") == blob
        assert _counter("store.backend.hits") == 1
        assert _counter("store.frontend.hits") == 1
        assert _counter("store.poisoned") == 0

    @pytest.mark.parametrize("root", ["memory", "disk"])
    def test_miss_is_counted_per_stage(self, root, tmp_path, metrics):
        store = ResultStore(None if root == "memory" else str(tmp_path))
        assert store.get("analyze:nothing") is None
        assert _counter("store.analyze.misses") == 1
        assert _counter("store.misses") == 1


class TestPoisonDetection:
    """A poisoned entry is dropped and recomputed, never returned."""

    @pytest.mark.parametrize("root", ["memory", "disk"])
    def test_corrupted_payload(self, root, tmp_path, metrics):
        store = ResultStore(None if root == "memory" else str(tmp_path))
        key = "backend:abc:def"
        store.put(key, {"value": 1})
        entry = json.loads(store.raw_read(key))
        entry["payload"] = {"value": 2}             # flip without re-hashing
        store.raw_write(key, json.dumps(entry))
        assert store.get(key) is None
        assert _counter("store.poisoned") == 1
        # The entry is gone: a fresh put repairs the store.
        assert key not in store
        store.put(key, {"value": 1})
        assert store.get(key) == {"value": 1}

    def test_truncated_entry(self, tmp_path, metrics):
        store = ResultStore(str(tmp_path))
        store.put("check:abc", {"ok": True})
        text = store.raw_read("check:abc")
        store.raw_write("check:abc", text[:len(text) // 2])
        assert store.get("check:abc") is None
        assert _counter("store.poisoned") == 1

    def test_cross_key_substitution(self, metrics):
        # A valid entry written under another key must not be served:
        # the embedded key is part of the integrity check.
        store = ResultStore()
        store.put("analyze:aaa", {"certificate": "A"})
        store.put("analyze:bbb", {"certificate": "B"})
        store.raw_write("analyze:aaa", store.raw_read("analyze:bbb"))
        assert store.get("analyze:aaa") is None
        assert _counter("store.poisoned") == 1
        assert store.get("analyze:bbb") == {"certificate": "B"}

    def test_wrong_codec_is_poison(self, metrics):
        store = ResultStore()
        store.put("frontend:abc", {"x": 1}, codec="pickle")
        assert store.get("frontend:abc", codec="json") is None
        assert _counter("store.poisoned") == 1

    def test_pipeline_recomputes_through_poison(self, metrics):
        # End to end: poison the analyze entry of a warmed pipeline and
        # re-run — the stage recomputes and the answer is unchanged.
        store = ResultStore()
        request = ServeRequest("int f(void) { return 1; } "
                               "int main(void) { return f(); }")
        first = run_pipeline(request, store)
        key = request.keys()["analyze"]
        store.raw_write(key, store.raw_read(key)[:-10])
        second = run_pipeline(request, store)
        assert second["stages"]["analyze"] == "miss"
        assert second["stages"]["frontend"] == "hit"
        assert second["bounds"] == first["bounds"]
        assert _counter("store.poisoned") == 1


class TestCodegenArtifact:
    """Stored generated code runs only on the ASM program it was made for."""

    SOURCE = ("int leaf(int x) { int a[6]; a[x % 6] = x; return a[0]; }\n"
              "int main(void) { return leaf(4); }\n")

    def test_artifact_for_another_program_is_regenerated(self, metrics,
                                                        monkeypatch):
        from repro.asm import codegen
        from repro.serve.pipeline import reset_warm

        store = ResultStore()
        request = ServeRequest(self.SOURCE, probe=True)
        baseline = run_pipeline(request, store)
        # Code generated for a different ASM program of the same source
        # and options, with valid version and source tags: what a daemon
        # whose backend compiled them differently would have persisted.
        other = ServeRequest(self.SOURCE, probe=True,
                             options=CompilerOptions(spill_everything=True))
        run_pipeline(other, store)
        foreign = store.get(other.keys()["codegen"])
        key = request.keys()["codegen"]
        assert foreign["source"] != store.get(key)["source"]
        store.put(key, foreign)

        installed = []
        monkeypatch.setattr(codegen, "install_source",
                            lambda program, source: installed.append(source))
        reset_warm()   # a restarted daemon has no warm programs
        response = run_pipeline(request, store)

        assert installed == []
        assert response["probe"]["codegen"] == "generated"
        assert response["probe"]["converged"]
        assert response["probe"]["measured_bytes"] \
            == baseline["probe"]["measured_bytes"]
        assert _counter("serve.codegen.artifact.stale") == 1
        replacement = store.get(key)
        assert replacement["asm_sha256"] != foreign["asm_sha256"]
        assert replacement["source"] != foreign["source"]


class TestEviction:
    """Size-capped, pin-aware, oldest-first."""

    def _filled(self, max_bytes: int) -> ResultStore:
        store = ResultStore(max_bytes=max_bytes)
        return store

    def test_cap_is_honored(self, metrics):
        store = ResultStore(max_bytes=2000)
        for index in range(40):
            store.put(f"backend:src{index}:opt", {"pad": "x" * 100})
        assert store.size_bytes() <= 2000
        assert _counter("store.evictions") > 0

    def test_eviction_is_oldest_first(self, metrics):
        store = ResultStore(max_bytes=8_000)
        for index in range(20):
            store.put(f"backend:src{index}:opt", {"pad": "x" * 100})
        store.get("backend:src0:opt")               # refresh the LRU stamp
        for index in range(20, 40):
            store.put(f"backend:src{index}:opt", {"pad": "x" * 100})
        # The refreshed entry survived; the stale neighbors did not.
        assert "backend:src0:opt" in store
        assert "backend:src1:opt" not in store

    def test_pinned_entries_are_never_evicted(self, metrics):
        store = ResultStore(max_bytes=1500)
        with store.pinned("backend:hot:opt"):
            store.put("backend:hot:opt", {"pad": "x" * 100})
            for index in range(40):
                store.put(f"backend:cold{index}:opt", {"pad": "x" * 100})
            # Massive pressure, yet the in-flight entry is still there...
            assert "backend:hot:opt" in store
        # ...and pins are refcounts: after release it is fair game.
        store.pin("backend:hot:opt")
        store.pin("backend:hot:opt")
        store.unpin("backend:hot:opt")
        assert "backend:hot:opt" in store
        store.unpin("backend:hot:opt")
        for index in range(40, 80):
            store.put(f"backend:cold{index}:opt", {"pad": "x" * 100})
        assert "backend:hot:opt" not in store

    def test_disk_store_cap(self, tmp_path, metrics):
        store = ResultStore(str(tmp_path), max_bytes=2000)
        for index in range(40):
            store.put(f"backend:src{index}:opt", {"pad": "x" * 100})
        assert store.size_bytes() <= 2000
        assert _counter("store.evictions") > 0

    @pytest.mark.parametrize("root", [None, "disk"])
    def test_occupancy_gauge_tracks_puts(self, tmp_path, metrics, root):
        """``store.bytes`` makes the LRU cap observable on /metrics."""
        store = ResultStore(str(tmp_path) if root else None,
                            max_bytes=1 << 20)
        assert "store.bytes" not in obs.snapshot()["gauges"]
        store.put("backend:src0:opt", {"pad": "x" * 100})
        first = obs.snapshot()["gauges"]["store.bytes"]
        assert first > 0
        store.put("backend:src1:opt", {"pad": "x" * 100})
        assert obs.snapshot()["gauges"]["store.bytes"] > first
        assert obs.snapshot()["gauges"]["store.bytes"] \
            == store.size_bytes()

    def test_occupancy_gauge_reflects_eviction(self, metrics):
        store = ResultStore(max_bytes=2000)
        for index in range(40):
            store.put(f"backend:src{index}:opt", {"pad": "x" * 100})
        assert _counter("store.evictions") > 0
        assert obs.snapshot()["gauges"]["store.bytes"] <= 2000
