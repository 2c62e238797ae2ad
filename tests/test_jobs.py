"""Tests for the experiment service layer (:mod:`repro.jobs`).

Covers the four layers in isolation — specs (identity, hashing,
round-trips), the worker pool (ordering, error context), the result
store and journal (atomicity, corruption tolerance, resume bookkeeping)
and the dispatcher (hit/miss partitioning, stats, normalization) — plus
the cache-correctness properties the whole design exists for: a warm
cache re-simulates nothing, any spec field change misses, and defective
entries are recomputed rather than crashing.
"""

import json
import os

import pytest

from repro.exceptions import JobError
from repro.jobs import (
    DispatchStats,
    Dispatcher,
    Journal,
    JobSpec,
    ProgressEvent,
    ResultStore,
    WorkerPool,
    canonical_json,
    execute_job,
    freeze,
)


def make_spec(**overrides):
    base = dict(
        runner="tests.test_jobs:dummy_runner",
        code_version="dummy/1",
        protocol="ssme",
        graph={"topology": "ring", "size": 6},
        daemon="synchronous",
        seeds=(11, 22),
        horizon=100,
        metrics=("steps",),
        params={"engine": "auto", "flag": True},
    )
    base.update(overrides)
    return JobSpec(**base)


def dummy_runner(spec):
    """Module-level runner used by dispatcher tests (picklable)."""
    return {"echo": spec.protocol, "seeds": list(spec.seeds)}


def failing_runner(spec):
    raise RuntimeError("boom")


class TestFreeze:
    def test_mapping_becomes_sorted_pairs(self):
        assert freeze({"b": 1, "a": 2}) == (("a", 2), ("b", 1))

    def test_nested_lists_become_tuples(self):
        assert freeze({"xs": [1, [2, 3]]}) == (("xs", (1, (2, 3))),)

    def test_sets_are_sorted(self):
        assert freeze({3, 1, 2}) == (1, 2, 3)

    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "s"):
            assert freeze(value) == value

    def test_unfreezable_value_raises(self):
        with pytest.raises(JobError):
            freeze(object())

    def test_frozen_values_are_hashable(self):
        hash(freeze({"a": [1, {"b": 2}]}))


class TestJobSpec:
    def test_specs_are_frozen_and_hashable(self):
        spec = make_spec()
        assert spec == make_spec()
        assert hash(spec) == hash(make_spec())
        with pytest.raises(Exception):
            spec.protocol = "other"

    def test_round_trip_through_json(self):
        spec = make_spec()
        data = json.loads(json.dumps(spec.to_dict()))
        rebuilt = JobSpec.from_dict(data)
        assert rebuilt == spec
        assert rebuilt.spec_key == spec.spec_key

    def test_spec_key_is_stable_canonical_hash(self):
        spec = make_spec()
        assert len(spec.spec_key) == 64
        assert spec.spec_key == make_spec().spec_key
        # canonical JSON is key-sorted and whitespace-free
        rendered = canonical_json(spec.to_dict())
        assert ": " not in rendered and ", " not in rendered

    @pytest.mark.parametrize(
        "change",
        [
            {"code_version": "dummy/2"},
            {"runner": "tests.test_jobs:failing_runner"},
            {"protocol": "dijkstra"},
            {"graph": {"topology": "ring", "size": 7}},
            {"daemon": "cd-adv"},
            {"seeds": (11, 23)},
            {"horizon": 101},
            {"metrics": ("steps", "rounds")},
            {"params": {"engine": "auto", "flag": False}},
        ],
    )
    def test_every_field_feeds_the_key(self, change):
        assert make_spec(**change).spec_key != make_spec().spec_key

    def test_key_insensitive_to_mapping_order(self):
        a = make_spec(params={"x": 1, "y": 2})
        b = make_spec(params={"y": 2, "x": 1})
        assert a.spec_key == b.spec_key

    def test_malformed_runner_rejected(self):
        with pytest.raises(JobError):
            make_spec(runner="no-colon-here")

    def test_missing_field_rejected(self):
        with pytest.raises(JobError):
            JobSpec.from_dict({"runner": "m:f"})

    def test_accessors(self):
        spec = make_spec()
        assert spec.graph_item("topology") == "ring"
        assert spec.graph_item("absent", 42) == 42
        assert spec.param("engine") == "auto"
        assert spec.param("absent") is None
        assert spec.spec_key[:12] in spec.describe()


class TestWorkerPool:
    def test_sequential_matches_map(self):
        with WorkerPool() as pool:
            assert pool.run(abs, [-1, 2, -3]) == [1, 2, 3]
            assert pool.run(abs, []) == []
            assert not pool.parallel

    def test_parallel_preserves_order(self):
        with WorkerPool(2) as pool:
            assert pool.parallel
            assert pool.run(abs, list(range(-20, 0))) == list(range(20, 0, -1))

    def test_pool_persists_across_runs(self):
        with WorkerPool(2) as pool:
            assert pool.run(abs, [-1, -2]) == [1, 2]
            executor = pool._executor
            assert pool.run(abs, [-3, -4]) == [3, 4]
            assert pool._executor is executor

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(-1)

    def test_on_result_called_per_task(self):
        seen = []
        with WorkerPool() as pool:
            pool.run(abs, [-1, -2], on_result=lambda i, r: seen.append((i, r)))
        assert seen == [(0, 1), (1, 2)]

    def test_sequential_failure_carries_index_and_repr(self):
        def worker(task):
            if task == "bad-task":
                raise RuntimeError("boom")
            return task

        with WorkerPool() as pool:
            with pytest.raises(JobError) as info:
                pool.run(worker, ["fine", "bad-task"])
        message = str(info.value)
        assert "task 1" in message
        assert repr("bad-task") in message
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_parallel_failure_carries_index_and_repr(self):
        payload = make_spec(runner="tests.test_jobs:failing_runner").to_dict()
        with WorkerPool(2) as pool:
            with pytest.raises(JobError) as info:
                pool.run(execute_job, [payload, payload])
        assert "RuntimeError" in str(info.value)
        assert "failing_runner" in str(info.value)


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec()
        store.put(spec, {"value": 7})
        assert store.get(spec.spec_key) == {"value": 7}
        assert store.contains(spec.spec_key)
        assert list(store.keys()) == [spec.spec_key]
        assert len(store) == 1

    def test_miss_returns_none(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("0" * 64) is None
        assert not store.contains("0" * 64)

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec()
        path = store.put(spec, {"value": 7})
        path.write_text("{truncated", encoding="utf-8")
        assert store.get(spec.spec_key) is None
        assert list(store.keys()) == []

    def test_truncated_entry_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec()
        path = store.put(spec, {"value": 7})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert store.get(spec.spec_key) is None

    def test_schema_mismatch_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec()
        path = store.put(spec, {"value": 7})
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["schema"] = 999
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert store.get(spec.spec_key) is None

    def test_key_mismatch_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec()
        path = store.put(spec, {"value": 7})
        moved = path.with_name("f" * 64 + ".json")
        os.rename(path, moved)
        assert store.get("f" * 64) is None

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(make_spec(), {"value": 7})
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []

    def test_discard_and_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec()
        store.put(spec, 1)
        assert store.discard(spec.spec_key)
        assert not store.discard(spec.spec_key)
        store.put(spec, 1)
        assert store.clear() == 1
        assert len(store) == 0


class TestJournal:
    def test_sweep_key_depends_on_order(self):
        a, b = make_spec(), make_spec(seeds=(1,))
        assert Journal.sweep_key([a, b]) != Journal.sweep_key([b, a])

    def test_begin_and_done_round_trip(self, tmp_path):
        journal = Journal(tmp_path)
        specs = [make_spec(), make_spec(seeds=(1,))]
        key = Journal.sweep_key(specs)
        journal.begin(key, specs, label="demo")
        journal.record_done(key, specs[0].spec_key, cached=False)
        assert journal.completed(key) == {specs[0].spec_key}
        (status,) = journal.status()
        assert status["label"] == "demo"
        assert status["total"] == 2 and status["done"] == 1
        assert not status["complete"]

    def test_malformed_trailing_line_skipped(self, tmp_path):
        journal = Journal(tmp_path)
        specs = [make_spec()]
        key = Journal.sweep_key(specs)
        journal.begin(key, specs)
        journal.record_done(key, specs[0].spec_key, cached=False)
        with open(journal.path_for(key), "a", encoding="utf-8") as handle:
            handle.write('{"event": "done", "spec_')  # kill mid-append
        assert journal.completed(key) == {specs[0].spec_key}


class TestDispatcher:
    def test_uncached_dispatch_executes_everything(self):
        specs = [make_spec(seeds=(i,)) for i in range(3)]
        with Dispatcher() as dispatcher:
            results = dispatcher.run(specs)
        assert results == [{"echo": "ssme", "seeds": [i]} for i in range(3)]
        assert dispatcher.last_stats.executed == 3
        assert dispatcher.last_stats.hits == 0

    def test_warm_cache_executes_nothing(self, tmp_path):
        specs = [make_spec(seeds=(i,)) for i in range(3)]
        with Dispatcher(store=tmp_path) as dispatcher:
            cold = dispatcher.run(specs)
            assert dispatcher.last_stats.executed == 3
            warm = dispatcher.run(specs)
            assert dispatcher.last_stats.all_hits
            assert dispatcher.last_stats.executed == 0
        assert warm == cold
        assert dispatcher.stats.total == 6 and dispatcher.stats.hits == 3

    def test_results_are_json_normalized(self, tmp_path):
        spec = make_spec(seeds=(5,))
        with Dispatcher(store=tmp_path) as dispatcher:
            (fresh,) = dispatcher.run([spec])
            (cached,) = dispatcher.run([spec])
        # both runs hand back plain JSON types (tuples already lists)
        assert fresh == cached
        assert type(fresh["seeds"]) is list

    def test_refresh_ignores_cache(self, tmp_path):
        spec = make_spec()
        with Dispatcher(store=tmp_path) as dispatcher:
            dispatcher.run([spec])
        with Dispatcher(store=tmp_path, refresh=True) as dispatcher:
            dispatcher.run([spec])
            assert dispatcher.last_stats.executed == 1
            assert dispatcher.last_stats.hits == 0

    def test_resume_from_partial_store(self, tmp_path):
        specs = [make_spec(seeds=(i,)) for i in range(4)]
        store = ResultStore(tmp_path)
        for spec in specs[:2]:
            store.put(spec, execute_job(spec.to_dict()))
        with Dispatcher(store=store) as dispatcher:
            results = dispatcher.run(specs)
            assert dispatcher.last_stats.hits == 2
            assert dispatcher.last_stats.executed == 2
        assert results == [{"echo": "ssme", "seeds": [i]} for i in range(4)]

    def test_corrupted_entry_recomputed_not_crash(self, tmp_path):
        spec = make_spec()
        store = ResultStore(tmp_path)
        with Dispatcher(store=store) as dispatcher:
            dispatcher.run([spec])
        store.path_for(spec.spec_key).write_text("garbage", encoding="utf-8")
        with Dispatcher(store=store) as dispatcher:
            (result,) = dispatcher.run([spec])
            assert dispatcher.last_stats.executed == 1
        assert result == {"echo": "ssme", "seeds": [11, 22]}
        # and the entry was rewritten
        assert store.get(spec.spec_key) == result

    def test_progress_events_stream(self, tmp_path):
        events = []
        specs = [make_spec(seeds=(i,)) for i in range(2)]
        with Dispatcher(store=tmp_path, progress=events.append) as dispatcher:
            dispatcher.run(specs)
            dispatcher.run(specs)
        kinds = [event.kind for event in events]
        assert kinds == ["begin", "done", "done", "end", "begin", "hit", "hit", "end"]
        assert all(isinstance(event, ProgressEvent) for event in events)
        assert events[-2].cached

    def test_journal_written_per_sweep(self, tmp_path):
        specs = [make_spec(seeds=(i,)) for i in range(2)]
        with Dispatcher(store=tmp_path) as dispatcher:
            dispatcher.run(specs, label="sweep-A")
        (status,) = Journal(tmp_path).status()
        assert status["complete"]
        assert status["label"] == "sweep-A"

    def test_parallel_dispatch_matches_sequential(self, tmp_path):
        specs = [make_spec(seeds=(i,)) for i in range(6)]
        with Dispatcher() as sequential:
            expected = sequential.run(specs)
        with Dispatcher(workers=3) as parallel:
            assert parallel.run(specs) == expected

    def test_stats_arithmetic(self):
        stats = DispatchStats(total=4, hits=1, executed=3, sweeps=1)
        assert stats.misses == 3
        assert not stats.all_hits
        stats.add(DispatchStats(total=2, hits=2, executed=0, sweeps=1))
        assert stats.total == 6 and stats.hits == 3 and stats.sweeps == 2
        assert DispatchStats().all_hits is False
