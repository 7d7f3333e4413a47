"""Unit tests for the process-pool batch executor and the KB snapshots."""

from __future__ import annotations

import json
import time

import pytest

from faultinject import kill_fleet

from repro import Rex
from repro.errors import RexError
from repro.kb.compiled import compile_kb
from repro.parallel import (
    ParallelBatchExecutor,
    WorkerCrashError,
    kb_from_payload,
    kb_to_payload,
)
from repro.resilience.supervisor import ReplicaFleet
from repro.service.serialize import ranked_to_dict
from repro.workloads import sample_request_stream, scale_free_kb

SIZE_LIMIT = 4


def _current(kb):
    """The executor's view provider for a plain KB: its current compile."""
    return lambda: compile_kb(kb)


@pytest.fixture(scope="module")
def workload_kb():
    return scale_free_kb(num_entities=250, attach_per_entity=2, seed=17)


@pytest.fixture()
def executor(workload_kb):
    with ParallelBatchExecutor(_current(workload_kb), workers=2, size_limit=SIZE_LIMIT) as pool:
        yield pool


def _items(kb, count, seed=3):
    stream = sample_request_stream(kb, count, seed=seed, size_limit=SIZE_LIMIT)
    return [
        (index, r["start"], r["end"], r["measure"], r["k"], r["size_limit"])
        for index, r in enumerate(stream)
    ]


def _render(ranked):
    return json.dumps(
        [ranked_to_dict(entry, rank) for rank, entry in enumerate(ranked, start=1)],
        sort_keys=True,
    )


class TestSnapshot:
    def test_roundtrip_preserves_everything(self, workload_kb):
        replica, version = kb_from_payload(kb_to_payload(workload_kb))
        assert version == workload_kb.version
        assert list(replica.entities) == list(workload_kb.entities)
        assert [e.key() for e in replica.edges()] == [
            e.key() for e in workload_kb.edges()
        ]
        assert replica.label_counts() == workload_kb.label_counts()
        for label in workload_kb.relation_labels():
            assert replica.schema.is_directed(label) == workload_kb.schema.is_directed(
                label
            )

    def test_unknown_format_rejected(self, workload_kb):
        payload = list(kb_to_payload(workload_kb))
        payload[0] = 999
        with pytest.raises(ValueError, match="payload format"):
            kb_from_payload(tuple(payload))


class TestExecute:
    def test_results_keyed_by_submission_index(self, executor, workload_kb):
        items = _items(workload_kb, 10)
        results = executor.execute(items)
        assert set(results) == set(range(10))
        rex = Rex(workload_kb, size_limit=SIZE_LIMIT)
        for index, v_start, v_end, measure, k, size_limit in items:
            ok, ranked, version = results[index]
            assert ok and version == workload_kb.version
            sequential = tuple(
                rex.explain(v_start, v_end, measure=measure, k=k, size_limit=size_limit)
            )
            assert _render(ranked) == _render(sequential)

    def test_empty_batch(self, executor):
        assert executor.execute([]) == {}

    def test_per_item_errors_are_positional(self, executor, workload_kb):
        good = _items(workload_kb, 2)
        items = [
            good[0],
            (1, "no_such_entity", good[0][2], "size+monocount", 3, 4),
            (2, *good[1][1:]),
        ]
        results = executor.execute(items)
        assert results[0][0] is True
        ok, error, _ = results[1]
        assert ok is False and isinstance(error, RexError)
        assert results[2][0] is True

    def test_stats_accumulate(self, executor, workload_kb):
        executor.execute(_items(workload_kb, 6))
        snapshot = executor.snapshot()
        assert snapshot["batches"] == 1
        assert snapshot["items"] == 6
        assert snapshot["chunks"] >= 2
        assert snapshot["pool_version"] == workload_kb.version
        assert sum(executor.stats.last_batch_worker_cpu_s.values()) > 0


class TestRecycling:
    def test_kb_update_recycles_pool(self, workload_kb):
        kb = workload_kb.copy()
        with ParallelBatchExecutor(_current(kb), workers=2, size_limit=SIZE_LIMIT) as pool:
            items = _items(kb, 4)
            first = pool.execute(items)
            version_before = kb.version
            assert all(first[i][2] == version_before for i in range(4))
            kb.add_edge("brand_new_entity", next(iter(kb.entities)), "rel0")
            second = pool.execute(items)
            assert pool.stats.recycles == 1
            assert all(second[i][2] == kb.version for i in range(4))

    def test_new_entity_visible_after_recycle(self, workload_kb):
        kb = workload_kb.copy()
        with ParallelBatchExecutor(_current(kb), workers=2, size_limit=SIZE_LIMIT) as pool:
            pool.ensure_fresh()
            anchor = next(iter(kb.entities))
            kb.add_edge("late_arrival", anchor, "rel0")
            items = [(0, "late_arrival", anchor, "size+monocount", 3, SIZE_LIMIT)]
            results = pool.execute(items)
            ok, ranked, version = results[0]
            assert ok and version == kb.version
            assert len(ranked) >= 1

    def test_recycle_between_acquire_and_submit_is_not_a_crash(
        self, workload_kb, monkeypatch
    ):
        """A batch that took its fleet just before a concurrent recycle still
        submits to live replicas: the recycle retires the old fleet and shuts
        it down only when the batch releases it, so no crash is booked."""
        kb = workload_kb.copy()
        with ParallelBatchExecutor(_current(kb), workers=2, size_limit=SIZE_LIMIT) as pool:
            items = _items(kb, 4)
            pool.execute(items)  # build the first fleet
            version_before = kb.version
            recycled: list[ReplicaFleet] = []
            submit = ReplicaFleet.submit

            def recycle_then_submit(fleet, fn, *args):
                if not recycled:
                    # the batch holds its fleet and has not submitted yet: a
                    # writer moves the KB on and another caller recycles
                    recycled.append(fleet)
                    kb.add_edge("interleaved", next(iter(kb.entities)), "rel0")
                    assert pool.ensure_fresh() is True
                return submit(fleet, fn, *args)

            monkeypatch.setattr(ReplicaFleet, "submit", recycle_then_submit)
            results = pool.execute(items)
            assert recycled, "the hook never ran"
            assert pool.stats.worker_crashes == 0
            assert pool.stats.recycles == 1
            # answered on the retired fleet, labelled with its version
            assert {results[i][:1] + results[i][2:] for i in range(4)} == {
                (True, version_before)
            }
            # the retired fleet was shut down once the batch released it
            assert recycled[0]._shutdown.is_set()
            assert pool.pool_version == kb.version

    def test_ensure_fresh_is_idempotent(self, executor):
        assert executor.ensure_fresh() is True
        assert executor.ensure_fresh() is False
        assert executor.stats.recycles == 0


class TestCrashSurfacing:
    def test_killed_worker_raises_then_recovers(self, workload_kb):
        with ParallelBatchExecutor(_current(workload_kb), workers=2, size_limit=SIZE_LIMIT) as pool:
            items = _items(workload_kb, 4)
            pool.execute(items)  # warm pool
            kill_fleet(pool)
            with pytest.raises(WorkerCrashError, match="worker process died"):
                pool.execute(items)
            assert pool.stats.worker_crashes == 1
            # next batch transparently recycles onto fresh workers
            recovered = pool.execute(items)
            assert set(recovered) == set(range(4))
            assert pool.stats.recycles >= 1

    def test_closed_executor_rejects_work(self, workload_kb):
        pool = ParallelBatchExecutor(_current(workload_kb), workers=2)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.execute([(0, "a", "b", "size", 1, 2)])
        pool.close()  # idempotent


class TestValidation:
    def test_bad_worker_count(self, workload_kb):
        with pytest.raises(ValueError, match="workers"):
            ParallelBatchExecutor(_current(workload_kb), workers=0)

    def test_bad_chunk_size(self, workload_kb):
        with pytest.raises(ValueError, match="chunk_size"):
            ParallelBatchExecutor(_current(workload_kb), workers=2, chunk_size=0)
