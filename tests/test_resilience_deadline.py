"""Deadline budgets: the context-var plumbing and the hot-path checkpoints."""

from __future__ import annotations

import threading

import pytest

from repro import Rex
from repro.enumeration.framework import enumerate_explanations
from repro.errors import DeadlineExceeded, RexError
from repro.kb.sql import sweep_local_count_distributions
from repro.measures.distributional import (
    GlobalDistributionMeasure,
    LocalDistributionMeasure,
)
from repro.resilience import (
    Deadline,
    activate_deadline,
    current_deadline,
    deactivate_deadline,
    deadline_scope,
)


class TestDeadlineObject:
    def test_non_positive_budget_raises_immediately(self):
        with pytest.raises(DeadlineExceeded):
            Deadline(0)
        with pytest.raises(DeadlineExceeded):
            Deadline(-1.0)

    def test_generous_budget_never_trips(self):
        deadline = Deadline(60.0)
        for _ in range(10_000):
            deadline.tick()
        assert not deadline.expired()
        assert 0 < deadline.remaining() <= 60.0

    def test_tiny_budget_trips_within_a_stride(self):
        deadline = Deadline(1e-9)
        with pytest.raises(DeadlineExceeded):
            # the strided tick re-reads the clock at most every stride calls,
            # so two strides of ticks must observe the expiry
            for _ in range(2 * deadline._stride + 1):
                deadline.tick()

    def test_check_is_unstrided(self):
        deadline = Deadline(1e-9)
        with pytest.raises(DeadlineExceeded):
            deadline.check()

    def test_error_carries_budget(self):
        try:
            Deadline(-0.5)
        except DeadlineExceeded as error:
            assert error.budget_s == -0.5
            assert "deadline exceeded" in str(error)

    def test_error_is_a_rex_error_and_pickles(self):
        import pickle

        error = DeadlineExceeded(1.5)
        assert isinstance(error, RexError)
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, DeadlineExceeded)
        assert clone.budget_s == 1.5


class TestContextPlumbing:
    def test_no_ambient_deadline_by_default(self):
        assert current_deadline() is None

    def test_activate_deactivate_roundtrip(self):
        deadline = Deadline(5.0)
        token = activate_deadline(deadline)
        try:
            assert current_deadline() is deadline
        finally:
            deactivate_deadline(token)
        assert current_deadline() is None

    def test_scope_arms_and_disarms(self):
        with deadline_scope(5.0) as deadline:
            assert deadline is not None
            assert current_deadline() is deadline
        assert current_deadline() is None

    def test_none_scope_is_a_no_op(self):
        with deadline_scope(None) as deadline:
            assert deadline is None
            assert current_deadline() is None

    def test_scopes_nest(self):
        with deadline_scope(10.0) as outer:
            with deadline_scope(5.0) as inner:
                assert current_deadline() is inner
            assert current_deadline() is outer

    def test_deadline_is_thread_local(self):
        observed = {}

        def probe():
            observed["other"] = current_deadline()

        with deadline_scope(5.0):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert observed["other"] is None


class TestCheckpointedPipelines:
    """The enumeration/matching/sweep hot paths honour an armed deadline."""

    PAIR = ("tom_cruise", "nicole_kidman")

    def test_unarmed_results_match_armed_results(self, paper_kb):
        baseline = enumerate_explanations(
            paper_kb, *self.PAIR, size_limit=4
        ).explanations
        with deadline_scope(60.0):
            armed = enumerate_explanations(
                paper_kb, *self.PAIR, size_limit=4
            ).explanations
        assert armed == baseline

    def test_expired_deadline_aborts_enumeration(self, paper_kb):
        with pytest.raises(DeadlineExceeded):
            with deadline_scope(1e-9):
                enumerate_explanations(paper_kb, *self.PAIR, size_limit=4)

    @pytest.mark.parametrize("algorithm", ["naive", "basic", "prioritized"])
    def test_every_path_algorithm_honours_the_deadline(self, paper_kb, algorithm):
        with pytest.raises(DeadlineExceeded):
            with deadline_scope(1e-9):
                enumerate_explanations(
                    paper_kb, *self.PAIR, size_limit=4, path_algorithm=algorithm
                )

    def test_facade_explain_honours_the_deadline(self, paper_kb):
        rex = Rex(paper_kb, size_limit=4)
        with pytest.raises(DeadlineExceeded):
            with deadline_scope(1e-9):
                rex.explain(*self.PAIR, k=3)

    def test_distributional_measure_sweep_honours_the_deadline(self, paper_kb):
        rex = Rex(paper_kb, size_limit=4)
        with pytest.raises(DeadlineExceeded):
            with deadline_scope(1e-9):
                rex.explain(*self.PAIR, measure="size+local-dist", k=3)

    @pytest.mark.parametrize(
        "measure",
        [GlobalDistributionMeasure(), LocalDistributionMeasure()],
        ids=["global-dist", "local-dist"],
    )
    def test_scoring_alone_honours_the_deadline(self, paper_kb, measure):
        """The explanations are enumerated unarmed, so only scoring can trip."""
        explanations = enumerate_explanations(
            paper_kb, *self.PAIR, size_limit=4
        ).explanations
        assert explanations
        with pytest.raises(DeadlineExceeded):
            with deadline_scope(1e-9):
                for explanation in explanations:
                    measure.value(paper_kb, explanation, *self.PAIR)

    def test_sweeps_tick_once_per_start(self, paper_kb):
        """The deadline is resolved once per call, and ticked once per start."""

        class CountingDeadline:
            ticks = 0

            def tick(self) -> None:
                self.ticks += 1

        explanation = enumerate_explanations(
            paper_kb, *self.PAIR, size_limit=4
        ).explanations[0]
        starts = list(paper_kb.entities)[:7]
        for call, expected_ticks in (
            # the pair's own start, then the five sampled starts
            (
                lambda: GlobalDistributionMeasure(num_samples=5).value(
                    paper_kb, explanation, *self.PAIR
                ),
                1 + 5,
            ),
            (lambda: LocalDistributionMeasure().value(paper_kb, explanation, *self.PAIR), 1),
            # a repeated start is swept, and ticked, once
            (
                lambda: sweep_local_count_distributions(
                    paper_kb, explanation.pattern, starts + starts
                ),
                len(starts),
            ),
        ):
            deadline = CountingDeadline()
            token = activate_deadline(deadline)
            try:
                call()
            finally:
                deactivate_deadline(token)
            assert deadline.ticks == expected_ticks


class TestEngineDeadlines:
    def test_explain_deadline_param_overrides(self, paper_kb):
        from repro.service.engine import ExplanationEngine

        engine = ExplanationEngine(paper_kb, size_limit=4)
        with pytest.raises(DeadlineExceeded):
            engine.explain("tom_cruise", "nicole_kidman", deadline_s=1e-9)
        assert engine.metrics.counter("engine.deadline_exceeded").value == 1
        # a sane budget answers normally afterwards
        outcome = engine.explain("tom_cruise", "nicole_kidman", deadline_s=30.0)
        assert outcome.ranked

    def test_invalid_deadline_param_is_a_rex_error(self, paper_kb):
        from repro.service.engine import ExplanationEngine

        engine = ExplanationEngine(paper_kb, size_limit=4)
        with pytest.raises(RexError):
            engine.explain("tom_cruise", "nicole_kidman", deadline_s=-1)
        with pytest.raises(RexError):
            engine.explain("tom_cruise", "nicole_kidman", deadline_s="fast")

    def test_engine_default_deadline_applies(self, paper_kb):
        from repro.service.engine import ExplanationEngine

        engine = ExplanationEngine(paper_kb, size_limit=4, deadline_s=1e-9)
        with pytest.raises(DeadlineExceeded):
            engine.explain("tom_cruise", "nicole_kidman")

    def test_cache_hits_survive_an_expired_budget(self, paper_kb):
        from repro.service.engine import ExplanationEngine

        engine = ExplanationEngine(paper_kb, size_limit=4)
        warm = engine.explain("tom_cruise", "nicole_kidman")
        # the cache lookup never ticks the deadline, so a hit is served even
        # under a budget that could not recompute it — degraded-mode serving
        hit = engine.explain("tom_cruise", "nicole_kidman", deadline_s=1e-9)
        assert hit.cached and hit.ranked == warm.ranked

    def test_env_default_deadline(self, paper_kb, monkeypatch):
        from repro.service import engine as engine_module

        monkeypatch.setenv("REX_DEADLINE_S", "1e-9")
        engine = engine_module.ExplanationEngine(paper_kb, size_limit=4)
        assert engine.default_deadline_s == 1e-9
        with pytest.raises(DeadlineExceeded):
            engine.explain("tom_cruise", "nicole_kidman")

    def test_env_rejects_garbage(self, monkeypatch, paper_kb):
        from repro.service import engine as engine_module

        monkeypatch.setenv("REX_DEADLINE_S", "soon")
        with pytest.raises(RexError):
            engine_module.ExplanationEngine(paper_kb, size_limit=4)
