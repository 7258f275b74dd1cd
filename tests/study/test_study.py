"""The RQ5 harness: scales, latin square, simulation, analysis."""

from __future__ import annotations

import pytest

from repro.eval.rq5 import shape_holds
from repro.study import (
    ScaleError,
    latin_square,
    nps_classify,
    nps_score,
    run_study,
    sus_mean,
    sus_score,
    verify_balance,
)
from repro.study.latin import TASKS, TOOLS
from repro.study.participants import ParticipantSimulator
from repro.study.study import analyze


class TestSus:
    def test_all_best_answers(self):
        """Best possible: 5 on positive items, 1 on negative = 100."""
        assert sus_score([5, 1] * 5) == 100.0

    def test_all_worst_answers(self):
        assert sus_score([1, 5] * 5) == 0.0

    def test_neutral(self):
        assert sus_score([3] * 10) == 50.0

    def test_known_mixed(self):
        responses = [4, 2, 4, 2, 4, 2, 4, 2, 4, 2]
        assert sus_score(responses) == 75.0

    def test_wrong_count_rejected(self):
        with pytest.raises(ScaleError):
            sus_score([3] * 9)

    def test_out_of_range_rejected(self):
        with pytest.raises(ScaleError):
            sus_score([3] * 9 + [6])

    def test_mean(self):
        assert sus_mean([[3] * 10, [5, 1] * 5]) == 75.0

    def test_empty_mean_rejected(self):
        with pytest.raises(ScaleError):
            sus_mean([])


class TestNps:
    @pytest.mark.parametrize(
        "value,cls",
        [(10, "promoter"), (9, "promoter"), (8, "passive"), (7, "passive"), (6, "detractor"), (0, "detractor")],
    )
    def test_classification(self, value, cls):
        assert nps_classify(value) == cls

    def test_out_of_range(self):
        with pytest.raises(ScaleError):
            nps_classify(11)

    def test_score(self):
        # 2 promoters, 1 passive, 1 detractor of 4 -> (2-1)/4 = +25.
        assert nps_score([10, 9, 8, 3]) == 25.0

    def test_all_detractors(self):
        assert nps_score([0, 1, 2]) == -100.0

    def test_empty_rejected(self):
        with pytest.raises(ScaleError):
            nps_score([])


class TestLatinSquare:
    def test_balance_with_16(self):
        assignments = latin_square(16)
        assert len(assignments) == 16
        assert verify_balance(assignments)

    def test_everyone_does_both_tasks_with_both_tools(self):
        for assignment in latin_square(16):
            tasks = {task for task, _ in assignment.sessions}
            tools = {tool for _, tool in assignment.sessions}
            assert tasks == set(TASKS)
            assert tools == set(TOOLS)

    def test_too_few_participants(self):
        with pytest.raises(ValueError):
            latin_square(3)


class TestSimulation:
    def test_deterministic_given_seed(self):
        a = ParticipantSimulator(7).simulate(latin_square(8))
        b = ParticipantSimulator(7).simulate(latin_square(8))
        assert [r.crypto_experience for r in a] == [r.crypto_experience for r in b]

    def test_every_participant_complete(self):
        records = ParticipantSimulator(7).simulate(latin_square(16))
        for record in records:
            assert len(record.sessions) == 2
            assert set(record.sus_responses) == {"gen", "old-gen"}
            assert set(record.nps_likelihood) == {"gen", "old-gen"}

    def test_times_within_study_window(self):
        records = ParticipantSimulator(7).simulate(latin_square(64))
        for record in records:
            for session in record.sessions:
                assert 0 < session.minutes <= 30


class TestAnalysis:
    @pytest.fixture(scope="class")
    def results(self):
        return run_study()

    def test_reproduces_paper_pattern(self, results):
        assert results.participants == 16
        assert results.completion_all
        # Per-task effects in the paper's directions.
        assert results.encryption_slowdown_percent > 0
        assert results.hashing_speedup_percent > 40
        # Overall times not significant; usability strongly significant.
        assert not results.times_significant
        assert results.usability_significant

    def test_sus_values_near_paper(self, results):
        assert abs(results.sus["gen"] - 76.3) < 8
        assert abs(results.sus["old-gen"] - 50.8) < 8
        assert results.sus["gen"] > 68  # crosses the usability bar

    def test_nps_signs_match_paper(self, results):
        assert results.nps["gen"] > 40
        assert results.nps["old-gen"] < -20

    def test_preference_and_interviews(self, results):
        assert results.preferred_gen >= 14
        assert 0 <= results.mentioned_learning_curve <= 16

    def test_experience_profile(self, results):
        assert 4.0 < results.mean_experience < 6.5
        assert results.experience_usability_correlation_p > 0.05

    def test_study_is_seed_robust(self):
        """The qualitative pattern must not hinge on one lucky seed: at
        least 8 of 10 seeds reproduce every headline claim."""
        hits = sum(
            shape_holds(run_study(seed=seed)) for seed in range(2018, 2028)
        )
        assert hits >= 8

    def test_larger_sample_tightens_effects(self):
        big = run_study(participants=400, seed=11)
        assert abs(big.encryption_slowdown_percent - 38) < 8
        assert abs(big.hashing_speedup_percent - 63.2) < 5
