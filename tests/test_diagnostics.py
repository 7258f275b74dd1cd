"""Unit tests for the stage-level diagnostics layer."""

from __future__ import annotations

import pytest

from repro.diagnostics import (
    STAGES,
    TIER_DERIVED,
    TIER_TEMPLATE,
    Diagnostics,
    known_stages,
    register_stage,
)


def test_stage_accumulates_time_and_calls():
    diag = Diagnostics()
    with diag.stage("select"):
        pass
    with diag.stage("select"):
        pass
    timing = diag.stages["select"]
    assert timing.calls == 2
    assert timing.seconds >= 0.0
    assert diag.total_seconds == pytest.approx(
        sum(t.seconds for t in diag.stages.values())
    )


def test_unknown_stage_rejected():
    diag = Diagnostics()
    with pytest.raises(ValueError):
        with diag.stage("transmogrify"):
            pass


def test_counters_and_paths():
    diag = Diagnostics()
    diag.count("combos.evaluated")
    diag.count("combos.evaluated", 4)
    assert diag.counter("combos.evaluated") == 5
    assert diag.counter("never.touched") == 0
    diag.record_path_count("Cipher", 16)
    diag.record_path_count("Cipher", 16)  # idempotent per rule
    assert diag.path_counts == {"Cipher": 16}


def test_merge_combines_everything():
    a = Diagnostics()
    with a.stage("collect"):
        pass
    a.count(TIER_TEMPLATE, 2)
    a.record_path_count("Cipher", 16)
    a.warn("collect", "something odd", rule="Cipher")

    b = Diagnostics()
    with b.stage("collect"):
        pass
    with b.stage("emit"):
        pass
    b.count(TIER_TEMPLATE, 1)
    b.count(TIER_DERIVED, 3)

    a.merge(b)
    assert a.stages["collect"].calls == 2
    assert "emit" in a.stages
    assert a.counter(TIER_TEMPLATE) == 3
    assert a.counter(TIER_DERIVED) == 3
    assert len(a.warnings) == 1


def test_merge_keeps_max_path_count_on_collision():
    # Regression: merge() used to silently overwrite path_counts when
    # both sides recorded the same rule; the larger count must win.
    a = Diagnostics()
    a.record_path_count("Cipher", 16)
    a.record_path_count("SecureRandom", 4)

    b = Diagnostics()
    b.record_path_count("Cipher", 9)
    b.record_path_count("Mac", 2)

    a.merge(b)
    assert a.path_counts == {"Cipher": 16, "SecureRandom": 4, "Mac": 2}

    # And in the other direction the larger incoming count wins too.
    c = Diagnostics()
    c.record_path_count("Cipher", 25)
    a.merge(c)
    assert a.path_counts["Cipher"] == 25


def test_registered_stage_is_accepted_and_rendered_after_canonical():
    name = register_stage("transmography")
    try:
        assert name == "transmography"
        assert register_stage("transmography") == name  # idempotent
        assert known_stages()[: len(STAGES)] == STAGES
        assert "transmography" in known_stages()

        diag = Diagnostics()
        with diag.stage("transmography"):
            pass
        with diag.stage("collect"):
            pass
        assert diag.stages["transmography"].calls == 1
        # Canonical stages render before registered extras.
        rendered = diag.render()
        assert rendered.index("collect") < rendered.index("transmography")
        ordered = list(diag.to_dict()["stages"])
        assert ordered == ["collect", "transmography"]
    finally:
        from repro import diagnostics as _d

        _d._EXTRA_STAGES.remove("transmography")


def test_unregistered_stage_still_rejected_after_registration():
    register_stage("short-lived")
    try:
        diag = Diagnostics()
        with pytest.raises(ValueError):
            with diag.stage("never-registered"):
                pass
    finally:
        from repro import diagnostics as _d

        _d._EXTRA_STAGES.remove("short-lived")


def test_render_and_to_dict_cover_all_sections():
    diag = Diagnostics()
    for stage in STAGES:
        with diag.stage(stage):
            pass
    diag.count(TIER_TEMPLATE, 7)
    diag.record_path_count("SecureRandom", 4)
    diag.warn("resolve", "fell back to greedy", rule="Cipher")

    text = diag.render()
    assert "pipeline stages:" in text
    assert "parameter cascade" in text
    assert "SecureRandom" in text
    assert "fell back to greedy" in text

    data = diag.to_dict()
    assert set(data["stages"]) == set(STAGES)
    assert data["path_counts"] == {"SecureRandom": 4}
    assert data["warnings"][0]["rule"] == "Cipher"


def test_warnings_are_a_bounded_ring_buffer():
    from repro.diagnostics import MAX_WARNINGS

    cumulative = Diagnostics()
    cumulative.warn("collect", "first")
    run = Diagnostics()
    for n in range(MAX_WARNINGS + 5):
        run.warn("resolve", f"fallback {n}")
    assert len(run.warnings) == MAX_WARNINGS
    assert run.warnings_dropped == 5

    cumulative.merge(run)
    assert len(cumulative.warnings) == MAX_WARNINGS
    # 5 dropped inside the run, plus "first" pushed out by the merge
    assert cumulative.warnings_dropped == 6
    messages = [w.message for w in cumulative.warnings]
    assert messages[0] == "fallback 5"
    assert messages[-1] == f"fallback {MAX_WARNINGS + 4}"
    assert cumulative.to_dict()["warnings_dropped"] == 6
    assert "6 older warning(s) dropped" in cumulative.render()


def test_attributed_counts_and_warnings_reach_every_recording():
    owner = Diagnostics()
    with Diagnostics().recording() as request:
        with Diagnostics().recording() as run:
            owner.count_attributed("disk_cache.io_errors")
            owner.warn_attributed("cache", "disk cache [io-error] k")
    owner.count_attributed("disk_cache.io_errors")  # nobody recording
    owner.warn_attributed("cache", "outside")
    assert owner.counter("disk_cache.io_errors") == 2
    assert [w.message for w in owner.warnings] == [
        "disk cache [io-error] k",
        "outside",
    ]
    for record in (request, run):
        assert record.counters == {"disk_cache.io_errors": 1}
        assert [str(w) for w in record.warnings] == [
            "[cache] disk cache [io-error] k"
        ]
