"""Result persistence: save → load round trips, exactly.

The acceptance bar: for every strategy and backend, a result
round-tripped through ``save``/``load`` yields byte-identical matches
(ids *and* scores) and counters to the original — and the persisted
file alone is enough to replan analysis sweeps (`sweep_from_result`).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import bdm_from_result, sweep_from_result
from repro.cluster.simulation import ClusterSpec
from repro.core.bdm import BlockDistributionMatrix
from repro.core.two_source import DualSourceBDM
from repro.datasets.generators import generate_products
from repro.engine import ERPipeline, PipelineResult
from repro.engine.incremental import CorpusState, ingest
from repro.engine.persistence import (
    MATCH_LOG_FILE,
    PersistenceError,
    RESULT_FORMAT,
    RESULT_VERSION,
    STATE_FILE,
    STATE_FORMAT,
    STATE_VERSION,
    load_state,
    result_from_dict,
    result_to_dict,
    save_state,
    state_from_dict,
    state_to_dict,
)
from repro.er.blocking import PrefixBlocking
from repro.er.matching import ThresholdMatcher

ALL_STRATEGIES = ["basic", "blocksplit", "pairrange"]
BACKENDS = {
    "serial": {},
    "parallel": {"max_workers": 2, "executor": "thread"},
    "planned": {},
}


def _pipeline(strategy, backend="serial", **kwargs):
    options = BACKENDS.get(backend, {})
    return ERPipeline(
        strategy,
        PrefixBlocking("title"),
        ThresholdMatcher("title", 0.8),
        num_map_tasks=3,
        num_reduce_tasks=4,
        **kwargs,
    ).with_backend(backend, **options)


def _match_tuples(matches):
    if matches is None:
        return None
    return [(pair.id1, pair.id2, pair.similarity) for pair in matches]


def _assert_equivalent(loaded, original):
    assert loaded.strategy == original.strategy
    assert loaded.backend == original.backend
    assert _match_tuples(loaded.matches) == _match_tuples(original.matches)
    assert loaded.reduce_comparisons() == original.reduce_comparisons()
    assert loaded.total_comparisons() == original.total_comparisons()
    assert loaded.map_output_kv() == original.map_output_kv()
    for name in ("job1", "job2"):
        loaded_job = getattr(loaded, name)
        original_job = getattr(original, name)
        if original_job is None:
            assert loaded_job is None
            continue
        assert loaded_job.counters == original_job.counters
        assert [t.counters.as_dict() for t in loaded_job.reduce_tasks] == [
            t.counters.as_dict() for t in original_job.reduce_tasks
        ]
        assert [t.input_records for t in loaded_job.map_tasks] == [
            t.input_records for t in original_job.map_tasks
        ]
    assert loaded.plan == original.plan
    assert loaded.bdm_plan == original.bdm_plan
    if original.bdm is None:
        assert loaded.bdm is None
    else:
        assert loaded.bdm.block_keys == original.bdm.block_keys
        assert loaded.bdm.pairs() == original.bdm.pairs()
    if original.timeline is None:
        assert loaded.timeline is None
    else:
        assert loaded.timeline == original.timeline


class TestRoundTrip:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_every_strategy_and_backend(self, strategy, backend, tmp_path):
        entities = generate_products(160, seed=51)
        original = _pipeline(strategy, backend).run(entities)
        path = original.save(tmp_path / "result.json")
        _assert_equivalent(PipelineResult.load(path), original)

    def test_result_saved_by_the_removed_async_backend_still_loads(self, tmp_path):
        # ``backend`` is a label on the saved document, not a registry
        # lookup: files written before the async backend was removed
        # keep loading.
        from dataclasses import replace

        original = replace(
            _pipeline("pairrange", "parallel").run(generate_products(120, seed=57)),
            backend="async",
        )
        loaded = PipelineResult.load(original.save(tmp_path / "async.json"))
        assert loaded.backend == "async"
        _assert_equivalent(loaded, original)

    def test_two_source_result(self, tmp_path):
        r = generate_products(80, seed=52)
        s = generate_products(80, seed=53)
        original = _pipeline("blocksplit").run(r, s)
        loaded = PipelineResult.load(original.save(tmp_path / "dual.json"))
        _assert_equivalent(loaded, original)
        assert isinstance(loaded.bdm, DualSourceBDM)
        assert loaded.bdm.partition_sources == original.bdm.partition_sources

    def test_simulated_timeline_round_trips(self, tmp_path):
        original = _pipeline(
            "pairrange", cluster=ClusterSpec(num_nodes=4)
        ).run(generate_products(140, seed=54))
        assert original.timeline is not None
        loaded = PipelineResult.load(original.save(tmp_path / "timed.json"))
        assert loaded.timeline == original.timeline
        assert loaded.execution_time == original.execution_time

    def test_memory_budget_result_round_trips(self, tmp_path):
        original = _pipeline("blocksplit", memory_budget=16).run(
            generate_products(160, seed=55)
        )
        loaded = PipelineResult.load(original.save(tmp_path / "budget.json"))
        _assert_equivalent(loaded, original)

    def test_dict_round_trip_is_json_stable(self):
        original = _pipeline("blocksplit").run(generate_products(120, seed=56))
        data = result_to_dict(original)
        rewired = json.loads(json.dumps(data))
        _assert_equivalent(result_from_dict(rewired), original)

    def test_non_string_block_keys_round_trip(self):
        bdm = BlockDistributionMatrix(
            [("a", 1), 7, 2.5, "plain", None, True],
            [[2, 1], [3, 0], [1, 1], [0, 2], [1, 0], [0, 1]],
        )
        result = PipelineResult(
            strategy="blocksplit", backend="serial",
            matches=None, bdm=bdm, job1=None, job2=None,
        )
        loaded = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert loaded.bdm.block_keys == bdm.block_keys
        assert [type(k) for k in loaded.bdm.block_keys] == [
            type(k) for k in bdm.block_keys
        ]


class TestFormatGuards:
    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(PersistenceError, match="not a"):
            PipelineResult.load(path)

    def test_rejects_unknown_version(self, tmp_path):
        original = _pipeline("basic").run(generate_products(60, seed=57))
        data = result_to_dict(original)
        data["version"] = RESULT_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(data))
        with pytest.raises(PersistenceError, match="version"):
            PipelineResult.load(path)

    def test_rejects_truncated_body(self, tmp_path):
        # Right header, missing body: still a PersistenceError, never a
        # bare KeyError leaking out of load().
        path = tmp_path / "truncated.json"
        path.write_text(
            json.dumps({"format": RESULT_FORMAT, "version": RESULT_VERSION})
        )
        with pytest.raises(PersistenceError, match="malformed"):
            PipelineResult.load(path)

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "noise.json"
        path.write_text("definitely not json")
        with pytest.raises(PersistenceError, match="not valid JSON"):
            PipelineResult.load(path)

    def test_header_fields_present(self):
        data = result_to_dict(
            _pipeline("basic").run(generate_products(60, seed=58))
        )
        assert data["format"] == RESULT_FORMAT
        assert data["version"] == RESULT_VERSION


class TestLoadErrorMessages:
    """Load failures must *explain themselves* — the message names the
    file or the offending header field, not just the error type."""

    def test_truncated_file_names_the_file(self, tmp_path):
        # A download cut off mid-document: valid prefix, no closing
        # brace.  The message carries the path so a user with many
        # result files knows which one is broken.
        original = _pipeline("basic").run(generate_products(60, seed=63))
        path = original.save(tmp_path / "cut.json")
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(PersistenceError) as info:
            PipelineResult.load(path)
        message = str(info.value)
        assert "not valid JSON" in message
        assert "cut.json" in message

    def test_wrong_format_reports_what_it_found(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "acme.results", "version": 1}))
        with pytest.raises(PersistenceError) as info:
            PipelineResult.load(path)
        message = str(info.value)
        assert f"not a {RESULT_FORMAT} document" in message
        assert "format='acme.results'" in message

    def test_future_version_reports_both_versions(self, tmp_path):
        original = _pipeline("basic").run(generate_products(60, seed=64))
        data = result_to_dict(original)
        data["version"] = RESULT_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(data))
        with pytest.raises(PersistenceError) as info:
            PipelineResult.load(path)
        message = str(info.value)
        assert (
            f"unsupported {RESULT_FORMAT} version {RESULT_VERSION + 1}"
            in message
        )
        assert f"this build reads version {RESULT_VERSION}" in message

    def test_non_object_document_reports_its_type(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(PersistenceError) as info:
            PipelineResult.load(path)
        assert "expected a JSON object, got list" in str(info.value)

    def test_broken_body_reports_version_and_cause(self, tmp_path):
        # Right header, hand-edited body: the message pins the format
        # version it tried to read and the underlying decode failure.
        original = _pipeline("basic").run(generate_products(60, seed=65))
        data = result_to_dict(original)
        del data["matches"]
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(data))
        with pytest.raises(PersistenceError) as info:
            PipelineResult.load(path)
        message = str(info.value)
        assert f"malformed {RESULT_FORMAT} v{RESULT_VERSION} document" in message
        assert "KeyError('matches')" in message


class TestSweepFromResult:
    def test_sweep_from_file_matches_sweep_from_object(self, tmp_path):
        original = _pipeline("blocksplit").run(generate_products(200, seed=59))
        path = original.save(tmp_path / "result.json")
        from_file = sweep_from_result(
            ["blocksplit", "pairrange"], [4, 8], path, num_nodes=4
        )
        from_object = sweep_from_result(
            ["blocksplit", "pairrange"], [4, 8], original, num_nodes=4
        )
        assert sorted(from_file) == [4, 8]
        for r in from_file:
            for name in from_file[r]:
                assert (
                    from_file[r][name].execution_time
                    == from_object[r][name].execution_time
                )
                assert from_file[r][name].total_pairs == original.bdm.pairs()

    def test_bdm_from_result_requires_a_bdm(self):
        basic = _pipeline("basic").run(generate_products(60, seed=60))
        assert basic.bdm is None
        with pytest.raises(ValueError, match="carries no BDM"):
            bdm_from_result(basic)

    def test_bdm_from_result_rejects_dual(self):
        dual = _pipeline("blocksplit").run(
            generate_products(60, seed=61), generate_products(60, seed=62)
        )
        with pytest.raises(ValueError, match="two-source"):
            bdm_from_result(dual)

    def test_no_bdm_error_message_is_stable(self):
        # Pinned verbatim: callers (and the CLI's 'simulate
        # --from-result' error path) rely on this exact explanation.
        basic = _pipeline("basic").run(generate_products(60, seed=66))
        with pytest.raises(ValueError) as info:
            bdm_from_result(basic)
        assert str(info.value) == (
            "result (strategy 'basic') carries no BDM — only BDM-based "
            "runs (blocksplit/pairrange) can seed sweeps"
        )

    def test_dual_error_message_is_stable(self):
        dual = _pipeline("pairrange").run(
            generate_products(50, seed=67), generate_products(50, seed=68)
        )
        with pytest.raises(ValueError) as info:
            bdm_from_result(dual)
        assert str(info.value) == (
            "two-source results cannot seed the one-source sweep planners"
        )

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_incremental_results_seed_sweeps(self, strategy, tmp_path):
        # A delta run always persists the *merged* BDM (old corpus
        # columns + the delta's), so incremental results replan the
        # whole corpus — for every strategy, including basic, whose
        # full runs carry no BDM at all.
        entities = generate_products(140, seed=69)
        pipeline = _pipeline(strategy)
        ingest(pipeline, entities[:90], tmp_path / "state")
        delta, _ = ingest(pipeline, entities[90:], tmp_path / "state")
        full = _pipeline("blocksplit").run(entities)
        assert bdm_from_result(delta).pairs() == full.bdm.pairs()
        path = delta.save(tmp_path / "delta.json")
        sweep = sweep_from_result(
            ["blocksplit", "pairrange"], [4, 8], path, num_nodes=4
        )
        assert sorted(sweep) == [4, 8]
        for r in sweep:
            for name in sweep[r]:
                assert sweep[r][name].total_pairs == full.bdm.pairs()


def _state_on_disk(tmp_path, *, splits=((0, 70), (70, 110))):
    """A two-ingest corpus state saved to disk; returns its directory."""
    entities = generate_products(110, seed=81)
    pipeline = _pipeline("blocksplit")
    directory = tmp_path / "corpus"
    for lo, hi in splits:
        ingest(pipeline, entities[lo:hi], directory)
    return directory


class TestStateRoundTrip:
    def test_save_load_round_trips_exactly(self, tmp_path):
        directory = _state_on_disk(tmp_path)
        state = load_state(directory)
        assert state.num_ingests == 2
        # A reload of a resave is byte-stable and equal field by field.
        save_state(state, tmp_path / "copy")
        again = load_state(tmp_path / "copy")
        assert state_to_dict(again) == state_to_dict(state)
        assert [
            (p.id1, p.id2, p.similarity) for p in again.matches
        ] == [(p.id1, p.id2, p.similarity) for p in state.matches]
        assert again.comparisons == state.comparisons
        assert (tmp_path / "copy" / STATE_FILE).read_bytes() == (
            directory / STATE_FILE
        ).read_bytes()

    def test_dict_round_trip_is_json_stable(self, tmp_path):
        state = load_state(_state_on_disk(tmp_path))
        data = json.loads(json.dumps(state_to_dict(state)))
        rebuilt = state_from_dict(data, state.match_log)
        assert state_to_dict(rebuilt) == state_to_dict(state)

    def test_uncommitted_trailing_log_lines_are_dropped(self, tmp_path):
        # A crash between the matches.log write and the state.json
        # commit leaves an extra trailing log line; loading ignores it.
        directory = _state_on_disk(tmp_path)
        before = load_state(directory)
        with (directory / MATCH_LOG_FILE).open("a") as handle:
            handle.write('[["ghost1","ghost2",1.0]]\n')
        after = load_state(directory)
        assert after.num_ingests == before.num_ingests
        assert [
            (p.id1, p.id2) for p in after.matches
        ] == [(p.id1, p.id2) for p in before.matches]

    def test_save_leaves_no_tmp_files(self, tmp_path):
        directory = _state_on_disk(tmp_path)
        assert sorted(p.name for p in directory.iterdir()) == [
            MATCH_LOG_FILE,
            STATE_FILE,
        ]


class TestStateLoadErrorMessages:
    """Corpus-state load failures must explain themselves, exactly as
    result-file failures do (same format/version/malformed grammar)."""

    def test_wrong_format_reports_what_it_found(self, tmp_path):
        directory = tmp_path / "corpus"
        directory.mkdir()
        (directory / STATE_FILE).write_text(
            json.dumps({"format": "acme.state", "version": 1})
        )
        with pytest.raises(PersistenceError) as info:
            load_state(directory)
        message = str(info.value)
        assert f"not a {STATE_FORMAT} document" in message
        assert "format='acme.state'" in message

    def test_future_version_reports_both_versions(self, tmp_path):
        # The version-bump drill: a state written by a newer build
        # names both the file's version and the one this build reads.
        directory = _state_on_disk(tmp_path)
        data = json.loads((directory / STATE_FILE).read_text())
        data["version"] = STATE_VERSION + 1
        (directory / STATE_FILE).write_text(json.dumps(data))
        with pytest.raises(PersistenceError) as info:
            load_state(directory)
        message = str(info.value)
        assert (
            f"unsupported {STATE_FORMAT} version {STATE_VERSION + 1}"
            in message
        )
        assert f"this build reads version {STATE_VERSION}" in message

    def test_non_object_document_reports_its_type(self, tmp_path):
        directory = tmp_path / "corpus"
        directory.mkdir()
        (directory / STATE_FILE).write_text("[1, 2, 3]")
        with pytest.raises(PersistenceError) as info:
            load_state(directory)
        assert "expected a JSON object, got list" in str(info.value)

    def test_truncated_state_file_names_the_file(self, tmp_path):
        directory = _state_on_disk(tmp_path)
        payload = (directory / STATE_FILE).read_bytes()
        (directory / STATE_FILE).write_bytes(payload[: len(payload) // 2])
        with pytest.raises(PersistenceError) as info:
            load_state(directory)
        message = str(info.value)
        assert "not valid JSON" in message
        assert STATE_FILE in message

    def test_corrupt_log_line_names_file_and_line(self, tmp_path):
        directory = _state_on_disk(tmp_path)
        with (directory / MATCH_LOG_FILE).open("a") as handle:
            handle.write("not json at all\n")
        log_lines = sum(
            1 for _ in (directory / MATCH_LOG_FILE).open()
        )
        with pytest.raises(PersistenceError) as info:
            load_state(directory)
        message = str(info.value)
        assert "not valid JSON" in message
        assert f"{MATCH_LOG_FILE}:{log_lines}" in message

    def test_missing_log_entries_are_malformed(self, tmp_path):
        # state.json promises two ingests; a truncated matches.log
        # cannot satisfy it — that is corruption, not a crash artifact.
        directory = _state_on_disk(tmp_path)
        (directory / MATCH_LOG_FILE).write_text("")
        with pytest.raises(PersistenceError) as info:
            load_state(directory)
        message = str(info.value)
        assert f"malformed {STATE_FORMAT} v{STATE_VERSION} document" in message
        assert "match log has 0 ingests, state expects 2" in message

    def test_mismatched_log_entry_count_is_malformed(self, tmp_path):
        directory = _state_on_disk(tmp_path)
        state = load_state(directory)
        truncated = state.match_log[0][:-1]
        with pytest.raises(PersistenceError) as info:
            state_from_dict(
                state_to_dict(state), (truncated,) + state.match_log[1:]
            )
        message = str(info.value)
        assert f"malformed {STATE_FORMAT} v{STATE_VERSION} document" in message
        assert (
            f"ingest 0 logged {len(truncated)} matches, state expects "
            f"{len(state.match_log[0])}" in message
        )

    def test_planned_result_cannot_advance_state(self):
        planned = _pipeline("pairrange", "planned").run(
            generate_products(60, seed=82)
        )
        with pytest.raises(ValueError, match="planned runs do not execute"):
            CorpusState.empty().advanced(planned, (), PrefixBlocking("title"))
