"""Benchmark suite: schema, determinism of the workload, CLI integration."""

import json

import pytest

from repro import bench as bench_module
from repro.bench import (
    BENCH_PRESETS,
    BENCH_SCHEMA_VERSION,
    default_output_path,
    format_bench_result,
    load_bench_result,
    run_bench,
    validate_bench_result,
    write_bench_result,
)


@pytest.fixture(scope="module")
def placement_calls():
    """Candidate lists the bench's placement stage handed to the scorer."""
    return []


@pytest.fixture(scope="module")
def tiny_result(placement_calls):
    score = bench_module._score_candidates_batched

    def recording_score(*args, **kwargs):
        placement_calls.append(args[3])
        return score(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bench_module, "_score_candidates_batched", recording_score)
        return run_bench("tiny")


def test_presets_are_ordered_by_size():
    assert set(BENCH_PRESETS) == {"tiny", "small", "medium"}
    frames = [BENCH_PRESETS[name].num_frames for name in ("tiny", "small", "medium")]
    assert frames == sorted(frames)
    assert BENCH_PRESETS["medium"].num_frames == 32  # the paper's scale


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown bench preset"):
        run_bench("huge")


def test_tiny_result_passes_schema(tiny_result):
    validate_bench_result(tiny_result)
    assert tiny_result["schema_version"] == BENCH_SCHEMA_VERSION
    assert tiny_result["preset"]["name"] == "tiny"
    # The span breakdown must include the batched simulator path.
    assert "simulate.sequence" in tiny_result["spans"]


def test_meta_block_labels_the_result(tiny_result):
    meta = tiny_result["meta"]
    assert meta["preset"] == "tiny"
    assert meta["cpu_count"] >= 1
    assert len(meta["date"]) == 10  # YYYY-MM-DD
    assert meta["git_sha"] and meta["hostname"]
    broken = {k: v for k, v in tiny_result.items() if k != "meta"}
    with pytest.raises(ValueError, match="meta"):
        validate_bench_result(broken)
    with pytest.raises(ValueError, match="git_sha"):
        validate_bench_result({**tiny_result, "meta": {}})


def test_loader_accepts_current_and_legacy_files(tiny_result, tmp_path):
    current = tmp_path / "v4.json"
    write_bench_result(tiny_result, current)
    assert load_bench_result(current)["meta"] == tiny_result["meta"]

    legacy = {k: v for k, v in tiny_result.items() if k != "meta"}
    legacy["schema_version"] = 3
    v3_path = tmp_path / "v3.json"
    v3_path.write_text(json.dumps(legacy))
    loaded = load_bench_result(v3_path)
    # The loader synthesizes meta from what v3 files do carry.
    assert loaded["schema_version"] == 3
    assert loaded["meta"]["preset"] == "tiny"
    assert loaded["meta"]["git_sha"] == "unknown"
    assert loaded["meta"]["date"] == tiny_result["generated_utc"][:10]
    assert loaded["meta"]["cpu_count"] == tiny_result["machine"]["cpu_count"]

    # v2 (pre-fleet, pre-meta) also loads — the repo's committed
    # BENCH_2026-08-05.json is one — with the same synthesized meta.
    v2 = {k: v for k, v in legacy.items() if k != "fleet"}
    v2["schema_version"] = 2
    v2_path = tmp_path / "v2.json"
    v2_path.write_text(json.dumps(v2))
    loaded_v2 = load_bench_result(v2_path)
    assert loaded_v2["schema_version"] == 2
    assert loaded_v2["meta"]["git_sha"] == "unknown"
    assert "fleet" not in loaded_v2

    v1_path = tmp_path / "v1.json"
    v1_path.write_text(json.dumps({**v2, "schema_version": 1}))
    with pytest.raises(ValueError, match="schema version"):
        load_bench_result(v1_path)


def test_speedups_are_positive(tiny_result):
    for key in ("simulate", "drai", "end_to_end"):
        assert tiny_result["speedup"][key] > 0.0


def test_placement_stage_times_the_batched_scorer(tiny_result, placement_calls):
    """The stage times the scorer TriggerPlacementOptimizer.optimize runs,
    every candidate in one batched call per repeat."""
    assert "attack.placement_scoring" in tiny_result["stages"]
    assert placement_calls
    candidates = tiny_result["preset"]["placement_candidates"]
    assert all(len(positions) == candidates for positions in placement_calls)


def test_fleet_scaling_block(tiny_result):
    fleet = tiny_result["fleet"]
    assert fleet["replicas"] == 3
    assert fleet["rps_single"] > 0.0 and fleet["rps_fleet"] > 0.0
    assert fleet["scaling"] == pytest.approx(
        fleet["rps_fleet"] / fleet["rps_single"]
    )
    for stage in ("serve.fleet_single", "serve.fleet"):
        assert tiny_result["stages"][stage]["requests"] == 24
    broken = {key: value for key, value in tiny_result.items() if key != "fleet"}
    with pytest.raises(ValueError, match="fleet"):
        validate_bench_result(broken)


def test_validate_rejects_missing_stage(tiny_result):
    broken = {**tiny_result, "stages": dict(tiny_result["stages"])}
    del broken["stages"]["train.epoch"]
    with pytest.raises(ValueError, match="train.epoch"):
        validate_bench_result(broken)


def test_validate_rejects_wrong_schema_version(tiny_result):
    with pytest.raises(ValueError, match="schema_version"):
        validate_bench_result({**tiny_result, "schema_version": 999})


def test_write_round_trips_json(tiny_result, tmp_path):
    path = write_bench_result(tiny_result, tmp_path / "bench.json")
    loaded = json.loads(path.read_text())
    validate_bench_result(loaded)
    assert loaded["preset"] == tiny_result["preset"]


def test_default_output_path_embeds_utc_date(tiny_result):
    path = default_output_path(tiny_result)
    date = tiny_result["generated_utc"][:10]
    assert path.name == f"BENCH_{date}.json"


def test_format_is_human_readable(tiny_result):
    text = format_bench_result(tiny_result)
    assert "speedup vs per-frame reference" in text
    assert "chirps/s" in text
    assert "train.epoch" in text


def test_cli_bench_subcommand(tmp_path, capsys):
    import repro.cli as cli

    out = tmp_path / "bench.json"
    assert cli.main(["-q", "bench", "--preset", "tiny", "--output", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "speedup vs per-frame reference" in printed
    validate_bench_result(json.loads(out.read_text()))
