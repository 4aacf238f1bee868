"""Benchmark suite: schema, determinism of the workload, CLI integration."""

import json
import time
from pathlib import Path

import pytest

from repro import bench
from repro.bench import (
    BENCH_SCHEMA_VERSION,
    BENCH_STAGES,
    _time_stage,
    default_output_path,
    format_bench_result,
    load_bench_result,
    run_bench,
    validate_bench_result,
    write_bench_result,
)
from repro.runtime.threads import blas_threads


REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_result():
    return run_bench()


def test_tiny_result_passes_schema(bench_result):
    validate_bench_result(bench_result)
    assert bench_result["schema_version"] == BENCH_SCHEMA_VERSION
    assert bench_result["preset"] == {"num_frames": 32, "repeats": 5}
    # Only the fast paths and their references are timed.
    assert list(bench_result["stages"]) == list(BENCH_STAGES)
    assert "fleet" not in bench_result
    # The span breakdown must include the batched simulator path.
    assert "simulate.sequence" in bench_result["spans"]


def test_stages_run_at_one_blas_thread_and_restore_the_count(monkeypatch):
    seen = []

    def stages():
        seen.append(blas_threads())
        timing = {"repeats": 1, "min_s": 1.0, "mean_s": 1.0, "max_s": 1.0}
        return {name: dict(timing) for name in BENCH_STAGES}

    monkeypatch.setattr(bench, "_run_stages", stages)
    before = blas_threads()
    result = run_bench()
    assert blas_threads() == before
    expected = None if before is None else 1
    assert seen == [expected]
    assert result["meta"]["blas_threads"] == expected


def test_warmup_call_is_untimed():
    calls = []

    def cold_first_call():
        if not calls:
            time.sleep(0.2)
        calls.append(None)

    timing = _time_stage(cold_first_call, 3)
    assert len(calls) == 4
    assert timing["repeats"] == 3
    assert timing["max_s"] < 0.1


def test_committed_bench_files_load_and_the_newest_validates():
    paths = sorted(REPO_ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        load_bench_result(path)
    # A schema bump has to come with a fresh committed result.
    validate_bench_result(load_bench_result(paths[-1]))


def test_meta_block_labels_the_result(bench_result):
    meta = bench_result["meta"]
    assert "preset" not in meta
    assert meta["cpu_count"] >= 1
    assert len(meta["date"]) == 10  # YYYY-MM-DD
    assert meta["git_sha"] and meta["hostname"]
    broken = {k: v for k, v in bench_result.items() if k != "meta"}
    with pytest.raises(ValueError, match="meta"):
        validate_bench_result(broken)
    with pytest.raises(ValueError, match="git_sha"):
        validate_bench_result({**bench_result, "meta": {}})


def test_loader_accepts_current_and_legacy_files(bench_result, tmp_path):
    current = tmp_path / "current.json"
    write_bench_result(bench_result, current)
    assert load_bench_result(current)["meta"] == bench_result["meta"]

    legacy = {k: v for k, v in bench_result.items() if k != "meta"}
    legacy["schema_version"] = 3
    legacy["preset"] = {**legacy["preset"], "name": "tiny"}
    v3_path = tmp_path / "v3.json"
    v3_path.write_text(json.dumps(legacy))
    loaded = load_bench_result(v3_path)
    # The loader synthesizes meta from what v3 files do carry.
    assert loaded["schema_version"] == 3
    assert loaded["meta"]["preset"] == "tiny"
    assert loaded["meta"]["git_sha"] == "unknown"
    assert loaded["meta"]["date"] == bench_result["generated_utc"][:10]
    assert loaded["meta"]["cpu_count"] == bench_result["machine"]["cpu_count"]

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


def test_speedups_are_positive(bench_result):
    for key in ("simulate", "drai", "end_to_end"):
        assert bench_result["speedup"][key] > 0.0


def test_validate_rejects_missing_stage(bench_result):
    broken = {**bench_result, "stages": dict(bench_result["stages"])}
    del broken["stages"]["sample.end_to_end_reference"]
    with pytest.raises(ValueError, match="sample.end_to_end_reference"):
        validate_bench_result(broken)


def test_validate_rejects_wrong_schema_version(bench_result):
    with pytest.raises(ValueError, match="schema_version"):
        validate_bench_result({**bench_result, "schema_version": 999})


def test_write_round_trips_json(bench_result, tmp_path):
    path = write_bench_result(bench_result, tmp_path / "bench.json")
    loaded = json.loads(path.read_text())
    validate_bench_result(loaded)
    assert loaded["preset"] == bench_result["preset"]


def test_default_output_path_embeds_utc_date(bench_result):
    path = default_output_path(bench_result)
    date = bench_result["generated_utc"][:10]
    assert path.name == f"BENCH_{date}.json"


def test_format_is_human_readable(bench_result):
    text = format_bench_result(bench_result)
    assert "speedup vs per-frame reference" in text
    assert "chirps/s" in text
    assert "sample.end_to_end_reference" in text


def test_cli_bench_subcommand(tmp_path, capsys):
    import repro.cli as cli

    out = tmp_path / "bench.json"
    assert cli.main(["-q", "bench", "--output", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "speedup vs per-frame reference" in printed
    validate_bench_result(json.loads(out.read_text()))


def test_cli_bench_has_no_preset_option():
    import repro.cli as cli

    with pytest.raises(SystemExit) as excinfo:
        cli.build_parser().parse_args(["bench", "--preset", "medium"])
    assert excinfo.value.code == 2
