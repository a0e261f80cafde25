"""The benchmark scripts' shared harness: summaries of benchmark runs,
and the workers that time two source trees in turn."""

import json
from pathlib import Path

import harness
import pytest


def run_file(directory: Path, name: str, ops_per_s: float) -> None:
    metrics = {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
               "op_s.p50": {"value": 1 / ops_per_s, "unit": "s"}}
    (directory / f"{name}.json").write_text(json.dumps(
        {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}))


def test_a_workload_with_fewer_than_two_pairs_is_skipped(tmp_path, capsys):
    for seed, (old, new) in enumerate([(100, 110), (100, 90), (100, 120)]):
        run_file(tmp_path, f"parent-cftp-{seed}", old)
        run_file(tmp_path, f"change-cftp-{seed}", new)
    run_file(tmp_path, "parent-cli-mixed-1", 700)
    run_file(tmp_path, "change-cli-mixed-1", 800)
    run_file(tmp_path, "change-cli-mixed-2", 800)
    summary = harness.summarise(tmp_path)
    assert list(summary) == ["cftp"]
    rows = summary["cftp"]["metrics"]
    assert set(rows) == {"ops_per_s", "op_s.p50"}
    assert rows["ops_per_s"]["change_wins"] == 2
    assert rows["ops_per_s"]["change"]["median"] == 110
    assert capsys.readouterr().err == (
        "cli-mixed: 1 complete parent/change pair(s), fewer than two; "
        "skipped\n")


@pytest.mark.parametrize("text", ["", "{", '{"metrics": 1}', "[]"])
def test_a_file_that_is_no_run_is_named_in_exit_2(tmp_path, capsys, text):
    run_file(tmp_path, "parent-cftp-1", 100)
    (tmp_path / "change-cftp-1.json").write_text(text)
    ap = harness.arguments("a sweep", "BENCH_x.json")
    with pytest.raises(SystemExit) as done:
        ap.parse_args(["--runs", str(tmp_path)])
    assert done.value.code == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'change-cftp-1.json'} is not a benchmark run" in err


def test_alternate_keeps_each_side_s_least_answers(tmp_path):
    """Both workers greet with their inputs, and each side's answers are
    reduced to their elementwise least over the passes."""
    script = tmp_path / "sweep.py"
    script.write_text(
        "import json, sys\n"
        "print(sys.stdin.readline().strip(), flush=True)\n"
        "for k, _ in enumerate(sys.stdin):\n"
        "    print(json.dumps([10 - k, k]), flush=True)\n")
    sides = harness.alternate(str(script), [1, 2], tmp_path, "pass", 3)
    assert sides == {"change": ([1, 2], [8, 0]), "parent": ([1, 2], [8, 0])}
