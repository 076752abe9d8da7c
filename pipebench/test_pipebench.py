"""Self-test of the pipeline benchmark at its smallest size.

    python3 -m pytest pipebench/test_pipebench.py -q

Every workload, untraced and traced, must print every metric named in
``BENCHMARK.json`` with its unit; a planted wrong answer and a planted
exception must count as failures (the exception as an undiagnosed
one, which leaves ``correct`` true); without the program beside it
the benchmark must fail without printing a result; and no process a run
starts may outlive it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _session_members(sid: int) -> list[str]:
    """``pid state command`` of every process left in session ``sid``."""
    members = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except (OSError, NotADirectoryError):
            continue
        command, rest = stat[stat.index("(") + 1:].rsplit(")", 1)
        fields = rest.split()
        if int(fields[3]) == sid:
            members.append(f"{entry.name} {fields[0]} {command}")
    return members


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """Run the benchmark in a session of its own; no process of that
    session, not even an exited one, may outlive it."""
    argv = [*SPEC["command"], *args]
    with subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as process:
        stdout, stderr = process.communicate(timeout=300)
    # The benchmark led its session, so the session id is its pid.
    leftover = _session_members(process.pid)
    assert not leftover, f"processes outlived the run: {leftover}"
    return subprocess.CompletedProcess(argv, process.returncode, stdout,
                                       stderr)


def _result(process: subprocess.CompletedProcess) -> dict:
    assert process.returncode == 0, process.stderr[-3000:]
    return json.loads(process.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload: str, trace: str) -> None:
    result = _result(_run("--workload", workload, "--seed", "7",
                          "--seconds", "1", "--trace", trace, "--smoke"))
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {name: entry["unit"] for name, entry in
            result["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in spec}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if trace == "0":
        # End-to-end metrics are never 0 (the bounds are shares of them).
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_planted_wrong_answer_is_a_failure() -> None:
    result = _result(_run("--workload", "certify-flat", "--seed", "7",
                          "--seconds", "1", "--trace", "0", "--smoke",
                          "--plant", "wrong-answer"))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["answered_share"]["value"] < 1.0


def test_planted_exception_is_counted_and_the_run_goes_on() -> None:
    process = _run("--workload", "certify-recursive", "--seed", "7",
                   "--seconds", "1", "--trace", "0", "--smoke",
                   "--plant", "crash")
    result = _result(process)
    assert result["correct"] is True
    assert result["failed"] == result["attempted"] > 1
    assert result["metrics"]["answered_share"]["value"] == 0.0
    assert "KeyError: 'planted crash in" in process.stdout


def test_monitor_exception_is_an_undiagnosed_failure() -> None:
    sys.path[:0] = [str(ROOT / "pipebench"), str(ROOT / "src")]
    import common
    import serve_mix

    # A 200 whose program does not compile on the client: the monitor
    # raises, and the check goes on to the next answer.
    answers = [{"class": "fresh", "program": f"progen:{n}", "status": 200,
                "body": {"source": source, "filename": "planted.c"},
                "response": {"bounds": {"stack_requirement": 16}}}
               for n, source in enumerate(["int main(void) { return x; }",
                                           "int main(void) { return 0; }"])]
    outcome = common.Outcome()
    try:
        serve_mix._check(answers, outcome)
    finally:
        common.stop_children()   # the check's pool and its tracker
    assert outcome.attempted == 2
    assert outcome.wrong == 0
    assert len(outcome.failures) == 1
    assert "monitor raised" in outcome.failures[0]


def test_fails_without_the_program() -> None:
    bare = ROOT / ".pipebench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    process = _run("--workload", WORKLOADS[0], "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert process.returncode != 0
    assert '"metrics"' not in process.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
