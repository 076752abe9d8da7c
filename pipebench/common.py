"""Shared pieces of the pipeline benchmark: paths, statistics, known
answers, the layer table and the result line.

Every workload certifies C programs through one of three front doors
(direct calls, the ``repro serve`` daemon, the differential campaign)
and reports the same end-to-end metric names, defined over the
workload's *operations* (one program, one request, one campaign seed).
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Root of the checkout the benchmark runs in (``pipebench/..``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
#: Scratch space for daemon stores, span files and reproducer dumps;
#: inside the checkout and git-ignored.
WORK = ROOT / ".pipebench-work"

LAYERS = ("frontend", "backend", "analyzer", "logic", "measure", "serve",
          "campaign")

CAMPAIGN_STAGES = ("compile", "asm", "clight", "deep", "analyze",
                   "derivation", "probes")
SERVE_CLASSES = ("hit", "ablation", "fresh", "probe", "hostile")
STORE_STAGES = ("frontend", "backend", "analyze", "check")

def metric_units(traced: bool) -> dict:
    """Name -> unit of the metrics a run prints, from ``BENCHMARK.json``:
    the per-layer ones for a traced run, else the end-to-end ones."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if traced else "end_to_end"]}


def setup_import_path() -> None:
    """Make ``repro`` importable from the checkout's ``src``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"pipebench: no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for subprocesses: ``src`` importable, scratch local."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of every process it starts.

    A child that exits before its own children (the serve daemon before
    its pool workers and its ``multiprocessing`` resource tracker) leaves
    them to this process instead of to init, so :func:`stop_children`
    can stop and wait for them too.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass   # not Linux: descendants of children go to init


def _living_children() -> list[int]:
    """Pids whose parent is this process and that have not exited."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue   # exited meanwhile
        if int(fields[1]) == me and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this one started or adopted, and wait for each.

    The ``multiprocessing`` resource tracker, which the spawned pools
    start and which lives until its pipe closes, is stopped first;
    then every remaining child gets ``SIGTERM``, and ``SIGKILL`` after
    ``grace_s``; the loop ends when no child is left to reap.
    """
    from multiprocessing import resource_tracker

    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop",
                           None)
    if stop_tracker is not None:
        stop_tracker()
    deadline = time.monotonic() + grace_s
    terminated: set = set()
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            return
        kill = time.monotonic() > deadline
        for pid in _living_children():
            if kill or pid not in terminated:
                try:
                    os.kill(pid, signal.SIGKILL if kill else signal.SIGTERM)
                except ProcessLookupError:
                    pass
                terminated.add(pid)
        time.sleep(0.02)


def time_fresh_import(repeats: int = 3) -> float:
    """Median cold start of the toolchain in a fresh interpreter, at
    the reference speed (see :func:`speed_probe`).

    The child imports the pipeline and compiles a trivial program — the
    campaign/serve pool warm-up — so work moved into import or warm-up
    shows here.
    """
    code = ("from repro.testing.campaign import pool_warmup; "
            "import repro.measure.monitor, repro.logic.checker; "
            "pool_warmup()")
    samples = []
    for _ in range(repeats):
        before = speed_probe()
        started = time.perf_counter()
        # No ``timeout=``: with one, ``subprocess`` polls for the exit
        # every 50 ms, which quantized these times to 50 ms steps.
        subprocess.run([sys.executable, "-c", code], env=child_env(),
                       cwd=ROOT, check=True)
        samples.append(at_reference(time.perf_counter() - started,
                                    before, speed_probe()))
    return statistics.median(samples)


#: The speed probe: a fixed pure-Python loop, timed in thread CPU time.
PROBE_LOOPS = 50_000
#: The probe's CPU time at the reference speed the timings are scaled
#: to (about its median on a 2-vCPU VM running Python 3.11).
PROBE_REF_S = 0.005


def speed_probe(loops: int = PROBE_LOOPS) -> float:
    """Seconds the probe loop takes now, scaled to ``PROBE_LOOPS``.

    The vCPUs of a shared host change speed by ±25 % within seconds (a
    fixed arithmetic loop took 0.22–0.38 s within one minute, in CPU
    time as in wall time), and the pipeline's own timings swing with
    them: one certify-flat pass took 1.8–3.0 s.  Timing this loop next
    to every operation lets the benchmark report each operation at the
    reference speed (:func:`at_reference`).
    """
    started = time.thread_time()
    total = 0
    for i in range(loops):
        total += (i & 1023) * (i & 1023) % 7   # small ints: fixed cost
    return (time.thread_time() - started) * PROBE_LOOPS / loops


def at_reference(seconds: float, *probes: float) -> float:
    """``seconds`` measured while the probe read ``probes``, rescaled to
    the reference speed."""
    return seconds * PROBE_REF_S / (sum(probes) / len(probes))


class SpeedSampler:
    """Reads the speed probe every ``INTERVAL_S`` in a background thread.

    A stage that runs for seconds (a recursive check, a refusal) is then
    rescaled by the readings taken while it ran, not only by the two at
    its ends: on a 4 s refusal this cut the spread (IQR/median) of its
    reference-speed time over ten fresh runs on a 2-vCPU VM from 0.19
    to 0.13.  Each
    reading holds the GIL for about a millisecond, about 1 % of the
    stage it samples.
    """

    INTERVAL_S = 0.1
    LOOPS = 10_000

    def __init__(self) -> None:
        self.readings: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            self.readings.append(speed_probe(self.LOOPS))

    def take(self) -> list[float]:
        """The readings since the last call."""
        readings, self.readings = self.readings, []
        return readings

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values, percent: int) -> float:
    """The ``percent``-th percentile of a non-empty sample, interpolated
    between order statistics (steadier than nearest rank when only a
    few samples lie beyond it)."""
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        percent - 1]


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def load_golden() -> dict:
    """Known answers: Table 1 bounds plus inferred recursive/fp bounds."""
    answers = {}
    for name in ("table1_bounds.json", "inferred_bounds.json"):
        with open(GOLDEN / name) as handle:
            answers.update(json.load(handle))
    return answers


def golden_functions(entry: dict) -> dict:
    """Ground per-function byte bounds of one golden entry."""
    return entry.get("functions") or entry["bytes_at_100"]


class Outcome:
    """Operations attempted and failed, with the reasons.

    An operation fails when its answer is *wrong* (a bound that differs
    from the known answer or that the ASMsz monitor refutes, a refusal
    of a program that must certify) or *undiagnosed* (a 5xx, a 504, an
    exception outside ``ReproError``).  The result line's ``correct``
    is false only for wrong answers: hostile input has no reference
    answer, only the obligation to end in a diagnosis.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong = 0

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, what: str, wrong: bool = True) -> None:
        self.attempted += 1
        self.failures.append(what)
        self.wrong += wrong

    @property
    def answered_share(self) -> float:
        if not self.attempted:
            return 0.0
        return 1.0 - len(self.failures) / self.attempted


def end_to_end_metrics(setup_s: float, outcome: Outcome, rss_mb: float,
                       pass_times: list, verdict_ms: list,
                       latency_ms: list, pass_operations: int) -> dict:
    """The end-to-end metric values shared by every workload.

    Every pass does the same ``pass_operations`` operations, so the
    throughput is taken over the median pass: one pass slowed by the
    host does not move it more than it moves ``pass_s``.
    """
    return {
        "setup_s": setup_s,
        "answered_share": outcome.answered_share,
        "peak_rss_mb": rss_mb,
        "pass_s": statistics.median(pass_times),
        "verdict_geomean_ms": geomean(verdict_ms),
        "latency_p50_ms": quantile(latency_ms, 50),
        "latency_p90_ms": quantile(latency_ms, 90),
        "throughput_rps": pass_operations / statistics.median(pass_times),
    }


# ---------------------------------------------------------------------------
# Layer attribution over span trees
# ---------------------------------------------------------------------------

#: Benchmark-owned boundary spans are named ``layer.<name>``.
BOUNDARY = "layer."

#: Inside ``run_campaign`` the benchmark cannot time the layers from
#: outside, so the campaign's traced run attributes the program's own
#: ``repro.obs`` spans by name (first matching prefix wins).
CAMPAIGN_INNER = (
    ("compile.frontend", "frontend"),
    ("compile.backend", "backend"),
    ("analyze.check", "logic"),
    ("checker.", "logic"),
    ("analyze.", "analyzer"),
    ("analyzer.", "analyzer"),
    ("exec.asm", "measure"),
    ("decode.asm", "measure"),
    ("codegen.asm", "measure"),
)


def layer_self_times(records: list, inner=()) -> tuple[dict, dict]:
    """Self time per layer (seconds) and per span name, from span records.

    A span's exclusive time is its duration minus its direct children's.
    It is charged to the layer of the *outermost* span naming one, up to
    the nearest ``layer.*`` boundary span (which names its own layer):
    the call that entered a layer owns everything beneath it, just as a
    boundary timed from outside would.  Program spans name a layer only
    through ``inner``'s ``(prefix, layer)`` rules (first match wins).
    """
    by_id = {(r["pid"], r["id"]): r for r in records}
    child_time: dict = {}
    for record in records:
        if record["parent"] is not None:
            key = (record["pid"], record["parent"])
            child_time[key] = child_time.get(key, 0.0) + record["dur"]

    def inner_layer(name):
        for prefix, layer in inner:
            if name.startswith(prefix):
                return layer
        return None

    def layer_of(record):
        outermost = None
        while record is not None:
            name = record["name"]
            if name.startswith(BOUNDARY):
                return outermost or name[len(BOUNDARY):]
            outermost = inner_layer(name) or outermost
            parent = record["parent"]
            record = (by_id.get((record["pid"], parent))
                      if parent is not None else None)
        return outermost

    layers = {layer: 0.0 for layer in LAYERS}
    names: dict = {}
    for record in records:
        exclusive = max(0.0, record["dur"]
                        - child_time.get((record["pid"], record["id"]), 0.0))
        layer = layer_of(record)
        if layer is not None:
            layers[layer] = layers.get(layer, 0.0) + exclusive
        names[record["name"]] = names.get(record["name"], 0.0) + exclusive
    return layers, names


def write_spans(workload: str, records: list) -> Path:
    """Export one workload's span tree (Chrome trace + JSONL)."""
    from repro.obs import write_chrome_trace
    from repro.obs.export import write_spans_jsonl

    WORK.mkdir(parents=True, exist_ok=True)
    chrome = WORK / f"{workload}.trace.json"
    write_chrome_trace(str(chrome), records)
    write_spans_jsonl(str(WORK / f"{workload}.spans.jsonl"), records)
    return chrome


def layer_metrics(self_s: dict, wall_s: float) -> dict:
    """``<layer>.self_ms`` and ``<layer>.share`` of the measured wall."""
    metrics = {}
    for layer in LAYERS:
        seconds = self_s.get(layer, 0.0)
        metrics[f"{layer}.self_ms"] = seconds * 1000.0
        metrics[f"{layer}.share"] = seconds / wall_s if wall_s else 0.0
    return metrics


def print_layer_table(self_s: dict, wall_s: float, names: dict,
                      overhead: float, out=sys.stdout) -> None:
    print(f"# layer self time over {wall_s:.3f} s of traced wall time",
          file=out)
    print(f"# {'layer':10s} {'self ms':>10s} {'share':>7s}", file=out)
    for layer in LAYERS:
        seconds = self_s.get(layer, 0.0)
        if seconds:
            print(f"# {layer:10s} {seconds * 1000:10.1f} "
                  f"{seconds / wall_s:7.1%}", file=out)
    top = sorted(names.items(), key=lambda item: -item[1])[:8]
    print("# heaviest spans (self ms): " + ", ".join(
        f"{name} {sec * 1000:.1f}" for name, sec in top), file=out)
    print(f"# tracing overhead vs untraced: {overhead:+.1%}", file=out)


def result_line(outcome: Outcome, metrics: dict, units: dict) -> str:
    """The benchmark's last stdout line."""
    return json.dumps({
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    })
