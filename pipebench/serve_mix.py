"""Workload ``serve-mixed``: a ``repro serve --jobs 2`` daemon under a
closed loop of 2 connections from one client process.

Requests come in rounds of 84 (see ``Schedule``): every one of the 14
non-recursive catalog programs in each class, hit twice, in a seeded
order.  Recursive programs are left out because one recursive
certification takes 0.5–9 s, so a single one would decide a run's
throughput (recursive certification is ``certify-recursive``'s job).

* ``hit`` — a catalog source at default options: after its first miss
  every stage replays from the store;
* ``ablation`` — a catalog source under one of the 31 other
  ``CompilerOptions`` sets, so once the source has been seen only the
  backend stage misses;
* ``fresh`` — a ``progen`` program the daemon has not seen, so every
  stage misses and writes the store;
* ``probe`` — ``probe: true`` on a catalog source: certify, then run at
  the bound on the codegen tier;
* ``hostile`` — a catalog source after 1–4 seeded character/token
  edits; it must end in a 200 or a diagnosed 422.

Answers are checked after the timed phase: catalog sources against the
golden bounds, every other 200 on the ASMsz monitor (the program runs
in ``bound + 4`` stack bytes and its watermark stays within the bound).
"""

from __future__ import annotations

import http.client
import itertools
import json
import multiprocessing
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import common

#: Requests per catalog program in one round, by class: a round of
#: 14 x 6 = 84 requests has shares hit 1/3, the others 1/6 each.
MIX = {"hit": 2, "ablation": 1, "fresh": 1, "probe": 1, "hostile": 1}
MIN_REQUESTS = 100          # so the client-side p90 has 10 samples beyond it
CONNECTIONS = 2
BOOT_REPEATS = 3
CLIENT_TIMEOUT_S = 90.0
#: Daemon memory is read after this many rounds: it grows with the
#: requests served, and a run serves as many rounds as fit its time.
RSS_ROUNDS = 2
FRESH_BASE = 1_000_000      # far from the campaign's seeds
#: A short speed probe around each request (~1 ms), so probing adds
#: little to the closed loop's think time.
PROBE_LOOPS = 10_000

TOKEN = re.compile(r"[A-Za-z_]\w*|\d\w*|\S")
EDIT_CHARS = "();{}[]+-*/%<>=!&|^~,.0123456789xXabcdefilnorstu \n"


def mutate(source: str, rng: random.Random) -> str:
    """1–4 random character or token edits (hostile/malformed C)."""
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(6)
        if op < 3:
            at = rng.randrange(len(source))
            char = rng.choice(EDIT_CHARS)
            source = (source[:at] + source[at + 1:],             # delete
                      source[:at] + char + source[at:],          # insert
                      source[:at] + char + source[at + 1:])[op]  # replace
            continue
        tokens = [m.span() for m in TOKEN.finditer(source)]
        start, end = tokens[rng.randrange(len(tokens))]
        if op == 3:                                              # drop token
            source = source[:start] + source[end:]
        elif op == 4:                                            # repeat it
            source = source[:end] + " " + source[start:end] + source[end:]
        else:                                                    # swap one in
            other = tokens[rng.randrange(len(tokens))]
            source = source[:start] + source[slice(*other)] + source[end:]
    return source


def _deck(items: list, rng: random.Random):
    """Endless draws that use every item once before any repeats."""
    while True:
        order = items[:]
        rng.shuffle(order)
        yield from order


class Schedule:
    """The seeded request stream, one round at a time.

    A round sends every catalog program the same number of times in
    each class (``MIX``), in a seeded order; the seed also draws the
    ablation option sets and the mutations.  Runs measure whole rounds,
    so every seed does the same amount of each kind of work: drawing
    programs independently made throughput and median latency spread
    25-40 % between seeds, because the cost of a request scales with
    its program (mandelbrot's probe alone runs ~0.6 s).
    """

    def __init__(self, seed: int) -> None:
        from repro.programs.catalog import AUTO_ANALYZABLE
        from repro.programs.loader import load_source

        self.rng = random.Random(seed)
        self.sources = {path: load_source(path) for path in AUTO_ANALYZABLE}
        flags = ("constprop", "deadcode", "cse", "tailcall",
                 "spill_everything")
        default = (True, True, False, False, False)
        self.options = _deck([dict(zip(flags, values)) for values in
                              itertools.product((True, False),
                                                repeat=len(flags))
                              if values != default], self.rng)
        # The same progen programs, in the same order, for every seed:
        # each is new to the empty store (so every stage misses), and
        # their cost varies enough that seed-drawn ones moved a run's
        # throughput by 10-15 %.
        self.fresh = itertools.count(FRESH_BASE)

    def request(self, cls: str, path: str) -> dict:
        from repro.testing.progen import generate_program

        if cls == "fresh":
            seed = next(self.fresh)
            path = f"progen:{seed}"
            body = {"source": generate_program(seed),
                    "filename": f"progen{seed}.c"}
        else:
            body = {"source": self.sources[path], "filename": path}
        if cls == "ablation":
            body["options"] = next(self.options)
        elif cls == "probe":
            body["probe"] = True
        elif cls == "hostile":
            body["source"] = mutate(body["source"], self.rng)
        return {"class": cls, "program": path, "body": body,
                "payload": json.dumps(body).encode()}

    def round(self) -> list[dict]:
        work = [(cls, path) for path in self.sources
                for cls, count in MIX.items() for _ in range(count)]
        self.rng.shuffle(work)
        return [self.request(cls, path) for cls, path in work]


# ---------------------------------------------------------------------------
# The daemon
# ---------------------------------------------------------------------------


class Daemon:
    """One ``repro serve`` process on a fresh, empty store."""

    def __init__(self, name: str) -> None:
        self.store = store = common.WORK / f"store-{name}"
        if store.exists():
            shutil.rmtree(store)
        self.log_path = common.WORK / f"serve-{name}.log"
        (common.WORK / "tmp").mkdir(parents=True, exist_ok=True)
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "2", "--store-dir", str(store)],
            stdout=subprocess.DEVNULL, stderr=self.log,
            env=common.child_env(), cwd=common.ROOT)
        self.port = None

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        """Wait for the banner, then for both workers to answer."""
        deadline = time.monotonic() + timeout_s
        while self.port is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("serve daemon did not start: "
                                   + self.log_path.read_text()[-500:])
            found = re.search(r"http://127\.0\.0\.1:(\d+)",
                              self.log_path.read_text())
            if found:
                self.port = int(found.group(1))
            else:
                time.sleep(0.01)
        # Two distinct warm-up programs, concurrently, so each pool
        # worker has paid its import/warm-up before the timed phase.
        warmups = [json.dumps({"source": f"int main(void) {{ return {i}; }}",
                               "filename": f"warmup{i}.c"}).encode()
                   for i in range(CONNECTIONS)]
        with ThreadPoolExecutor(CONNECTIONS) as pool:
            for status, _body in pool.map(self.post, warmups):
                if status != 200:
                    raise RuntimeError(f"warm-up request answered {status}")

    def post(self, payload: bytes) -> tuple[int, bytes]:
        """One ``/verify`` request; the answer is parsed by the caller,
        after the timed phase, so the client's JSON work does not
        compete with the daemon for the CPUs."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=CLIENT_TIMEOUT_S)
        try:
            conn.request("POST", "/verify", body=payload,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def metrics(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=CLIENT_TIMEOUT_S)
        try:
            conn.request("GET", "/metrics")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def peak_rss_mb(self, metrics: dict) -> float:
        """Sum of the peak RSS of the daemon and its pool workers.

        Summed, because which worker's memory peaks depends on how the
        pool happened to spread the requests; the workers are found by
        their ``serve.worker.<pid>.requests`` counters.
        """
        pids = [self.proc.pid] + [
            int(name.split(".")[2]) for name in metrics.get("counters", {})
            if re.fullmatch(r"serve\.worker\.\d+\.requests", name)]
        total_kb = 0
        for pid in pids:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        self.log_path.unlink()
        shutil.rmtree(self.store, ignore_errors=True)


def boot(name: str) -> tuple[Daemon, float]:
    """Start a daemon; returns it and its boot time at the reference
    speed."""
    before = common.speed_probe()
    started = time.perf_counter()
    daemon = Daemon(name)
    try:
        daemon.wait_ready()
    except BaseException:
        daemon.stop()
        raise
    return daemon, common.at_reference(time.perf_counter() - started,
                                       before, common.speed_probe())


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def _send(daemon: Daemon, request: dict) -> dict:
    before = common.speed_probe(PROBE_LOOPS)
    ts = time.time()
    started = time.perf_counter()
    try:
        status, raw = daemon.post(request["payload"])
    except (OSError, http.client.HTTPException) as error:
        status, raw = 0, f"{type(error).__name__}: {error}".encode()
    elapsed = time.perf_counter() - started
    after = common.speed_probe(PROBE_LOOPS)
    return {**request, "status": status, "raw": raw, "ts": ts,
            "latency_ms": elapsed * 1e3, "probes": (before, after),
            "ref_latency_ms": common.at_reference(elapsed * 1e3, before,
                                                  after)}


def _parse(answer: dict) -> None:
    raw = answer.pop("raw")
    if answer["status"] == 0:   # no HTTP answer; raw is the client error
        answer["response"] = {"error": raw.decode()}
        return
    try:
        answer["response"] = json.loads(raw)
    except ValueError as error:
        answer["status"], answer["response"] = 0, {
            "error": f"unreadable answer: {error}"}


def _monitor(job: tuple) -> tuple[int, str, str]:
    """Run one served program at ``bound + 4`` stack bytes on ASMsz.

    Returns the watermark, how the run ended and why.  An exception
    (the program the daemon certified does not compile here, or the
    monitor fails) ends as ``"exception"``, so one bad job does not
    stop the check of the others.
    """
    from repro.driver import CompilerOptions, compile_c
    from repro.events.trace import Converges, GoesWrong
    from repro.measure.monitor import measure_compilation
    from repro.serve.pipeline import PROBE_FUEL

    source, filename, options, bound = job
    try:
        compilation = compile_c(source, filename,
                                options=CompilerOptions(**dict(options)))
        run = measure_compilation(compilation, stack_bytes=bound + 4,
                                  fuel=PROBE_FUEL)
    except Exception as error:
        return 0, "exception", f"{type(error).__name__}: {error}"
    if isinstance(run.behavior, Converges):
        return run.measured_bytes, "converged", ""
    if isinstance(run.behavior, GoesWrong):
        return run.measured_bytes, "wrong", run.behavior.reason
    return run.measured_bytes, "diverged", ""


def _monitor_job(answer: dict) -> tuple:
    request = answer["body"]
    return (request["source"], request.get("filename", "<request>"),
            tuple(sorted((request.get("options") or {}).items())),
            answer["response"]["bounds"]["stack_requirement"])


def _check(answers: list[dict], outcome: common.Outcome) -> None:
    """Judge every answer after the timed phase (see module docstring)."""
    golden = common.load_golden()
    for answer in answers:
        if answer["status"] == 200 and not isinstance(
                answer["response"].get("bounds", {}).get(
                    "stack_requirement"), int):
            answer["status"], answer["response"] = 0, {
                "error": "200 answer without a stack requirement"}
    monitored = [answer for answer in answers
                 if answer["status"] == 200
                 and answer["class"] not in ("hit", "probe")]
    jobs = sorted({_monitor_job(answer) for answer in monitored})
    context = multiprocessing.get_context("spawn")
    with context.Pool(CONNECTIONS) as pool:
        runs = dict(zip(jobs, pool.map(_monitor, jobs, chunksize=1)))
    for answer in answers:
        cls, status, body = (answer["class"], answer["status"],
                             answer["response"])
        what = f"{cls} {answer['program']}"
        if status == 422 and cls == "hostile":
            outcome.ok()
            continue
        if status != 200:
            # No answer at all is undiagnosed; a refusal of a program
            # that must certify is a wrong answer.
            outcome.fail(f"{what}: HTTP {status} {body.get('error', '')}",
                         wrong=status in (400, 404, 422))
            continue
        bound = body["bounds"]["stack_requirement"]
        if cls in ("hit", "probe"):
            entry = golden[answer["program"]]
            probe = body.get("probe")
            if (bound != entry["stack_requirement"]
                    or body["bounds"]["functions"]
                    != common.golden_functions(entry)):
                outcome.fail(f"{what}: bounds differ from golden")
            elif cls == "probe" and not (probe and probe["converged"] and
                                         probe["measured_bytes"] <= bound):
                outcome.fail(f"{what}: probe refutes bound {bound}")
            else:
                outcome.ok()
            continue
        watermark, ending, reason = runs[_monitor_job(answer)]
        if ending == "exception":
            outcome.fail(f"{what}: monitor raised {reason}", wrong=False)
        elif watermark > bound or reason.startswith("stack overflow"):
            outcome.fail(f"{what}: monitor refutes bound {bound} "
                         f"(watermark {watermark}, {ending} {reason})")
        elif cls != "hostile" and ending != "converged":
            outcome.fail(f"{what}: did not converge in bound+4 bytes "
                         f"({ending} {reason})")
        else:
            # A hostile mutant may loop or trap; only an overflow or a
            # watermark above the bound refutes it.
            outcome.ok()


def _metric(document: dict, section: str, name: str) -> float:
    return float(document.get(section, {}).get(name, 0.0))


def _histogram_sum(document: dict, name: str) -> float:
    return float(document.get("histograms", {}).get(name, {}).get("sum", 0.0))


def _daemon_layer_metrics(document: dict) -> dict:
    counters = document.get("counters", {})
    warm_hits = counters.get("serve.codegen.warm_hits", 0)
    warm_total = warm_hits + counters.get("serve.codegen.warm_misses", 0)
    metrics = {
        f"store.{stage}.hit_rate":
            _metric(document, "derived", f"store.{stage}.hit_rate")
        for stage in common.STORE_STAGES}
    metrics.update({
        "store.bytes": _metric(document, "gauges", "store.bytes"),
        "serve.codegen.warm_hit_rate":
            warm_hits / warm_total if warm_total else 0.0,
        "serve.singleflight.followers":
            counters.get("serve.singleflight.followers", 0),
        "serve.responses.422": counters.get("serve.responses.422", 0),
        "serve.responses.5xx": sum(
            value for name, value in counters.items()
            if re.fullmatch(r"serve\.responses\.5\d\d", name)),
        "analyzer.ms": _histogram_sum(document, "analyze.auto_seconds") * 1e3,
        "logic.check_ms":
            _histogram_sum(document, "checker.derivation_seconds") * 1e3,
        "measure.probe_ms": counters.get("interp.asm.seconds", 0.0) * 1e3,
        "asm.steps_per_s":
            _metric(document, "derived", "interp.asm.steps_per_s"),
    })
    return metrics


def run(seed: int, seconds: float, traced: bool, smoke: bool) -> tuple:
    boots = []
    daemon = None
    try:
        for index in range(BOOT_REPEATS):
            if daemon is not None:
                daemon.stop()
            daemon, elapsed = boot(f"{seed}-{index}")
            boots.append(elapsed)
        schedule = Schedule(seed)
        min_requests = 1 if smoke else MIN_REQUESTS
        answers: list[dict] = []
        round_times: list[float] = []
        started = time.perf_counter()
        with ThreadPoolExecutor(CONNECTIONS) as clients:
            for index in itertools.count():
                requests = schedule.round()
                round_started = time.perf_counter()
                done_round = list(clients.map(
                    lambda request: _send(daemon, request), requests))
                probes = [probe for answer in done_round
                          for probe in answer["probes"]]
                round_times.append(common.at_reference(
                    time.perf_counter() - round_started, *probes))
                answers.extend(done_round)
                if index < RSS_ROUNDS:
                    rss_mb = daemon.peak_rss_mb(daemon.metrics())
                if (time.perf_counter() - started >= seconds
                        and len(answers) >= min_requests):
                    break
        wall = time.perf_counter() - started
        document = daemon.metrics()
    finally:
        if daemon is not None:
            daemon.stop()
    measured = sum(round_times)
    for answer in answers:
        _parse(answer)
    outcome = common.Outcome()
    check_started = time.perf_counter()
    _check(answers, outcome)
    statuses = Counter(answer["status"] for answer in answers)
    print(f"# serve-mixed: {len(answers)} requests in {wall:.2f} s wall "
          f"({measured:.2f} s at the reference speed), checked in "
          f"{time.perf_counter() - check_started:.2f} s; statuses "
          f"{dict(sorted(statuses.items()))}")
    for failure in outcome.failures[:10]:
        print(f"# failed: {failure}")

    metrics = common.end_to_end_metrics(
        setup_s=statistics.median(boots), outcome=outcome, rss_mb=rss_mb,
        pass_times=round_times,
        verdict_ms=[answer["ref_latency_ms"] for answer in answers
                    if answer["class"] != "probe"],
        latency_ms=[answer["ref_latency_ms"] for answer in answers],
        pass_operations=len(answers) // len(round_times))
    if traced:
        metrics.update(_traced_metrics(answers, document))
    return outcome, metrics


def _spans(answers: list[dict]) -> list[dict]:
    """One ``layer.serve`` span per request, in ``repro.obs`` record
    format, from the start time and latency the client recorded."""
    pid = os.getpid()
    return [{"name": "layer.serve", "ts": round(answer["ts"], 6),
             "dur": answer["latency_ms"] / 1e3, "cpu": 0.0, "pid": pid,
             "id": number, "parent": None,
             "attrs": {"cls": answer["class"], "program": answer["program"],
                       "status": answer["status"]}}
            for number, answer in enumerate(answers, start=1)]


def _traced_metrics(answers: list[dict], document: dict) -> dict:
    metrics = _daemon_layer_metrics(document)
    for cls in common.SERVE_CLASSES:
        latencies = [a["latency_ms"] for a in answers if a["class"] == cls]
        metrics[f"serve.{cls}.p50_ms"] = (statistics.median(latencies)
                                         if latencies else 0.0)
    spans = _spans(answers)
    path = common.write_spans("serve-mixed", spans)
    # The daemon's own histograms split the request time it spent in the
    # analyzer, the checker and probe execution (over every request);
    # the rest is charged to the serve layer (HTTP, pool, store, compile).
    total = sum(answer["latency_ms"] for answer in answers) / 1e3
    self_s = {"analyzer": metrics["analyzer.ms"] / 1e3,
              "logic": metrics["logic.check_ms"] / 1e3,
              "measure": metrics["measure.probe_ms"] / 1e3}
    self_s["serve"] = max(0.0, total - sum(self_s.values()))
    # The daemon's instrumentation is always on and the client records
    # every request's time anyway, so a traced run costs nothing extra.
    overhead = 0.0
    _layers, names = common.layer_self_times(spans)
    common.print_layer_table(self_s, total, names, overhead)
    print(f"# spans: {path}")
    metrics.update(common.layer_metrics(self_s, total))
    metrics["trace.overhead"] = overhead
    return metrics
