"""Workload ``campaign-deep``: the differential campaign.

``run_campaign`` with ``deep=True``, ``jobs=1``, no corpus cache and no
shrinking — the only workload that runs the Clight/RTL/Mach
interpreters and the oracles.  Each seed is compiled at 5 ablations
sharing one frontend.

A run times a fixed core range of seeds twice (each seed's time is
the mean of the two), then checks seeds drawn from the seed argument
until the run's time is used.  Per-seed cost varies about 0.6x around
its mean, so timing a range drawn from the seed moved seeds/s by
10–25 % between seeds: the timings come from the core alone, while
the seed-drawn tail still meets new programs and counts toward
``attempted``/``failed``.  The core runs in freshly spawned
interpreters, so the traced and untraced cores start equally cold
(the frontend and codegen caches would otherwise serve the second).
"""

from __future__ import annotations

import multiprocessing
import statistics
import time

import common

CORE_SEEDS = 14
CORE_REPEATS = 2
TAIL_MIN = 2
TAIL_BASE = 100_000
TAIL_MAX = 400


def campaign_range(start: int, seeds: int, traced: bool,
                   budget: float | None = None) -> dict:
    """Check seeds ``[start, start + seeds)``; a picklable summary.

    An exception outside ``ReproError`` escapes ``run_campaign`` (its
    oracles diagnose only those); the seed it came from is recorded as
    an undiagnosed failure (oracle ``"exception"``) and the campaign
    goes on from the next seed.
    """
    from repro import obs
    from repro.logic.bexpr import fm_blowup_count, nf_cache_stats
    from repro.testing.campaign import CampaignConfig, run_campaign

    if traced:
        obs.enable()
    # Speed probes between seeds (run_campaign calls ``progress`` after
    # each one) and the sampler's readings during a seed rescale it to
    # the reference speed.
    factor: dict = {}       # seed -> reference seconds per measured second
    ref_wall: dict = {}     # seed -> its wall time at the reference speed
    verdicts: list = []
    stages: dict = {}       # stage -> measured seconds over all seeds
    sampler = common.SpeedSampler()
    last = {"probe": common.speed_probe(), "at": time.perf_counter()}
    sampler.take()

    def progress(verdict) -> None:
        seconds = time.perf_counter() - last["at"]
        readings = sampler.take()
        probe = common.speed_probe()
        factor[verdict.seed] = common.at_reference(1.0, statistics.median(
            [last["probe"], probe, *readings]))
        ref_wall[verdict.seed] = seconds * factor[verdict.seed]
        verdicts.append((verdict.seed, verdict.ok, verdict.oracle,
                         verdict.ablation, verdict.detail,
                         {key: value * factor[verdict.seed]
                          for key, value in verdict.timings.items()}))
        for key, value in verdict.timings.items():
            stages[key] = stages.get(key, 0.0) + value
        sampler.take()
        last.update(probe=probe, at=time.perf_counter())

    started = time.perf_counter()
    end = start + seeds
    next_seed = start
    try:
        with obs.span("layer.campaign"):
            while next_seed < end:
                left = (None if budget is None
                        else budget - (time.perf_counter() - started))
                config = CampaignConfig(
                    seeds=end - next_seed, start=next_seed, jobs=1,
                    deep=True, shrink=False, cache_dir=None,
                    report_path=None, repro_dir=None, time_budget=left,
                    obs=traced)
                done = len(verdicts)
                try:
                    run_campaign(config, progress=progress)
                    break
                except Exception as error:
                    # jobs=1 checks seeds in order: the crash is the
                    # seed after the last one reported.
                    crashed = next_seed + len(verdicts) - done
                    verdicts.append((crashed, False, "exception", None,
                                     f"{type(error).__name__}: {error}",
                                     {}))
                    next_seed = crashed + 1
                    last.update(probe=common.speed_probe(),
                                at=time.perf_counter())
                    sampler.take()
    finally:
        sampler.stop()
    summary = {
        "elapsed": time.perf_counter() - started,
        "ref_elapsed": sum(ref_wall.values()),
        "verdicts": verdicts,
        "stages": stages,
        "rss_mb": common.peak_rss_mb(),
    }
    if traced:
        summary.update(spans=obs.drain_spans(),
                       counters=obs.snapshot()["counters"],
                       nf_hit_rate=nf_cache_stats()["hit_rate"],
                       fm_blowups=fm_blowup_count())
    return summary


def _fresh(start: int, seeds: int, traced: bool) -> dict:
    context = multiprocessing.get_context("spawn")
    with context.Pool(1) as pool:
        return pool.apply(campaign_range, (start, seeds, traced))


def _judge(summaries, outcome: common.Outcome) -> None:
    for summary in summaries:
        for seed, ok, oracle, ablation, detail, _timings in \
                summary["verdicts"]:
            if ok:
                outcome.ok()
            else:
                outcome.fail(f"seed {seed}: {oracle} ({ablation}): {detail}",
                             wrong=oracle != "exception")


def run(seed: int, seconds: float, traced: bool, smoke: bool) -> tuple:
    core_seeds = 2 if smoke else CORE_SEEDS
    setup_s = common.time_fresh_import()
    started = time.perf_counter()
    if traced:
        core = _fresh(0, core_seeds, False)
        return _traced(core, _fresh(0, core_seeds, True))
    cores = [_fresh(0, core_seeds, False) for _ in range(CORE_REPEATS)]
    # At least a few seed-drawn seeds, even when the core used the time.
    remaining = seconds - (time.perf_counter() - started)
    tail_start = TAIL_BASE + seed * TAIL_MAX
    tail = campaign_range(tail_start, TAIL_MIN, False)
    if not smoke and remaining > 0:
        more = campaign_range(tail_start + TAIL_MIN, TAIL_MAX, False,
                              budget=remaining - tail["elapsed"])
        tail["verdicts"] += more["verdicts"]
        tail["elapsed"] += more["elapsed"]
    outcome = common.Outcome()
    _judge((*cores, tail), outcome)
    print(f"# campaign-deep: core seeds [0, {core_seeds}) x{CORE_REPEATS} "
          "in " + ", ".join(f"{core['elapsed']:.2f}" for core in cores)
          + " s wall (" + ", ".join(f"{core['ref_elapsed']:.2f}"
                                   for core in cores)
          + f" s at the reference speed), tail seeds [{tail_start}, "
          f"{tail_start + len(tail['verdicts'])}) in "
          f"{tail['elapsed']:.2f} s wall")
    for failure in outcome.failures[:10]:
        print(f"# failed: {failure}")
    # Timings and memory come from the core: its seeds, unlike the
    # tail's, are the same in every run.
    per_seed = [[verdict[5] for verdict in core["verdicts"]]
                for core in cores]
    verdict_ms = [statistics.fmean(
        (sum(t.values()) - t.get("probes", 0.0)) * 1e3 for t in runs)
        for runs in zip(*per_seed)]
    latency_ms = [statistics.fmean(sum(t.values()) * 1e3 for t in runs)
                  for runs in zip(*per_seed)]
    pass_times = [core["ref_elapsed"] for core in cores]
    metrics = common.end_to_end_metrics(
        setup_s=setup_s, outcome=outcome,
        rss_mb=max(core["rss_mb"] for core in cores),
        pass_times=pass_times, verdict_ms=verdict_ms,
        latency_ms=latency_ms, pass_operations=core_seeds)
    return outcome, metrics


def _traced(untraced: dict, traced: dict) -> tuple:
    outcome = common.Outcome()
    _judge((untraced, traced), outcome)
    spans, counters, core_s = (traced["spans"], traced["counters"],
                               traced["elapsed"])
    path = common.write_spans("campaign-deep", spans)
    self_s, names = common.layer_self_times(spans, common.CAMPAIGN_INNER)
    overhead = traced["ref_elapsed"] / untraced["ref_elapsed"] - 1.0
    common.print_layer_table(self_s, core_s, names, overhead)
    print(f"# spans: {path}")
    stages = traced["stages"]
    hits = counters.get("frontend.cache.hits", 0)
    lookups = hits + counters.get("frontend.cache.misses", 0)
    steps_s = counters.get("interp.asm.seconds", 0.0)
    metrics = {f"campaign.{stage}_s": stages.get(stage, 0.0)
               for stage in common.CAMPAIGN_STAGES}
    metrics.update(common.layer_metrics(self_s, core_s))
    metrics.update({
        "trace.overhead": overhead,
        "campaign.frontend_hit_rate": hits / lookups if lookups else 0.0,
        "frontend.ms": self_s["frontend"] * 1e3,
        "backend.ms": self_s["backend"] * 1e3,
        "analyzer.ms": self_s["analyzer"] * 1e3,
        "logic.check_ms": self_s["logic"] * 1e3,
        "logic.nf_hit_rate": traced["nf_hit_rate"],
        "logic.fm_blowups": traced["fm_blowups"],
        "measure.probe_ms": stages.get("probes", 0.0) * 1e3,
        "asm.steps_per_s": (counters.get("interp.asm.steps", 0) / steps_s
                            if steps_s else 0.0),
    })
    return outcome, metrics
