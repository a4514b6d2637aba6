"""The three workloads: register → solve → serve through the public API.

Each run generates its inputs from the seed, then times ``rounds``
rounds, each of:

1. the set-up reps due in that round, each from fresh objects: the
   workload's registration path from CSR matrices in hand to every
   system registered and servable (``setup_s`` is the median rep);
2. a closed-loop chunk: one caller, round-robin ``solve`` calls;
3. open-loop slices of seeded Poisson arrivals with Zipf key skew, one
   at the low and one at the high rate;
4. one climb of the rate ladder above the high rate.

Every result is checked (see :mod:`serving`), every registered plan
passes ``check_plan``, and every expected result was compared with
``scipy.sparse.linalg.spsolve_triangular`` first.  Every time is kept in
reference seconds (see :mod:`calibrate`), so the host's own changes of
speed cancel out.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro import DAG, PlanCache, get_backend, make_scheduler
from repro.analysis.verify import check_plan
from repro.errors import PlanVerificationError
from repro.exec import compile_count
from repro.exec.backends import fused_dispatch
from repro.machine.bsp_sim import simulate_bsp
from repro.machine.model import get_machine
from repro.machine.serial_sim import simulate_serial
from repro.service import ServingGateway, SolveService
from repro.store import PlanStore
from repro.tuner import Autotuner

from calibrate import HostSpeed
from corpus import build_corpus, relative_error, sub_seed
from serving import (
    ClosedLoopResult,
    clock,
    closed_loop,
    drain,
    open_loop_phase,
    percentile,
    pooled,
)
from tracing import Tracer, descendants, instrument, self_times, uninstrument


@dataclass
class Ops:
    """Attempted and failed operations, with one line per failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{failed} failed: {what}")


@dataclass
class SetupRep:
    seconds: float
    target: object
    plans: dict
    store: PlanStore | None
    compiles: int
    traced: bool


class Workload:
    """One workload's inputs, targets and measurements."""

    def __init__(self, name: str, config: dict, seed: int, seconds: float,
                 workdir: str, tracer: Tracer | None) -> None:
        self.name = name
        self.config = config
        self.cfg = config["workloads"][name]
        self.cores = config["cores"]
        self.machine = get_machine(config["machine"])
        self.expected_solves = config["expected_solves"]
        self.tolerance = config["oracle_tolerance"]
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer
        self.ops = Ops()
        self.backend = get_backend()
        self.systems = build_corpus(
            self.cfg["systems"], seed, config["rhs_per_system"]
        )
        self.reps: list[SetupRep] = []
        self.speed = HostSpeed()
        self.speed.sample(2 * HostSpeed.WINDOW)
        self._store_dir = os.path.join(workdir, "deep-store")
        if name == "solve-deep":
            self._fill_store()

    # ------------------------------------------------------------------
    # set-up: one fresh registration of every system
    # ------------------------------------------------------------------
    def _new_target(self, plan_cache: PlanCache):
        target = self.cfg["target"]
        limits = dict(max_batch=self.config["max_batch"],
                      max_queue=self.config["queue_bound"],
                      plan_cache=plan_cache)
        if target["kind"] == "gateway":
            return ServingGateway(n_shards=target["shards"], **limits)
        return SolveService(**limits)

    def _register(self, target, system, tuner):
        """Register one system the workload's way: schedule it, or let
        the tuner pick (``tuner`` given)."""
        if tuner is not None:
            return target.register(
                system.key, system.lower, "auto", tuner=tuner,
                machine=self.machine, n_cores=self.cores,
            )
        dag = DAG.from_lower_triangular(system.lower)
        schedule = make_scheduler(self.cfg["scheduler"]).schedule(
            dag, self.cores
        )
        return target.register(system.key, system.lower, schedule)

    def _fill_store(self) -> None:
        """Untimed prep for ``solve-deep``: write every plan once."""
        target = self._new_target(
            PlanCache(plan_store=PlanStore(self._store_dir)))
        for system in self.systems:
            self._register(target, system, None)
        target.close()

    def _setup_once(self, rep: int) -> SetupRep:
        """Register every system into a fresh target, one timed interval
        per system with reference-kernel samples on both sides of it, so
        each interval is divided by the stretch around it."""
        traced = self.tracer is not None and rep % 2 == 1
        compiles = compile_count()
        store = tuner = None
        if self.name == "register-cold":
            store = PlanStore(os.path.join(self.workdir, f"cold-{rep}"))
        elif self.name == "solve-deep":
            store = PlanStore(self._store_dir)
        else:
            tuner = Autotuner(
                mode="simulated", seed=self.seed,
                expected_solves=self.config["tuner_expected_solves"],
            )
        window = HostSpeed.WINDOW
        self.speed.sample(window)
        target, plans, seconds = None, {}, 0.0
        for system in self.systems:
            if self.tracer is not None:
                self.tracer.enabled = traced
            with (self.tracer.span("bench.setup") if traced
                  else nullcontext()):
                t0 = clock()
                if target is None:
                    target = self._new_target(PlanCache(plan_store=store))
                plans[system.key] = self._register(target, system, tuner)
                elapsed = clock() - t0
            if self.tracer is not None:
                self.tracer.enabled = False
            self.speed.sample(window)
            seconds += elapsed / self.speed.local(2 * window)
        return SetupRep(seconds, target, plans, store,
                        compile_count() - compiles, traced)

    def _register_rep(self, rep: int) -> None:
        """One timed set-up rep, then ``check_plan`` on every plan it
        registered.  Rep 0's target serves; the others close at once."""
        result = self._setup_once(rep)
        self.ops.add(len(self.systems), 0)
        for key, plan in result.plans.items():
            try:
                check_plan(plan, matrix=plan.matrix, schedule=plan.schedule)
                self.ops.add(1, 0)
            except PlanVerificationError as exc:
                self.ops.add(1, 1, f"check_plan {key}: {exc}")
        if self.reps:
            result.target.close()
        self.reps.append(result)
        # collect the set-up garbage outside the timed phases
        gc.collect()

    # ------------------------------------------------------------------
    # oracles
    # ------------------------------------------------------------------
    def expected_results(self) -> list[list[np.ndarray]]:
        """The backend's own solve of each served plan, checked once
        against scipy; serving must reproduce these bit for bit."""
        plans = self.reps[0].plans
        expected = []
        for system in self.systems:
            row = []
            for b, reference in zip(system.rhs, system.reference):
                x = self.backend.solve(plans[system.key], b)
                err = relative_error(x, reference)
                self.ops.add(1, int(not err <= self.tolerance),
                             f"{system.key} off scipy by {err:.3g}")
                row.append(x)
            expected.append(row)
        return expected

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def run(self) -> dict:
        """``rounds`` rounds, each of: the set-up reps due in it, a
        closed-loop chunk, a low-rate and a high-rate slice, one climb
        of the ladder and one backlog drain.  The host's speed drifts
        over tens of seconds, so each metric samples the whole run
        rather than one stretch of it.  A traced run adds one set-up rep and traces
        every other one, so the untraced reps give its overhead.
        """
        tracer = self.tracer
        config = self.config
        rounds = config["rounds"]
        n_reps = self.cfg["setup_reps"] + (1 if tracer else 0)
        low, high = self.cfg["low_rps"], self.cfg["high_rps"]
        # a rate's slice lasts in proportion to 1/rate, which gives the
        # low and high rates the same number of requests
        slice_s = {rate: config["main_share"] * self.seconds / rounds
                   * (1.0 / rate) / (1.0 / low + 1.0 / high)
                   for rate in (low, high)}
        closed = ClosedLoopResult()
        slices = {low: [], high: []}
        main, rungs, climbs, drains = [], [], [], []
        start = 0
        undo = instrument(tracer, type(self.backend)) if tracer else None
        try:
            for index in range(rounds):
                for rep in range(n_reps):
                    if rep * rounds // n_reps == index:
                        self._register_rep(rep)
                if index == 0:
                    target = self.reps[0].target
                    expected = self.expected_results()
                closed_loop(
                    target, self.systems, expected,
                    min_seconds=config["closed_share"] * self.seconds
                    / rounds,
                    min_solves=math.ceil(config["min_closed_solves"]
                                         / rounds),
                    speed=self.speed, tracer=tracer, result=closed,
                )
                for rate in (low, high):
                    phase, *deltas = self._phase(
                        target, expected, rate, slice_s[rate],
                        sub_seed(self.seed, 3, rate, index), "open",
                    )
                    slices[rate].append(phase)
                    main.append(deltas)
                best, run = self._climb(target, expected, start)
                climbs.append(best)
                rungs += run
                start = min(max(best, 0), len(self.cfg["ladder_rps"]) - 1)
                drains.append(self._drain(target, expected))
        finally:
            if tracer is not None:
                tracer.enabled = False
                uninstrument(undo)
        self.ops.add(closed.attempted, closed.failed, "closed loop")
        for phase in [*slices[low], *slices[high], *rungs]:
            self.ops.add(phase.attempted, phase.attempted - phase.ok,
                         f"open loop at {phase.rate_rps} rps")
        for result in drains:
            self.ops.add(result.attempted, result.attempted - result.ok,
                         "backlog drain")
        # serving-layer counters cover the low and high slices, the ones
        # the latency metrics come from, not the ladder above them
        out = {
            "closed": closed,
            "slices": slices,
            "rungs": rungs,
            "climbs": climbs,
            "drains": drains,
            "max_rate": statistics.median(
                self._rung_rate(best, slices) for best in climbs),
            "serve_stats": [sum(col) for col in zip(*(m[0] for m in main))],
            "per_shard": [sum(col) for col in zip(*(m[1] for m in main))],
            "counts": self.counts(),
        }
        out["end_to_end"] = self._end_to_end(closed, out)
        out["unbounded"] = self._unbounded(closed, out)
        if tracer is not None:
            out["per_layer"] = self._per_layer(closed, out)
        for rep in self.reps:
            rep.target.close()
        return out

    def _climb(self, target, expected, start: int):
        """One climb of the ladder above the high rate, ``rung_s`` per
        rung: up from rung ``start`` while rungs pass, or down from it
        while they fail.

        Returns the index of the highest rung that passed (-1 when none
        did down to the bottom: the high rate) and the phases run.  The
        next climb starts at that rung, so after the first climb each
        one tests the boundary again with two rungs or a few.  Every
        rung draws its arrivals from ``ladder_seed``: the gaps are one
        sequence of exponential draws over the rung's rate, so a higher
        rung sends the same keys, in the same order, closer together.
        Whether a rung passes then depends on the program and the host,
        and a higher rung is never the easier one.
        """
        ladder = self.cfg["ladder_rps"]
        run = []

        def passes(rung: int) -> bool:
            phase = self._phase(
                target, expected, ladder[rung], self.config["rung_s"],
                self.config["ladder_seed"], "ladder",
            )[0]
            run.append(phase)
            return phase.passed

        if passes(start):
            best = start
            while best + 1 < len(ladder) and passes(best + 1):
                best += 1
        else:
            best = start - 1
            while best >= 0 and not passes(best):
                best -= 1
        return best, run

    def _drain(self, target, expected):
        """One backlog drain, traced as ``bench.drain``, with the
        stretch sampled right before it."""
        tracer = self.tracer
        stretch = self.speed.sample(HostSpeed.WINDOW)
        if tracer is not None:
            tracer.enabled = True
        with tracer.span("bench.drain") if tracer else nullcontext():
            result = drain(
                target, self.systems, expected,
                n_requests=self.cfg["drain_requests"],
                zipf_s=self.config["zipf_s"],
                seed=self.config["ladder_seed"], stretch=stretch,
                tracer=tracer,
            )
        if tracer is not None:
            tracer.enabled = False
        return result

    def _rung_rate(self, best: int, slices: dict) -> float:
        """The offered rate of ladder rung ``best``; below the ladder,
        the high or else the low rate if all its slices passed, else 0."""
        if best >= 0:
            return float(self.cfg["ladder_rps"][best])
        for rate in (self.cfg["high_rps"], self.cfg["low_rps"]):
            if all(phase.passed for phase in slices[rate]):
                return float(rate)
        return 0.0

    def _phase(self, target, expected, rate, seconds, seed, kind: str):
        """One open-loop phase, traced as ``bench.<kind>``; returns
        ``(phase, serve_stats, per_shard)`` with the target's counter
        deltas over it.

        A ladder rung runs on the reference clock: near capacity the
        worker computes without pause, like the closed loop, and its
        capacity follows the host's speed.  The low and high rates run
        on the wall clock: there the worker is mostly idle, a request's
        latency is set by the wake-ups and hand-offs around its solve,
        and these do not follow the reference kernel (over five
        processes whose stretch ranged 0.75-1.25, p50 and p99 at
        100 and 200 rps on ``serve-zipf`` spread 4-7 % in wall seconds
        and over 15 % in reference seconds).
        """
        tracer = self.tracer
        stretch = (self.speed.sample(HostSpeed.WINDOW) if kind == "ladder"
                   else 1.0)
        stats_before = _service_totals(target)
        shards_before = _shard_requests(target)
        if tracer is not None:
            tracer.enabled = True
        with (tracer.span(f"bench.{kind}") if tracer
              else nullcontext()):
            phase = open_loop_phase(
                target, self.systems, expected, rate_rps=rate,
                duration_s=seconds, zipf_s=self.config["zipf_s"],
                seed=seed,
                limit_s=self.config["p99_limit_s"], stretch=stretch,
                tracer=tracer,
            )
        if tracer is not None:
            tracer.enabled = False
        return (
            phase,
            [b - a for a, b in zip(stats_before, _service_totals(target))],
            [b - a for a, b in zip(shards_before, _shard_requests(target))],
        )

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def served_plans(self):
        plans = self.reps[0].plans
        return [plans[s.key] for s in self.systems]

    def counts(self) -> dict:
        """Deterministic counts: two processes with one seed agree."""
        machine = self.machine.with_cores(self.cores)
        speedups = []
        for system, plan in zip(self.systems, self.served_plans()):
            parallel = simulate_bsp(system.lower, plan.schedule, machine,
                                    plan=plan)
            speedups.append(
                parallel.speedup_over(simulate_serial(system.lower, machine))
            )
        dispatches = [self._dispatches(p) for p in self.served_plans()]
        rep = self.reps[0]
        store = rep.store.counters() if rep.store is not None else {}
        picks = {}
        if self.name == "serve-zipf":
            picks = {k: s.tuned_scheduler
                     for k, s in rep.target.stats().items()}
        return {
            "supersteps": sum(p.schedule.n_supersteps
                              for p in self.served_plans()),
            "sim_speedup": math.exp(statistics.fmean(map(math.log,
                                                         speedups))),
            "exec.batches_per_solve": statistics.fmean(dispatches),
            "exec.compiles": rep.compiles,
            "store.hits": store.get("hits", 0),
            "tuner.picks": picks,
        }

    def _dispatches(self, plan) -> int:
        if self.backend.name == "numpy":
            return plan.n_batches
        return len(fused_dispatch(plan))

    def _end_to_end(self, closed, out) -> dict:
        setup_s = statistics.median(
            r.seconds for r in self.reps if not r.traced
        )
        solve_p50 = percentile(closed.latencies, 0.5)
        counts = out["counts"]
        metrics = {
            "setup_s": (setup_s, "s", len(self.reps)),
            "amortized_s": (
                setup_s / len(self.systems) / self.expected_solves
                + solve_p50, "s", closed.attempted),
            "solve_p50_s": (solve_p50, "s", closed.attempted),
        }
        metrics.update({
            "sim_speedup": (counts["sim_speedup"], "x", len(self.systems)),
            "supersteps": (counts["supersteps"], "count",
                           len(self.systems)),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB", 1),
        })
        return metrics

    def _unbounded(self, closed, out) -> dict:
        """The closed loop's p99, the drains' saturation rate, the
        ladder's ``max_rate_rps`` and open-loop latency at the low and
        high rates (wall seconds).

        Printed but not bounded: on a 2-vCPU shared host these spread
        0.17-0.7 (quartile distance over median) across runs of the
        same code on some workload, too close to or past any bound a
        regression check could use.
        """
        slices = out["slices"]
        drains = out["drains"]
        metrics = {
            "solve_p99_s": (percentile(closed.latencies, 0.99), "s",
                            closed.attempted),
            "saturation_rps": (
                statistics.median(d.throughput_rps for d in drains),
                "1/s", sum(d.attempted for d in drains)),
            "max_rate_rps": (out["max_rate"], "1/s", len(out["climbs"])),
        }
        for name in ("low", "high"):
            phases = slices[self.cfg[f"{name}_rps"]]
            rounds = [p.latencies for p in phases]
            n = sum(p.attempted for p in phases)
            metrics[f"latency_p50_s.{name}"] = (pooled(rounds, 0.5),
                                                "s", n)
            metrics[f"latency_p99_s.{name}"] = (pooled(rounds, 0.99),
                                                "s", n)
        return metrics

    def _per_layer(self, closed, out) -> dict:
        tracer = self.tracer
        spans = tracer.spans
        own = self_times(spans)
        # per phase: the trees under the benchmark's own phase spans,
        # which include worker spans adopted by blocked callers, and
        # the worker-thread trees that began inside those spans
        main_trees, worker_trees, by_kind = {}, {}, {}
        for kind in ("setup", "closed", "open", "ladder", "drain"):
            roots = [s for s in spans if s[2] == f"bench.{kind}"]
            workers = {
                s[0] for s in spans
                if s[1] is None and not s[2].startswith("bench.")
                and any(r[4] <= s[4] <= r[5] for r in roots)
            }
            main_trees[kind] = descendants(spans, {r[0] for r in roots})
            worker_trees[kind] = descendants(spans, workers)
            by_kind[kind] = main_trees[kind] + worker_trees[kind]

        def total(kind, name):
            return sum(own[s[0]] for s in by_kind[kind] if s[2] == name)

        def count(kind, name):
            return sum(1 for s in by_kind[kind] if s[2] == name)

        traced_reps = [r for r in self.reps if r.traced]
        n_reps = len(traced_reps)
        m = {}
        for name in ("graph.dag", "graph.levels", "graph.transitive",
                     "graph.coarsen", "scheduler.growlocal",
                     "scheduler.wavefront", "scheduler.hdagg",
                     "scheduler.funnel-gl", "tuner.features", "tuner.prior",
                     "tuner.tune", "machine.simulate", "exec.compile",
                     "analysis.verify", "store.save", "store.load"):
            m[name + "_s"] = (total("setup", name) / n_reps, "s")
        compiles = statistics.fmean(r.compiles for r in traced_reps)
        m["exec.compiles"] = (compiles, "count")
        m["tuner.plans_used_ratio"] = (
            len(self.systems) / compiles if compiles else 0.0, "ratio")
        stores = [r.store.counters() for r in traced_reps
                  if r.store is not None]
        hits = sum(c["hits"] for c in stores)
        lookups = hits + sum(c["misses"] + c["rejects"] for c in stores)
        m["store.saves"] = (sum(c["saves"] for c in stores) / n_reps,
                            "count")
        m["store.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
        m["store.rejects"] = (sum(c["rejects"] for c in stores), "count")

        n_solves = count("closed", "exec.solve")
        m["exec.solve_s"] = (total("closed", "exec.solve") / n_solves, "s")
        m["exec.batches_per_solve"] = (
            out["counts"]["exec.batches_per_solve"], "count")
        closed_roots = {s[0] for s in spans if s[2] == "bench.closed"}
        requests = [s for s in by_kind["closed"]
                    if s[2] == "service.solve" and s[1] in closed_roots]
        kernel = sum(s[5] - s[4] for s in by_kind["closed"]
                     if s[2] == "exec.solve")
        m["service.handoff_s"] = (
            (sum(s[5] - s[4] for s in requests) - kernel) / len(requests),
            "s")

        n_blocks = count("open", "exec.solve_block")
        n_single = count("open", "exec.solve")
        queue_wait, n_requests, n_batches = out["serve_stats"]
        m["exec.solve_block_s"] = (
            total("open", "exec.solve_block") / n_blocks if n_blocks
            else 0.0, "s")
        m["exec.block_cols_mean"] = (
            (n_requests - n_single) / n_blocks if n_blocks else 0.0,
            "count")
        m["service.queue_wait_mean_s"] = (
            queue_wait / n_requests if n_requests else 0.0, "s")
        m["service.batch_mean"] = (
            n_requests / n_batches if n_batches else 0.0, "count")
        m["service.batches"] = (n_batches, "count")
        per_shard = out["per_shard"]
        m["gateway.shard_imbalance"] = (
            max(per_shard) / statistics.fmean(per_shard)
            if sum(per_shard) else 0.0, "ratio")
        m["loadgen.slip_p99_s"] = (
            percentile([x for rate in out["slices"].values()
                        for p in rate for x in p.slips], 0.99), "s")

        # overhead: traced over untraced time of the same deterministic
        # work, the set-up reps plus the closed-loop rounds
        untraced = [r.seconds for r in self.reps if not r.traced]
        traced = [r.seconds for r in traced_reps]
        rounds = closed.rounds
        work_t = (statistics.median(traced) + rounds
                  * statistics.median(closed.round_seconds[True]))
        work_u = (statistics.median(untraced) + rounds
                  * statistics.median(closed.round_seconds[False]))
        m["trace.overhead_frac"] = (work_t / work_u - 1.0, "ratio")

        out["breakdown"] = {
            kind: {
                "wall_s": sum(s[5] - s[4] for s in main_trees[kind]
                              if s[2] == f"bench.{kind}"),
                "main": _self_by_layer(main_trees[kind], own),
                "workers": _self_by_layer(worker_trees[kind], own),
            }
            for kind in by_kind
        }
        wall = sum(part["wall_s"] for part in out["breakdown"].values())
        remainder = sum(part["main"].get("untraced", 0.0)
                        for part in out["breakdown"].values())
        m["trace.untraced_frac"] = (remainder / wall, "ratio")
        return m


def _self_by_layer(tree, own) -> dict[str, float]:
    """Self seconds per span name; the benchmark's own spans are the
    untraced remainder between library calls."""
    totals: dict[str, float] = {}
    for s in tree:
        name = "untraced" if s[2].startswith("bench.") else s[2]
        totals[name] = totals.get(name, 0.0) + own[s[0]]
    return totals


def _service_totals(target) -> list[float]:
    """(queue wait seconds, requests, batches) summed over systems."""
    stats = target.stats().values()
    return [sum(s.total_queue_wait_seconds for s in stats),
            sum(s.n_requests for s in stats),
            sum(s.n_batches for s in stats)]


def _shard_requests(target) -> list[int]:
    """Completed requests per shard (a bare service is one shard)."""
    shards = (target.shard_stats() if hasattr(target, "shard_stats")
              else [target.stats()])
    return [sum(s.n_requests for s in shard.values()) for shard in shards]
