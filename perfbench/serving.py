"""Closed-loop and open-loop load generators with per-request oracles.

Both generators check every result bit for bit against the backend's own
single-RHS solve of the same plan (``expected[i][j]`` for system ``i``
and right-hand side ``j``); a mismatch is a failed request.

Both keep times in reference seconds (see :mod:`calibrate`): the closed
loop divides each round's times by the stretch sampled right after it,
and the open loop runs its arrival schedule on the stretched clock and
divides its latencies by the same stretch.
"""

from __future__ import annotations

import functools
import math
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.errors import AdmissionError, DeadlineExceededError
from repro.service.loadgen import BurstPhase, LoadgenConfig, build_schedule

from calibrate import HostSpeed

clock = time.perf_counter


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of unsorted ``values``."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def pooled(phases: list[list[float]], q: float) -> float:
    """The ``q`` percentile of all phases' samples together: one phase
    holds too few samples for a steady percentile of its own."""
    return percentile([x for phase in phases for x in phase], q)


@dataclass
class ClosedLoopResult:
    #: Request reference seconds in the order measured; a failed
    #: request is inf.
    latencies: list[float] = field(default_factory=list)
    #: Round-robin rounds, each one request per system.
    rounds: int = 0
    #: Reference seconds of each round, split by whether it was traced.
    round_seconds: dict[bool, list[float]] = field(
        default_factory=lambda: {True: [], False: []}
    )
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def closed_loop(target, systems, expected, *, min_seconds: float,
                min_solves: int, speed: HostSpeed, tracer=None,
                result: ClosedLoopResult) -> ClosedLoopResult:
    """One caller, round-robin over ``systems``, whole rounds only.

    Runs until both ``min_seconds`` (wall) have passed and
    ``min_solves`` requests completed, and adds them to ``result``, so
    one loop can run in chunks.  A reference-kernel sample follows each
    round.  With a tracer, even rounds are traced and odd rounds are
    not, so the traced run can measure its own overhead.
    """
    n_rhs = len(systems[0].rhs)
    start = clock()
    rid = first = len(result.latencies)
    while (clock() - start < min_seconds
           or len(result.latencies) - first < min_solves):
        traced = tracer is not None and result.rounds % 2 == 0
        if tracer is not None:
            tracer.enabled = traced
        j = result.rounds % n_rhs
        round_first = len(result.latencies)
        round_start = clock()
        with tracer.span("bench.closed") if traced else nullcontext():
            for i, system in enumerate(systems):
                if tracer is not None:
                    tracer.set_rid(rid)
                rid += 1
                t0 = clock()
                try:
                    x = target.solve(system.key, system.rhs[j])
                    latency = clock() - t0
                    ok = np.array_equal(x, expected[i][j])
                except Exception:  # noqa: BLE001 - counted as a failure
                    ok = False
                result.latencies.append(latency if ok else math.inf)
                result.failed += not ok
        round_s = clock() - round_start
        stretch = speed.sample()
        for k in range(round_first, len(result.latencies)):
            result.latencies[k] /= stretch
        result.round_seconds[traced].append(round_s / stretch)
        result.rounds += 1
    if tracer is not None:
        tracer.enabled = False
        tracer.set_rid(None)
    return result


@dataclass
class PhaseResult:
    """One open-loop phase at a fixed offered rate."""

    rate_rps: float
    duration_s: float
    #: The host's stretch the phase ran at.
    stretch: float = 1.0
    attempted: int = 0
    ok: int = 0
    refused: int = 0
    missed: int = 0
    failed: int = 0
    #: Reference seconds from due instant to result, in the order
    #: settled; a refused, missed or failed request is inf: it exceeds
    #: every limit.
    latencies: list[float] = field(default_factory=list)
    slips: list[float] = field(default_factory=list)
    #: Requests still unresolved one latency limit after the last
    #: arrival: a backlog the phase did not clear.
    backlog: int = 0
    limit_s: float = 0.0

    def latency(self, q: float) -> float:
        return percentile(self.latencies, q)

    @property
    def passed(self) -> bool:
        return (self.ok == self.attempted and self.backlog == 0
                and self.latency(0.99) <= self.limit_s)


def open_loop_phase(target, systems, expected, *, rate_rps: float,
                    duration_s: float, zipf_s: float, seed: int,
                    limit_s: float, stretch: float,
                    tracer=None) -> PhaseResult:
    """Send seeded Poisson arrivals with Zipf key skew on schedule.

    Arrivals come from :func:`repro.service.loadgen.build_schedule`, in
    reference seconds; on the wall clock they are ``stretch`` times as
    far apart, and every latency is divided by ``stretch`` again.
    Each request is timed from the instant it was due, not from when
    the generator got round to sending it, so generator stalls count
    against latency; the generator's lateness is kept as ``slips``.
    """
    config = LoadgenConfig(
        phases=(BurstPhase(rate_rps, duration_s),), zipf_s=zipf_s,
        seed=seed,
    )
    arrivals = build_schedule(config, len(systems))
    result = PhaseResult(rate_rps, duration_s, stretch,
                         attempted=len(arrivals), limit_s=limit_s)
    n_rhs = len(systems[0].rhs)
    done_at = [0.0] * len(arrivals)
    due_at = [0.0] * len(arrivals)
    in_flight: deque = deque()

    def mark(index: int, _future) -> None:
        done_at[index] = clock()

    def settle(entry) -> None:
        index, slot, j, future = entry
        try:
            x = future.result()
        except DeadlineExceededError:
            result.missed += 1
            result.latencies.append(math.inf)
            return
        except Exception:  # noqa: BLE001 - counted as a failure
            result.failed += 1
            result.latencies.append(math.inf)
            return
        while done_at[index] == 0.0:  # callbacks run after waiters wake
            time.sleep(0)
        if np.array_equal(x, expected[slot][j]):
            result.ok += 1
            result.latencies.append(
                (done_at[index] - due_at[index]) / stretch)
        else:
            result.failed += 1
            result.latencies.append(math.inf)

    # the generator's waiting is a span of its own, so a traced run's
    # untraced remainder is the generator's bookkeeping alone
    idle = tracer.span if tracer is not None else (lambda _: nullcontext())
    start = clock() + 0.005
    for index, (offset, slot) in enumerate(arrivals):
        due = due_at[index] = start + offset * stretch
        delay = due - clock()
        if delay > 0.0:
            with idle("loadgen.idle"):
                time.sleep(delay)
        system = systems[slot]
        j = index % n_rhs
        result.slips.append(max(clock() - due, 0.0) / stretch)
        if tracer is not None:
            tracer.set_rid(index)
        try:
            future = target.submit(system.key, system.rhs[j])
        except AdmissionError:
            result.refused += 1
            result.latencies.append(math.inf)
            continue
        future.add_done_callback(functools.partial(mark, index))
        in_flight.append((index, slot, j, future))
        while in_flight and in_flight[0][3].done():
            settle(in_flight.popleft())
    with idle("loadgen.idle"):
        while in_flight:
            settle(in_flight.popleft())
    if tracer is not None:
        tracer.set_rid(None)
    if arrivals:
        horizon = start + (arrivals[-1][0] + limit_s) * stretch
        result.backlog = sum(1 for t in done_at if t > horizon)
    if result.attempted != (result.ok + result.refused + result.missed
                            + result.failed):
        raise RuntimeError(
            f"open-loop accounting broken at {rate_rps} rps: "
            f"{result.attempted} attempted != {result.ok} ok + "
            f"{result.refused} refused + {result.missed} missed + "
            f"{result.failed} failed"
        )
    return result


@dataclass
class DrainResult:
    """One backlog drain: every request submitted at once."""

    attempted: int
    ok: int
    #: Reference seconds from the first submit to the last result.
    seconds: float

    @property
    def throughput_rps(self) -> float:
        """Completed requests per reference second."""
        return self.ok / self.seconds


def drain(target, systems, expected, *, n_requests: int, zipf_s: float,
          seed: int, stretch: float, tracer=None) -> DrainResult:
    """Submit ``n_requests`` back to back, then wait for all of them.

    Keys are Zipf-skewed in the order
    :func:`repro.service.loadgen.build_schedule` draws them for ``seed``;
    arrival times are ignored.  The queue is full from the start, so
    the elapsed time is the serving stack's saturation capacity:
    submission, routing, coalescing and the kernels.  A refused,
    raising or wrong request is not ok.  The wait for results is a
    ``loadgen.idle`` span, as in :func:`open_loop_phase`.
    """
    config = LoadgenConfig(
        phases=(BurstPhase(float(n_requests), 2.0),), zipf_s=zipf_s,
        seed=seed,
    )
    slots = [slot for _, slot in build_schedule(config, len(systems))]
    slots = slots[:n_requests]
    n_rhs = len(systems[0].rhs)
    done_at = [0.0] * len(slots)
    pending = []

    def mark(index: int, _future) -> None:
        done_at[index] = clock()

    start = clock()
    for index, slot in enumerate(slots):
        system = systems[slot]
        j = index % n_rhs
        try:
            future = target.submit(system.key, system.rhs[j])
        except AdmissionError:
            continue
        future.add_done_callback(functools.partial(mark, index))
        pending.append((index, slot, j, future))
    ok = 0
    idle = tracer.span if tracer is not None else (lambda _: nullcontext())
    with idle("loadgen.idle"):
        for index, slot, j, future in pending:
            try:
                x = future.result()
            except Exception:  # noqa: BLE001 - counted as a failure
                continue
            ok += int(np.array_equal(x, expected[slot][j]))
        while any(done_at[index] == 0.0 for index, *_ in pending):
            time.sleep(0)  # callbacks run after waiters wake
    end = max([done_at[index] for index, *_ in pending], default=start)
    return DrainResult(len(slots), ok, (end - start) / stretch)
