"""ilpsim benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload mem_small_packets --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload tcp_sessions --seed 1 --seconds 30 --trace 1 --out a.jsonl
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

Run from the repository root; the program is imported from ./src. The last
line of standard output is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it records the environment and diagnostics.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
the tracing overhead. Workloads, metrics and the checks that make an
operation fail are described in perfbench/README.md. `correct` is false,
and the exit code 1, when a ledger conservation or atomicity check is false,
or when any operation fails on a fault-free workload.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from stats import percentile

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 9  # at least this many builds are timed...
SETUP_SECONDS = 1.0  # ...and at least this much building, up to
SETUP_MAX_REPEATS = 200
SETUP_ATTEMPTS = 40  # failed builds before the run gives up
WINDOW_SECONDS = 0.5  # windows of a timed phase, whose median is reported
STEAL_LIMIT = 0.03  # of the CPU time the host wanted
TRACE_PAIRS = 2
WARMUP_SECONDS = 1.0
WATCHDOG_SECONDS = 175  # the whole run must end within 180 s

# name -> unit; every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "packets_per_s": "1/s",
    "packet_rtt_p50_ms": "ms",
    "packet_rtt_p90_ms": "ms",
    "payments_per_s": "1/s",
    "payment_p50_ms": "ms",
    "payment_p90_ms": "ms",
    "ok_share": "share",
    "cpu_ms_per_packet": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_packet"):
        return "1/packet"
    if name.endswith("_per_payment"):
        return "1/payment"
    if name.endswith("_per_claim"):
        return "1/claim"
    if name.startswith("trace.overhead.") or name.endswith("_ratio"):
        return "share"
    if name.endswith("_us") or "us_p" in name:
        return "us"
    return "count"


def _load_ilpsim():
    """Import the program from this checkout's src, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import ilpsim
    except ImportError as exc:
        sys.exit(f"cannot import ilpsim from {ROOT / 'src'}: {exc}")
    if Path(ilpsim.__file__).resolve().parent != ROOT / "src" / "ilpsim":
        sys.exit(f"ilpsim was imported from {ilpsim.__file__}, not from this checkout")


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _steal_and_wanted() -> tuple[int, int]:
    """Host-wide CPU ticks the hypervisor took from this machine (steal),
    and the ticks the host wanted to run: busy (user, nice, system, irq,
    softirq) plus steal. Idle CPUs are not stolen from, so steal is taken
    against what the workload asked for, not against all CPUs. (0, 0) where
    /proc/stat cannot be read."""
    try:
        with open("/proc/stat") as fh:
            user, nice, system, _idle, _iowait, irq, softirq, steal = map(
                int, fh.readline().split()[1:9]
            )
    except (OSError, ValueError):
        return 0, 0
    return steal, user + nice + system + irq + softirq + steal


def _pin_to_one_cpu() -> list[int] | None:
    """Run this process, and every thread it starts later, on the first CPU
    it may use. The program holds the GIL, so it runs about one thread at a
    time anyway; on a shared host, threads handing a packet to each other
    across CPUs wait whenever the hypervisor has taken the other CPU away,
    which spread packet times by half of their median between runs on a
    2-vCPU virtual machine. Returns the CPUs the process runs on, or None
    where affinity cannot be set."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None


def _environment(workload: str) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "network": (
            "host loopback, not a real link" if workload.startswith("tcp_")
            else "in-process memory links"
        ),
    }


class PacketTimer:
    """Times the call the sender makes per packet, by wrapping the sender's
    method while the timer is active. After the first packet that ends
    WINDOW_SECONDS or more after the last sample, and whenever `sample` is
    called, it also records the clock, the packets fulfilled, the process
    CPU time and the host's steal and wanted ticks; consecutive samples
    bound the windows of a phase."""

    def __init__(self, owner, attr):
        self.owner, self.attr = owner, attr
        self.rtts: list[float] = []  # of fulfilled packets
        self.sent = 0
        # (time, packets fulfilled, process CPU seconds, steal, wanted)
        self.samples: list[tuple] = []
        self.next_sample = 0.0

    def sample(self) -> None:
        now = time.perf_counter()
        steal, wanted = _steal_and_wanted()
        self.samples.append((now, len(self.rtts), time.process_time(), steal, wanted))
        self.next_sample = now + WINDOW_SECONDS

    def __enter__(self) -> "PacketTimer":
        from ilpsim import ilp

        original = self.original = self.owner.__dict__[self.attr]
        rtts, perf_counter = self.rtts, time.perf_counter

        def timed(instance, prepare, timeout=None):
            started = perf_counter()
            response = original(instance, prepare, timeout)
            ended = perf_counter()
            self.sent += 1
            if isinstance(response, ilp.FulfillPacket):
                rtts.append(ended - started)
            if ended >= self.next_sample:
                self.sample()
            return response

        setattr(self.owner, self.attr, timed)
        return self

    def __exit__(self, *exc_info) -> None:
        setattr(self.owner, self.attr, self.original)


@dataclass
class Phase:
    outcomes: list = field(default_factory=list)
    # At the start and after each operation: (time, outcomes so far, steal
    # ticks, wanted ticks).
    marks: list = field(default_factory=list)
    samples: list = field(default_factory=list)  # PacketTimer's, packets counted from 0
    rtts: list = field(default_factory=list)
    sent: int = 0
    peak_rss_mb: float = 0.0

    @property
    def packets(self) -> int:
        return len(self.rtts)


@dataclass
class Window:
    """The time between two of the packet timer's samples."""

    seconds: float
    cpu: float
    steal_share: float  # of the CPU time the host wanted, taken by the hypervisor
    rtts: list


@dataclass
class Operation:
    """One call of the workload's `operate`: a payment, a session, or a
    scenario run's payments."""

    seconds: float
    steal_share: float
    outcomes: list


def _share(steal0: int, wanted0: int, steal1: int, wanted1: int) -> float:
    return (steal1 - steal0) / (wanted1 - wanted0) if wanted1 > wanted0 else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run_phase(workload, stack, timer: PacketTimer, seconds: float) -> Phase:
    """Run operations for `seconds`. Peak RSS is read once the phase has
    fulfilled the workload's `rss_packets`, or at its end if it falls short,
    so that it reflects a fixed amount of work."""
    phase = Phase()
    first, sent = len(timer.rtts), timer.sent
    timer.sample()
    first_sample = len(timer.samples) - 1
    started = time.perf_counter()

    def mark() -> None:
        steal, wanted = _steal_and_wanted()
        phase.marks.append((time.perf_counter(), len(phase.outcomes), steal, wanted))
        if not phase.peak_rss_mb and len(timer.rtts) - first >= workload.rss_packets:
            phase.peak_rss_mb = _peak_rss_mb()

    mark()
    while time.perf_counter() < started + seconds:
        phase.outcomes += workload.operate(stack)
        mark()
    timer.sample()
    phase.samples = [(t, n - first, *rest) for t, n, *rest in timer.samples[first_sample:]]
    phase.rtts = timer.rtts[first:]
    phase.sent = timer.sent - sent
    phase.peak_rss_mb = phase.peak_rss_mb or _peak_rss_mb()
    return phase


def _windows(phase: Phase) -> list[Window]:
    """Consecutive samples bound a window; a last window shorter than half
    of WINDOW_SECONDS is merged into the one before it."""
    samples = phase.samples
    cuts = list(range(len(samples)))
    if len(cuts) > 2 and samples[-1][0] - samples[-2][0] < WINDOW_SECONDS / 2:
        del cuts[-2]
    windows = []
    for a, b in zip(cuts, cuts[1:]):
        (t0, p0, c0, s0, w0), (t1, p1, c1, s1, w1) = samples[a], samples[b]
        windows.append(Window(t1 - t0, c1 - c0, _share(s0, w0, s1, w1), phase.rtts[p0:p1]))
    return windows


def _operations(phase: Phase) -> list[Operation]:
    ops = []
    for (t0, o0, s0, w0), (t1, o1, s1, w1) in zip(phase.marks, phase.marks[1:]):
        ops.append(Operation(t1 - t0, _share(s0, w0, s1, w1), phase.outcomes[o0:o1]))
    return ops


def _calm(items: list) -> list:
    """Leave out the windows, operations or builds during which the
    hypervisor took more than STEAL_LIMIT of the CPU time the host wanted,
    as long as a quarter of them remain; otherwise keep the quarter with the
    least. The choice reads only the host's steal counter, never a measured
    value."""
    calm = [x for x in items if x.steal_share <= STEAL_LIMIT]
    if 4 * len(calm) >= len(items):
        return calm
    return sorted(items, key=lambda x: x.steal_share)[: (len(items) + 3) // 4]


def _phase_metrics(phase: Phase) -> dict:
    """Rates, packet round trips and CPU per packet come from the calm
    windows of the phase, the first three as medians over them, so that a
    burst of load from elsewhere on the host moves them only if it lasts
    most of the run. Payment rate and times come from the calm operations."""
    windows = _calm(_windows(phase))
    timed = [w for w in windows if w.rtts] or windows
    ops = _calm(_operations(phase))
    outcomes = [o for op in ops for o in op.outcomes]
    # When no operation passed, time the failed ones rather than report 0.
    ok = [o.seconds for o in outcomes if o.ok] or [o.seconds for o in outcomes]
    median = statistics.median
    return {
        "packets_per_s": median(len(w.rtts) / w.seconds for w in windows),
        "packet_rtt_p50_ms": median(percentile(w.rtts, 50) for w in timed) * 1e3,
        "packet_rtt_p90_ms": median(percentile(w.rtts, 90) for w in timed) * 1e3,
        "payments_per_s": sum(o.ok for o in outcomes) / sum(op.seconds for op in ops),
        "payment_p50_ms": percentile(ok, 50) * 1e3,
        "payment_p90_ms": percentile(ok, 90) * 1e3,
        "cpu_ms_per_packet": (
            sum(w.cpu for w in windows) / max(sum(len(w.rtts) for w in windows), 1) * 1e3
        ),
    }


@dataclass
class Build:
    seconds: float
    steal_share: float


def _set_up(workload, outcomes: list) -> tuple[object, list[Build]]:
    """Build the topology until at least SETUP_REPEATS builds and
    SETUP_SECONDS of building have been timed; keep the last build. A build
    that raises is a failed operation and is attempted again."""
    from workloads import failed_outcome

    builds: list[Build] = []
    closers: list[threading.Thread] = []
    stack = None
    failures = 0
    while len(builds) < SETUP_REPEATS or (
        sum(b.seconds for b in builds) < SETUP_SECONDS and len(builds) < SETUP_MAX_REPEATS
    ):
        ticks = _steal_and_wanted()
        started = time.perf_counter()
        try:
            built = workload.build()
        except Exception as exc:  # a failed setup is a failed attempt; try again
            outcomes.append(failed_outcome(started, exc))
            failures += 1
            if failures == SETUP_ATTEMPTS:
                raise RuntimeError(f"setup failed {failures} times: {outcomes[-1].reason}")
            continue
        seconds = time.perf_counter() - started
        builds.append(Build(seconds, _share(*ticks, *_steal_and_wanted())))
        if stack is not None:
            # HTTP servers take up to half a second to shut down; do not
            # make the next build wait for that.
            closers.append(threading.Thread(target=workload.close, args=(stack,)))
            closers[-1].start()
        stack = built
    for closer in closers:
        closer.join(timeout=30)
    return stack, builds


def _per_layer(tracer, pairs: list, outcomes: list, event_logs: list) -> dict:
    import tracer as tracing

    traced = [t for _untraced, t in pairs]
    packets = sum(p.packets for p in traced)
    metrics = tracing.layer_metrics(
        tracer, packets, sum(len(p.outcomes) for p in traced), event_logs
    )
    metrics["stream.fulfill_ratio"] = packets / max(sum(p.sent for p in traced), 1)
    metrics["stream.overcredited_payments"] = sum(o.overcredited for o in outcomes)
    metrics["localapp.refused_first_requests"] = sum(o.refused_first_request for o in outcomes)
    for key in ("packets_per_s", "packet_rtt_p50_ms", "payment_p50_ms"):
        changes = []
        for untraced, traced_phase in pairs:
            base = _phase_metrics(untraced)[key]
            if base:
                changes.append(_phase_metrics(traced_phase)[key] / base - 1)
        metrics[f"trace.overhead.{key}"] = statistics.mean(changes) if changes else 0.0
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import tracer as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, seconds + WARMUP_SECONDS + 5)
    outcomes: list = []
    stack, builds = _set_up(workload, outcomes)
    try:
        with PacketTimer(*workload.sender) as timer:
            outcomes += _run_phase(workload, stack, timer, WARMUP_SECONDS).outcomes
            if trace:
                # Untraced and traced stretches alternate, so that drift over
                # the run does not show up as tracing overhead.
                tracer, pairs = tracing.Tracer(), []
                stretch = seconds / (2 * TRACE_PAIRS)
                for _ in range(TRACE_PAIRS):
                    untraced = _run_phase(workload, stack, timer, stretch)
                    with tracer:
                        pairs.append((untraced, _run_phase(workload, stack, timer, stretch)))
                phases = [phase for pair in pairs for phase in pair]
            else:
                phases = [_run_phase(workload, stack, timer, seconds)]
        for phase in phases:
            outcomes += phase.outcomes
        broken = workload.invariants(stack)
    finally:
        workload.close(stack)

    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    if trace:
        metrics = _per_layer(tracer, pairs, outcomes, workload.event_logs(stack))
        tracer.write(ROOT / ".perfbench_out" / f"spans-{name}-{seed}.jsonl.gz")
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(b.seconds for b in _calm(builds)),
            **_phase_metrics(phases[0]),
            "ok_share": 1 - failed / attempted,
            "peak_rss_mb": phases[0].peak_rss_mb,
        }
        metrics = {k: metrics[k] for k in END_TO_END}
        units = END_TO_END
    diagnostics = {
        "broken_invariants": broken[:20],
        "failure_reasons": Counter(
            "overcredited" if o.overcredited else o.reason.split(":")[0][:60]
            for o in outcomes if not o.ok
        ),
        "first_failures": [o.reason for o in outcomes if not o.ok][:5],
        "timed_operations": sum(len(p.outcomes) for p in phases),
        "timed_packets": sum(p.packets for p in phases),
        "calm_windows": [f"{len(_calm(_windows(p)))}/{len(_windows(p))}" for p in phases],
        "calm_operations": [f"{len(_calm(_operations(p)))}/{len(_operations(p))}" for p in phases],
    }
    result = {
        "correct": not broken and not (workload.fault_free and failed),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, diagnostics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the record (environment and result) to this file")
    parser.add_argument("--compare", nargs="+", metavar="RECORDS",
                        help="summarize one file of records written with --out, "
                        "or compare two (parent, change)")
    args = parser.parse_args(argv)
    if args.compare:
        if len(args.compare) > 2:
            parser.error("--compare takes one or two files")
        import compare

        compare.main(*args.compare)
        return 0
    _load_ilpsim()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    cpus = _pin_to_one_cpu()  # before any thread starts, so that all inherit it
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True)
    env = _environment(args.workload)
    env["cpus"] = cpus
    ticks = _steal_and_wanted()
    result, diagnostics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    env["loadavg_end"] = list(os.getloadavg())
    env["host_cpu_steal_share"] = _share(*ticks, *_steal_and_wanted())
    faulthandler.cancel_dump_traceback_later()
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env, "diagnostics": diagnostics, "result": result,
        }
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({"env": env, "diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
