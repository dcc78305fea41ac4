"""Repository benchmark: offline solves, sharded reads, durable writes.

Run from the repository root::

    python3 perfbench/run.py --workload offline-solve --seed 1 --seconds 20 --trace 0

Each run repeats *episodes* (set-up plus a fixed op sequence, see
``bench_workloads.py``) on a cycle of sub-seeds derived from
``--seed``, ending on the whole cycle closest to ``--seconds``.  With
``--trace 0`` it prints the end-to-end metrics, wall-clock ones scaled
to a reference host speed (``bench_host.py``); with ``--trace 1`` it
alternates untraced and traced episodes and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, starting with ``# notes``, records the environment, tail
percentiles, sample counts and the first failing step of each failure
kind.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Span traces of traced runs (Chrome/Perfetto JSON) land here.
OUT = ROOT / ".perfbench"

#: Percentiles tried for a tail, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)


def tail_percentile(design_samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it,
    judged on the samples one episode is guaranteed to collect (the
    median when none qualifies).  Fixed per workload, so every run
    reports the same percentile."""
    for pct in TAIL_LADDER:
        if design_samples * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


#: workload -> episodes per cycle, and the successful read/solve and
#: write samples one episode is guaranteed to yield.  A run's episodes
#: cycle through ``cycle`` sub-seeds derived from ``--seed``, so each
#: run averages that many inputs; simulated counts come from the first
#: full cycle and are exact.
SPECS = {
    "offline-solve": {"cycle": 6, "reads": 4, "writes": 1},
    "serve-read-sharded": {"cycle": 8, "reads": 2048, "writes": 1},
    "serve-write-durable": {"cycle": 4, "reads": 800, "writes": 40},
}


#: Host-speed samples (``bench_host.calibrate``) taken before each episode.
CALIBRATIONS_PER_EPISODE = 3


def sub_seed(seed: int, episode: int, cycle: int) -> int:
    return seed * 100 + episode % cycle


def _environment() -> dict:
    import numpy

    from repro.em import Machine, sanitize_default

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "EM_KERNEL": Machine(128, 64).kernel.name,
        "EM_SANITIZE": sanitize_default(),
    }


def _git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else ``n/a``."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "n/a"


def _pct(values, pct: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), pct))


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_episodes(workload: str, seed: int, seconds: float, traced: bool):
    """Returns ``(untraced episodes, traced episodes, calibration)``.

    A run ends on the whole cycle of sub-seeds closest to ``seconds``,
    so every sub-seed weighs the same in the run's metrics.  Traced runs
    alternate an untraced and a traced episode on the same sub-seed.
    In untraced runs ``calibration[i]`` holds the host-speed samples
    taken just before episode ``i``; one more entry follows the last.
    """
    from bench_host import calibrate
    from bench_layers import LayerProfiler, NullProbe, instrumented
    from bench_machines import MachineSet
    from bench_workloads import WORKLOADS
    from repro.obs import Tracer

    def samples():
        return [calibrate() for _ in range(CALIBRATIONS_PER_EPISODE)]

    episode_fn = WORKLOADS[workload]
    cycle = SPECS[workload]["cycle"]
    plain, traces, calibration = [], [], []
    start = time.perf_counter()

    def more() -> bool:
        elapsed = time.perf_counter() - start
        if not plain or len(plain) % cycle:
            return True
        # At a cycle boundary: stop when the end of one more cycle would
        # land further from ``seconds`` than stopping now.
        return elapsed + elapsed / (len(plain) // cycle) / 2 < seconds

    while more():
        if not traced:
            calibration.append(samples())
        s = sub_seed(seed, len(plain), cycle)
        plain.append(episode_fn(s, MachineSet(), NullProbe()))
        if traced:
            machines = MachineSet()
            prof = LayerProfiler(machines)
            tracer = Tracer()
            with instrumented(prof), tracer.install():
                episode = episode_fn(s, machines, prof)
            episode.layer["prof"] = prof
            episode.layer["traces"] = tracer.traces
            traces.append(episode)
    if not traced:
        calibration.append(samples())
    return plain, traces, calibration


def wall_clock(workload: str, episodes, scales) -> dict[str, float]:
    """The wall-clock metrics, each episode's times multiplied by its
    scale.  Set-up is the mean over episodes (whole cycles, so every
    sub-seed weighs the same).  Throughput and tails are taken per
    episode and then the median over episodes, so a burst of
    interference, or one sub-seed's unusual trace, moves one episode
    rather than the run.  The p50s pool every episode."""
    spec = SPECS[workload]
    scaled = list(zip(episodes, scales))
    reads = [[op.wall_s * k for op in ep.ops if op.read and op.ok] for ep, k in scaled]
    writes = [[w * k for w in ep.write_s] for ep, k in scaled]

    def tail(per_episode, guaranteed):
        pct = tail_percentile(guaranteed)
        return statistics.median(_pct(v, pct) for v in per_episode if v)

    return {
        "setup_s": statistics.fmean(ep.setup_s * k for ep, k in scaled),
        "ops_per_s": statistics.median(
            sum(op.ok for op in ep.ops) / (ep.ops_s * k) for ep, k in scaled
        ),
        "latency_p50_ms": 1e3 * _pct([r for v in reads for r in v], 50),
        "latency_tail_ms": 1e3 * tail(reads, spec["reads"]),
        "write_latency_p50_ms": 1e3 * _pct([w for v in writes for w in v], 50),
        "write_latency_tail_ms": 1e3 * tail(writes, spec["writes"]),
    }


def end_to_end(workload: str, episodes, calibration) -> tuple[dict, dict]:
    """End-to-end metrics.  Wall-clock ones are scaled to the reference
    host speed (``bench_host.py``) by the calibration taken around each
    episode; the unscaled values go to the notes."""
    from bench_host import REFERENCE_S

    spec = SPECS[workload]
    cycle = episodes[: spec["cycle"]]
    cycle_ops = [op for ep in cycle for op in ep.ops]
    n_ops = len(cycle_ops)
    ok_ops = sum(op.ok for op in cycle_ops)
    sim = [sum(ep.sim[i] for ep in cycle) for i in range(3)]
    scales = [
        REFERENCE_S / statistics.median(before + after)
        for before, after in zip(calibration, calibration[1:])
    ]
    units = {"setup_s": "s", "ops_per_s": "1/s"}
    metrics = {
        name: _metric(value, units.get(name, "ms"))
        for name, value in wall_clock(workload, episodes, scales).items()
    }
    metrics.update(
        sim_io_per_op=_metric(sim[0] / n_ops, "io/op"),
        sim_io_tail_per_op=_metric(_pct([op.io for op in cycle_ops], 99), "io/op"),
        sim_writes_per_op=_metric(sim[1] / n_ops, "io/op"),
        comparisons_per_op=_metric(sim[2] / n_ops, "cmp/op"),
        peak_disk_blocks=_metric(max(ep.peak_disk_blocks for ep in cycle), "blocks"),
        peak_rss_mb=_metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        success_rate=_metric(ok_ops / n_ops, "ratio"),
    )

    def tail_note(per_episode, guaranteed):
        """Percentile, and the fewest samples of any episode and beyond it."""
        pct = tail_percentile(guaranteed)
        counts = [(len(v), sum(x > _pct(v, pct) for x in v)) for v in per_episode if v]
        return {
            "percentile": pct,
            "min_samples": min(n for n, _ in counts),
            "min_beyond": min(b for _, b in counts),
        }

    reads = [[op.wall_s for op in ep.ops if op.read and op.ok] for ep in episodes]
    writes = [ep.write_s for ep in episodes]
    notes = {
        "host_scale": scales,
        "unscaled": wall_clock(workload, episodes, [1.0] * len(episodes)),
        "episodes": len(episodes),
        "ops_per_cycle": n_ops,
        "error_rate": 1.0 - ok_ops / n_ops,
        "latency_tail": tail_note(reads, spec["reads"]),
        "write_latency_tail": tail_note(writes, spec["writes"]),
        "sim_io_tail": {"percentile": 99.0, "samples": n_ops},
    }
    return metrics, notes


def _digests(workload: str, plain, traced) -> tuple[list[str], list[int]]:
    """Simulated-count digest per sub-seed, and the sub-seeds on which
    some episode, traced or not, disagreed with the first one."""
    cycle = SPECS[workload]["cycle"]
    first: dict[int, str] = {}
    mismatched = []
    for i, ep in [*enumerate(plain), *enumerate(traced)]:
        digest = hashlib.sha256(repr(ep.digest()).encode()).hexdigest()[:16]
        if first.setdefault(i % cycle, digest) != digest:
            mismatched.append(i % cycle)
    return [first[k] for k in sorted(first)], mismatched


def _failure_notes(episode) -> dict:
    return {
        label: {"first_step": step, "count": count, "example": text}
        for label, (step, count, text) in sorted(episode.failures.items())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    # Pin the program's defaults: the benchmark never inherits a kernel
    # or sanitizer override from the calling environment.
    os.environ.pop("EM_KERNEL", None)
    os.environ.pop("EM_SANITIZE", None)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    from bench_layers import chrome_trace
    from bench_report import layer_metrics
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    plain, traced, calibration = run_episodes(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    digests, mismatched = _digests(args.workload, plain, traced)
    deterministic = not mismatched
    episodes = traced if args.trace else plain
    conservation = []
    for ep in traced:
        for trace in ep.layer["traces"]:
            drift = trace.conservation_error()
            if drift is not None:
                conservation.append(drift)

    if args.trace:
        metrics = layer_metrics(plain, traced)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        OUT.mkdir(exist_ok=True)
        trace_path.write_text(json.dumps(chrome_trace(traced[0].layer["prof"])))
        notes = {
            "episodes": len(plain),
            "traced_episodes": len(traced),
            "chrome_trace": str(trace_path.relative_to(ROOT)),
        }
    else:
        metrics, notes = end_to_end(args.workload, plain, calibration)
    notes.update(
        workload=args.workload,
        seed=args.seed,
        environment=_environment(),
        sim_digests=digests,
        deterministic=deterministic,
        counter_conservation=conservation or "ok",
        failures=_failure_notes(episodes[0]),
    )
    # Each sub-seed's op sequence is counted once: later cycles replay
    # the same sub-seeds and must match the first one op for op (the
    # digests above), so the counts depend on the seed alone, not on
    # how many cycles fitted in the run.
    counted = episodes[: SPECS[args.workload]["cycle"]]
    attempted = sum(len(ep.ops) for ep in counted)
    failed = sum(not op.ok for ep in counted for op in ep.ops)
    print("# notes " + json.dumps(notes, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": deterministic and not conservation,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
