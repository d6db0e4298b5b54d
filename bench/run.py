"""seqlab benchmark: run one workload, check its outputs, print its metrics.

From the repository root:

    python3 bench/run.py --workload train-gate --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload is a closed loop: one process, one caller, each call waiting
for the previous one.  `--trace 0` measures the end-to-end metrics with no
tracing; `--trace 1` spends half the time on untraced calls and half on
traced ones, and reports the per-layer metrics and the tracing overhead.
The first untraced call of a run warms caches and is not timed.  Times
that carry a bound are CPU seconds of this process (see `cpu_clock`).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; a fuller record, and the
spans of a traced run, go to `.bench_out/` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("train-gate", "train-wide", "decode-beam4")
# (name, unit, better); BENCHMARK.json lists the same.  `cpu_throughput`
# is train_tok_s on the train workloads and decode_sent_s on decode-beam4,
# both over CPU seconds.
END_TO_END = (
    ("cpu_throughput", "1/cpu_s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
SETUP_REPEATS = 3      # timed set-ups before the calls of a measured run
MIN_CALLS = 3          # the warm-up call and two timed ones
TRACE_MIN_CALLS = 2    # traced calls, so the exact counts are compared


def cpu_clock() -> float:
    """CPU seconds (user + system) of this process.

    The benchmark is one thread doing the work (one process, one caller,
    BLAS pinned to one thread), so its CPU time is the wall time it takes on
    a core of its own.  On a shared virtual machine the wall clock also runs
    while the hypervisor gives the core to other guests (steal time), which
    comes and goes in phases of minutes; the CPU clock does not count it.
    Wall times are kept next to it in every record.
    """
    return time.process_time()


def pin_blas() -> bool:
    """Pin every BLAS and OpenMP pool to one thread.  Returns True when
    numpy was not yet imported, so the setting took effect."""
    from stats import THREAD_VARS

    for var in THREAD_VARS:
        os.environ[var] = "1"
    return "numpy" not in sys.modules


class Ledger:
    """Everything one run measures and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.setup_s: list[float] = []       # CPU seconds
        self.setup_wall_s: list[float] = []
        self.walls: dict[bool, list[float]] = {False: [], True: []}
        self.cpus: dict[bool, list[float]] = {False: [], True: []}
        self.throughput: list[float] = []    # work per CPU second
        self.throughput_wall: list[float] = []
        self.reference = None
        self.layer: list[dict] = []
        self.steps_ms: list[float] = []
        self.beam_ms: list[float] = []
        self.spans: list = []

    def fail(self, ops: int, problem: str) -> None:
        self.attempted += ops
        self.failed += ops
        self.problems.append(problem)

    def time_setup(self, prepare):
        t0, c0 = time.perf_counter(), cpu_clock()
        prep = prepare()
        self.setup_s.append(cpu_clock() - c0)
        self.setup_wall_s.append(time.perf_counter() - t0)
        return prep


def measure(wl, seed, seconds, min_calls, workdir, ledger, prep=None, tracer=None, installed=None):
    """Call the workload for `seconds` (at least `min_calls` times).  An
    untraced run does not time its first call, which warms caches."""
    import tracer as tr

    deadline = time.perf_counter() + seconds
    calls = 0
    while calls < min_calls or time.perf_counter() < deadline:
        calls += 1
        call_dir = Path(tempfile.mkdtemp(prefix="call-", dir=workdir))
        out_dir = call_dir / "out"
        out_dir.mkdir()
        try:
            if wl.fresh_setup_per_call:
                prep = ledger.time_setup(lambda: wl.prepare(seed, call_dir))
            if tracer:
                tracer.take()  # drops spans of checks that ran while traced
                root = tracer.open(wl.root_span)
            t0, c0 = time.perf_counter(), cpu_clock()
            try:
                outcome = wl.call(prep, out_dir)
            finally:
                cpu = cpu_clock() - c0
                wall = time.perf_counter() - t0
                if tracer:
                    tracer.close(root)
                    spans = tracer.take()
            attempted, failed, reference, problems, notes = wl.check(
                prep, outcome, out_dir, ledger.reference
            )
        except Exception:  # a failed call is counted and reported, not fatal
            traceback.print_exc()
            ledger.fail(wl.ops_per_call, f"call {calls} raised; traceback on stderr")
            continue
        finally:
            shutil.rmtree(call_dir, ignore_errors=True)
        ledger.attempted += attempted
        ledger.failed += failed
        ledger.problems += problems
        ledger.notes += notes
        ledger.reference = reference
        if tracer is None and calls == 1:
            continue  # the warm-up call
        ledger.walls[tracer is not None].append(wall)
        ledger.cpus[tracer is not None].append(cpu)
        if tracer:
            metrics, steps_ms, beam_ms = tr.analyze(spans, wl.units, installed)
            ledger.layer.append(metrics)
            ledger.steps_ms += steps_ms
            ledger.beam_ms += beam_ms
            ledger.spans.append(spans)
        else:
            ledger.throughput.append(wl.work(prep) / cpu)
            ledger.throughput_wall.append(wl.work(prep) / wall)


def run_workload(name: str, seed: int, seconds: int, trace: bool, pinned: bool) -> tuple[dict, list[str]]:
    import stats
    import tracer as tr
    import workloads

    wl = workloads.WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    ledger = Ledger()
    installed: set[str] = set()
    try:
        prep = None
        # A traced run needs set-up only where the calls reuse it.
        setups = SETUP_REPEATS if not trace else 0 if wl.fresh_setup_per_call else 1
        for _ in range(setups):
            setup_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=workdir))
            prep = ledger.time_setup(lambda: wl.prepare(seed, setup_dir))
        if trace:
            measure(wl, seed, seconds / 2, 2, workdir, ledger, prep)
            tracer = tr.Tracer(wl.request_span)
            with tr.traced(tracer, wl.emb_dim) as installed:
                measure(wl, seed, seconds / 2, TRACE_MIN_CALLS, workdir, ledger, prep,
                        tracer, installed)
        else:
            measure(wl, seed, seconds, MIN_CALLS, workdir, ledger, prep)
    except Exception:  # set-up failed: nothing could be attempted
        traceback.print_exc()
        ledger.fail(wl.ops_per_call, "set-up raised; traceback on stderr")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": stats.environment(ROOT, pinned),
        "attempted": ledger.attempted, "failed": ledger.failed,
        "fail_frac": ledger.failed / ledger.attempted if ledger.attempted else 1.0,
        "problems": ledger.problems,
        "notes": ledger.notes,
        "call_wall_s": {"untraced": ledger.walls[False], "traced": ledger.walls[True]},
        "call_cpu_s": {"untraced": ledger.cpus[False], "traced": ledger.cpus[True]},
        "setup_wall_s": ledger.setup_wall_s,
    }
    lines = [f"seqlab benchmark: workload {name}, seed {seed}, {seconds} s, trace {int(trace)}"]
    env = record["environment"]
    lines.append(
        f"  environment: python {env['python']}, numpy {env['numpy']}, "
        f"BLAS {env['blas']['name']} {env['blas']['version']} pinned to 1 thread: "
        f"{env['blas_pinned']}, nproc {env['nproc']}, cpu {env['cpu']}, "
        f"commit {env['commit']}, src {env['src_sha256'][:12]}"
    )
    metrics = {}
    if ledger.throughput and ledger.setup_s:
        summaries = {
            wl.throughput_name: (stats.summarize(ledger.throughput),
                                 f"{wl.throughput_unit} of CPU time"),
            f"{wl.throughput_name}.wall": (stats.summarize(ledger.throughput_wall),
                                            f"{wl.throughput_unit} of wall time"),
            "setup_s": (stats.summarize(ledger.setup_s), "s of CPU time"),
            "setup_s.wall": (stats.summarize(ledger.setup_wall_s), "s of wall time"),
        }
        record["end_to_end"] = {k: {**s, "unit": u} for k, (s, u) in summaries.items()}
        record["end_to_end"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        for key, (s, unit) in summaries.items():
            spread = f", q1 {s['q1']:.4g}, q3 {s['q3']:.4g}" if "q1" in s else ""
            tail = next((f", {k} {v:.4g}" for k, v in s.items() if k.startswith("p")),
                        ", no tail percentile (fewer than 20 samples)")
            lines.append(f"  {key:<19} {s['median']:.6g} {unit} (median of n={s['n']}{spread}{tail})")
        lines.append(f"  {'peak_rss_mb':<19} {peak_rss_mb:.6g} MB")
        if not trace:
            values = {"cpu_throughput": summaries[wl.throughput_name][0]["median"],
                      "setup_s": summaries["setup_s"][0]["median"],
                      "peak_rss_mb": peak_rss_mb}
            metrics = {n: {"value": values[n], "unit": u} for n, u, _ in END_TO_END}
    lines.append(f"  {'fail_frac':<19} {record['fail_frac']:.6g} ratio "
                 f"({ledger.failed} of {ledger.attempted} attempted operations failed)")

    correct = ledger.failed == 0 and ledger.attempted > 0
    if trace and ledger.layer and ledger.cpus[False]:
        layer, unstable = tr.combine(ledger.layer, ledger.steps_ms, ledger.beam_ms, installed)
        layer["trace_overhead_pct"] = 100.0 * (
            statistics.median(ledger.cpus[True]) / statistics.median(ledger.cpus[False]) - 1.0
        )
        if unstable:
            correct = False
            ledger.problems.append(f"exact counts changed between traced calls: {unstable}")
        metrics = {n: {"value": layer[n], "unit": u} for n, u, _ in tr.PER_LAYER if n in layer}
        lines.append(f"  per-layer metrics over {len(ledger.layer)} traced calls "
                     f"(per {'step' if wl.kind == 'train' else 'source'}):")
        lines += [f"    {n:<28} {m['value']:.6g} {m['unit']}" for n, m in metrics.items()]
        lines += _accounting(wl, layer, ledger.walls[True])
        _write_spans(name, seed, ledger.spans)
    elif trace:
        correct = False
    record.update(correct=correct, metrics=metrics)
    lines += [f"  note: {n}" for n in ledger.notes]
    lines += [f"  problem: {p}" for p in ledger.problems[:20]]
    (OUT_DIR / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record, lines


def _accounting(wl, layer: dict, traced_walls: list[float]) -> list[str]:
    """How the traced self times add up to a step (or a source)."""
    import tracer as tr

    buckets = [b for b in dict.fromkeys(tr.TIME_BUCKETS.values()) if b in layer]
    if wl.kind == "decode":
        per_source = statistics.fmean(traced_walls) / wl.units * 1e3
        return [f"  source accounting: traced call {per_source:.4g} ms per source, traced "
                f"self times {sum(layer[b] for b in buckets):.4g} ms per source"]
    if "training.step_ms.mean" not in layer:
        return []
    outside = ("data.encode_ms", "checkpoint.save_ms")  # not part of any step
    attributed = sum(layer[b] for b in buckets if b not in outside)
    return [f"  step accounting: mean step {layer['training.step_ms.mean']:.4g} ms = traced "
            f"self times {attributed:.4g} ms + unattributed "
            f"{layer['training.unattributed_ms']:.4g} ms (p50 step "
            f"{layer['training.step_ms.p50']:.4g} ms)"]


def _write_spans(name: str, seed: int, per_call: list) -> None:
    with open(OUT_DIR / f"spans-{name}-seed{seed}.jsonl", "w") as fh:
        for call, spans in enumerate(per_call):
            for s in spans:
                fh.write(json.dumps({"call": call, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "request": s.request,
                                     **({"attrs": s.attrs} if s.attrs else {})}) + "\n")


def run_all(args) -> int:
    """Run every workload, each in its own process so that no workload's
    peak memory carries into another's."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: r["metrics"] for name, r in results.items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    package = ROOT / "src" / "seqlab"
    if not (package / "__init__.py").is_file():
        print(f"bench: no seqlab sources under {package.parent}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    pinned = pin_blas()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import seqlab

    if Path(seqlab.__file__).resolve().parent != package.resolve():
        print(f"bench: imported seqlab from {seqlab.__file__}, not {package}", file=sys.stderr)
        return 2

    record, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), pinned)
    print("\n".join(lines))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
