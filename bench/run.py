"""tvheat benchmark: time to solution with its accuracy attached.

Usage, from the root of a checkout:

    python3 bench/run.py --workload tvf1d --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload rect2d --seed 3 --seconds 36 --trace 1
    python3 bench/run.py --build-refs --workload rect2d --seed 3
    python3 bench/run.py --smoke

One process runs one workload, and tvheat runs on one thread. With
``--trace 0`` it executes the workload repeatedly for about ``--seconds``
seconds, with a batch of set-ups before each execution, while a second
thread samples the host's speed. ``wall_s`` and ``setup_s`` are the median
execution and set-up, scaled to the reference host speed; every execution
is checked and the end-to-end metrics are printed. With ``--trace 1`` it
alternates untraced executions with traced set-up plus
execution cycles and prints the per-layer metrics. The last line of
standard output of a measurement is the JSON result; the lines before it are a
readable record of the machine and of every execution.

See bench/README.md for the workloads, the metrics and which layer metric
should move which end-to-end metric.
"""

from __future__ import annotations

import os

# one thread: pin BLAS before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import json
import platform
import resource
import shutil
import statistics
import sys
import threading
import time

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 3       # each batch of set-ups has at least this many ...
SETUP_SECONDS = 0.3     # ... and lasts at least this long
MIN_EXECUTIONS = 2
PROBE_PERIOD_S = 0.05   # the host-speed probe runs every this often ...
PROBE_PASSES = 40       # ... this many small-array passes, about 1 ms
PROBE_REF_S = 1e-3      # the probe's time at the reference host speed
COUNT_UNITS = ("count", "B")   # per-layer counts: they must repeat exactly

# import tvheat from this checkout's src/ and nothing else
sys.path.insert(0, SRC)
try:
    import tvheat
    import spans
    import workloads as W
except ImportError as exc:
    sys.exit(f"bench: cannot import tvheat from {SRC}: {exc}")
if not os.path.abspath(tvheat.__file__).startswith(SRC + os.sep):
    sys.exit(f"bench: tvheat imported from {tvheat.__file__}, not {SRC}")


def machine_record() -> dict:
    import scipy

    def read(path):
        try:
            with open(path) as fh:
                return fh.read().strip()
        except OSError:
            return None

    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    cache = "/sys/devices/system/cpu/cpu0/cache"

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"][
                "blas"].get("openblas configuration")
        except (KeyError, TypeError, ValueError):
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2": read(f"{cache}/index2/size"),
        "l3": read(f"{cache}/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _median(xs):
    return float(statistics.median(xs))


class Bench:
    def __init__(self, workload, seed: int, seconds: float, ref, tag: str):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.ref = ref
        self.workdir = os.path.join(WORK_DIR, f"{tag}-{os.getpid()}")

    def execute(self, inputs):
        """One timed execution and its checks: (seconds, Outcome)."""
        W.fresh_dir(self.workdir)
        t0 = time.perf_counter()
        result = self.w.execute(inputs, self.workdir)
        elapsed = time.perf_counter() - t0
        return elapsed, self.w.check(inputs, result, self.ref)

    def keep_going(self, t_start: float, durations: list) -> bool:
        """Whether another execution still ends within the run's seconds."""
        if len(durations) < MIN_EXECUTIONS:
            return True
        spent = time.perf_counter() - t_start
        return spent + _median(durations) <= self.seconds

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _judge(outcomes: list) -> list:
    """Failures per execution, plus non-determinism across executions."""
    failed = [list(o.failures) for o in outcomes]
    first = outcomes[0].fingerprint
    for k, o in enumerate(outcomes[1:], 1):
        if o.fingerprint != first:
            failed[k].append("results differ from the first execution")
    return failed


class HostSpeed:
    """Samples the speed of the CPU the benchmark runs on, while it runs.

    Co-tenants of the shared host slow its vCPUs by up to 2x, in phases
    from seconds to minutes long, and CPU time tracks wall time, so the
    raw time of an execution mostly shows the state the host was in. A
    thread pinned to the benchmark's CPU times a fixed kernel of about
    1 ms, small-array numpy passes that tvheat does not run, every
    PROBE_PERIOD_S in its own CPU time. A time divided by the kernel's mean
    time over the same interval, times PROBE_REF_S, is the time at the
    reference host speed. The probe runs for about 1 ms in every 50-70 ms,
    on every commit alike.
    """

    def __init__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.x = np.linspace(0.0, 1.0, 801)
        self.samples = []           # (end of the kernel, its CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        x = self.x
        while not self._stop.wait(PROBE_PERIOD_S):
            c0 = time.thread_time()
            for _ in range(PROBE_PASSES):
                g = np.diff(np.exp(0.5 * x * x) * x ** 2) * 800.0
                float(np.sqrt(g * g + 1e-4).sum())
            self.samples.append((time.perf_counter(), time.thread_time() - c0))

    def __enter__(self):
        self._thread.start()
        while not self.samples:
            time.sleep(PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, t0: float, t1: float) -> float:
        """Factor from seconds spent in [t0, t1] to seconds at the
        reference speed: samples within one period of the interval, and
        at least the last one before it."""
        samples = self.samples[:]
        lo = bisect.bisect_left(samples, t0 - PROBE_PERIOD_S,
                                key=lambda s: s[0])
        hi = bisect.bisect_right(samples, t1 + PROBE_PERIOD_S,
                                 key=lambda s: s[0])
        lo = min(lo, hi - 1)
        return PROBE_REF_S / statistics.fmean(s[1] for s in samples[lo:hi])


def setup_batch(b: Bench) -> tuple:
    """Set up at least SETUP_REPEATS times and SETUP_SECONDS long:
    (inputs of the first set-up, the time of each)."""
    inputs, times = None, []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        fresh = b.w.setup(b.seed)
        times.append(time.perf_counter() - t0)
        inputs = fresh if inputs is None else inputs
    return inputs, times


def measure(b: Bench) -> dict:
    # A batch of set-ups before every execution makes the set-up median
    # sample the whole run rather than its first second.
    setup_times, setup_scaled = [], []
    inputs = None
    durations, scaled, outcomes = [], [], []
    with HostSpeed() as speed:
        t_start = time.perf_counter()
        while b.keep_going(t_start, durations):
            t0 = time.perf_counter()
            first, times = setup_batch(b)
            factor = speed.scale(t0, time.perf_counter())
            inputs = first if inputs is None else inputs
            setup_times += times
            setup_scaled += [t * factor for t in times]
            t0 = time.perf_counter()
            elapsed, outcome = b.execute(inputs)
            factor = speed.scale(t0, t0 + elapsed)
            durations.append(elapsed)
            scaled.append(elapsed * factor)
            outcomes.append(outcome)
            print(f"# execution {len(durations)}: {elapsed:.4f} s, host "
                  f"speed {factor:.4f}, scaled {scaled[-1]:.4f} s, "
                  f"acc_err {outcome.acc_err:.6g}, "
                  f"{outcome.failures or 'ok'}, "
                  f"{json.dumps(outcome.figures, sort_keys=True)}")
    b.cleanup()
    failures = _judge(outcomes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"# executions: {len(durations)}, unscaled min "
          f"{min(durations):.4f} s, median {_median(durations):.4f} s, max "
          f"{max(durations):.4f} s; {len(speed.samples)} host speed samples")
    print(f"# set-up: {len(setup_times)} set-ups, unscaled min "
          f"{min(setup_times):.6g} s, median {_median(setup_times):.6g} s, "
          f"max {max(setup_times):.6g} s")
    return {
        "attempted": len(outcomes),
        "failed": sum(1 for f in failures if f),
        "failures": [f for f in failures if f],
        "metrics": {
            "wall_s": (_median(scaled), "s"),
            "setup_s": (_median(setup_scaled), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "acc_err": (outcomes[-1].acc_err, "rel"),
        },
    }


def _layer_metrics(summary: dict, tracer, outcome, continuation: bool) -> dict:
    """Per-layer metrics of one traced set-up plus execution cycle."""
    spans = summary["spans"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def secs(name, key="s"):
        return spans.get(name, {}).get(key, 0.0)

    accepted = [n for n, _ in tracer.runs]
    dts = np.concatenate([d for _, d in tracer.runs] or [np.zeros(0)])
    step_calls = calls("solver.step")
    execution = next(r for r in summary["roots"]
                     if r["name"] == "bench.execution")
    layer_self = {}
    for name, row in spans.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + row["self_s"]
    # continuation members are the solver runs after the flat run
    members = accepted[1:] if continuation else []
    m = {
        "mesh.gradient_calls": (calls("mesh.gradient"), "count"),
        "mesh.gradient_s": (secs("mesh.gradient"), "s"),
        "mesh.build_mesh_s": (secs("mesh.build_mesh"), "s"),
        "model.energy_calls": (calls("model.energy"), "count"),
        "model.energy_s": (secs("model.energy"), "s"),
        "model.snapshot_calls": (calls("model.snapshot"), "count"),
        "model.snapshot_s": (secs("model.snapshot"), "s"),
        "model.diagnostics_s": (tracer.outer_time(
            ("mesh.gradient", "model.energy", "model.snapshot"),
            since=execution["index"]), "s"),
        "model.reaction_F_calls": (calls("model.reaction_F"), "count"),
        "model.reaction_F_s": (secs("model.reaction_F"), "s"),
        "model.estimate_dp_s": (secs("model.estimate_dp"), "s"),
        "model.check_f_s": (secs("model.check_f_conditions"), "s"),
        "solver.step_calls": (step_calls, "count"),
        "solver.step_s": (secs("solver.step"), "s"),
        "solver.step_self_s": (secs("solver.step", "self_s"), "s"),
        "solver.linsolve_calls": (calls("solver.linsolve"), "count"),
        "solver.linsolve_s": (secs("solver.linsolve"), "s"),
        "solver.accepted_steps": (sum(accepted), "count"),
        "solver.rejected_steps": (step_calls - sum(accepted), "count"),
        "solver.accept_ratio": (sum(accepted) / max(step_calls, 1), "ratio"),
        "solver.dt_median": (float(np.median(dts)) if len(dts) else 0.0,
                             "model_t"),
        "solver.audit_s": (secs("solver.audit"), "s"),
        "limit.extract_flux_s": (secs("limit.extract_flux"), "s"),
        "limit.audit_s": (secs("limit.audit"), "s"),
        "limit.flux_z_excess": (outcome.figures.get("flux_z_excess", 0.0),
                                "rel"),
        "cli.parse_s": (secs("cli.parse_config"), "s"),
        "cli.write_s": (secs("cli.write"), "s"),
        "cli.bytes_written": (outcome.figures.get("bytes_written", 0), "B"),
        "trace.execution_s": (execution["dur"], "s"),
        "trace.spans": (summary["n_spans"], "count"),
    }
    for k in range(1, 7):
        m[f"solver.accepted_steps.m{k}"] = (
            members[k - 1] if k <= len(members) else 0, "count")
    for layer in ("mesh", "model", "solver", "limit", "cli", "bench"):
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    return m


def measure_traced(b: Bench) -> dict:
    inputs = b.w.setup(b.seed)
    plain, traced, cycles, outcomes = [], [], [], []
    failures, cycle_times = [], []
    spans_ok = True
    t_start = time.perf_counter()
    while b.keep_going(t_start, cycle_times):
        t_cycle = time.perf_counter()
        elapsed, outcome = b.execute(inputs)
        plain.append(elapsed)
        outcomes.append(outcome)

        tracer = spans.Tracer()
        tracer.install()
        try:
            t_inputs = tracer.root("bench.setup", b.w.setup, b.seed)
            W.fresh_dir(b.workdir)
            result = tracer.root("bench.execution", b.w.execute, t_inputs,
                                 b.workdir)
        finally:
            tracer.uninstall()
        t_outcome = b.w.check(t_inputs, result, b.ref)
        outcomes.append(t_outcome)
        summary = tracer.summary()
        metrics = _layer_metrics(summary, tracer, t_outcome,
                                 continuation=b.w.name == "tvf1d")
        traced.append(metrics["trace.execution_s"][0])
        cycles.append(metrics)

        problems = []
        roots = [r["name"] for r in summary["roots"]]
        if roots != ["bench.setup", "bench.execution"] or \
                not summary["nested"]:
            problems.append(f"spans do not nest under the two roots "
                            f"(roots {roots[:4]}...)")
        for root in summary["roots"]:
            if abs(root["self_sum"] - root["dur"]) > 1e-6 * root["dur"] + 1e-7:
                problems.append(f"self times of {root['name']} sum to "
                                f"{root['self_sum']!r}, root lasts "
                                f"{root['dur']!r}")
        spans_ok = spans_ok and not problems
        if metrics["solver.linsolve_calls"][0] != metrics["solver.step_calls"][0]:
            problems.append("linear solves differ from step calls")
        if t_outcome.csv_rows is not None and \
                t_outcome.csv_rows - 1 != metrics["solver.accepted_steps"][0]:
            problems.append(f"CSV has {t_outcome.csv_rows} rows for "
                            f"{metrics['solver.accepted_steps'][0]} "
                            f"accepted steps")
        for name, (value, unit) in metrics.items():
            if unit in COUNT_UNITS and value != cycles[0][name][0]:
                problems.append(f"{name} = {value} differs from the first "
                                f"traced cycle ({cycles[0][name][0]})")
        failures.append(problems)
        print(f"# cycle {len(cycles)}: untraced {elapsed:.4f} s, traced "
              f"{traced[-1]:.4f} s, {summary['n_spans']} spans, "
              f"{t_outcome.failures + problems or 'ok'}")
        last_tracer = tracer
        cycle_times.append(time.perf_counter() - t_cycle)
    b.cleanup()
    os.makedirs(WORK_DIR, exist_ok=True)
    spans_path = os.path.join(WORK_DIR, f"spans-{b.w.name}-seed{b.seed}.npz")
    last_tracer.save(spans_path)
    print(f"# spans of the last traced cycle: {os.path.relpath(spans_path)}")

    # traced executions must reproduce the untraced results bit for bit
    judged = _judge(outcomes)
    for k, problems in enumerate(failures):
        judged[2 * k + 1].extend(problems)
    metrics = {}
    for name, (value, unit) in cycles[0].items():
        if unit in COUNT_UNITS:
            metrics[name] = (value, unit)
        else:
            metrics[name] = (_median([c[name][0] for c in cycles]), unit)
    metrics["trace.overhead"] = (_median(traced) / _median(plain) - 1.0,
                                 "ratio")
    return {
        "attempted": len(outcomes),
        "failed": sum(1 for f in judged if f),
        "failures": [f for f in judged if f],
        "metrics": metrics,
        "spans_ok": spans_ok,
    }


def result_line(res: dict) -> str:
    out = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(res["metrics"].items())},
    }
    return json.dumps(out)


def build_refs(workload, seed: int) -> int:
    t0 = time.perf_counter()
    ref = W.compute_reference(
        workload, seed,
        os.path.join(WORK_DIR, f"ref-{workload.name}-{os.getpid()}"))
    path = W.save_reference(workload, seed, ref)
    print(f"wrote {os.path.relpath(path)} in {time.perf_counter() - t0:.1f} s")
    return 0


def smoke() -> int:
    """Tiny meshes: every workload's code path, untraced and traced; checks
    that every metric named in BENCHMARK.json is emitted and that traced
    self times sum to their root spans."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for name in (w["name"] for w in spec["workloads"]):
        workload = W.WORKLOADS[name](smoke=True)
        ref = (W.compute_reference(
                   workload, 0, os.path.join(WORK_DIR, f"smoke-ref-{name}"))
               if workload.uses_reference else None)
        b = Bench(workload, 0, 0.0, ref, f"smoke-{name}")
        for trace in (0, 1):
            res = measure_traced(b) if trace else measure(b)
            got = set(res["metrics"])
            if got != wanted[trace]:
                problems.append(
                    f"{name} trace={trace}: missing "
                    f"{sorted(wanted[trace] - got)}, extra "
                    f"{sorted(got - wanted[trace])}")
            if res["failed"]:
                print(f"# {name} trace={trace} checks (tiny mesh): "
                      f"{res['failures']}")
            print(f"# {name} trace={trace}: {len(got)} metrics")
            if trace and not res["spans_ok"]:
                problems.append(f"{name}: traced spans do not nest under "
                                f"their roots or do not sum to them")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-refs", action="store_true",
                        help="build the tight-tolerance reference for "
                             "--workload and --seed")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-mesh check of every code path and metric")
    args = parser.parse_args(argv)

    if args.smoke:
        return smoke()
    if args.workload not in W.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(W.WORKLOADS)}")
    workload = W.WORKLOADS[args.workload]()
    if args.build_refs:
        return build_refs(workload, args.seed)

    print(f"# machine: {json.dumps(machine_record(), sort_keys=True)}")
    print(f"# workload {workload.name}, seed {args.seed} "
          f"(variant {W.variant_of(args.seed)}), {args.seconds} s, "
          f"trace {args.trace}")
    try:
        ref = W.load_reference(workload, args.seed)
    except W.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    bench = Bench(workload, args.seed, args.seconds, ref,
                  f"{workload.name}-seed{args.seed}")
    res = measure_traced(bench) if args.trace else measure(bench)
    for f in res["failures"]:
        print(f"# FAILED: {f}")
    print(result_line(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
