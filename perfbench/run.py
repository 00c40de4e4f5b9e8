"""xbarsim benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload cli-flow --seed 0 --seconds 35 --trace 0

Workloads (see workloads.py, inputs for each pass come from --seed, see
inputs.py):

* cli-flow  - `xbarsim gen -> map -> simulate -> dse` through cli.main in a
  scratch directory: 64 clusters, <128,16,16,96,96>, `--node 16nm`, a
  96,112,128 P=Q grid. The only workload that writes and reads files.
  Known defects it carries: `--node 16nm` adds normalized path latencies to
  spike times in seconds (unit mix), and `routing_j` is 0 by construction.
* map-tight - assign_cluster + select_configuration per cluster, in memory:
  1000 planted clusters on <128,64,64,96,96> and six 64-cluster random
  networks on <128,32,32,96,96>, a quarter of the corpus per pass (every
  fourth cluster), so four passes cover it. Known defect: the mapper
  rejects some mappable random clusters (3 at the default seed); they
  count as failed operations.
* dse-grid  - sweep_pq of two 16-cluster networks over the 5x5 P,Q grid
  {64..128}^2 on <128,16,16>, select_tradeoff, sweep_nhnl on a 5x5 grid.

The inputs differ from pass to pass on cli-flow and dse-grid (a fresh
network per pass; dse-grid's share one size profile), so a run's medians
average over several inputs.

End-to-end metrics (--trace 0, nothing traced):

  setup_s      median of 3 to 15 set-ups (as many as fit in 2 s), each a
               fresh import of xbarsim and the input build; interpreter start and the numpy import are
               left out, as they are not the program's and are the noisiest
               part of start-up on a shared host
  wall_ref     median host time of one pass, in units of a reference kernel
               timed before every pass, at least five times and for at
               least 5 % of the previous pass (median of those samples)
  peak_rss_mb  peak resident set size of the process

wall_ref is a ratio rather than host seconds because the host is shared. On
the 2-vCPU machine this was tuned on, identical runs differed by up to 30 %
and the host ran 1.75x slower for minutes at a time; over such a swing the
median map-tight pass moved by 20 % in host seconds and by 6 % in reference
units. The kernel allocates nothing the garbage collector tracks. A
dict-and-sort kernel tracked the workloads better when timed alone, but
timed between passes it swung more than the passes did (run-to-run spread
0.35 against 0.17 for the cli-flow pass), likely with the garbage a pass
leaves behind.
Per-call latencies (assign_ms) and throughputs of single layers
varied by 25-35 % between runs on cli-flow, so they are per-layer metrics.
The raw median pass time is printed as wall_s and reported per layer as
pass.wall_s.

--trace 1 alternates an untraced and a traced pass on the same input and
prints the per-layer metrics: self time and call counts per layer from the
traced passes (every public function of the layer modules is wrapped),
inclusive command times and throughputs from the untraced ones, and
trace.overhead_s, the median traced-minus-untraced pass time. A layer that
a workload never calls reads 0 there. Spans are
written to perfbench/out/. Both modes print each pass's output digest;
a traced pass whose digest differs from its untraced twin is a failed
check.

The last stdout line is the JSON result: correct, attempted, failed,
metrics. attempted counts distinct operations (distinct inputs): map-tight
cycles over one corpus, at least once per run, and a traced pass repeats
its untraced twin, so a repeated input counts once, and giving another
result than before is a failed check. On map-tight, attempted and failed
thus depend on the seed, not on how many passes fit in --seconds. --tiny
shrinks every input for the smoke test.
"""

import os

# One caller, one thread: keep numpy's BLAS/OpenMP pools single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = (3, 15)  # least and most set-ups; more while they take under SETUP_BUDGET_S
SETUP_BUDGET_S = 2.0

REFERENCE_SAMPLES = 5    # least reference-kernel timings before every untraced pass
REFERENCE_SHARE = 0.05   # least reference time before a pass, as a share of the pass before

E2E_UNITS = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}

# per-layer metric -> unit; see layer_metrics for where each value comes from
LAYER_UNITS = {
    "pass.wall_s": "s", "pass.reference_ms": "ms",
    "cli.gen.s": "s", "cli.map.s": "s", "cli.simulate.s": "s", "cli.dse.s": "s",
    "workload.generate_synthetic.self_s": "s", "workload.save.self_s": "s",
    "workload.load.self_s": "s", "workload.bytes_written": "bytes",
    "workload.synapses": "count", "workload.spikes": "count",
    "clusters_per_s": "1/s", "assign_ms.p50": "ms", "assign_ms.p99": "ms",
    "mapper.assign_cluster.calls": "count", "mapper.assign_cluster.self_s": "s",
    "mapper.assign_cluster.failed": "count", "mapper.select_configuration.self_s": "s",
    "mapper.map_network.self_s": "s", "mapper.save_placement.self_s": "s",
    "mapper.load_placement.self_s": "s",
    "mapper.config.00": "count", "mapper.config.01": "count",
    "mapper.config.10": "count", "mapper.config.11": "count",
    "techmodel.path_latency.calls": "count", "techmodel.path_latency.self_s": "s",
    "techmodel.line_tap_delay.calls": "count",
    "crossbar.calls": "count", "crossbar.self_s": "s",
    "simulate.propagate.self_s": "s", "simulate.neuron_isi_distortion.self_s": "s",
    "simulate.arrival_events": "count", "simulate.synapse_events_per_s": "1/s",
    "simulate.latency_stats.self_s": "s", "simulate.corner_extremes.calls": "count",
    "simulate.corner_extremes.self_s": "s", "simulate.corner_extremes.distinct_ratio": "ratio",
    "simulate.energy_report.self_s": "s", "simulate.activity_from_trains.self_s": "s",
    "dse.sweep_pq.self_s": "s", "dse.map_network.calls": "count",
    "dse.distinct_mapping_ratio": "ratio", "dse.points": "count",
    "dse.infeasible_points": "count", "dse.grid_points_per_s": "1/s",
    "dse.sweep_nhnl.self_s": "s", "dse.select_tradeoff.self_s": "s",
    "reports.write.self_s": "s", "reports.bytes_written": "bytes",
    "failed_fraction": "fraction", "expanded_fraction": "fraction",
    "placed_latency_ratio": "ratio",
    "trace.overhead_s": "s", "trace.spans": "count",
}

# per-layer self time summed over several public functions
SELF_GROUPS = {
    "workload.save.self_s": ("workload.save_network", "workload.network_to_json", "workload.save_spikes"),
    "workload.load.self_s": ("workload.load_network", "workload.network_from_json", "workload.load_spikes"),
    "mapper.save_placement.self_s": ("mapper.save_placement", "mapper.placement_to_json"),
    "mapper.load_placement.self_s": ("mapper.load_placement", "mapper.placement_from_json"),
}


def reference_kernel() -> float:
    """A fixed mix of interpreter work and small-array numpy work, the two
    kinds of work xbarsim does; its time tracks how fast the host runs now."""
    total = 0
    for i in range(60_000):
        total += i * i % 7
    a = np.arange(2048.0)
    for _ in range(150):
        a = np.sqrt(a * a + 1.0)
    return total + float(a[0])


def set_up(args, workdir):
    """One set-up: a fresh import of xbarsim (from this checkout's src/, never
    from elsewhere) and of the benchmark modules, then the input build.

    Returns (seconds, the workload, the spans module)."""
    for name in list(sys.modules):
        if name in ("inputs", "spans", "workloads") or name.split(".")[0] == "xbarsim":
            del sys.modules[name]
    t0 = perf_counter()
    import xbarsim
    import xbarsim.cli  # noqa: F401  (cli is not imported by the package)
    if not Path(xbarsim.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"xbarsim imported from {xbarsim.__file__}, not {ROOT / 'src'}")
    import spans
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    workload.setup()
    return perf_counter() - t0, workload, spans


def provenance(seed: int, loadavg) -> dict:
    from inputs import DEFAULT_SEED, HELD_OUT_SEED
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu,
            "commit": git_commit(), "seed": seed, "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED, "loadavg": loadavg}


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Timer:
    """Times one pass; with a recorder, records exactly that pass."""

    def __init__(self, recorder=None, run_id: int = 0):
        self.recorder, self.run_id = recorder, run_id

    def __enter__(self):
        # The clock brackets the pass span, so traced self times never exceed it.
        self.t0 = perf_counter()
        if self.recorder:
            self.recorder.run_id = self.run_id
            self.span = self.recorder.span("bench.pass")
            self.span.__enter__()
            self.recorder.active = True
        return self

    def __exit__(self, *exc):
        if self.recorder:
            self.recorder.active = False
            self.span.__exit__(*exc)
        self.wall = perf_counter() - self.t0
        return False


def layer_hooks(recorder, state: dict) -> None:
    """Counts taken at layer boundaries while the traced passes run."""
    state.update(configs={}, arrivals=0, extremes={}, mappings={})

    def select_configuration(args, config, parent):
        state["configs"][config.name] = state["configs"].get(config.name, 0) + 1

    def propagate(args, arrivals, parent):
        state["arrivals"] += sum(len(a.times) for a in arrivals)

    def corner_extremes(args, result, parent):
        state["extremes"].setdefault(recorder.run_id, []).append(args)

    def map_network(args, result, parent):
        if parent == "dse.sweep_pq":
            spec = args[1].spec
            state["mappings"].setdefault(recorder.run_id, []).append(
                (id(args[0]), spec.n, spec.n_h, spec.n_l))

    recorder.hooks.update({"mapper.select_configuration": select_configuration,
                           "simulate.propagate": propagate,
                           "simulate.corner_extremes": corner_extremes,
                           "mapper.map_network": map_network})


def _distinct_ratio(per_pass: dict):
    calls = sum(len(v) for v in per_pass.values())
    return sum(len(set(v)) for v in per_pass.values()) / calls if calls else 0.0


def layer_metrics(recorder, state: dict, plain, traced) -> dict:
    """Per-layer metrics, per pass: traced self times and counts, untraced timings."""
    summary = recorder.summary()
    n = len(traced)

    def calls(name):
        return summary.get(name, (0, 0, 0.0, 0.0))[0] / n

    def self_s(*names):
        return sum(summary.get(name, (0, 0, 0.0, 0.0))[2] for name in names) / n

    def layer(prefix):
        return [name for name in summary if name.startswith(prefix + ".")]

    def median_timing(key):
        values = [p.timings[key] for p in plain if key in p.timings]
        return statistics.median(values) if values else 0.0

    def mean_of(attr, key):
        return statistics.fmean(getattr(p, attr).get(key, 0) for p in plain)

    m = {f"cli.{cmd}.s": median_timing(f"cli.{cmd}.s") for cmd in ("gen", "map", "simulate", "dse")}
    m["workload.generate_synthetic.self_s"] = self_s("workload.generate_synthetic")
    m.update({key: self_s(*names) for key, names in SELF_GROUPS.items()})
    for key in ("workload.bytes_written", "workload.synapses", "workload.spikes",
                "reports.bytes_written", "dse.points", "dse.infeasible_points"):
        m[key] = mean_of("counts", key)
    assign_ms = recorder.durations("mapper.assign_cluster") * 1e3
    mapped_s = sum(summary.get(name, (0, 0, 0.0, 0.0))[3]
                   for name in ("mapper.assign_cluster", "mapper.select_configuration"))
    m["clusters_per_s"] = len(assign_ms) / mapped_s if mapped_s else 0.0
    m["assign_ms.p50"], m["assign_ms.p99"] = (np.percentile(assign_ms, [50, 99]).tolist()
                                              if len(assign_ms) else (0.0, 0.0))
    m["mapper.assign_cluster.calls"] = calls("mapper.assign_cluster")
    m["mapper.assign_cluster.self_s"] = self_s("mapper.assign_cluster")
    m["mapper.assign_cluster.failed"] = summary.get("mapper.assign_cluster", (0, 0))[1] / n
    for name in ("select_configuration", "map_network"):
        m[f"mapper.{name}.self_s"] = self_s(f"mapper.{name}")
    for config in ("00", "01", "10", "11"):
        m[f"mapper.config.{config}"] = state["configs"].get(config, 0) / n
    m["techmodel.path_latency.calls"] = calls("techmodel.path_latency")
    m["techmodel.path_latency.self_s"] = self_s("techmodel.path_latency")
    m["techmodel.line_tap_delay.calls"] = calls("techmodel.line_tap_delay")
    m["crossbar.calls"] = sum(calls(name) for name in layer("crossbar"))
    m["crossbar.self_s"] = self_s(*layer("crossbar"))
    for name in ("propagate", "neuron_isi_distortion", "latency_stats", "corner_extremes",
                 "energy_report", "activity_from_trains"):
        m[f"simulate.{name}.self_s"] = self_s(f"simulate.{name}")
    m["simulate.arrival_events"] = state["arrivals"] / n
    m["simulate.synapse_events_per_s"] = median_timing("simulate.synapse_events_per_s")
    m["simulate.corner_extremes.calls"] = calls("simulate.corner_extremes")
    m["simulate.corner_extremes.distinct_ratio"] = _distinct_ratio(state["extremes"])
    for name in ("sweep_pq", "sweep_nhnl", "select_tradeoff"):
        m[f"dse.{name}.self_s"] = self_s(f"dse.{name}")
    m["dse.map_network.calls"] = sum(len(v) for v in state["mappings"].values()) / n
    m["dse.distinct_mapping_ratio"] = _distinct_ratio(state["mappings"])
    m["dse.grid_points_per_s"] = median_timing("dse.grid_points_per_s")
    m["reports.write.self_s"] = self_s(*[name for name in layer("reports")
                                         if name.startswith("reports.write_")])
    for key in ("expanded_fraction", "placed_latency_ratio"):
        m[key] = mean_of("design", key)
    m["trace.overhead_s"] = statistics.median(t.wall_s - p.wall_s for p, t in zip(plain, traced))
    m["trace.spans"] = sum(s[0] for s in summary.values()) / n
    return m


def tally(passes) -> tuple[int, int, list]:
    """(attempted, failed, problems) over distinct operations: an operation
    whose input comes back must give the same result as the first time."""
    first, failed, problems = {}, set(), []
    for p in passes:
        for key, outcome in p.outcomes.items():
            if key not in first:
                first[key] = outcome
            elif outcome != first[key] and key not in failed:
                problems.append(f"operation {key}: another result for the same input")
            if outcome[0] or outcome != first[key]:
                failed.add(key)
    return len(first), len(failed), problems


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli-flow", "map-tight", "dse-grid"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        builds = []
        while len(builds) < SETUP_REPEATS[0] or (
                len(builds) < SETUP_REPEATS[1] and sum(builds) < SETUP_BUDGET_S):
            try:
                seconds, workload, tracing = set_up(args, workdir)
            except ImportError as exc:
                print(f"error: cannot import xbarsim from {ROOT / 'src'}: {exc}", file=sys.stderr)
                return 2
            builds.append(seconds)
        setup_s = statistics.median(builds)
        prov = provenance(args.seed, loadavg)
        print("provenance " + json.dumps(prov))

        recorder = tracing.Recorder()  # traced passes: every public layer function
        state = {}
        layer_hooks(recorder, state)
        plain, traced, reference_s = [], [], []
        t_start = perf_counter()
        while True:
            k = len(plain)
            budget = REFERENCE_SHARE * plain[-1].wall_s if plain else 0.0
            samples = []
            while len(samples) < REFERENCE_SAMPLES or sum(samples) < budget:
                t0 = perf_counter()
                reference_kernel()
                samples.append(perf_counter() - t0)
            reference_s += samples
            plain.append(workload.run_pass(k, Timer()))
            if args.trace:
                restore = tracing.install(recorder)
                try:
                    traced.append(workload.run_pass(k, Timer(recorder, k)))
                finally:
                    restore()
            elapsed = perf_counter() - t_start
            if k + 1 >= workload.min_passes and elapsed + elapsed / (k + 1) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops, failed, problems = tally(plain + traced)
    problems += [p for r in plain + traced for p in r.problems]
    for k, (p, t) in enumerate(zip(plain, traced)):
        if p.digest != t.digest:
            problems.append(f"pass {k}: digest {p.digest} untraced, {t.digest} traced")
    for k, p in enumerate(plain):
        twin = f", traced digest {traced[k].digest} ({traced[k].wall_s:.4f} s)" if traced else ""
        print(f"pass {k}: {p.wall_s:.4f} s, {p.ops} ops, {p.failed} failed, digest {p.digest}{twin}")
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    print(f"checks: {len(problems)} problems in {len(plain) + len(traced)} passes")

    wall_s = statistics.median(p.wall_s for p in plain)
    reference = statistics.median(reference_s)
    print(f"wall_s = {wall_s:.6g} s (median of {len(plain)} passes); reference kernel "
          f"{reference * 1e3:.4g} ms (median of {len(reference_s)})")
    e2e = {
        "setup_s": setup_s,
        "wall_ref": wall_s / reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for key in ("simulate.synapse_events_per_s", "dse.grid_points_per_s"):
        values = [p.timings[key] for p in plain if key in p.timings]
        if values:
            print(f"{key.split('.', 1)[1]} = {statistics.median(values):.6g} 1/s (median of {len(values)})")
    print(f"failed_fraction = {failed / ops:.6g} ({failed} of {ops} distinct ops)")
    for key in ("expanded_fraction", "placed_latency_ratio", "routing_j", "knee", "infeasible"):
        values = [p.design[key] for p in plain if key in p.design]
        if values:
            print(f"{key} (design, pass 0) = {values[0]}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": prov, "setup_builds_s": builds, "passes": len(plain),
              "digests": [p.digest for p in plain], "problems": problems,
              "end_to_end": e2e}
    if args.trace:
        metrics = {"pass.wall_s": wall_s, "pass.reference_ms": reference * 1e3}
        metrics.update(layer_metrics(recorder, state, plain, traced))
        metrics["failed_fraction"] = failed / ops
        layer_self = sum(v[2] for name, v in recorder.summary().items() if name != "bench.pass")
        record.update(per_layer=metrics, traced_digests=[t.digest for t in traced],
                      traced_wall_s=sum(t.wall_s for t in traced), traced_self_s=layer_self)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        recorder.save(spans_file)
        print(f"spans -> {spans_file.relative_to(ROOT)}; traced self time {layer_self:.4f} s "
              f"of {record['traced_wall_s']:.4f} s traced wall")
        units = LAYER_UNITS
    else:
        metrics = e2e
        units = E2E_UNITS
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    print(json.dumps({"correct": not problems, "attempted": ops, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
