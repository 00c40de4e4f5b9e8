"""The three benchmark workloads.

Each is a closed loop with one caller: a single thread makes the next call
into xbarsim only after the previous one returned. `run_pass(k, timer)`
prepares pass k's inputs, makes the timed calls inside `with timer:`, then
checks the outputs and returns a PassResult. Checks never run inside the
timer, and a failed check is never skipped: it counts as a failed
operation and is listed in `problems`.

A pass reports one outcome per operation, keyed by the operation's input:
a CLI command of pass k, a cluster of the map-tight corpus, a grid point
of pass k. A key that comes back in a later pass (map-tight cycles over
one corpus; a traced pass repeats its untraced twin) is the same input
mapped again, so the run counts it once and checks that it gave the same
result (see run.tally).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from xbarsim import cli, dse, mapper
from xbarsim.crossbar import CrossbarSpec, save_spec
from xbarsim.errors import Infeasible, NoFeasibleKnee, XbarError
from xbarsim.techmodel import preset

from inputs import (
    cli_gen_seed,
    dse_network_seeds,
    planted_corpus,
    random_corpus_seeds,
    stratified_network,
    synthetic_network,
)


@dataclass
class PassResult:
    wall_s: float
    outcomes: dict           # operation key -> (failed or failed a check, result signature)
    problems: list           # check failures, human-readable
    digest: str              # hash of the simulated outputs
    timings: dict = field(default_factory=dict)  # command seconds and throughputs, host time
    counts: dict = field(default_factory=dict)   # input and output sizes
    design: dict = field(default_factory=dict)   # simulated (design) results

    @property
    def ops(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(bad for bad, _ in self.outcomes.values())


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


# configuration name -> (rows, cols) of its active array; name is "<wl bit><bl bit>"
def _config_dims(name: str, spec) -> tuple[int, int]:
    rows = spec.n if name[1] == "1" else spec.p
    cols = spec.n if name[0] == "1" else spec.q
    return rows, cols


def _legal_configs(spec) -> tuple[str, ...]:
    return ("00", "11") if spec.control.value == "single" else ("00", "01", "10", "11")


def audit_assignment(cluster, spec, assignment, config_name: str) -> list[str]:
    """Independent oracle: injective, region-legal, contained, cheapest shape."""
    where = f"cluster {cluster.id}"
    problems = []
    rows = [assignment.row_of_pre.get(nid, -1) for nid in cluster.pre_neurons]
    cols = [assignment.col_of_post.get(nid, -1) for nid in cluster.post_neurons]
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        problems.append(f"{where}: neuron seats not injective")
    if min(rows + cols) < 0 or max(rows + cols) >= spec.n:
        problems.append(f"{where}: neuron seated outside the crossbar")
    cells = np.array(assignment.cells, dtype=int).reshape(-1, 2)
    pre = np.array([s.pre for s in cluster.synapses])
    post = np.array([s.post for s in cluster.synapses])
    if len(cells) != len(pre) or not (
            np.array_equal(cells[:, 0], np.array(rows)[pre])
            and np.array_equal(cells[:, 1], np.array(cols)[post])):
        return problems + [f"{where}: cells disagree with neuron seats"]
    if len({(int(r), int(c)) for r, c in cells}) != len(cells):
        problems.append(f"{where}: synapse cells not injective")
    states = np.array([s.state for s in cluster.synapses])
    r, c = cells[:, 0], cells[:, 1]
    in_a = (r < spec.n_h) & (c < spec.n_h)
    in_b = (r >= spec.n - spec.n_l) & (c >= spec.n - spec.n_l)
    if np.any(in_a & (states != "HRS")) or np.any(in_b & (states != "LRS1")):
        problems.append(f"{where}: state forbidden by its cell's region")
    max_r, max_c = int(r.max()), int(c.max())
    fits = {name: _config_dims(name, spec) for name in _legal_configs(spec)}
    fits = {name: d[0] * d[1] for name, d in fits.items() if max_r < d[0] and max_c < d[1]}
    if config_name not in fits:
        problems.append(f"{where}: config '{config_name}' does not contain the cells")
    elif fits[config_name] > min(fits.values()):
        problems.append(f"{where}: config '{config_name}' is not the cheapest containing shape")
    return problems


class CliFlow:
    """The README's scripted flow through xbarsim.cli.main, in-process."""

    name = "cli-flow"
    min_passes = 1

    def __init__(self, seed: int, tiny: bool, workdir):
        self.seed = seed
        self.clusters = 4 if tiny else 64
        self.sizes = "8:40" if tiny else "8:120"
        self.grid = (96, 112, 128)
        self.dir = workdir / "cli-flow"

    def setup(self):
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        save_spec(CrossbarSpec(n=128, n_h=16, n_l=16, p=96, q=96), self.dir / "spec.json")
        save_spec(CrossbarSpec(n=128), self.dir / "base_spec.json")

    def run_pass(self, k: int, timer) -> PassResult:
        d = self.dir / f"pass{k}"
        d.mkdir()
        net, spikes, place = d / "net.json", d / "spikes.csv", d / "placement.json"
        reports, sweep = d / "reports", d / "sweep.csv"
        commands = {
            "gen": ["gen", "--clusters", str(self.clusters), "--pre", self.sizes, "--post", self.sizes,
                    "--density", "0.12", "--seed", str(cli_gen_seed(self.seed, k)),
                    "--out-network", str(net), "--out-spikes", str(spikes)],
            "map": ["map", "--network", str(net), "--spec", str(self.dir / "spec.json"),
                    "--out", str(place)],
            "simulate": ["simulate", "--placement", str(place), "--spikes", str(spikes),
                         "--duration", "1.0", "--node", "16nm", "--out", str(reports)],
            "dse": ["dse", "--networks", str(net), "--spec", str(self.dir / "base_spec.json"),
                    "--grid", ",".join(map(str, self.grid)), "--out", str(sweep)],
        }
        codes, times, stdout = {}, {}, {}
        with timer:
            for cmd, argv in commands.items():
                buf = io.StringIO()
                t0 = perf_counter()
                with contextlib.redirect_stdout(buf):
                    codes[cmd] = cli.main(argv)
                times[cmd] = perf_counter() - t0
                stdout[cmd] = buf.getvalue()

        problems = {cmd: [] if rc == 0 else [f"{cmd}: exit code {rc}"] for cmd, rc in codes.items()}
        result = PassResult(wall_s=timer.wall, outcomes={}, problems=[], digest="",
                            timings={f"cli.{cmd}.s": t for cmd, t in times.items()})
        parts = []
        try:
            spike_counts = {}
            with open(spikes, newline="") as fh:
                for row in list(csv.reader(fh))[1:]:
                    spike_counts[int(row[0])] = spike_counts.get(int(row[0]), 0) + 1
            placement = mapper.load_placement(place)
            problems["map"] += mapper.check_placement(placement)
            histogram = {name: 0 for name in ("00", "01", "10", "11")}
            for xb in placement.crossbars:
                histogram[xb.config.name] += 1
            events = sum(spike_counts.get(s.pre, 0) for xb in placement.crossbars for s in xb.synapses)
            result.counts.update({
                "workload.synapses": sum(len(xb.synapses) for xb in placement.crossbars),
                "workload.spikes": sum(spike_counts.values()),
                "workload.bytes_written": net.stat().st_size + spikes.stat().st_size,
            })
            result.timings["simulate.synapse_events_per_s"] = events / times["simulate"]
            result.design["expanded_fraction"] = histogram["11"] / len(placement.crossbars)
            parts += [place.read_bytes(), histogram]
        except (OSError, ValueError, KeyError, IndexError, XbarError) as exc:
            problems["map"].append(f"map: output unreadable: {exc!r}")
        try:
            with open(reports / "isi.csv", newline="") as fh:
                isi = [float(row[1]) for row in list(csv.reader(fh))[1:]]
            if not all(math.isfinite(v) and v >= 0 for v in isi):
                problems["simulate"].append("simulate: ISI distortion not finite and >= 0")
            report = json.loads((reports / "report.json").read_text())
            result.design["placed_latency_ratio"] = report["latency"]["aggregate"]["ratio"]
            result.design["routing_j"] = report["energy"]["routing_j"]
            files = [reports / f for f in ("latency.csv", "energy.csv", "isi.csv", "report.json")]
            result.counts["reports.bytes_written"] = sum(f.stat().st_size for f in files + [sweep])
            parts += [f.read_bytes() for f in files]
        except (OSError, ValueError, KeyError, IndexError, XbarError) as exc:
            problems["simulate"].append(f"simulate: reports unreadable: {exc!r}")
        try:
            with open(sweep, newline="") as fh:
                rows = list(csv.DictReader(fh))
            full = [r for r in rows if int(r["P"]) == int(r["Q"]) == 128]
            if len(full) != 1 or any(float(full[0][c]) != 1.0 for c in
                                     ("norm_energy", "norm_latency", "norm_variation")):
                problems["dse"].append("dse: the (128,128) point does not normalize to 1.0")
            knee = [line for line in stdout["dse"].splitlines() if line.startswith("selected")]
            result.design["knee"] = knee[0] if knee else None
            parts += [sweep.read_bytes(), knee]
        except (OSError, ValueError, KeyError, XbarError) as exc:
            problems["dse"].append(f"dse: sweep table unreadable: {exc!r}")

        result.problems = [p for cmd in commands for p in problems[cmd]]
        result.outcomes = {(k, cmd): (bool(problems[cmd]), None) for cmd in commands}
        result.digest = _digest(parts)
        shutil.rmtree(d)
        return result


class MapTight:
    """assign_cluster then select_configuration per cluster, in memory.

    Pass k maps every CHUNKS-th cluster of the corpus starting at k mod
    CHUNKS, so passes are short and alike and CHUNKS passes cover it all.
    A run makes at least CHUNKS passes, so it attempts every cluster.
    """

    name = "map-tight"
    CHUNKS = 4
    min_passes = CHUNKS

    def __init__(self, seed: int, tiny: bool, workdir):
        self.seed = seed
        self.planted_count = 20 if tiny else 1000
        self.random_networks, self.random_clusters = (1, 8) if tiny else (6, 64)
        self.planted_spec = CrossbarSpec(n=128, n_h=64, n_l=64, p=96, q=96)
        self.random_spec = CrossbarSpec(n=128, n_h=32, n_l=32, p=96, q=96)

    def setup(self):
        planted = planted_corpus(777 + self.seed, self.planted_count, self.planted_spec)
        random = [c for s in random_corpus_seeds(self.seed, self.random_networks)
                  for c in synthetic_network(s, self.random_clusters).clusters]
        self.items = [(c, self.planted_spec) for c in planted] + [(c, self.random_spec) for c in random]

    def run_pass(self, k: int, timer) -> PassResult:
        start = k % self.CHUNKS
        items = self.items[start::self.CHUNKS]
        results = []
        with timer:
            for cluster, spec in items:
                try:
                    assignment = mapper.assign_cluster(cluster, spec)
                except Infeasible:
                    results.append(None)
                    continue
                results.append((assignment, mapper.select_configuration(assignment, spec)))

        problems, outcomes, parts = [], {}, []
        histogram = {name: 0 for name in ("00", "01", "10", "11")}
        for i, ((cluster, spec), res) in enumerate(zip(items, results)):
            if res is None:
                part, found = (cluster.id, "infeasible"), [None]
            else:
                assignment, config = res
                found = audit_assignment(cluster, spec, assignment, config.name)
                problems += found
                histogram[config.name] += 1
                part = (sorted(assignment.row_of_pre.items()), sorted(assignment.col_of_post.items()),
                        config.name)
            outcomes[start + i * self.CHUNKS] = (bool(found), _digest([part]))
            parts.append(part)
        mapped = sum(histogram.values())
        result = PassResult(wall_s=timer.wall, outcomes=outcomes, problems=problems,
                            digest=_digest(parts))
        result.design["expanded_fraction"] = histogram["11"] / mapped if mapped else 0.0
        result.design["infeasible"] = sum(1 for r in results if r is None)
        return result


class DseGrid:
    """Full P x Q sweep of two networks, cross-workload knee, region sweep.

    Its operations are the grid points of the sweep plus one for the knee
    selection and region sweep together."""

    name = "dse-grid"
    min_passes = 1
    values = (64, 80, 96, 112, 128)

    def __init__(self, seed: int, tiny: bool, workdir):
        self.seed = seed
        self.clusters = 4 if tiny else 16  # 32 made 8 s passes, too few per run for a steady median
        self.tech = preset("16nm")
        self.base = CrossbarSpec(n=128, n_h=16, n_l=16)
        self.region_spec = CrossbarSpec(n=128)
        self.grid = [(p, q) for p in self.values for q in self.values]
        self.region_grid = (0, 8, 16, 32, 64)

    def _networks(self, k: int):
        return [stratified_network(s, self.clusters) for s in dse_network_seeds(self.seed, k)]

    def setup(self):
        self.first = self._networks(0)

    def run_pass(self, k: int, timer) -> PassResult:
        networks = self.first if k == 0 else self._networks(k)
        seeds = dse_network_seeds(self.seed, k)
        names = [f"net{s}" for s in seeds]
        knee = None
        with timer:
            t0 = perf_counter()
            sweeps = dse.sweep_pq(networks, self.base, self.tech, self.grid, seed=seeds[0], names=names)
            sweep_s = perf_counter() - t0
            with contextlib.suppress(NoFeasibleKnee):
                knee = dse.select_tradeoff(sweeps)
            table = dse.sweep_nhnl(self.region_spec, self.tech, self.region_grid, self.region_grid)

        problems, outcomes = [], {}
        points = [pt for pts in sweeps for pt in pts]
        for pt in points:
            values = (pt.norm_energy, pt.norm_latency, pt.norm_variation, pt.expanded_fraction)
            broken = pt.feasible and (not all(math.isfinite(v) for v in values) or
                                      (pt.p, pt.q) == (128, 128) and values != (1.0, 1.0, 1.0, 0.0))
            if broken:
                problems.append(f"{pt.network} ({pt.p},{pt.q}): {values} not finite or, at the "
                                f"unpartitioned point, not normalized to 1.0")
            outcomes[(k, pt.network, pt.p, pt.q)] = (not pt.feasible or broken,
                                                      _digest([tuple(vars(pt).values())]))
        extra = []
        if knee is None or knee not in self.grid:
            extra.append(f"knee {knee!r} is not a grid point")
        if table.get((0, 0)) != 1.0 or not all(math.isfinite(v) and v > 0 for v in table.values()):
            extra.append("region sweep is not normalized to the region-free crossbar")
        problems += extra
        outcomes[(k, "select_tradeoff+sweep_nhnl")] = (bool(extra), _digest([knee, sorted(table.items())]))
        feasible = [pt for pt in points if pt.feasible]
        result = PassResult(wall_s=timer.wall, outcomes=outcomes, problems=problems,
                            digest=_digest([[tuple(vars(pt).values()) for pt in points], knee,
                                            sorted(table.items())]))
        result.timings["dse.grid_points_per_s"] = len(points) / sweep_s
        result.counts.update({"dse.points": len(points),
                              "dse.infeasible_points": len(points) - len(feasible)})
        result.design["expanded_fraction"] = (sum(pt.expanded_fraction for pt in feasible) / len(feasible)
                                              if feasible else 0.0)
        result.design["knee"] = knee
        return result


WORKLOADS = {w.name: w for w in (CliFlow, MapTight, DseGrid)}
