"""Command-line surface: analyze | gen | map | simulate | dse.

Exit codes: 0 success, 2 usage/input error, 3 domain infeasibility.
Summaries go to stdout; tables go to the requested output files.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

from . import __version__
from .analysis import cost_per_bit, die_area_overhead, total_bits
from .crossbar import (
    ControlMode,
    Granularity,
    isolation_transistor_count,
    load_spec,
    synapse_utilization,
)
from .dse import select_tradeoff, sweep_pq
from .errors import (
    Infeasible,
    InvalidGrid,
    InvalidParams,
    NoFeasibleKnee,
    ParseError,
    ValidationError,
    XbarError,
)
from .mapper import Hardware, load_placement, map_network, save_placement
from .reports import (
    write_analysis_csv,
    write_energy_csv,
    write_isi_csv,
    write_latency_csv,
    write_simulation_json,
    write_sweep_csv,
)
from .simulate import activity_from_trains, energy_report, latency_stats, neuron_isi_distortion
from .techmodel import PRESETS, TechnologyParams, load_tech
from .workload import GenParams, generate_synthetic, load_network, load_spikes, save_network, save_spikes

TECH_DIR_ENV = "XBARSIM_TECH_DIR"

_USAGE_ERRORS = (OSError, ParseError, ValidationError, InvalidParams, InvalidGrid)


def resolve_tech(label_or_path: str) -> TechnologyParams:
    """Bundled preset label, explicit path, or file under $XBARSIM_TECH_DIR."""
    if label_or_path in PRESETS:
        return PRESETS[label_or_path]
    p = Path(label_or_path)
    if p.exists():
        return load_tech(p)
    env = os.environ.get(TECH_DIR_ENV)
    if env:
        for cand in (Path(env) / label_or_path, Path(env) / f"{label_or_path}.json"):
            if cand.exists():
                return load_tech(cand)
    raise ValidationError(f"unknown tech preset {label_or_path!r} "
                          f"(bundled: {sorted(PRESETS)}; set {TECH_DIR_ENV} for custom files)")


def cmd_analyze(args) -> int:
    tech = resolve_tech(args.node)
    f_nm = tech.feature_size_nm
    ns = list(args.sweep_n or [args.n])
    rows = []
    for n in ns:
        overhead = die_area_overhead(n)
        rows.append({
            "n": n, "F": f_nm,
            "cost_per_bit": cost_per_bit(n, f_nm),
            "total_bits": total_bits(n),
            "height_pct": overhead["height_pct"],
            "width_pct": overhead["width_pct"],
            "iso_count_fine": isolation_transistor_count(n, Granularity.FINE) if n >= 2 else 0,
            "iso_count_coarse": isolation_transistor_count(n, Granularity.COARSE) if n >= 2 else 0,
        })
    text = write_analysis_csv(rows, args.out)
    if args.out:
        print(f"analysis table ({len(rows)} rows) -> {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_gen(args) -> int:
    params = GenParams(
        clusters=args.clusters,
        pre_range=args.pre,
        post_range=args.post,
        density=args.density,
        state_mix=args.mix,
        spike_rate=args.rate,
        duration=args.duration,
        seed=args.seed,
    )
    network, trains = generate_synthetic(params)
    save_network(network, args.out_network)
    save_spikes(trains, args.out_spikes)
    synapses = sum(len(c.synapses) for c in network.clusters)
    spikes = sum(len(t.times) for t in trains)
    print(f"{len(network.clusters)} clusters, {synapses} synapses, {spikes} spikes "
          f"-> {args.out_network}, {args.out_spikes}")
    return 0


# argparse types: a ValueError becomes a usage error (exit 2) naming the option

def _lo_hi(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return (int(lo), int(hi)) if hi else (int(lo), int(lo))


def _sweep_range(text: str) -> range:
    a, b, step = (int(x) for x in text.split(":"))
    if a < 1 or step <= 0 or b < a:
        raise ValueError(text)
    return range(a, b + 1, step)


def _state_mix(text: str) -> dict:
    pairs = (part.partition("=") for part in text.split(","))
    return {label.strip(): float(frac) for label, _, frac in pairs}


def _int_set(text: str) -> list[int]:
    return sorted({int(x) for x in text.split(",")})


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(text)
    return value


def _non_negative_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(text)
    return value


def cmd_map(args) -> int:
    network = load_network(args.network)
    spec = load_spec(args.spec)
    if args.control:
        spec = dataclasses.replace(spec, control=ControlMode(args.control))
    count = args.crossbars or len(network.clusters)
    hardware = Hardware(crossbar_count=count, spec=spec, tech=resolve_tech(args.node))
    placement = map_network(network, hardware)
    save_placement(placement, args.out)

    histogram: dict[str, int] = {}
    for xb in placement.crossbars:
        histogram[xb.config.name] = histogram.get(xb.config.name, 0) + 1
    print(f"placement -> {args.out}")
    for xb in placement.crossbars:
        util = synapse_utilization(len(xb.synapses), spec.n)
        print(f"  crossbar {xb.crossbar_id}: cluster {xb.cluster_id}, config '{xb.config.name}', "
              f"utilization {100 * util:.5g}%")
    print("config histogram: " + ", ".join(f"'{k}'={histogram[k]}" for k in sorted(histogram)))
    return 0


def cmd_simulate(args) -> int:
    placement = load_placement(args.placement)
    trains = load_spikes(args.spikes)
    tech = resolve_tech(args.node)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    latency = latency_stats(placement, tech)
    activity = activity_from_trains(trains, placement.routes, args.duration)
    energy = energy_report(placement, activity, tech)
    distortions = neuron_isi_distortion(placement, trains, tech)

    write_latency_csv(latency, out / "latency.csv")
    write_energy_csv(energy, out / "energy.csv")
    write_isi_csv(distortions, out / "isi.csv")
    write_simulation_json(latency, energy, distortions, out / "report.json")
    agg = latency.aggregate
    print(f"reports -> {out}")
    print(f"latency: best {agg.best:.6g}, worst {agg.worst:.6g}, mean {agg.mean:.6g} "
          f"(diff {agg.diff:.6g}, ratio {agg.ratio:.6g})")
    print(f"energy: total {energy.total_j:.6g} J "
          f"(static {energy.static_j:.6g}, spikes {energy.spike_j:.6g}, "
          f"routing {energy.routing_j:.6g}, access {energy.access_overhead_j:.6g})")
    return 0


def cmd_dse(args) -> int:
    networks = [load_network(p) for p in args.networks]
    names = [Path(p).stem for p in args.networks]
    spec = load_spec(args.spec)
    tech = resolve_tech(args.node)
    if args.full_grid:
        grid = [(p, q) for p in args.grid for q in args.grid]
    else:
        grid = [(v, v) for v in args.grid]
    sweeps = sweep_pq(networks, spec, tech, grid, spike_rate=args.rate,
                      duration=args.duration, seed=args.seed, names=names)
    write_sweep_csv(sweeps, args.out)
    p_star, q_star = select_tradeoff(sweeps, latency_tolerance=args.tolerance)
    print(f"sweep table -> {args.out}")
    print(f"selected P={p_star} Q={q_star}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xbarsim",
                                     description="NVM crossbar PE modeling and mapping toolchain")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="cost-per-bit, capacity, and die-area table")
    dims = p.add_mutually_exclusive_group(required=True)
    dims.add_argument("--n", type=_positive_int, help="crossbar dimension")
    dims.add_argument("--sweep-n", type=_sweep_range, help="dimension sweep a:b:step (inclusive)")
    p.add_argument("--node", required=True, help="tech preset label or JSON path")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gen", help="generate a synthetic workload")
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--pre", type=_lo_hi, default="4:32", help="pre-neuron count range LO:HI")
    p.add_argument("--post", type=_lo_hi, default="4:32", help="post-neuron count range LO:HI")
    p.add_argument("--density", type=float, default=0.2)
    p.add_argument("--mix", type=_state_mix, default="HRS=0.25,LRS1=0.25,LRS2=0.25,LRS3=0.25",
                   help="state mix, e.g. HRS=0.5,LRS1=0.5")
    p.add_argument("--rate", type=_non_negative_float, default=30.0, help="spike rate, Hz")
    p.add_argument("--duration", type=_positive_float, default=1.0, help="trace duration, s")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-network", required=True)
    p.add_argument("--out-spikes", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("map", help="place a network onto crossbars")
    p.add_argument("--network", required=True)
    p.add_argument("--spec", required=True, help="crossbar spec JSON")
    p.add_argument("--control", choices=["double", "single"], help="override control mode")
    p.add_argument("--crossbars", type=_positive_int, help="crossbar count (default: one per cluster)")
    p.add_argument("--node", default="16nm")
    p.add_argument("--out", required=True, help="placement JSON output")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("simulate", help="evaluate a placement under spike traces")
    p.add_argument("--placement", required=True)
    p.add_argument("--spikes", required=True)
    p.add_argument("--duration", type=_positive_float, required=True, help="observation window, s")
    p.add_argument("--node", default="16nm")
    p.add_argument("--out", required=True, help="report output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dse", help="P/Q partition sweep and tradeoff selection")
    p.add_argument("--networks", nargs="+", required=True)
    p.add_argument("--spec", required=True, help="base crossbar spec JSON")
    p.add_argument("--grid", type=_int_set, required=True,
                   help="comma-separated P=Q values, e.g. 64,96,128")
    p.add_argument("--full-grid", action="store_true", help="sweep the full PxQ product")
    p.add_argument("--node", default="16nm")
    p.add_argument("--rate", type=_non_negative_float, default=30.0)
    p.add_argument("--duration", type=_positive_float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=0.0, help="allowed latency regression")
    p.add_argument("--out", required=True, help="sweep CSV output")
    p.set_defaults(func=cmd_dse)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        for v in exc.violations:
            print(f"  {v}", file=sys.stderr)
        return 3
    except NoFeasibleKnee as exc:
        print(f"no feasible knee: {exc}", file=sys.stderr)
        return 3
    except XbarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
