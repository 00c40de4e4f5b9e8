"""CSV and JSON report emitters (and their loaders).

CSV is the plotting contract: flat tables, one observation per row. The JSON
report bundles everything a downstream tool needs in one document.
"""

from __future__ import annotations

import math

from .dse import SweepPoint
from .errors import ParseError
from .files import read_table, write_json, write_table
from .simulate import EnergyReport, LatencyReport

# column name -> cell parser, shared by each table's writer and reader
_LATENCY_COLUMNS = {"crossbar": int, "cluster": int, **dict.fromkeys(
    ["best", "worst", "diff", "ratio", "mean",
     "extreme_best", "extreme_worst", "extreme_diff", "extreme_ratio"], float)}
_ENERGY_COLUMNS = dict.fromkeys(["static_j", "spike_j", "routing_j", "access_overhead_j", "total_j"], float)
_ISI_COLUMNS = {"neuron": int, "isi_distortion": float}
_SWEEP_COLUMNS = {"network": str, "P": int, "Q": int, **dict.fromkeys(
    ["norm_energy", "norm_latency", "norm_variation", "expanded_fraction"], float)}


def _r(x) -> str:
    # repr of the plain float: shortest round-trippable text, numpy-free
    return repr(float(x))


def write_latency_csv(report: LatencyReport, path) -> None:
    write_table(path, _LATENCY_COLUMNS, (
        [xb.crossbar_id, xb.cluster_id,
         _r(xb.placed.best), _r(xb.placed.worst), _r(xb.placed.diff), _r(xb.placed.ratio), _r(xb.placed.mean),
         _r(xb.extremes.best), _r(xb.extremes.worst), _r(xb.extremes.diff), _r(xb.extremes.ratio)]
        for xb in report.per_crossbar))


def read_latency_csv(path) -> list[dict]:
    """Per-crossbar latency rows as dicts keyed by the column names."""
    return [dict(zip(_LATENCY_COLUMNS, row)) for row in read_table(path, _LATENCY_COLUMNS, "latency")]


def write_energy_csv(report: EnergyReport, path) -> None:
    write_table(path, _ENERGY_COLUMNS, [[_r(report.static_j), _r(report.spike_j), _r(report.routing_j),
                                         _r(report.access_overhead_j), _r(report.total_j)]])


def read_energy_csv(path) -> EnergyReport:
    for static_j, spike_j, routing_j, access_overhead_j, _ in read_table(path, _ENERGY_COLUMNS, "energy"):
        return EnergyReport(static_j=static_j, spike_j=spike_j, routing_j=routing_j,
                            access_overhead_j=access_overhead_j)
    raise ParseError(f"{path}: empty energy table")


def write_isi_csv(distortions: dict, path) -> None:
    write_table(path, _ISI_COLUMNS, ([neuron, _r(distortions[neuron])] for neuron in sorted(distortions)))


def read_isi_csv(path) -> dict:
    return dict(read_table(path, _ISI_COLUMNS, "ISI"))


def _stats_json(stats) -> dict:
    return {"best": stats.best, "worst": stats.worst, "diff": stats.diff,
            "ratio": stats.ratio, "mean": stats.mean}


def write_simulation_json(latency: LatencyReport, energy: EnergyReport,
                          distortions: dict, path) -> None:
    doc = {
        "latency": {
            "aggregate": _stats_json(latency.aggregate),
            "extremes": _stats_json(latency.extremes),
            "per_crossbar": [
                {"crossbar": xb.crossbar_id, "cluster": xb.cluster_id,
                 "placed": _stats_json(xb.placed), "extremes": _stats_json(xb.extremes)}
                for xb in latency.per_crossbar
            ],
        },
        "energy": {"static_j": energy.static_j, "spike_j": energy.spike_j,
                   "routing_j": energy.routing_j, "access_overhead_j": energy.access_overhead_j,
                   "total_j": energy.total_j},
        "isi_distortion": {str(k): v for k, v in sorted(distortions.items())},
    }
    write_json(doc, path)


def write_sweep_csv(sweeps, path) -> None:
    write_table(path, _SWEEP_COLUMNS, (
        [pt.network, pt.p, pt.q, _r(pt.norm_energy), _r(pt.norm_latency),
         _r(pt.norm_variation), _r(pt.expanded_fraction)]
        for points in sweeps for pt in points))


def read_sweep_csv(path) -> list[list[SweepPoint]]:
    per_network: dict[str, list[SweepPoint]] = {}
    for name, p, q, energy, latency, variation, expanded in read_table(path, _SWEEP_COLUMNS, "sweep"):
        pt = SweepPoint(network=name, p=p, q=q, norm_energy=energy, norm_latency=latency,
                        norm_variation=variation, expanded_fraction=expanded,
                        feasible=not math.isnan(energy))
        per_network.setdefault(name, []).append(pt)
    return list(per_network.values())


def write_analysis_csv(rows, path=None):
    """Analysis table; rows are dicts with the fixed column set."""
    columns = ["n", "F", "cost_per_bit", "total_bits", "height_pct", "width_pct",
               "iso_count_fine", "iso_count_coarse"]
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(
            _r(row[c]) if isinstance(row[c], float) else str(row[c]) for c in columns
        ))
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
