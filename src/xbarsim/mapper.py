"""Cluster-to-crossbar mapping honoring region state rules.

Placement pushes HRS-heavy neurons toward low row/column indices (the short
paths, where region A admits only HRS) and keeps every synapse on a cell
whose region permits its state. Configuration selection then picks the
cheapest array shape that contains the used cells, so the full '11' shape is
used only when nothing smaller fits. A CrossbarPlacement holds its synapses
through the one column mechanism of workload.Cluster (see workload).

The algorithm is greedy-with-repair and fully deterministic:

1. sort post-neurons by descending HRS-synapse count into columns 0.., ties
   by original index; pre-neurons likewise into rows;
2. while region violations remain (non-HRS in A, non-LRS1 in B), repair
   with one best-improvement swap pass over rows, then one over columns
   (batches of disjoint improving swaps per pair scan, until the axis is
   stable);
3. if violations still remain, search the band assignment: a cell violates
   only through its row/column bands, which reduces feasibility to a small
   constraint problem per cluster. The formulation is exact, but the search
   is a single greedy trial propagation without backtracking, so it can
   reject a feasible cluster (see _band_stage);
4. raise Infeasible if violations persist.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from .crossbar import (
    CONFIG_11,
    HRS,
    LRS1,
    STATE_LABELS,
    _STATE_CODE,
    Configuration,
    CrossbarSpec,
    config_by_name,
    config_dimensions,
    legal_configurations,
    static_energy_weight,
)
from .errors import CapacityExceeded, IllegalConfig, Infeasible, ValidationError
from .files import json_ints, read_json, write_json
from .techmodel import TechnologyParams
from .workload import Cluster, Network, Route, _routes_from_json, _routes_to_json
from .workload import _synapses_from_json, _synapses_to_json, _SynapseColumns


@dataclass(frozen=True)
class Hardware:
    crossbar_count: int
    spec: CrossbarSpec
    tech: TechnologyParams

    def __post_init__(self):
        if self.crossbar_count < 1:
            raise ValidationError("hardware needs at least one crossbar")


@dataclass(frozen=True)
class Assignment:
    row_of_pre: dict   # pre-neuron id -> row
    col_of_post: dict  # post-neuron id -> column
    cells: tuple       # (row, col) per synapse, in cluster synapse order


@dataclass(frozen=True)
class PlacedSynapse:
    pre: int
    post: int
    state: str
    row: int
    col: int


@dataclass(frozen=True, eq=False)
class CrossbarPlacement(_SynapseColumns):
    """One mapped cluster. Its synapse columns hold the global pre/post neuron
    ids, the state code and the cell's row/col, one entry per synapse."""

    _COLUMNS = {"pre": np.intp, "post": np.intp, "state": np.int8, "row": np.intp, "col": np.intp}
    _RECORD = PlacedSynapse

    crossbar_id: int
    cluster_id: int
    spec: CrossbarSpec
    config: Configuration
    row_of_pre: dict
    col_of_post: dict
    pre: np.ndarray
    post: np.ndarray
    state: np.ndarray
    row: np.ndarray
    col: np.ndarray

    @property
    def m(self) -> int:
        """Count of LRS-state synapses."""
        return len(self.state) - self.n_hrs

    @property
    def n_hrs(self) -> int:
        return int(np.count_nonzero(self.state == _STATE_CODE[HRS]))


@dataclass(frozen=True)
class Placement:
    crossbars: tuple[CrossbarPlacement, ...]
    crossbar_count: int
    routes: tuple[Route, ...] = ()


def _violations(cluster, not_hrs, not_lrs1, rows, cols, spec):
    """Indices of synapses whose cell region rejects their state."""
    n, n_h, n_l = spec.n, spec.n_h, spec.n_l
    r = rows[cluster.pre]
    c = cols[cluster.post]
    bad = (not_hrs & (r < n_h) & (c < n_h)) \
        | (not_lrs1 & (r >= n - n_l) & (c >= n - n_l))
    return np.nonzero(bad)[0]


def _swap_repair(spec, occupants, cost_a, cost_b) -> None:
    """Best-improvement swap passes over one axis; mutates `occupants`.

    occupants[slot] = neuron index or -1. cost_a[i]/cost_b[i] is the number of
    violations neuron i incurs when seated in the near-region band (slots
    < N_h) / far-region band (slots >= N - N_l). Empty slots cost nothing, so
    a "swap" with one covers moving a neuron to a free slot.

    Each pass evaluates every pair of slots in different bands once (a swap
    inside one band changes no cost). The improving pairs are then walked in
    ascending-delta order, ties in (near slot, far slot) order (a stable
    sort of the row-major nonzero list), and a pair is applied unless one of
    its slots was already swapped in this pass. That greedy batch is
    disjoint; a swap's improvement depends only on its own two slots, so
    every applied swap keeps its exact pre-pass delta and the pass strictly
    reduces the violation count.

    A pass typically lists hundreds of improving pairs and applies about ten,
    so the walk runs on Python lists (`tolist()` pairs, a bytearray of touched
    slots, a list copy of `occupants` written back once per pass): indexing
    numpy arrays one scalar at a time costs several times as much.
    """
    n, n_h, n_l = spec.n, spec.n_h, spec.n_l
    slots = np.arange(n)
    in_a = slots < n_h
    in_b = slots >= n - n_l
    # A pair i < j in different bands has i below the far band and j above
    # the near band: slot i is never far and slot j never near.
    lo, hi = slice(0, n - n_l), slice(n_h, n)
    while True:
        ca = np.where(occupants >= 0, cost_a[np.maximum(occupants, 0)], 0)
        cb = np.where(occupants >= 0, cost_b[np.maximum(occupants, 0)], 0)
        # delta[i, j - N_h]: change in violations if slots i and j swap.
        delta = ((ca[None, hi] - ca[lo, None]) * in_a[lo, None]
                 + (cb[lo, None] - cb[None, hi]) * in_b[None, hi])
        ii, jj = np.nonzero(delta < 0)
        if ii.size == 0:
            return
        order = np.argsort(delta[ii, jj], kind="stable")
        occ = occupants.tolist()
        touched = bytearray(n)
        for i, j in zip(ii[order].tolist(), (jj[order] + n_h).tolist()):
            if touched[i] or touched[j]:
                continue
            occ[i], occ[j] = occ[j], occ[i]
            touched[i] = touched[j] = 1
        occupants[:] = occ


def _seat(order, n):
    """(seat per neuron, occupant per slot) packing `order` into slots 0.."""
    seats = np.empty(len(order), dtype=int)
    seats[order] = np.arange(len(order))
    occ = np.full(n, -1, dtype=int)
    occ[:len(order)] = order
    return seats, occ


def assign_cluster(cluster: Cluster, spec: CrossbarSpec) -> Assignment:
    """Deterministic greedy-with-repair neuron/synapse assignment."""
    n = spec.n
    n_pre, n_post = len(cluster.pre_neurons), len(cluster.post_neurons)
    if n_pre > n or n_post > n:
        raise Infeasible(f"cluster {cluster.id} ({n_pre}x{n_post}) exceeds {n}x{n} crossbar",
                         cluster_id=cluster.id,
                         violations=[f"cluster dimensions {n_pre}x{n_post}"])

    is_hrs = cluster.state == _STATE_CODE[HRS]
    not_hrs, not_lrs1 = ~is_hrs, cluster.state != _STATE_CODE[LRS1]
    hrs_pre = np.bincount(cluster.pre[is_hrs], minlength=n_pre)
    hrs_post = np.bincount(cluster.post[is_hrs], minlength=n_post)
    # Stable sort: ties keep their original index order.
    rows, occ_rows = _seat(np.argsort(-hrs_pre, kind="stable"), n)
    cols, occ_cols = _seat(np.argsort(-hrs_post, kind="stable"), n)

    if spec.n_h > 0 or spec.n_l > 0:
        if len(_violations(cluster, not_hrs, not_lrs1, rows, cols, spec)):
            _repair(cluster, not_hrs, not_lrs1, spec, hrs_pre, hrs_post, rows, cols, occ_rows, occ_cols)
        bad = _violations(cluster, not_hrs, not_lrs1, rows, cols, spec)
        if len(bad):
            details = [f"synapse {i} ({STATE_LABELS[cluster.state[i]]}) at "
                       f"({rows[cluster.pre[i]]},{cols[cluster.post[i]]})" for i in bad]
            raise Infeasible(f"cluster {cluster.id}: {len(bad)} region violations remain",
                             cluster_id=cluster.id, violations=details)

    return Assignment(
        row_of_pre=dict(zip(cluster.pre_neurons, rows.tolist())),
        col_of_post=dict(zip(cluster.post_neurons, cols.tolist())),
        cells=tuple(zip(rows[cluster.pre].tolist(), cols[cluster.post].tolist())),
    )


def _axis_pass(spec, not_hrs, not_lrs1, own, other_seat, seats, occ):
    """Swap-repair one axis with the other held fixed; mutates `seats` and `occ`.

    own[k] is synapse k's neuron on this axis and other_seat[k] the slot of
    its partner on the other axis, so a neuron's near-band (far-band) cost
    counts its synapses that would then land in region A (B) and may not.
    """
    n = len(seats)
    cost_near = np.bincount(own[not_hrs & (other_seat < spec.n_h)], minlength=n)
    cost_far = np.bincount(own[not_lrs1 & (other_seat >= spec.n - spec.n_l)], minlength=n)
    _swap_repair(spec, occ, cost_near, cost_far)
    placed = np.nonzero(occ >= 0)[0]
    seats[occ[placed]] = placed


def _repair(cluster, not_hrs, not_lrs1, spec, hrs_pre, hrs_post, rows, cols, occ_rows, occ_cols):
    # One best-improvement cycle over each axis catches the easy cases.
    _axis_pass(spec, not_hrs, not_lrs1, cluster.pre, cols[cluster.post], rows, occ_rows)
    if not len(_violations(cluster, not_hrs, not_lrs1, rows, cols, spec)):
        return
    _axis_pass(spec, not_hrs, not_lrs1, cluster.post, rows[cluster.pre], cols, occ_cols)
    if not len(_violations(cluster, not_hrs, not_lrs1, rows, cols, spec)):
        return

    # Swap repair is local search and stalls on tightly coupled clusters, so
    # fall back to the band formulation: a cell violates only through the
    # bands its row and column sit in, which makes feasibility a small
    # constraint problem over per-neuron band choices. The formulation is
    # exact, but _band_stage searches it greedily and can miss a solution.
    _band_stage(cluster, not_hrs, not_lrs1, spec, hrs_pre, hrs_post, rows, cols, occ_rows, occ_cols)


def _band_stage(cluster, not_hrs, not_lrs1, spec, hrs_pre, hrs_post, rows, cols, occ_rows, occ_cols) -> None:
    """Greedy band assignment; reseats every neuron on success.

    Violations depend only on which horizontal/vertical band a neuron sits
    in: region A cells pair a near-band row (slot < N_h) with a near-band
    column, region B a far-band row (slot >= N - N_l) with a far-band
    column, and middle-band seats (region C rows/columns) are safe for
    everything. Assignment is therefore a 3-valued constraint problem: a
    synapse barred from region A forbids near-near between its endpoints,
    one barred from region B forbids far-far, and each band has as many
    seats per axis as it has slots. The formulation is exact; the search is
    not.

    Searched by deterministic trial propagation: bands are tried per neuron
    in a fixed preference order, each trial propagating forbidden-band and
    band-full eliminations; a trial that empties some neuron's domain is
    rolled back. There is no backtracking over earlier commits, so when no
    trial fits some neuron the stage gives up and leaves every seat as it
    was, even if the cluster is feasible. On success, every group packs as
    low as its band allows, HRS-heavy neurons first so they keep the
    shortest paths.
    """
    n, n_h, n_l = spec.n, spec.n_h, spec.n_l
    NEAR, MIDDLE, FAR = 0, 1, 2
    caps = (n_h, n - n_h - n_l, n_l)
    n_pre, n_post = len(rows), len(cols)
    n_vars = n_pre + n_post

    def adjacency(barred):
        # Per neuron: the partners that must leave a band if it takes it.
        adj = [[] for _ in range(n_vars)]
        for u, v in zip(cluster.pre[barred].tolist(), (n_pre + cluster.post[barred]).tolist()):
            adj[u].append(v)
            adj[v].append(u)
        return adj

    adj_near = adjacency(not_hrs & (n_h > 0))
    adj_far = adjacency(not_lrs1 & (n_l > 0))

    # Seat supply per axis: near commits may overflow into middle slots and
    # far commits likewise, so the binding budgets are near+middle vs
    # N_h+mid, far+middle vs N_l+mid, and middle alone vs mid.
    budget_near = n_h + caps[MIDDLE]
    budget_far = n_l + caps[MIDDLE]
    full_domain = (1 << NEAR | 1 << MIDDLE | 1 << FAR) if caps[MIDDLE] > 0 \
        else (1 << NEAR | 1 << FAR)
    domain = [full_domain] * n_vars
    committed = [-1] * n_vars
    used = [[0, 0, 0], [0, 0, 0]]  # per axis

    def axis_of(var):
        return 0 if var < n_pre else 1

    def vars_of(axis):
        return range(0, n_pre) if axis == 0 else range(n_pre, n_vars)

    def rollback(undo):
        for v, old in reversed(undo):
            if old == -1:
                used[axis_of(v)][committed[v]] -= 1
                committed[v] = -1
            else:
                domain[v] = old

    def propagate(var, band):
        # Commits var (plus everything it forces) or rolls itself back.
        undo = []
        queue = [(var, band)]
        qi = 0

        def remove(v, b):
            if committed[v] == b:
                return False
            if committed[v] != -1 or not domain[v] & (1 << b):
                return True
            undo.append((v, domain[v]))
            domain[v] &= ~(1 << b)
            if domain[v] == 0:
                return False
            if domain[v] & (domain[v] - 1) == 0:  # singleton: forced
                queue.append((v, domain[v].bit_length() - 1))
            return True

        def fits(axis, b):
            near_mid = used[axis][NEAR] + used[axis][MIDDLE]
            far_mid = used[axis][FAR] + used[axis][MIDDLE]
            if b == NEAR:
                return near_mid < budget_near
            if b == FAR:
                return far_mid < budget_far
            return (used[axis][MIDDLE] < caps[MIDDLE]
                    and near_mid < budget_near and far_mid < budget_far)

        ok = True
        while ok and qi < len(queue):
            v, b = queue[qi]
            qi += 1
            if committed[v] == b:
                continue
            axis = axis_of(v)
            if committed[v] != -1 or not domain[v] & (1 << b) or not fits(axis, b):
                ok = False
                break
            undo.append((v, -1))  # commit marker
            committed[v] = b
            used[axis][b] += 1
            if b == NEAR:
                ok = all(remove(w, NEAR) for w in adj_near[v])
            elif b == FAR:
                ok = all(remove(w, FAR) for w in adj_far[v])
            # A budget this commit just saturated bars its bands for every
            # uncommitted neuron on the axis.
            barred = 0
            if b != FAR and used[axis][NEAR] + used[axis][MIDDLE] == budget_near:
                barred |= 1 << NEAR | 1 << MIDDLE
            if b != NEAR and used[axis][FAR] + used[axis][MIDDLE] == budget_far:
                barred |= 1 << FAR | 1 << MIDDLE
            if b == MIDDLE and used[axis][MIDDLE] == caps[MIDDLE]:
                barred |= 1 << MIDDLE
            if ok and barred:
                ok = all(remove(w, bb) for w in vars_of(axis) if committed[w] == -1
                         for bb in (NEAR, MIDDLE, FAR) if barred & (1 << bb))
        if not ok:
            rollback(undo)
        return ok

    # Follow the current (swap-repaired) seat where possible: it already
    # approximates a good band shape.
    for var in range(n_vars):
        if committed[var] != -1:
            continue
        current = rows[var] if var < n_pre else cols[var - n_pre]
        if current >= n - n_l:
            preference = (FAR, MIDDLE, NEAR)
        elif current >= n_h:
            preference = (MIDDLE, NEAR, FAR)
        else:
            preference = (NEAR, MIDDLE, FAR)
        if not any(propagate(var, band) for band in preference if domain[var] & (1 << band)):
            return

    def seat(bands, hrs_counts, seats, occ):
        # Everything packs as low as its band allows, maximizing the
        # utilization of the collapsed region: near from slot 0 (overflow
        # into middle slots is safe), the middle group next from
        # max(N_h, near count) (never past N-N_l by the budgets), then
        # far-committed neurons right after it, which may use middle slots
        # too. HRS-heavy neurons lead each group so they keep the shortest
        # paths.
        bands = np.array(bands)
        order = np.lexsort((-hrs_counts, bands))
        n_near = np.count_nonzero(bands == NEAR)
        pos = np.arange(len(order))
        slots = pos + (pos >= n_near) * max(n_h - n_near, 0)
        seats[order] = slots
        occ[:] = -1
        occ[slots] = order

    seat(committed[:n_pre], hrs_pre, rows, occ_rows)
    seat(committed[n_pre:], hrs_post, cols, occ_cols)


def select_configuration(assignment: Assignment, spec: CrossbarSpec) -> Configuration:
    """Cheapest legal configuration whose active array contains every cell."""
    rows, cols = zip(*assignment.cells)
    return _cheapest_config(max(rows), max(cols), spec)


def _cheapest_config(max_row: int, max_col: int, spec: CrossbarSpec) -> Configuration:
    """Cheapest legal configuration containing cells up to (max_row, max_col).

    Weight ties can only occur between configurations with identical
    dimensions (degenerate P or Q); they go to the one with fewer control
    bits raised. A fully degenerate partition (P = Q = N) has no isolation
    transistors at all and reports the baseline '11'.
    """
    if spec.p == spec.n and spec.q == spec.n:
        return CONFIG_11
    return next(config for rows, cols, config in _config_candidates(spec) if max_row < rows and max_col < cols)


@lru_cache(maxsize=64)
def _config_candidates(spec: CrossbarSpec) -> tuple[tuple[int, int, Configuration], ...]:
    """(rows, cols, configuration) of each legal configuration, cheapest
    first: by static energy weight, then by control bits raised."""
    ranked = sorted(legal_configurations(spec), key=lambda config: (
        static_energy_weight(config, spec), config.wl_iso_ctrl + config.bl_iso_ctrl))
    return tuple((*config_dimensions(config, spec), config) for config in ranked)


def _map_clusters(network: Network, hardware: Hardware, assign) -> Placement:
    """First-fit in descending synapse count; assign(cluster) seats a cluster."""
    if len(network.clusters) > hardware.crossbar_count:
        raise CapacityExceeded(f"{len(network.clusters)} clusters > {hardware.crossbar_count} crossbars")
    spec = hardware.spec
    order = sorted(network.clusters, key=lambda c: (-len(c.state), c.id))
    crossbars = []
    for crossbar_id, cluster in enumerate(order):
        assignment = assign(cluster)
        cells = assignment.cells
        rows, cols = np.fromiter(chain.from_iterable(cells), np.intp, 2 * len(cells)).reshape(-1, 2).T
        crossbars.append(CrossbarPlacement(
            crossbar_id=crossbar_id, cluster_id=cluster.id, spec=spec,
            config=select_configuration(assignment, spec), row_of_pre=dict(assignment.row_of_pre),
            col_of_post=dict(assignment.col_of_post),
            pre=np.array(cluster.pre_neurons)[cluster.pre], post=np.array(cluster.post_neurons)[cluster.post],
            state=cluster.state, row=rows, col=cols))
    return Placement(crossbars=tuple(crossbars), crossbar_count=hardware.crossbar_count,
                     routes=network.routes)


def map_network(network: Network, hardware: Hardware) -> Placement:
    """Map clusters to crossbars, first-fit in descending synapse count."""
    return _map_clusters(network, hardware, lambda cluster: assign_cluster(cluster, hardware.spec))


def map_network_control(network: Network, hardware: Hardware, seed: int = 0) -> Placement:
    """Control mapper: input-order neurons on shuffled rows/columns.

    State-unaware, so it is only valid on specs without resistance regions
    (N_h = N_l = 0); it still picks the cheapest containing configuration.
    """
    spec = hardware.spec
    if spec.n_h or spec.n_l:
        raise ValidationError("control mapper ignores regions; use a spec with N_h = N_l = 0")
    rng = np.random.default_rng(seed)

    def shuffled(cluster):
        n_pre, n_post = len(cluster.pre_neurons), len(cluster.post_neurons)
        if n_pre > spec.n or n_post > spec.n:
            raise Infeasible(f"cluster {cluster.id} exceeds crossbar", cluster_id=cluster.id)
        row_slots = rng.permutation(spec.n)[:n_pre]
        col_slots = rng.permutation(spec.n)[:n_post]
        return Assignment(
            row_of_pre={nid: int(row_slots[i]) for i, nid in enumerate(cluster.pre_neurons)},
            col_of_post={nid: int(col_slots[j]) for j, nid in enumerate(cluster.post_neurons)},
            cells=tuple(zip(row_slots[cluster.pre].tolist(), col_slots[cluster.post].tolist())),
        )

    return _map_clusters(network, hardware, shuffled)


def _sorted_pairs(a, b):
    """The order that sorts the (a, b) pairs, and along it whether each entry starts a new distinct pair."""
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return order, first


def _disagrees(mapping: dict, keys, values) -> np.ndarray:
    """Per entry, mapping.get(key) != value; one lookup per distinct (key, value)."""
    order, first = _sorted_pairs(keys, values)
    distinct = order[first]
    verdicts = np.array([mapping.get(k) != v for k, v in zip(keys[distinct].tolist(), values[distinct].tolist())],
                        dtype=bool)
    disagrees = np.empty(len(order), dtype=bool)
    disagrees[order] = verdicts[np.cumsum(first) - 1]
    return disagrees


def check_placement(placement: Placement) -> list[str]:
    """Independent soundness audit; returns human-readable problems (empty = sound), never raises."""
    problems = []
    for xb in placement.crossbars:
        try:
            rows, cols = config_dimensions(xb.config, xb.spec)
        except IllegalConfig as exc:
            problems.append(f"crossbar {xb.crossbar_id}: {exc}")
            rows = cols = xb.spec.n
        if not _sorted_pairs(xb.row, xb.col)[1].all():
            problems.append(f"crossbar {xb.crossbar_id}: synapse cells not injective")
        inconsistent = _disagrees(xb.row_of_pre, xb.pre, xb.row) | _disagrees(xb.col_of_post, xb.post, xb.col)
        outside = ~((0 <= xb.row) & (xb.row < rows) & (0 <= xb.col) & (xb.col < cols))
        # Region A admits only HRS, B only LRS1, C every state.
        far = xb.spec.n - xb.spec.n_l
        in_a = (xb.row < xb.spec.n_h) & (xb.col < xb.spec.n_h)
        in_b = (xb.row >= far) & (xb.col >= far)
        forbidden = ~outside & ((in_a & (xb.state != _STATE_CODE[HRS]))
                                | (in_b & (xb.state != _STATE_CODE[LRS1])))
        for i in np.nonzero(inconsistent | outside | forbidden)[0].tolist():
            cell = f"({xb.row[i]},{xb.col[i]})"
            if inconsistent[i]:
                problems.append(f"crossbar {xb.crossbar_id}: cell {cell} inconsistent with neuron maps")
            if outside[i]:
                problems.append(f"crossbar {xb.crossbar_id}: cell {cell} outside config '{xb.config.name}'")
            elif forbidden[i]:
                problems.append(f"crossbar {xb.crossbar_id}: state {STATE_LABELS[xb.state[i]]} forbidden at {cell}")
    return problems


# ---------------------------------------------------------------------------
# serialization


def placement_to_json(placement: Placement) -> dict:
    """The placement document; each crossbar's "synapses" is a Records, which
    write_json writes, and json.dumps writes with default=list."""
    return {
        "crossbar_count": placement.crossbar_count,
        "crossbars": [
            {
                "id": xb.crossbar_id,
                "cluster": xb.cluster_id,
                "spec": xb.spec.to_json(),
                "config": xb.config.name,
                "rows": {str(k): v for k, v in sorted(xb.row_of_pre.items())},
                "cols": {str(k): v for k, v in sorted(xb.col_of_post.items())},
                "synapses": _synapses_to_json(xb),
                "stats": {"m": xb.m, "n_hrs": xb.n_hrs},
            }
            for xb in placement.crossbars
        ],
        "routes": _routes_to_json(placement.routes),
    }


def placement_from_json(doc: dict) -> Placement:
    try:
        crossbars = tuple(
            CrossbarPlacement(
                crossbar_id=json_ints([x["id"]], "id")[0],
                cluster_id=json_ints([x["cluster"]], "cluster")[0],
                spec=CrossbarSpec.from_json(x["spec"]),
                config=config_by_name(x["config"]),
                row_of_pre=dict(zip(map(int, x["rows"]), json_ints(x["rows"].values(), "rows"))),
                col_of_post=dict(zip(map(int, x["cols"]), json_ints(x["cols"].values(), "cols"))),
                **_synapses_from_json(x["synapses"], CrossbarPlacement._COLUMNS),
            )
            for x in doc["crossbars"]
        )
        return Placement(crossbars=crossbars,
                         crossbar_count=json_ints([doc["crossbar_count"]], "crossbar_count")[0],
                         routes=_routes_from_json(doc.get("routes", ())))
    except (AttributeError, IllegalConfig, KeyError, OverflowError, TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"bad placement document: {exc}") from exc


def load_placement(path) -> Placement:
    """Read a placement document and audit it with check_placement."""
    placement = placement_from_json(read_json(path))
    problems = check_placement(placement)
    if problems:
        raise ValidationError(f"{path}: {len(problems)} placement problem(s), first: {problems[0]}")
    return placement


def save_placement(placement: Placement, path) -> None:
    write_json(placement_to_json(placement), path)
