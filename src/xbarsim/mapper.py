"""Cluster-to-crossbar mapping honoring region state rules.

Placement pushes HRS-heavy neurons toward low row/column indices (the short
paths, where region A admits only HRS) and keeps every synapse on a cell
whose region permits its state. Configuration selection then picks the
cheapest array shape that contains the used cells by a closed-form rule
(crossbar._cheapest_config): it expands the rows only if a cell reaches row
P and the columns only if one reaches column Q (both together under single
control), so '11' is used only when nothing smaller holds them. An
Assignment and a CrossbarPlacement are each a cluster and two seat vectors;
a synapse's cell is derived from them, never stored. Both mappers place a
cluster by an Assignment (map_network's from assign_cluster) and
select_configuration.

The algorithm is greedy-with-repair and fully deterministic. Its only state
is two seat vectors: `rows` (a row per pre-neuron index) and `cols`.

1. seat pre-neurons by descending HRS-synapse count into rows 0.., ties by
   index; post-neurons likewise into columns;
2. run three stages in order, stopping as soon as no cell's region bars its
   state (crossbar._barred): a best-improvement swap pass over rows, one over
   columns, then the band stage. A swap pass applies batches of disjoint
   improving swaps until the axis is stable. It scores only swaps between
   bands, in three blocks (near x middle, near x far, middle x far); an
   O(N) test of each block's extremes ends it, and a batch merges the
   blocks' rows and columns, each sorted by cost once (see _swap_repair). A
   cell violates only through its row/column bands, so feasibility is a
   small constraint problem per cluster; it is exact, but searched by one
   greedy trial propagation without backtracking, which can reject a
   feasible cluster (see _band_stage);
3. raise Infeasible if violations persist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crossbar import (
    HRS,
    LRS1,
    STATE_LABELS,
    _STATE_CODE,
    Configuration,
    CrossbarSpec,
    _barred,
    _cheapest_config,
    config_by_name,
    config_dimensions,
)
from .errors import CapacityExceeded, IllegalConfig, Infeasible, ValidationError
from .files import _brief, json_ints, read_json, write_json
from .workload import Cluster, Network, Route, _cluster_from_json, _cluster_to_json, _route_problems
from .workload import _routes_from_json, _routes_to_json


@dataclass(frozen=True)
class Hardware:
    crossbar_count: int
    spec: CrossbarSpec

    def __post_init__(self):
        if self.crossbar_count < 1:
            raise ValidationError("hardware needs at least one crossbar")


@dataclass(frozen=True, eq=False)
class Assignment:
    """assign_cluster's seats: rows[i] is the row of cluster.pre_neurons[i]
    and cols[j] the column of cluster.post_neurons[j], as read-only intp
    arrays. row_of_pre, col_of_post and cells are views built on each access."""

    cluster: Cluster
    rows: np.ndarray
    cols: np.ndarray

    @property
    def row_of_pre(self) -> dict:
        """Pre-neuron id -> row."""
        return dict(zip(self.cluster.pre_neurons, self.rows.tolist()))

    @property
    def col_of_post(self) -> dict:
        """Post-neuron id -> column."""
        return dict(zip(self.cluster.post_neurons, self.cols.tolist()))

    @property
    def cells(self) -> tuple:
        """(row, col) per synapse, in cluster synapse order."""
        return tuple(zip(self.rows[self.cluster.pre].tolist(), self.cols[self.cluster.post].tolist()))


@dataclass(frozen=True)
class PlacedSynapse:
    pre: int
    post: int
    state: str
    row: int
    col: int


@dataclass(frozen=True, eq=False)
class CrossbarPlacement:
    """One mapped cluster: rows[i] is the row of cluster.pre_neurons[i] and
    cols[j] the column of cluster.post_neurons[j], as read-only intp arrays.
    A synapse's cell is (rows[pre], cols[post]); cells() gathers them."""

    crossbar_id: int
    cluster: Cluster
    spec: CrossbarSpec
    config: Configuration
    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self):
        """Make each seat vector a read-only intp array of one seat per neuron,
        keeping one that already is, so that dataclasses.replace shares it."""
        for name, neurons in (("rows", self.cluster.pre_neurons), ("cols", self.cluster.post_neurons)):
            seats = getattr(self, name)
            if not (isinstance(seats, np.ndarray) and seats.dtype == np.intp and not seats.flags.writeable):
                seats = np.array(seats, dtype=np.intp)
                seats.flags.writeable = False
                object.__setattr__(self, name, seats)
            if seats.shape != (len(neurons),):
                raise ValidationError(f"crossbar {self.crossbar_id}: {name} holds {len(seats)} seats "
                                      f"for {len(neurons)} neurons")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.crossbar_id, self.cluster, self.spec, self.config)
                == (other.crossbar_id, other.cluster, other.spec, other.config)
                and np.array_equal(self.rows, other.rows) and np.array_equal(self.cols, other.cols))

    @property
    def cluster_id(self) -> int:
        return self.cluster.id

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The row and the column of each synapse's cell, in cluster synapse order."""
        return self.rows[self.cluster.pre], self.cols[self.cluster.post]

    @property
    def synapses(self) -> tuple[PlacedSynapse, ...]:
        """One PlacedSynapse view per synapse, with global neuron ids, built on each access."""
        c = self.cluster
        return tuple(map(PlacedSynapse, np.array(c.pre_neurons)[c.pre].tolist(),
                         np.array(c.post_neurons)[c.post].tolist(), c._labels(),
                         *(cell.tolist() for cell in self.cells())))

    @property
    def m(self) -> int:
        """Count of LRS-state synapses."""
        return len(self.cluster.state) - self.n_hrs

    @property
    def n_hrs(self) -> int:
        return int(np.count_nonzero(self.cluster.state == _STATE_CODE[HRS]))


@dataclass(frozen=True)
class Placement:
    crossbars: tuple[CrossbarPlacement, ...]
    crossbar_count: int
    routes: tuple[Route, ...] = ()


def _violations(cluster, rows, cols, spec):
    """Indices of synapses whose cell region rejects their state."""
    return np.flatnonzero(_barred(rows[cluster.pre], cols[cluster.post], cluster.state, spec))


def _swap_repair(spec, occupants, cost_a, cost_b) -> None:
    """Best-improvement swap passes over one axis; mutates `occupants`.

    occupants[slot] = neuron index or -1. cost_a[i]/cost_b[i] is the number of
    violations neuron i incurs when seated in the near-region band (slots
    < N_h) / far-region band (slots >= N - N_l). Empty slots cost nothing, so
    a "swap" with one covers moving a neuron to a free slot.

    A swap inside one band changes no cost, so a pass scores only the three
    band-pair blocks of _improving_blocks, and the axis is done as soon as
    their closed-form test finds no improving swap. Otherwise the pass
    applies a greedy batch: walk every improving pair in (delta, lower slot,
    upper slot) order and apply each pair neither of whose slots the pass
    has already swapped. The batch is disjoint; a swap's improvement depends
    only on its own two slots, so every applied swap keeps its exact
    pre-pass delta and the pass strictly reduces the violation count.

    The pass finds that batch without listing pairs. Swapped slots only
    accumulate, so each swap the walk applies is the first pair in its order
    with both slots unswapped. In a block, pairing row a with column b
    changes the count by x[b] - y[a], so that pair joins the unswapped row of
    largest y and the unswapped column of smallest x, the lower slot on
    ties. Each block thus sorts its rows by descending y and its columns by
    ascending x (stable sorts), and the pass applies the least delta among
    the block heads, the earlier block on a tie, until none improves. On
    pairs that share a slot the block order agrees with slot order, and the
    greedy batch depends only on the order of such pairs.
    """
    n = spec.n
    # An empty slot (-1) reads the appended zero cost.
    cost_a, cost_b = np.append(cost_a, 0), np.append(cost_b, 0)
    while True:
        ca, cb = cost_a[occupants], cost_b[occupants]
        blocks = _improving_blocks(spec, ca, cb)
        if not blocks:
            return
        # Per block: its row slots by descending y with their y, and its column
        # slots by ascending x with their x. Each list ends in a sentinel on the
        # never-swapped slot n, whose head delta is +inf and so never improves.
        heads = []
        for i0, y, j0, x in blocks:
            rows, cols = np.argsort(-y, kind="stable"), np.argsort(x, kind="stable")
            heads.append([(rows + i0).tolist() + [n], y[rows].tolist() + [-np.inf],
                          (cols + j0).tolist() + [n], x[cols].tolist() + [np.inf], 0, 0])
        occ = occupants.tolist()
        touched = bytearray(n + 1)
        while True:
            best = None
            for head in heads:
                lower, y, upper, x, a, b = head
                while touched[lower[a]]:
                    a += 1
                while touched[upper[b]]:
                    b += 1
                head[4], head[5] = a, b
                delta = x[b] - y[a]
                if delta < 0 and (best is None or delta < best[0]):
                    best = delta, lower[a], upper[b]
            if best is None:
                break
            _, i, j = best
            occ[i], occ[j] = occ[j], occ[i]
            touched[i] = touched[j] = 1
        occupants[:] = occ


def _improving_blocks(spec, ca, cb) -> list:
    """The band-pair blocks that hold an improving swap; empty when none does.

    ca[s]/cb[s] is the near/far-band cost of slot s's occupant. A block is
    (i0, y, j0, x): swapping slot i0 + a with slot j0 + b changes the
    violation count by x[b] - y[a], so it holds an improving swap exactly
    when min(x) < max(y). The blocks are near x middle (x, y = ca), near x
    far (ca - cb) and middle x far (-cb).
    """
    n_h, far = spec.n_h, spec.n - spec.n_l
    gain = ca - cb
    blocks = ((0, ca[:n_h], n_h, ca[n_h:far]), (0, gain[:n_h], far, gain[far:]),
              (n_h, -cb[n_h:far], far, -cb[far:]))
    return [block for block in blocks if len(block[1]) and len(block[3]) and block[3].min() < block[1].max()]


def assign_cluster(cluster: Cluster, spec: CrossbarSpec) -> Assignment:
    """Deterministic greedy-with-repair neuron/synapse assignment."""
    return Assignment(cluster, *_seats(cluster, spec))


def _require_fit(cluster: Cluster, n: int) -> None:
    """Raise Infeasible if the cluster's neurons outnumber an n x n crossbar's rows or columns."""
    n_pre, n_post = len(cluster.pre_neurons), len(cluster.post_neurons)
    if n_pre > n or n_post > n:
        raise Infeasible(f"cluster {cluster.id} ({n_pre}x{n_post}) exceeds {n}x{n} crossbar",
                         cluster_id=cluster.id,
                         violations=[f"cluster dimensions {n_pre}x{n_post}"])


def _seats(cluster: Cluster, spec: CrossbarSpec) -> tuple[np.ndarray, np.ndarray]:
    """assign_cluster's seat vectors: a row per pre-neuron index and a column
    per post-neuron index, as read-only intp arrays."""
    _require_fit(cluster, spec.n)
    is_hrs = cluster.state == _STATE_CODE[HRS]
    not_hrs, not_lrs1 = ~is_hrs, cluster.state != _STATE_CODE[LRS1]
    hrs_pre = np.bincount(cluster.pre[is_hrs], minlength=len(cluster.pre_neurons))
    hrs_post = np.bincount(cluster.post[is_hrs], minlength=len(cluster.post_neurons))
    # Seats by descending HRS count, ties in index order: a stable sort's ranks.
    rows = np.argsort(np.argsort(-hrs_pre, kind="stable"))
    cols = np.argsort(np.argsort(-hrs_post, kind="stable"))

    if spec.n_h > 0 or spec.n_l > 0:
        # Swap repair catches the easy cases; it is local search and stalls on
        # tightly coupled clusters, which the band stage takes.
        stages = (lambda: _axis_pass(spec, not_hrs, not_lrs1, cluster.pre, cols[cluster.post], rows),
                  lambda: _axis_pass(spec, not_hrs, not_lrs1, cluster.post, rows[cluster.pre], cols),
                  lambda: _band_stage(cluster, not_hrs, not_lrs1, spec, hrs_pre, hrs_post, rows, cols))
        bad = _violations(cluster, rows, cols, spec)
        for stage in stages:
            if not len(bad):
                break
            stage()
            bad = _violations(cluster, rows, cols, spec)
        if len(bad):
            details = [f"synapse {i} ({STATE_LABELS[cluster.state[i]]}) at "
                       f"({rows[cluster.pre[i]]},{cols[cluster.post[i]]})" for i in bad]
            raise Infeasible(f"cluster {cluster.id}: {len(bad)} region violations remain",
                             cluster_id=cluster.id, violations=details)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _axis_pass(spec, not_hrs, not_lrs1, own, other_seat, seats):
    """Swap-repair one axis with the other held fixed; mutates `seats` through its occupant per slot.

    own[k] is synapse k's neuron on this axis and other_seat[k] the slot of
    its partner on the other axis, so a neuron's near-band (far-band) cost
    counts its synapses that would then land in region A (B) and may not.
    """
    n = len(seats)
    cost_near = np.bincount(own[not_hrs & (other_seat < spec.n_h)], minlength=n)
    cost_far = np.bincount(own[not_lrs1 & (other_seat >= spec.n - spec.n_l)], minlength=n)
    occupants = np.full(spec.n, -1, dtype=int)
    occupants[seats] = np.arange(n)
    _swap_repair(spec, occupants, cost_near, cost_far)
    placed = np.flatnonzero(occupants >= 0)
    seats[occupants[placed]] = placed


def _band_stage(cluster, not_hrs, not_lrs1, spec, hrs_pre, hrs_post, rows, cols) -> None:
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
    trial succeeds for some neuron the stage gives up and leaves every seat
    as it was, even if the cluster is feasible. On success, every group
    packs as low as its band allows, HRS-heavy neurons first so they keep
    the shortest paths.
    """
    n, n_h, n_l = spec.n, spec.n_h, spec.n_l
    NEAR, MIDDLE, FAR = 0, 1, 2
    caps = (n_h, n - n_h - n_l, n_l)
    n_pre, n_vars = len(rows), len(rows) + len(cols)  # variables: pre-neurons, then post-neurons

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
    # N_h+mid, far+middle vs N_l+mid, and middle alone vs mid. A band of zero
    # budget starts out of every domain, and a commit that fills one bars it.
    budget_near = n_h + caps[MIDDLE]
    budget_far = n_l + caps[MIDDLE]
    domain = [sum(1 << band for band, budget in ((NEAR, budget_near), (MIDDLE, caps[MIDDLE]), (FAR, budget_far))
                  if budget > 0)] * n_vars
    committed = [-1] * n_vars
    used = [[0, 0, 0], [0, 0, 0]]  # per axis: 0 holds the pre-neurons, 1 the post-neurons
    axis_vars = (range(n_pre), range(n_pre, n_vars))

    def rollback(undo):
        for v, old in reversed(undo):
            if old == -1:
                used[int(v >= n_pre)][committed[v]] -= 1
                committed[v] = -1
            else:
                domain[v] = old

    def propagate(var, band):
        # Commits var (plus everything it forces) or rolls itself back. A
        # queued variable is uncommitted and its domain holds its band: the
        # caller checks var, a forced one is queued once, when its domain
        # shrinks to that band, and a later cut of it ends the trial.
        undo = []
        queue = [(var, band)]
        qi = 0
        ok = True
        while ok and qi < len(queue):
            v, b = queue[qi]
            qi += 1
            axis = int(v >= n_pre)
            undo.append((v, -1))  # commit marker
            committed[v] = b
            used[axis][b] += 1
            if b != MIDDLE:
                # Cut band b from each uncommitted partner's domain, logging
                # the old domain. A partner left with no band fails the trial;
                # one left with a single band is forced. No committed partner
                # holds b: adjacency is symmetric, so its commit cut b from v's
                # domain. The cut is inlined, as a call per partner costs more
                # than the cut.
                bit = 1 << b
                for w in (adj_near if b == NEAR else adj_far)[v]:
                    if committed[w] != -1:
                        continue
                    held = domain[w]
                    if not held & bit:
                        continue
                    undo.append((w, held))
                    held ^= bit
                    domain[w] = held
                    if not held:
                        ok = False
                        break
                    if not held & (held - 1):  # singleton: forced
                        queue.append((w, held.bit_length() - 1))
            # A budget this commit just saturated bars its bands for every
            # uncommitted neuron on the axis: the same cut, neuron by neuron,
            # band by band.
            barred = 0
            if b != FAR and used[axis][NEAR] + used[axis][MIDDLE] == budget_near:
                barred |= 1 << NEAR | 1 << MIDDLE
            if b != NEAR and used[axis][FAR] + used[axis][MIDDLE] == budget_far:
                barred |= 1 << FAR | 1 << MIDDLE
            if b == MIDDLE and used[axis][MIDDLE] == caps[MIDDLE]:
                barred |= 1 << MIDDLE
            if ok and barred:
                for w in axis_vars[axis]:
                    if committed[w] != -1:
                        continue
                    for bit in (1 << NEAR, 1 << MIDDLE, 1 << FAR):
                        held = domain[w]
                        if not barred & held & bit:
                            continue
                        undo.append((w, held))
                        held ^= bit
                        domain[w] = held
                        if not held:
                            ok = False
                            break
                        if not held & (held - 1):
                            queue.append((w, held.bit_length() - 1))
                    if not ok:
                        break
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

    def seat(bands, hrs_counts, seats):
        # Everything packs as low as its band allows, with no regard to the
        # P/Q partition: near from slot 0 (overflow
        # into middle slots is safe), the middle group next from
        # max(N_h, near count) (never past N-N_l by the budgets), then
        # far-committed neurons right after it, which may use middle slots
        # too. HRS-heavy neurons lead each group so they keep the shortest
        # paths.
        bands = np.array(bands)
        order = np.lexsort((-hrs_counts, bands))
        n_near = np.count_nonzero(bands == NEAR)
        pos = np.arange(len(order))
        seats[order] = pos + (pos >= n_near) * max(n_h - n_near, 0)

    seat(committed[:n_pre], hrs_pre, rows)
    seat(committed[n_pre:], hrs_post, cols)


def select_configuration(assignment: Assignment, spec: CrossbarSpec) -> Configuration:
    """Cheapest legal configuration whose active array contains every cell."""
    c = assignment.cluster
    return _cheapest_config(assignment.rows[c.pre].max(), assignment.cols[c.post].max(), spec)


def _map_clusters(network: Network, hardware: Hardware, assign) -> Placement:
    """First-fit in descending synapse count; assign(cluster) gives a cluster's Assignment."""
    if len(network.clusters) > hardware.crossbar_count:
        raise CapacityExceeded(f"{len(network.clusters)} clusters > {hardware.crossbar_count} crossbars")
    spec = hardware.spec
    order = sorted(network.clusters, key=lambda c: (-len(c.state), c.id))
    crossbars = []
    for crossbar_id, cluster in enumerate(order):
        a = assign(cluster)
        crossbars.append(CrossbarPlacement(crossbar_id, cluster, spec, select_configuration(a, spec), a.rows, a.cols))
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
        _require_fit(cluster, spec.n)
        rows = rng.permutation(spec.n)[:len(cluster.pre_neurons)]
        cols = rng.permutation(spec.n)[:len(cluster.post_neurons)]
        rows.flags.writeable = cols.flags.writeable = False
        return Assignment(cluster, rows, cols)

    return _map_clusters(network, hardware, shuffled)


def check_placement(placement: Placement) -> list[str]:
    """Independent soundness audit; returns human-readable problems (empty = sound), never raises.

    Per crossbar: a legal configuration, distinct seats on each axis (so
    distinct cells, as a Cluster holds each pair once), every cell inside the
    active array and permitting its state, and the seat of a neuron with no
    synapse inside the crossbar. Of the whole, what map_network guarantees:
    crossbar_count at least 1 and at least the number of crossbars, distinct
    crossbar and cluster ids, and routes whose ends name a placed neuron.
    """
    problems = []
    placed = len(placement.crossbars)
    if placement.crossbar_count < max(1, placed):
        problems.append(f"crossbar_count {placement.crossbar_count} is below {max(1, placed)} "
                        f"({placed} crossbars placed)")
    for name, ids in (("crossbar", [xb.crossbar_id for xb in placement.crossbars]),
                      ("cluster", [xb.cluster_id for xb in placement.crossbars])):
        if len(set(ids)) != len(ids):
            problems.append(f"duplicate {name} ids")
    problems += _route_problems(placement.routes, [xb.cluster for xb in placement.crossbars])
    for xb in placement.crossbars:
        where, c = f"crossbar {xb.crossbar_id}", xb.cluster
        try:
            rows, cols = config_dimensions(xb.config, xb.spec)
        except IllegalConfig as exc:
            problems.append(f"{where}: {exc}")
            rows = cols = xb.spec.n
        for axis, seats, neurons, of_synapse in (("row", xb.rows, c.pre_neurons, c.pre),
                                                 ("column", xb.cols, c.post_neurons, c.post)):
            seat, count = np.unique(seats, return_counts=True)
            problems += [f"{where}: {axis} {s} seats {k} neurons" for s, k in zip(seat.tolist(), count.tolist())
                         if k > 1]
            idle = np.ones(len(seats), dtype=bool)
            idle[of_synapse] = False
            problems += [f"{where}: neuron {neurons[i]} seated at {axis} {seats[i]}, outside the "
                         f"{xb.spec.n}x{xb.spec.n} crossbar"
                         for i in np.flatnonzero(idle & ((seats < 0) | (seats >= xb.spec.n))).tolist()]
        row, col = xb.cells()
        outside = ~((0 <= row) & (row < rows) & (0 <= col) & (col < cols))
        forbidden = ~outside & _barred(row, col, c.state, xb.spec)
        for i in np.flatnonzero(outside | forbidden).tolist():
            cell = f"({row[i]},{col[i]})"
            if outside[i]:
                problems.append(f"{where}: cell {cell} outside config '{xb.config.name}'")
            else:
                problems.append(f"{where}: state {STATE_LABELS[c.state[i]]} forbidden at {cell}")
    return problems


# ---------------------------------------------------------------------------
# serialization


def placement_to_json(placement: Placement) -> dict:
    """The placement document; each crossbar holds its cluster as the
    network document does, and a seat per pre-neuron ("rows") and per
    post-neuron ("cols"), in the cluster's neuron order."""
    return {
        "crossbar_count": placement.crossbar_count,
        "crossbars": [
            {
                "id": xb.crossbar_id,
                "spec": xb.spec.to_json(),
                "config": xb.config.name,
                "cluster": _cluster_to_json(xb.cluster),
                "rows": xb.rows.tolist(),
                "cols": xb.cols.tolist(),
                "stats": {"m": xb.m, "n_hrs": xb.n_hrs},
            }
            for xb in placement.crossbars
        ],
        "routes": _routes_to_json(placement.routes),
    }


def _placed_cluster(doc) -> Cluster:
    if type(doc) is int:
        raise ValueError(f"cluster: expected a cluster object, got the cluster id {_brief(doc)} "
                         "(the earlier layout, with per-synapse cells and seat maps)")
    return _cluster_from_json(doc, "cluster")


def placement_from_json(doc: dict) -> Placement:
    try:
        crossbars = tuple(
            CrossbarPlacement(
                crossbar_id=json_ints([x["id"]], "id")[0],
                cluster=_placed_cluster(x["cluster"]),
                spec=CrossbarSpec.from_json(x["spec"]),
                config=config_by_name(x["config"]),
                rows=json_ints(x["rows"], "rows", indexed=True),
                cols=json_ints(x["cols"], "cols", indexed=True),
            )
            for x in doc["crossbars"]
        )
        if not crossbars:
            raise ValueError("crossbars: a placement document needs at least one crossbar")
        return Placement(crossbars=crossbars,
                         crossbar_count=json_ints([doc["crossbar_count"]], "crossbar_count")[0],
                         routes=_routes_from_json(doc.get("routes", [])))
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
