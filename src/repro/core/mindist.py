"""ComputeMinDist: the pairwise minimum-interval matrix (Section 2.2).

For a candidate initiation interval II, ``MinDist[i, j]`` is the minimum
permissible interval between the scheduled time of operation ``i`` and the
scheduled time of operation ``j`` *of the same iteration*.  An edge ``e``
from ``i`` to ``j`` contributes ``delay(e) - II * distance(e)``; MinDist is
the all-pairs longest path under these weights (the (max, +) closure),
computed Floyd-Warshall style.

A positive diagonal entry means some recurrence circuit requires an
operation to be scheduled after itself — the II is infeasible.  The RecMII
is the smallest II with no positive diagonal entry.

The per-loop pipeline asks MinDist only what the paper asks of it:

* the RecMII (:mod:`repro.core.mii`) reads the diagonal of
  :func:`compute_mindist` run on one SCC at a time;
* the schedule-length bound (Section 4.2) needs the single entry
  ``MinDist[START, STOP]``, and the exact backend's per-operation time
  windows need the START row and the STOP column.  Those are
  single-source longest paths, answered by :func:`single_source_mindist`
  (Bellman-Ford, O(N·E) on graphs with E ≈ N) and bit-identical to the
  corresponding entries of the full matrix at every feasible II.

:class:`ParametricMinDist` — Floyd-Warshall once per graph in the
semiring of upper envelopes of lines, so any ``MinDist(II)`` materializes
in O(N²·P) — is not on that path: per-SCC Floyd-Warshall beat it on the
RecMII and the single-source pass beat it on the bounds
(docs/PERFORMANCE.md).  It stays because the repository's benchmark
(``perfbench/bench.py``) screens its seeded synthetic inputs by the
closure's plane count, and runs of the benchmark on different commits
must draw identical corpora.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.deadline import Deadline, check_deadline
from repro.core.stats import Counters
from repro.ir.graph import DependenceGraph, GraphError

#: The matrix value standing for "no path from i to j".
NO_PATH = -np.inf


def compute_mindist(
    graph: DependenceGraph,
    ii: int,
    ops: Optional[Sequence[int]] = None,
    counters: Optional[Counters] = None,
    deadline: Optional[Deadline] = None,
) -> Tuple[np.ndarray, Dict[int, int]]:
    """Compute the MinDist matrix for ``ops`` (default: all operations).

    Returns ``(matrix, index_map)`` where ``index_map`` maps an operation
    index in the graph to its row/column in the matrix.  Only edges with
    both endpoints inside ``ops`` are considered, which is what the
    SCC-at-a-time RecMII computation needs.

    ``deadline`` (a cooperative :class:`repro.core.deadline.Deadline`)
    is checked once on entry and every 16 Floyd-Warshall pivot rows —
    this N³ pass is the hot spot a wall-clock watchdog must be able to
    interrupt (see :mod:`repro.analysis.resilience`).
    """
    if ii < 1:
        raise ValueError(f"II must be >= 1, got {ii}")
    check_deadline(deadline, "mindist")
    if ops is None:
        ops = range(graph.n_ops)
    ops = list(ops)
    index_map = {op: i for i, op in enumerate(ops)}
    n = len(ops)
    dist = np.full((n, n), NO_PATH, dtype=float)
    for op in ops:
        i = index_map[op]
        for edge in graph.succ_edges(op):
            j = index_map.get(edge.succ)
            if j is None:
                continue
            weight = edge.delay - ii * edge.distance
            if weight > dist[i, j]:
                dist[i, j] = weight

    # Floyd-Warshall in the (max, +) semiring.  The vectorized update
    # performs the same N^3 innermost-loop work the paper counts.
    for k in range(n):
        if deadline is not None and (k & 15) == 0:
            deadline.check("mindist")
        via_k = dist[:, k : k + 1] + dist[k : k + 1, :]
        np.maximum(dist, via_k, out=dist)
    if counters is not None:
        counters.mindist_inner += n * n * n
        counters.mindist_invocations += 1
    return dist, index_map


def mindist_feasible(dist: np.ndarray) -> bool:
    """True when no diagonal entry is positive (the II is feasible)."""
    return bool(np.all(np.diagonal(dist) <= 0))


def _prune_planes(
    vs: np.ndarray, ks: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Keep, per cell, only the Pareto frontier of the stacked lines.

    ``vs`` / ``ks`` are ``(P, n, n)`` coefficient stacks.  A line is
    ``(V, K)`` with ``V`` its value at II = 1 and ``K`` its distance
    (the negated slope); an absent line is ``(−inf, +inf)``.  Line *a*
    dominates line *b* at every integer II ≥ 1 iff ``K_a <= K_b`` and
    ``V_a >= V_b`` (smaller slope, no lower at the left end).  Sorting
    each cell by (K ascending, V descending) makes every potential
    dominator of a line precede it, so one running max of V decides
    survival; absent lines sort last and never survive.
    """
    finite = np.isfinite(vs)
    if finite.any():
        big = float(vs[finite].max() - vs[finite].min()) + 1.0
    else:
        big = 1.0
    # K and V are integer-valued, so K*big - V orders by (K asc, V desc):
    # consecutive K values differ by >= 1 and big exceeds the V spread.
    order = np.argsort(ks * big - vs, axis=0, kind="stable")
    vs = np.take_along_axis(vs, order, axis=0)
    ks = np.take_along_axis(ks, order, axis=0)
    cum = np.maximum.accumulate(vs, axis=0)
    keep = np.empty(vs.shape, dtype=bool)
    keep[0] = vs[0] > NO_PATH
    keep[1:] = vs[1:] > cum[:-1]
    new_p = max(1, int(keep.sum(axis=0).max()))
    front = np.argsort(~keep, axis=0, kind="stable")
    kept = np.take_along_axis(keep, front, axis=0)[:new_p]
    vs = np.where(kept, np.take_along_axis(vs, front, axis=0)[:new_p], NO_PATH)
    ks = np.where(kept, np.take_along_axis(ks, front, axis=0)[:new_p], np.inf)
    return vs, ks


class ParametricMinDist:
    """All-pairs MinDist as a function of II, closed once per graph.

    Floyd-Warshall in the semiring of upper envelopes of lines: a path
    with total delay D and total distance K is the line ``D − II·K``.
    Concatenation adds lines (Minkowski sum of the coefficient pairs);
    "take the longer path" is the pointwise max of envelopes, i.e. the
    union of line sets pruned to the Pareto frontier.  Internally a line
    is stored as ``(V, K)`` with ``V = D − K`` its value at II = 1 —
    both coordinates add under concatenation, which keeps the pivot
    update to two array additions.  Cells are stacked into P coefficient
    planes (P = the largest frontier anywhere in the matrix; P = 1 is
    the overwhelmingly common case and takes a cheaper in-place path).

    Evaluating the closure at a fixed integer II ≥ 1 is a semiring
    homomorphism onto the scalar (max, +) Floyd-Warshall, so
    :meth:`matrix` is bit-identical to :func:`compute_mindist` — at
    feasible *and* infeasible IIs, including −inf no-path cells.

    ``deadline`` is honored exactly like :func:`compute_mindist`: one
    check on entry and one every 16 pivot rows, tagged ``mindist``.
    """

    def __init__(
        self,
        graph: DependenceGraph,
        ops: Optional[Sequence[int]] = None,
        counters: Optional[Counters] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        check_deadline(deadline, "mindist")
        if ops is None:
            ops = range(graph.n_ops)
        self.graph = graph
        self.ops = tuple(ops)
        self.index_map: Dict[int, int] = {
            op: i for i, op in enumerate(self.ops)
        }
        self.n = len(self.ops)
        self.evals = 0
        self._build(counters, deadline)

    # -- construction --------------------------------------------------

    def _build(
        self, counters: Optional[Counters], deadline: Optional[Deadline]
    ) -> None:
        n = self.n
        # Seed each cell with the frontier of its (parallel) edge lines.
        cells: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
        for op in self.ops:
            i = self.index_map[op]
            for edge in self.graph.succ_edges(op):
                j = self.index_map.get(edge.succ)
                if j is None:
                    continue
                v = float(edge.delay - edge.distance)
                k = float(edge.distance)
                lines = cells.setdefault((i, j), [])
                if any(lk <= k and lv >= v for lv, lk in lines):
                    continue
                lines[:] = [
                    (lv, lk)
                    for lv, lk in lines
                    if not (k <= lk and v >= lv)
                ]
                lines.append((v, k))
        depth = max((len(lines) for lines in cells.values()), default=1)
        planes_v = [np.full((n, n), NO_PATH) for _ in range(depth)]
        planes_k = [np.full((n, n), np.inf) for _ in range(depth)]
        for (i, j), lines in cells.items():
            for p, (v, k) in enumerate(lines):
                planes_v[p][i, j] = v
                planes_k[p][i, j] = k

        V = np.stack(planes_v)  # (P, n, n) stacked coefficient planes
        K = np.stack(planes_k)
        # Per-(plane, op) presence of any finite entry in that op's
        # column/row, refreshed lazily: once the closure converges
        # (most pivots), V never mutates, so the same masks answer every
        # remaining pivot from plain python lists.
        alive = True  # force initial refresh
        for piv in range(n):
            if deadline is not None and (piv & 15) == 0:
                deadline.check("mindist")
            if alive:
                finite = V > NO_PATH
                col_alive = finite.any(axis=1).T.tolist()  # [op][plane]
                row_alive = finite.any(axis=2).T.tolist()
                alive = False
            # Only planes with a finite entry in the pivot column (paths
            # reaching the pivot) and row (paths leaving it) can route a
            # new path; their cross product — usually 1x1, never all P²
            # plane pairs — is the candidate set, batched into one
            # stack and screened by one dominance broadcast.
            cols = [p for p, a in enumerate(col_alive[piv]) if a]
            rows = [q for q, a in enumerate(row_alive[piv]) if a]
            if not (cols and rows):
                continue
            col_v = V[cols, :, piv][:, None, :, None]  # (Pc, 1, n, 1)
            col_k = K[cols, :, piv][:, None, :, None]
            row_v = V[rows, piv, :][None, :, None, :]  # (1, Pr, 1, n)
            row_k = K[rows, piv, :][None, :, None, :]
            cand_v = (col_v + row_v).reshape(-1, n, n)
            cand_k = (col_k + row_k).reshape(-1, n, n)
            # A candidate line only matters at cells where no current
            # line dominates it (dropping a dominated line never changes
            # the envelope at any integer II >= 1).
            improve = ~(
                (K[None, :] <= cand_k[:, None]) & (V[None, :] >= cand_v[:, None])
            ).any(axis=1)
            if not improve.any():
                continue
            # Merge each improving candidate: overwrite lines it
            # dominates, stage a sparse plane for the rest.  The batch
            # ``improve`` masks go stale as merges land, which at worst
            # appends an already-dominated line — the envelope (a max)
            # is unchanged, and pruning compacts it away.
            appends = []
            for c in np.flatnonzero(improve.any(axis=(1, 2))):
                cand_vc, cand_kc, imp = cand_v[c], cand_k[c], improve[c]
                for p in range(len(V)):
                    take = imp & (cand_kc <= K[p]) & (cand_vc >= V[p])
                    if take.any():
                        np.copyto(V[p], cand_vc, where=take)
                        np.copyto(K[p], cand_kc, where=take)
                        imp &= ~take
                        if not imp.any():
                            break
                if imp.any():
                    appends.append(
                        (
                            np.where(imp, cand_vc, NO_PATH),
                            np.where(imp, cand_kc, np.inf),
                        )
                    )
            alive = True
            if appends:
                V = np.concatenate([V] + [[a[0]] for a in appends])
                K = np.concatenate([K] + [[a[1]] for a in appends])
                if len(V) > 8:
                    V, K = _prune_planes(V, K)

        # Final compaction: lines dominated by later arrivals never
        # affect results, but fewer planes make every later
        # ``matrix(II)`` evaluation cheaper.
        if len(V) > 1:
            V, K = _prune_planes(V, K)
        self.n_planes = len(V)
        self._v = V
        stacked_k = K
        # Canonicalize absent lines to (V=-inf, K=0): evaluation then
        # yields -inf with no inf*0 hazards, with no masking per eval.
        self._k = np.where(np.isinf(stacked_k), 0.0, stacked_k)

        # Closed-form RecMII ingredients from the diagonal frontier:
        # a circuit line needs D - II*K <= 0, i.e. II >= ceil(D / K);
        # D > 0 with K == 0 is a zero-distance circuit no II satisfies.
        idx = np.arange(n)
        diag_v = self._v[:, idx, idx]
        diag_k = self._k[:, idx, idx]
        diag_d = diag_v + diag_k
        positive = diag_d > 0
        self._op_impossible = np.any(positive & (diag_k == 0), axis=0)
        required = np.ones_like(diag_d)
        bounded = positive & (diag_k > 0)
        required[bounded] = np.ceil(diag_d[bounded] / diag_k[bounded])
        per_op = (
            np.maximum(required.max(axis=0), 1.0)
            if n
            else np.ones(0, dtype=float)
        )
        self._op_crossing = np.where(self._op_impossible, np.inf, per_op)

        if counters is not None:
            counters.mindist_closure_inner += n * n * n

    # -- queries -------------------------------------------------------

    def matrix(
        self, ii: int, counters: Optional[Counters] = None
    ) -> np.ndarray:
        """Materialize MinDist at ``ii``: one vectorized max over planes.

        Bit-identical to ``compute_mindist(graph, ii, ops)[0]``.
        """
        if ii < 1:
            raise ValueError(f"II must be >= 1, got {ii}")
        dist = (self._v + (1.0 - ii) * self._k).max(axis=0)
        self.evals += 1
        if counters is not None:
            counters.mindist_parametric_evals += 1
        return dist

    def crossing(self, ops: Optional[Sequence[int]] = None) -> float:
        """Smallest integer II ≥ 1 with no positive diagonal over ``ops``.

        Returns ``inf`` when a zero-distance circuit with positive delay
        makes every II infeasible.  ``ops`` defaults to the closure's
        whole operation set; a subset answer is only meaningful when the
        subset is closed under paths of this closure's graph — an SCC,
        or a union of SCCs.  (Every path between two vertices of an SCC
        stays inside it, so the whole-graph closure's diagonal restricted
        to the SCC equals the SCC-subgraph closure's diagonal.)
        """
        if ops is None:
            per_op = self._op_crossing
        else:
            per_op = self._op_crossing[[self.index_map[op] for op in ops]]
        if per_op.size == 0:
            return 1.0
        return float(per_op.max())

    def feasible(self, ii: int, ops: Optional[Sequence[int]] = None) -> bool:
        """True when ``ii`` is at or past :meth:`crossing` (see its caveat)."""
        if ii < 1:
            raise ValueError(f"II must be >= 1, got {ii}")
        return ii >= self.crossing(ops)


def single_source_mindist(
    graph: DependenceGraph,
    ii: int,
    to_stop: bool = False,
    deadline: Optional[Deadline] = None,
) -> Optional[List]:
    """One MinDist row or column by Bellman-Ford longest paths.

    Returns a list indexed by operation: ``MinDist[START, op]`` for every
    ``op`` (or, with ``to_stop``, ``MinDist[op, STOP]``), :data:`NO_PATH`
    where no path exists, the source's own entry 0.  Arithmetic is on
    integers throughout.  At any II where the full matrix has no positive
    diagonal these are exactly the entries :func:`compute_mindist` holds.

    Returns ``None`` when the relaxation has not converged after N
    sweeps: a positive-weight circuit is reachable (in a sealed graph
    every circuit is), so ``ii`` is below the RecMII.  ``deadline`` is
    checked before every sweep.
    """
    if ii < 1:
        raise ValueError(f"II must be >= 1, got {ii}")
    edges = graph.edges
    tails = [e.pred for e in edges]
    heads = [e.succ for e in edges]
    source = graph.START
    if to_stop:
        # Walk the edges backwards from STOP.
        tails, heads = heads, tails
        source = graph.stop
    # Relax arcs in program order of their tail (latest first when
    # walking backwards): intra-iteration edges mostly run forward, so
    # most passes settle in one sweep (plus the one that confirms it).
    # Flat lists, not per-arc tuples, keep the pass nearly free of
    # allocations the garbage collector tracks.
    order = sorted(range(len(edges)), key=tails.__getitem__, reverse=to_stop)
    us = [tails[i] for i in order]
    vs = [heads[i] for i in order]
    ws = [edges[i].delay - ii * edges[i].distance for i in order]
    n = graph.n_ops
    dist: List = [NO_PATH] * n
    dist[source] = 0
    for _ in range(n):
        check_deadline(deadline, "mindist")
        changed = False
        for u, v, weight in zip(us, vs, ws):
            candidate = dist[u] + weight
            if candidate > dist[v]:
                dist[v] = candidate
                changed = True
        if not changed:
            return dist
    return None


def schedule_length_lower_bound(
    graph: DependenceGraph,
    ii: int,
    obs=None,
    deadline: Optional[Deadline] = None,
) -> int:
    """MinDist[START, STOP]: the dependence-imposed lower bound on SL.

    The paper's lower bound on the modulo schedule length for a given II is
    the larger of this quantity and the acyclic list schedule length
    (Section 4.2); the baseline package provides the latter.  One
    single-source pass from START answers it (see
    :func:`single_source_mindist`); the value equals
    ``compute_mindist(graph, ii)[START, STOP]`` (0 when STOP is
    unreachable).  Raises :class:`~repro.ir.graph.GraphError` when
    ``ii`` is below the RecMII — the bound is undefined there.

    ``obs`` (an optional :class:`repro.obs.ObsContext`) receives one
    ``mindist.bound`` span per call.
    """
    from repro.obs.context import NULL_OBS

    obs = obs if obs is not None else NULL_OBS
    with obs.span("mindist.bound", ii=ii, n_ops=graph.n_ops) as span:
        row = single_source_mindist(graph, ii, deadline=deadline)
        if row is None:
            raise GraphError(
                f"graph {graph.name!r} has a positive dependence circuit "
                f"at II={ii}; the schedule-length bound needs II >= RecMII"
            )
        value = row[graph.stop]
        bound = 0 if value == NO_PATH else value
        span.set("bound", bound)
    return bound
