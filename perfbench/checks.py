"""Answer checks that do not trust the program under test.

Every ETA and every route's SPDis is compared with a ``scipy.sparse.csgraph``
Dijkstra over the edge weights the benchmark itself applied, so an answer
that was cached before an update and served after it fails.  Every route is
checked for its shape (a simple path with the right endpoints, made only of
existing edges), its distance (the sum of the current weights, at most
eta * SPDis) and its flow (the sum of the predicted flow at the query's time
slice).  A sampled subset of routes is checked against Eq. 1 over the first
``max_candidates`` simple paths that networkx's ``shortest_simple_paths``
enumerates within eta * SPDis.

Integer DIMACS-like weights make equal-length paths common, so the first
``max_candidates`` paths are only defined up to ties at the last distance.
The Eq. 1 check enumerates that whole tie class and accepts the answer only
if it is the Eq. 1 optimum for one admissible choice of tied paths.
"""

from __future__ import annotations

import itertools
import math

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: paths enumerated beyond ``max_candidates`` while resolving a tie class
#: before the check gives up and reports the query as unresolved
TIE_CAP = 256
#: largest number of tie-class subsets the exact Eq. 1 check tries
SUBSET_CAP = 20000


class GraphState:
    """Edge weights at one point of a run: base weights plus overrides."""

    def __init__(self, num_vertices: int, base: dict, overrides: dict) -> None:
        self.num_vertices = num_vertices
        self.weights = dict(base)
        self.weights.update(overrides)
        self._csr = None
        self._rows: dict[int, np.ndarray] = {}

    def weight(self, u: int, v: int) -> float | None:
        return self.weights.get((u, v) if u < v else (v, u))

    def _matrix(self):
        if self._csr is None:
            keys = np.array(list(self.weights.keys()), dtype=np.int64)
            vals = np.array(list(self.weights.values()), dtype=np.float64)
            rows = np.concatenate([keys[:, 0], keys[:, 1]])
            cols = np.concatenate([keys[:, 1], keys[:, 0]])
            n = self.num_vertices
            self._csr = csr_matrix(
                (np.concatenate([vals, vals]), (rows, cols)), shape=(n, n)
            )
        return self._csr

    def prefetch(self, sources) -> None:
        """Run one multi-source Dijkstra for every source not yet cached."""
        todo = sorted({int(s) for s in sources} - self._rows.keys())
        if not todo:
            return
        table = dijkstra(self._matrix(), directed=False, indices=todo)
        for s, row in zip(todo, np.atleast_2d(table)):
            self._rows[s] = row

    def row(self, source: int) -> np.ndarray:
        if source not in self._rows:
            self.prefetch([source])
        return self._rows[source]

    def distance(self, u: int, v: int) -> float:
        return float(self.row(u)[v])


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_eta(state: GraphState, u: int, v: int, value: float) -> str | None:
    """``None`` when ``value`` is the exact current distance, else why not."""
    want = state.distance(u, v)
    if not _close(float(value), want):
        return f"eta({u},{v})={value} but Dijkstra says {want}"
    return None


def path_length(state: GraphState, path) -> float | None:
    total = 0.0
    for a, b in zip(path, path[1:]):
        w = state.weight(a, b)
        if w is None:
            return None
        total += w
    return total


def check_route(
    state: GraphState,
    flow_vector: np.ndarray,
    source: int,
    target: int,
    result,
    eta: float,
) -> str | None:
    """Shape, distance, bound and flow of one FSPQ answer."""
    path = tuple(result.path)
    if not path or path[0] != source or path[-1] != target:
        return f"route {source}->{target} has endpoints {path[:1]}..{path[-1:]}"
    if len(set(path)) != len(path):
        return f"route {source}->{target} repeats a vertex"
    length = path_length(state, path)
    if length is None:
        return f"route {source}->{target} uses a non-edge"
    spdis = state.distance(source, target)
    if not _close(result.shortest_distance, spdis):
        return (
            f"route {source}->{target} SPDis={result.shortest_distance} "
            f"but Dijkstra says {spdis}"
        )
    if not _close(result.distance, length):
        return (
            f"route {source}->{target} distance={result.distance} "
            f"but its edges sum to {length}"
        )
    if length > eta * spdis * (1 + 1e-12):
        return f"route {source}->{target} exceeds eta*SPDis"
    flow = float(sum(flow_vector[v] for v in path))
    if not _close(result.flow, flow):
        return f"route {source}->{target} flow={result.flow} but sums to {flow}"
    return None


def _restricted_graph(state: GraphState, source: int, target: int, bound: float):
    """The subgraph every simple path of length <= ``bound`` stays inside."""
    reach = state.row(source) + state.row(target)
    keep = set(np.flatnonzero(reach <= bound * (1 + 1e-12)).tolist())
    graph = nx.Graph()
    graph.add_nodes_from(keep)
    for (a, b), w in state.weights.items():
        if a in keep and b in keep:
            graph.add_edge(a, b, weight=w)
    return graph


def first_paths(
    state: GraphState, source: int, target: int, bound: float, k: int
) -> tuple[list[tuple[float, tuple]], bool]:
    """Paths in networkx order within ``bound``: the first ``k`` plus the
    whole tie class of the ``k``-th.  The flag is False when the tie class
    ran past :data:`TIE_CAP`."""
    graph = _restricted_graph(state, source, target, bound)
    out: list[tuple[float, tuple]] = []
    for path in nx.shortest_simple_paths(graph, source, target, weight="weight"):
        dist = path_length(state, path)
        if dist > bound * (1 + 1e-12):
            break
        if len(out) >= k and dist > out[k - 1][0]:
            break
        out.append((dist, tuple(path)))
        if len(out) > k + TIE_CAP:
            return out, False
    return out, True


def _eq1_best(members, spdis, max_distance, alpha):
    """Eq. 1 scores over one candidate set; returns (best key, by path)."""
    flows = [f for _, _, f in members]
    fmin, fmax = min(flows), max(flows)
    drange, frange = max_distance - spdis, fmax - fmin
    scores = {}
    best = None
    for dist, path, flow in members:
        d_term = (dist - spdis) / drange if drange > 0 else 0.0
        f_term = (flow - fmin) / frange if frange > 0 else 0.0
        score = alpha * d_term + (1.0 - alpha) * f_term
        scores[path] = score
        key = (score, dist, flow)
        if best is None or key < best:
            best = key
    return best, scores


def check_optimal(
    state: GraphState,
    flow_vector: np.ndarray,
    source: int,
    target: int,
    result,
    eta: float,
    alpha: float,
    max_candidates: int,
) -> tuple[str | None, bool]:
    """Eq. 1 optimality of an unpruned answer over the first candidates.

    Returns ``(problem, resolved)``; ``resolved`` is False only when the
    tie class at the cut was too large to decide (the answer then counts
    as checked by :func:`check_route` alone).
    """
    spdis = state.distance(source, target)
    bound = eta * spdis
    paths, complete = first_paths(state, source, target, bound, max_candidates)
    if not complete:
        return None, False
    members = [
        (d, p, float(sum(flow_vector[v] for v in p))) for d, p in paths
    ]
    answer = tuple(result.path)
    k = max_candidates
    if len(members) <= k:
        options = [members]
    else:
        cut = members[k - 1][0]
        below = [m for m in members if m[0] < cut]
        ties = [m for m in members if m[0] == cut]
        need = k - len(below)
        if math.comb(len(ties), need) > SUBSET_CAP:
            return None, False
        options = (below + list(c) for c in itertools.combinations(ties, need))
    for option in options:
        if answer not in {p for _, p, _ in option}:
            continue
        best, scores = _eq1_best(option, spdis, bound, alpha)
        if _close(result.score, best[0], 1e-9) and _close(
            scores[answer], best[0], 1e-9
        ):
            return None, True
    return (
        f"route {source}->{target} score={result.score} is not the Eq. 1 "
        f"minimum over the first {k} paths",
        True,
    )


def check_in_prefix(
    state: GraphState,
    source: int,
    target: int,
    result,
    max_candidates: int,
) -> tuple[str | None, bool]:
    """A pruned (lossy) answer must be one of the first candidates."""
    answer = tuple(result.path)
    length = path_length(state, answer)
    graph = _restricted_graph(state, source, target, length)
    shorter = seen = 0
    for path in nx.shortest_simple_paths(graph, source, target, weight="weight"):
        dist = path_length(state, path)
        if dist > length:
            break
        if tuple(path) == answer:
            return None, True
        shorter += dist < length
        seen += 1
        if shorter >= max_candidates:
            break
        if seen > max_candidates + TIE_CAP:
            return None, False
    return (
        f"route {source}->{target} is not among the first "
        f"{max_candidates} simple paths",
        True,
    )
