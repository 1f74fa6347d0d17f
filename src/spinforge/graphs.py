"""State synthesis on uniformly coupled graphs.

Every edge of a graph carries the same exchange coupling, with Hamiltonian
H = 1/2 sum over edges of (X_u X_v + Y_u Y_v).  The all-zeros and all-ones
strings are null vectors, the dynamics commutes with the global spin flip,
and inside the single-excitation sector H acts as the adjacency matrix, so
single-site seeds evolve under e^{-iAt}.  This module checks which uniform
superpositions a graph can reach, ships a small library of verified path
and grid instances, and extends any working graph to its tensor powers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

MAX_POWER_VERTICES = 4096


@dataclass(frozen=True)
class GraphSpec:
    """Simple undirected graph with its 0/1 adjacency matrix."""

    n: int
    edges: tuple
    adjacency: np.ndarray

    def __post_init__(self):
        adjacency = np.asarray(self.adjacency, dtype=float)
        object.__setattr__(self, "adjacency", adjacency)
        if self.n < 1:
            raise ValueError("need at least one vertex")
        if adjacency.shape != (self.n, self.n):
            raise ValueError("adjacency shape must match the vertex count")
        if not np.array_equal(adjacency, adjacency.T):
            raise ValueError("adjacency must be exactly symmetric")
        if np.trace(adjacency) != 0.0:
            raise ValueError("self-loops are not allowed")
        if not np.all(np.isin(adjacency, (0.0, 1.0))):
            raise ValueError("adjacency entries must be 0 or 1")
        rebuilt = np.zeros((self.n, self.n))
        for u, v in self.edges:
            rebuilt[u - 1, v - 1] = rebuilt[v - 1, u - 1] = 1.0
        if not np.array_equal(rebuilt, adjacency):
            raise ValueError("edge list and adjacency disagree")


def graph_from_edges(n: int, pairs) -> GraphSpec:
    """Build a graph from 1-indexed unordered vertex pairs."""
    edges = set()
    for u, v in pairs:
        u, v = int(u), int(v)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u}, {v}) leaves the vertex range 1..{n}")
        if u == v:
            raise ValueError("self-loops are not allowed")
        edges.add((min(u, v), max(u, v)))
    adjacency = np.zeros((n, n))
    for u, v in edges:
        adjacency[u - 1, v - 1] = adjacency[v - 1, u - 1] = 1.0
    return GraphSpec(n=n, edges=tuple(sorted(edges)), adjacency=adjacency)


def graph_from_edge_list(text: str) -> GraphSpec:
    """Parse the edge-list format: first line n, then one `u v` pair per line."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty edge-list document")
    try:
        n = int(lines[0])
    except ValueError as err:
        raise ValueError("first line must be the vertex count") from err
    pairs = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"expected 'u v', got {line!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    return graph_from_edges(n, pairs)


def path_graph(n: int) -> GraphSpec:
    return graph_from_edges(n, [(i, i + 1) for i in range(1, n)])


@dataclass(frozen=True)
class RevivalInstance:
    """A verified single-seed synthesis: graph, seed vertex, target, time."""

    graph: GraphSpec
    source: int
    target: np.ndarray
    time: float
    deviation: float

    def __post_init__(self):
        target = np.asarray(self.target, dtype=complex)
        object.__setattr__(self, "target", target)
        if not 1 <= self.source <= self.graph.n:
            raise ValueError("source vertex out of range")
        if target.shape != (self.graph.n,):
            raise ValueError("target length must match the vertex count")
        if abs(np.linalg.norm(target) - 1.0) > 1e-10:
            raise ValueError("target must be normalized")
        if self.deviation < 0:
            raise ValueError("deviation must be non-negative")


def evolve_vertex(g: GraphSpec, v: int, t: float) -> np.ndarray:
    """Amplitude vector e^{-iAt}|v> in the single-excitation sector."""
    if not 1 <= v <= g.n:
        raise ValueError("source vertex out of range")
    vals, vecs = np.linalg.eigh(g.adjacency)
    phases = np.exp(-1j * t * vals)
    return vecs @ (phases * vecs[v - 1].conj())


def phase_aligned_deviation(output: np.ndarray, target: np.ndarray) -> float:
    """Largest amplitude error after fitting one global phase.

    The fitted phase maximizes the overlap with the target, so states that
    agree up to a global phase report zero.
    """
    output = np.asarray(output, dtype=complex)
    target = np.asarray(target, dtype=complex)
    overlap = np.vdot(target, output)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-300 else 1.0
    return float(np.abs(output - phase * target).max())


def revival_instance(g: GraphSpec, source: int, target, time: float) -> RevivalInstance:
    """Verify a synthesis claim and freeze it with its measured deviation."""
    target = np.asarray(target, dtype=complex)
    norm = np.linalg.norm(target)
    if norm <= 1e-300:
        raise ValueError("target must not vanish")
    target = target / norm
    deviation = phase_aligned_deviation(evolve_vertex(g, source, time), target)
    return RevivalInstance(graph=g, source=source, target=target,
                           time=time, deviation=deviation)


def locate_revival_time(g: GraphSpec, source: int, target,
                        t_max: float, samples: int = 4001) -> float:
    """Numerically find the time of best overlap with a target in (0, t_max].

    A dense scan brackets the best revival, a bounded scalar optimization
    narrows it, and Newton steps on the stationarity condition polish the
    peak to machine precision (value-only search saturates at the square
    root of machine epsilon near a quadratic maximum); useful for
    cross-checking quoted times.
    """
    from scipy.optimize import minimize_scalar  # a large import, paid only here

    target = np.asarray(target, dtype=complex)
    target = target / np.linalg.norm(target)
    vals, vecs = np.linalg.eigh(g.adjacency)
    weights = vecs[source - 1].conj() * (vecs.conj().T @ target)

    def overlap_sq(t):
        return -abs(np.sum(weights.conj() * np.exp(-1j * t * vals))) ** 2

    grid = np.linspace(0.0, t_max, samples)[1:]
    best = grid[np.argmin([overlap_sq(t) for t in grid])]
    step = t_max / (samples - 1)
    result = minimize_scalar(overlap_sq, bounds=(max(best - step, 0.0), best + step),
                             method="bounded", options={"xatol": 1e-10})
    t = float(result.x)
    for _ in range(8):
        phases = np.exp(-1j * t * vals)
        f = np.sum(weights.conj() * phases)
        df = np.sum(weights.conj() * (-1j * vals) * phases)
        ddf = np.sum(weights.conj() * (-vals ** 2) * phases)
        slope = 2.0 * np.real(np.conj(f) * df)
        curvature = 2.0 * np.real(np.conj(df) * df + np.conj(f) * ddf)
        if curvature >= 0.0 or abs(slope) < 1e-15:
            break
        t -= slope / curvature
    return t


def instance_report(inst: RevivalInstance) -> str:
    """JSON fixture record, including an independently located revival time."""
    located = locate_revival_time(inst.graph, inst.source, inst.target,
                                  t_max=2.0 * inst.time)
    return json.dumps({
        "vertices": inst.graph.n,
        "edges": [list(edge) for edge in inst.graph.edges],
        "source": inst.source,
        "time": inst.time,
        "located_time": located,
        "deviation": inst.deviation,
        "target": [[float(a.real), float(a.imag)] for a in inst.target],
    })


# ---------------------------------------------------------------------------
# tensor powers


def hypercube_power(g: GraphSpec, k: int) -> GraphSpec:
    """k-fold Cartesian power of a graph.

    Vertices are k-tuples of the base vertices and the adjacency is the
    Kronecker sum of k copies of the base adjacency, so evolution proceeds
    independently along each axis and single-axis amplitudes multiply.
    """
    if k < 1:
        raise ValueError("power must be at least 1")
    if g.n ** k > MAX_POWER_VERTICES:
        raise ValueError(f"power graph exceeds {MAX_POWER_VERTICES} vertices")
    if k == 1:
        return g
    adjacency = g.adjacency
    eye = np.eye(g.n)
    total = adjacency
    for _ in range(k - 1):
        total = np.kron(total, eye) + np.kron(np.eye(total.shape[0]), adjacency)
    pairs = [(int(u) + 1, int(v) + 1) for u, v in zip(*np.nonzero(np.triu(total)))]
    return graph_from_edges(g.n ** k, pairs)


def power_vertex(n: int, coords) -> int:
    """Flatten base-graph coordinates (1-indexed, first axis major) to a vertex."""
    index = 0
    for c in coords:
        if not 1 <= c <= n:
            raise ValueError("coordinate out of range")
        index = index * n + (c - 1)
    return index + 1


# ---------------------------------------------------------------------------
# synthesis conditions


@dataclass(frozen=True)
class ConditionReport:
    """Eigenspace-by-eigenspace synthesis diagnostics for one task.

    ``signs`` holds the fitted +-1 per eigenvalue group (0 marks groups
    where the seed has no weight, which the conditions do not constrain);
    residuals are reported against the matched sign and the common phase.
    """

    passed: bool
    eigenvalues: np.ndarray
    signs: np.ndarray
    overlap_residuals: np.ndarray
    phase_residuals: np.ndarray
    phi: float


def _eigenvalue_groups(vals: np.ndarray, tol: float) -> list:
    groups = [[0]]
    for i in range(1, vals.size):
        if vals[i] - vals[groups[-1][0]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def synthesis_condition_check(g: GraphSpec, v: int, psi, t0: float,
                              tol: float = 1e-8) -> ConditionReport:
    """Test whether a graph can evolve a seed vertex into a real target.

    The evolution reaches the target at time t0 exactly when, eigenspace by
    eigenspace, the seed and target projections agree up to a sign and the
    eigenvalue phases e^{-i lambda t0} reproduce those signs around one
    common global phase.  Eigenspaces carrying no seed weight are
    unconstrained and excluded from both checks.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (g.n,):
        raise ValueError("target length must match the vertex count")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("target must be normalized")
    if not 1 <= v <= g.n:
        raise ValueError("source vertex out of range")
    vals, vecs = np.linalg.eigh(g.adjacency)
    scale = max(np.abs(vals).max(), 1.0)
    groups = _eigenvalue_groups(vals, 1e-10 * scale)

    eigenvalues = np.empty(len(groups))
    signs = np.zeros(len(groups))
    overlap_residuals = np.zeros(len(groups))
    matched = []
    for i, group in enumerate(groups):
        block = vecs[:, group]
        seed_part = block @ block[v - 1]
        target_part = block @ (block.T @ psi)
        eigenvalues[i] = vals[group].mean()
        if np.abs(seed_part).max() <= tol:
            continue
        plus = np.abs(seed_part - target_part).max()
        minus = np.abs(seed_part + target_part).max()
        signs[i] = 1.0 if plus <= minus else -1.0
        overlap_residuals[i] = min(plus, minus)
        matched.append(i)

    phase_residuals = np.zeros(len(groups))
    phi = 0.0
    if matched:
        ring = np.array([signs[i] * np.exp(-1j * eigenvalues[i] * t0)
                         for i in matched])
        centre = ring.mean()
        phi = float(np.angle(centre)) if abs(centre) > 1e-300 else 0.0
        for i, z in zip(matched, ring):
            phase_residuals[i] = abs(z - np.exp(1j * phi))

    passed = (overlap_residuals.max(initial=0.0) <= tol
              and phase_residuals.max(initial=0.0) <= tol)
    return ConditionReport(passed=passed, eigenvalues=eigenvalues, signs=signs,
                           overlap_residuals=overlap_residuals,
                           phase_residuals=phase_residuals, phi=phi)


def _two_coloring(g: GraphSpec) -> Optional[np.ndarray]:
    colors = np.full(g.n, -1, dtype=int)
    for start in range(g.n):
        if colors[start] != -1:
            continue
        colors[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in np.nonzero(g.adjacency[u])[0]:
                if colors[w] == -1:
                    colors[w] = 1 - colors[u]
                    queue.append(int(w))
                elif colors[w] == colors[u]:
                    return None
    return colors


def bipartite_phase_guard(g: GraphSpec, psi, tol: float = 1e-10) -> bool:
    """Rule out equal-phase targets that straddle a bipartition.

    On a bipartite graph the two vertex classes acquire phases that differ
    by the evolution's parity structure, so a target whose supported
    amplitudes all share one phase cannot spread across both classes.
    Returns False for such targets; True otherwise, including on
    non-bipartite graphs where the rule does not apply.
    """
    colors = _two_coloring(g)
    if colors is None:
        return True
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (g.n,):
        raise ValueError("target length must match the vertex count")
    support = np.abs(psi) > tol
    if not support.any():
        return True
    phases = psi[support] / np.abs(psi[support])
    equal_phase = np.abs(phases - phases[0]).max() <= 1e-8
    straddles = len(set(colors[support])) > 1
    return not (equal_phase and straddles)


# ---------------------------------------------------------------------------
# shipped instances


def standard_instances() -> tuple:
    """The verified library of uniform-superposition syntheses.

    Four path instances plus two tensor powers of the three-vertex path:
    the 3 x 3 grid spreading the central seed over all nine vertices, and
    the cube of the path reviving uniformly on the eight corners.
    """
    p2, p3, p5 = path_graph(2), path_graph(3), path_graph(5)
    third_time = float(np.arccos(1.0 / np.sqrt(3.0)) / np.sqrt(2.0))
    instances = [
        revival_instance(p2, 1, np.array([1.0, -1.0j]), np.pi / 4),
        revival_instance(p3, 2, np.array([1.0, 0.0, 1.0]), np.pi / np.sqrt(8.0)),
        revival_instance(p3, 2, np.array([1.0, 1.0j, 1.0]), third_time),
        revival_instance(p5, 3, np.array([1.0, 1.0j, 0.0, 1.0j, 1.0]),
                         2.0 * np.pi / np.sqrt(27.0)),
    ]
    grid = hypercube_power(p3, 2)
    axis = np.array([1.0, 1.0j, 1.0])
    instances.append(revival_instance(grid, power_vertex(3, (2, 2)),
                                      np.kron(axis, axis), third_time))
    cube3 = hypercube_power(p3, 3)
    corner = np.array([1.0, 0.0, 1.0])
    instances.append(revival_instance(
        cube3, power_vertex(3, (2, 2, 2)),
        np.kron(corner, np.kron(corner, corner)), np.pi / np.sqrt(8.0)))
    return tuple(instances)
