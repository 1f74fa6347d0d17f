"""State synthesis on uniformly coupled graphs.

Every edge of a graph carries the same exchange coupling, with Hamiltonian
H = 1/2 sum over edges of (X_u X_v + Y_u Y_v).  The all-zeros and all-ones
strings are null vectors, the dynamics commutes with the global spin flip,
and inside the single-excitation sector H acts as the adjacency matrix, so
single-site seeds evolve under e^{-iAt}.  This module evolves such seeds,
verifies a revival claim by its phase-aligned deviation, ships a small
library of verified path and grid instances, and extends any working graph
to its tensor powers.  A seed evolves as one column of e^{-iAt}, which
``numerics.propagator`` forms alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import propagator

MAX_POWER_VERTICES = 4096


@dataclass(frozen=True, eq=False)
class GraphSpec:
    """Simple undirected graph with its 0/1 adjacency matrix."""

    adjacency: np.ndarray

    def __post_init__(self):
        adjacency = np.asarray(self.adjacency, dtype=float)
        object.__setattr__(self, "adjacency", adjacency)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise ValueError("adjacency must be square")
        if self.n < 1:
            raise ValueError("need at least one vertex")
        if not np.array_equal(adjacency, adjacency.T):
            raise ValueError("adjacency must be exactly symmetric")
        if np.trace(adjacency) != 0.0:
            raise ValueError("self-loops are not allowed")
        if not np.all(np.isin(adjacency, (0.0, 1.0))):
            raise ValueError("adjacency entries must be 0 or 1")

    @property
    def n(self) -> int:
        """Vertex count."""
        return self.adjacency.shape[0]


def graph_from_edges(n: int, pairs) -> GraphSpec:
    """Build a graph from 1-indexed unordered vertex pairs."""
    adjacency = np.zeros((n, n))
    for u, v in pairs:
        u, v = int(u), int(v)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u}, {v}) leaves the vertex range 1..{n}")
        if u == v:
            raise ValueError("self-loops are not allowed")
        adjacency[u - 1, v - 1] = adjacency[v - 1, u - 1] = 1.0
    return GraphSpec(adjacency)


def path_graph(n: int) -> GraphSpec:
    return graph_from_edges(n, [(i, i + 1) for i in range(1, n)])


@dataclass(frozen=True, eq=False)
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
        if not abs(np.linalg.norm(target) - 1.0) <= 1e-10:
            raise ValueError("target must be normalized")
        if not self.deviation >= 0:
            raise ValueError("deviation must be non-negative")


def evolve_vertex(g: GraphSpec, v: int, t: float) -> np.ndarray:
    """Amplitude vector e^{-iAt}|v> in the single-excitation sector."""
    if not 1 <= v <= g.n:
        raise ValueError("source vertex out of range")
    return propagator(g.adjacency, t, v - 1)


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
    return GraphSpec(total)


def power_vertex(n: int, coords) -> int:
    """Flatten base-graph coordinates (1-indexed, first axis major) to a vertex."""
    index = 0
    for c in coords:
        if not 1 <= c <= n:
            raise ValueError("coordinate out of range")
        index = index * n + (c - 1)
    return index + 1


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
