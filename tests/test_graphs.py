
import numpy as np
import pytest
from scipy.linalg import expm

from spinforge.graphs import (
    GraphSpec,
    RevivalInstance,
    evolve_vertex,
    graph_from_edges,
    hypercube_power,
    path_graph,
    phase_aligned_deviation,
    power_vertex,
    revival_instance,
    standard_instances,
)


def random_graph(n, rng, p=0.5):
    pairs = [(u + 1, v + 1) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return graph_from_edges(n, pairs)


class TestGraphSpec:
    def test_path_structure(self):
        g = path_graph(4)
        assert np.array_equal(g.adjacency, np.eye(4, k=1) + np.eye(4, k=-1))

    def test_duplicate_and_reversed_edges_collapse(self):
        g = graph_from_edges(3, [(1, 2), (2, 1), (1, 2)])
        assert np.array_equal(g.adjacency, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            graph_from_edges(3, [(2, 2)])

    def test_vertex_range_checked(self):
        with pytest.raises(ValueError):
            graph_from_edges(3, [(1, 4)])

    def test_adjacency_consistency_enforced(self):
        with pytest.raises(ValueError, match="square"):
            GraphSpec(adjacency=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="square"):
            GraphSpec(adjacency=np.zeros(3))
        with pytest.raises(ValueError, match="symmetric"):
            GraphSpec(adjacency=[[0.0, 1.0], [0.0, 0.0]])

class TestEvolveVertex:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(int(rng.integers(2, 7)), rng)
        out = evolve_vertex(g, 1, float(rng.uniform(0.1, 5.0)))
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)

    def test_two_vertex_quarter_period(self):
        out = evolve_vertex(path_graph(2), 1, np.pi / 4)
        expected = np.array([1.0, -1.0j]) / np.sqrt(2.0)
        assert np.abs(out - expected).max() < 1e-12

    def test_matches_dense_exponential(self):
        rng = np.random.default_rng(3)
        g = random_graph(5, rng)
        t = 1.37
        u = expm(-1j * t * g.adjacency)
        assert np.abs(evolve_vertex(g, 2, t) - u[:, 1]).max() < 1e-12

    def test_non_orthonormal_eigenvectors_refused(self, monkeypatch):
        # the column is evolved from the eigenvectors alone, so they pass the
        # propagator's 1e-10 orthonormality gate first
        eigh = np.linalg.eigh

        def skewed(a):
            vals, vecs = eigh(a)
            return vals, vecs + 1e-9 * np.eye(len(vals))

        monkeypatch.setattr(np.linalg, "eigh", skewed)
        with pytest.raises(ValueError, match="not orthonormal"):
            evolve_vertex(path_graph(3), 1, 0.5)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_refused(self, t):
        with pytest.raises(ValueError, match="evolution time must be finite"):
            evolve_vertex(path_graph(3), 1, t)


class TestPhaseAlignment:
    def test_global_phase_ignored(self):
        rng = np.random.default_rng(4)
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        vec /= np.linalg.norm(vec)
        assert phase_aligned_deviation(np.exp(0.7j) * vec, vec) < 1e-12

    def test_detects_mismatch(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert phase_aligned_deviation(a, b) == pytest.approx(1.0)


class TestStandardInstances:
    def test_six_fixtures(self):
        assert len(standard_instances()) == 6

    @pytest.mark.parametrize("index", range(6))
    def test_deviation_within_tolerance(self, index):
        inst = standard_instances()[index]
        assert inst.deviation <= 1e-9

    def test_grid_spread_is_uniform(self):
        grid = [inst for inst in standard_instances() if inst.graph.n == 9][0]
        out = evolve_vertex(grid.graph, grid.source, grid.time)
        assert np.abs(np.abs(out) - 1.0 / 3.0).max() < 1e-10

    def test_cube_corners_are_uniform(self):
        cube = [inst for inst in standard_instances() if inst.graph.n == 27][0]
        out = evolve_vertex(cube.graph, cube.source, cube.time)
        corners = [power_vertex(3, (a, b, c)) - 1
                   for a in (1, 3) for b in (1, 3) for c in (1, 3)]
        magnitudes = np.abs(out)
        assert np.abs(magnitudes[corners] - 1 / np.sqrt(8)).max() < 1e-10
        off = np.delete(magnitudes, corners)
        assert off.max() < 1e-10


class TestHypercubePower:
    def test_first_power_is_identity(self):
        g = path_graph(3)
        assert hypercube_power(g, 1) is g

    def test_square_of_path_is_grid(self):
        grid = hypercube_power(path_graph(3), 2)
        assert grid.n == 9
        assert grid.adjacency.sum() == 2 * 12

    @pytest.mark.parametrize("seed,k", [(0, 2), (1, 2), (2, 3), (3, 3)])
    def test_amplitude_factorization(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6 - k // 3))
        g = random_graph(n, rng, p=0.6)
        t = float(rng.uniform(0.2, 2.0))
        u_base = expm(-1j * t * g.adjacency)
        u_power = expm(-1j * t * hypercube_power(g, k).adjacency)
        for _ in range(20):
            x = rng.integers(1, n + 1, size=k)
            y = rng.integers(1, n + 1, size=k)
            lhs = u_power[power_vertex(n, x) - 1, power_vertex(n, y) - 1]
            rhs = np.prod([u_base[a - 1, b - 1] for a, b in zip(x, y)])
            assert abs(lhs - rhs) < 1e-10

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            hypercube_power(path_graph(5), 6)

    def test_power_vertex_bounds(self):
        with pytest.raises(ValueError):
            power_vertex(3, (1, 4))


class TestInstanceReport:
    def test_instance_validation(self):
        with pytest.raises(ValueError):
            RevivalInstance(graph=path_graph(2), source=3,
                            target=np.array([1.0, 0.0]), time=1.0, deviation=0.0)
        with pytest.raises(ValueError):
            revival_instance(path_graph(2), 1, np.zeros(2), 1.0)

    def test_nan_deviation_or_target_refused(self):
        target = np.array([1.0, -1.0j]) / np.sqrt(2.0)
        with pytest.raises(ValueError, match="deviation must be non-negative"):
            RevivalInstance(graph=path_graph(2), source=1, target=target,
                            time=1.0, deviation=np.nan)
        with pytest.raises(ValueError, match="target must be normalized"):
            RevivalInstance(graph=path_graph(2), source=1,
                            target=np.array([np.nan, 1.0]), time=1.0, deviation=0.0)
