"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints exactly one ``ACCEPTANCE k: PASS/FAIL`` line (echoed
again in the terminal summary) and enforces the stated tolerance and
runtime budget.  Criterion 2 is expected to fail: its four-step cycle
closes to (-1)**n times the identity, never to -i times the identity,
and the test records that honestly rather than weakening the check.
"""

import time

import numpy as np
import pytest

from spinforge.cloning import (
    analytic_fidelity,
    brute_force_pipeline,
    clone_report,
    design_w_chain,
    ghz_helper_chain,
    pipeline_run,
    profile_from_betas,
    symmetric_profile,
)
from spinforge.ghz_ising import (
    GHZ_TIME,
    IsingChain,
    dense_hamiltonian,
    ising_from_pst,
    mirror_deviation,
    overlap_estimate,
    overlap_exact,
    perturb_sweep,
)
from spinforge.graphs import (
    evolve_vertex,
    hypercube_power,
    path_graph,
    standard_instances,
)
from spinforge.isoflow import (
    interpolate_gamma,
    structure_residual,
    target_ladder,
    zy_ghz_overlap,
)
from spinforge.numerics import Chain, propagator
from spinforge.pst import standard_couplings, verify_mirror
from spinforge.synthesis import (
    NullVectorTask,
    boundary_value,
    synthesis_flow_nullvector,
    wstate_chain,
)

RESULTS = {}


def record(k: int, ok: bool, detail: str = "") -> None:
    RESULTS[k] = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {k}: {RESULTS[k]}")
    assert ok, f"criterion {k} failed: {detail}" if detail else f"criterion {k} failed"


def random_qubit(rng) -> np.ndarray:
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    return psi / np.linalg.norm(psi)


def test_criterion_01_mirror_transfer_all_sizes():
    start = time.perf_counter()
    worst = max(verify_mirror(standard_couplings(n)) for n in range(2, 65))
    elapsed = time.perf_counter() - start
    record(1, worst <= 1e-9 and elapsed < 1.0,
           f"worst residual {worst:.3e}, {elapsed:.2f} s")


def test_criterion_02_exact_overlap_component():
    """The attainable half of criterion 2, kept green on its own."""
    for n in range(3, 11):
        chain = ising_from_pst(standard_couplings(2 * n))
        assert overlap_exact(chain) >= 1 - 1e-8


@pytest.mark.xfail(
    strict=True,
    reason="the four-step cycle closes to (-1)**n times the identity "
           "(verified to 1e-13 for every n), never to -i times the identity",
)
def test_criterion_02_exact_ghz_and_cycle_closure():
    start = time.perf_counter()
    worst_overlap_gap = 0.0
    worst_closure = 0.0
    for n in range(3, 11):
        chain = ising_from_pst(standard_couplings(2 * n))
        worst_overlap_gap = max(worst_overlap_gap,
                                1.0 - overlap_exact(chain))
        u4 = propagator(dense_hamiltonian(chain), 4 * GHZ_TIME)
        closure = np.abs(u4 - (-1j) * np.eye(u4.shape[0])).max()
        worst_closure = max(worst_closure, closure)
    elapsed = time.perf_counter() - start
    record(2, worst_overlap_gap <= 1e-8 and worst_closure <= 1e-8
           and elapsed < 30.0,
           f"overlap gap {worst_overlap_gap:.3e}, "
           f"closure deviation {worst_closure:.3e}, {elapsed:.2f} s")


def test_criterion_03_ghz_at_scale():
    start = time.perf_counter()
    chain = ising_from_pst(standard_couplings(42))
    deviation = mirror_deviation(chain)
    overlap = overlap_estimate(chain)
    elapsed = time.perf_counter() - start
    record(3, deviation <= 1e-9 and abs(overlap - 1.0) <= 1e-6
           and elapsed < 1.0,
           f"deviation {deviation:.3e}, overlap {overlap!r}, {elapsed:.2f} s")


def test_criterion_04_robustness_sweep():
    start = time.perf_counter()
    means = np.array([point.mean for point in
                      perturb_sweep(21, [float(x) for x in range(11)], 1000, seed=0)])
    elapsed = time.perf_counter() - start
    monotone = bool((np.diff(means) <= 1e-12).all())
    record(4, means[0] == 1.0 and monotone and elapsed < 300.0,
           f"means {np.round(means, 4)}, {elapsed:.1f} s")


def test_criterion_05_estimator_tracks_brute_force():
    rng = np.random.default_rng(505)
    hits = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        x = float(rng.uniform(0.0, 5.0))
        base = ising_from_pst(standard_couplings(2 * n))
        band = base.band()
        u = rng.uniform(-1.0, 1.0, band.size)
        perturbed = band * (1.0 + (x / 100.0) * u)
        chain = IsingChain(fields=perturbed[0::2], couplings=perturbed[1::2])
        gap = abs(overlap_estimate(chain) - overlap_exact(chain))
        hits += gap <= 0.05
    record(5, hits >= 90, f"{hits}/100 within 0.05")


def test_criterion_06_gamma_interpolation():
    start = time.perf_counter()
    big, _ = interpolate_gamma(21, 0.0, 0.7)
    sv_drift = np.abs(big.singular_values() - target_ladder(21)).max()
    residual = structure_residual(big)
    small, _ = interpolate_gamma(6, 0.0, 0.5)
    overlap = zy_ghz_overlap(small)
    elapsed = time.perf_counter() - start
    record(6, sv_drift <= 1e-6 and residual <= 1e-6 and overlap >= 0.999
           and elapsed < 120.0,
           f"sv drift {sv_drift:.3e}, residual {residual:.3e}, "
           f"overlap {overlap:.6f}, {elapsed:.1f} s")


def test_criterion_07_uniform_odd_site_revival():
    start = time.perf_counter()
    design = wstate_chain(21)
    elapsed = time.perf_counter() - start
    record(7, design.overlap >= 0.999 and design.half_overlap >= 0.999
           and elapsed < 600.0,
           f"overlap {design.overlap:.6f}, half {design.half_overlap:.6f}, "
           f"{elapsed:.1f} s")


def test_criterion_08_cloning_fidelities():
    start = time.perf_counter()
    checks = []

    for n_clones, expected in ((2, 5.0 / 6.0), (3, 7.0 / 9.0)):
        p = symmetric_profile(n_clones)
        w = design_w_chain(p)
        report = clone_report(ghz_helper_chain(p.m), w, p, method="brute_force")
        checks.append(np.abs(report.fidelities - expected).max() <= 1e-9)

    p11 = symmetric_profile(11)
    w11 = design_w_chain(p11)
    compressed = clone_report(ghz_helper_chain(p11.m), w11, p11)
    checks.append(np.abs(compressed.fidelities - 23.0 / 33.0).max() <= 1e-6)

    rng = np.random.default_rng(808)
    profiles = [np.array([2.0, 1.0, 1.0])]
    profiles += [rng.uniform(0.3, 1.0, size=3) for _ in range(2)]
    for raw in profiles:
        p = profile_from_betas(raw)
        w = design_w_chain(p)
        report = clone_report(ghz_helper_chain(p.m), w, p, method="brute_force")
        analytic = np.array([analytic_fidelity(p, c) for c in (1, 2, 3)])
        checks.append(np.abs(report.fidelities - analytic).max() <= 1e-9)

    elapsed = time.perf_counter() - start
    record(8, all(checks) and elapsed < 120.0,
           f"checks {checks}, {elapsed:.1f} s")


def test_criterion_09_compressed_equals_brute_force():
    worst = 0.0
    for m in (3, 5, 7, 9, 11, 13):
        for case in range(20):
            rng = np.random.default_rng([9, m, case])
            p = profile_from_betas(rng.uniform(0.2, 1.0, size=(m + 1) // 2))
            ghz = ghz_helper_chain(m)
            w = Chain(rng.uniform(0.3, 1.2, size=m - 1))
            k = int(rng.integers(0, m - 1))
            t = float(rng.uniform(0.5, 3.0))
            psi = random_qubit(rng)
            out = pipeline_run(ghz, w, p, psi, k=k, w_time=t,
                               stage_tol=None)
            oracle = brute_force_pipeline(ghz, w, p, psi, k=k, w_time=t)
            worst = max(worst, float(np.abs(out.embed() - oracle).max()))
    record(9, worst <= 1e-8, f"worst deviation {worst:.3e}")


def test_criterion_10_five_site_case_study():
    start = time.perf_counter()
    spectrum = np.array([-5.0, -3.0, 0.0, 3.0, 5.0])
    checks = []

    def embed_odd(v):
        full = np.zeros(5)
        full[0::2] = v
        return full

    rng = np.random.default_rng(1010)
    found = 0
    while found < 4:
        v = np.abs(rng.normal(size=3))
        v /= np.linalg.norm(v)
        if boundary_value(v[1] / v[0], v[1] / v[2]) < 0.05:
            continue
        found += 1
        target = embed_odd(v * np.array([1.0, -1.0, 1.0]))
        chain, report = synthesis_flow_nullvector(
            NullVectorTask(spectrum=spectrum, target_null_vector=target))
        checks.append(report.status == "converged" and report.chi >= 1 - 1e-6)
        checks.append(abs(np.sum(chain.couplings ** 2) - 34.0) <= 1e-6)

    forbidden = embed_odd(np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0))
    chain, report = synthesis_flow_nullvector(
        NullVectorTask(spectrum=spectrum, target_null_vector=forbidden))
    j = chain.couplings
    landing = boundary_value(abs(j[0] / j[1]), abs(j[3] / j[2]))
    checks.append(report.status == "stalled")
    checks.append(abs(landing) <= 1e-3)
    checks.append(abs(np.sum(j ** 2) - 34.0) <= 1e-6)

    elapsed = time.perf_counter() - start
    record(10, all(checks) and elapsed < 60.0,
           f"checks {checks}, boundary landing {landing:.2e}, {elapsed:.1f} s")


def test_criterion_11_graph_fixtures():
    start = time.perf_counter()
    instances = standard_instances()
    checks = [len(instances) == 6]
    checks += [inst.deviation <= 1e-9 for inst in instances]

    for base_size, k, t in ((2, 3, 0.7), (3, 2, 1.3), (3, 3, np.pi / np.sqrt(8))):
        base = path_graph(base_size)
        power = hypercube_power(base, k)
        one = np.zeros(base_size)
        one[0] = 1.0
        factor = evolve_vertex(base, 1, t)
        product = factor
        for _ in range(k - 1):
            product = np.kron(product, factor)
        direct = evolve_vertex(power, 1, t)
        checks.append(np.abs(direct - product).max() <= 1e-10)

    elapsed = time.perf_counter() - start
    record(11, all(checks) and elapsed < 10.0,
           f"checks {checks}, {elapsed:.2f} s")
