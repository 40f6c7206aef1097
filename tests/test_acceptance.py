"""Acceptance suite: one check per numbered criterion, each printing a
single pass/fail line on the terminal."""

import math
import time

import numpy as np
import pytest

from tvheat import (Annulus, ContinuationPlan, Field, Interval, Power,
                    SolverConfig, Zero, build_mesh, default_dictionary,
                    energy, estimate_dp, extract_flux, green_residual,
                    nehari_I, nehari_scale, radial_sup_bound_check, run,
                    run_continuation, step, gradient_bound_audit, l2_audit,
                    well_invariance_audit)
from tvheat.limit import flux_from_vectors
from tvheat.model import energy_derivative, grad_p_norm


RESULTS = []


def report(num, label, ok, detail=""):
    line = f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    RESULTS.append(line)
    print(line, flush=True)
    assert ok, line


def hat(mesh, amp=1.0):
    x = mesh.nodes[:, 0]
    lo, hi = x.min(), x.max()
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return Field(mesh, amp * np.maximum(0.0, 1.0 - np.abs(x - mid) / half))


class RootPower(Power):
    """``Power`` under another class: ``nehari_scale`` takes the closed form
    only for ``Power`` itself, so this reaction reaches the root finder."""


# ---------------------------------------------------------------------------
# Shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def flat_benchmark():
    """Flat initial profile on the unit interval, pure diffusion near p = 1."""
    mesh = build_mesh(Interval(1.0), 400)
    u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()
    cfg = SolverConfig(p=1.01, eps=1e-4, T_end=1.0)
    t0 = time.perf_counter()
    traj = run(mesh, u0, cfg, Zero())
    return traj, time.perf_counter() - t0


@pytest.fixture(scope="module")
def confined_run():
    """Small hat with a cubic reaction at p = 1.5, confined in the well."""
    mesh = build_mesh(Interval(1.0), 200)
    nl = Power(q=3.0)
    d_hat = estimate_dp(mesh, 1.5, nl, default_dictionary(mesh, 8))
    cfg = SolverConfig(p=1.5, eps=1e-4, T_end=1.0, tol_ext=1e-6,
                       dt0=5e-4, dt_max=1e-3)
    t0 = time.perf_counter()
    traj = run(mesh, hat(mesh, 0.01), cfg, nl, d_hat)
    return traj, nl, d_hat, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_01_flat_extinction(flat_benchmark):
    traj, elapsed = flat_benchmark
    ok = (traj.status.kind == "extinct"
          and abs(traj.status.time - 0.5) <= 0.025
          and elapsed < 10.0)
    report(1, "flat-profile extinction",
           ok, f"t_ext={traj.status.time:.4f}, {elapsed:.2f}s")


def test_criterion_02_energy_inequality(flat_benchmark, confined_run):
    worst = -math.inf
    elapsed_max = 0.0
    for traj, elapsed in ((flat_benchmark[0], flat_benchmark[1]),
                          (confined_run[0], confined_run[3])):
        E0 = traj.snapshots[0].E_p
        slack = 1e-3 * (1.0 + abs(E0))
        for s in traj.snapshots:
            worst = max(worst, s.dissipation_cum + s.E_p - E0 - slack)
        elapsed_max = max(elapsed_max, elapsed)
    ok = worst <= 0.0 and elapsed_max < 30.0
    report(2, "energy inequality", ok,
           f"worst slack excess {worst:.2e}, {elapsed_max:.2f}s")


def test_criterion_03_discrete_energy_identity():
    mesh = build_mesh(Interval(1.0), 100)
    x = mesh.nodes[:, 0]
    u = Field(mesh, np.sin(np.pi * x)).constrained()
    cfg = SolverConfig(p=2.0, eps=0.0, dt0=1e-4, energy_residual_tol=1e-8)
    nl = Zero()
    worst = -math.inf
    for k in range(100):
        new = step(u, k * cfg.dt0, cfg, nl)
        residual = (mesh.quad_weights @ (new.values - u.values) ** 2 / cfg.dt0
                    + energy(new, 2.0, nl) - energy(u, 2.0, nl))
        scale = 1.0 + abs(energy(new, 2.0, nl))
        worst = max(worst, residual / scale)
        u = new
    ok = worst <= 1e-8
    report(3, "discrete energy identity", ok,
           f"worst residual/scale {worst:.2e} over 100 steps")


def test_criterion_04_well_invariance(confined_run):
    traj, nl, d_hat, elapsed = confined_run
    audit = well_invariance_audit(traj, d_hat)
    ok = (audit["all_inside"] and audit["n_states"] >= 50
          and elapsed < 10.0)
    report(4, "well invariance", ok,
           f"{audit['n_states']} states inside, margin_E "
           f"{audit['worst_margin_E']:.3e}, {elapsed:.2f}s")


def test_criterion_05_l2_monotonicity(confined_run):
    traj = confined_run[0]
    audit = l2_audit(traj)
    ok = audit["monotone"] and audit["bounded_by_initial"]
    report(5, "L2 monotonicity", ok,
           f"max increase {audit['max_increase']:.2e}")


def test_criterion_06_gradient_bound(confined_run):
    traj, nl, d_hat, _ = confined_run
    audit = gradient_bound_audit(traj, nl.theta, d_hat)
    ok = audit["holds"] and audit["worst_margin"] > 0.0
    report(6, "gradient bound", ok,
           f"margin {audit['worst_margin']:.3e}, bound {audit['bound']:.3e}")


def test_criterion_07_flux_conditions():
    mesh = build_mesh(Interval(1.0), 400)
    u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()
    cfg = SolverConfig(p=1.5, eps=1e-4, T_end=0.41)
    plan = ContinuationPlan(
        u0, Zero(), cfg,
        p_sequence=tuple(1.0 + 2.0 ** (-m) for m in range(1, 7)),
        checkpoint_times=(0.4,))
    t0 = time.perf_counter()
    rep = run_continuation(plan)
    elapsed = time.perf_counter() - t0
    last = rep.records[-1]
    ok = (last.max_abs_z <= 1.05
          and last.alignment_min >= 0.95
          and last.boundary_sign_worst <= 0.05
          and elapsed < 60.0)
    report(7, "flux conditions at p->1", ok,
           f"max|z|={last.max_abs_z:.4f}, align={last.alignment_min:.4f}, "
           f"bnd={last.boundary_sign_worst:.4f}, {elapsed:.2f}s")


def test_criterion_08_level_boundedness():
    mesh = build_mesh(Interval(4.0), 200)
    nl = Power(q=3.0)
    dictionary = default_dictionary(mesh, 8)
    t0 = time.perf_counter()
    levels = [estimate_dp(mesh, 1.0 + 2.0 ** (-m), nl, dictionary)
              for m in range(1, 7)]
    elapsed = time.perf_counter() - t0
    M = max(levels)
    ratio = M / min(levels)
    ok = (all(math.isfinite(v) and v > 0 for v in levels)
          and ratio < 2.0 and elapsed < 20.0)
    report(8, "level boundedness", ok,
           f"M={M:.4f}, spread x{ratio:.3f}, {elapsed:.2f}s")


def test_criterion_09_nehari_closed_form():
    mesh = build_mesh(Interval(1.0), 50)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        phi = Field(mesh, rng.normal(size=mesh.n_nodes)).constrained()
        p = rng.uniform(1.05, 1.9)
        q = p + rng.uniform(0.2, 2.0)
        A = grad_p_norm(phi, p)
        B = mesh.integrate(np.abs(phi.values) ** q)
        closed = (A / B) ** (1.0 / (q - p))
        iterated = nehari_scale(phi, p, RootPower(q=q))
        worst = max(worst, abs(iterated - closed) / closed)
    ok = worst <= 1e-8
    report(9, "Nehari scaling closed form", ok, f"worst rel err {worst:.2e}")


def test_criterion_10_variational_derivative():
    mesh = build_mesh(Interval(1.0), 60)
    rng = np.random.default_rng(11)
    nl = Power(q=3.0)
    worst_fd = 0.0
    worst_id = 0.0
    for _ in range(20):
        u = Field(mesh, rng.normal(size=mesh.n_nodes)).constrained()
        v = Field(mesh, rng.normal(size=mesh.n_nodes)).constrained()
        p = rng.uniform(1.1, 1.9)
        h = 1e-6
        fd = (energy(Field(mesh, u.values + h * v.values), p, nl)
              - energy(Field(mesh, u.values - h * v.values), p, nl)) / (2 * h)
        der = energy_derivative(u, v, p, nl)
        worst_fd = max(worst_fd, abs(der - fd) / (1.0 + abs(fd)))
        I = nehari_I(u, p, nl)
        worst_id = max(worst_id,
                       abs(energy_derivative(u, u, p, nl) - I)
                       / (1.0 + abs(I)))
    ok = worst_fd <= 1e-5 and worst_id <= 1e-10
    report(10, "variational derivative", ok,
           f"fd err {worst_fd:.2e}, identity err {worst_id:.2e}")


def test_criterion_11_radial_sup_bound():
    rng = np.random.default_rng(13)
    worst = math.inf
    ok = True
    for dom in (Annulus(1.0, 2.0, dim=2), Annulus(0.5, 3.0, dim=3)):
        mesh = build_mesh(dom, 50)
        for _ in range(20):
            vals = rng.normal(size=mesh.n_nodes)
            rep = radial_sup_bound_check(Field(mesh, vals))
            ok = ok and rep["passes"]
            worst = min(worst, rep["worst_slack"])
    report(11, "radial sup bound", ok, f"worst slack {worst:.3e}")


def test_criterion_12_young_and_green():
    rng = np.random.default_rng(17)
    mesh = build_mesh(Interval(1.0), 80)
    worst_young = 0.0
    for p in (1.01, 1.1, 1.5):
        pc = p / (p - 1.0)
        for _ in range(50):
            u = Field(mesh, rng.normal(size=mesh.n_nodes)).constrained()
            g = mesh.gradient(u.values)
            mag = np.abs(g[:, 0])
            z = extract_flux(u, p, eps=0.0).z[:, 0]
            lhs = mag ** p / p + np.abs(z) ** pc / pc
            rhs = z * g[:, 0]
            gap = rhs - lhs   # Young: never positive; equality for this z
            scale = 1.0 + np.abs(lhs).max()
            worst_young = max(worst_young, np.abs(gap).max() / scale)
    worst_green = 0.0
    for _ in range(50):
        z = rng.normal(size=(mesh.n_elements, 1))
        w = Field(mesh, rng.normal(size=mesh.n_nodes))
        ff = flux_from_vectors(mesh, z)
        scale = (1.0 + np.abs(z).max()) * (1.0 + w.sup())
        worst_green = max(worst_green, green_residual(ff, w) / scale)
    ok = worst_young <= 1e-12 and worst_green <= 1e-10
    report(12, "Young equality and Green residual", ok,
           f"young {worst_young:.2e}, green {worst_green:.2e}")


def test_criterion_13_p2_oracle():
    mesh = build_mesh(Interval(1.0), 19)   # 20 nodes
    rng = np.random.default_rng(19)
    u0 = Field(mesh, rng.normal(size=mesh.n_nodes)).constrained()
    nl = Power(q=3.0)
    dt = 1e-3
    cfg = SolverConfig(p=2.0, eps=0.0, dt0=dt)
    stepped = step(u0, 0.0, cfg, nl)

    # independent dense backward-Euler heat step with lumped mass
    n = mesh.n_nodes
    K = np.zeros((n, n))
    # the dense gradient, one column per nodal unit vector
    grads = np.stack([mesh.gradient(e) for e in np.eye(n)], axis=-1)
    for Dd in np.moveaxis(grads, 1, 0):
        K += Dd.T @ (mesh.element_volumes[:, None] * Dd)
    A = np.diag(mesh.quad_weights / dt) + K
    b = mesh.quad_weights * (u0.values / dt + nl.f(u0.values))
    for i in mesh.boundary_nodes:
        A[i, :] = 0.0
        A[i, i] = 1.0
        b[i] = 0.0
    ref = np.linalg.solve(A, b)
    diff = np.abs(stepped.values - ref).max()
    ok = diff <= 1e-12
    report(13, "p=2 dense oracle", ok, f"max diff {diff:.2e}")
