"""Time stepping, adaptivity, termination detection and audits."""

import math

import numpy as np
import pytest

from tvheat import (Field, Interval, Power, Rectangle, SolverConfig,
                    WellStatus, Zero,
                    build_mesh, default_dictionary, energy, estimate_dp,
                    nehari_scale, run, step, detect_tmax,
                    gradient_bound_audit, l2_audit, well_invariance_audit,
                    well_status, write_trajectory_csv)
from tvheat import model, solver
from tvheat.mesh import Mesh
from tvheat.model import ExpPower, grad_p_norm
from tvheat.solver import SolverError, Status, StepFailureError


@pytest.fixture
def mesh():
    return build_mesh(Interval(1.0), 100)


def hat(mesh, amp=1.0):
    x = mesh.nodes[:, 0]
    return Field(mesh, amp * np.maximum(0.0, 1.0 - 2.0 * np.abs(x - 0.5)))


class TestConfig:
    def test_defaults(self):
        cfg = SolverConfig(p=1.5)
        assert cfg.dt_max == pytest.approx(cfg.T_end / 64.0)

    def test_invalid(self):
        with pytest.raises(SolverError):
            SolverConfig(p=1.0)
        with pytest.raises(SolverError):
            SolverConfig(p=1.5, eps=-1.0)
        with pytest.raises(SolverError):
            SolverConfig(p=1.5, dt0=2.0, T_end=1.0)

    @pytest.mark.parametrize("key, value", [
        ("eps", math.nan), ("eps", math.inf),
        ("energy_residual_tol", math.nan), ("energy_residual_tol", math.inf),
        ("energy_residual_tol", 0.0), ("energy_residual_tol", -1e-5),
        ("tol_ext", math.nan), ("tol_ext", math.inf), ("tol_ext", -math.inf),
        ("U_max", math.nan),
    ])
    def test_values_that_switch_off_a_check(self, key, value):
        # NaN fails every comparison: a NaN tolerance or threshold would
        # silently switch off the step gate, extinction or blow-up detection
        with pytest.raises(SolverError, match=key):
            SolverConfig(p=1.5, **{key: value})

    def test_replace_rederives_dt_max(self):
        cfg = SolverConfig(p=1.5, T_end=1.0)
        cfg2 = cfg.replace(T_end=2.0)
        assert cfg2.dt_max == pytest.approx(2.0 / 64.0)
        cfg3 = cfg.replace(eps=1e-3)
        assert cfg3.dt_max == cfg.dt_max

    def test_exit_codes(self):
        assert Status.EXIT_CODES == {"completed": 0, "extinct": 0,
                                     "blowup": 2, "step_failure": 3}


class TestStep:
    def test_heat_step_decays_sine(self, mesh):
        # one small implicit p=2 step approximates exp(-pi^2 dt) modal decay
        x = mesh.nodes[:, 0]
        u0 = Field(mesh, np.sin(np.pi * x)).constrained()
        cfg = SolverConfig(p=2.0, eps=0.0, dt0=1e-4)
        new = step(u0, 0.0, cfg, Zero())
        factor = new.values[mesh.interior_mask] / u0.values[mesh.interior_mask]
        assert np.allclose(factor, math.exp(-math.pi ** 2 * cfg.dt0),
                           rtol=1e-3)

    def test_step_dissipates_energy(self, mesh):
        cfg = SolverConfig(p=1.5, eps=1e-4, dt0=1e-4)
        u = hat(mesh)
        new = step(u, 0.0, cfg, Zero())
        residual = (mesh.quad_weights @ (new.values - u.values) ** 2 / cfg.dt0
                    + energy(new, 1.5, Zero()) - energy(u, 1.5, Zero()))
        # residual = dissipation + dE <= 0 means the step lost at least the
        # dissipated amount of energy
        assert residual <= 1e-8

    def test_p2_dense_oracle_2d(self):
        # the 2-D analogue of criterion 13: a dense backward-Euler heat step
        # with lumped mass, Dirichlet rows replaced by the identity
        mesh = build_mesh(Rectangle(1.0, 1.0), [6, 5])
        rng = np.random.default_rng(13)
        u0 = Field(mesh, rng.normal(size=mesh.n_nodes)).constrained()
        nl = Power(q=3.0)
        dt = 1e-3
        stepped = step(u0, 0.0, SolverConfig(p=2.0, eps=0.0, dt0=dt), nl)
        grads = np.stack([mesh.gradient(e) for e in np.eye(mesh.n_nodes)],
                         axis=-1)
        K = sum(D.T @ (mesh.element_volumes[:, None] * D)
                for D in np.moveaxis(grads, 1, 0))
        A = np.diag(mesh.quad_weights / dt) + K
        b = mesh.quad_weights * (u0.values / dt + nl.f(u0.values))
        for i in mesh.boundary_nodes:
            A[i, :] = 0.0
            A[i, i] = 1.0
            b[i] = 0.0
        ref = np.linalg.solve(A, b)
        assert np.abs(stepped.values - ref).max() <= 1e-12

    @pytest.mark.parametrize("domain, resolution",
                             [(Interval(1.0), 40), (Rectangle(1.0, 1.0), 8)],
                             ids=["interval", "rectangle"])
    def test_residual_gate_is_live(self, domain, resolution, monkeypatch):
        # a solution off by a relative 1e-6 must fail the 1e-10 gate
        mesh = build_mesh(domain, resolution)
        x = mesh.nodes
        u0 = Field(mesh, np.sin(np.pi * x).prod(axis=1)).constrained()
        cfg = SolverConfig(p=1.5, eps=1e-2, dt0=1e-3)
        solve = solver.solveh_banded
        step(u0, 0.0, cfg, Zero())
        monkeypatch.setattr(solver, "solveh_banded",
                            lambda *a, **kw: solve(*a, **kw) * (1.0 + 1e-6))
        with pytest.raises(StepFailureError, match="residual"):
            step(u0, 0.0, cfg, Zero())

    def test_non_finite_system_is_step_failure(self, mesh):
        # a reaction that overflowed to inf fails the step by name
        class Overflowed(Zero):
            def f(self, u):
                return np.where(u > 0.5, np.inf, 0.0)

        with pytest.raises(StepFailureError):
            step(hat(mesh), 0.0, SolverConfig(p=1.5), Overflowed())

    def test_unconstrained_state_rejected(self, mesh):
        cfg = SolverConfig(p=1.5)
        bad = Field(mesh, np.ones(mesh.n_nodes))
        with pytest.raises(SolverError):
            step(bad, 0.0, cfg, Zero())


class TestRun:
    def test_completed_heat_run(self, mesh):
        x = mesh.nodes[:, 0]
        u0 = Field(mesh, np.sin(np.pi * x)).constrained()
        cfg = SolverConfig(p=2.0, eps=0.0, T_end=0.05)
        traj = run(mesh, u0, cfg, Zero())
        assert traj.status.kind == "completed"
        assert traj.times[-1] == pytest.approx(0.05)
        assert traj.times == sorted(traj.times)
        assert detect_tmax(traj, cfg) == math.inf
        # decay tracks the heat kernel to the time-discretization error
        ref = math.exp(-math.pi ** 2 * 0.05)
        assert traj.snapshots[-1].sup == pytest.approx(ref, rel=5e-3)

    def test_extinction_detected(self, mesh):
        cfg = SolverConfig(p=1.05, eps=1e-4, T_end=2.0, tol_ext=1e-6)
        traj = run(mesh, hat(mesh), cfg, Zero())
        assert traj.status.kind == "extinct"
        assert traj.status.time < 2.0
        assert traj.snapshots[-1].sup <= 1e-6

    def test_blowup_detected(self, mesh):
        nl = Power(q=3.0)
        f = hat(mesh)
        t = nehari_scale(f, 1.5, nl)
        u0 = Field(mesh, 3.0 * t * f.values)
        cfg = SolverConfig(p=1.5, eps=1e-4, T_end=5.0, U_max=1e4)
        traj = run(mesh, u0, cfg, nl)
        assert traj.status.kind == "blowup"
        assert detect_tmax(traj, cfg) == traj.status.time
        assert traj.status.time < 5.0

    @pytest.mark.parametrize("amp", [3.0, 8.0])
    def test_reaction_overflow_is_blowup(self, mesh, amp):
        # f and F overflow far below U_max: a trial state with a non-finite
        # energy ends the run at the last accepted time, outside the ledger
        traj = run(mesh, hat(mesh, amp), SolverConfig(p=1.5),
                   ExpPower(3.0, 1.0))
        assert traj.status.kind == "blowup"
        assert traj.status.time == traj.snapshots[-1].time
        assert all(math.isfinite(s.E_p) and math.isfinite(s.I_p)
                   for s in traj.snapshots)

    def test_linear_solve_breakdown_is_step_failure(self):
        # eps = 0 on a flat profile: the capped coefficient swamps the mass
        # term and the banded Cholesky factorization breaks down
        mesh = build_mesh(Interval(1.0), 40)
        u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()
        traj = run(mesh, u0, SolverConfig(p=1.5, eps=0.0), Zero())
        assert traj.status.kind == "step_failure"
        assert traj.status.time == 0.0

    def test_linear_solve_breakdown_is_step_failure_2d(self):
        # the same degenerate solve on a rectangle, not a dt underflow
        mesh = build_mesh(Rectangle(1.0, 1.0), 8)
        u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()
        traj = run(mesh, u0, SolverConfig(p=1.5, eps=0.0), Zero())
        assert traj.status.kind == "step_failure"
        assert traj.status.time == 0.0

    def test_one_gradient_per_step(self, mesh, monkeypatch):
        # each state's gradient is kept and each state is evaluated once, in
        # its snapshot, so a step computes only its trial state's gradient
        # and energy
        calls = {"gradient": 0, "energy": 0, "step": 0}
        gradient, energy_, step_ = Mesh.gradient, model.energy, solver.step

        def counted_gradient(self, values):
            calls["gradient"] += 1
            return gradient(self, values)

        def counted_energy(*args, **kwargs):
            calls["energy"] += 1
            return energy_(*args, **kwargs)

        def counted_step(*args, **kwargs):
            calls["step"] += 1
            return step_(*args, **kwargs)

        monkeypatch.setattr(Mesh, "gradient", counted_gradient)
        monkeypatch.setattr(model, "energy", counted_energy)
        monkeypatch.setattr(solver, "step", counted_step)
        u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()
        traj = run(mesh, u0, SolverConfig(p=1.5, T_end=0.05), Zero())
        assert calls["step"] > len(traj.times) - 1   # some steps rejected
        assert calls["gradient"] == calls["step"] + 1
        assert calls["energy"] == calls["step"] + 1

    def test_checkpoint_times_are_hit(self, mesh):
        cfg = SolverConfig(p=2.0, eps=0.0, T_end=0.02,
                           checkpoint_times=(0.007, 0.013))
        x = mesh.nodes[:, 0]
        u0 = Field(mesh, np.sin(np.pi * x)).constrained()
        traj = run(mesh, u0, cfg, Zero())
        stored = [t for t, _ in traj.states]
        for target in (0.007, 0.013, 0.02):
            assert min(abs(t - target) for t in stored) < 1e-12


@pytest.fixture(scope="module")
def rect_run():
    # rect2d at 16^2: Power(3), p = 1.5, a tensor hat of amplitude 1
    mesh = build_mesh(Rectangle(1.0, 1.0), 16)
    x = mesh.nodes
    u0 = Field(mesh, np.maximum(0.0, 1.0 - 2.0 * np.abs(x - 0.5)).prod(axis=1))
    cfg, nl = SolverConfig(p=1.5, T_end=0.02), Power(q=3.0)
    return run(mesh, u0.constrained(), cfg, nl), cfg, nl


class TestLinearSolve:
    @pytest.mark.parametrize("lag", [1, 5, 20])
    def test_stale_factor_pcg_matches_direct_solve(self, rect_run, lag):
        traj, cfg, nl = rect_run
        t_old, old = traj.states[-2 - lag]
        t, state = traj.states[-2]
        dt = traj.times[-1] - t
        factor = solver.BandedFactor()
        step(old, t_old, cfg, nl, dt, factor=factor)   # factors old's matrix
        pcg = step(state, t, cfg, nl, dt, factor=factor)
        assert factor.factorizations == 1 and factor.iterations > 0
        direct = step(state, t, cfg, nl, dt)
        assert np.abs(pcg.values - direct.values).max() <= \
            1e-12 * np.abs(direct.values).max()

    @pytest.mark.parametrize("dt_factor, dt", [(1e-8, 1e-4), (1e-4, 1e-8)])
    def test_factor_from_a_far_dt_passes_the_gate(self, rect_run, dt_factor,
                                                  dt):
        # through PCG or the refactor fallback, step's residual gate passes
        traj, cfg, nl = rect_run
        t, state = traj.states[-2]
        factor = solver.BandedFactor()
        step(state, t, cfg, nl, dt_factor, factor=factor)
        new = step(state, t, cfg, nl, dt, factor=factor)
        direct = step(state, t, cfg, nl, dt)
        assert np.abs(new.values - direct.values).max() <= \
            1e-10 * np.abs(direct.values).max()

    def test_slow_solve_refactors_next_step(self, rect_run):
        # a factor from dt = 1e-8 needs more than PCG_REFACTOR_ITERS at
        # dt = 1e-4; the next step factors its own matrix and solves directly
        traj, cfg, nl = rect_run
        t, state = traj.states[-2]
        factor = solver.BandedFactor()
        step(state, t, cfg, nl, 1e-8, factor=factor)
        step(state, t, cfg, nl, 1e-4, factor=factor)
        its = factor.iterations
        assert its > solver.PCG_REFACTOR_ITERS
        step(state, t, cfg, nl, 1e-4, factor=factor)
        assert (factor.factorizations, factor.iterations) == (2, its)

    def test_one_solve_per_step_in_2d(self, monkeypatch):
        calls = {"solve": 0, "step": 0}
        solve, step_ = solver.solveh_banded, solver.step

        def counted_solve(*args, **kwargs):
            calls["solve"] += 1
            return solve(*args, **kwargs)

        def counted_step(*args, **kwargs):
            calls["step"] += 1
            return step_(*args, **kwargs)

        monkeypatch.setattr(solver, "solveh_banded", counted_solve)
        monkeypatch.setattr(solver, "step", counted_step)
        mesh = build_mesh(Rectangle(1.0, 1.0), 8)
        x = mesh.nodes
        u0 = Field(mesh, np.sin(np.pi * x).prod(axis=1)).constrained()
        traj = run(mesh, u0, SolverConfig(p=1.5, T_end=0.01), Power(q=3.0))
        assert calls["step"] >= len(traj.times) - 1 > 0
        assert calls["solve"] == calls["step"]
        assert traj.pcg_iterations > 0

    def test_runs_are_bit_identical(self, rect_run):
        # the factor belongs to one run: a second run starts afresh
        traj, cfg, nl = rect_run
        again = run(traj.mesh, traj.states[0][1], cfg, nl)
        assert again.times == traj.times
        assert np.array_equal(again.states[-1][1].values,
                              traj.states[-1][1].values)

    def test_2d_run_refactors_rarely(self, rect_run):
        traj, _, _ = rect_run
        assert traj.status.kind == "completed"
        assert 0 < traj.factorizations < len(traj.times) - 1
        assert traj.pcg_iterations > 0

    def test_1d_solves_directly(self, mesh):
        # every 1-D step is one tridiagonal factor-and-solve, no PCG
        traj = run(mesh, hat(mesh), SolverConfig(p=1.5, T_end=0.01), Zero())
        assert traj.pcg_iterations == 0
        assert traj.factorizations >= len(traj.times) - 1 > 0

    def test_1d_flat_extinction_time_unchanged(self):
        # criterion 1's run, pinned to the last bit: 1-D keeps LAPACK ptsv
        mesh = build_mesh(Interval(1.0), 400)
        u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()
        traj = run(mesh, u0, SolverConfig(p=1.01, eps=1e-4, T_end=1.0),
                   Zero())
        assert traj.status.kind == "extinct"
        assert traj.status.time == 0.47995975959075643


@pytest.fixture(scope="module")
def confined():
    mesh = build_mesh(Interval(1.0), 100)
    nl = Power(q=3.0)
    d_hat = estimate_dp(mesh, 1.5, nl, default_dictionary(mesh, 8))
    cfg = SolverConfig(p=1.5, eps=1e-4, T_end=0.05, tol_ext=1e-6)
    traj = run(mesh, hat(mesh, 0.01), cfg, nl, d_hat)
    return traj, nl, d_hat


class TestAudits:
    def test_well_invariance(self, confined):
        traj, nl, d_hat = confined
        audit = well_invariance_audit(traj, d_hat)
        assert audit["all_inside"]
        assert audit["worst_margin_E"] > 0
        assert audit["worst_margin_I"] > 0

    def test_l2_monotone(self, confined):
        traj, _, _ = confined
        audit = l2_audit(traj)
        assert audit["monotone"]
        assert audit["bounded_by_initial"]
        assert audit["i_positive_throughout"]
        assert audit["identity_rel_err"] < 1e-2

    def test_gradient_bound(self, confined):
        traj, nl, d_hat = confined
        audit = gradient_bound_audit(traj, nl.theta, d_hat)
        assert audit["holds"]
        assert audit["dissipation_below_level"]

    def test_gradient_bound_requires_theta_above_p(self, confined):
        traj, _, d_hat = confined
        with pytest.raises(SolverError):
            gradient_bound_audit(traj, 1.2, d_hat)

    def test_snapshot_audits_match_per_state_evaluation(self, confined):
        # reference: evaluate every stored state afresh; the second level
        # puts the early states outside the well
        traj, nl, d_hat = confined
        mid = traj.snapshots[len(traj.snapshots) // 2].E_p
        for level in (d_hat, mid):
            reps = [(t, well_status(f.copy(), 1.5, nl, level))
                    for t, f in traj.states]
            first = next(({"time": t, "status": r.status.value,
                           "margin_E": r.margin_E, "margin_I": r.margin_I}
                          for t, r in reps
                          if r.status is not WellStatus.INSIDE), None)
            audit = well_invariance_audit(traj, level)
            assert audit["worst_margin_E"] == min(r.margin_E for _, r in reps)
            assert audit["worst_margin_I"] == min(r.margin_I for _, r in reps)
            assert audit["first_violation"] == first
        assert first is not None
        audit = gradient_bound_audit(traj, nl.theta, d_hat)
        assert audit["max_grad_p_norm"] == max(
            grad_p_norm(f.copy(), 1.5) for _, f in traj.states)

    def test_audits_cover_every_accepted_state(self, mesh):
        cfg = SolverConfig(p=1.5, eps=1e-4, T_end=0.01, store_stride=3)
        traj = run(mesh, hat(mesh, 0.01), cfg, Power(q=3.0))
        audit = well_invariance_audit(traj, math.inf)
        assert audit["n_states"] == len(traj.snapshots) > len(traj.states)


class TestCsv:
    def test_format(self, mesh, tmp_path):
        cfg = SolverConfig(p=2.0, eps=0.0, T_end=0.01)
        x = mesh.nodes[:, 0]
        u0 = Field(mesh, np.sin(np.pi * x)).constrained()
        traj = run(mesh, u0, cfg, Zero())
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# format_version=1"
        assert lines[1] == "t,E_p,I_p,tv,l2,sup,dissipation_cum,dt"
        assert len(lines) == 2 + len(traj.snapshots)
        first = [float(v) for v in lines[2].split(",")]
        assert first[0] == 0.0 and len(first) == 8
