"""Time stepping, adaptivity, termination detection and audits."""

import hashlib
import math

import numpy as np
import pytest
from scipy.linalg import solveh_banded as lapack_solveh_banded

from tvheat import (Field, Interval, Power, Rectangle, SolverConfig,
                    WellStatus, Zero,
                    build_mesh, default_dictionary, energy, estimate_dp,
                    march, nehari_scale, run, step, detect_tmax,
                    gradient_bound_audit, l2_audit, well_invariance_audit,
                    well_status, write_trajectory_csv)
from tvheat import model, solver
from tvheat.mesh import Mesh
from tvheat.model import EnergySnapshot, ExpPower, grad_p_norm, \
    regularized_energy
from tvheat.solver import SolverError, Status, StepFailureError, Trajectory


@pytest.fixture
def mesh():
    return build_mesh(Interval(1.0), 100)


def hat(mesh, amp=1.0):
    x = mesh.nodes[:, 0]
    return Field(mesh, amp * np.maximum(0.0, 1.0 - 2.0 * np.abs(x - 0.5)))


def run_keeping_states(*args):
    """``run(*args)`` and every state it accepted, as (t, field) pairs from
    the initial state on. A plain run's ledger entries are the very
    snapshots ``solver.snapshot`` returned, so recording the field behind
    each snapshot maps ``traj.snapshots`` back to the states without
    changing the run."""
    evaluated = {}   # id(snapshot): (snapshot, field), each kept alive
    snapshot_ = solver.snapshot

    def recorded(field, *rest):
        snap = snapshot_(field, *rest)
        evaluated[id(snap)] = (snap, field)
        return snap

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "snapshot", recorded)
        traj = run(*args)
    return traj, [(s.time, evaluated[id(s)][1]) for s in traj.snapshots]


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
        ("dt_max", 0.0), ("dt_max", -1.0), ("dt_max", math.nan),
        ("dt_max", math.inf),
    ])
    def test_values_that_switch_off_a_check(self, key, value):
        # NaN fails every comparison: a NaN tolerance or threshold would
        # silently switch off the step gate, extinction or blow-up detection
        with pytest.raises(SolverError, match=key):
            SolverConfig(p=1.5, **{key: value})

    def test_derived_dt_max_is_checked(self):
        with pytest.raises(SolverError, match="dt_max"):
            SolverConfig(p=1.5, T_end=math.inf)

    @pytest.mark.parametrize("times", [(0.0,), (-1.0,), (math.nan,),
                                       (0.5, 1.5), (math.inf,)])
    def test_bad_checkpoint_times_rejected(self, times):
        # each used to be dropped without a word when the run began
        with pytest.raises(SolverError, match="checkpoint_times"):
            SolverConfig(p=1.5, T_end=1.0, checkpoint_times=times)
        with pytest.raises(SolverError, match="checkpoint_times"):
            SolverConfig(p=1.5, T_end=1.0).replace(checkpoint_times=times)

    def test_checkpoint_times_in_range_accepted(self):
        cfg = SolverConfig(p=1.5, T_end=1.0, checkpoint_times=(0.25, 1.0))
        assert cfg.checkpoint_times == (0.25, 1.0)

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

    @pytest.mark.parametrize("domain, resolution",
                             [(Interval(1.0), 40), (Rectangle(1.0, 1.0), 8)],
                             ids=["interval", "rectangle"])
    def test_residual_gate_is_live_for_one_member(self, domain, resolution,
                                                  monkeypatch):
        # one member's solution off by a relative 1e-6 fails the 1e-10 gate
        # alone: a stacked step returns its row as NaN, and the march stops
        # it with linear_solve while the others end as they would alone
        mesh = build_mesh(domain, resolution)
        u0 = Field(mesh, np.sin(np.pi * mesh.nodes).prod(axis=1)).constrained()
        cfgs = [SolverConfig(p=p, eps=(p - 1.0) ** 2, T_end=0.01)
                for p in (1.5, 1.25, 1.125)]
        alone = [run(mesh, u0, cfg, Zero()) for cfg in cfgs]
        solve = solver.solveh_banded

        def perturbed(band, rhs, *args):
            x = solve(band, rhs, *args)
            if x.ndim == 2 and len(x) == len(cfgs):   # the member is stacked
                x[1] *= 1.0 + 1e-6
            return x

        monkeypatch.setattr(solver, "solveh_banded", perturbed)
        stack = Field(mesh, np.broadcast_to(u0.values, (3, mesh.n_nodes)))
        new = step(stack, [0.0] * 3, cfgs, Zero(), [1e-3] * 3,
                   factor=[solver.BandedFactor() for _ in cfgs])
        assert np.isnan(new.values[1]).all()
        for i in (0, 2):
            ref = step(u0, 0.0, cfgs[i], Zero(), 1e-3,
                       factor=solver.BandedFactor())
            assert new.values[i].tobytes() == ref.values.tobytes()
        together = march(mesh, u0, cfgs, Zero())
        assert (together[1].status.kind, together[1].status.reason) == \
            ("step_failure", "linear_solve")
        assert together[1].times == [0.0]
        for i in (0, 2):
            traj, ref = together[i], alone[i]
            assert traj.status == ref.status
            assert (traj.times, traj.snapshots) == (ref.times, ref.snapshots)
            assert [(t, f.values.tobytes()) for t, f in traj.states] == \
                [(t, f.values.tobytes()) for t, f in ref.states]
            assert (traj.factorizations, traj.pcg_iterations) == \
                (ref.factorizations, ref.pcg_iterations)

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
        assert (traj.status.kind, traj.status.reason) == ("completed", "t_end")
        assert traj.times[-1] == pytest.approx(0.05)
        assert traj.times == sorted(traj.times)
        assert detect_tmax(traj) == math.inf
        # decay tracks the heat kernel to the time-discretization error
        ref = math.exp(-math.pi ** 2 * 0.05)
        assert traj.snapshots[-1].sup == pytest.approx(ref, rel=5e-3)

    def test_extinction_detected(self, mesh):
        cfg = SolverConfig(p=1.05, eps=1e-4, T_end=2.0, tol_ext=1e-6)
        traj = run(mesh, hat(mesh), cfg, Zero())
        assert (traj.status.kind, traj.status.reason) == ("extinct", "tol_ext")
        assert traj.status.time < 2.0
        assert traj.snapshots[-1].sup <= 1e-6

    def test_blowup_detected(self, mesh):
        nl = Power(q=3.0)
        f = hat(mesh)
        t = nehari_scale(f, 1.5, nl)
        u0 = Field(mesh, 3.0 * t * f.values)
        cfg = SolverConfig(p=1.5, eps=1e-4, T_end=5.0, U_max=1e4)
        traj = run(mesh, u0, cfg, nl)
        assert (traj.status.kind, traj.status.reason) == ("blowup", "u_max")
        assert traj.snapshots[-1].sup >= cfg.U_max
        assert detect_tmax(traj) == traj.status.time
        assert traj.status.time < 5.0

    @pytest.mark.parametrize("amp", [3.0, 8.0])
    def test_reaction_overflow_is_blowup(self, mesh, amp):
        # f and F overflow far below U_max: a trial state with a non-finite
        # energy ends the run at the last accepted time, outside the ledger
        traj = run(mesh, hat(mesh, amp), SolverConfig(p=1.5),
                   ExpPower(3.0, 1.0))
        assert (traj.status.kind, traj.status.reason) == \
            ("blowup", "energy_overflow")
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

    def test_dt_underflow_is_told_from_a_crossing(self, mesh):
        # no step passes a gate of 1e-300: dt0 = 1e-3 halves to 5e-4, below
        # dt_min, at t = 0 with sup far below U_max
        cfg = SolverConfig(p=1.5, dt0=1e-3, dt_min=6e-4,
                           energy_residual_tol=1e-300)
        traj = run(mesh, hat(mesh), cfg, Zero())
        assert (traj.status.kind, traj.status.reason) == \
            ("blowup", "dt_underflow")
        assert traj.status.time == 0.0 and traj.rejected_steps == 1
        assert Status.EXIT_CODES[traj.status.kind] == 2

    def test_linear_solve_breakdown_is_step_failure_2d(self):
        # the same degenerate solve on a rectangle, not a dt underflow
        mesh = build_mesh(Rectangle(1.0, 1.0), 8)
        u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()
        traj = run(mesh, u0, SolverConfig(p=1.5, eps=0.0), Zero())
        assert (traj.status.kind, traj.status.reason) == \
            ("step_failure", "linear_solve")
        assert traj.status.time == 0.0

    def test_one_gradient_per_step(self, mesh, monkeypatch):
        # each state's gradient is kept and each state is evaluated once, in
        # its snapshot, so a step computes only its trial state's gradient
        # and snapshot
        calls = {"gradient": 0, "snapshot": 0, "step": 0}
        gradient, snapshot_, step_ = Mesh.gradient, model.snapshot, solver.step

        def counted_gradient(self, values):
            calls["gradient"] += 1
            return gradient(self, values)

        def counted_snapshot(*args, **kwargs):
            calls["snapshot"] += 1
            return snapshot_(*args, **kwargs)

        def counted_step(*args, **kwargs):
            calls["step"] += 1
            return step_(*args, **kwargs)

        monkeypatch.setattr(Mesh, "gradient", counted_gradient)
        monkeypatch.setattr(solver, "snapshot", counted_snapshot)
        monkeypatch.setattr(solver, "step", counted_step)
        u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()
        traj = run(mesh, u0, SolverConfig(p=1.5, T_end=0.05), Zero())
        assert calls["step"] > len(traj.times) - 1   # some steps rejected
        assert calls["gradient"] == calls["step"] + 1
        assert calls["snapshot"] == calls["step"] + 1

    def test_checkpoint_times_are_hit(self, mesh):
        cfg = SolverConfig(p=2.0, eps=0.0, T_end=0.02,
                           checkpoint_times=(0.007, 0.013))
        x = mesh.nodes[:, 0]
        u0 = Field(mesh, np.sin(np.pi * x)).constrained()
        traj = run(mesh, u0, cfg, Zero())
        stored = [t for t, _ in traj.states]
        for target in (0.007, 0.013, 0.02):
            assert min(abs(t - target) for t in stored) < 1e-12

    def test_stored_states_are_read_only_and_own_their_rows(self):
        # every stored state is read-only and owns its values: a stacked
        # member's row is copied, so that it keeps no stack alive
        mesh = build_mesh(Interval(1.0), 50)
        cfgs = [SolverConfig(p=1.5, T_end=0.01, checkpoint_times=(0.005,)),
                SolverConfig(p=1.25, T_end=0.01,
                             checkpoint_times=(0.002, 0.004, 0.006, 0.008))]
        for trajs in (march(mesh, hat(mesh), cfgs, Zero()),
                      [run(mesh, hat(mesh), cfgs[0], Zero())]):
            for traj in trajs:
                assert len(traj.states) > 2
                for _, f in traj.states:
                    assert f.values.shape == (mesh.n_nodes,)
                    assert not f.values.flags.writeable
                    assert f.values.base is None


@pytest.fixture(scope="module")
def rect_kept():
    # rect2d at 16^2: Power(3), p = 1.5, a tensor hat of amplitude 1
    mesh = build_mesh(Rectangle(1.0, 1.0), 16)
    x = mesh.nodes
    u0 = Field(mesh, np.maximum(0.0, 1.0 - 2.0 * np.abs(x - 0.5)).prod(axis=1))
    cfg, nl = SolverConfig(p=1.5, T_end=0.02), Power(q=3.0)
    traj, states = run_keeping_states(mesh, u0.constrained(), cfg, nl)
    return traj, cfg, nl, states


@pytest.fixture(scope="module")
def rect_run(rect_kept):
    return rect_kept[:3]


@pytest.fixture(scope="module")
def rect_states(rect_kept):
    """Every accepted state of ``rect_run``."""
    return rect_kept[3]


class TestLinearSolve:
    @pytest.mark.parametrize("lag", [1, 5, 20])
    def test_stale_factor_pcg_matches_direct_solve(self, rect_run,
                                                   rect_states, lag):
        traj, cfg, nl = rect_run
        t_old, old = rect_states[-2 - lag]
        t, state = rect_states[-2]
        dt = traj.times[-1] - t
        factor = solver.BandedFactor()
        step(old, t_old, cfg, nl, dt, factor=factor)   # factors old's matrix
        pcg = step(state, t, cfg, nl, dt, factor=factor)
        assert factor.factorizations == 1 and factor.iterations > 0
        direct = step(state, t, cfg, nl, dt)
        assert np.abs(pcg.values - direct.values).max() <= \
            1e-12 * np.abs(direct.values).max()

    @pytest.mark.parametrize("dt_factor, dt", [(1e-8, 1e-4), (1e-4, 1e-8)])
    def test_factor_from_a_far_dt_passes_the_gate(self, rect_run, rect_states,
                                                  dt_factor, dt):
        # through PCG or the refactor fallback, step's residual gate passes
        traj, cfg, nl = rect_run
        t, state = rect_states[-2]
        factor = solver.BandedFactor()
        step(state, t, cfg, nl, dt_factor, factor=factor)
        new = step(state, t, cfg, nl, dt, factor=factor)
        direct = step(state, t, cfg, nl, dt)
        assert np.abs(new.values - direct.values).max() <= \
            1e-10 * np.abs(direct.values).max()

    def test_slow_solve_refactors_next_step(self, rect_run, rect_states):
        # a factor from dt = 1e-8 needs more than PCG_REFACTOR_ITERS at
        # dt = 1e-4; the next step factors its own matrix and solves directly
        traj, cfg, nl = rect_run
        t, state = rect_states[-2]
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

    def test_1d_step_is_lapack_ptsv(self, monkeypatch):
        # a 1-D step solves its band with LAPACK ptsv, bit for bit
        solved = []
        solve = solver.solveh_banded

        def recorded(ab, rhs, *args):
            x = solve(ab, rhs, *args)
            solved.append((ab.copy(), rhs.copy(), x))
            return x

        monkeypatch.setattr(solver, "solveh_banded", recorded)
        mesh = build_mesh(Interval(1.0), 400)
        cfg = SolverConfig(p=1.01, eps=1e-4)
        new = step(hat(mesh), 0.0, cfg, Zero(), 1e-3,
                   factor=solver.BandedFactor())
        (ab, rhs, x), = solved
        assert ab.shape[0] == 2
        assert np.array_equal(x, lapack_solveh_banded(ab, rhs))
        assert np.array_equal(new.values[mesh.interior_mask], x)

    def test_tridiagonal_solve_matches_scipy(self):
        # the direct ptsv call gives scipy's solveh_banded bit for bit
        rng = np.random.default_rng(11)
        for m in (2, 17, 400):
            ab = np.empty((2, m))
            ab[0] = rng.uniform(-1.0, 1.0, m)
            ab[1] = 2.0 + rng.uniform(0.0, 1.0, m)   # diagonally dominant
            rhs = rng.normal(size=m)
            x = solver.solveh_banded(ab, rhs, solver.BandedFactor(), rhs,
                                     [1], 1)
            assert np.array_equal(x, lapack_solveh_banded(ab, rhs))

    def test_tridiagonal_solve_rejects_indefinite_band(self):
        # [[1, 2, 0], [2, 1, 0.5], [0, 0.5, 1]]: the second minor is -3
        ab = np.array([[0.0, 2.0, 0.5], [1.0, 1.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            solver.solveh_banded(ab, np.ones(3), solver.BandedFactor(),
                                 np.zeros(3), [1], 1)

    @pytest.mark.parametrize("held", [False, True], ids=["fresh", "held"])
    def test_indefinite_2d_band_is_step_failure(self, held):
        # a negative dt makes the mass term, and so the band, indefinite:
        # LAPACK pbtrf reports it, whether or not a factor is held
        mesh = build_mesh(Rectangle(1.0, 1.0), 8)
        u = Field(mesh, np.sin(np.pi * mesh.nodes).prod(axis=1)).constrained()
        cfg, factor = SolverConfig(p=1.5), solver.BandedFactor()
        if held:
            step(u, 0.0, cfg, Zero(), 1e-3, factor=factor)
        with pytest.raises(StepFailureError, match="pbtrf"):
            step(u, 0.0, cfg, Zero(), -1e-3, factor=factor)
        assert factor.factorizations == int(held)
        with pytest.raises(StepFailureError, match="pbtrf"):
            step(u, 0.0, cfg, Zero(), -1e-3)

    @pytest.mark.parametrize("domain, resolution", [
        (Rectangle(1.0, 1.0), 8), (Rectangle(1.0, 1.0), [16, 8]),
        (Interval(1.0), 40)], ids=["square", "rect", "interval"])
    def test_step_without_factor_is_fresh_factor(self, domain, resolution):
        # without a factor, a plain field or each row of a stack solves
        # through a fresh BandedFactor, bit for bit, which factors once
        mesh = build_mesh(domain, resolution)
        x = mesh.nodes
        rows = [np.sin(np.pi * x).prod(axis=1),
                np.maximum(0.0, 1.0 - 2.0 * np.abs(x - 0.5)).prod(axis=1),
                np.sin(2.0 * np.pi * x).prod(axis=1)]
        stack = Field(mesh, rows).constrained()
        cfgs = [SolverConfig(p=1.5), SolverConfig(p=1.25, eps=1e-2),
                SolverConfig(p=2.0, eps=0.0)]
        dts = [1e-3, 5e-4, 2e-3]
        nl = Power(q=3.0)
        factors = [solver.BandedFactor() for _ in cfgs]
        fresh = step(stack, [0.0] * 3, cfgs, nl, dts, factor=factors)
        assert step(stack, [0.0] * 3, cfgs, nl, dts).values.tobytes() == \
            fresh.values.tobytes()
        assert [f.factorizations for f in factors] == [1, 1, 1]
        for i in range(3):
            factor = solver.BandedFactor()
            alone = step(stack.rows(i), 0.0, cfgs[i], nl, dts[i],
                         factor=factor)
            assert step(stack.rows(i), 0.0, cfgs[i], nl,
                        dts[i]).values.tobytes() == alone.values.tobytes()
            assert alone.values.tobytes() == fresh.values[i].tobytes()
            assert (factor.factorizations, factor.iterations) == (1, 0)

    @pytest.mark.parametrize("resolution", [8, [16, 8], [9, 16], 32])
    def test_fresh_factor_is_scipy_pbsv(self, resolution):
        # a fresh factor's pbtrf + pbtrs are the steps of scipy's
        # solveh_banded (LAPACK pbsv) on the full band, bit for bit
        mesh = build_mesh(Rectangle(1.0, 1.0), resolution)
        rng = np.random.default_rng(5)
        _, b, _, offsets = mesh.interior_band
        for dt in (1e-4, 1e-2):
            band = mesh.interior_stiffness(
                rng.uniform(0.5, 2.0, mesh.n_elements) * mesh.element_volumes)
            band[-1] += mesh.interior_weights / dt
            rhs = rng.normal(size=band.shape[1])
            ref = lapack_solveh_banded(solver._full_band(band, offsets, b),
                                       rhs)
            x = solver.BandedFactor().solve(band, rhs, rhs, offsets, b)
            assert x.tobytes() == ref.tobytes()

    def test_1d_flat_extinction_time_unchanged(self):
        # criterion 1's run, pinned to the last bit: the step sequence of
        # the E_p,eps gate and the extinction bisection
        mesh = build_mesh(Interval(1.0), 400)
        u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()
        traj = run(mesh, u0, SolverConfig(p=1.01, eps=1e-4, T_end=1.0),
                   Zero())
        assert traj.status.kind == "extinct"
        assert traj.status.time == 0.4800778155096372

    def test_2d_run_unchanged(self, rect_run):
        # the 2-D companion: the stale-factor PCG run, pinned to the last bit
        traj, _, _ = rect_run
        digest = hashlib.sha256(traj.states[-1][1].values.tobytes())
        assert digest.hexdigest() == ("87e2dc5f927e09f0f60772decfac7e7f"
                                      "048793ce43965fd28bc2bd4704f7c053")
        assert len(traj.times) - 1 == 281
        assert (traj.factorizations, traj.pcg_iterations) == (7, 1221)


class TestLockstep:
    """``march`` runs its members as one stack; each ends bit for bit as
    ``run`` (a stack of one) ends it alone."""

    @staticmethod
    def assert_each_as_alone(mesh, u0, cfgs, nl):
        together = march(mesh, u0, cfgs, nl)
        for cfg, traj in zip(cfgs, together):
            alone = run(mesh, u0, cfg, nl)
            assert traj.status == alone.status
            assert traj.times == alone.times
            assert traj.snapshots == alone.snapshots
            assert [t for t, _ in traj.states] == [t for t, _ in alone.states]
            assert all(a.values.tobytes() == b.values.tobytes()
                       for (_, a), (_, b) in zip(traj.states, alone.states))
            counts = ("rejected_steps", "extinction_probes", "factorizations",
                      "pcg_iterations")
            assert [getattr(traj, c) for c in counts] == \
                [getattr(alone, c) for c in counts]
        return [(t.status.kind, t.status.reason) for t in together]

    def test_extinct_member_leaves_while_others_go_on(self):
        # p = 1.05 bisects its extinction crossing at t = 0.028; the others
        # run on to T_end, storing at one checkpoint and at four
        mesh = build_mesh(Interval(1.0), 50)
        cfgs = [SolverConfig(p=1.05, T_end=0.05),
                SolverConfig(p=1.5, T_end=0.05, checkpoint_times=(0.025,)),
                SolverConfig(p=2.0, eps=0.0, T_end=0.05,
                             checkpoint_times=(0.01, 0.02, 0.03, 0.04))]
        assert self.assert_each_as_alone(mesh, hat(mesh, 0.1), cfgs,
                                         Zero()) == \
            [("extinct", "tol_ext"), ("completed", "t_end"),
             ("completed", "t_end")]

    def test_failed_solve_leaves_while_others_complete(self):
        # eps = 0 on a flat profile: the member's band is not positive
        # definite, and its row of the stacked step comes back NaN
        mesh = build_mesh(Interval(1.0), 50)
        u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()
        cfgs = [SolverConfig(p=1.5, eps=0.0),
                SolverConfig(p=1.5, T_end=0.02),
                SolverConfig(p=1.25, eps=1e-2, T_end=0.01)]
        assert self.assert_each_as_alone(mesh, u0, cfgs, Zero()) == \
            [("step_failure", "linear_solve"), ("completed", "t_end"),
             ("completed", "t_end")]

    def test_energy_overflow_leaves_while_others_complete(self):
        # the reaction overflows in the first long trial; members with
        # short horizons complete first
        mesh = build_mesh(Interval(1.0), 50)
        cfgs = [SolverConfig(p=1.5),
                SolverConfig(p=1.5, T_end=1e-7, dt0=1e-9),
                SolverConfig(p=1.25, T_end=1e-8, dt0=1e-10)]
        assert self.assert_each_as_alone(mesh, hat(mesh, 3.0), cfgs,
                                         ExpPower(3.0, 1.0)) == \
            [("blowup", "energy_overflow"), ("completed", "t_end"),
             ("completed", "t_end")]

    def test_rectangle_members_keep_their_own_factor(self):
        # each member's stale-factor PCG counts are its own
        mesh = build_mesh(Rectangle(1.0, 1.0), 8)
        x = mesh.nodes
        u0 = Field(mesh, np.maximum(0.0, 1.0 - 2.0 * np.abs(x - 0.5))
                   .prod(axis=1)).constrained()
        cfgs = [SolverConfig(p=p, eps=(p - 1.0) ** 2, T_end=0.01)
                for p in (1.5, 1.25, 1.125)]
        assert self.assert_each_as_alone(mesh, u0, cfgs, Power(q=3.0)) == \
            [("completed", "t_end")] * 3
        assert all(t.pcg_iterations > 0 for t in march(mesh, u0, cfgs,
                                                       Power(q=3.0)))

    @pytest.mark.parametrize("domain, resolution",
                             [(Interval(1.0), 40), (Rectangle(1.0, 1.0), 8)],
                             ids=["interval", "rectangle"])
    def test_stacked_step_is_each_row_alone(self, domain, resolution):
        # one call steps every row as a plain field would; a row whose
        # solve fails (eps = 0 on a flat profile) comes back NaN
        mesh = build_mesh(domain, resolution)
        x = mesh.nodes
        rows = [np.sin(np.pi * x).prod(axis=1), np.ones(mesh.n_nodes),
                np.sin(2.0 * np.pi * x).prod(axis=1)]
        stack = Field(mesh, rows).constrained()
        cfgs = [SolverConfig(p=1.5), SolverConfig(p=1.5, eps=0.0),
                SolverConfig(p=1.25, eps=1e-2)]
        dts = [1e-3, 1e-3, 5e-4]
        factors = [solver.BandedFactor() for _ in cfgs]
        new = step(stack, [0.0] * 3, cfgs, Zero(), dts, factor=factors)
        assert np.isnan(new.values[1]).all()
        with pytest.raises(StepFailureError):
            step(stack.rows(1), 0.0, cfgs[1], Zero(), dts[1])
        for i in (0, 2):
            alone = step(stack.rows(i), 0.0, cfgs[i], Zero(), dts[i],
                         factor=solver.BandedFactor())
            assert new.values[i].tobytes() == alone.values.tobytes()


class TestEnergyGate:
    def test_regularized_residual_is_second_order(self):
        # criterion 7's first member from its state at t = 0.3: against
        # E_p,eps a lagged step's residual is O(dt^2) and negative; against
        # E_p it carries an O(eps) slope that no dt removes
        mesh = build_mesh(Interval(1.0), 100)
        u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()
        p, eps = 1.5, 0.25
        cfg = SolverConfig(p=p, eps=eps, T_end=0.3)
        traj = run(mesh, u0, cfg, Zero())
        t, u = traj.states[-1]
        assert t == 0.3
        old = model.snapshot(u, t, p, Zero(), 0.0)
        E_eps = regularized_energy(u, p, eps, old)
        r_eps = []
        for dt in (1e-6, 1e-5, 1e-4, 1e-3):
            new = step(u, t, cfg, Zero(), dt)
            snap = model.snapshot(new, t + dt, p, Zero(), 0.0)
            diss = mesh.quad_weights @ (new.values - u.values) ** 2 / dt
            r_eps.append(diss + regularized_energy(new, p, eps, snap) - E_eps)
            r_p = diss + snap.E_p - old.E_p
            assert r_p / dt == pytest.approx(-0.24, abs=0.01)
        assert max(r_eps) < 0.0
        for small, large in zip(r_eps, r_eps[1:]):
            assert 90.0 <= large / small <= 110.0

    def test_regularized_energy_definition(self, mesh):
        u = hat(mesh)
        p, eps = 1.5, 0.25
        snap = model.snapshot(u, 0.0, p, Power(q=3.0), 0.0)
        lifted = mesh.element_volumes @ (u.grad_mag ** 2 + eps ** 2) ** (p / 2)
        direct = lifted / p - mesh.integrate(Power(q=3.0).F(u.values))
        assert regularized_energy(u, p, eps, snap) == pytest.approx(
            direct, rel=1e-14)
        assert regularized_energy(u, p, 0.0, snap) == pytest.approx(
            snap.E_p, rel=1e-14)

    def test_one_reaction_primitive_per_snapshot(self, mesh, monkeypatch):
        # the gate reuses the snapshot's E_p, and the extinction bisection
        # reads only sup norms: F is evaluated once per snapshot; each step
        # reuses its state's f(u), kept from the state's snapshot, so f is
        # evaluated once per snapshot too
        calls = {"F": 0, "f": 0, "snapshot": 0, "step": 0}
        snapshot_, step_ = solver.snapshot, solver.step

        class Counted(Power):
            def F(self, u):
                calls["F"] += 1
                return super().F(u)

            def f(self, u):
                calls["f"] += 1
                return super().f(u)

        def counted_snapshot(*args, **kwargs):
            calls["snapshot"] += 1
            return snapshot_(*args, **kwargs)

        def counted_step(*args, **kwargs):
            calls["step"] += 1
            return step_(*args, **kwargs)

        monkeypatch.setattr(solver, "snapshot", counted_snapshot)
        monkeypatch.setattr(solver, "step", counted_step)
        traj = run(mesh, hat(mesh), SolverConfig(p=1.5, T_end=2.0),
                   Counted(q=3.0))
        assert traj.status.kind == "extinct"
        # u0 and every trial but the bisection probes get one snapshot
        assert calls["snapshot"] == \
            calls["step"] + 1 - solver.EXTINCTION_HALVINGS
        assert calls["F"] == calls["snapshot"]
        assert calls["f"] == calls["snapshot"]


class TestExtinctionCrossing:
    @pytest.mark.parametrize("profile, nl", [("flat", Zero()),
                                             ("hat", Power(q=3.0))])
    def test_crossing_is_located(self, mesh, monkeypatch, profile, nl):
        # the accepted extinction step h ends extinct from the last state,
        # and the step shorter by the bisection's resolution does not
        trials = []   # (dt, sup of the new state) of every step
        step_ = solver.step

        def recorded(state, t, cfg, nl, dt=None, **kwargs):
            new = step_(state, t, cfg, nl, dt, **kwargs)
            trials.append((dt, new.sup()))
            return new

        monkeypatch.setattr(solver, "step", recorded)
        u0 = (Field(mesh, np.ones(mesh.n_nodes)).constrained()
              if profile == "flat" else hat(mesh))
        cfg = SolverConfig(p=1.5, eps=1e-4, T_end=2.0)
        traj, states = run_keeping_states(mesh, u0, cfg, nl)
        assert traj.status.kind == "extinct"
        t, u = states[-2]
        # the trial that ended extinct, then its bisection probes
        halvings = solver.EXTINCTION_HALVINGS
        # every step was accepted, rejected by the gate, or a probe
        assert traj.extinction_probes == halvings
        assert len(trials) == (len(traj.times) - 1 + traj.rejected_steps
                               + traj.extinction_probes)
        (crossed, sup), probes = trials[-1 - halvings], trials[-halvings:]
        assert sup <= cfg.tol_ext
        h = min(dt for dt, sup in probes if sup <= cfg.tol_ext)
        assert traj.times[-1] == t + h < t + crossed
        delta = crossed / 2 ** halvings
        assert step_(u, t, cfg, nl, h).sup() <= cfg.tol_ext
        assert step_(u, t, cfg, nl, h - delta).sup() > cfg.tol_ext
        assert u.sup() > cfg.tol_ext

@pytest.fixture(scope="module")
def confined():
    mesh = build_mesh(Interval(1.0), 100)
    nl = Power(q=3.0)
    d_hat = estimate_dp(mesh, 1.5, nl, default_dictionary(mesh, 8))
    cfg = SolverConfig(p=1.5, eps=1e-4, T_end=0.05, tol_ext=1e-6)
    traj, states = run_keeping_states(mesh, hat(mesh, 0.01), cfg, nl, d_hat)
    return traj, nl, d_hat, states


class TestAudits:
    def test_well_invariance(self, confined):
        traj, nl, d_hat, _ = confined
        audit = well_invariance_audit(traj, d_hat)
        assert audit["all_inside"]
        assert audit["worst_margin_E"] > 0
        assert audit["worst_margin_I"] > 0

    def test_l2_monotone(self, confined):
        traj, _, _, _ = confined
        audit = l2_audit(traj)
        assert audit["monotone"]
        assert audit["bounded_by_initial"]
        assert audit["i_positive_throughout"]
        assert audit["identity_rel_err"] < 1e-2

    def test_gradient_bound(self, confined):
        traj, nl, d_hat, _ = confined
        audit = gradient_bound_audit(traj, nl.theta, d_hat)
        assert audit["holds"]
        assert audit["dissipation_below_level"]

    def test_gradient_bound_requires_theta_above_p(self, confined):
        traj, _, d_hat, _ = confined
        with pytest.raises(SolverError):
            gradient_bound_audit(traj, 1.2, d_hat)

    def test_snapshot_audits_match_per_state_evaluation(self, confined):
        # reference: evaluate every accepted state afresh; the second level
        # puts the early states outside the well
        traj, nl, d_hat, states = confined
        mid = traj.snapshots[len(traj.snapshots) // 2].E_p
        for level in (d_hat, mid):
            reps = [(t, well_status(f.copy(), 1.5, nl, level))
                    for t, f in states]
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
            grad_p_norm(f.copy(), 1.5) for _, f in states)

    @pytest.mark.parametrize("kind", ["extinct", "blowup", "completed",
                                      "step_failure"])
    def test_last_state_is_stored_on_every_exit(self, kind):
        # a run stores its initial state, the state at each target it
        # reaches and its last state, and so does a member that marches
        # stacked to its end (beside a twin); the extinct and blow-up runs
        # end between targets
        mesh = build_mesh(Interval(1.0), 50)
        u0, cfg, nl, reached = {
            "extinct": (hat(mesh, 0.01), SolverConfig(
                p=1.05, checkpoint_times=(0.001, 0.002)), Zero(),
                (0.001, 0.002)),
            "blowup": (hat(mesh, 30.0), SolverConfig(
                p=1.5, T_end=2.0, U_max=1e2, checkpoint_times=(0.01, 0.02)),
                Power(q=3.0), (0.01, 0.02)),
            "completed": (hat(mesh, 0.01), SolverConfig(
                p=1.5, T_end=0.01, checkpoint_times=(0.005,)), Power(q=3.0),
                (0.005, 0.01)),
            "step_failure": (Field(mesh, np.ones(mesh.n_nodes)).constrained(),
                             SolverConfig(p=1.5, eps=0.0), Zero(), ()),
        }[kind]
        traj, states = run_keeping_states(mesh, u0, cfg, nl)
        every = dict(states)
        stacked = march(mesh, u0, [cfg, cfg], nl)[0]
        assert stacked.times == traj.times
        for run_ in (traj, stacked):
            assert run_.status.kind == kind
            t, last = run_.states[-1]
            assert t == run_.times[-1] == run_.status.time
            assert last.sup() == run_.snapshots[-1].sup
            assert [s for s, _ in run_.states] == \
                sorted({0.0, *reached, t})
            assert all(f.values.tobytes() == every[s].values.tobytes()
                       for s, f in run_.states)

    def test_audits_cover_every_accepted_state(self, mesh):
        cfg = SolverConfig(p=1.5, eps=1e-4, T_end=0.01)
        traj, states = run_keeping_states(mesh, hat(mesh, 0.01), cfg,
                                          Power(q=3.0))
        audit = well_invariance_audit(traj, math.inf)
        assert audit["n_states"] == len(traj.snapshots) == len(states) > \
            len(traj.states)


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

    def test_rows_are_each_value_formatted_alone(self, mesh, tmp_path):
        # each row is one %-format string; the file must stay the one that
        # formatting each value alone with ".17g" writes
        odd = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.0 / 3.0,
               -2.5e300, 0.1]
        snaps = [EnergySnapshot(*(odd[(i + j) % len(odd)] for j in range(9)))
                 for i in range(len(odd))]
        snaps[0].time = 0.0
        traj = Trajectory(mesh, SolverConfig(p=1.5), times=[0.0],
                          snapshots=snaps)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        expected = ["# format_version=1",
                    "t,E_p,I_p,tv,l2,sup,dissipation_cum,dt"]
        prev_t = None
        for s in snaps:
            dt = 0.0 if prev_t is None else s.time - prev_t
            prev_t = s.time
            row = (s.time, s.E_p, s.I_p, s.tv, s.l2, s.sup,
                   s.dissipation_cum, dt)
            expected.append(",".join(f"{x:.17g}" for x in row))
        text = path.read_text()
        assert text == "\n".join(expected) + "\n"
        for token in (",nan,", ",inf,", ",-inf,", ",-0,", "e-324,"):
            assert token in text
