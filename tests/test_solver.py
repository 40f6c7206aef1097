"""Time stepping, adaptivity, termination detection and audits."""

import collections
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy
from scipy.linalg import solveh_banded as lapack_solveh_banded

from tvheat import mesh as mesh_mod

from tvheat import (Annulus, ContinuationPlan, Field, Interval, Power,
                    Rectangle, SolverConfig, WellStatus, Zero,
                    build_mesh, default_dictionary, energy, estimate_dp,
                    march, nehari_scale, run, run_continuation, step,
                    detect_tmax,
                    gradient_bound_audit, l2_audit, well_invariance_audit,
                    well_status, write_trajectory_csv)
from tvheat import model, solver
from tvheat.mesh import Mesh
from tvheat.model import EnergySnapshot, ExpPower, grad_p_norm, \
    regularized_energy
from tvheat.solver import SolverError, Status, StepFailureError, Trajectory


# calls to tvheat's own Python functions per step call of criterion 1's
# plain run: step, snapshot and the march's bookkeeping each pay their
# helpers once
PLAIN_CALLS_PER_STEP = 27
# the same for criterion 7's six-member continuation, whose stacked march
# also gathers rows, judges each member and extracts the checkpoint fluxes
STACKED_CALLS_PER_STEP = 52


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
        ("eps", math.nan), ("eps", math.inf), ("eps", 1e300),
        ("energy_residual_tol", math.nan), ("energy_residual_tol", math.inf),
        ("energy_residual_tol", 0.0), ("energy_residual_tol", -1e-5),
        ("tol_ext", math.nan), ("tol_ext", math.inf), ("tol_ext", -math.inf),
        ("U_max", math.nan),
        ("dt_max", 0.0), ("dt_max", -1.0), ("dt_max", math.nan),
        ("dt_max", math.inf),
        ("dt_min", 0.0), ("dt_min", -1.0), ("dt_min", -math.inf),
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

    @pytest.mark.parametrize("resolution", [[6, 5], [6, 2], [2, 6]],
                             ids=["6x5", "6x2", "2x6"])
    def test_p2_dense_oracle_2d(self, resolution):
        # the 2-D analogue of criterion 13: a dense backward-Euler heat step
        # with lumped mass, Dirichlet rows replaced by the identity. A
        # rectangle one interior row or column wide has a tridiagonal band,
        # solved by ptsv without a red-black split
        mesh = build_mesh(Rectangle(1.0, 1.0), resolution)
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
        assert ("red_black" in vars(mesh)) == (min(resolution) > 2)

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
                   factor=[solver.BandedFactor(mesh) for _ in cfgs])
        assert np.isnan(new.values[1]).all()
        for i in (0, 2):
            ref = step(u0, 0.0, cfgs[i], Zero(), 1e-3,
                       factor=solver.BandedFactor(mesh))
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

    def test_u0_already_extinct_takes_no_step(self, mesh, monkeypatch):
        # sup u0 <= tol_ext: the run ends extinct at t = 0 on its initial
        # snapshot and state, without a step
        def no_step(*args, **kwargs):
            raise AssertionError("step called")

        monkeypatch.setattr(solver, "step", no_step)
        cfg = SolverConfig(p=1.5, tol_ext=1e-8)
        for amp in (0.0, 1e-8):
            traj = run(mesh, hat(mesh, amp), cfg, Power(q=3.0))
            assert (traj.status.kind, traj.status.reason, traj.status.time) \
                == ("extinct", "tol_ext", 0.0)
            assert traj.times == [0.0] and len(traj.snapshots) == 1
            assert [t for t, _ in traj.states] == [0.0]
            assert (traj.rejected_steps, traj.extinction_probes,
                    traj.factorizations) == (0, 0, 0)

    def test_u0_past_u_max_takes_no_step(self, mesh, monkeypatch):
        # u0 is judged as an accepted step is: sup u0 >= U_max ends the
        # run blowup at t = 0 on its initial snapshot and state
        def no_step(*args, **kwargs):
            raise AssertionError("step called")

        monkeypatch.setattr(solver, "step", no_step)
        cfg = SolverConfig(p=1.5)
        u0 = Field(mesh, np.full(mesh.n_nodes, 2.0 * cfg.U_max)).constrained()
        traj = run(mesh, u0, cfg, Zero())
        assert (traj.status.kind, traj.status.reason, traj.status.time) \
            == ("blowup", "u_max", 0.0)
        assert traj.times == [0.0] and len(traj.snapshots) == 1
        assert [t for t, _ in traj.states] == [0.0]
        assert traj.states[0][1].values.tobytes() == u0.values.tobytes()
        assert traj.factorizations == 0

    @pytest.mark.parametrize("members", [1, 2], ids=["run", "march"])
    def test_u0_past_the_float_range_ends_at_t0(self, members):
        # the squares of u0 and of its gradient, and its reaction, pass the
        # float range: u0's snapshot, plain or a stack's, evaluates to inf
        # and nan without a warning (the suite makes one an error), and
        # the run, or each member of a march, ends blowup at t = 0
        mesh = build_mesh(Interval(1.0), 20)
        u0 = hat(mesh, 1e200)
        cfgs = [SolverConfig(p=1.5), SolverConfig(p=1.2)][:members]
        trajs = ([run(mesh, u0, cfgs[0], Power(3.0))] if members == 1
                 else march(mesh, u0, cfgs, Power(3.0)))
        for traj in trajs:
            assert (traj.status.kind, traj.status.reason, traj.status.time) \
                == ("blowup", "u_max", 0.0)
            assert traj.times == [0.0] and traj.factorizations == 0
            assert traj.snapshots[0].sup == 1e200

    @pytest.mark.parametrize("initial, message", [
        (lambda mesh: hat(build_mesh(Interval(1.0), 100)), "different mesh"),
        (lambda mesh: Field(mesh, np.ones(mesh.n_nodes)), "not Dirichlet"),
    ], ids=["other_mesh", "not_dirichlet"])
    def test_bad_initial_field_fails_by_name(self, mesh, initial, message):
        with pytest.raises(SolverError, match=message):
            march(mesh, initial(mesh), [SolverConfig(p=1.5)], Zero())

    def test_unfinished_trajectory_has_no_tmax(self, mesh):
        with pytest.raises(SolverError, match="not finished"):
            detect_tmax(Trajectory(mesh, SolverConfig(p=1.5)))

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

    def test_coefficient_once_per_state(self, monkeypatch):
        # a snapshot evaluates its state's lagged coefficient and keeps it
        # with the state (Field.coefficient), and every step from that
        # field reads it: the next step and a retry after a rejection. A
        # field that Field.rows or _gather builds from another keeps
        # nothing, so a step from it (a regathered stack, the state an
        # extinction bisection starts from, a member that goes on alone)
        # evaluates it once, for all the steps from that field. So the
        # rows evaluated are the rows of every distinct field a step or a
        # snapshot takes, once each: the snapshots' rows (u0's, each
        # accepted state's and each rejected trial's), plus those of the
        # fields the steps start from that no snapshot took
        rows = [0]
        coefficient = model.Terms.coefficient
        snapshot_, step_ = solver.snapshot, solver.step
        taken = {"snapshot": {}, "step": {}}

        def counted(self, grad_sq):
            rows[0] += 1 if grad_sq.ndim == 1 else len(grad_sq)
            return coefficient(self, grad_sq)

        def counted_snapshot(field, *args, **kwargs):
            taken["snapshot"][id(field)] = field
            return snapshot_(field, *args, **kwargs)

        def counted_step(state, *args, **kwargs):
            taken["step"][id(state)] = state
            return step_(state, *args, **kwargs)

        monkeypatch.setattr(model.Terms, "coefficient", counted)
        monkeypatch.setattr(solver, "snapshot", counted_snapshot)
        monkeypatch.setattr(solver, "step", counted_step)

        def snapshot_rows(trajs):
            return sum(len(t.snapshots) + t.rejected_steps for t in trajs)

        def unsnapshotted_rows():
            return sum(1 if f.values.ndim == 1 else len(f.values)
                       for i, f in taken["step"].items()
                       if i not in taken["snapshot"])

        # criterion 1's run: every step starts from a snapshot's field
        mesh = build_mesh(Interval(1.0), 400)
        u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()
        traj = run(mesh, u0, SolverConfig(p=1.01, eps=1e-4, T_end=1.0),
                   Zero())
        assert traj.rejected_steps > 0 and traj.extinction_probes > 0
        assert unsnapshotted_rows() == 0
        assert rows[0] == snapshot_rows([traj]) == 1728
        # two members: one bisects its extinction crossing from its row
        # of the stack and leaves, the other goes on alone; both reject
        # trials, and their verdicts differ in some iterations
        mesh = build_mesh(Interval(1.0), 50)
        cfgs = [SolverConfig(p=1.05, T_end=0.05),
                SolverConfig(p=1.5, T_end=0.05, checkpoint_times=(0.025,))]
        rows[0] = 0
        taken["snapshot"].clear()
        taken["step"].clear()
        trajs = march(mesh, hat(mesh, 0.1), cfgs, Zero())
        assert [t.status.kind for t in trajs] == ["extinct", "completed"]
        assert trajs[0].extinction_probes > 0
        assert all(t.rejected_steps > 0 for t in trajs)
        assert unsnapshotted_rows() > 0
        assert rows[0] == snapshot_rows(trajs) + unsnapshotted_rows()
        # a state that no snapshot evaluated is evaluated by its step
        rows[0] = 0
        step(hat(mesh).constrained(), 0.0, cfgs[1], Zero(), 1e-3)
        assert rows[0] == 1

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


def random_band(mesh, rng, dt):
    """The compact band of K(w) + diag(qw / dt) for random positive element
    weights w."""
    band = mesh.interior_stiffness(
        rng.uniform(0.5, 2.0, mesh.n_elements) * mesh.element_volumes)
    band[-1] += mesh.interior_weights / dt
    return band


def dense(band, offsets):
    """The symmetric matrix held in the compact band ``band``."""
    A = np.diag(band[-1])
    for row, d in zip(band, offsets):
        i = np.arange(len(row) - d)
        A[i, i + d] = A[i + d, i] = row[d:]
    return A


def schur_of(band, split):
    """(B, 1 / D_r, D_b) of ``band`` in the red-black order of ``split``,
    as ``BandedFactor.solve`` passes them on."""
    B = mesh_mod.CSR(band.take(split.coupling), split.indices, split.indptr,
                     (len(split.red), len(split.black)))
    diag = band[-1]
    return B, 1.0 / diag[split.red], diag[split.black]


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
        factor = solver.BandedFactor(traj.mesh)
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
        factor = solver.BandedFactor(traj.mesh)
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
        factor = solver.BandedFactor(traj.mesh)
        step(state, t, cfg, nl, 1e-8, factor=factor)
        step(state, t, cfg, nl, 1e-4, factor=factor)
        its = factor.iterations
        assert its > solver.PCG_REFACTOR_ITERS
        step(state, t, cfg, nl, 1e-4, factor=factor)
        assert (factor.factorizations, factor.iterations) == (2, its)

    def test_pcg_miss_factors_directly(self, rect_run, rect_states,
                                       monkeypatch):
        # a factor from dt = 1e-8 needs more than 2 iterations at dt =
        # 1e-4: with PCG_MAX_ITERS = 2 the solve misses its stopping test,
        # factors its own matrix and solves directly, as a fresh factor does
        traj, cfg, nl = rect_run
        t, state = rect_states[-2]
        factor = solver.BandedFactor(traj.mesh)
        step(state, t, cfg, nl, 1e-8, factor=factor)
        monkeypatch.setattr(solver, "PCG_MAX_ITERS", 2)
        new = step(state, t, cfg, nl, 1e-4, factor=factor)
        assert (factor.factorizations, factor.iterations) == (2, 2)
        fresh = solver.BandedFactor(traj.mesh)
        direct = step(state, t, cfg, nl, 1e-4, factor=fresh)
        assert fresh.factorizations == 1
        assert new.values.tobytes() == direct.values.tobytes()
        assert factor.chol.tobytes() == fresh.chol.tobytes()

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

    def test_pcg_back_solves_one_per_iteration(self, monkeypatch):
        # PCG tests each residual before it preconditions it, so a solve
        # of k iterations makes k back-solves (LAPACK pbtrs), none for the
        # residual it stops at, and a direct solve makes one: a run in
        # which every PCG call converges makes as many as its iterations
        # and factorizations together
        calls = {"pbtrs": 0, "pcg": 0}
        dpbtrs, pcg = solver.dpbtrs, solver.BandedFactor._pcg

        def counted_pbtrs(*args, **kwargs):
            calls["pbtrs"] += 1
            return dpbtrs(*args, **kwargs)

        def converged_pcg(self, *args):
            x, k = pcg(self, *args)
            assert x is not None
            calls["pcg"] += 1
            return x, k

        monkeypatch.setattr(solver, "dpbtrs", counted_pbtrs)
        monkeypatch.setattr(solver.BandedFactor, "_pcg", converged_pcg)
        mesh = build_mesh(Rectangle(1.0, 1.0), 8)
        x = mesh.nodes
        u0 = Field(mesh, np.sin(np.pi * x).prod(axis=1)).constrained()
        traj = run(mesh, u0, SolverConfig(p=1.5, T_end=0.01), Power(q=3.0))
        assert traj.status.kind == "completed"
        assert calls["pcg"] > 0 and traj.factorizations > 0
        assert calls["pbtrs"] == traj.pcg_iterations + traj.factorizations

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
                   factor=solver.BandedFactor(mesh))
        (ab, rhs, x), = solved
        assert ab.shape[0] == 2
        assert np.array_equal(x, lapack_solveh_banded(ab, rhs))
        assert np.array_equal(new.values[mesh.interior_mask], x)

    def test_tridiagonal_solve_matches_scipy(self):
        # the direct ptsv call gives scipy's solveh_banded bit for bit
        rng = np.random.default_rng(11)
        for m in (2, 17, 400):
            mesh = build_mesh(Interval(1.0), m + 1)   # m interior nodes
            ab = np.empty((2, m))
            ab[0] = rng.uniform(-1.0, 1.0, m)
            ab[1] = 2.0 + rng.uniform(0.0, 1.0, m)   # diagonally dominant
            rhs = rng.normal(size=m)
            x = solver.solveh_banded(ab, rhs, solver.BandedFactor(mesh), rhs)
            assert np.array_equal(x, lapack_solveh_banded(ab, rhs))

    # each extension, the code that loads it, and a check that its
    # package, imported after it, uses the same routines
    EXTENSIONS = {
        "scipy.linalg._flapack": (
            "",
            "import scipy.linalg.lapack as lapack\n"
            "for name in ('dptsv', 'dpbtrf', 'dpbtrs'):\n"
            "    assert getattr(solver, name) is getattr(lapack, name)\n"),
        "scipy.sparse._sparsetools": (
            "from tvheat import Rectangle, build_mesh\n"
            "mesh = build_mesh(Rectangle(1.0, 1.0), 4)\n"
            "mesh.gradient(mesh.nodes[:, 0])\n",
            "from scipy.sparse import _compressed\n"
            "assert _compressed._sparsetools is mesh._grad.kernels\n"),
    }

    @pytest.mark.parametrize("name", sorted(EXTENSIONS))
    def test_extension_is_scipys(self, name):
        # the extension loaded by its file is the one its package uses,
        # also when the package is imported after it
        load, check = self.EXTENSIONS[name]
        package, _, ext = name.rpartition(".")
        src = pathlib.Path(solver.__file__).parents[1]
        script = (
            "import sys\n"
            "from tvheat import solver\n" + load +
            f"module = sys.modules['{name}']\n"
            f"assert '{package}' not in sys.modules\n"
            f"from {package} import {ext}\n"
            f"assert {ext} is module\n" + check)
        done = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        # a module already imported is reused
        assert mesh_mod._load_extension(name) is sys.modules[name]

    @pytest.mark.parametrize("name", sorted(EXTENSIONS))
    def test_missing_extension_fails_by_path(self, monkeypatch, tmp_path,
                                             name):
        # no fallback to the package: a scipy without the extension is
        # named, with the directory searched
        monkeypatch.delitem(sys.modules, name, raising=False)
        monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
        package, _, ext = name.rpartition(".")
        where = os.path.join(str(tmp_path), package.split(".")[1])
        with pytest.raises(ImportError, match=re.escape(f"{ext} in {where}")):
            mesh_mod._load_extension(name)

    def test_tridiagonal_solve_rejects_indefinite_band(self):
        # [[1, 2, 0], [2, 1, 0.5], [0, 0.5, 1]]: the second minor is -3
        ab = np.array([[0.0, 2.0, 0.5], [1.0, 1.0, 1.0]])
        mesh = build_mesh(Interval(1.0), 4)        # three interior nodes
        with pytest.raises(np.linalg.LinAlgError):
            solver.solveh_banded(ab, np.ones(3), solver.BandedFactor(mesh),
                                 np.zeros(3))

    @pytest.mark.parametrize("held", [False, True], ids=["fresh", "held"])
    def test_indefinite_2d_band_is_step_failure(self, held):
        # a negative dt makes the mass term, and so the band, indefinite:
        # LAPACK pbtrf reports it, whether or not a factor is held
        mesh = build_mesh(Rectangle(1.0, 1.0), 8)
        u = Field(mesh, np.sin(np.pi * mesh.nodes).prod(axis=1)).constrained()
        cfg, factor = SolverConfig(p=1.5), solver.BandedFactor(mesh)
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
        factors = [solver.BandedFactor(mesh) for _ in cfgs]
        fresh = step(stack, [0.0] * 3, cfgs, nl, dts, factor=factors)
        assert step(stack, [0.0] * 3, cfgs, nl, dts).values.tobytes() == \
            fresh.values.tobytes()
        assert [f.factorizations for f in factors] == [1, 1, 1]
        for i in range(3):
            factor = solver.BandedFactor(mesh)
            alone = step(stack.rows(i), 0.0, cfgs[i], nl, dts[i],
                         factor=factor)
            assert step(stack.rows(i), 0.0, cfgs[i], nl,
                        dts[i]).values.tobytes() == alone.values.tobytes()
            assert alone.values.tobytes() == fresh.values[i].tobytes()
            assert (factor.factorizations, factor.iterations) == (1, 0)

    @pytest.mark.parametrize("resolution", [8, [16, 8], [9, 16], 32])
    def test_fresh_factor_is_scipy_pbsv(self, resolution):
        # a fresh factor's red-black solve agrees with scipy's solveh_banded
        # (LAPACK pbsv) on the full band to 1e-12 in the max norm, and
        # passes step's residual gate
        mesh = build_mesh(Rectangle(1.0, 1.0), resolution)
        rng = np.random.default_rng(5)
        offsets = mesh.band_layout
        for dt in (1e-4, 1e-2):
            band = random_band(mesh, rng, dt)
            rhs = rng.normal(size=band.shape[1])
            A = dense(band, offsets)
            ab = np.array([np.concatenate([np.zeros(d), np.diagonal(A, d)])
                           for d in range(offsets[0], -1, -1)])
            ref = lapack_solveh_banded(ab, rhs)
            x = solver.BandedFactor(mesh).solve(band, rhs, rhs)
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
            assert solver._gate(band, x, rhs, offsets)

    @pytest.mark.parametrize("resolution", [8, [16, 8], [9, 16], 32])
    def test_schur_band_is_the_dense_complement(self, resolution):
        # S's LAPACK band, built from the compact band through the split's
        # index arrays, is A_bb - A_br diag(1 / a_r) A_rb
        mesh = build_mesh(Rectangle(1.0, 1.0), resolution)
        offsets = mesh.band_layout
        split = mesh.red_black
        red, black = split.red, split.black
        band = random_band(mesh, np.random.default_rng(3), 1e-3)
        A = dense(band, offsets)
        a_r = np.diagonal(A)[red]
        S = A[np.ix_(black, black)] - A[np.ix_(black, red)] @ (
            A[np.ix_(red, black)] / a_r[:, None])
        ab = solver._schur_band(schur_of(band, split), split,
                                solver._schur_fill(split))
        assert ab.flags.f_contiguous
        bs = split.bandwidth
        assert ab.shape == (bs + 1, len(black))
        assert np.all(np.triu(S, bs + 1) == 0.0)
        expanded = np.zeros_like(S)
        for d in range(bs + 1):
            i = np.arange(len(black) - d)
            expanded[i, i + d] = expanded[i + d, i] = ab[bs - d, d:]
        assert np.abs(expanded - S).max() <= 1e-13 * np.abs(S).max()

    @pytest.mark.parametrize("value", [-1.0, 0.0])
    @pytest.mark.parametrize("held", [False, True], ids=["fresh", "held"])
    def test_red_pivot_not_positive_fails_by_name(self, held, value):
        # a red diagonal <= 0 makes A indefinite, while S = D_b - B^T
        # D_r^-1 B stays positive definite for a negative one: the red
        # pivots are checked before any solve, whether or not a factor is
        # held, and the failure names the pivot
        mesh = build_mesh(Rectangle(1.0, 1.0), 8)
        offsets = mesh.band_layout
        split = mesh.red_black
        rng = np.random.default_rng(9)
        band = random_band(mesh, rng, 1e-3)
        rhs = rng.normal(size=band.shape[1])
        factor = solver.BandedFactor(mesh)
        if held:
            factor.solve(band.copy(), rhs, rhs)
        band[-1, split.red[3]] = value
        if value < 0.0:
            A = dense(band, offsets)
            assert np.linalg.eigvalsh(A).min() < 0.0
            B = A[np.ix_(split.red, split.black)]
            S = A[np.ix_(split.black, split.black)] - B.T @ (
                B / np.diagonal(A)[split.red][:, None])
            assert np.linalg.eigvalsh(S).min() > 0.0
        with pytest.raises(np.linalg.LinAlgError,
                           match="red-black pbtrf: pivot 4 of 49 "):
            factor.solve(band, rhs, rhs)
        assert factor.factorizations == int(held)

    def test_one_interior_node_is_all_red(self):
        # a 2 x 2 square has one interior node and no coupling: it is red,
        # S is empty, and the elimination alone solves the step, in PCG
        # too
        mesh = build_mesh(Rectangle(1.0, 1.0), 2)
        assert (len(mesh.red_black.red), len(mesh.red_black.black)) == (1, 0)
        u = Field(mesh, np.sin(np.pi * mesh.nodes).prod(axis=1)).constrained()
        cfg, factor = SolverConfig(p=1.5), solver.BandedFactor(mesh)
        band = mesh.interior_stiffness(
            model.Terms(1.5, cfg.eps).coefficient(u.grad_sq)
            * mesh.element_volumes)
        qw = mesh.interior_weights
        exact = qw * u.values[mesh.interior] / 1e-3 / (band[-1] + qw / 1e-3)
        for _ in range(2):
            new = step(u, 0.0, cfg, Zero(), 1e-3, factor=factor)
            assert new.values[mesh.interior] == pytest.approx(exact,
                                                              rel=1e-15)
        assert (factor.factorizations, factor.iterations) == (1, 0)

    def test_one_interior_node_chain_is_ptsv(self):
        # a chain with one interior node has a tridiagonal band too: a
        # plain field and each row of a stack solve by ptsv, one
        # factorization each, in a process that never imports
        # scipy.sparse nor loads its kernels. ptsv scales a 1 x 1 system by the reciprocal of its
        # pivot, as the red elimination that solved it before did: the
        # values are pinned to those bits. (Inside a larger block-diagonal
        # matrix ptsv divides instead, which changes the second row's last
        # bit.)
        src = pathlib.Path(solver.__file__).parents[1]
        script = (
            "import json, sys\n"
            "from tvheat import Field, Interval, Power, SolverConfig, "
            "build_mesh, solver, step\n"
            "mesh = build_mesh(Interval(1.0), 2)\n"
            "cfgs = [SolverConfig(p=1.5), SolverConfig(p=1.2, eps=1e-2), "
            "SolverConfig(p=2.0, eps=0.0)]\n"
            "dts = [1e-3, 2e-3, 5e-4]\n"
            "u = Field(mesh, [[0.0, a, 0.0] for a in (0.7, -0.3, 1.3)])\n"
            "factors = [solver.BandedFactor(mesh) for _ in cfgs]\n"
            "new = step(u, [0.0] * 3, cfgs, Power(3.0), dts, "
            "factor=factors)\n"
            "alone = [step(u.rows(i), 0.0, cfgs[i], Power(3.0), dts[i])"
            ".values[1] for i in range(3)]\n"
            "print(json.dumps([new.values[:, 1].tolist(), alone, "
            "[f.factorizations for f in factors], "
            "any(m.startswith('scipy.sparse') for m in sys.modules)]))\n")
        done = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        stacked, alone, factorizations, sparse = json.loads(done.stdout)
        pinned = [float.fromhex(x) for x in (
            "0x1.643e03a033cc2p-1", "-0x1.2c28844ab29d3p-2",
            "0x1.4bb0871e79a7fp+0")]
        assert stacked == alone == pinned
        assert factorizations == [1, 1, 1]
        assert not sparse

    def test_1d_flat_extinction_time_unchanged(self):
        # criterion 1's run, pinned to the last bit: the step sequence of
        # the E_p,eps gate and the extinction bisection
        mesh = build_mesh(Interval(1.0), 400)
        u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()
        traj = run(mesh, u0, SolverConfig(p=1.01, eps=1e-4, T_end=1.0),
                   Zero())
        assert traj.status.kind == "extinct"
        assert traj.status.time == 0.4800778155096372

    def test_1d_reaction_run_unchanged(self):
        # radial_exp's run at resolution 100, pinned to the last bit: the
        # reaction's f and F in every snapshot and step, the gate's
        # rejections and the extinction bisection
        mesh = build_mesh(Annulus(1.0, 2.0, dim=3), 100)
        u0 = model.tent(mesh, 1.0, [1.5], [1.0])
        traj = run(mesh, u0, SolverConfig(p=1.5, T_end=1.0),
                   ExpPower(3.0, 1.0, p0=1.9))
        assert (traj.status.kind, traj.status.reason) == ("extinct", "tol_ext")
        assert traj.status.time == 0.32380447636944315
        assert len(traj.times) - 1 == 2480
        assert (traj.rejected_steps, traj.extinction_probes) == (10, 8)
        assert (traj.factorizations, traj.pcg_iterations) == (2498, 0)
        digest = hashlib.sha256(traj.states[-1][1].values.tobytes())
        assert digest.hexdigest() == ("fba7ea92087b593fb8a5031a5899d327"
                                      "bc5a80a3f0a9ef8b705b8ac4d116bc97")

    def test_1d_reaction_run_enters_errstate_once_per_step(self):
        # test_1d_reaction_run_unchanged's run enters np.errstate at most
        # once per step call, counted under sys.setprofile: each snapshot
        # evaluates its state, reaction included, under one errstate
        mesh = build_mesh(Annulus(1.0, 2.0, dim=3), 100)
        u0 = model.tent(mesh, 1.0, [1.5], [1.0])
        cfg, nl = SolverConfig(p=1.5, T_end=1.0), ExpPower(3.0, 1.0, p0=1.9)
        calls = collections.Counter()

        def count(frame, event, arg):
            code = frame.f_code
            where = (os.path.basename(code.co_filename), code.co_name)
            if event == "call" and where in (("_ufunc_config.py", "__enter__"),
                                             ("solver.py", "step")):
                calls[code.co_name] += 1

        sys.setprofile(count)
        try:
            run(mesh, u0, cfg, nl)
        finally:
            sys.setprofile(None)
        assert calls["step"] == 2498
        assert calls["__enter__"] <= calls["step"], calls

    def test_1d_run_python_calls_per_step(self):
        # criterion 1's run makes at most PLAIN_CALLS_PER_STEP calls to
        # tvheat's Python functions per step call, counted under
        # sys.setprofile; frames inside numpy, scipy and the standard
        # library are not counted, so only a helper layer added to tvheat's
        # plain march fails here, by name
        package = os.path.dirname(solver.__file__) + os.sep
        mesh = build_mesh(Interval(1.0), 400)
        u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()
        cfg = SolverConfig(p=1.01, eps=1e-4, T_end=1.0)
        run(mesh, u0, cfg.replace(T_end=cfg.dt0), Zero())   # mesh caches
        calls = collections.Counter()

        def count(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename.startswith(package):
                calls[f"{os.path.basename(code.co_filename)}:"
                      f"{code.co_name}"] += 1

        sys.setprofile(count)
        try:
            traj = run(mesh, u0, cfg, Zero())
        finally:
            sys.setprofile(None)
        steps = calls["solver.py:step"]
        assert steps == (len(traj.times) - 1 + traj.rejected_steps
                         + traj.extinction_probes) == 1735
        per_step = {name: round(n / steps, 2)
                    for name, n in calls.most_common()}
        assert sum(calls.values()) <= PLAIN_CALLS_PER_STEP * steps, per_step

    def test_stacked_march_python_calls_per_step(self):
        # the twin of test_1d_run_python_calls_per_step for criterion 7's
        # continuation: at most STACKED_CALLS_PER_STEP calls to tvheat's
        # Python functions per step call, so that a helper layer added to
        # the stacked march fails here, by name
        package = os.path.dirname(solver.__file__) + os.sep
        mesh = build_mesh(Interval(1.0), 400)
        u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()
        plan = ContinuationPlan(
            u0, Zero(), SolverConfig(p=1.5, eps=1e-4, T_end=0.41),
            p_sequence=tuple(1.0 + 2.0 ** (-m) for m in range(1, 7)),
            checkpoint_times=(0.4,))
        run(mesh, u0, SolverConfig(p=1.5, T_end=1e-3), Zero())  # mesh caches
        calls = collections.Counter()

        def count(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename.startswith(package):
                calls[f"{os.path.basename(code.co_filename)}:"
                      f"{code.co_name}"] += 1

        sys.setprofile(count)
        try:
            run_continuation(plan)
        finally:
            sys.setprofile(None)
        # one step call steps every running member
        steps = calls["solver.py:step"]
        assert steps == 3322
        per_step = {name: round(n / steps, 2)
                    for name, n in calls.most_common()}
        assert sum(calls.values()) <= STACKED_CALLS_PER_STEP * steps, per_step

    def test_2d_run_unchanged(self, rect_run):
        # the 2-D companion: the stale-factor PCG run, pinned to the last bit
        traj, _, _ = rect_run
        digest = hashlib.sha256(traj.states[-1][1].values.tobytes())
        assert digest.hexdigest() == ("5bac88a2b806aab4a3bdbe51bdb533ac"
                                      "eecf2cadf9b341ab6edb5a064014461c")
        assert len(traj.times) - 1 == 281
        assert traj.status.kind == "completed"
        assert (traj.factorizations, traj.pcg_iterations) == (3, 1379)


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

    def test_criterion_7_continuation_each_as_alone(self):
        # criterion 7's six members, p = 1 + 2^-m, m = 1..6, eps = (p -
        # 1)^2, to T_end 0.41 with a checkpoint at 0.4: the stacked march,
        # which judges the step's own stack while no member drops out or
        # bisects, ends each member as run ends it alone
        mesh = build_mesh(Interval(1.0), 400)
        u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()
        cfgs = [SolverConfig(p=p, eps=(p - 1.0) ** 2, T_end=0.41,
                             checkpoint_times=(0.4,))
                for p in (1.0 + 2.0 ** -m for m in range(1, 7))]
        assert self.assert_each_as_alone(mesh, u0, cfgs, Zero()) == \
            [("completed", "t_end")] * 6

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

    def test_member_past_u_max_stops_at_t0(self):
        # the first member's u0 is past its U_max: it stops at t = 0,
        # before the first step, and the second marches on alone
        mesh = build_mesh(Interval(1.0), 50)
        u0 = hat(mesh, 0.1)
        cfgs = [SolverConfig(p=1.5, U_max=0.05),
                SolverConfig(p=1.5, T_end=0.02)]
        assert march(mesh, u0, cfgs, Zero())[0].times == [0.0]
        assert self.assert_each_as_alone(mesh, u0, cfgs, Zero()) == \
            [("blowup", "u_max"), ("completed", "t_end")]

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

    def test_lone_trial_is_judged_as_alone(self):
        # the first member's first solve fails, so the second member's
        # trial is the lone survivor of the first iteration; it is judged
        # there, and marches on alone from the next iteration
        mesh = build_mesh(Interval(1.0), 50)
        u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()
        cfgs = [SolverConfig(p=1.5, eps=0.0),
                SolverConfig(p=1.5, T_end=0.02)]
        assert self.assert_each_as_alone(mesh, u0, cfgs, Zero()) == \
            [("step_failure", "linear_solve"), ("completed", "t_end")]

    def test_failed_probe_leaves_while_others_complete(self, monkeypatch):
        # an extinction probe (a step without the stack's Terms) whose
        # solve fails ends that member at its last accepted time; the
        # others run on as they do alone
        mesh = build_mesh(Interval(1.0), 50)
        cfgs = [SolverConfig(p=1.05, T_end=0.05),
                SolverConfig(p=1.5, T_end=0.05, checkpoint_times=(0.025,))]
        alone = [run(mesh, hat(mesh, 0.1), cfg, Zero()) for cfg in cfgs]
        step_ = solver.step

        def failing_probe(*args, **kwargs):
            if "terms" not in kwargs:
                raise StepFailureError("probe")
            return step_(*args, **kwargs)

        monkeypatch.setattr(solver, "step", failing_probe)
        failed, other = march(mesh, hat(mesh, 0.1), cfgs, Zero())
        assert alone[0].status.kind == "extinct"
        assert (failed.status.kind, failed.status.reason) == \
            ("step_failure", "linear_solve")
        assert failed.status.time == failed.times[-1]
        assert failed.times == alone[0].times[:-1]
        assert failed.extinction_probes == 0
        assert other.status == alone[1].status
        assert other.times == alone[1].times
        assert other.snapshots == alone[1].snapshots

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
        factors = [solver.BandedFactor(mesh) for _ in cfgs]
        new = step(stack, [0.0] * 3, cfgs, Zero(), dts, factor=factors)
        assert np.isnan(new.values[1]).all()
        with pytest.raises(StepFailureError):
            step(stack.rows(1), 0.0, cfgs[1], Zero(), dts[1])
        for i in (0, 2):
            alone = step(stack.rows(i), 0.0, cfgs[i], Zero(), dts[i],
                         factor=solver.BandedFactor(mesh))
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
        old = model.snapshot(u, t, model.Terms(p), Zero(), 0.0)
        E_eps = regularized_energy(u, p, eps, old)
        r_eps = []
        for dt in (1e-6, 1e-5, 1e-4, 1e-3):
            new = step(u, t, cfg, Zero(), dt)
            snap = model.snapshot(new, t + dt, model.Terms(p), Zero(), 0.0)
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
        snap = model.snapshot(u, 0.0, model.Terms(p), Power(q=3.0), 0.0)
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

    def test_probe_that_fails_the_gate_is_rejected(self, mesh, monkeypatch):
        # the shortest extinct probe is the member's one trial: when the
        # gate rejects it (its E_eps raised by 1 here), that counts one
        # rejected step, and the next step from the same state is half the
        # probe's size
        trials, rejects = [], []   # (t, dt, probe?, sup) of each step
        bumped = []                # the time of the one raised snapshot
        step_, snapshot_ = solver.step, solver.snapshot
        reject_ = solver._Member.reject
        cfg = SolverConfig(p=1.5, eps=1e-4, T_end=2.0)

        def recorded(state, t, cfg, nl, dt=None, **kwargs):
            new = step_(state, t, cfg, nl, dt, **kwargs)
            trials.append((t, dt, "terms" not in kwargs, new.sup()))
            return new

        def failed_once(*args):
            snap = snapshot_(*args)
            if not bumped and snap.sup <= cfg.tol_ext:
                snap.E_eps += 1.0
                bumped.append(snap.time)
            return snap

        def recorded_reject(m):
            rejects.append((m.t, m.h))
            reject_(m)

        monkeypatch.setattr(solver, "step", recorded)
        monkeypatch.setattr(solver, "snapshot", failed_once)
        monkeypatch.setattr(solver._Member, "reject", recorded_reject)
        u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()
        traj = run(mesh, u0, cfg, Zero())
        assert traj.status.kind == "extinct"
        assert traj.rejected_steps == len(rejects)
        # the first step that ended extinct, its probes and the next step
        halvings = solver.EXTINCTION_HALVINGS
        i = next(i for i, trial in enumerate(trials) if trial[2])
        t, crossed, _, _ = trials[i - 1]
        probes = trials[i:i + halvings]
        assert all(pt == t and probe for pt, _, probe, _ in probes)
        h = min(dt for _, dt, _, sup in probes if sup <= cfg.tol_ext)
        assert h < crossed and bumped == [t + h]
        assert (t, h) in rejects
        assert trials[i + halvings][:3] == (t, h / 2.0, False)
        assert t not in traj.times[-1:] and traj.times[-1] > t


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
