"""Flux extraction, weak-formulation audits and the p -> 1 continuation."""

import math

import numpy as np
import pytest

from tvheat import (Annulus, ContinuationPlan, Field, Interval, Power,
                    Rectangle, SolverConfig, Zero, boundary_sign_check,
                    build_mesh, default_p_sequence, extract_flux,
                    flux_alignment, green_residual, limit_energy,
                    radial_sup_bound_check, run, run_continuation)
from tvheat import limit
from tvheat.limit import LimitError, flux_from_vectors
from tvheat.model import energy_derivative


@pytest.fixture
def mesh():
    return build_mesh(Interval(1.0), 100)


def hat(mesh, amp=1.0):
    x = mesh.nodes[:, 0]
    return Field(mesh, amp * np.maximum(0.0, 1.0 - 2.0 * np.abs(x - 0.5)))


class TestFlux:
    def test_extract_magnitude(self, mesh):
        # |grad| = 2 under the hat: |z| = (4 + eps^2)^((p-2)/2) * 2
        f = hat(mesh)
        p = 1.5
        ff = extract_flux(f, p, eps=0.0)
        assert ff.max_abs() == pytest.approx(2.0 ** (p - 1.0), rel=1e-12)

    def test_shape_validation(self, mesh):
        with pytest.raises(LimitError):
            flux_from_vectors(mesh, np.zeros((3, 1)))
        for eps in (-1.0, math.nan, math.inf, 1e300):
            with pytest.raises(LimitError):
                extract_flux(hat(mesh), 1.5, eps=eps)

    def test_flat_flux_on_an_interval(self, mesh):
        # a 1-D mesh takes an (n_el,) flux as its (n_el, 1) column; a 2-D
        # mesh has no such reading
        z = np.random.default_rng(2).normal(size=mesh.n_elements)
        flat, column = flux_from_vectors(mesh, z), \
            flux_from_vectors(mesh, z[:, None])
        assert flat.z.shape == (mesh.n_elements, 1)
        for a, b in ((flat.z, column.z), (flat.div, column.div),
                     (flat.boundary_trace, column.boundary_trace)):
            assert np.array_equal(a, b)
        square = build_mesh(Rectangle(1.0, 1.0), 4)
        with pytest.raises(LimitError, match="expected"):
            flux_from_vectors(square, np.zeros(square.n_elements))

    def test_green_residual_is_arithmetic_zero(self, mesh):
        # the divergence is the gradient's adjoint on every kind of mesh
        rng = np.random.default_rng(0)
        for m in (mesh, build_mesh(Annulus(1.0, 2.0, dim=3), 60),
                  build_mesh(Rectangle(1.0, 1.0), [7, 4])):
            z = rng.normal(size=(m.n_elements, m.dim_coord))
            ff = flux_from_vectors(m, z)
            w = Field(m, rng.normal(size=m.n_nodes))
            scale = (1.0 + np.abs(z).max()) * (1.0 + w.sup())
            assert green_residual(ff, w) <= 1e-12 * scale, m.domain

    @pytest.mark.parametrize("resolution", [[2, 3], [3, 2]])
    def test_green_residual_with_as_many_elements_as_nodes(self, resolution):
        # 12 nodes and 12 triangles: the volume term is still element-wise
        m = build_mesh(Rectangle(1.0, 1.0), resolution)
        assert m.n_nodes == m.n_elements
        rng = np.random.default_rng(1)
        z = rng.normal(size=(m.n_elements, m.dim_coord))
        w = Field(m, rng.normal(size=m.n_nodes))
        scale = (1.0 + np.abs(z).max()) * (1.0 + w.sup())
        assert green_residual(flux_from_vectors(m, z), w) <= 1e-12 * scale

    @pytest.mark.parametrize("audit", [flux_alignment, green_residual])
    def test_field_on_another_mesh_fails_by_name(self, mesh, audit):
        # an equal mesh built apart is another mesh
        ff = extract_flux(hat(mesh), 1.5)
        other = build_mesh(Interval(1.0), 100)
        with pytest.raises(LimitError, match="different meshes"):
            audit(ff, hat(other))

    def test_alignment_unit_slope(self, mesh):
        # z . grad u = |grad u|^p, so the ratio is int|g|^p / int|g| = 2^(p-1)
        f = hat(mesh)
        ff = extract_flux(f, 1.5, eps=0.0)
        assert flux_alignment(ff, f) == pytest.approx(2.0 ** 0.5, rel=1e-12)

    def test_flat_elements_without_regularization(self, mesh):
        # eps = 0: the coefficient meets |grad u| = 0 on the plateau
        f = Field(mesh, np.minimum(1.0, 4.0 * hat(mesh).values))
        flat = f.grad[:, 0] == 0.0
        assert flat.any()
        ff = extract_flux(f, 1.5, eps=0.0)
        assert np.all(np.isfinite(ff.z))
        assert np.all(ff.z[flat] == 0.0)
        assert math.isfinite(energy_derivative(f, hat(mesh), 1.5, Zero()))

    def test_alignment_vacuous_on_flat_field(self, mesh):
        f = Field.zeros(mesh)
        ff = extract_flux(f, 1.5, eps=1e-4)
        assert flux_alignment(ff, f) == 1.0

    def test_boundary_sign_zero_u(self, mesh):
        # Dirichlet state: admissible trace is [-1, 1]; a p near 1 flux of a
        # decaying profile has |trace| <= 1 up to discretization
        f = hat(mesh)
        ff = extract_flux(f, 1.01, eps=1e-4)
        rep = boundary_sign_check(ff, f)
        assert rep["passes"]


class TestRadialBound:
    def test_affine_radial_fields(self):
        mesh = build_mesh(Annulus(1.0, 2.0, dim=2), 60)
        rng = np.random.default_rng(1)
        for _ in range(5):
            vals = rng.normal() * mesh.nodes[:, 0] + rng.normal()
            rep = radial_sup_bound_check(Field(mesh, vals))
            assert rep["passes"]

    def test_interval_rejected(self, mesh):
        with pytest.raises(LimitError):
            radial_sup_bound_check(hat(mesh))


class TestContinuation:
    def test_default_sequence(self):
        seq = default_p_sequence(1, 4)
        assert seq == (1.5, 1.25, 1.125, 1.0625)

    @pytest.mark.parametrize("m_start, m_end", [(3, 1), (-1, 2), (1, 53),
                                                (1, 10 ** 6)])
    def test_default_sequence_range(self, m_start, m_end):
        # past m = 52, 1 + 2^-m rounds to 1; the check comes before the
        # sequence is built
        with pytest.raises(LimitError, match="m_end"):
            default_p_sequence(m_start, m_end)

    def test_plan_validation(self, mesh):
        cfg = SolverConfig(p=1.5, T_end=0.1)
        with pytest.raises(LimitError):
            ContinuationPlan(hat(mesh), Zero(), cfg, p_sequence=(1.25, 1.5))
        with pytest.raises(LimitError):
            ContinuationPlan(hat(mesh), Zero(), cfg, p_sequence=(1.5, 1.0))
        with pytest.raises(LimitError):
            ContinuationPlan(hat(mesh), Zero(), cfg, p_sequence=())
        # a NaN or a p above 2 used to pass, and fail only when run
        for ps in ((1.5, math.nan), (1e200,), (3.0, 1.5)):
            with pytest.raises(LimitError, match="p_sequence"):
                ContinuationPlan(hat(mesh), Zero(), cfg, p_sequence=ps)
        # a checkpoint past T_end, or NaN, used to audit the nearest state
        for cs in ((0.5,), (0.05, math.nan), (0.0,)):
            with pytest.raises(LimitError, match="checkpoint_times"):
                ContinuationPlan(hat(mesh), Zero(), cfg, checkpoint_times=cs)

    def test_default_eps_schedule(self, mesh):
        cfg = SolverConfig(p=1.5, T_end=0.1)
        plan = ContinuationPlan(hat(mesh), Zero(), cfg,
                                p_sequence=(1.5, 1.25))
        assert plan.eps_schedule == pytest.approx((0.25, 0.0625))

    def test_small_flat_continuation(self, mesh):
        u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()
        cfg = SolverConfig(p=1.5, T_end=0.21, eps=1e-4)
        plan = ContinuationPlan(u0, Zero(), cfg,
                                p_sequence=default_p_sequence(1, 3),
                                checkpoint_times=(0.2,))
        report = run_continuation(plan)
        assert len(report.records) == 3
        ps = [r.p for r in report.records]
        assert ps == sorted(ps, reverse=True)
        for rec in report.records:
            assert rec.status in ("completed", "extinct")
            assert rec.max_abs_z <= 1.0 + 10.0 * (rec.p - 1.0)
        assert set(report.verdict) >= {"flux_bounded", "flux_aligned",
                                       "boundary_sign"}
        d = report.as_dict()
        assert len(d["records"]) == 3

    @pytest.mark.parametrize("resolution", [[2, 3], [3, 2]])
    def test_flux_increment_with_as_many_elements_as_nodes(self, resolution):
        # the L2 distance of two members' fluxes is an element-wise
        # quadrature on a mesh with 12 nodes and 12 triangles too
        m = build_mesh(Rectangle(1.0, 1.0), resolution)
        assert m.n_nodes == m.n_elements
        x = m.nodes
        u0 = Field(m, np.sin(np.pi * x).prod(axis=1) + x[:, 0]).constrained()
        cfg = SolverConfig(p=1.5, T_end=0.01)
        plan = ContinuationPlan(u0, Zero(), cfg, p_sequence=(1.5, 1.25),
                                checkpoint_times=(0.01,))
        report = run_continuation(plan)
        z = []
        for p, eps in zip(plan.p_sequence, plan.eps_schedule):
            traj = run(m, u0, cfg.replace(p=p, eps=eps,
                                          checkpoint_times=(0.01,)), Zero())
            assert traj.states[-1][0] == 0.01
            z.append(extract_flux(traj.states[-1][1], p, eps).z)
        ref = math.sqrt(sum(vol * (dz @ dz) for vol, dz
                            in zip(m.element_volumes, z[1] - z[0])))
        assert ref > 0.0
        assert report.records[1].flux_increment == pytest.approx(ref,
                                                                 rel=1e-12)

    def test_criterion_7_member_step_counts(self):
        # criterion 7's members, pinned to the counts each took when run
        # alone, one after another
        mesh = build_mesh(Interval(1.0), 400)
        u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()
        plan = ContinuationPlan(u0, Zero(),
                                SolverConfig(p=1.5, eps=1e-4, T_end=0.41),
                                p_sequence=default_p_sequence(1, 6),
                                checkpoint_times=(0.4,))
        records = run_continuation(plan).records
        assert [r.accepted_steps for r in records] == \
            [3308, 2910, 2805, 2391, 2017, 1577]
        assert [r.rejected_steps for r in records] == \
            [14, 14, 15, 13, 11, 12]
        assert [r.extinction_probes for r in records] == [0] * 6

    def test_members_keep_only_the_states_they_read(self, mesh,
                                                    monkeypatch):
        # the initial state, the checkpoints, T_end and the last state; the
        # extinct member's last state is its extinction
        trajs = []
        march = limit.march

        def kept(*args):
            trajs.extend(march(*args))
            return trajs

        monkeypatch.setattr(limit, "march", kept)
        cfg = SolverConfig(p=1.5, T_end=0.05)
        plan = ContinuationPlan(hat(mesh, 0.1), Zero(), cfg,
                                p_sequence=(1.5, 1.03),
                                checkpoint_times=(0.01, 0.02))
        report = run_continuation(plan)
        assert [r.status for r in report.records] == ["completed", "extinct"]
        done, extinct = trajs
        assert [t for t, _ in done.states] == [0.0, 0.01, 0.02, 0.05]
        assert [t for t, _ in extinct.states][:3] == [0.0, 0.01, 0.02]
        assert [t for t, _ in extinct.states][3:] == [extinct.status.time]
        for traj, rec in zip(trajs, report.records):
            assert rec.accepted_steps == len(traj.times) - 1
            assert rec.rejected_steps == traj.rejected_steps
            assert rec.extinction_probes == traj.extinction_probes
        assert report.records[1].extinction_probes > 0

    def test_limit_energy_of_hat(self, mesh):
        # TV of the hat is 2 and the boundary trace term vanishes
        assert limit_energy(hat(mesh), Zero()) == pytest.approx(2.0)
