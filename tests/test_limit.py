"""Flux extraction, weak-formulation audits and the p -> 1 continuation."""

import math

import numpy as np
import pytest

from tvheat import (Annulus, ContinuationPlan, Field, Interval, Power,
                    Rectangle, SolverConfig, Zero, boundary_sign_check,
                    build_mesh, default_p_sequence, extract_flux,
                    flux_alignment, green_residual, limit_energy,
                    radial_sup_bound_check, run_continuation)
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
        with pytest.raises(LimitError):
            extract_flux(hat(mesh), 1.5, eps=-1.0)

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
            ContinuationPlan(hat(mesh), Zero(), cfg, p_sequence=(1.5, 1.25),
                             eps_schedule=(1e-2,))
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

    def test_limit_energy_of_hat(self, mesh):
        # TV of the hat is 2 and the boundary trace term vanishes
        assert limit_energy(hat(mesh), Zero()) == pytest.approx(2.0)
