"""Flux fields and the p -> 1 continuation.

Extracts the element-wise flux z = (|grad u|^2 + eps^2)^((p-2)/2) grad u from
a state, builds its nodal divergence as the discrete adjoint of the gradient
under the quadrature inner product (which makes the Green identity exact up
to arithmetic), and audits the weak-formulation conditions: flux alignment
with the gradient, boundary sign of the normal trace, flux magnitude, and the
uniform energy/dissipation bounds along a decreasing sequence of p values.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field

import numpy as np

from .mesh import Annulus, Field, Mesh
from .model import Nonlinearity, Terms, grad_p_norm, total_variation, \
    well_levels
from .solver import SolverConfig, march


class LimitError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Flux fields
# ---------------------------------------------------------------------------

@dataclass
class FluxField:
    """Element-wise vector field approximating |grad u|^(p-2) grad u, with a
    normal trace on the boundary and a nodal divergence defined as the
    discrete adjoint of the gradient."""

    mesh: Mesh
    z: np.ndarray                 # (n_el, dim_coord)
    boundary_trace: np.ndarray    # z . nu per boundary node
    div: np.ndarray               # (n_nodes,)

    def max_abs(self) -> float:
        return float(np.sqrt((self.z ** 2).sum(axis=1)).max(initial=0.0))


def flux_from_vectors(mesh: Mesh, z: np.ndarray) -> FluxField:
    """Wrap an element-wise vector field of shape (n_el, dim_coord), or
    (n_el,) on a 1-D mesh; trace by the normal component at the
    boundary-adjacent element, divergence by adjointness:

        sum_e v_e z_e . grad(w)_e + sum_i w_i qw_i div_i
            = sum_b bw_b w_b trace_b      for every nodal w.
    """
    z = np.asarray(z, dtype=float)
    if z.shape == (mesh.n_elements,):
        z = z[:, None]
    if z.shape != (mesh.n_elements, mesh.dim_coord):
        raise LimitError(f"flux sized {z.shape}; expected "
                         f"({mesh.n_elements}, {mesh.dim_coord})")
    trace = np.einsum("bk,bk->b",
                      z[mesh.boundary_elements], mesh.boundary_normals)
    B = np.zeros(mesh.n_nodes)
    B[mesh.boundary_nodes] = mesh.boundary_weights * trace
    div = (B - mesh.gradient_adjoint(z)) / mesh.quad_weights
    return FluxField(mesh, z, trace, div)


def extract_flux(field: Field, p: float, eps: float = 0.0) -> FluxField:
    """Flux of a state at parameter p with gradient regularization eps."""
    if not (0 <= eps and math.isfinite(eps * eps)):
        raise LimitError(f"eps must be >= 0 with a finite square, got {eps}")
    return flux_from_vectors(field.mesh,
                             Terms(p, eps).coefficient(field.grad_sq)[:, None]
                             * field.grad)


def flux_alignment(fluxfield: FluxField, field: Field) -> float:
    """Ratio int z . grad u / int |grad u| over the elements whose gradient
    exceeds 1e-6 of the largest; 1.0 when the denominator vanishes (the
    condition is vacuous)."""
    mesh = field.mesh
    if fluxfield.mesh is not mesh:
        raise LimitError("flux and field live on different meshes")
    g, mag = field.grad, field.grad_mag
    active = mag > 1e-6 * mag.max(initial=0.0)
    denom = float((mesh.element_volumes * mag)[active].sum())
    if denom == 0.0:
        return 1.0
    num = float((mesh.element_volumes
                 * np.einsum("ek,ek->e", fluxfield.z, g))[active].sum())
    return num / denom


BOUNDARY_SIGN_TOL = 0.05   # per node, and in the continuation verdict


def boundary_sign_check(fluxfield: FluxField, field: Field) -> dict:
    """Check the boundary condition trace(z) in sign(-u) nodewise; it
    passes where every violation is at most BOUNDARY_SIGN_TOL.

    Where |u| <= 1e-8 the admissible set is the full interval [-1, 1]; the
    violation there is the excess of |trace| over 1. Elsewhere the violation
    is |trace - sign(-u)|.
    """
    mesh = field.mesh
    ub = field.values[mesh.boundary_nodes]
    tr = fluxfield.boundary_trace
    zero_u = np.abs(ub) <= 1e-8
    viol = np.where(zero_u,
                    np.maximum(np.abs(tr) - 1.0, 0.0),
                    np.abs(tr - np.sign(-ub)))
    worst = int(np.argmax(viol))
    return {
        "worst_violation": float(viol[worst]),
        "worst_node": int(mesh.boundary_nodes[worst]),
        "passes": bool(np.all(viol <= BOUNDARY_SIGN_TOL)),
        "tol_sign": BOUNDARY_SIGN_TOL,
    }


def green_residual(fluxfield: FluxField, w: Field) -> float:
    """|int z . grad w + int w div z - boundary integral of w trace(z)|;
    identically zero up to arithmetic by the adjoint construction of div."""
    mesh = w.mesh
    if fluxfield.mesh is not mesh:
        raise LimitError("flux and field live on different meshes")
    vol = float(mesh.element_volumes
                @ np.einsum("ek,ek->e", fluxfield.z, w.grad))
    bulk = mesh.integrate(w.values * fluxfield.div)
    bnd = mesh.boundary_integrate(
        w.values[mesh.boundary_nodes] * fluxfield.boundary_trace)
    return abs(vol + bulk - bnd)


def bv_norm(field: Field) -> float:
    """The BV norm of the extension by zero: int |grad u| + boundary
    integral of |u|."""
    mesh = field.mesh
    return total_variation(field) + mesh.boundary_integrate(
        np.abs(field.values[mesh.boundary_nodes]))


def radial_sup_bound_check(field: Field) -> dict:
    """Radial sup bound: |u(r)| <= r^(1-N) ||u|| with the norm ``bv_norm``."""
    mesh = field.mesh
    dom = mesh.domain
    if not isinstance(dom, Annulus):
        raise LimitError("radial sup bound applies to annulus meshes only")
    norm = bv_norm(field)
    r = mesh.nodes[:, 0]
    bound = r ** (1 - dom.dim) * norm
    slack = bound - np.abs(field.values)
    worst = int(np.argmin(slack))
    return {
        "norm": norm,
        "worst_slack": float(slack[worst]),
        "worst_radius": float(r[worst]),
        "passes": bool(np.all(slack >= -1e-12 * (1.0 + norm))),
    }


# ---------------------------------------------------------------------------
# Continuation
# ---------------------------------------------------------------------------

def default_p_sequence(m_start: int = 1, m_end: int = 8) -> tuple:
    """p_m = 1 + 2^-m for m_start <= m <= m_end; past m = 52, p_m rounds
    to 1."""
    if not 0 <= m_start <= m_end <= 52:
        raise LimitError(f"need 0 <= m_start <= m_end <= 52, got "
                         f"m_start={m_start}, m_end={m_end}")
    return tuple(1.0 + 2.0 ** (-m) for m in range(m_start, m_end + 1))


def check_p_sequence(p_sequence) -> tuple:
    """``p_sequence`` as a tuple of floats; raises LimitError unless it is
    non-empty, strictly decreasing and inside (1, 2]."""
    ps = tuple(float(p) for p in p_sequence)
    if not ps:
        raise LimitError("p_sequence is empty")
    if not all(1.0 < p <= 2.0 for p in ps):
        raise LimitError(f"every p in p_sequence must lie in (1, 2], "
                         f"got {ps}")
    if any(b >= a for a, b in zip(ps, ps[1:])):
        raise LimitError("p_sequence must be strictly decreasing")
    return ps


@dataclass
class ContinuationPlan:
    """A strictly decreasing sequence of p values in (1, 2] sharing initial
    data, reaction and solver controls; each member's p, eps = (p - 1)^2
    (the derived ``eps_schedule``) and checkpoint times are the plan's."""

    u0: Field
    nl: Nonlinearity
    cfg_template: SolverConfig
    p_sequence: tuple = dc_field(default_factory=default_p_sequence)
    checkpoint_times: tuple = ()
    eps_schedule: tuple = dc_field(init=False)

    def __post_init__(self):
        ps = check_p_sequence(self.p_sequence)
        if not all(0 < c <= self.cfg_template.T_end
                   for c in self.checkpoint_times):
            raise LimitError(f"checkpoint_times must lie in (0, T_end], got "
                             f"{tuple(self.checkpoint_times)}")
        self.p_sequence = ps
        self.eps_schedule = tuple((p - 1.0) ** 2 for p in ps)


@dataclass
class MemberRecord:
    p: float
    eps: float
    status: str
    max_abs_z: float
    alignment_min: float
    boundary_sign_worst: float
    grad_bound_worst: float
    dissipation_total: float
    d_hat: float
    energy_inequality_worst_residual: float
    accepted_steps: int
    rejected_steps: int      # trials the energy gate rejected
    extinction_probes: int   # bisection steps locating extinction
    flux_increment: float | None = None   # L2 distance to previous member

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ContinuationReport:
    records: list
    verdict: dict

    def as_dict(self) -> dict:
        return {"records": [r.as_dict() for r in self.records],
                "verdict": self.verdict}


def limit_energy(field: Field, nl: Nonlinearity) -> float:
    """The p = 1 energy: ``bv_norm`` - int F(u)."""
    return bv_norm(field) - field.mesh.integrate(nl.F(field.values))


def run_continuation(plan: ContinuationPlan) -> ContinuationReport:
    """Run every member of the plan and audit the weak-formulation conditions.

    The members run in one lockstep ``march``, which keeps the states each
    record reads: the initial state, the states at the checkpoints and
    T_end, and the last state. Per member: flux extraction at the
    checkpoints, flux magnitude/alignment/boundary-sign audits, the p_m
    energy and dissipation ceilings, the level estimate, the p = 1 energy
    inequality evaluated with the limit energy, and the step counts. A
    failed member surfaces its status; the report is still emitted for the
    completed members.
    """
    mesh = plan.u0.mesh
    nl = plan.nl
    checkpoints = tuple(plan.checkpoint_times) or (plan.cfg_template.T_end,)
    records = []
    prev_fluxes = None
    E1_0 = limit_energy(plan.u0, nl)
    d_hats = well_levels(mesh, plan.u0, nl, plan.p_sequence)

    cfgs = [plan.cfg_template.replace(p=p, eps=eps,
                                      checkpoint_times=checkpoints)
            for p, eps in zip(plan.p_sequence, plan.eps_schedule)]
    trajs = march(mesh, plan.u0, cfgs, nl)

    for p, eps, traj, d_hat in zip(plan.p_sequence, plan.eps_schedule,
                                   trajs, d_hats):
        # the stored state nearest each checkpoint
        states = [min(traj.states, key=lambda tf: abs(tf[0] - c))
                  for c in checkpoints]
        fluxes = [extract_flux(f, p, eps) for _, f in states]
        max_z = max((ff.max_abs() for ff in fluxes), default=0.0)
        align = min((flux_alignment(ff, f)
                     for ff, (_, f) in zip(fluxes, states)), default=1.0)
        bnd = max((boundary_sign_check(ff, f)["worst_violation"]
                   for ff, (_, f) in zip(fluxes, states)), default=0.0)
        grad_worst = max((grad_p_norm(f, p) for _, f in states), default=0.0)

        worst_res = -math.inf
        for (t, f) in states:
            # the last snapshot at or before t; the ledger's times increase
            last = bisect_right(traj.times, t) - 1
            diss = traj.snapshots[last].dissipation_cum if last >= 0 else 0.0
            worst_res = max(worst_res, diss + limit_energy(f, nl) - E1_0)

        incr = None
        if prev_fluxes is not None:
            diffs = [math.sqrt(float(mesh.element_volumes
                                     @ ((a.z - b.z) ** 2).sum(axis=1)))
                     for a, b in zip(fluxes, prev_fluxes)]
            incr = max(diffs, default=0.0)
        prev_fluxes = fluxes

        records.append(MemberRecord(
            p=p, eps=eps, status=traj.status.kind,
            max_abs_z=max_z, alignment_min=align,
            boundary_sign_worst=bnd, grad_bound_worst=grad_worst,
            dissipation_total=traj.snapshots[-1].dissipation_cum,
            d_hat=d_hat, energy_inequality_worst_residual=worst_res,
            accepted_steps=len(traj.times) - 1,
            rejected_steps=traj.rejected_steps,
            extinction_probes=traj.extinction_probes,
            flux_increment=incr,
        ))

    last = records[-1]
    tol = {"max_abs_z": 1.0 + 10.0 * (last.p - 1.0),
           "alignment": 0.95, "boundary_sign": BOUNDARY_SIGN_TOL}
    verdict = {
        "flux_bounded": last.max_abs_z <= tol["max_abs_z"],
        "flux_aligned": last.alignment_min >= tol["alignment"],
        "boundary_sign": last.boundary_sign_worst <= tol["boundary_sign"],
        "tolerances": tol,
    }
    return ContinuationReport(records, verdict)
