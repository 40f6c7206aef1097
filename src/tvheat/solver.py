"""Semi-implicit time integration of the nodal p-Laplacian reaction system.

Each step freezes the diffusion coefficient (|grad u|^2 + eps^2)^((p-2)/2) at
the current state (lagged diffusivity), solves the resulting symmetric
positive-definite linear system implicitly, and treats the reaction
explicitly. The step size is controlled by the discrete energy-dissipation
identity: a step is accepted only when

    ||du/dt||_2^2 dt + E_p(new) - E_p(old)

is small relative to the energy scale. Blow-up is detected (threshold
crossing or step underflow), never proven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solveh_banded

from .mesh import Field, Mesh
from .model import Nonlinearity, WellStatus, classify_well, diffusivity, \
    snapshot


class SolverError(RuntimeError):
    pass


class StepFailureError(SolverError):
    """Linear solve breakdown inside one time step."""


@dataclass
class SolverConfig:
    """Time-integration controls; the continuous problem is exact in time,
    every discrete control here is an artifact of the scheme."""

    p: float
    eps: float = 1e-4
    dt0: float = 1e-3
    dt_min: float = 1e-14
    T_end: float = 1.0
    U_max: float = 1e6
    tol_ext: float = 1e-8
    energy_residual_tol: float = 1e-5
    adapt: bool = True
    store_stride: int = 1
    checkpoint_times: tuple = ()
    dt_max: float | None = None   # defaults to T_end / 64

    def __post_init__(self):
        if not self.p > 1:
            raise SolverError(f"p must exceed 1, got {self.p}")
        if self.eps < 0:
            raise SolverError(f"eps must be >= 0, got {self.eps}")
        if not (self.dt_min < self.dt0 <= self.T_end):
            raise SolverError(
                f"need dt_min < dt0 <= T_end, got {self.dt_min}, {self.dt0}, "
                f"{self.T_end}")
        if self.dt_max is None:
            self.dt_max = self.T_end / 64.0

    def replace(self, **kw) -> "SolverConfig":
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d.update(kw)
        if "T_end" in kw and "dt_max" not in kw:
            d["dt_max"] = None   # rederive from the new horizon
        return SolverConfig(**d)


@dataclass
class Status:
    kind: str          # completed | extinct | blowup | step_failure
    time: float

    EXIT_CODES = {"completed": 0, "extinct": 0, "blowup": 2, "step_failure": 3}


@dataclass
class Trajectory:
    """Time-indexed record of one run: snapshot ledger, stored states and
    termination status."""

    mesh: Mesh
    cfg: SolverConfig
    times: list = dc_field(default_factory=list)
    snapshots: list = dc_field(default_factory=list)
    states: list = dc_field(default_factory=list)   # (t, Field) pairs
    status: Status | None = None


# ---------------------------------------------------------------------------
# One step
# ---------------------------------------------------------------------------

def step(state: Field, t: float, cfg: SolverConfig, nl: Nonlinearity,
         dt: float | None = None) -> Field:
    """One semi-implicit step of size dt (default cfg.dt0): returns the new
    field. ``run`` judges the step from the two states' snapshots."""
    if dt is None:
        dt = cfg.dt0
    mesh = state.mesh
    if not state.is_dirichlet():
        raise SolverError("state is not Dirichlet-constrained")
    u = state.values
    w = mesh.element_volumes * diffusivity(state.grad, cfg.p, cfg.eps)
    qw = mesh.quad_weights
    rhs_full = qw * (u / dt + nl.f(u))

    if mesh.dim_coord == 1:
        new_vals = _solve_1d(mesh, w, qw, rhs_full, dt)
    else:
        new_vals = _solve_sparse(mesh, w, qw, rhs_full, dt)

    if not np.all(np.isfinite(new_vals)):
        raise StepFailureError(f"non-finite solution at t={t}")
    return Field(mesh, new_vals)


def _solve_1d(mesh: Mesh, w, qw, rhs_full, dt):
    # tridiagonal SPD system on the interior nodes (natural ordering)
    h = np.diff(mesh.nodes[:, 0])
    k = w / h ** 2
    n = mesh.n_nodes
    diag = np.zeros(n)
    diag[:-1] += k
    diag[1:] += k
    diag += qw / dt
    off = -k                       # coupling between nodes i and i+1
    # interior slice 1..n-2
    d_i = diag[1:-1]
    o_i = off[1:-1]                # couples interior neighbours only
    ab = np.zeros((2, n - 2))
    ab[0, 1:] = o_i
    ab[1, :] = d_i
    rhs = rhs_full[1:-1]
    try:
        x = solveh_banded(ab, rhs)
    except np.linalg.LinAlgError as exc:
        raise StepFailureError(f"banded solve failed: {exc}") from None
    # direct residual check of the banded solve
    Ax = d_i * x
    Ax[:-1] += o_i * x[1:]
    Ax[1:] += o_i * x[:-1]
    # backward-stable scale: ||b|| + ||A|| ||x||
    row_norm = np.abs(d_i).max() + 2 * np.abs(o_i).max(initial=0.0)
    scale = float(np.linalg.norm(rhs) + row_norm * np.linalg.norm(x))
    if np.linalg.norm(Ax - rhs) > 1e-10 * max(scale, 1e-300):
        raise StepFailureError("banded solve residual above tolerance")
    out = np.zeros(n)
    out[1:-1] = x
    return out


def _solve_sparse(mesh: Mesh, w, qw, rhs_full, dt):
    W = sp.diags(w)
    A = sum(D.T @ W @ D for D in mesh.grad_ops).tocsr()
    interior = np.nonzero(mesh.interior_mask)[0]
    M = sp.diags(qw[interior] / dt)
    Aii = A[interior][:, interior] + M
    rhs = rhs_full[interior]
    x = spla.spsolve(Aii.tocsc(), rhs)
    scale = float(np.linalg.norm(rhs)
                  + np.abs(Aii).sum(axis=1).max() * np.linalg.norm(x))
    if np.linalg.norm(Aii @ x - rhs) > 1e-10 * max(scale, 1e-300):
        raise StepFailureError("sparse solve residual above tolerance")
    out = np.zeros(mesh.n_nodes)
    out[interior] = x
    return out


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------

def run(mesh: Mesh, u0: Field, cfg: SolverConfig, nl: Nonlinearity,
        d_hat: float = math.inf) -> Trajectory:
    """Integrate to T_end or earlier termination (extinction, blow-up
    detection, step failure), with the dissipation-residual step controller.
    Each trial state is evaluated once, in its snapshot; ``d_hat`` is unused.
    """
    if u0.mesh is not mesh:
        raise SolverError("initial field lives on a different mesh")
    if not u0.is_dirichlet():
        raise SolverError("u0 is not Dirichlet-constrained")

    traj = Trajectory(mesh, cfg)
    t = 0.0
    state = u0.copy()
    snap = snapshot(state, t, cfg.p, nl, 0.0)
    traj.times.append(t)
    traj.snapshots.append(snap)
    traj.states.append((t, state.copy()))

    if snap.sup <= cfg.tol_ext:
        traj.status = Status("extinct", 0.0)
        return traj

    targets = sorted({float(c) for c in cfg.checkpoint_times
                      if 0.0 < c <= cfg.T_end} | {cfg.T_end})
    dt = min(cfg.dt0, cfg.dt_max)
    accepted = 0

    while t < cfg.T_end:
        target = next(c for c in targets if c > t + 1e-14 * cfg.T_end)
        dt_try = min(dt, target - t)
        try:
            new = step(state, t, cfg, nl, dt_try)
        except StepFailureError:
            traj.status = Status("step_failure", t)
            return traj

        t_new = t + dt_try
        if abs(t_new - target) <= 1e-12 * max(1.0, target):
            t_new = target
        diss = float(mesh.quad_weights @ (new.values - state.values) ** 2) / dt_try
        trial = snapshot(new, t_new, cfg.p, nl, snap.dissipation_cum + diss)
        residual = diss + trial.E_p - snap.E_p
        tol = cfg.energy_residual_tol * (1.0 + abs(trial.E_p))
        if cfg.adapt and abs(residual) > tol:
            dt = dt_try / 2.0
            if dt < cfg.dt_min:
                # step underflow is treated as a blow-up detection
                traj.status = Status("blowup", t)
                return traj
            continue

        state, snap, t = new, trial, t_new
        accepted += 1
        traj.times.append(t)
        traj.snapshots.append(snap)
        if accepted % max(1, cfg.store_stride) == 0 or t in targets:
            traj.states.append((t, state.copy()))

        if not math.isfinite(snap.sup) or snap.sup >= cfg.U_max:
            traj.status = Status("blowup", t)
            return traj
        if snap.sup <= cfg.tol_ext:
            traj.status = Status("extinct", t)
            return traj

        if cfg.adapt and abs(residual) < 0.2 * tol:
            dt = min(dt_try * 1.4, cfg.dt_max)
        else:
            dt = dt_try

    traj.status = Status("completed", cfg.T_end)
    return traj


def detect_tmax(traj: Trajectory, cfg: SolverConfig) -> float:
    """Maximal existence time realized operationally: the blow-up detection
    time, or infinity for global (completed or extinct) runs."""
    if traj.status is None:
        raise SolverError("trajectory not finished")
    if traj.status.kind == "blowup":
        return traj.status.time
    return math.inf


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------

def well_invariance_audit(traj: Trajectory, d_hat: float) -> dict:
    """Check that every accepted state stays inside the potential well,
    reading the snapshot ledger."""
    first_violation = None
    worst_margin_E = math.inf
    worst_margin_I = math.inf
    for s in traj.snapshots:
        rep = classify_well(s.grad_p, s.E_p, s.I_p, s.sup, d_hat)
        worst_margin_E = min(worst_margin_E, rep.margin_E)
        worst_margin_I = min(worst_margin_I, rep.margin_I)
        if rep.status is not WellStatus.INSIDE and first_violation is None:
            first_violation = {"time": s.time, "status": rep.status.value,
                               "margin_E": rep.margin_E,
                               "margin_I": rep.margin_I}
    return {
        "all_inside": first_violation is None,
        "n_states": len(traj.snapshots),
        "worst_margin_E": worst_margin_E,
        "worst_margin_I": worst_margin_I,
        "first_violation": first_violation,
    }


def l2_audit(traj: Trajectory, slack: float = 1e-8) -> dict:
    """L2 monotonicity and the discrete identity
    (1/2) d/dt ||u||_2^2 = -I_p(u) along the snapshot ledger."""
    snaps = traj.snapshots
    l2s = np.array([s.l2 for s in snaps])
    Is = np.array([s.I_p for s in snaps])
    ts = np.array([s.time for s in snaps])
    i_positive = bool(np.all(Is >= 0.0))
    increments = np.diff(l2s)
    max_increase = float(increments.max(initial=0.0))
    identity_err = 0.0
    if len(ts) > 1:
        dts = np.diff(ts)
        lhs = 0.5 * np.diff(l2s ** 2) / dts
        rhs = -0.5 * (Is[:-1] + Is[1:])
        identity_err = float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))))
    return {
        "i_positive_throughout": i_positive,
        "monotone": max_increase <= slack,
        "max_increase": max_increase,
        "bounded_by_initial": bool(np.all(l2s <= l2s[0] + slack)),
        "identity_rel_err": identity_err,
    }


def gradient_bound_audit(traj: Trajectory, theta: float, d_hat: float,
                         tol: float = 1e-12) -> dict:
    """Audit the gradient ceiling theta p d_hat / (theta - p) and the
    dissipation ceiling d_hat over the accepted states' snapshots, with p
    from the run's config."""
    p = traj.cfg.p
    if not theta > p:
        raise SolverError(f"gradient bound needs theta > p "
                          f"(theta={theta}, p={p})")
    bound = theta * p * d_hat / (theta - p)
    worst_margin = math.inf
    worst_value = 0.0
    for s in traj.snapshots:
        worst_value = max(worst_value, s.grad_p)
        worst_margin = min(worst_margin, bound - s.grad_p)
    diss = traj.snapshots[-1].dissipation_cum
    return {
        "bound": bound,
        "max_grad_p_norm": worst_value,
        "worst_margin": worst_margin,
        "holds": worst_margin > -tol,
        "dissipation_total": diss,
        "dissipation_below_level": diss < d_hat + tol,
    }


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("t", "E_p", "I_p", "tv", "l2", "sup", "dissipation_cum", "dt")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    with open(path, "w") as fh:
        fh.write("# format_version=1\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        prev_t = None
        for s in traj.snapshots:
            dt = 0.0 if prev_t is None else s.time - prev_t
            prev_t = s.time
            row = (s.time, s.E_p, s.I_p, s.tv, s.l2, s.sup,
                   s.dissipation_cum, dt)
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
