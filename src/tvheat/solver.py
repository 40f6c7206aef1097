"""Semi-implicit time integration of the nodal p-Laplacian reaction system.

Each step freezes the diffusion coefficient (|grad u|^2 + eps^2)^((p-2)/2) at
the current state (lagged diffusivity), solves the resulting symmetric
positive-definite system on the interior nodes by banded Cholesky, and treats
the reaction explicitly. Within one run, a 2-D system is solved by
conjugate gradients preconditioned with the banded Cholesky factor of an
earlier step's matrix, which changes little from step to step.

A lagged step is a gradient-flow step of the regularized energy
E_p,eps(u) = (1/p) int (|grad u|^2 + eps^2)^(p/2) - int F(u), so the step
size is controlled by that energy's discrete dissipation identity: a step is
accepted only when

    |  ||du/dt||_2^2 dt + E_p,eps(new) - E_p,eps(old)  |
        <= energy_residual_tol (1 + |E_p(new)|).

For p <= 2 the lagged quadratic majorizes E_p,eps, and this residual is
O(dt^2) (without reaction, never positive). Gating on E_p instead would
leave an O(eps) gap that no dt removes. The snapshots, the CSV and the
audits keep E_p.

A trial step that ends extinct (sup <= tol_ext) is bisected from the same
state, EXTINCTION_HALVINGS times, and the shortest step found extinct is
taken if it passes the same gate; otherwise the original trial is judged.
The extinction time is thus located to 2^-EXTINCTION_HALVINGS of the step
that crossed it. Blow-up is detected (threshold crossing, an energy that
overflows, or step underflow), never proven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse.linalg as spla  # unused; bench/spans.py patches solver.spla
from scipy.linalg import solveh_banded as lapack_solveh_banded
from scipy.linalg.lapack import dpbtrf, dpbtrs, dptsv

from .mesh import Field, Mesh
from .model import Nonlinearity, WellStatus, classify_well, diffusivity, \
    regularized_energy, snapshot


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
    store_stride: int = 1
    checkpoint_times: tuple = ()
    dt_max: float | None = None   # defaults to T_end / 64

    def __post_init__(self):
        if not self.p > 1:
            raise SolverError(f"p must exceed 1, got {self.p}")
        # NaN fails every comparison, so each test is written to fail on it:
        # a NaN tolerance or threshold would switch its check off
        if not 0 <= self.eps < math.inf:
            raise SolverError(f"eps must be finite and >= 0, got {self.eps}")
        if not 0 < self.energy_residual_tol < math.inf:
            raise SolverError(f"energy_residual_tol must be finite and > 0, "
                              f"got {self.energy_residual_tol}")
        if not math.isfinite(self.tol_ext):
            raise SolverError(f"tol_ext must be finite, got {self.tol_ext}")
        if math.isnan(self.U_max):
            raise SolverError(f"U_max must not be NaN, got {self.U_max}")
        if not (self.dt_min < self.dt0 <= self.T_end):
            raise SolverError(
                f"need dt_min < dt0 <= T_end, got {self.dt_min}, {self.dt0}, "
                f"{self.T_end}")
        if self.dt_max is None:
            self.dt_max = self.T_end / 64.0
        if not 0 < self.dt_max < math.inf:
            raise SolverError(f"dt_max (default T_end / 64) must be finite "
                              f"and > 0, got {self.dt_max}")
        if not self.store_stride >= 1:
            raise SolverError(
                f"store_stride must be >= 1, got {self.store_stride}")

    def replace(self, **kw) -> "SolverConfig":
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d.update(kw)
        if "T_end" in kw and "dt_max" not in kw:
            d["dt_max"] = None   # rederive from the new horizon
        return SolverConfig(**d)


@dataclass
class Status:
    """How a run ended: ``kind`` decides the exit code, ``reason`` names the
    test that stopped it. Each reason belongs to one kind: t_end to
    completed, tol_ext to extinct, u_max (sup >= U_max), energy_overflow
    (E_p or I_p not finite) and dt_underflow (dt halved below dt_min) to
    blowup, linear_solve to step_failure."""

    kind: str          # completed | extinct | blowup | step_failure
    time: float
    reason: str

    EXIT_CODES = {"completed": 0, "extinct": 0, "blowup": 2, "step_failure": 3}


@dataclass
class Trajectory:
    """Time-indexed record of one run: snapshot ledger, stored states,
    termination status, the linear-solve counts (factorizations, and
    preconditioned CG iterations, which stay 0 in 1-D) and the step counts
    beside the accepted ones: trials the energy gate rejected, and the
    bisection steps that located an extinction crossing."""

    mesh: Mesh
    cfg: SolverConfig
    times: list = dc_field(default_factory=list)
    snapshots: list = dc_field(default_factory=list)
    states: list = dc_field(default_factory=list)   # (t, Field) pairs
    status: Status | None = None
    factorizations: int = 0
    pcg_iterations: int = 0
    rejected_steps: int = 0
    extinction_probes: int = 0


# ---------------------------------------------------------------------------
# Linear solve
# ---------------------------------------------------------------------------

PCG_REFACTOR_ITERS = 5   # a solve that needs more iterations refactors next
PCG_MAX_ITERS = 50       # past this, refactor and solve directly
PCG_RTOL = 1e-13         # ||r|| <= PCG_RTOL ||b||: 1000x inside the gate


class BandedFactor:
    """One run's banded Cholesky factor, kept across steps as the
    preconditioner of the next steps' systems, with the run's solve counts.
    ``run`` owns one; a second run starts from no factor, so its results do
    not depend on what ran before."""

    def __init__(self):
        self.chol = None         # upper Cholesky factor in LAPACK band form
        self.factorizations = 0
        self.iterations = 0

    def solve(self, band: np.ndarray, rhs: np.ndarray, x0: np.ndarray,
              offsets: list[int], b: int) -> np.ndarray:
        """PCG from ``x0`` with the held factor, for the compact band
        ``band`` with super-diagonals at ``offsets`` (see ``solveh_banded``).
        A solve that needs more than PCG_REFACTOR_ITERS iterations drops the
        factor; with no factor held, or when PCG fails, factor the full
        band of width ``b`` with LAPACK ``pbtrf`` and solve directly."""
        if self.chol is not None:
            x, its = self._pcg(band, rhs, x0, offsets)
            self.iterations += its
            if x is not None:
                if its > PCG_REFACTOR_ITERS:
                    self.chol = None   # the next step factors its own matrix
                return x
        self.chol = None               # at most one factor is held
        chol, info = dpbtrf(_full_band(band, offsets, b), overwrite_ab=1)
        _check_info(info, "pbtrf")
        self.chol = chol
        self.factorizations += 1
        return self._back_solve(rhs)

    def _back_solve(self, r: np.ndarray) -> np.ndarray:
        """The held factor's solve, LAPACK ``pbtrs``."""
        x, info = dpbtrs(self.chol, r)
        _check_info(info, "pbtrs")
        return x

    def _pcg(self, band: np.ndarray, rhs: np.ndarray, x: np.ndarray,
             offsets: list[int]) -> tuple[np.ndarray | None, int]:
        """Conjugate gradients on the banded system from ``x``,
        preconditioned by the held factor (Saad, Iterative Methods for
        Sparse Linear Systems, 2003, Alg. 9.1). Returns (x, iterations),
        with x None when the stopping test is not met within PCG_MAX_ITERS
        or the iteration breaks down."""
        tol = PCG_RTOL * np.linalg.norm(rhs)
        r = rhs - _band_product(band, x, offsets)
        z = self._back_solve(r)
        d = z
        rz = r @ z
        k = 0
        while not np.linalg.norm(r) <= tol:
            if k == PCG_MAX_ITERS:
                return None, k
            Ad = _band_product(band, d, offsets)
            dAd = d @ Ad
            if not dAd > 0.0:            # breakdown, or a non-finite system
                return None, k
            alpha = rz / dAd
            x = x + alpha * d
            r = r - alpha * Ad
            z = self._back_solve(r)
            rz, rz_old = r @ z, rz
            d = z + (rz / rz_old) * d
            k += 1
        return x, k


def solveh_banded(band: np.ndarray, rhs: np.ndarray,
                  factor: BandedFactor | None, x0: np.ndarray,
                  offsets: list[int], b: int) -> np.ndarray:
    """Solve the symmetric positive definite system of bandwidth ``b`` held
    in compact band storage ``band``: row r holds the super-diagonal at
    ``offsets[r]`` and the last row the diagonal, each as in LAPACK upper
    banded storage, and every other diagonal is zero. The one linear solve
    of a step.

    In 1-D (bandwidth 1, where the compact band is LAPACK's) this is LAPACK
    ``ptsv``, called directly: the routine scipy's ``solveh_banded`` ends
    in, without its argument checks, which cost more than the solve of a
    few hundred unknowns. Without a ``factor`` it is scipy's
    ``solveh_banded`` (LAPACK ``pbsv``) on the full band. Otherwise it is
    conjugate gradients from ``x0``, preconditioned by ``factor``'s held
    factorization (see ``BandedFactor.solve``). The function keeps scipy's
    name because the benchmark's tracer wraps ``solver.solveh_banded`` as
    the linear-solve layer and counts one call per step. A matrix that is
    not positive definite raises LinAlgError.
    """
    if b == 1:
        if factor is not None:
            factor.factorizations += 1
        _, _, x, info = dptsv(band[1], band[0, 1:], rhs)
        _check_info(info, "ptsv")
        return x
    if factor is None:
        return lapack_solveh_banded(_full_band(band, offsets, b), rhs,
                                    overwrite_ab=True, check_finite=False)
    return factor.solve(band, rhs, x0, offsets, b)


def _check_info(info: int, routine: str) -> None:
    """Raise on a LAPACK routine's failure: LinAlgError for a matrix that
    is not positive definite (info > 0), ValueError for a bad argument."""
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{routine}: {info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"{routine}: illegal value in argument {-info}")


def _full_band(band: np.ndarray, offsets: list[int], b: int) -> np.ndarray:
    """The LAPACK upper banded storage, b + 1 rows, of the compact band
    ``band``, in Fortran order so that LAPACK reads it without a copy."""
    ab = np.zeros((b + 1, band.shape[1]), order="F")
    for row, d in zip(band, offsets):
        ab[b - d, d:] = row[d:]
    ab[b] = band[-1]
    return ab


def _band_product(band: np.ndarray, x: np.ndarray,
                  offsets: list[int]) -> np.ndarray:
    """A @ x for the symmetric matrix A in compact band storage ``band``
    with super-diagonals at ``offsets``."""
    Ax = band[-1] * x
    for row, d in zip(band, offsets):
        a = row[d:]                    # A[i, i + d] for i = 0 .. m - d - 1
        Ax[:-d] += a * x[d:]
        Ax[d:] += a * x[:-d]
    return Ax


# ---------------------------------------------------------------------------
# One step
# ---------------------------------------------------------------------------

def step(state: Field, t: float, cfg: SolverConfig, nl: Nonlinearity,
         dt: float | None = None,
         factor: BandedFactor | None = None) -> Field:
    """One semi-implicit step of size dt (default cfg.dt0): returns the new
    field. ``run`` judges the step from the two states' snapshots. With a
    ``factor`` (one run's), a 2-D system is solved by PCG preconditioned
    with its held factorization; without one, directly."""
    if dt is None:
        dt = cfg.dt0
    mesh = state.mesh
    if not state.is_dirichlet():
        raise SolverError("state is not Dirichlet-constrained")
    u = state.values
    w = mesh.element_volumes * diffusivity(state.grad_sq, cfg.p, cfg.eps)
    qw = mesh.quad_weights
    S, b, interior, offsets = mesh.interior_band
    band = (S @ w).reshape(len(offsets) + 1, len(interior))
    band[-1] += qw[interior] / dt
    rhs = (qw * (u / dt + nl.f(u)))[interior]
    try:
        # non-finite entries fail the factorization or the checks below
        x = solveh_banded(band, rhs, factor, u[interior], offsets, b)
    except np.linalg.LinAlgError as exc:
        raise StepFailureError(f"banded solve failed: {exc}") from None
    if not np.all(np.isfinite(x)):
        raise StepFailureError(f"non-finite solution at t={t}")
    # backward-stable gate: ||Ax - b|| <= 1e-10 (||b|| + ||A||_inf ||x||)
    Ax, norm_A = _banded_matvec(band, x, offsets)
    r = Ax - rhs
    scale = math.sqrt(rhs @ rhs) + norm_A * math.sqrt(x @ x)
    if math.sqrt(r @ r) > 1e-10 * max(scale, 1e-300):
        raise StepFailureError(f"banded solve residual above tolerance at t={t}")
    new_vals = np.zeros(mesh.n_nodes)
    new_vals[interior] = x
    return Field(mesh, new_vals)


def _banded_matvec(band: np.ndarray, x: np.ndarray,
                   offsets: list[int]) -> tuple[np.ndarray, float]:
    """A @ x and the largest absolute row sum of the symmetric matrix A held
    in compact band storage ``band`` with super-diagonals at ``offsets``
    (the mesh's, so fixed before the solve). The residual gate's own
    product, independent of the solve it checks."""
    Ax = band[-1] * x
    row_abs = np.abs(band[-1])
    for row, d in zip(band, offsets):
        a = row[d:]                    # A[i, i + d] for i = 0 .. m - d - 1
        Ax[:-d] += a * x[d:]
        Ax[d:] += a * x[:-d]
        row_abs[:-d] += np.abs(a)
        row_abs[d:] += np.abs(a)
    return Ax, float(row_abs.max())


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------

EXTINCTION_HALVINGS = 8   # bisections locating the step that ends extinct


def run(mesh: Mesh, u0: Field, cfg: SolverConfig, nl: Nonlinearity,
        d_hat: float = math.inf) -> Trajectory:
    """Integrate to T_end or earlier termination (extinction, blow-up
    detection, step failure), with the dissipation-residual step controller.
    Each judged trial state is evaluated once, in its snapshot; the
    bisection of an extinct trial reads only its probes' sup norms. The
    run's steps share one ``BandedFactor``; ``d_hat`` is unused.
    """
    if u0.mesh is not mesh:
        raise SolverError("initial field lives on a different mesh")
    if not u0.is_dirichlet():
        raise SolverError("u0 is not Dirichlet-constrained")

    traj = Trajectory(mesh, cfg)
    factor = BandedFactor()
    traj.status, last = _march(traj, u0.copy(), cfg, nl, factor)
    if traj.states[-1][0] != traj.times[-1]:    # ended off the store stride
        traj.states.append((traj.times[-1], last.copy()))
    traj.factorizations = factor.factorizations
    traj.pcg_iterations = factor.iterations
    return traj


def _march(traj: Trajectory, state: Field, cfg: SolverConfig,
           nl: Nonlinearity, factor: BandedFactor) -> tuple[Status, Field]:
    """``run``'s time loop: fills the ledger of ``traj`` and returns how the
    run ended and its last accepted state."""
    mesh = traj.mesh
    t = 0.0
    snap = snapshot(state, t, cfg.p, nl, 0.0)
    E_eps = regularized_energy(state, cfg.p, cfg.eps, snap)
    traj.times.append(t)
    traj.snapshots.append(snap)
    traj.states.append((t, state.copy()))

    if snap.sup <= cfg.tol_ext:
        return Status("extinct", 0.0, "tol_ext"), state

    targets = sorted({float(c) for c in cfg.checkpoint_times
                      if 0.0 < c <= cfg.T_end} | {cfg.T_end})
    dt = min(cfg.dt0, cfg.dt_max)
    accepted = 0

    while t < cfg.T_end:
        target = next(c for c in targets if c > t + 1e-14 * cfg.T_end)
        dt_try = min(dt, target - t)
        try:
            new = step(state, t, cfg, nl, dt_try, factor=factor)
            trials = [(new, dt_try)]
            if new.sup() <= cfg.tol_ext:
                # judge the shortest extinct step first; the original trial
                # only if that one fails the gate
                trials = _extinction_crossing(state, t, cfg, nl, dt_try,
                                              factor) + trials
                traj.extinction_probes += EXTINCTION_HALVINGS
        except StepFailureError:
            return Status("step_failure", t, "linear_solve"), state

        for new, h in trials:
            t_new = t + h
            if abs(t_new - target) <= 1e-12 * max(1.0, target):
                t_new = target
            diss = float(mesh.quad_weights @ (new.values - state.values) ** 2) / h
            trial = snapshot(new, t_new, cfg.p, nl, snap.dissipation_cum + diss)
            if not (math.isfinite(trial.E_p) and math.isfinite(trial.I_p)):
                # the reaction overflowed; the residual gate cannot judge this
                return Status("blowup", t, "energy_overflow"), state
            E_eps_new = regularized_energy(new, cfg.p, cfg.eps, trial)
            residual = diss + E_eps_new - E_eps
            tol = cfg.energy_residual_tol * (1.0 + abs(trial.E_p))
            if not abs(residual) > tol:
                break
        else:
            traj.rejected_steps += 1
            dt = dt_try / 2.0
            if dt < cfg.dt_min:
                # step underflow is treated as a blow-up detection
                return Status("blowup", t, "dt_underflow"), state
            continue

        state, snap, E_eps, t = new, trial, E_eps_new, t_new
        accepted += 1
        traj.times.append(t)
        traj.snapshots.append(snap)
        if accepted % cfg.store_stride == 0 or t in targets:
            traj.states.append((t, state.copy()))

        if not math.isfinite(snap.sup) or snap.sup >= cfg.U_max:
            return Status("blowup", t, "u_max"), state
        if snap.sup <= cfg.tol_ext:
            return Status("extinct", t, "tol_ext"), state

        if abs(residual) < 0.2 * tol:
            dt = min(h * 1.4, cfg.dt_max)
        else:
            dt = h

    return Status("completed", cfg.T_end, "t_end"), state


def _extinction_crossing(state: Field, t: float, cfg: SolverConfig,
                         nl: Nonlinearity, dt: float,
                         factor: BandedFactor) -> list[tuple[Field, float]]:
    """Bisect (0, dt] for the shortest step from ``state`` that ends extinct,
    given that the step of size dt does. Returns [(field, size)] for the
    shortest extinct step shorter than dt, or [] if there is none. The step
    of size ``size - dt / 2 ** EXTINCTION_HALVINGS`` (``dt`` minus that, for
    []) is not extinct: it was tried, or it is 0."""
    lo, hi, found = 0.0, dt, []
    for _ in range(EXTINCTION_HALVINGS):
        mid = 0.5 * (lo + hi)
        new = step(state, t, cfg, nl, mid, factor=factor)
        if new.sup() <= cfg.tol_ext:
            hi, found = mid, [(new, mid)]
        else:
            lo = mid
    return found


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
