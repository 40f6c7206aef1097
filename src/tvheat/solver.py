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

import dataclasses
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse.linalg as spla  # unused; bench/spans.py patches solver.spla
from scipy.linalg.lapack import dpbtrf, dpbtrs, dptsv

from .mesh import Field, Mesh, rowdot
from .model import EnergySnapshot, Nonlinearity, Terms, WellStatus, \
    classify_well, snapshot


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
        if not all(math.isfinite(c) and 0 < c <= self.T_end
                   for c in self.checkpoint_times):
            raise SolverError(f"checkpoint_times must be finite and lie in "
                              f"(0, T_end], got {tuple(self.checkpoint_times)}")

    def replace(self, **kw) -> "SolverConfig":
        if "T_end" in kw:
            kw.setdefault("dt_max", None)   # rederive from the new horizon
        return dataclasses.replace(self, **kw)


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
    termination status, the linear-solve counts (factorizations, which in
    1-D count the ``ptsv`` calls, and preconditioned CG iterations, which
    stay 0 in 1-D) and the step counts beside the accepted ones: trials the
    energy gate rejected, and the bisection steps that located an
    extinction crossing."""

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
    """One member's linear solver, one path per bandwidth, with its solve
    counts. In 2-D it keeps a banded Cholesky factor across steps as the
    preconditioner of the next steps' systems; in 1-D it holds no factor
    and counts each ``ptsv`` call as a factorization. ``march`` gives each
    member one; a second run starts from no factor, so its results do not
    depend on what ran before."""

    def __init__(self):
        self.chol = None         # upper Cholesky factor in LAPACK band form
        self.factorizations = 0
        self.iterations = 0

    def solve(self, band: np.ndarray, rhs: np.ndarray, x0: np.ndarray,
              offsets: list[int], b: int) -> np.ndarray:
        """Solve the system in compact band storage ``band`` with
        super-diagonals at ``offsets`` (see ``solveh_banded``). In 1-D
        (b = 1) LAPACK ``ptsv``, one factorization. Otherwise PCG from
        ``x0`` with the held factor; a solve that needs more than
        PCG_REFACTOR_ITERS iterations drops the factor, and with no factor
        held, or when PCG fails, factor the full band of width ``b`` with
        LAPACK ``pbtrf`` and solve directly with ``pbtrs``: the steps of
        ``pbsv``. A matrix that is not positive definite raises
        LinAlgError."""
        if b == 1:
            self.factorizations += 1
            _, _, x, info = dptsv(band[1], band[0, 1:], rhs)
            _check_info(info, "ptsv")
            return x
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


def solveh_banded(band: np.ndarray, rhs: np.ndarray, factor, x0: np.ndarray,
                  offsets: list[int], b: int) -> np.ndarray:
    """Solve the symmetric positive definite system of bandwidth ``b`` held
    in compact band storage ``band``: row r holds the super-diagonal at
    ``offsets[r]`` and the last row the diagonal, each as in LAPACK upper
    banded storage, and every other diagonal is zero. The one linear solve
    of a step, through ``factor``'s ``BandedFactor.solve``: one path per
    bandwidth.

    In 1-D (bandwidth 1, where the compact band is LAPACK's) this is LAPACK
    ``ptsv``, called directly: the routine scipy's ``solveh_banded`` ends
    in, without its argument checks, which cost more than the solve of a
    few hundred unknowns. Otherwise it is conjugate gradients from ``x0``,
    preconditioned by ``factor``'s held factorization, or a fresh
    factorization. A matrix that is not positive definite raises
    LinAlgError.

    A stack of k systems (``band`` of shape (len(offsets) + 1, k, m), as
    ``Mesh.interior_stiffness`` lays it out, ``rhs`` and ``x0`` (k, m),
    ``factor`` a sequence of k factors) is solved in this one call, each
    member as above with its own factor; a member whose matrix is not
    positive definite, or whose solution is not finite, comes back as a
    row of NaN instead. In 1-D the stack is one ``ptsv`` call on its
    block-diagonal matrix, whose zero couplings leave every block's
    arithmetic as it is alone, and each member counts one factorization;
    only a stack with a failed block is solved again block by block. The
    function keeps scipy's name because the benchmark's tracer wraps
    ``solver.solveh_banded`` as the linear-solve layer and counts one call
    per step.
    """
    if band.ndim == 2:
        return factor.solve(band, rhs, x0, offsets, b)
    if b == 1:
        _, _, x, info = dptsv(band[1].ravel(), band[0].ravel()[1:],
                              rhs.ravel())
        if info == 0 and np.isfinite(x).all():
            for f in factor:
                f.factorizations += 1
            return x.reshape(rhs.shape)
    x = np.empty(rhs.shape)
    for i, f in enumerate(factor):
        try:
            x[i] = f.solve(band[:, i], rhs[i], x0[i], offsets, b)
        except np.linalg.LinAlgError:
            x[i] = np.nan
        if not np.isfinite(x[i]).all():
            x[i] = np.nan
    return x


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


def _band_product(band: np.ndarray, x: np.ndarray, offsets: list[int],
                  out: np.ndarray | None = None) -> np.ndarray:
    """A @ x (into ``out`` if given) for the symmetric matrix A in compact
    band storage ``band`` with super-diagonals at ``offsets``."""
    Ax = np.multiply(band[-1], x, out=out)
    for row, d in zip(band, offsets):
        a = row[d:]                    # A[i, i + d] for i = 0 .. m - d - 1
        Ax[:-d] += a * x[d:]
        Ax[d:] += a * x[:-d]
    return Ax


# ---------------------------------------------------------------------------
# One step
# ---------------------------------------------------------------------------

def step(state: Field, t, cfg, nl: Nonlinearity, dt=None, factor=None,
         terms: Terms | None = None) -> Field:
    """One semi-implicit step of size dt (default cfg.dt0): returns the new
    field. ``march`` judges the step from the two states' snapshots. The
    system is solved through ``factor``, one run's ``BandedFactor``, whose
    held factorization preconditions PCG on a 2-D system; without one, the
    step solves through a fresh ``BandedFactor``, which factors directly. A
    failed solve raises StepFailureError. The reaction term is the state's
    kept f(u) (``Field.reaction``).

    ``state`` may also be a stack of k fields (see ``Field``), stepped in
    one pass: ``cfg`` is then a sequence of k configs, ``dt`` (required)
    the k step sizes and ``factor`` a sequence of k factors (or None, for k
    fresh ones), one per row, and one ``solveh_banded`` call solves every
    row. A row whose solve fails comes back NaN; every other row is the
    step of that row alone, bit for bit.

    ``terms`` are the ``Terms`` of the configs' p and eps, which ``march``
    computes once per stack; without them ``step`` computes them from
    ``cfg``, with the same result.
    """
    mesh = state.mesh
    if not state.is_dirichlet():
        raise SolverError("state is not Dirichlet-constrained")
    u = state.values
    single = u.ndim == 1
    if factor is None:
        factor = (BandedFactor() if single
                  else [BandedFactor() for _ in range(len(u))])
    if single:
        dt = cfg.dt0 if dt is None else dt
    else:
        dt = np.asarray(dt, dtype=float)[:, None]
    if terms is None:
        terms = _terms(cfg)
    w = terms.coefficient(state.grad_sq)
    w *= mesh.element_volumes
    _, b, _, offsets = mesh.interior_band
    interior, qw = mesh.interior, mesh.interior_weights
    band = mesh.interior_stiffness(w)
    band[-1] += qw / dt
    u_in = u[..., interior]
    rhs = u_in / dt
    rhs += state.reaction(nl)[..., interior]
    rhs *= qw
    try:
        # non-finite entries fail the factorization or the checks below
        x = solveh_banded(band, rhs, factor, u_in, offsets, b)
    except np.linalg.LinAlgError as exc:
        raise StepFailureError(f"banded solve failed: {exc}") from None
    new = np.zeros(u.shape)
    new[..., interior] = x
    if single:
        if not np.isfinite(x).all():
            raise StepFailureError(f"non-finite solution at t={t}")
        if not _gate(band, x, rhs, offsets):
            raise StepFailureError(
                f"banded solve residual above tolerance at t={t}")
        return Field._adopt(mesh, new, dirichlet=True)
    passed = _gate(band, x, rhs, offsets)
    if all(passed):
        return Field._adopt(mesh, new, dirichlet=True)
    new[[not ok for ok in passed]] = np.nan
    return Field._adopt(mesh, new)


def _terms(cfg) -> Terms:
    """The ``Terms`` of one config's p and eps, or of a sequence of configs'
    for their stack."""
    if isinstance(cfg, SolverConfig):
        return Terms(cfg.p, cfg.eps)
    return Terms(np.array([c.p for c in cfg]), np.array([c.eps for c in cfg]))


def _gate(band: np.ndarray, x: np.ndarray, rhs: np.ndarray,
          offsets: list[int]) -> bool | list[bool]:
    """The backward-stable residual gate ||Ax - b|| <= 1e-10 (||b|| +
    ||A||_inf ||x||), each norm the square root of ``v @ v``, in Python
    floats, for the finite solution ``x`` of the system in compact band
    storage ``band``. For a stack, whose band rows flatten to one
    block-diagonal matrix, one verdict per member, each as it is alone,
    False for a member whose solve failed (a row of NaN, as
    ``solveh_banded`` returns it); such a member is read as zero here, so
    that its blocks' zero couplings (0 * nan) cannot reach its
    neighbours."""
    if x.ndim == 1:
        r = _band_product(band, x, offsets)
        r -= rhs
        norm_A = float(_abs_row_sums(band, offsets).max())
        return _accurate(r @ r, rhs @ rhs, norm_A, x @ x)
    finite = ~np.isnan(x[:, 0])         # a failed member is a row of NaN
    if not finite.all():
        x = np.where(finite[:, None], x, 0.0)
    # each member's r, b and x: the rows of one array, one dot product each
    v = np.empty((3,) + x.shape)
    flat = band.reshape(len(band), -1)
    r = _band_product(flat, x.reshape(-1), offsets, out=v[0].reshape(-1))
    r -= rhs.reshape(-1)
    v[1], v[2] = rhs, x
    rr, bb, xx = rowdot(v, v).tolist()
    row_abs = _abs_row_sums(flat, offsets).reshape(x.shape)
    norm_A = row_abs.max(axis=-1).tolist()
    return [f and _accurate(*norms)
            for f, *norms in zip(finite.tolist(), rr, bb, norm_A, xx)]


def _accurate(rr: float, bb: float, norm_A: float, xx: float) -> bool:
    """The gate's verdict from ||r||^2, ||b||^2, ||A||_inf and ||x||^2."""
    scale = math.sqrt(bb) + norm_A * math.sqrt(xx)
    return math.sqrt(rr) <= 1e-10 * max(scale, 1e-300)


def _abs_row_sums(band: np.ndarray, offsets: list[int]) -> np.ndarray:
    """The absolute row sums of the symmetric matrix A held in compact band
    storage ``band`` with super-diagonals at ``offsets``: ||A||_inf is
    their maximum."""
    magnitudes = np.abs(band)
    row_abs = magnitudes[-1]
    for a, d in zip(magnitudes, offsets):
        a = a[d:]                      # |A[i, i + d]| for i = 0 .. m - d - 1
        row_abs[:-d] += a
        row_abs[d:] += a
    return row_abs


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------

EXTINCTION_HALVINGS = 8   # bisections locating the step that ends extinct


def run(mesh: Mesh, u0: Field, cfg: SolverConfig, nl: Nonlinearity,
        d_hat: float = math.inf) -> Trajectory:
    """Integrate to T_end or earlier termination (extinction, blow-up
    detection, step failure), with the dissipation-residual step
    controller: ``march`` of one member. ``d_hat`` is unused."""
    return march(mesh, u0, [cfg], nl)[0]


def march(mesh: Mesh, u0: Field, cfgs, nl: Nonlinearity) -> list[Trajectory]:
    """Integrate one member per config in ``cfgs`` from ``u0`` in lockstep,
    each to its T_end or earlier termination; returns their trajectories.

    Each iteration advances every running member at once: one ``step``
    call and one ``snapshot`` call serve the stack of their states (see
    ``Field``), with the stack's constants (``_Stack``) built once, when it
    forms, and again only when a member leaves it. A stack of one marches
    as a plain field, whose 1-D arrays cost less than a (1, n) stack's.
    Each member's step size, gate verdict, extinction bisection and stop
    reason are its own, in Python floats, so each member ends bit for bit
    as it would alone; a member that stops leaves the stack. Each judged
    trial state is evaluated once, in a snapshot that also gives its
    E_p,eps, and keeps its sup norm and f(u), which the next steps from it
    (retries and extinction probes included) reuse; the bisection of an
    extinct trial reads only its probes' sup norms. A member's steps share
    one ``BandedFactor``. A member stores only its initial state, the
    states at its targets (its checkpoint times and T_end) and its last
    state.
    """
    if u0.mesh is not mesh:
        raise SolverError("initial field lives on a different mesh")
    if not u0.is_dirichlet():
        raise SolverError("u0 is not Dirichlet-constrained")
    members = [_Member(Trajectory(mesh, cfg)) for cfg in cfgs]
    k = len(members)
    start = Field(mesh, u0.values if k == 1
                  else np.broadcast_to(u0.values, (k, mesh.n_nodes)))
    stack = _Stack(members)
    zeros = _per_member([0.0] * k)
    snaps = snapshot(start, zeros, stack.terms, nl, zeros)
    running = []
    for row, (m, snap) in enumerate(zip(members,
                                        [snaps] if k == 1 else snaps)):
        m.state, m.row, m.snap = start, (None if k == 1 else row), snap
        m.traj.times.append(0.0)
        m.traj.snapshots.append(snap)
        m.traj.states.append((0.0, u0.copy()))
        if snap.sup <= m.cfg.tol_ext:
            m.stop(Status("extinct", 0.0, "tol_ext"))
        else:
            running.append(m)
    while running:
        if len(running) != len(stack.members):
            stack = _Stack(running)
        running = _advance(stack, mesh, nl)
    return [m.traj for m in members]


class _Member:
    """One member of a ``march``: its trajectory and factor, and its step
    control in Python floats. Its current state is row ``row`` of the
    stack ``state``, or ``state`` itself, a plain field, when ``row`` is
    None, and ``snap`` is that state's snapshot; ``h`` is the size of its
    step in flight, which ends at or before ``target``, its targets'
    entry ``next_target``."""

    __slots__ = ("traj", "cfg", "factor", "targets", "next_target", "t",
                 "dt", "h", "target", "snap", "state", "row")

    def __init__(self, traj: Trajectory):
        cfg = traj.cfg
        self.traj, self.cfg, self.factor = traj, cfg, BandedFactor()
        self.targets = sorted({float(c) for c in cfg.checkpoint_times}
                              | {cfg.T_end})
        self.next_target = 0
        self.t = 0.0
        self.dt = min(cfg.dt0, cfg.dt_max)

    def aim(self) -> None:
        """Set the next target, the first one past t, and the size of the
        next step."""
        reached = self.t + 1e-14 * self.cfg.T_end
        while self.targets[self.next_target] <= reached:
            self.next_target += 1
        self.target = self.targets[self.next_target]
        self.h = min(self.dt, self.target - self.t)

    def accept(self, state: Field, row: int | None, h: float,
               snap: EnergySnapshot, residual: float, tol: float) -> None:
        """Take the trial step of size ``h`` to row ``row`` of ``state``,
        evaluated in ``snap``; stop at blow-up, extinction or T_end, else
        set the next dt."""
        traj, cfg = self.traj, self.cfg
        self.state, self.row, self.snap = state, row, snap
        self.t = snap.time
        traj.times.append(self.t)
        traj.snapshots.append(snap)
        if self.t in self.targets:
            traj.states.append((self.t, self._field()))
        if not math.isfinite(snap.sup) or snap.sup >= cfg.U_max:
            self.stop(Status("blowup", self.t, "u_max"))
        elif snap.sup <= cfg.tol_ext:
            self.stop(Status("extinct", self.t, "tol_ext"))
        elif self.t >= cfg.T_end:
            self.stop(Status("completed", cfg.T_end, "t_end"))
        elif abs(residual) < 0.2 * tol:
            self.dt = min(h * 1.4, cfg.dt_max)
        else:
            self.dt = h

    def reject(self) -> None:
        """Halve the size of the step in flight; step underflow is treated
        as a blow-up detection."""
        self.traj.rejected_steps += 1
        self.dt = self.h / 2.0
        if self.dt < self.cfg.dt_min:
            self.stop(Status("blowup", self.t, "dt_underflow"))

    def stop(self, status: Status) -> None:
        """End the member's run: its status, its last state if not stored
        yet, and its solve counts."""
        traj = self.traj
        traj.status = status
        if traj.states[-1][0] != traj.times[-1]:
            traj.states.append((traj.times[-1], self._field()))
        traj.factorizations = self.factor.factorizations
        traj.pcg_iterations = self.factor.iterations

    def _field(self) -> Field:
        """A copy of the current state, without gradient arrays; a stack's
        row is copied so that the stored state does not keep its stack."""
        values = self.state.values
        return Field(self.state.mesh,
                     values if self.row is None else values[self.row])


class _Stack:
    """The members that one ``march`` iteration steps together, with what
    ``step`` and ``snapshot`` take for them: their configs, their factors
    and the ``Terms`` of their p and eps (for a stack of one, a plain
    field's). Built when the stack forms, and again when a member leaves
    it."""

    __slots__ = ("members", "cfgs", "factors", "terms")

    def __init__(self, members: list[_Member]):
        self.members = members
        self.cfgs = _per_member([m.cfg for m in members])
        self.factors = _per_member([m.factor for m in members])
        self.terms = _terms(self.cfgs)


def _advance(stack: _Stack, mesh: Mesh, nl: Nonlinearity) -> list[_Member]:
    """One iteration of ``march``: step the running members of ``stack``
    once, judge their trials, and return the members still running."""
    running = stack.members
    for m in running:
        m.aim()
    state = _gather([(m.state, m.row) for m in running])
    one = len(running) == 1
    try:
        new = step(state, _per_member([m.t for m in running]), stack.cfgs,
                   nl, _per_member([m.h for m in running]),
                   factor=stack.factors, terms=stack.terms)
    except StepFailureError:            # only a plain field's solve raises
        new = None
    sups = [math.nan] if new is None else _listed(new.sup())
    judging = []   # (member, its trials: [(field, row, size)]) to judge
    for i, (m, sup) in enumerate(zip(running, sups)):
        trials = [(new, None if one else i, m.h)]
        failed = sup != sup             # NaN: the member's solve failed
        if not failed and sup <= m.cfg.tol_ext:
            # judge the shortest extinct step first; the original trial
            # only if that one fails the gate
            try:
                trials = _extinction_crossing(
                    state if one else state.rows(i), m, nl) + trials
                m.traj.extinction_probes += EXTINCTION_HALVINGS
            except StepFailureError:
                failed = True
        if failed:
            m.stop(Status("step_failure", m.t, "linear_solve"))
        else:
            judging.append((m, trials))
    while judging:
        judging = _judge(judging, mesh, nl, stack)
    return [m for m in running if m.traj.status is None]


def _judge(judging: list, mesh: Mesh, nl: Nonlinearity, stack: _Stack) -> list:
    """Judge each member's first trial, all in one snapshot: accept it,
    reject the step or stop the member. Returns the members left with a
    trial to judge next, with their remaining trials."""
    members = [m for m, _ in judging]
    hs = [trials[0][2] for _, trials in judging]
    old = _gather([(m.state, m.row) for m in members])
    new = _gather([trials[0][:2] for _, trials in judging])
    step_sq = new.values - old.values
    step_sq *= step_sq
    quad = _listed(rowdot(step_sq, mesh.quad_weights))
    t_new, cum, diss = [], [], []
    for m, h, q in zip(members, hs, quad):
        t = m.t + h
        if abs(t - m.target) <= 1e-12 * max(1.0, m.target):
            t = m.target
        t_new.append(t)
        diss.append(q / h)
        cum.append(m.snap.dissipation_cum + diss[-1])
    terms = (stack.terms if len(members) == len(stack.members)
             else _terms(_per_member([m.cfg for m in members])))
    snaps = snapshot(new, _per_member(t_new), terms, nl, _per_member(cum))
    one = len(members) == 1
    again = []
    for i, ((m, trials), snap) in enumerate(zip(judging,
                                                [snaps] if one else snaps)):
        if not (math.isfinite(snap.E_p) and math.isfinite(snap.I_p)):
            # the reaction overflowed; the residual gate cannot judge this
            m.stop(Status("blowup", m.t, "energy_overflow"))
            continue
        residual = diss[i] + snap.E_eps - m.snap.E_eps
        tol = m.cfg.energy_residual_tol * (1.0 + abs(snap.E_p))
        if not abs(residual) > tol:
            m.accept(new, None if one else i, hs[i], snap, residual, tol)
        elif len(trials) > 1:
            again.append((m, trials[1:]))
        else:
            m.reject()
    return again


def _per_member(values: list):
    """Per-member values as ``step`` and ``snapshot`` take them for the
    stack of their members: the value itself for a stack of one, which
    marches as a plain field, else the list."""
    return values[0] if len(values) == 1 else values


def _listed(result) -> list:
    """A per-member result as a list of floats: a stack's array, or the
    float of a plain field."""
    return result.tolist() if isinstance(result, np.ndarray) else [float(result)]


def _gather(refs: list) -> Field:
    """The states ``refs`` = [(field, row), ...] name (row ``row`` of a
    stack, or a plain field for row None) as one stack in order, or as a
    plain field for a single ref; no copy when they are a whole stack."""
    if len(refs) == 1:
        field, row = refs[0]
        return field if row is None else field.rows(row)
    first = refs[0][0]
    if len(refs) == len(first.values) and all(
            f is first and r == i for i, (f, r) in enumerate(refs)):
        return first
    if all(f is first for f, _ in refs):
        return first.rows([r for _, r in refs])
    return Field.stack([f.rows(None if r is None else slice(r, r + 1))
                        for f, r in refs])


def _extinction_crossing(state: Field, m: _Member,
                         nl: Nonlinearity) -> list[tuple]:
    """Bisect (0, h] for the shortest step of member ``m`` from ``state``,
    its current state as a plain field, that ends extinct, given that the
    step of size h = m.h does. Returns [(field, None, size)] for the
    shortest extinct step shorter than h, or [] if there is none. The step
    of size ``size - h / 2 ** EXTINCTION_HALVINGS`` (``h`` minus that, for
    []) is not extinct: it was tried, or it is 0. A probe whose solve fails
    raises StepFailureError."""
    lo, hi, found = 0.0, m.h, []
    for _ in range(EXTINCTION_HALVINGS):
        mid = 0.5 * (lo + hi)
        new = step(state, m.t, m.cfg, nl, mid, factor=m.factor)
        if new.sup() <= m.cfg.tol_ext:
            hi, found = mid, [(new, None, mid)]
        else:
            lo = mid
    return found


def detect_tmax(traj: Trajectory) -> float:
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


def gradient_bound_audit(traj: Trajectory, theta: float, d_hat: float) -> dict:
    """Audit the gradient ceiling theta p d_hat / (theta - p) and the
    dissipation ceiling d_hat over the accepted states' snapshots, with p
    from the run's config; each holds up to an absolute 1e-12."""
    tol = 1e-12
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
_CSV_ROW = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n"


def write_trajectory_csv(traj: Trajectory, path) -> None:
    with open(path, "w") as fh:
        fh.write("# format_version=1\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        prev_t = None
        for s in traj.snapshots:
            dt = 0.0 if prev_t is None else s.time - prev_t
            prev_t = s.time
            fh.write(_CSV_ROW % (s.time, s.E_p, s.I_p, s.tv, s.l2, s.sup,
                                 s.dissipation_cum, dt))
