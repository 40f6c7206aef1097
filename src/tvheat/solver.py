"""Semi-implicit time integration of the nodal p-Laplacian reaction system.

Each step freezes the diffusion coefficient (|grad u|^2 + eps^2)^((p-2)/2) at
the current state (lagged diffusivity), solves the resulting symmetric
positive-definite system on the interior nodes by banded Cholesky, and treats
the reaction explicitly. A system that is not tridiagonal eliminates the red
nodes of the mesh's red-black split exactly, and within one run its black
Schur complement is solved by conjugate gradients preconditioned with the
banded Cholesky factor of an earlier step's complement, which changes little
from step to step.

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

One trial is judged per step: a step that ends extinct (sup <= tol_ext)
is bisected from the same state, EXTINCTION_HALVINGS times, and the
shortest step found extinct, if any, is the trial. The extinction time is
thus located to 2^-EXTINCTION_HALVINGS of the step that crossed it.
Blow-up is detected (threshold crossing, an energy that overflows, or step
underflow), never proven.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .mesh import CSR, Field, Mesh, RedBlack, _load_extension, rowdot
from .model import EnergySnapshot, Nonlinearity, Terms, WellStatus, \
    classify_well, snapshot

_flapack = _load_extension("scipy.linalg._flapack")
dpbtrf, dpbtrs, dptsv = _flapack.dpbtrf, _flapack.dpbtrs, _flapack.dptsv


def __getattr__(name: str):
    """``spla``, ``scipy.sparse.linalg``, imported on first access and then
    kept in the module's globals: no solve calls it, and ``bench/spans.py``
    wraps ``spla.spsolve`` through this name. Only an access imports it,
    and the scipy.sparse package with it, which no run imports: after a
    step at 64^2 it raised the resident peak from 41 to 64 MB (scipy
    1.17)."""
    if name == "spla":
        import scipy.sparse.linalg as spla
        globals()["spla"] = spla
        return spla
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        if not (0 <= self.eps and math.isfinite(self.eps * self.eps)):
            raise SolverError(f"eps must be >= 0 with a finite square, got "
                              f"{self.eps}")
        if not 0 < self.energy_residual_tol < math.inf:
            raise SolverError(f"energy_residual_tol must be finite and > 0, "
                              f"got {self.energy_residual_tol}")
        if not math.isfinite(self.tol_ext):
            raise SolverError(f"tol_ext must be finite, got {self.tol_ext}")
        if math.isnan(self.U_max):
            raise SolverError(f"U_max must not be NaN, got {self.U_max}")
        # halving never takes dt below a dt_min <= 0: no dt_underflow then
        if not 0 < self.dt_min:
            raise SolverError(f"dt_min must be > 0, got {self.dt_min}")
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
    termination status, the linear-solve counts (factorizations, which on
    a tridiagonal band count the ``ptsv`` calls, and preconditioned CG
    iterations, which stay 0 there) and the step counts beside the
    accepted ones: trials the energy gate rejected, and the bisection
    steps that located an extinction crossing."""

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
    """One member's linear solver on ``mesh``, with its solve counts. Its
    path is fixed for the mesh: a tridiagonal band (``band_layout`` [1]:
    every chain, and a rectangle one interior row or column wide) goes to
    LAPACK ``ptsv``, each call counted as a factorization; any other band
    eliminates the red unknowns of the mesh's red-black split exactly and
    keeps a banded Cholesky factor of the black Schur complement across
    steps, as the preconditioner of the next steps' complements. B, the
    red-black coupling block, is a ``CSR`` whose pattern the first such
    solve builds and whose entries each solve reads from its band; its
    two products, B x and B^T y, run on the same arrays, in scipy's
    compiled sparse kernels. ``march`` gives each member one; a second
    run starts from no factor, so its results do not depend on what ran
    before."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.tridiagonal = mesh.band_layout == [1]
        self.chol = None         # upper Cholesky factor in LAPACK band form
        self.factorizations = 0
        self.iterations = 0
        # the split's B, whose entries each solve replaces, and S's fill,
        # built on the first red-black solve
        self._B = self._fill = None

    def solve(self, band: np.ndarray, rhs: np.ndarray,
              x0: np.ndarray) -> np.ndarray:
        """Solve the system in compact band storage ``band`` (see
        ``solveh_banded``). A tridiagonal band: LAPACK ``ptsv``, one
        factorization. Otherwise, in the red-black order of the mesh's
        split (``Mesh.red_black``), A = [[D_r, B], [B^T, D_b]]: the black
        unknowns solve S x_b = b_b - B^T D_r^-1 b_r, S = D_b - B^T D_r^-1 B,
        and then x_r = D_r^-1 (b_r - B x_b). S is solved by PCG from
        ``x0``'s black part with the held factor; a solve that needs more
        than PCG_REFACTOR_ITERS iterations drops the factor, and with no
        factor held, or when PCG fails, S's band is built and factored with
        LAPACK ``pbtrf`` and solved directly with ``pbtrs``. A matrix that
        is not positive definite to working precision raises LinAlgError:
        one whose red-black Cholesky factorization has a pivot at or below
        m eps max(diag), a red diagonal (checked at every solve) or the
        square of a diagonal entry of S's factor."""
        if self.tridiagonal:
            self.factorizations += 1
            # f2py rejects an empty off-diagonal; at order 1 LAPACK reads none
            _, _, x, info = dptsv(band[1], band[0, 1:] if len(rhs) > 1
                                  else band[0], rhs)
            if info:
                _check_info(info, "ptsv")
            return x
        split = self.mesh.red_black
        red, black = split.red, split.black
        if self._B is None:
            self._B = CSR(np.empty(len(split.coupling)), split.indices,
                          split.indptr, (len(red), len(black)))
            self._fill = _schur_fill(split)
        B = dataclasses.replace(self._B, data=band.take(split.coupling))
        diag = band[-1]
        # LAPACK pstrf's default rank tolerance: a pivot at or below it is
        # zero to working precision (a NaN fails every comparison)
        floor = len(diag) * np.finfo(float).eps * max(diag.max(), 0.0)
        d_r = diag[red]
        if not d_r.min() > floor:      # the red pivots are A's diagonal
            raise _not_definite(int(np.argmin(d_r > floor)), len(diag))
        inv_r = 1.0 / d_r
        schur = (B, inv_r, diag[black])
        rhs_r = rhs[red]
        rhs_b = rhs[black] - B.transpose_product(inv_r * rhs_r)
        x_b = None
        if self.chol is not None:
            x_b, its = self._pcg(schur, rhs_b, x0[black],
                                 PCG_RTOL * np.linalg.norm(rhs))
            self.iterations += its
            if its > PCG_REFACTOR_ITERS:
                self.chol = None       # the next step factors its own S
        if x_b is None:
            self.chol = None           # at most one factor is held
            chol, info = dpbtrf(_schur_band(schur, split, self._fill),
                                overwrite_ab=1)
            pivots = chol[-1] * chol[-1]
            if info or not pivots.min(initial=math.inf) > floor:
                raise _not_definite(
                    len(red) + (info - 1 if info else
                                int(np.argmin(pivots > floor))), len(diag))
            self.chol = chol
            self.factorizations += 1
            x_b = self._back_solve(rhs_b)
        x = np.empty(rhs.shape)
        x[black] = x_b
        x[red] = inv_r * (rhs_r - B.product(x_b))
        return x

    def _back_solve(self, r: np.ndarray) -> np.ndarray:
        """The held factor's solve, LAPACK ``pbtrs``."""
        x, info = dpbtrs(self.chol, r)
        _check_info(info, "pbtrs")
        return x

    def _pcg(self, schur: tuple, rhs: np.ndarray, x: np.ndarray,
             tol: float) -> tuple[np.ndarray | None, int]:
        """Conjugate gradients on the Schur complement ``schur`` (see
        ``_schur_product``) from ``x``, which it updates in place,
        preconditioned by the held factor
        (Saad, Iterative Methods for Sparse Linear Systems, 2003, Alg.
        9.1), until ||rhs - S x|| <= ``tol``. Returns (x, iterations), with
        x None when the stopping test is not met within PCG_MAX_ITERS or
        the iteration breaks down. The residual is tested before it is
        preconditioned, so k iterations make k back-solves: a solve that
        meets the test makes none for the residual it stops at."""
        r = rhs - _schur_product(schur, x)
        rz = None
        k = 0
        # ||r|| as np.linalg.norm takes it, the root of r . r; x, r and d
        # are updated in place, each entry as x + alpha d, r - alpha S d
        # and z + beta d would be
        while not math.sqrt(r.dot(r)) <= tol:
            if k == PCG_MAX_ITERS:
                return None, k
            z = self._back_solve(r)
            rz, rz_old = r.dot(z), rz
            if rz_old is None:
                d = z
            else:
                d *= rz / rz_old
                d += z
            Sd = _schur_product(schur, d)
            dSd = d.dot(Sd)
            if not dSd > 0.0:            # breakdown, or a non-finite system
                return None, k
            alpha = rz / dSd
            x += alpha * d
            r -= alpha * Sd
            k += 1
        return x, k


def solveh_banded(band: np.ndarray, rhs: np.ndarray, factor,
                  x0: np.ndarray) -> np.ndarray:
    """Solve the symmetric positive definite system held in the compact
    band storage of ``Mesh.interior_stiffness``, ``band``: a row per
    super-diagonal of ``Mesh.band_layout`` and the last row the diagonal,
    each as in LAPACK upper banded storage. The one linear solve of a
    step, through ``factor``'s ``BandedFactor.solve``, on its mesh's path.

    A tridiagonal band is solved by LAPACK ``ptsv``, called directly: the
    routine scipy's ``solveh_banded`` ends in, without its argument checks,
    which cost more than the solve of a few hundred unknowns. Otherwise the
    red unknowns of the mesh's red-black split are eliminated exactly, and
    the black ones are solved by conjugate gradients from ``x0``,
    preconditioned by ``factor``'s held factorization, or by a fresh
    factorization. A matrix that is not positive definite raises
    LinAlgError.

    A stack of k systems (``band`` of shape (rows, k, m), as
    ``Mesh.interior_stiffness`` lays it out, ``rhs`` and ``x0`` (k, m),
    ``factor`` a sequence of k factors) is solved in this one call, each
    member as above with its own factor; a member whose matrix is not
    positive definite, or whose solution is not finite, comes back as a
    row of NaN instead. A tridiagonal stack is one ``ptsv`` call on its
    block-diagonal matrix, whose zero couplings leave every block's
    arithmetic as it is alone, and each member counts one factorization;
    a stack with a failed block, or of blocks of one unknown (which ptsv
    scales by 1 / pivot alone, but divides inside a larger matrix), is
    solved block by block. The function keeps scipy's name because the
    benchmark's tracer wraps ``solver.solveh_banded`` as the linear-solve
    layer and counts one call per step.
    """
    if band.ndim == 2:
        return factor.solve(band, rhs, x0)
    if factor[0].tridiagonal and rhs.shape[1] > 1:
        _, _, x, info = dptsv(band[1].ravel(), band[0].ravel()[1:],
                              rhs.ravel())
        if info == 0 and np.isfinite(x).all():
            for f in factor:
                f.factorizations += 1
            return x.reshape(rhs.shape)
    x = np.empty(rhs.shape)
    for i, f in enumerate(factor):
        try:
            x[i] = f.solve(band[:, i], rhs[i], x0[i])
        except np.linalg.LinAlgError:
            x[i] = np.nan
        if not np.isfinite(x[i]).all():
            x[i] = np.nan
    return x


def _not_definite(pivot: int, m: int) -> np.linalg.LinAlgError:
    """The LinAlgError for pivot ``pivot`` (from 0) of the Cholesky
    factorization, in red-black order, of a matrix of order m, a pivot
    not above m eps max(diag)."""
    return np.linalg.LinAlgError(
        f"red-black pbtrf: pivot {pivot + 1} of {m} is not above m eps "
        f"max(diag): not positive definite to working precision")


def _check_info(info: int, routine: str) -> None:
    """Raise on a LAPACK routine's failure: LinAlgError for a matrix that
    is not positive definite (info > 0), ValueError for a bad argument."""
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{routine}: {info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"{routine}: illegal value in argument {-info}")


def _schur_product(schur: tuple, x: np.ndarray) -> np.ndarray:
    """S x = D_b x - B^T (D_r^-1 (B x)) for ``schur`` = (B, D_r^-1, D_b),
    B a ``CSR`` (B^T its transpose product on the same arrays), the two
    diagonals as vectors."""
    B, inv_r, d_b = schur
    y = B.product(x)
    y *= inv_r
    Sx = d_b * x
    Sx -= B.transpose_product(y)
    return Sx


def _schur_fill(split: RedBlack) -> tuple[np.ndarray, ...]:
    """(pos, left, right), the products that make -B^T D_r^-1 B in S's
    LAPACK upper band storage for the CSR pattern of ``split``'s B: for
    each pair of entries B[k, c1] and B[k, c2] of one red row k, c1 <= c2,
    at CSR positions ``left`` and ``right``, ``-B[k, c1] B[k, c2] /
    D_r[k]`` adds to position ``pos`` of the (bandwidth + 1)-row band,
    flattened in Fortran order."""
    indptr, col, bs = split.indptr, split.indices, split.bandwidth
    first, degree = indptr[:-1], np.diff(indptr)
    most = int(degree.max(initial=0))
    pairs = [(a, c) for a in range(most) for c in range(a, most)]
    none = [np.zeros(0, dtype=np.int64)]
    left = np.concatenate(none + [first[degree > c] + a for a, c in pairs])
    right = np.concatenate(none + [first[degree > c] + c for a, c in pairs])
    c1, c2 = col[left], col[right]
    return bs + c1 - c2 + (bs + 1) * c2, left, right


def _schur_band(schur: tuple, split: RedBlack, fill: tuple) -> np.ndarray:
    """The LAPACK upper banded storage of the Schur complement S of
    ``schur`` (see ``_schur_product``), bandwidth ``split.bandwidth``, in
    Fortran order so that LAPACK reads it without a copy: each product of
    ``fill`` (``_schur_fill(split)``) summed into its position, then D_b
    on the diagonal."""
    B, inv_r, d_b = schur
    pos, left, right = fill
    rows = split.bandwidth + 1
    scaled = B.data * np.repeat(inv_r, np.diff(split.indptr))   # D_r^-1 B
    w = B.data[left] * scaled[right]
    np.negative(w, out=w)
    # float even without products (numpy counts an empty input as int)
    ab = np.bincount(pos, w, minlength=rows * len(d_b)).astype(
        float, copy=False).reshape((rows, len(d_b)), order="F")
    ab[-1] += d_b
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
    held factorization preconditions PCG off a tridiagonal band; without
    one, the step solves through a fresh ``BandedFactor``, which factors
    directly. A failed solve raises StepFailureError. The reaction term is
    the state's kept f(u) (``Field.reaction``), and the lagged coefficient
    is the one kept with the state for ``terms`` (``Field.coefficient``),
    which the state's snapshot evaluated, or else evaluated here.

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
    if single:
        dt = cfg.dt0 if dt is None else dt
        if factor is None:
            factor = BandedFactor(mesh)
    else:
        dt = np.asarray(dt, dtype=float)[:, None]
        if factor is None:
            factor = [BandedFactor(mesh) for _ in range(len(u))]
    if terms is None:
        terms = _terms(cfg)
    w = state.coefficient(terms) * mesh.element_volumes
    offsets = mesh.band_layout
    interior, qw = mesh.interior, mesh.interior_weights
    band = mesh.interior_stiffness(w)
    band[-1] += qw / dt
    u_in = u[..., interior]
    rhs = u_in / dt
    rhs += state.reaction(nl)[..., interior]
    rhs *= qw
    try:
        # non-finite entries fail the factorization or the checks below
        x = solveh_banded(band, rhs, factor, u_in)
    except np.linalg.LinAlgError as exc:
        raise StepFailureError(f"banded solve failed: {exc}") from None
    new = np.zeros(u.shape)
    new[..., interior] = x
    if single:
        if not _gate(band, x, rhs, offsets):
            failure = ("banded solve residual above tolerance"
                       if np.isfinite(x).all() else "non-finite solution")
            raise StepFailureError(f"{failure} at t={t}")
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
    floats, for the solution ``x`` of the system in compact band storage
    ``band``, which it overwrites with its magnitudes. A plain field's
    ``x`` that is not finite fails, before any arithmetic on it. For a
    stack, whose band rows flatten to one block-diagonal matrix, one
    verdict per member, each as it is alone, False for a member whose
    solve failed (a row of NaN, as ``solveh_banded`` returns it); such a
    member is read as zero here, so that its blocks' zero couplings
    (0 * nan) cannot reach its neighbours."""
    if x.ndim == 1:
        xx = x.dot(x)           # finite unless some entry is (or x is huge)
        if not (math.isfinite(xx) or np.isfinite(x).all()):
            return False
        r = _band_product(band, x, offsets)
        r -= rhs
        norm_A = float(np.maximum.reduce(
            _abs_row_sums(band, offsets, out=band)))
        return _accurate(r.dot(r), rhs.dot(rhs), norm_A, xx)
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
    row_abs = _abs_row_sums(flat, offsets, out=flat).reshape(x.shape)
    norm_A = row_abs.max(axis=-1).tolist()
    return [f and _accurate(*norms)
            for f, *norms in zip(finite.tolist(), rr, bb, norm_A, xx)]


def _accurate(rr: float, bb: float, norm_A: float, xx: float) -> bool:
    """The gate's verdict from ||r||^2, ||b||^2, ||A||_inf and ||x||^2."""
    scale = math.sqrt(bb) + norm_A * math.sqrt(xx)
    return math.sqrt(rr) <= 1e-10 * max(scale, 1e-300)


def _abs_row_sums(band: np.ndarray, offsets: list[int],
                  out: np.ndarray | None = None) -> np.ndarray:
    """The absolute row sums of the symmetric matrix A held in compact band
    storage ``band`` with super-diagonals at ``offsets``: ||A||_inf is
    their maximum. The magnitudes of ``band`` are written into ``out``
    (shaped as ``band``, or ``band`` itself) if given, and the sums into
    its last row."""
    magnitudes = np.abs(band, out=out)
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

    Each iteration advances every running member at once: one ``step`` call
    and one ``snapshot`` call serve the stack of their states (see
    ``Field``), with the stack's constants (``_Stack``) built once, when
    it forms, and again only when a member leaves it. Only ``_Stack``
    makes a lone member a plain field, whose 1-D arrays cost less than a
    (1, n) stack's: a trial that alone survives a larger stack's iteration
    is judged as a stack of one. Each member's step size, gate verdict,
    extinction bisection and stop reason are its own, in Python floats, so
    each member ends bit for bit as it would alone; a member that stops
    leaves the stack. A member's one trial per iteration (its step, or the
    shortest extinct step that ``_extinction_crossing`` finds) is
    evaluated once, in a snapshot that also gives its E_p,eps, and keeps
    its sup norm, f(u) and lagged coefficient, which the next steps from
    that field (retries included) reuse; a field built from rows of
    another (``_gather``'s regathered stack, or ``Field.rows``' state that
    an extinction bisection starts from) evaluates them again, with the
    same bits. The bisection reads only its probes' sup norms. A member's
    steps share one ``BandedFactor``. Every state a member holds, u0's
    included, enters through ``_Member.take``, so that u0 is judged by
    the tests that judge an accepted step (a u0 at or past U_max ends
    ``blowup`` at t = 0), and stored at the same targets: t = 0, its
    checkpoint times and T_end. Its last state is stored too.
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
    zeros = 0.0 if k == 1 else [0.0] * k
    snaps = snapshot(start, zeros, stack.terms, nl, zeros)
    running = [m for row, (m, snap) in enumerate(
        zip(members, [snaps] if k == 1 else snaps))
        if m.take(start, None if k == 1 else row, snap)]
    while running:
        if len(running) != len(stack.members):
            stack = _Stack(running)
        running = _advance(stack, mesh, nl)
    return [m.traj for m in members]


class _Member:
    """One member of a ``march``: its trajectory and factor, and its step
    control in Python floats. Its current state is row ``row`` of the
    stack ``state``, or ``state`` itself, a plain field, when ``row`` is
    None, and ``snap`` is that state's snapshot, which ``take`` sets; ``h``
    is the size of its trial in flight, which ends at or before
    ``target``, its targets' entry ``next_target``, at ``t_trial`` with
    dissipation ``diss`` and cumulative dissipation ``cum`` (``close``)."""

    __slots__ = ("traj", "cfg", "factor", "targets", "next_target", "t",
                 "dt", "h", "target", "t_trial", "diss", "cum", "snap",
                 "state", "row")

    def __init__(self, traj: Trajectory):
        cfg = traj.cfg
        self.traj, self.cfg, self.factor = traj, cfg, BandedFactor(traj.mesh)
        self.targets = sorted({0.0, cfg.T_end}
                              | {float(c) for c in cfg.checkpoint_times})
        self.next_target = 0
        self.t, self.row = 0.0, None
        self.dt = min(cfg.dt0, cfg.dt_max)

    def aim(self) -> None:
        """Set the next target, the first one past t (a step that ends
        near a target ends on it), and the size of the next step."""
        while self.targets[self.next_target] <= self.t:
            self.next_target += 1
        self.target = self.targets[self.next_target]
        self.h = min(self.dt, self.target - self.t)

    def trial(self, new: Field | None, sup: float, state: Field,
              row: int | None, nl: Nonlinearity) -> tuple | None:
        """The member's one trial, as (field, row): the step from
        ``state`` to ``new`` (row ``row`` of stacks, or plain fields for
        None) of sup norm ``sup``, or the shortest extinct step that
        ``_extinction_crossing`` finds. None, after stopping the member,
        when its solve (``sup`` NaN) or a probe's failed."""
        if sup <= self.cfg.tol_ext:
            try:
                probe = _extinction_crossing(
                    state if row is None else state.rows(row), self, nl)
            except StepFailureError:
                sup = math.nan
            else:
                self.traj.extinction_probes += EXTINCTION_HALVINGS
                if probe is not None:
                    return probe, None
        if sup != sup:                  # NaN: the member's solve failed
            self.stop(Status("step_failure", self.t, "linear_solve"))
            return None
        return new, row

    def close(self, quad: float) -> None:
        """Set the trial's end ``t_trial`` (the target when within 1e-12
        max(1, target) of it), and its ``diss`` and ``cum`` from the
        quadrature ``quad`` of its squared step."""
        t = self.t + self.h
        if abs(t - self.target) <= 1e-12 * max(1.0, self.target):
            t = self.target
        self.t_trial, self.diss = t, quad / self.h
        self.cum = self.snap.dissipation_cum + self.diss

    def judge(self, state: Field, row: int | None,
              snap: EnergySnapshot) -> bool:
        """Accept the closed trial, row ``row`` of ``state``, evaluated in
        ``snap`` (``take``), and set the next dt from its residual; or
        reject it, or stop at an energy that overflowed. Returns whether
        the member still runs."""
        if not (math.isfinite(snap.E_p) and math.isfinite(snap.I_p)):
            # the reaction overflowed; the residual gate cannot judge this
            self.stop(Status("blowup", self.t, "energy_overflow"))
            return False
        residual = self.diss + snap.E_eps - self.snap.E_eps
        tol = self.cfg.energy_residual_tol * (1.0 + abs(snap.E_p))
        if abs(residual) > tol:
            self.reject()
        elif self.take(state, row, snap):
            self.dt = (min(self.h * 1.4, self.cfg.dt_max)
                       if abs(residual) < 0.2 * tol else self.h)
        return self.traj.status is None

    def take(self, state: Field, row: int | None,
             snap: EnergySnapshot) -> bool:
        """Take the state, row ``row`` of ``state``, evaluated in ``snap``
        (the initial state, or an accepted trial), storing it at a target;
        stop at blow-up, extinction or T_end. Returns whether the member
        still runs."""
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
        return traj.status is None

    def reject(self) -> None:
        """Halve the size of the trial in flight; step underflow is treated
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
        return (self.state.copy() if self.row is None
                else self.state.rows(self.row))


class _Stack:
    """The members that one ``march`` iteration steps together, with what
    ``step`` and ``snapshot`` take for them: their configs, factors and
    ``Terms``; for a stack of one (``one``), the member's own, and its
    state becomes a plain field, here only. Built when the stack forms,
    and again when a member leaves it."""

    __slots__ = ("members", "one", "cfgs", "factors", "terms")

    def __init__(self, members: list[_Member]):
        self.members = members
        self.one = len(members) == 1
        if self.one:
            m, = members
            if m.row is not None:       # the member left a larger stack
                m.state, m.row = m.state.rows(m.row), None
            self.cfgs, self.factors = m.cfg, m.factor
        else:
            self.cfgs = [m.cfg for m in members]
            self.factors = [m.factor for m in members]
        self.terms = _terms(self.cfgs)


def _advance(stack: _Stack, mesh: Mesh, nl: Nonlinearity) -> list[_Member]:
    """One iteration of ``march``: step the running members of ``stack``
    once, judge one trial per member, all in one snapshot, and return the
    members still running. A stack of one passes its member's plain field
    and floats as they are; a larger stack gathers rows and lists, and
    judges its surviving trials as a stack, of one row if one survives."""
    running = stack.members
    for m in running:
        m.aim()
    qw = mesh.quad_weights
    if stack.one:
        m, = running
        state = m.state
        try:
            new = step(state, m.t, stack.cfgs, nl, m.h, factor=stack.factors,
                       terms=stack.terms)
        except StepFailureError:
            new = None
        trial = m.trial(new, math.nan if new is None else new.sup(), state,
                        None, nl)
        if trial is None:
            return []
        new = trial[0]
        step_sq = new.values - state.values
        step_sq *= step_sq
        m.close(float(step_sq.dot(qw)))
        snap = snapshot(new, m.t_trial, stack.terms, nl, m.cum)
        return running if m.judge(new, None, snap) else []
    state = _gather([(m.state, m.row) for m in running])
    new = step(state, [m.t for m in running], stack.cfgs, nl,
               [m.h for m in running], factor=stack.factors,
               terms=stack.terms)
    members, trials = [], []
    for i, (m, sup) in enumerate(zip(running, new.sup().tolist())):
        trial = m.trial(new, sup, state, i, nl)
        if trial is not None:
            members.append(m)
            trials.append(trial)
    if not members:
        return []
    old = _gather([(m.state, m.row) for m in members])
    new = _gather(trials)
    step_sq = new.values - old.values
    step_sq *= step_sq
    for m, q in zip(members, rowdot(step_sq, qw).tolist()):
        m.close(q)
    terms = (stack.terms if len(members) == len(running)
             else _terms([m.cfg for m in members]))
    snaps = snapshot(new, [m.t_trial for m in members], terms, nl,
                     [m.cum for m in members])
    return [m for i, (m, snap) in enumerate(zip(members, snaps))
            if m.judge(new, i, snap)]


def _gather(refs: list) -> Field:
    """The states ``refs`` = [(field, row), ...] name (row ``row`` of a
    stack, or a plain field for row None) as one stack in order, a stack
    of one for a single ref: the whole stack itself when they are one, or
    else the one copy ``np.stack`` makes, which the field adopts."""
    first = refs[0][0]
    if len(refs) == len(first.values) and all(
            f is first and r == i for i, (f, r) in enumerate(refs)):
        return first
    return Field._adopt(first.mesh, np.stack(
        [f.values if r is None else f.values[r] for f, r in refs]))


def _extinction_crossing(state: Field, m: _Member,
                         nl: Nonlinearity) -> Field | None:
    """Bisect (0, h] for the shortest step of member ``m`` from ``state``,
    its current state as a plain field, that ends extinct, given that the
    step of size h = m.h does; set m.h to its size and return its field,
    or None if it is h. The step shorter by h / 2 ** EXTINCTION_HALVINGS
    is not extinct: it was tried, or it is 0. A probe whose solve fails
    raises StepFailureError."""
    lo, hi, found = 0.0, m.h, None
    for _ in range(EXTINCTION_HALVINGS):
        mid = 0.5 * (lo + hi)
        new = step(state, m.t, m.cfg, nl, mid, factor=m.factor)
        if new.sup() <= m.cfg.tol_ext:
            hi, found = mid, new
        else:
            lo = mid
    m.h = hi
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


def l2_audit(traj: Trajectory) -> dict:
    """L2 monotonicity, up to an absolute 1e-8, and the discrete identity
    (1/2) d/dt ||u||_2^2 = -I_p(u) along the snapshot ledger."""
    slack = 1e-8
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
