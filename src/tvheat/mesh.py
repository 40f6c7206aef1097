"""Spatial discretizations: interval, radial annulus and rectangle meshes.

The annulus is reduced to a weighted 1D problem in the radial variable; nodal
quadrature weights carry the r^(N-1) volume factor times the unit-sphere
surface measure, so that all volume integrals are integrals over the full
N-dimensional shell. The rectangle uses a structured triangulation with
piecewise-affine nodal basis. Quadrature is mass-lumped nodal (trapezoidal in
1D), which keeps the time-derivative term of the semi-discrete system diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

FORMAT_VERSION = 1


class MeshError(ValueError):
    """Invalid domain parameters or mismatched mesh data."""


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """One-dimensional domain (0, length)."""

    length: float = 1.0

    def __post_init__(self):
        if not 0 < self.length < math.inf:
            raise MeshError(f"interval length must be positive and finite, "
                            f"got {self.length}")

    @property
    def measure(self) -> float:
        return self.length

    @property
    def diameter(self) -> float:
        return self.length


@dataclass(frozen=True)
class Annulus:
    """Radial shell a < |x| < b in R^N, N >= 2, reduced to [a, b]."""

    a: float
    b: float
    dim: int = 2

    def __post_init__(self):
        if not (0 < self.a < self.b < math.inf):
            raise MeshError(f"annulus requires 0 < a < b < inf, got "
                            f"a={self.a}, b={self.b}")
        if self.dim < 2:
            raise MeshError(f"annulus requires dim >= 2, got {self.dim}")
        _check_measure(self)

    @property
    def sphere_measure(self) -> float:
        """Surface measure of the unit (dim-1)-sphere."""
        n = self.dim
        return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)

    @property
    def measure(self) -> float:
        n = self.dim
        return self.sphere_measure * (self.b ** n - self.a ** n) / n

    @property
    def diameter(self) -> float:
        return 2.0 * self.b


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle (0, lx) x (0, ly)."""

    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        if not (0 < self.lx < math.inf and 0 < self.ly < math.inf):
            raise MeshError(f"rectangle sides must be positive and finite, "
                            f"got lx={self.lx}, ly={self.ly}")
        _check_measure(self)

    @property
    def measure(self) -> float:
        return self.lx * self.ly

    @property
    def diameter(self) -> float:
        return math.hypot(self.lx, self.ly)


Domain = Interval | Annulus | Rectangle


def _check_measure(domain: Domain) -> None:
    """Reject a domain whose measure overflows: its quadrature weights would
    be infinite."""
    try:
        finite = math.isfinite(domain.measure)
    except OverflowError:   # a float power or math.gamma in Annulus.measure
        finite = False
    if not finite:
        raise MeshError(f"{domain} has no finite measure")


# ---------------------------------------------------------------------------
# Mesh
# ---------------------------------------------------------------------------

class Mesh:
    """Discretized domain with quadrature and boundary geometry.

    Attributes
    ----------
    domain : Domain
    nodes : ndarray, shape (n_nodes, dim_coord)
        Node coordinates (radial coordinate for the annulus).
    elements : ndarray, shape (n_el, dim_coord + 1)
        Node indices per element (segments in 1D, triangles in 2D).
    element_volumes : ndarray, shape (n_el,)
        Measure of each element, including the radial weight for the annulus.
    quad_weights : ndarray, shape (n_nodes,)
        Nodal quadrature weights; they sum to the domain measure exactly.
    boundary_nodes : ndarray of int
    boundary_normals : ndarray, shape (n_bnd, dim_coord)
        Unit outward normals.
    boundary_weights : ndarray, shape (n_bnd,)
        Discrete (N-1)-dimensional boundary measure per boundary node
        (counting measure in 1D).
    boundary_elements : ndarray of int
        The first element incident to each boundary node, for flux traces.
    grad_coeff : ndarray, shape (n_el, dim_coord + 1, dim_coord)
        ``grad_coeff[e, a, k]`` is component k of the gradient of local node
        a's basis function on element e. ``gradient``, ``gradient_adjoint``
        and ``interior_band`` are all built from it.
    interior_mask : ndarray of bool, shape (n_nodes,)
        False on the boundary nodes.
    h : float
        Maximum element diameter.

    The mesh is immutable after construction; concurrent shared reads are safe.
    """

    def __init__(self, domain, nodes, elements, element_volumes, quad_weights,
                 boundary_nodes, boundary_normals, boundary_weights,
                 grad_coeff):
        self.domain = domain
        self.nodes = np.asarray(nodes, dtype=float)
        self.elements = np.asarray(elements, dtype=np.int64)
        self.element_volumes = np.asarray(element_volumes, dtype=float)
        self.quad_weights = np.asarray(quad_weights, dtype=float)
        self.boundary_nodes = np.asarray(boundary_nodes, dtype=np.int64)
        self.boundary_normals = np.asarray(boundary_normals, dtype=float)
        self.boundary_weights = np.asarray(boundary_weights, dtype=float)
        self.grad_coeff = np.asarray(grad_coeff, dtype=float)
        n_el, n_loc, dim = self.grad_coeff.shape
        # first occurrence of each node in the flattened element list
        _, first = np.unique(self.elements, return_index=True)
        self.boundary_elements = first[self.boundary_nodes] // n_loc
        # one stacked operator: row e * dim_coord + k is component k on e
        self._grad = sp.csr_matrix(
            (self.grad_coeff.transpose(0, 2, 1).ravel(),
             np.repeat(self.elements, dim, axis=0).ravel(),
             np.arange(0, n_el * dim * n_loc + 1, n_loc)),
            shape=(n_el * dim, self.n_nodes))
        edges = self.nodes[self.elements]
        diffs = edges[:, :, None, :] - edges[:, None, :, :]
        self.h = float(np.sqrt((diffs ** 2).sum(axis=-1)).max())
        self.interior_mask = np.ones(self.n_nodes, dtype=bool)
        self.interior_mask[self.boundary_nodes] = False
        for arr in (self.nodes, self.elements, self.element_volumes,
                    self.quad_weights, self.boundary_nodes,
                    self.boundary_normals, self.boundary_weights,
                    self.boundary_elements, self.grad_coeff,
                    self.interior_mask):
            arr.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def dim_coord(self) -> int:
        return self.nodes.shape[1]

    @cached_property
    def interior_band(self) -> tuple[sp.csc_matrix, int, np.ndarray,
                                     list[int]]:
        """Fixed pattern of the interior stiffness D^T diag(w) D.

        Returns ``(S, b, interior, offsets)``: a sparse scatter ``S``, the
        bandwidth ``b``, the ``m`` interior node indices, in node order, such
        that ``(S @ w).reshape(b + 1, m)`` is the stiffness among the
        interior nodes for element weights ``w``, in LAPACK upper banded
        storage, and the offsets d > 0 of the super-diagonals that hold a
        nonzero for positive ``w``, in decreasing order. Built on first use,
        from the gradient table.
        """
        interior = np.flatnonzero(self.interior_mask)
        m = len(interior)
        pos = np.full(self.n_nodes, -1)
        pos[interior] = np.arange(m)
        n_el, n_loc = self.elements.shape
        G = self.grad_coeff
        # element e adds w_e G[e, a] . G[e, c] to entry (i, j) of the upper
        # triangle, i <= j, for each local node pair with both nodes interior
        P = pos[self.elements]
        coef, ii, jj, elem = [], [], [], []
        for a in range(n_loc):
            for c in range(n_loc):
                i, j = P[:, a], P[:, c]
                keep = (i >= 0) & (i <= j)
                coef.append((G[keep, a] * G[keep, c]).sum(axis=1))
                ii.append(i[keep])
                jj.append(j[keep])
                elem.append(np.flatnonzero(keep))
        i, j = np.concatenate(ii), np.concatenate(jj)
        b = int((j - i).max(initial=0))
        S = sp.csc_matrix(
            (np.concatenate(coef), ((b + i - j) * m + j, np.concatenate(elem))),
            shape=((b + 1) * m, n_el))
        # band row r holds offset b - r; a coefficient that is exactly zero
        # (a right angle's coupling) adds nothing for any w
        rows = np.unique(S.indices[S.data != 0] // m)
        offsets = [b - r for r in rows.tolist() if r < b]
        return S, b, interior, offsets

    # -- operations --------------------------------------------------------

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """Piecewise-constant gradient per element, shape (n_el, dim_coord).

        First-order consistent: exact on affine fields.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_nodes,):
            raise MeshError(
                f"field has {values.shape} values, mesh has {self.n_nodes} nodes")
        return (self._grad @ values).reshape(self.n_elements, self.dim_coord)

    def gradient_adjoint(self, z: np.ndarray) -> np.ndarray:
        """The nodal vector G with G . w = sum_e v_e z_e . grad(w)_e for
        every nodal w, for an element-wise vector field z (n_el, dim_coord)
        and the element volumes v."""
        return self._grad.T @ (self.element_volumes[:, None] * z).ravel()

    def integrate(self, samples: np.ndarray) -> float:
        """Quadrature of per-node or per-element samples over the domain."""
        samples = np.asarray(samples, dtype=float)
        if samples.shape == (self.n_nodes,):
            return float(self.quad_weights @ samples)
        if samples.shape == (self.n_elements,):
            return float(self.element_volumes @ samples)
        raise MeshError(
            f"samples sized {samples.shape}; expected ({self.n_nodes},) nodal "
            f"or ({self.n_elements},) elementwise")

    def boundary_integrate(self, boundary_samples: np.ndarray) -> float:
        """Integral against the discrete boundary measure."""
        boundary_samples = np.asarray(boundary_samples, dtype=float)
        if boundary_samples.shape != (len(self.boundary_nodes),):
            raise MeshError(
                f"boundary samples sized {boundary_samples.shape}; expected "
                f"({len(self.boundary_nodes)},)")
        return float(self.boundary_weights @ boundary_samples)

    def validate(self, rtol: float = 1e-12) -> None:
        """Check constructor invariants; raises MeshError on violation."""
        total = self.quad_weights.sum()
        if abs(total - self.domain.measure) > rtol * abs(self.domain.measure):
            raise MeshError("quadrature weights do not sum to |Omega|")
        if np.any(self.quad_weights <= 0):
            raise MeshError("non-positive quadrature weight")
        norms = np.sqrt((self.boundary_normals ** 2).sum(axis=1))
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise MeshError("boundary normal is not unit length")
        vol = self.element_volumes.sum()
        if abs(vol - self.domain.measure) > rtol * abs(self.domain.measure):
            raise MeshError("element volumes do not partition |Omega|")
        if np.any(np.sort(self.elements, axis=1)[:, :-1]
                  == np.sort(self.elements, axis=1)[:, 1:]):
            raise MeshError("degenerate element (repeated node)")

    # -- plain text dump ---------------------------------------------------

    def dump(self, path, values: np.ndarray | None = None) -> None:
        """Write the mesh (optionally with one value column) as plain text."""
        bset = set(int(i) for i in self.boundary_nodes)
        with open(path, "w") as fh:
            fh.write(f"# tvheat mesh format_version={FORMAT_VERSION}\n")
            fh.write(f"# {_domain_header(self.domain)}\n")
            fh.write(f"# nodes={self.n_nodes} dim={self.dim_coord}"
                     f" columns={'coords qw bnd value' if values is not None else 'coords qw bnd'}\n")
            for i in range(self.n_nodes):
                coords = " ".join(f"{c:.17g}" for c in self.nodes[i])
                line = f"{coords} {self.quad_weights[i]:.17g} {int(i in bset)}"
                if values is not None:
                    line += f" {values[i]:.17g}"
                fh.write(line + "\n")


def _domain_header(domain: Domain) -> str:
    if isinstance(domain, Interval):
        return f"kind=interval length={domain.length:.17g}"
    if isinstance(domain, Annulus):
        return f"kind=annulus a={domain.a:.17g} b={domain.b:.17g} dim={domain.dim}"
    return f"kind=rectangle lx={domain.lx:.17g} ly={domain.ly:.17g}"


# ---------------------------------------------------------------------------
# Field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Field:
    """Nodal real values of u on a mesh at one time instant.

    Immutable: ``values`` is a read-only copy owned by the field, so the
    element-wise gradient and its magnitude are computed at most once and
    kept in ``grad`` and ``grad_mag``.
    """

    mesh: Mesh
    values: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (self.mesh.n_nodes,):
            raise MeshError(
                f"field has {values.shape} values, mesh has "
                f"{self.mesh.n_nodes} nodes")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @cached_property
    def grad(self) -> np.ndarray:
        """Piecewise-constant gradient per element, shape (n_el, dim_coord)."""
        g = self.mesh.gradient(self.values)
        g.setflags(write=False)
        return g

    @cached_property
    def grad_mag(self) -> np.ndarray:
        """Element-wise gradient magnitude |grad u|, shape (n_el,)."""
        mag = np.sqrt((self.grad ** 2).sum(axis=1))
        mag.setflags(write=False)
        return mag

    @classmethod
    def zeros(cls, mesh: Mesh) -> "Field":
        return cls(mesh, np.zeros(mesh.n_nodes))

    @classmethod
    def from_function(cls, mesh: Mesh, fn, dirichlet: bool = False) -> "Field":
        vals = np.array([fn(*xy) for xy in mesh.nodes], dtype=float)
        f = cls(mesh, vals)
        return f.constrained() if dirichlet else f

    def constrained(self) -> "Field":
        """Copy with zero values on every boundary node."""
        return Field(self.mesh,
                     np.where(self.mesh.interior_mask, self.values, 0.0))

    def is_dirichlet(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.values[self.mesh.boundary_nodes]) <= tol))

    def copy(self) -> "Field":
        """The same values without the cached gradient and magnitude."""
        return Field(self.mesh, self.values)

    def sup(self) -> float:
        return float(np.abs(self.values).max())

    def l2(self) -> float:
        return math.sqrt(float(self.mesh.quad_weights @ self.values ** 2))


def load_field(path, mesh: Mesh) -> Field:
    """Read a field dumped by ``Mesh.dump``; node coordinates must match."""
    coords, vals = [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            coords.append([float(x) for x in parts[:mesh.dim_coord]])
            vals.append(float(parts[-1]))
    coords = np.asarray(coords)
    if coords.shape != mesh.nodes.shape or not np.allclose(
            coords, mesh.nodes, rtol=1e-12, atol=1e-12):
        raise MeshError("field file does not match mesh node layout")
    return Field(mesh, vals)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def build_mesh(domain: Domain, resolution) -> Mesh:
    """Build a mesh with the given per-axis resolution (element count).

    ``resolution`` is an integer for 1D domains, an integer or (nx, ny) pair
    for the rectangle.
    """
    if isinstance(domain, (Interval, Annulus)):
        build, axes = _build_1d, 1
    elif isinstance(domain, Rectangle):
        build, axes = _build_rectangle, 2
    else:
        raise MeshError(f"unknown domain {domain!r}")
    counts = ([int(resolution)] * axes if np.isscalar(resolution)
              else [int(r) for r in resolution])
    if len(counts) != axes or min(counts) < 2:
        raise MeshError(f"resolution must be {axes} count(s) >= 2, got "
                        f"{resolution}")
    try:
        # element sizes too small or too large to invert or weigh
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return build(domain, *counts)
    except FloatingPointError as err:
        raise MeshError(f"{domain} at resolution {resolution}: {err}") from None


def _build_1d(domain, n: int) -> Mesh:
    """Interval or radial annulus: n elements on [s0, s1] with weight
    omega * r^(N-1) dr; the interval is the N=1, omega=1 case."""
    if isinstance(domain, Interval):
        s0, s1, N, omega = 0.0, domain.length, 1, 1.0
    else:
        s0, s1, N, omega = domain.a, domain.b, domain.dim, domain.sphere_measure

    r = np.linspace(s0, s1, n + 1)
    elements = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
    h = np.diff(r)

    # antiderivatives of r^(N-1) and r^N; exact hat-function moments
    P = r ** N / N
    Q = r ** (N + 1) / (N + 1)
    dP, dQ = np.diff(P), np.diff(Q)
    r0, r1 = r[:-1], r[1:]
    # int over element of (r1 - r)/h * r^(N-1) dr and (r - r0)/h * r^(N-1) dr
    w_left = omega * (r1 * dP - dQ) / h
    w_right = omega * (dQ - r0 * dP) / h
    quad_weights = np.zeros(n + 1)
    np.add.at(quad_weights, elements[:, 0], w_left)
    np.add.at(quad_weights, elements[:, 1], w_right)
    element_volumes = omega * dP

    grad_coeff = np.stack([-1.0 / h, 1.0 / h], axis=1)[:, :, None]

    boundary_nodes = np.array([0, n])
    boundary_normals = np.array([[-1.0], [1.0]])
    boundary_weights = omega * np.array([s0 ** (N - 1), s1 ** (N - 1)])

    return Mesh(domain, r[:, None], elements, element_volumes, quad_weights,
                boundary_nodes, boundary_normals, boundary_weights, grad_coeff)


def _build_rectangle(domain: Rectangle, nx: int, ny: int) -> Mesh:
    xs = np.linspace(0.0, domain.lx, nx + 1)
    ys = np.linspace(0.0, domain.ly, ny + 1)
    hx, hy = domain.lx / nx, domain.ly / ny

    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.stack([X.ravel(), Y.ravel()], axis=1)

    # node (i, j) is i * (ny + 1) + j; cell (i, j) with lower-left corner a
    # splits into the triangles (a, b, c) and (a, c, d), in cell order
    a = (np.arange(nx)[:, None] * (ny + 1) + np.arange(ny)).ravel()
    b, d = a + ny + 1, a + 1
    elements = np.stack([a, b, b + 1, a, b + 1, d], axis=1).reshape(-1, 3)

    # P1 gradient coefficients per triangle
    v = nodes[elements]                       # (n_el, 3, 2)
    e1 = v[:, 1] - v[:, 0]
    e2 = v[:, 2] - v[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    area = 0.5 * np.abs(det)
    # grad of barycentric coords: rows of inv([[e1],[e2]])^T applied to nodal diffs
    gb = np.stack([e2[:, 1], -e2[:, 0]], axis=1) / det[:, None]   # d lambda_1
    gc = np.stack([-e1[:, 1], e1[:, 0]], axis=1) / det[:, None]   # d lambda_2
    ga = -gb - gc
    coeff = np.stack([ga, gb, gc], axis=1)    # (n_el, 3, 2)

    quad_weights = np.zeros(nodes.shape[0])
    np.add.at(quad_weights, elements.ravel(), np.repeat(area / 3.0, 3))

    # boundary: the nodes on the four sides in node order, their outward unit
    # normals, and half of each adjacent boundary edge as their measure
    I, J = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="ij")
    sign = np.stack([np.select([I == 0, I == nx], [-1.0, 1.0]).ravel(),
                     np.select([J == 0, J == ny], [-1.0, 1.0]).ravel()], axis=1)
    bnodes = np.flatnonzero(sign.any(axis=1))
    sign = sign[bnodes]
    bnormals = sign / np.linalg.norm(sign, axis=1, keepdims=True)
    on_x, on_y = np.abs(sign).T
    bweights = on_x * hy * (1.0 - on_y / 2) + on_y * hx * (1.0 - on_x / 2)

    return Mesh(domain, nodes, elements, area, quad_weights,
                bnodes, bnormals, bweights, coeff)
