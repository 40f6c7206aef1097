"""Spatial discretizations: interval, radial annulus and rectangle meshes.

The annulus is reduced to a weighted 1D problem in the radial variable; nodal
quadrature weights carry the r^(N-1) volume factor times the unit-sphere
surface measure, so that all volume integrals are integrals over the full
N-dimensional shell. The rectangle uses a structured triangulation with
piecewise-affine nodal basis. Quadrature is mass-lumped nodal (trapezoidal in
1D), which keeps the time-derivative term of the semi-discrete system diagonal.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from types import ModuleType

import numpy as np
import scipy

FORMAT_VERSION = 1


class MeshError(ValueError):
    """Invalid domain parameters or mismatched mesh data."""


# ---------------------------------------------------------------------------
# Sparse operators
# ---------------------------------------------------------------------------

def _load_extension(name: str) -> ModuleType:
    """scipy's compiled extension module ``name``, such as
    ``scipy.linalg._flapack`` (the LAPACK routines that
    ``scipy.linalg.lapack`` re-exports as the same objects) or
    ``scipy.sparse._sparsetools`` (the sparse kernels behind
    scipy.sparse's products), loaded from its file without running its
    package's ``__init__.py``: either package would import scipy's shared
    array-API layer with it, about 20 MB of resident memory more per
    process. The module already imported is reused, and one loaded here is
    registered in ``sys.modules``, so that a later import of its package
    finds it. A scipy without the extension raises ImportError naming the
    directory searched."""
    module = sys.modules.get(name)
    if module is None:
        where = os.path.join(scipy.__path__[0], *name.split(".")[1:-1])
        spec = importlib.machinery.PathFinder.find_spec(name, [where])
        if spec is None:
            raise ImportError(f"no extension {name} in {where}",
                              name=name, path=where)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


@dataclass(frozen=True, eq=False)
class CSR:
    """A sparse matrix A of ``shape`` (M, N) in compressed sparse row form:
    row i holds ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``. Its arrays become read-only, the
    index arrays of scipy.sparse's index type: 32-bit integers where the
    shape and the entry count fit in them, as in a ``csr_matrix`` built
    from the same arrays.

    Both products call scipy's compiled kernels directly, from
    ``scipy.sparse._sparsetools``, which the first holder loads by its file
    (``_load_extension``): the package itself is never imported. Read by
    column, the same arrays are A^T in compressed sparse column form, so
    ``transpose_product`` needs no copy. Each product sums every output
    entry in the order of a scipy.sparse ``csr_matrix``'s ``A @ x`` or
    ``A.T @ x``, which call the same kernels, so the results are theirs
    bit for bit."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]
    kernels: ModuleType = dc_field(init=False, repr=False)

    def __post_init__(self):
        index = (np.int32 if max(self.shape + (len(self.data),))
                 <= np.iinfo(np.int32).max else np.int64)
        for name in ("indices", "indptr"):
            object.__setattr__(self, name,
                               getattr(self, name).astype(index, copy=False))
        for arr in (self.data, self.indices, self.indptr):
            arr.setflags(write=False)
        object.__setattr__(self, "kernels",
                           _load_extension("scipy.sparse._sparsetools"))

    def product(self, x: np.ndarray) -> np.ndarray:
        """A x for a vector x (N,), or A X for k columns X (N, k): each
        entry summed along its row of A, in storage order."""
        M, N = self.shape
        return self._apply(x, M, N, self.kernels.csr_matvec,
                           self.kernels.csr_matvecs)

    def transpose_product(self, x: np.ndarray) -> np.ndarray:
        """A^T x for a vector x (M,), or A^T X for k columns X (M, k): each
        entry sums one term per row of A that holds it, in row order."""
        M, N = self.shape
        return self._apply(x, N, M, self.kernels.csc_matvec,
                           self.kernels.csc_matvecs)

    def _apply(self, x, rows, cols, matvec, matvecs) -> np.ndarray:
        """The kernel's product with x of an operator of ``rows`` x
        ``cols``, into zeros; the kernels do not check the shapes."""
        if x.ndim not in (1, 2) or x.shape[0] != cols:
            raise MeshError(f"operand of shape {x.shape} for an operator "
                            f"of {rows} x {cols}")
        if x.ndim == 1:
            y = np.zeros(rows)
            matvec(rows, cols, self.indptr, self.indices, self.data, x, y)
            return y
        k = x.shape[1]
        y = np.zeros((rows, k))
        matvecs(rows, cols, k, self.indptr, self.indices, self.data,
                x.ravel(), y.ravel())
        return y


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
    grad_coeff : ndarray, shape (n_el, dim_coord + 1, dim_coord)
        ``grad_coeff[e, a, k]`` is component k of the gradient of local node
        a's basis function on element e. ``gradient``, ``gradient_adjoint``
        and ``interior_band`` are all built from it.
    interior_mask : ndarray of bool, shape (n_nodes,)
        False on the boundary nodes.
    n_nodes, n_elements, dim_coord : int
        The lengths of ``nodes`` and ``elements`` and the coordinate
        dimension, read once, at construction.

    Every other array is derived from these on first use and kept:
    ``boundary_elements``, ``interior_band``, ``band_layout``,
    ``red_black``, ``interior`` and ``interior_weights``, and the ``CSR``
    operator behind ``gradient`` and ``gradient_adjoint``.

    A mesh whose element e joins nodes e and e + 1 and whose boundary is its
    two end nodes (every ``Interval`` and ``Annulus`` mesh) is a chain: there
    ``gradient``, ``gradient_adjoint`` and ``interior_stiffness`` read slices
    of the gradient table instead of multiplying by a sparse matrix, with
    the same result, and its band is tridiagonal (``band_layout`` [1]) down
    to one interior node, so that a chain's run builds no ``CSR`` and never
    loads scipy's sparse kernels. Any other mesh multiplies by ``CSR``
    operators, through those kernels alone: no mesh imports scipy.sparse.

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
        self.n_nodes, self.dim_coord = self.nodes.shape
        self.n_elements = len(self.elements)
        self.interior_mask = np.ones(self.n_nodes, dtype=bool)
        self.interior_mask[self.boundary_nodes] = False
        for arr in (self.nodes, self.elements, self.element_volumes,
                    self.quad_weights, self.boundary_nodes,
                    self.boundary_normals, self.boundary_weights,
                    self.grad_coeff, self.interior_mask):
            arr.setflags(write=False)

    @cached_property
    def boundary_elements(self) -> np.ndarray:
        """The first element incident to each boundary node, for flux
        traces; read-only, built on first use."""
        # first occurrence of each node in the flattened element list
        _, first = np.unique(self.elements, return_index=True)
        elements = first[self.boundary_nodes] // self.elements.shape[1]
        elements.setflags(write=False)
        return elements

    @cached_property
    def _grad(self) -> CSR:
        """The gradient as one read-only sparse operator: row e * dim_coord
        + k is component k on element e. Built on first use."""
        n_el, n_loc, dim = self.grad_coeff.shape
        return CSR(self.grad_coeff.transpose(0, 2, 1).ravel(),
                   np.repeat(self.elements, dim, axis=0).ravel(),
                   np.arange(0, n_el * dim * n_loc + 1, n_loc),
                   (n_el * dim, self.n_nodes))

    @cached_property
    def interior_band(self) -> tuple[CSR, list[int]]:
        """Fixed pattern of the interior stiffness D^T diag(w) D.

        Returns ``(S, offsets)``: a sparse scatter ``S`` and the offsets
        d > 0 of the super-diagonals that hold a nonzero for positive
        element weights ``w``, in decreasing order. Row e of S holds what
        a unit weight on element e adds to each entry of the band, sorted
        by position. For such ``w``, ``S.transpose_product(w).reshape(
        len(offsets) + 1, m)``, for the m nodes of ``interior``, is the
        stiffness among the interior nodes in compact band storage: row r
        holds super-diagonal ``offsets[r]`` and the last row the diagonal,
        each as in LAPACK upper banded storage (A[i, i + d] in column
        i + d); every other diagonal is zero. Built on first use, from the
        gradient table, in one pass over each element's local node pairs
        a <= c: G[e, a] . G[e, c] is G[e, c] . G[e, a] bit for bit.
        """
        interior = np.flatnonzero(self.interior_mask)
        m = len(interior)
        pos = np.full(self.n_nodes, -1)
        pos[interior] = np.arange(m)
        n_el, n_loc = self.elements.shape
        G = self.grad_coeff
        # element e adds w_e G[e, a] . G[e, c] to entry (i, j) of the upper
        # triangle for each pair of its local nodes a <= c with both nodes
        # interior, i and j the lesser and the greater of their positions
        a, c = np.triu_indices(n_loc)
        Pa, Pc = pos[self.elements[:, a]], pos[self.elements[:, c]]
        keep = (Pa >= 0) & (Pc >= 0)
        elem = np.nonzero(keep)[0]
        coef = (G[:, a] * G[:, c]).sum(axis=2)[keep]
        j = np.maximum(Pa, Pc)[keep]
        d = j - np.minimum(Pa, Pc)[keep]
        # a coefficient that is exactly zero (a right angle's coupling) adds
        # nothing for any w: only the diagonals holding a nonzero are stored,
        # found by flags (np.union1d would load numpy.ma, about 1 MB)
        held = np.zeros(d.max(initial=0) + 1, dtype=bool)
        held[0] = True
        held[d[coef != 0]] = True
        diagonals = np.flatnonzero(held)[::-1]
        row = np.full(len(held), -1)
        row[diagonals] = np.arange(len(diagonals))
        keep = row[d] >= 0
        elem, at, coef = elem[keep], row[d[keep]] * m + j[keep], coef[keep]
        # an element adds at most one term to a band entry, and the
        # transpose product sums the terms of an entry in element order
        order = np.lexsort((at, elem))
        indptr = np.zeros(n_el + 1, dtype=np.int64)
        np.cumsum(np.bincount(elem, minlength=n_el), out=indptr[1:])
        S = CSR(coef[order], at[order], indptr, (n_el, len(diagonals) * m))
        return S, diagonals[:-1].tolist()

    @cached_property
    def band_layout(self) -> list[int]:
        """The super-diagonal offsets of the band that
        ``interior_stiffness`` writes, in decreasing order: those of
        ``interior_band``, except that a chain's band, read without
        building the scatter, always holds the first super-diagonal, also
        with one interior node, where it is that row's unused zero."""
        if self._chain is None:
            return self.interior_band[1]
        return [1]

    @cached_property
    def red_black(self) -> RedBlack:
        """The red-black split of the interior nodes (see ``RedBlack``):
        every stored coupling of ``interior_band`` joins a red node to a
        black one. The colour is the parity of a node's distance, in
        couplings, from the first node of its connected component, which
        is red. Built on first use; a stored coupling that joins two nodes
        of one colour (an odd cycle of couplings, such as a triangle whose
        three edges all couple) raises MeshError."""
        scatter, offsets = self.interior_band
        m, rows = len(self.interior_weights), len(offsets)
        # stored[r, j]: some element writes the coupling (j - offsets[r], j)
        stored = np.zeros((rows + 1) * m, dtype=bool)
        stored[scatter.indices] = True
        stored = stored[:rows * m].reshape(rows, m)
        # breadth first, one distance per pass, along the band's rows
        is_red, seen = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
        while not seen.all():
            front = np.zeros(m, dtype=bool)
            front[np.argmin(seen)] = True
            even = True                # the front's distance is even
            while front.any():
                seen |= front
                if even:
                    is_red |= front
                reached = np.zeros(m, dtype=bool)
                for couples, d in zip(stored, offsets):
                    reached[d:] |= front[:-d] & couples[d:]
                    reached[:-d] |= front[d:] & couples[d:]
                front = reached & ~seen
                even = not even
        r, j = np.nonzero(stored)
        p = r * m + j
        i = j - np.asarray(offsets, dtype=np.int64)[r]
        if np.any(is_red[i] == is_red[j]):
            raise MeshError("a stored coupling joins two interior nodes of "
                            "one colour: the mesh has no red-black split")
        red, black = np.flatnonzero(is_red), np.flatnonzero(~is_red)
        rank = np.empty(m, dtype=np.int64)
        rank[red], rank[black] = np.arange(len(red)), np.arange(len(black))
        # B = A[red][:, black] in CSR order: by red row, then black column
        row = rank[np.where(is_red[i], i, j)]
        col = rank[np.where(is_red[i], j, i)]
        order = np.lexsort((col, row))
        row, col, coupling = row[order], col[order], p[order]
        indptr = np.zeros(len(red) + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=len(red)), out=indptr[1:])
        # S couples the black columns of one red row: its bandwidth is the
        # widest such row
        full = np.diff(indptr) > 0
        bandwidth = int((col[indptr[1:][full] - 1]
                         - col[indptr[:-1][full]]).max(initial=0))
        for arr in (red, black, indptr, col, coupling):
            arr.setflags(write=False)
        return RedBlack(red, black, indptr, col, coupling, bandwidth)

    @cached_property
    def _chain(self) -> tuple[np.ndarray, ...] | None:
        """The slice coefficients of a chain mesh (see the class docstring),
        or None for any other mesh; built on first use, from the gradient
        table.

        ``(left, right)`` are the gradient coefficients of each element's
        two nodes. The band rows of the interior stiffness for element
        weights w are ``upper * w[1:-1]`` (the super-diagonal, from the
        second interior node on) and ``diag_left * w[:-1] + diag_right *
        w[1:]`` (the diagonal): each entry sums the same products in the
        same order as ``interior_band``'s scatter.
        """
        n_el = self.n_elements
        chain = (self.dim_coord == 1 and self.n_nodes == n_el + 1
                 and np.array_equal(self.elements[:, 0], np.arange(n_el))
                 and np.array_equal(self.elements[:, 1], np.arange(1, n_el + 1))
                 and np.array_equal(self.boundary_nodes, [0, n_el]))
        if not chain:
            return None
        left = np.ascontiguousarray(self.grad_coeff[:, 0, 0])
        right = np.ascontiguousarray(self.grad_coeff[:, 1, 0])
        return (left, right, (left * right)[1:-1], (right * right)[:-1],
                (left * left)[1:])

    @cached_property
    def interior(self) -> slice | np.ndarray:
        """The interior nodes in node order, for indexing: a slice where
        they are one contiguous range (every chain mesh), which numpy
        copies several times faster than it gathers an index array, and
        the index array otherwise."""
        interior = np.flatnonzero(self.interior_mask)
        if interior.size and np.array_equal(
                interior, np.arange(interior[0], interior[-1] + 1)):
            return slice(int(interior[0]), int(interior[-1]) + 1)
        return interior

    @cached_property
    def interior_weights(self) -> np.ndarray:
        """The quadrature weights of the interior nodes, in node order,
        read-only; built on first use."""
        qw = self.quad_weights[self.interior]
        qw.setflags(write=False)
        return qw

    @cached_property
    def interior_weight_max(self) -> float:
        """The largest interior quadrature weight (0 without any)."""
        return float(self.interior_weights.max(initial=0.0))

    # -- operations --------------------------------------------------------

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """Piecewise-constant gradient per element, shape (n_el, dim_coord),
        or (k, n_el, dim_coord) for a stack of k nodal vectors (k, n_nodes).

        First-order consistent: exact on affine fields. Each row of a stack
        gets the gradient of that row alone, bit for bit.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2) or values.shape[-1] != self.n_nodes:
            raise MeshError(
                f"field has {values.shape} values, mesh has {self.n_nodes} nodes")
        chain = self._chain
        if chain is not None:
            g = chain[0] * values[..., :-1]
            g += chain[1] * values[..., 1:]
            return g[..., None]
        # a stack's rows are the columns of one sparse product
        return np.ascontiguousarray(self._grad.product(values.T).T).reshape(
            values.shape[:-1] + (self.n_elements, self.dim_coord))

    def interior_stiffness(self, w: np.ndarray) -> np.ndarray:
        """The stiffness among the interior nodes for element weights ``w``
        (n_el,) in the compact band storage described in ``interior_band``,
        with the ``band_layout`` offsets: shape (len(offsets) + 1, m). For
        a stack of weights (k, n_el) it is (len(offsets) + 1, k, m): band
        row r of every member, then the next, so that each band row
        flattens to that of one block-diagonal matrix whose blocks couple
        only through exact zeros (the first d entries of the row of offset
        d). Each member gets the band of its weights alone, bit for bit.
        The band is a new array, which the caller may write."""
        chain = self._chain
        if chain is not None:
            _, _, upper, diag_left, diag_right = chain
            band = np.empty((2,) + w.shape[:-1] + (w.shape[-1] - 1,))
            band[0, ..., 0] = 0.0
            np.multiply(upper, w[..., 1:-1], band[0, ..., 1:])
            np.multiply(diag_left, w[..., :-1], band[1])
            band[1] += diag_right * w[..., 1:]
            return band
        S, offsets = self.interior_band
        rows, m = len(offsets) + 1, len(self.interior_weights)
        if w.ndim == 1:
            return S.transpose_product(w).reshape(rows, m)
        # a stack's members are the columns of one sparse product
        return np.ascontiguousarray(S.transpose_product(w.T)
                                    .reshape(rows, m, -1).transpose(0, 2, 1))

    def gradient_adjoint(self, z: np.ndarray) -> np.ndarray:
        """The nodal vector G with G . w = sum_e v_e z_e . grad(w)_e for
        every nodal w, for an element-wise vector field z (n_el, dim_coord)
        and the element volumes v. A chain mesh adds each element's two
        terms to its two nodes by slices: a node sums at most two terms,
        so G is the gradient's transpose product's bit for bit."""
        chain = self._chain
        if chain is not None:
            left, right = chain[:2]
            vz = self.element_volumes * z[:, 0]
            G = np.zeros(self.n_nodes)
            G[1:] += right * vz
            G[:-1] += left * vz
            return G
        return self._grad.transpose_product(
            (self.element_volumes[:, None] * z).ravel())

    def integrate(self, samples: np.ndarray) -> float:
        """Quadrature of nodal samples over the domain. Element samples are
        integrated as ``element_volumes @ samples``: a mesh can have as many
        elements as nodes, so their shape cannot tell them apart."""
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (self.n_nodes,):
            raise MeshError(f"samples sized {samples.shape}; expected "
                            f"({self.n_nodes},) nodal")
        return float(self.quad_weights @ samples)

    def boundary_integrate(self, boundary_samples: np.ndarray) -> float:
        """Integral against the discrete boundary measure."""
        boundary_samples = np.asarray(boundary_samples, dtype=float)
        if boundary_samples.shape != (len(self.boundary_nodes),):
            raise MeshError(
                f"boundary samples sized {boundary_samples.shape}; expected "
                f"({len(self.boundary_nodes)},)")
        return float(self.boundary_weights @ boundary_samples)

    def validate(self) -> None:
        """Check constructor invariants; raises MeshError on violation."""
        rtol = 1e-12   # of the measure, for the two sums
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


@dataclass(frozen=True)
class RedBlack:
    """A red-black (checkerboard) split of a mesh's interior nodes, for a
    stiffness whose every coupling joins a red node to a black one (the
    5-point stencil of a right-triangle ``Rectangle``). In red-black order
    the interior matrix A is [[D_r, B], [B^T, D_b]] with D_r and D_b
    diagonal, so the red unknowns eliminate exactly, and the black ones
    solve the Schur complement S = D_b - B^T D_r^-1 B, which has half the
    unknowns and about the bandwidth of A (Saad, Iterative Methods for
    Sparse Linear Systems, 2003).

    ``red`` and ``black`` are the interior positions (in ``interior_band``'s
    order) of each colour, in increasing order. B's pattern is CSR:
    ``indptr`` over the red rows and ``indices`` the black columns, and
    ``coupling`` holds, per entry, its position in the flattened compact
    band, ``band.take(coupling)`` being B's entries. ``bandwidth`` is S's,
    in black order. Every array is read-only."""

    red: np.ndarray
    black: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    coupling: np.ndarray
    bandwidth: int


def _domain_header(domain: Domain) -> str:
    if isinstance(domain, Interval):
        return f"kind=interval length={domain.length:.17g}"
    if isinstance(domain, Annulus):
        return f"kind=annulus a={domain.a:.17g} b={domain.b:.17g} dim={domain.dim}"
    return f"kind=rectangle lx={domain.lx:.17g} ly={domain.ly:.17g}"


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product over the last axis of ``a`` and ``b``, one per row of
    a stack: for vectors it is ``a.dot(b)``, which is ``a @ b`` bit for
    bit (one BLAS ddot) at a lower fixed cost, and each row of a stack
    gets the same bits as that row alone. (A matrix-vector ``@`` does
    not: BLAS gemv sums in another order than the dot product.)"""
    if a.ndim == b.ndim == 1:
        return a.dot(b)
    # contiguous rows: BLAS sums a strided vector in another order
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


# ---------------------------------------------------------------------------
# Field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Field:
    """Nodal real values of u on a mesh at one time instant, or a stack of
    k such fields: ``values`` of shape (k, n_nodes), one field per row.
    Every method and kept array of a stack works row by row and gives each
    row what that row alone would get, bit for bit.

    Immutable: ``values`` is read-only and owned by the field, so the
    element-wise gradient, its squared magnitude and its magnitude are
    computed together at most once and kept (``gradients``, read as
    ``grad``, ``grad_sq`` and ``grad_mag``), and so are the sup norm, the
    reaction f(u) and the lagged coefficient (``sup``, ``reaction``,
    ``coefficient``). Each field computes them for itself: one built from
    another's rows (``rows``, or a stack ``solver._gather`` joins) keeps
    none of that field's. A field built from a caller's array copies it;
    ``step`` and ``_gather`` hand over arrays they made for the field
    instead (``Field._adopt``).
    """

    mesh: Mesh
    values: np.ndarray = dc_field(repr=False)

    # the kept values' defaults, until the field's dictionary holds its own:
    # a read is then one attribute lookup
    _sup = _boundary_max = _reaction = _coefficient = _gradients = None

    def __post_init__(self):
        # C order: a stack's rows are then contiguous, and BLAS sums a
        # strided row in another order than a contiguous one
        values = np.array(self.values, dtype=float, order="C")
        if values.ndim not in (1, 2) or values.shape[-1] != self.mesh.n_nodes:
            raise MeshError(
                f"field has {values.shape} values, mesh has "
                f"{self.mesh.n_nodes} nodes")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def grad(self) -> np.ndarray:
        """Piecewise-constant gradient per element, shape (n_el, dim_coord)
        ((k, n_el, dim_coord) for a stack)."""
        return self.gradients()[0]

    @property
    def grad_sq(self) -> np.ndarray:
        """Element-wise |grad u|^2, shape (n_el,) ((k, n_el) for a stack):
        the squares of the components summed in component order, which is
        ``(grad ** 2).sum(axis=-1)`` bit for bit."""
        return self.gradients()[1]

    @property
    def grad_mag(self) -> np.ndarray:
        """Element-wise gradient magnitude |grad u|, shape (n_el,) ((k, n_el)
        for a stack)."""
        return self.gradients()[2]

    def gradients(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(``grad``, ``grad_sq``, ``grad_mag``), read-only: computed
        together, from one ``Mesh.gradient``, on the first call, and
        kept."""
        kept = self._gradients
        if kept is None:
            g = self.mesh.gradient(self.values)
            gk = g[..., 0]
            sq = gk * gk
            for k in range(1, g.shape[-1]):
                gk = g[..., k]
                sq += gk * gk
            kept = g, sq, np.sqrt(sq)
            for a in kept:
                a.setflags(write=False)
            vars(self)["_gradients"] = kept
        return kept

    def rows(self, index) -> "Field":
        """The rows of this stack that ``index`` selects, copied, as a new
        field that keeps nothing computed for this one: a plain field for
        a row number, a stack for a slice or a sequence of row numbers."""
        return Field(self.mesh, self.values[index])

    @classmethod
    def _adopt(cls, mesh: Mesh, values: np.ndarray,
               dirichlet: bool = False) -> "Field":
        """The field of ``values`` without a copy: a float array in C order,
        shaped as a field's or a stack's, that its caller allocated for the
        field and no longer writes. It becomes read-only. ``dirichlet``
        says that the caller wrote zeros on every boundary node, so that
        ``is_dirichlet`` need not look."""
        field = object.__new__(cls)
        values.setflags(write=False)
        vars(field).update(mesh=mesh, values=values,
                           _boundary_max=0.0 if dirichlet else None)
        return field

    def reaction(self, nl) -> np.ndarray:
        """f(u) of the reaction ``nl`` (a ``model.Nonlinearity``), read-only:
        evaluated once and kept, for the last reaction asked for, as
        ``(nl, f)`` in ``_reaction``, where ``model.snapshot`` keeps the
        f(u) that it evaluates with F(u)."""
        kept = self._reaction
        if kept is None or kept[0] is not nl:
            f = np.asarray(nl.f(self.values), dtype=float)
            f.setflags(write=False)
            kept = vars(self)["_reaction"] = (nl, f)
        return kept[1]

    def coefficient(self, terms) -> np.ndarray:
        """The lagged coefficient ``terms.coefficient`` of ``grad_sq``, for
        the constants ``terms`` (a ``model.Terms``), read-only: evaluated
        once and kept, for the last ``key`` asked for, since equal keys
        give every row the same bits. A snapshot evaluates its state's,
        which the steps from the state then read."""
        kept = self._coefficient
        if kept is None or kept[0] != terms.key:
            c = terms.coefficient(self.gradients()[1])
            c.setflags(write=False)
            kept = vars(self)["_coefficient"] = (terms.key, c)
        return kept[1]

    @classmethod
    def zeros(cls, mesh: Mesh) -> "Field":
        return cls(mesh, np.zeros(mesh.n_nodes))

    @classmethod
    def from_function(cls, mesh: Mesh, fn) -> "Field":
        return cls(mesh, np.array([fn(*xy) for xy in mesh.nodes], dtype=float))

    def constrained(self) -> "Field":
        """Copy with zero values on every boundary node."""
        return Field(self.mesh,
                     np.where(self.mesh.interior_mask, self.values, 0.0))

    def is_dirichlet(self) -> bool:
        """Whether every boundary value (of every row of a stack) is 0; a
        NaN makes the largest magnitude NaN, which fails the comparison.
        The largest magnitude is computed once and kept."""
        largest = self._boundary_max
        if largest is None:
            largest = float(np.abs(self.values[..., self.mesh.boundary_nodes])
                            .max())
            vars(self)["_boundary_max"] = largest
        return largest == 0.0

    def copy(self) -> "Field":
        """The same values without the cached gradient arrays."""
        return Field(self.mesh, self.values)

    def sup(self) -> float | np.ndarray:
        """max |u|; a read-only (k,) array for a stack. Computed once and
        kept."""
        sup = self._sup
        if sup is None:
            sup = np.maximum.reduce(np.abs(self.values), axis=-1)
            if sup.ndim == 0:
                sup = float(sup)
            else:
                sup.setflags(write=False)
            vars(self)["_sup"] = sup
        return sup

    def l2(self) -> float | np.ndarray:
        """The L2 norm under the nodal quadrature; a (k,) array for a
        stack."""
        l2 = np.sqrt(rowdot(self.values ** 2, self.mesh.quad_weights))
        return float(l2) if l2.ndim == 0 else l2


def load_field(path, mesh: Mesh) -> Field:
    """Read a field dumped by ``Mesh.dump`` with its value column. A line
    without exactly the node's coordinates, quadrature weight, boundary flag
    and value, a number that is not finite, or node coordinates that do not
    match the mesh raise MeshError."""
    columns = mesh.dim_coord + 3
    with open(path) as fh:
        rows = [[float(x) for x in parts] for parts in map(str.split, fh)
                if parts and not parts[0].startswith("#")]
    if any(len(row) != columns for row in rows):
        raise MeshError(f"a field file on this mesh has {columns} columns "
                        f"(coords qw bnd value) on every line")
    data = np.array(rows).reshape(-1, columns)
    if not np.isfinite(data).all():
        raise MeshError("field file holds a number that is not finite")
    coords = data[:, :mesh.dim_coord]
    if coords.shape != mesh.nodes.shape or not np.allclose(
            coords, mesh.nodes, rtol=1e-12, atol=1e-12):
        raise MeshError("field file does not match mesh node layout")
    return Field(mesh, data[:, -1])


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
