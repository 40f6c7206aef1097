"""Mesh construction, quadrature and gradient operators."""

import numpy as np
import pytest

import scipy.sparse as sp

from tvheat import (Annulus, Field, Interval, Mesh, MeshError, Power,
                    Rectangle, SolverConfig, Zero, build_mesh,
                    default_dictionary, estimate_dp, load_field, step)
from tvheat import solver
from tvheat.limit import flux_from_vectors
from tvheat.mesh import CSR


class TestDomains:
    def test_interval_measure(self):
        d = Interval(2.5)
        assert d.measure == 2.5

    def test_interval_rejects_nonpositive_length(self):
        with pytest.raises(MeshError):
            Interval(0.0)
        with pytest.raises(MeshError):
            Interval(-1.0)

    def test_annulus_measure_2d(self):
        d = Annulus(1.0, 2.0, dim=2)
        assert d.measure == pytest.approx(np.pi * (4.0 - 1.0))

    def test_annulus_measure_3d(self):
        d = Annulus(1.0, 2.0, dim=3)
        assert d.measure == pytest.approx(4.0 * np.pi / 3.0 * (8.0 - 1.0))

    def test_annulus_rejects_bad_radii(self):
        with pytest.raises(MeshError):
            Annulus(2.0, 1.0)
        with pytest.raises(MeshError):
            Annulus(0.0, 1.0)
        with pytest.raises(MeshError):
            Annulus(1.0, 2.0, dim=1)

    def test_rectangle_measure(self):
        assert Rectangle(2.0, 3.0).measure == pytest.approx(6.0)
        with pytest.raises(MeshError):
            Rectangle(0.0, 1.0)

    @pytest.mark.parametrize("domain, kw", [
        (Interval, {"length": np.inf}), (Interval, {"length": np.nan}),
        (Rectangle, {"lx": np.inf}), (Rectangle, {"lx": 1e200, "ly": 1e200}),
        (Annulus, {"a": 1.0, "b": np.inf}), (Annulus, {"a": 1.0, "b": 1e200}),
        (Annulus, {"a": 1.0, "b": 2.0, "dim": 1000}),
    ])
    def test_non_finite_size_or_measure_rejected(self, domain, kw):
        # each would give infinite quadrature weights; dim = 1000 used to
        # raise OverflowError from the sphere measure
        with pytest.raises(MeshError):
            domain(**kw)


class TestIntervalMesh:
    def test_quadrature_reproduces_measure(self):
        mesh = build_mesh(Interval(1.5), 37)
        assert mesh.quad_weights.sum() == pytest.approx(1.5, rel=1e-13)
        assert mesh.integrate(np.ones(mesh.n_nodes)) == pytest.approx(1.5)

    def test_integrate_takes_nodal_samples_only(self):
        # element samples are integrated against element_volumes; a mesh
        # with as many elements as nodes could not tell them apart by shape
        mesh = build_mesh(Interval(1.5), 37)
        with pytest.raises(MeshError, match="nodal"):
            mesh.integrate(np.ones(mesh.n_elements))
        square = build_mesh(Rectangle(1.0, 1.0), [2, 3])
        assert square.n_nodes == square.n_elements
        x = square.nodes[:, 0]
        assert square.integrate(x) == pytest.approx(0.5, rel=1e-14)

    def test_quadrature_linear_moment(self):
        mesh = build_mesh(Interval(1.0), 64)
        x = mesh.nodes[:, 0]
        assert mesh.integrate(x) == pytest.approx(0.5, rel=1e-12)

    def test_gradient_exact_on_affine(self):
        mesh = build_mesh(Interval(2.0), 25)
        vals = 3.0 * mesh.nodes[:, 0] - 1.0
        g = mesh.gradient(vals)
        assert np.allclose(g[:, 0], 3.0, atol=1e-12)

    def test_boundary_structure(self):
        mesh = build_mesh(Interval(1.0), 10)
        assert len(mesh.boundary_nodes) == 2
        assert np.allclose(mesh.boundary_normals, [[-1.0], [1.0]])
        assert mesh.boundary_integrate(np.ones(2)) == pytest.approx(2.0)

    def test_boundary_integrate_takes_boundary_samples_only(self):
        mesh = build_mesh(Interval(1.0), 10)
        with pytest.raises(MeshError, match="boundary samples"):
            mesh.boundary_integrate(np.ones(mesh.n_nodes))

    def test_validate(self):
        build_mesh(Interval(1.0), 50).validate()

    @pytest.mark.parametrize("name, edit, message", [
        ("quad_weights", lambda w: 2.0 * w, "do not sum"),
        # the sum is kept, and one weight becomes 0
        ("quad_weights", lambda w: np.r_[w[0], w[1] + w[2], 0.0, w[3:]],
         "non-positive"),
        ("boundary_normals", lambda n: 2.0 * n, "unit length"),
        ("element_volumes", lambda v: 2.0 * v, "do not partition"),
        ("elements", lambda e: np.repeat(e[:, :1], 2, axis=1),
         "repeated node"),
    ], ids=["weight_sum", "weight_sign", "normal", "volumes", "element"])
    def test_validate_names_each_violation(self, name, edit, message):
        mesh = build_mesh(Interval(1.0), 10)
        arrays = {a: getattr(mesh, a) for a in (
            "nodes", "elements", "element_volumes", "quad_weights",
            "boundary_nodes", "boundary_normals", "boundary_weights",
            "grad_coeff")}
        arrays[name] = edit(arrays[name])
        with pytest.raises(MeshError, match=message):
            Mesh(mesh.domain, **arrays).validate()

    def test_unknown_domain_rejected(self):
        with pytest.raises(MeshError, match="unknown domain"):
            build_mesh("disk", 10)

    def test_resolution_too_small(self):
        with pytest.raises(MeshError):
            build_mesh(Interval(1.0), 1)

    @pytest.mark.parametrize("domain, resolution", [
        (Interval(1.0), [4, 4]), (Rectangle(), [4, 4, 4]),
        (Interval(5e-324), 4), (Rectangle(1e-308, 1.0), 4),
    ])
    def test_unbuildable_mesh_rejected(self, domain, resolution):
        # a count per axis, and element sizes that invert to a finite number
        with pytest.raises(MeshError, match="resolution"):
            build_mesh(domain, resolution)


class TestAnnulusMesh:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_quadrature_reproduces_measure(self, dim):
        dom = Annulus(1.0, 2.0, dim=dim)
        mesh = build_mesh(dom, 80)
        assert mesh.quad_weights.sum() == pytest.approx(dom.measure,
                                                        rel=1e-12)

    def test_quadrature_exact_for_hats(self):
        # the weighted 1d rule integrates r^(N-1) times a hat exactly, so
        # int r dr over the annulus (a nodal linear function) is exact
        mesh = build_mesh(Annulus(1.0, 2.0, dim=2), 16)
        r = mesh.nodes[:, 0]
        exact = 2.0 * np.pi * (2.0 ** 3 - 1.0) / 3.0
        assert mesh.integrate(r) == pytest.approx(exact, rel=1e-12)

    def test_boundary_weights_are_sphere_areas(self):
        dom = Annulus(0.5, 3.0, dim=3)
        mesh = build_mesh(dom, 40)
        ones = np.ones(len(mesh.boundary_nodes))
        expected = 4.0 * np.pi * (0.5 ** 2 + 3.0 ** 2)
        assert mesh.boundary_integrate(ones) == pytest.approx(expected)

    def test_gradient_exact_on_affine(self):
        mesh = build_mesh(Annulus(1.0, 2.0, dim=2), 30)
        vals = -2.0 * mesh.nodes[:, 0] + 5.0
        assert np.allclose(mesh.gradient(vals)[:, 0], -2.0, atol=1e-12)

    def test_validate(self):
        build_mesh(Annulus(1.0, 2.0, dim=2), 25).validate()


class TestRectangleMesh:
    def test_quadrature_reproduces_measure(self):
        mesh = build_mesh(Rectangle(2.0, 1.0), [16, 8])
        assert mesh.quad_weights.sum() == pytest.approx(2.0, rel=1e-12)

    def test_gradient_exact_on_affine(self):
        mesh = build_mesh(Rectangle(1.0, 1.0), [9, 9])
        vals = 2.0 * mesh.nodes[:, 0] - 3.0 * mesh.nodes[:, 1] + 1.0
        g = mesh.gradient(vals)
        assert np.allclose(g[:, 0], 2.0, atol=1e-12)
        assert np.allclose(g[:, 1], -3.0, atol=1e-12)

    def test_boundary_perimeter(self):
        mesh = build_mesh(Rectangle(2.0, 1.0), [20, 10])
        ones = np.ones(len(mesh.boundary_nodes))
        assert mesh.boundary_integrate(ones) == pytest.approx(6.0, rel=1e-12)

    def test_validate(self):
        build_mesh(Rectangle(1.0, 1.0), [7, 7]).validate()

    def test_boundary_arrays_by_hand(self):
        # 3 x 2 cells of 2/3 x 1/2; node (i, j) is 3 i + j, and nodes 4 and
        # 7 are interior. Cell (i, j) holds triangles 2 (2 i + j) and the next.
        mesh = build_mesh(Rectangle(2.0, 1.0), [3, 2])
        r = 1.0 / np.sqrt(2.0)
        assert np.array_equal(mesh.boundary_nodes,
                              [0, 1, 2, 3, 5, 6, 8, 9, 10, 11])
        assert np.array_equal(mesh.boundary_normals, [
            [-r, -r], [-1, 0], [-r, r], [0, -1], [0, 1],
            [0, -1], [0, 1], [r, -r], [1, 0], [r, r]])
        corner = 1.0 / 3.0 + 1.0 / 4.0
        assert np.allclose(mesh.boundary_weights, [
            corner, 0.5, corner, 2 / 3, 2 / 3, 2 / 3, 2 / 3, corner, 0.5,
            corner], rtol=1e-15, atol=0)
        assert np.array_equal(mesh.boundary_elements,
                              [0, 1, 3, 0, 2, 4, 6, 8, 8, 10])
        for node, e in zip(mesh.boundary_nodes, mesh.boundary_elements):
            assert node in mesh.elements[e] and node not in mesh.elements[:e]


def scipy_csr(op):
    """The scipy.sparse matrix of a ``CSR`` operator, built from its
    arrays: the reference for its products."""
    return sp.csr_matrix((op.data, op.indices, op.indptr), shape=op.shape)


class TestCSR:
    @pytest.fixture
    def op(self):
        # rows of 0 to 4 entries in unsorted columns, one column repeated
        rng = np.random.default_rng(3)
        counts = [3, 0, 4, 1, 2, 3]
        indices = np.concatenate([rng.permutation(7)[:c] for c in counts])
        indices[-1] = indices[-2]
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return CSR(rng.normal(size=len(indices)), indices, indptr, (6, 7))

    def test_products_are_scipys(self, op):
        # scipy's A @ x and A.T @ x, for vectors and for stacked columns,
        # bit for bit; each column of a stack gets its product alone
        ref = scipy_csr(op)
        rng = np.random.default_rng(5)
        for product, A, n in ((op.product, ref, 7),
                              (op.transpose_product, ref.T, 6)):
            x = rng.normal(size=n)
            assert product(x).tobytes() == (A @ x).tobytes()
            X = rng.normal(size=(4, n)).T           # F order, as a stack's
            Y = product(X)
            assert Y.tobytes() == (A @ X).tobytes()
            for k in range(4):
                assert Y[:, k].tobytes() == product(X[:, k]).tobytes()

    def test_arrays_are_read_only_with_scipys_index_type(self, op):
        ref = scipy_csr(op)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(op, name), getattr(ref, name)
            assert not a.flags.writeable
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert op.indices.dtype == np.int32

    @pytest.mark.parametrize("shape", [(6,), (7, 2), (6, 2, 1), ()])
    def test_operand_shape_is_checked(self, op, shape):
        # the kernels read the operand unchecked: a shape the product does
        # not take fails by name before any kernel runs
        x = np.ones(shape)
        with pytest.raises(MeshError, match="operand of shape"):
            (op.product if shape[:1] != (7,) else op.transpose_product)(x)


def dense(band, offsets):
    """The symmetric matrix held in the compact band ``band``."""
    A = np.diag(band[-1])
    for row, d in zip(band, offsets):
        i = np.arange(len(row) - d)
        A[i, i + d] = A[i + d, i] = row[d:]
    return A


class TestInteriorBand:
    @pytest.mark.parametrize("domain, resolution, stored", [
        (Interval(1.0), 30, [1]),
        (Annulus(1.0, 2.0, dim=3), 30, [1]),
        (Rectangle(1.0, 1.0), [9, 9], [8, 1]),
        (Rectangle(2.0, 1.0), [16, 8], [7, 1]),
        (Rectangle(1.0, 2.0), [8, 16], [15, 1]),
    ], ids=["interval", "annulus3d", "rect9x9", "rect16x8", "rect8x16"])
    def test_band_is_the_interior_stiffness(self, domain, resolution,
                                            stored):
        mesh = build_mesh(domain, resolution)
        S, offsets = mesh.interior_band
        assert offsets == stored
        interior = np.flatnonzero(mesh.interior_mask)
        w = np.random.default_rng(7).uniform(0.1, 10.0, mesh.n_elements)
        grads = np.stack([mesh.gradient(e) for e in np.eye(mesh.n_nodes)],
                         axis=-1)
        K = sum(D.T @ (w[:, None] * D) for D in np.moveaxis(grads, 1, 0))
        K = K[np.ix_(interior, interior)]
        m = len(interior)
        # every element's terms in distinct band entries, sorted by
        # position: each entry sums its terms in element order
        assert scipy_csr(S).has_canonical_format
        ref = scipy_csr(S).T @ w
        assert S.transpose_product(w).tobytes() == ref.tobytes()
        band = ref.reshape(len(offsets) + 1, m)
        # the mesh's offsets are exactly the diagonals that hold a nonzero,
        # in decreasing order, and the first d entries of offset d's row
        # are zero
        for row, d in zip(band, offsets):
            assert row[d:].any() and not row[:d].any()
        A = dense(band, offsets)
        assert np.abs(A - K).max() <= 1e-13 * np.abs(K).max()
        # the diagonals that the compact band leaves out are exactly zero
        for d in set(range(1, m)) - set(offsets):
            assert np.all(np.diagonal(K, d) == 0.0)

    def test_pattern_is_built_on_first_use(self):
        mesh = build_mesh(Rectangle(1.0, 1.0), [9, 9])
        assert "interior_band" not in vars(mesh)
        assert mesh.interior_band is mesh.interior_band

    @pytest.mark.parametrize("domain, resolution", [
        (Rectangle(1.0, 1.0), [9, 9]), (Rectangle(2.0, 1.0), [16, 8]),
        (Rectangle(1.0, 2.0), [8, 16]), (Rectangle(1.0, 1.0), [6, 2])],
        ids=["rect9x9", "rect16x8", "rect8x16", "rect6x2"])
    def test_red_black_split_colours_every_coupling(self, domain,
                                                    resolution):
        # the colours partition the interior and every stored coupling
        # joins a red node to a black one, so that A's red and black
        # blocks are diagonal; B's CSR entries are the couplings read from
        # the band at the split's positions
        mesh = build_mesh(domain, resolution)
        scatter, offsets = mesh.interior_band
        split = mesh.red_black
        m = len(mesh.interior_weights)
        red, black = split.red, split.black
        assert np.array_equal(np.sort(np.concatenate([red, black])),
                              np.arange(m))
        assert np.all(np.diff(red) > 0) and np.all(np.diff(black) > 0)
        is_red = np.zeros(m, dtype=bool)
        is_red[red] = True
        stored = np.zeros((len(offsets) + 1) * m, dtype=bool)
        stored[scatter.indices] = True
        stored = stored.reshape(len(offsets) + 1, m)
        assert stored[:-1].any()
        for row, d in zip(stored, offsets):
            j = np.flatnonzero(row)          # the couplings (j - d, j)
            assert np.all(is_red[j - d] != is_red[j])
        w = np.random.default_rng(7).uniform(0.1, 10.0, mesh.n_elements)
        band = mesh.interior_stiffness(w)
        A = dense(band, offsets)
        for part in (red, black):
            block = A[np.ix_(part, part)]
            assert np.array_equal(block, np.diag(np.diagonal(block)))
        B = sp.csr_matrix((band.take(split.coupling), split.indices,
                           split.indptr), shape=(len(red), len(black)))
        assert np.array_equal(B.toarray(), A[np.ix_(red, black)])
        for arr in (red, black, split.indptr, split.indices,
                    split.coupling):
            assert not arr.flags.writeable

    def test_red_black_split_is_built_on_first_use(self):
        # neither build_mesh nor estimate_dp builds the split, nor does a
        # 1-D step; a 2-D step builds it once
        mesh = build_mesh(Rectangle(1.0, 1.0), [9, 9])
        estimate_dp(mesh, 1.5, Power(3.0), default_dictionary(mesh, 8))
        assert "red_black" not in vars(mesh)
        u = Field(mesh, np.sin(np.pi * mesh.nodes).prod(axis=1))
        step(u.constrained(), 0.0, SolverConfig(p=1.5), Zero(), 1e-3)
        assert "red_black" in vars(mesh)
        assert mesh.red_black is mesh.red_black
        chain = build_mesh(Interval(1.0), 30)
        u = Field(chain, np.sin(np.pi * chain.nodes[:, 0]))
        step(u.constrained(), 0.0, SolverConfig(p=1.5), Zero(), 1e-3)
        assert "red_black" not in vars(chain)

    def test_same_colour_coupling_fails_by_name(self):
        # a sheared square's triangles have no right angle, so their third
        # couplings (the hypotenuses) are stored too: each triangle is an
        # odd cycle, and no red-black split exists
        mesh = build_mesh(Rectangle(1.0, 1.0), 6)
        J = np.array([[1.0, 0.3], [0.0, 1.0]])       # x' = J x, det 1
        sheared = Mesh(mesh.domain, mesh.nodes @ J.T, mesh.elements,
                       mesh.element_volumes, mesh.quad_weights,
                       mesh.boundary_nodes, mesh.boundary_normals,
                       mesh.boundary_weights,
                       mesh.grad_coeff @ np.linalg.inv(J))
        assert len(sheared.interior_band[1]) == 3
        with pytest.raises(MeshError, match="one colour"):
            sheared.red_black

    @pytest.mark.parametrize("domain, resolution", [
        (Interval(1.0), 30), (Annulus(1.0, 2.0, dim=3), 30),
        (Rectangle(1.0, 1.0), [9, 9]), (Rectangle(1.0, 1.0), [6, 2])],
        ids=["interval", "annulus3d", "rect9x9", "rect6x2"])
    def test_stiffness_is_the_scatter(self, domain, resolution):
        # a chain's band from slices of the gradient table is the scatter's
        # band bit for bit; a stack's members are each their own band
        mesh = build_mesh(domain, resolution)
        S, offsets = mesh.interior_band
        interior = np.flatnonzero(mesh.interior_mask)
        chain = isinstance(domain, (Interval, Annulus))
        assert (mesh._chain is not None) == chain
        w = np.random.default_rng(7).uniform(0.1, 10.0, (3, mesh.n_elements))
        bands = mesh.interior_stiffness(w)
        assert bands.shape == (len(offsets) + 1, 3, len(interior))
        for i in range(3):
            ref = (scipy_csr(S).T @ w[i]).reshape(len(offsets) + 1,
                                                   len(interior))
            assert mesh.interior_stiffness(w[i]).tobytes() == ref.tobytes()
            assert np.ascontiguousarray(bands[:, i]).tobytes() == \
                ref.tobytes()
        # where the interior nodes are one range they index as a slice
        assert np.array_equal(np.arange(mesh.n_nodes)[mesh.interior],
                              interior)
        assert isinstance(mesh.interior, slice) == chain

    @pytest.mark.parametrize("domain, resolution", [
        (Interval(1.0), 400), (Annulus(1.0, 2.0, dim=3), 800),
        (Interval(1.0), 2)],
        ids=["interval", "annulus3d", "interval2"])
    def test_chain_adjoint_is_the_sparse_transpose(self, domain, resolution):
        # the chain's slices give the divergence of the sparse transpose
        # product bit for bit
        mesh = build_mesh(domain, resolution)
        rng = np.random.default_rng(11)
        for _ in range(3):
            z = rng.normal(size=(mesh.n_elements, 1))
            ref = scipy_csr(mesh._grad).T @ (
                mesh.element_volumes[:, None] * z).ravel()
            G = mesh.gradient_adjoint(z)
            assert G.shape == ref.shape and G.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("domain, resolution", [
        (Interval(1.0), 30), (Annulus(1.0, 2.0, dim=3), 17),
        (Interval(1.0), 2), (Interval(1.0), 3),
        (Rectangle(1.0, 1.0), [9, 9]), (Rectangle(1.0, 1.0), [6, 2])],
        ids=["interval", "annulus3d", "interval2", "interval3", "rect9x9",
             "rect6x2"])
    def test_band_layout_is_the_scatters(self, domain, resolution):
        # a chain reads the offsets without the scatter, and they are the
        # scatter's down to two interior nodes; with one, the chain's band
        # keeps the first super-diagonal, its unused zero, which the
        # scatter leaves out
        mesh = build_mesh(domain, resolution)
        offsets = mesh.band_layout
        assert ("interior_band" in vars(mesh)) == (mesh._chain is None)
        _, offsets_ref = mesh.interior_band
        if mesh.interior_weights.size == 1:
            assert (offsets, offsets_ref) == ([1], [])
        else:
            assert offsets == offsets_ref
        w = np.ones((2, mesh.n_elements))
        assert mesh.interior_stiffness(w[0]).shape[0] == len(offsets) + 1
        assert mesh.interior_stiffness(w).shape[0] == len(offsets) + 1

    def test_chain_is_built_on_first_use(self):
        mesh = build_mesh(Interval(1.0), 30)
        assert "_chain" not in vars(mesh)
        mesh.gradient(np.zeros(mesh.n_nodes))
        assert "_chain" in vars(mesh)


class TestDerivedOnFirstUse:
    @pytest.mark.parametrize("domain, resolution", [
        (Interval(1.0), 30), (Annulus(1.0, 2.0, dim=3), 17),
        (Rectangle(2.0, 1.0), [7, 5])])
    def test_operators_are_built_on_first_use(self, domain, resolution):
        # build_mesh builds neither; each is read-only and equals the
        # construction the mesh once made eagerly, byte for byte
        mesh = build_mesh(domain, resolution)
        assert "_grad" not in vars(mesh)
        assert "boundary_elements" not in vars(mesh)
        n_el, n_loc, dim = mesh.grad_coeff.shape
        _, first = np.unique(mesh.elements, return_index=True)
        eager_elements = first[mesh.boundary_nodes] // n_loc
        eager_grad = sp.csr_matrix(
            (mesh.grad_coeff.transpose(0, 2, 1).ravel(),
             np.repeat(mesh.elements, dim, axis=0).ravel(),
             np.arange(0, n_el * dim * n_loc + 1, n_loc)),
            shape=(n_el * dim, mesh.n_nodes))
        elements = mesh.boundary_elements
        assert elements is mesh.boundary_elements
        assert not elements.flags.writeable
        assert elements.dtype == eager_elements.dtype
        assert elements.tobytes() == eager_elements.tobytes()
        grad = mesh._grad
        assert grad is mesh._grad and grad.shape == eager_grad.shape
        for name in ("data", "indices", "indptr"):
            a, b = getattr(grad, name), getattr(eager_grad, name)
            assert not a.flags.writeable
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_flux_trace_builds_them(self):
        # the rectangle's gradient reads _grad; a flux's trace reads
        # boundary_elements, and on a chain mesh its divergence reads the
        # chain's slices, not _grad
        mesh = build_mesh(Rectangle(1.0, 1.0), 6)
        mesh.gradient(np.zeros(mesh.n_nodes))
        assert "_grad" in vars(mesh)
        assert "boundary_elements" not in vars(mesh)
        flux_from_vectors(mesh, np.ones((mesh.n_elements, 2)))
        assert "boundary_elements" in vars(mesh)
        chain = build_mesh(Interval(1.0), 10)
        chain.gradient(np.zeros(chain.n_nodes))
        assert "_grad" not in vars(chain)
        flux_from_vectors(chain, np.ones(chain.n_elements))
        assert "boundary_elements" in vars(chain)
        assert "_grad" not in vars(chain)


class TestField:
    def test_constrained_zeroes_boundary(self):
        mesh = build_mesh(Interval(1.0), 20)
        f = Field(mesh, np.ones(mesh.n_nodes)).constrained()
        assert f.is_dirichlet()
        assert np.all(f.values[mesh.boundary_nodes] == 0.0)
        assert np.all(f.values[mesh.interior_mask] == 1.0)

    def test_from_function(self):
        mesh = build_mesh(Interval(1.0), 30)
        f = Field.from_function(mesh, lambda x: x ** 2)
        assert np.allclose(f.values, mesh.nodes[:, 0] ** 2)

    def test_shape_mismatch_rejected(self):
        mesh = build_mesh(Interval(1.0), 10)
        with pytest.raises(MeshError):
            Field(mesh, np.zeros(3))

    def test_norms(self):
        mesh = build_mesh(Interval(1.0), 100)
        f = Field(mesh, np.full(mesh.n_nodes, 2.0))
        assert f.sup() == 2.0
        assert f.l2() == pytest.approx(2.0, rel=1e-12)

    def test_values_are_owned_and_read_only(self):
        mesh = build_mesh(Interval(1.0), 10)
        vals = np.ones(mesh.n_nodes)
        f = Field(mesh, vals)
        vals[0] = 5.0
        assert f.values[0] == 1.0
        with pytest.raises(ValueError):
            f.values[0] = 2.0
        with pytest.raises(AttributeError):
            f.values = np.zeros(mesh.n_nodes)

    def test_adopted_values_are_not_copied(self):
        # the constructor copies a caller's array; _adopt takes over an array
        # made for the field; either way the values are read-only, and a
        # stack's row is a copy that does not share the stack's memory
        mesh = build_mesh(Interval(1.0), 10)
        vals = np.ones((2, mesh.n_nodes))
        f = Field(mesh, vals)
        assert not np.shares_memory(f.values, vals)
        vals[0, 0] = 5.0
        assert f.values[0, 0] == 1.0
        g = Field._adopt(mesh, vals)
        assert g.values is vals and not vals.flags.writeable
        row = g.rows(1)
        assert not np.shares_memory(row.values, g.values)
        assert not row.values.flags.writeable

    def test_gradient_is_kept(self):
        mesh = build_mesh(Interval(1.0), 10)
        f = Field.from_function(mesh, lambda x: x ** 2)
        g = f.grad
        assert f.grad is g
        assert not g.flags.writeable
        assert np.array_equal(g, mesh.gradient(f.values))

    def test_gradient_magnitude_is_kept(self):
        mesh = build_mesh(Rectangle(1.0, 1.0), [4, 3])
        f = Field.from_function(mesh, lambda x, y: x * y - y ** 2)
        mag = f.grad_mag
        assert f.grad_mag is mag
        assert not mag.flags.writeable
        assert np.array_equal(mag, np.sqrt((f.grad ** 2).sum(axis=1)))

    @pytest.mark.parametrize("domain, resolution", [
        (Interval(1.0), 30), (Annulus(1.0, 2.0, dim=3), 30),
        (Rectangle(2.0, 1.0), [9, 7])], ids=["interval", "annulus", "rect"])
    def test_squared_gradient_is_kept(self, domain, resolution):
        # the component-wise sum is the reduction over the components, bit
        # for bit, and the magnitude is its square root
        mesh = build_mesh(domain, resolution)
        f = Field(mesh, np.random.default_rng(6).normal(size=mesh.n_nodes))
        sq = f.grad_sq
        assert f.grad_sq is sq
        assert not sq.flags.writeable
        assert np.array_equal(sq, (f.grad ** 2).sum(axis=1))
        assert np.array_equal(f.grad_mag, np.sqrt(sq))

    def test_copy_drops_every_cached_array(self):
        mesh = build_mesh(Interval(1.0), 10)
        f = Field.from_function(mesh, lambda x: x ** 2)
        f.grad_mag
        assert {"grad", "grad_sq", "grad_mag"} <= set(vars(f))
        c = f.copy()
        assert np.array_equal(c.values, f.values)
        assert not {"grad", "grad_sq", "grad_mag"} & set(vars(c))

    def test_dirichlet_check(self):
        mesh = build_mesh(Rectangle(1.0, 1.0), [4, 3])
        f = Field(mesh, np.ones(mesh.n_nodes)).constrained()
        assert f.is_dirichlet()
        last = mesh.boundary_nodes[-1]
        # any nonzero boundary value, however small, and NaN
        for value in (1e-300, -1e-300, 1e-9, np.nan):
            g = Field(mesh, np.where(np.arange(mesh.n_nodes) == last, value,
                                     f.values))
            assert not g.is_dirichlet()
        # a stack is Dirichlet when every row is
        assert Field(mesh, [f.values, f.values]).is_dirichlet()
        assert not Field(mesh, [f.values, g.values]).is_dirichlet()

    def test_gradient_rejects_wrong_size(self):
        mesh = build_mesh(Interval(1.0), 10)
        with pytest.raises(MeshError):
            mesh.gradient(np.zeros(4))
        with pytest.raises(MeshError):
            mesh.gradient(np.zeros((2, 2, mesh.n_nodes)))

    @pytest.mark.parametrize("domain, resolution", [
        (Interval(1.0), 30), (Annulus(1.0, 2.0, dim=3), 30),
        (Rectangle(2.0, 1.0), [9, 7])], ids=["interval", "annulus", "rect"])
    def test_stack_is_row_by_row(self, domain, resolution):
        # a stack's gradient arrays and norms are its rows', bit for bit,
        # and so are those of the fields that rows and the march's
        # _gather build from it
        mesh = build_mesh(domain, resolution)
        rng = np.random.default_rng(9)
        stack = Field(mesh, rng.normal(size=(3, mesh.n_nodes)))
        rows = [Field(mesh, v) for v in stack.values]
        for name in ("grad", "grad_sq", "grad_mag"):
            assert getattr(stack, name).tobytes() == np.stack(
                [getattr(f, name) for f in rows]).tobytes()
        assert stack.sup().tolist() == [f.sup() for f in rows]
        assert stack.l2().tolist() == [f.l2() for f in rows]
        if isinstance(domain, (Interval, Annulus)):
            # the chain's slices give the scatter's gradient
            sparse = (scipy_csr(mesh._grad) @ stack.values[0]).reshape(-1, 1)
            assert rows[0].grad.tobytes() == sparse.tobytes()
        part = stack.rows([2, 0])
        assert part.grad_mag.tobytes() == np.stack(
            [rows[2].grad_mag, rows[0].grad_mag]).tobytes()
        one = stack.rows(1)
        assert one.values.shape == (mesh.n_nodes,)
        assert one.grad_sq.tobytes() == rows[1].grad_sq.tobytes()
        both = solver._gather([(stack, 0), (rows[1], None)])
        assert both.values.tobytes() == stack.values[:2].tobytes()
        assert both.grad_mag.tobytes() == stack.grad_mag[:2].tobytes()
        assert both.values.flags.c_contiguous
        # a broadcast stack is stored row by row too
        wide = Field(mesh, np.broadcast_to(rows[0].values,
                                           (3, mesh.n_nodes)))
        assert wide.values.flags.c_contiguous


class TestDumpLoad:
    def test_roundtrip(self, tmp_path):
        mesh = build_mesh(Interval(1.0), 15)
        vals = np.sin(np.pi * mesh.nodes[:, 0])
        path = tmp_path / "state.txt"
        mesh.dump(path, vals)
        f = load_field(path, mesh)
        assert np.allclose(f.values, vals, atol=1e-14)

    def test_wrong_mesh_rejected(self, tmp_path):
        mesh = build_mesh(Interval(1.0), 15)
        other = build_mesh(Interval(1.0), 16)
        path = tmp_path / "state.txt"
        mesh.dump(path, np.zeros(mesh.n_nodes))
        with pytest.raises(MeshError):
            load_field(path, other)

    @pytest.mark.parametrize("domain, resolution", [
        (Interval(1.0), 15), (Rectangle(1.0, 1.0), 4)])
    def test_dump_without_values_rejected(self, tmp_path, domain,
                                          resolution):
        # its last column is the boundary flag: it used to load as u, a
        # 1-D dump as [1, 0, ..., 0, 1]
        mesh = build_mesh(domain, resolution)
        path = tmp_path / "mesh.txt"
        mesh.dump(path)
        with pytest.raises(MeshError, match="columns"):
            load_field(path, mesh)

    @pytest.mark.parametrize("edit", ["drop", "extra", "nan", "inf"])
    def test_bad_line_rejected(self, tmp_path, edit):
        mesh = build_mesh(Interval(1.0), 6)
        path = tmp_path / "state.txt"
        mesh.dump(path, np.linspace(0.0, 1.0, mesh.n_nodes))
        lines = path.read_text().splitlines()
        parts = lines[5].split()
        if edit == "drop":
            parts = parts[:-1]
        elif edit == "extra":
            parts.append("0.5")
        else:
            parts[-1] = edit
        lines[5] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError):
            load_field(path, mesh)
