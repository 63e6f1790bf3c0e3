"""Solver correctness, weighted energies, regularity ratios, exponent splits."""

import gc
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import spsolve

from funcdiss import (
    NotStrict,
    truncated_power,
)
from funcdiss.coefficients import (
    CoefficientField,
    checkerboard_field,
    radial_field,
    ramp_field,
)
from funcdiss import fem
from funcdiss.errors import EllipticityViolation, SolverDiverged
from funcdiss.fem import (
    FemProblem,
    assemble_and_solve,
    fiber_problem,
    fiber_reference,
    manufactured_problem,
    manufactured_reference,
    regularity_ratio,
    weighted_energy,
)

INF = float("inf")


def smooth_problem(cells, dim=2, amp=1.0, p=4.0, coeffs=(1.0, 1.0)):
    """Smooth load on [0, 1]^dim; cells is a count per side or a tuple."""
    cells = (cells,) * dim if isinstance(cells, int) else tuple(cells)
    dim = len(cells)
    grids = np.meshgrid(*[np.linspace(0.0, 1.0, c + 1) for c in cells],
                        indexing="ij")
    s = np.ones_like(grids[0])
    for g in grids:
        s = s * np.sin(np.pi * g)
    coef = np.arange(1.0, 1.0 + dim * dim).reshape(dim, dim) / (dim * dim)
    coef[0, 1] = -coef[0, 1]
    f = np.einsum("ij,...->...ij", coef, amp * s)
    domain = (0.0, 1.0) * dim
    return FemProblem(domain=domain, cells=cells, coeffs=coeffs, rhs=f, p=p)


# ---------------------------------------------------------------------------
# solver


def test_manufactured_convergence_order():
    errs = []
    for cells in (8, 16, 32):
        prob = manufactured_problem(cells, 1.0, 1.0)
        sol = assemble_and_solve(prob)
        ref = manufactured_reference(prob)
        errs.append(float(np.sqrt(np.mean((sol.u - ref) ** 2))))
    for lo, hi in zip(errs[1:], errs[:-1]):
        order = np.log2(hi / lo)
        assert 1.8 <= order <= 2.2


def test_zero_load_gives_zero_solution():
    prob = FemProblem(domain=(0.0, 1.0, 0.0, 1.0), cells=(8, 8),
                      coeffs=(1.0, 1.0), rhs=np.zeros((9, 9, 2, 2)))
    sol = assemble_and_solve(prob)
    assert np.all(sol.u == 0.0)
    assert sol.energy == 0.0
    assert sol.weighted_energies[INF] == 0.0


def test_discrete_energy_identity():
    # Galerkin orthogonality: B(u, u) equals the load work int F_ij d_i u_j
    sol = assemble_and_solve(smooth_problem(16))
    assert sol.rhs_work == pytest.approx(2.0 * sol.energy, rel=1e-9)


def test_fiber_matches_two_point_solution():
    prob = fiber_problem(32)
    sol = assemble_and_solve(prob)
    ref = fiber_reference(prob)
    mid = sol.u[:, prob.cells[1] // 2, 0]
    assert np.max(np.abs(mid - ref)) < 1e-6
    peak = (0.25 - prob.spacings[0] / 4.0) / 3.0  # (lam + 2 mu) = 3
    assert mid.max() == pytest.approx(peak, rel=1e-8)


def test_constant_field_path_matches_constant_pair():
    # the non reduced variable assembly differs by a null Lagrangian only
    grid = CoefficientField(domain=(0.0, 1.0, 0.0, 1.0),
                            lam=np.full((5, 5), 1.0), mu=np.full((5, 5), 1.0))
    a = assemble_and_solve(smooth_problem(16, coeffs=(1.0, 1.0)))
    b = assemble_and_solve(smooth_problem(16, coeffs=grid))
    assert np.max(np.abs(a.u - b.u)) < 1e-12


def _free_dofs(cells):
    """Indices of the interior-node unknowns in the node-major numbering of
    all nodes, the order of the reference free blocks."""
    dim = len(cells)
    nodes = tuple(c + 1 for c in cells)
    node = np.arange(math.prod(nodes)).reshape(nodes)
    inner = node[(slice(1, -1),) * dim].ravel()
    return (inner[:, None] * dim + np.arange(dim)).ravel()


def _grid_dofs(cells):
    """The grid-layout indices (components first) of the unknowns of
    _free_dofs, in its order."""
    dim = len(cells)
    grid = np.arange(dim * math.prod(c + 1 for c in cells))
    grid = grid.reshape((dim,) + tuple(c + 1 for c in cells))
    return np.moveaxis(grid, 0, -1).ravel()[_free_dofs(cells)]


def _on_grid(x, cells):
    """The grid-layout vector, zero on the rim, of the free unknowns x."""
    v = np.zeros(len(cells) * math.prod(c + 1 for c in cells))
    v[_grid_dofs(cells)] = x
    return v


def _cell_assembly(local, cells):
    """The free block of the cell matrices local[..., a, i, b, j], one
    shared by every cell or one per cell, by COO summation over all nodes,
    restricted by _free_dofs."""
    dim = len(cells)
    enodes = fem._element_nodes(cells, tuple(c + 1 for c in cells))
    nel, nbasis = enodes.shape
    nloc = nbasis * dim
    data = np.broadcast_to(local.reshape(-1, nloc, nloc), (nel, nloc, nloc))
    gdof = (enodes[:, :, None] * dim + np.arange(dim)).reshape(nel, nloc)
    rows = np.repeat(gdof, nloc, axis=1).ravel()
    cols = np.tile(gdof, (1, nloc)).ravel()
    ndof = math.prod(c + 1 for c in cells) * dim
    free = _free_dofs(cells)
    return sparse.coo_array((data.ravel(), (rows, cols)),
                            shape=(ndof, ndof)).tocsr()[free][:, free]


def _reduced_form_matrix(prob, order=2):
    """Free block of the classical reduced form
    mu <grad u, grad v> + (lam + mu) (div u)(div v), with (lam, mu) sampled
    at the Gauss points of each cell as the assembler samples them."""
    dim = prob.dim
    w, _, grads = fem._reference(dim, order)
    h = np.asarray(prob.spacings)
    phys = grads / h
    wv = w * np.prod(h)
    div = np.einsum("g,gai,gbj->gaibj", wv, phys, phys)
    gg = np.einsum("g,gad,gbd->gab", wv, phys, phys)
    lap = np.einsum("gab,ij->gaibj", gg, np.eye(dim))
    lam, mu = fem._coefficient_samples(prob, order)
    local = (np.einsum("eg,gaibj->eaibj", mu, lap)
             + np.einsum("eg,gaibj->eaibj", lam + mu, div))
    return _cell_assembly(local, prob.cells)


def _stencil_block(prob):
    """The free block of the operator the solver applies, the _Stencil of
    the problem's cell matrices, one free unit vector at a time, dense, in
    the order of _free_dofs."""
    a = fem._Stencil(fem._cell_matrices(prob), prob.cells)
    grid = _grid_dofs(prob.cells)
    unit = np.zeros(prob.dim * math.prod(prob.node_shape))
    cols = []
    for k in grid:
        unit[k] = 1.0
        cols.append((a @ unit)[grid])
        unit[k] = 0.0
    return np.array(cols).T


def _anisotropic_box(dim, cells=(8, 10, 9), coeffs=(2.0, 0.7)):
    domain = (0.0, 1.0, 0.0, 2.0, 0.0, 0.5)[:2 * dim]
    cells = cells[:dim]
    return FemProblem(domain=domain, cells=cells, coeffs=coeffs,
                      rhs=np.zeros(tuple(c + 1 for c in cells) + (dim, dim)))


def _gap_to_reduced_form(prob):
    """max |kff - reduced form| on the free unknowns, and max |kff|, for
    the solver's free block kff."""
    kff = _stencil_block(prob)
    ref = _reduced_form_matrix(prob).toarray()
    return float(np.max(np.abs(kff - ref))), float(np.max(np.abs(kff)))


@pytest.mark.parametrize("dim", [2, 3])
def test_assembly_matches_reduced_form_on_free_dofs(dim):
    # The non reduced form differs from the reduced one by the null
    # Lagrangian (div u)(div v) - sum d_k u_j d_j v_k, which vanishes on
    # H^1_0 for a constant pair: the free blocks agree.
    gap, scale = _gap_to_reduced_form(_anisotropic_box(dim))
    assert gap <= 1e-13 * scale


@pytest.mark.parametrize("prob", [
    _anisotropic_box(2),
    _anisotropic_box(3),
    _anisotropic_box(2, coeffs=ramp_field(2.0, 0.7, 0.5,
                                          domain=(0.0, 1.0, 0.0, 2.0))),
], ids=["2", "3", "ramp"])
def test_stencil_apply_matches_csr_matvec(prob):
    dim = prob.dim
    kff, _ = _einsum_assembly(prob)
    stencil = fem._Stencil(fem._cell_matrices(prob), prob.cells)
    grid = (dim,) + prob.node_shape
    x = np.random.default_rng(dim).standard_normal((3, kff.shape[0]))
    for v in x:
        ref = kff @ v
        got = stencil @ _on_grid(v, prob.cells)
        assert got.shape == (math.prod(grid),)
        assert np.max(np.abs(got[_grid_dofs(prob.cells)] - ref)) \
            <= 1e-13 * np.max(np.abs(ref))
        # the rim, where u is fixed, comes out zero
        rim = np.ones(grid, dtype=bool)
        rim[fem._interior(dim)] = False
        assert not np.any(got.reshape(grid)[rim])


def _prolongation(cells, halved):
    """The stored P on the free unknowns, the reference for the slice
    transfers and the Galerkin coarse operators: the Kronecker product of
    one 1-D factor per axis, times the identity on the node-major
    displacement components.  A halved axis interpolates linearly (stencil
    1/2, 1, 1/2) from the (c + 1) // 2 - 1 interior nodes of the coarse
    axis, coarse node k at fine node 2k, to the c - 1 of the fine one; at
    an odd end the last coarse interior node sits at the fine node c - 1,
    whose right neighbour is the fixed rim, so its column holds 1/2, 1
    only.  An axis that is not halved keeps the identity."""
    factors = []
    for c, halve in zip(cells, halved):
        if not halve:
            factors.append(sparse.eye_array(c - 1))
            continue
        j = np.arange((c + 1) // 2 - 1)
        rows = np.concatenate([2 * j, 2 * j + 1, 2 * j + 2])
        vals = np.repeat([0.5, 1.0, 0.5], j.size)
        keep = rows < c - 1
        factors.append(sparse.csr_array(
            (vals[keep], (rows[keep], np.tile(j, 3)[keep])),
            shape=(c - 1, j.size)))
    return reduce(sparse.kron,
                  factors + [sparse.eye_array(len(cells))]).tocsr()


def _coarser(cells, halved):
    """The cell counts of the next level, odd counts c to (c + 1) // 2."""
    return tuple((c + 1) // 2 if h else c for c, h in zip(cells, halved))


def _csr_jacobi_scale(kff):
    """The damped Jacobi scales omega / a_ii of a stored block, omega the
    damping over the largest absolute row sum over the diagonal."""
    diag = kff.diagonal()
    rowsum = np.add.reduceat(np.abs(kff.data), kff.indptr[:-1])
    return (fem._DAMPING / float(np.max(rowsum / diag))) / diag


def _pair_cell_matrix(coeffs, widths):
    """The one cell matrix local[a, i, b, j] of a constant pair on cells of
    the given widths, from the 2-point Gauss blocks of fem._local_blocks."""
    lam, mu = coeffs
    div_blk, grad_blk = fem._local_blocks(len(widths), 2, widths)
    return lam * div_blk.sum(axis=0) + mu * grad_blk.sum(axis=0)


def _reference_levels(prob, levels):
    """The reference free block of each level, fine to coarse, for the
    halvings that levels lists: the assembled block of prob, then P^T A P
    of the level above with the P of _prolongation.  A constant pair, whose
    one coarsened cell matrix leaves out the narrower last cell of an odd
    end, leaves P^T A P below its first odd halving: from there its
    reference is the block assembled from the cell matrix that the 2-point
    Gauss blocks give at the level's widths."""
    blocks = [_einsum_assembly(prob)[0]]
    widths, cells = prob.spacings, prob.cells
    galerkin = True
    for _, _, halved in levels:
        widths = tuple(2.0 * h if s else h for h, s in zip(widths, halved))
        galerkin &= not (isinstance(prob.coeffs, tuple) and any(
            s and c % 2 for c, s in zip(cells, halved)))
        if galerkin:
            p = _prolongation(cells, halved)
            blocks.append(p.T @ blocks[-1] @ p)
        cells = _coarser(cells, halved)
        if not galerkin:
            blocks.append(_cell_assembly(_pair_cell_matrix(
                prob.coeffs, widths), cells))
    return blocks


_CHECKER = checkerboard_field(1.3, 0.7, 0.4, domain=(0.0, 1.0, 0.0, 2.0))
# Each axis of at least 7 cells whose cells are at most twice as wide as
# the narrowest such axis is halved, an odd count c to (c + 1) // 2; on the
# box [0, 1] x [0, 2] (x [0, 0.5]) the cells of the last axis start
# narrow, so it is halved alone at first.
_LEVEL_CASES = pytest.mark.parametrize("cells, coeffs, sizes", [
    ((32, 16), (1.3, 0.7), [(32, 16), (16, 16), (8, 8), (4, 4)]),
    ((16, 16, 32), (1.3, 0.7),
     [(16, 16, 32), (16, 16, 16), (8, 16, 8), (4, 8, 4), (4, 4, 4)]),
    ((32, 16), _CHECKER, [(32, 16), (16, 16), (8, 8), (4, 4)]),
    ((9, 50), (1.3, 0.7), [(9, 50), (9, 25), (5, 13), (5, 7), (5, 4)]),
    ((9, 50), _CHECKER, [(9, 50), (9, 25), (5, 13), (5, 7), (5, 4)]),
], ids=["32x16", "16x16x32", "checkerboard-32x16", "odd-9x50",
        "checkerboard-odd-9x50"])


@_LEVEL_CASES
def test_stencil_levels_equal_galerkin_products(cells, coeffs, sizes):
    # each level against the reference of _reference_levels, P^T A P of
    # the level above where the hierarchy forms it: the level's cell
    # matrices, coarsened from the level above for both coefficient kinds,
    # its stencil apply and its Jacobi scales
    prob = _anisotropic_box(len(cells), cells=cells, coeffs=coeffs)
    levels, coarsest = fem._hierarchy(prob)
    ops = [a for a, _, _ in levels] + [coarsest[0]]
    assert [a.cells for a in ops] == sizes
    local = fem._cell_matrices(prob)
    refs = _reference_levels(prob, levels)
    scale = float(np.max(np.abs(refs[0].data)))
    rng = np.random.default_rng(len(cells))
    for level, (a, ref_a) in enumerate(zip(ops, refs)):
        assert isinstance(a, fem._Stencil)
        if level:
            local = fem._coarsen(local, ops[level - 1].cells,
                                 levels[level - 1][2])
        # sparse: the finest 3-D block would take 3.5 GB as a dense array
        gap = (_cell_assembly(local, a.cells) - ref_a).data
        assert np.max(np.abs(gap), initial=0.0) <= 1e-13 * scale, level
        grid = _grid_dofs(a.cells)
        v = rng.standard_normal(ref_a.shape[0])
        ref = ref_a @ v
        got = (a @ _on_grid(v, a.cells))[grid]
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.allclose(fem._jacobi_scale(a)[grid],
                           _csr_jacobi_scale(ref_a), rtol=1e-13, atol=0.0)
        if a.rowsum.size > len(cells):
            # per-node row sums are the stored rows', rim neighbours dropped
            rowsum = np.add.reduceat(np.abs(ref_a.data), ref_a.indptr[:-1])
            assert np.allclose(np.moveaxis(a.rowsum, 0, -1).ravel(), rowsum,
                               rtol=1e-13, atol=0.0)


@_LEVEL_CASES
def test_coarsest_solve_matches_galerkin_direct_solve(cells, coeffs, sizes):
    # the coarsest level's direct solve on a grid-layout residual with a
    # zero rim, against spsolve of the reference block of _reference_levels;
    # the correction's rim, where u is fixed, is exactly zero
    prob = _anisotropic_box(len(cells), cells=cells, coeffs=coeffs)
    levels, (a, solve) = fem._hierarchy(prob)
    assert a.cells == sizes[-1]
    ref_a = _reference_levels(prob, levels)[-1]
    grid = _grid_dofs(a.cells)
    r = np.random.default_rng(len(cells)).standard_normal(len(grid))
    ref = spsolve(ref_a.tocsc(), r)
    x = solve(_on_grid(r, a.cells))
    assert np.max(np.abs(x[grid] - ref)) <= 1e-12 * np.max(np.abs(ref))
    rim = np.ones(x.shape, dtype=bool)
    rim[grid] = False
    assert np.all(x[rim] == 0.0)


@pytest.mark.parametrize("ratio", [1.0, 10.0])
@pytest.mark.parametrize("cells, halved", [
    ((8, 10), (True, True)),
    ((8, 10), (False, True)),
    ((8, 10, 9), (True, False, True)),
], ids=["xy", "y", "xz"])
def test_pair_coarsens_to_its_cell_matrix_at_doubled_widths(cells, halved,
                                                            ratio):
    # The 2-point Gauss rule is exact for a constant pair's form, so the
    # one coarsened cell matrix, two children per halved axis, is the cell
    # matrix at the widths doubled along those axes.
    prob = _anisotropic_box(len(cells), cells=cells, coeffs=(ratio, 1.0))
    coarse = fem._coarsen(fem._cell_matrices(prob), prob.cells, halved)
    widths = tuple(2.0 * h if s else h for h, s in zip(prob.spacings, halved))
    ref = _pair_cell_matrix(prob.coeffs, widths)
    assert coarse.shape == ref.shape
    assert np.max(np.abs(coarse - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("prob", [
    lambda: manufactured_problem(64),
    lambda: smooth_problem(64, coeffs=radial_field(1.0, 1.0, 0.1)),
], ids=["pair", "radial"])
def test_solve_runs_the_element_quadrature_once(prob, monkeypatch):
    # Every coarse level's cell matrices come from _coarsen, so the cell
    # matrices are formed once per solve, on the fine grid.
    calls = []
    cell_matrices = fem._cell_matrices

    def counted(problem, *args):
        calls.append(problem.cells)
        return cell_matrices(problem, *args)

    monkeypatch.setattr(fem, "_cell_matrices", counted)
    assemble_and_solve(prob())
    assert calls == [(64, 64)]


def test_coefficient_samples_peak_memory():
    # Sampled in blocks of whole cell rows: the 1.2 MB of coordinates and
    # lookup temporaries per block, not per grid, beside the 4 MB of
    # samples.  Sampled all at once, 256^2 peaked at 32 MB.
    prob = smooth_problem(256, coeffs=radial_field(1.0, 1.0, 0.1))
    fem._coefficient_samples(prob, 2)
    tracemalloc.start()
    try:
        lam, mu = fem._coefficient_samples(prob, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lam.shape == mu.shape == (256 * 256, 4)
    assert peak <= 16 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB"


@pytest.mark.parametrize("cells, halved", [
    ((32, 16), (True, True)),
    ((16, 16, 32), (True, True, True)),
    ((64, 64), (True, True)),
    ((27, 13), (True, True)),
    ((9, 50), (False, True)),
    ((15, 9, 11), (True, False, True)),
], ids=["32x16", "16x16x32", "64x64", "odd-27x13", "y-only-9x50",
        "odd-xz-15x9x11"])
def test_slice_transfers_equal_prolongation(cells, halved):
    # _restrict and _prolong on grid-layout vectors against the stored P
    # and P^T on the free unknowns, one level
    p = _prolongation(cells, halved)
    coarse = _coarser(cells, halved)
    rng = np.random.default_rng(len(cells))
    for _ in range(3):
        r, x = rng.standard_normal(p.shape[0]), rng.standard_normal(p.shape[1])
        ref = p.T @ r
        got = fem._restrict(_on_grid(r, cells), cells, halved)
        assert np.max(np.abs(got[_grid_dofs(coarse)] - ref)) \
            <= 1e-15 * np.max(np.abs(ref))
        assert got.size == len(cells) * math.prod(c + 1 for c in coarse)
        ref = p @ x
        got = fem._prolong(_on_grid(x, coarse), cells, halved)
        assert np.max(np.abs(got[_grid_dofs(cells)] - ref)) \
            <= 1e-15 * np.max(np.abs(ref))
        # the rim, where u is fixed, comes out zero
        assert not np.any(np.delete(got, _grid_dofs(cells)))


def test_assembly_is_not_reduced_form_for_varying_mu():
    # With mu varying, mu times the null Lagrangian no longer integrates to
    # zero, so the free block tells the two forms apart; the gap is of the
    # order h |grad mu| / mu, here about 5e-3 of the largest entry.
    prob = smooth_problem((8, 8), coeffs=ramp_field(1.0, 1.0, 1.0))
    gap, scale = _gap_to_reduced_form(prob)
    assert gap > 1e-3 * scale


def _einsum_assembly(prob, order=2):
    """Free block and free load vector by per-cell einsum contractions and
    COO summation over all nodes, the reference for the solver's operator
    and load vector."""
    dim = prob.dim
    nnodes = int(np.prod(prob.node_shape))
    enodes = fem._element_nodes(prob.cells, prob.node_shape)
    nel = len(enodes)
    div_blk, grad_blk = fem._local_blocks(dim, order, prob.spacings)
    lam, mu = fem._coefficient_samples(prob, order)
    local = (np.einsum("eg,gaibj->eaibj", lam, div_blk)
             + np.einsum("eg,gaibj->eaibj", mu, grad_blk))
    gdof = (enodes[:, :, None] * dim + np.arange(dim)).reshape(nel, -1)
    wv, vals, phys = fem._physical(dim, order, prob.spacings)
    f_corners = prob.rhs.reshape(nnodes, dim, dim)[enodes]
    f_gauss = np.einsum("gb,ebij->egij", vals, f_corners)
    r_loc = np.einsum("g,egij,gai->eaj", wv, f_gauss, phys)
    rvec = np.zeros(nnodes * dim)
    np.add.at(rvec, gdof.ravel(), r_loc.reshape(nel, -1).ravel())
    return _cell_assembly(local, prob.cells), rvec[_free_dofs(prob.cells)]


def _einsum_samples(prob, u, order=4):
    """|u|, |grad u|^2, |F| and weights by per-cell einsum contractions."""
    dim = prob.dim
    wv, vals, phys = fem._physical(dim, order, prob.spacings)
    enodes = fem._element_nodes(prob.cells, prob.node_shape)
    u_corners = u.reshape(-1, dim)[enodes]
    u_g = np.einsum("gb,ebj->egj", vals, u_corners)
    grad_g = np.einsum("gbi,ebj->egji", phys, u_corners)
    f_g = np.einsum("gb,ebij->egij", vals,
                    prob.rhs.reshape(-1, dim, dim)[enodes])
    return (np.linalg.norm(u_g, axis=2).ravel(),
            np.einsum("egji,egji->eg", grad_g, grad_g).ravel(),
            np.sqrt(np.einsum("egij,egij->eg", f_g, f_g)).ravel(),
            np.broadcast_to(wv, (len(enodes), len(wv))).ravel())


# FemProblem needs at least 8 cells per side, so the 3-D case is the
# smallest anisotropic box it admits.
_CONTRACTION_CASES = pytest.mark.parametrize("prob", [
    smooth_problem((12, 20)),
    smooth_problem((12, 20), coeffs=ramp_field(1.0, 1.0, 0.25)),
    smooth_problem((8, 9, 10)),
], ids=["12x20", "ramp", "8x9x10"])


@_CONTRACTION_CASES
def test_assembly_matches_einsum_reference(prob):
    # the solver's operator, read off its stencil, and its load vector
    ref_kff, ref_bf = _einsum_assembly(prob)
    kff = _stencil_block(prob)
    assert kff.shape == ref_kff.shape
    scale = float(np.max(np.abs(ref_kff.data)))
    assert np.max(np.abs(kff - ref_kff.toarray())) <= 1e-13 * scale
    bf = fem._load_vector(prob)[_grid_dofs(prob.cells)]
    assert np.max(np.abs(bf - ref_bf)) <= 1e-13 * np.max(np.abs(ref_bf))


def _pass_samples(prob, u):
    """|u|, |grad u|^2, |F| and weights of the sample pass, its blocks
    joined in order."""
    blocks = []
    fem._gauss_samples(prob, u, lambda *block: blocks.append(block))
    return tuple(np.concatenate(b) for b in zip(*blocks))


@_CONTRACTION_CASES
def test_gauss_samples_match_einsum_reference(prob):
    u = np.random.default_rng(5).standard_normal(prob.node_shape
                                                 + (prob.dim,))
    for got, ref in zip(_pass_samples(prob, u),
                        _einsum_samples(prob, u)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("cells", [(70, 60), (11, 10, 10)],
                         ids=["70x60", "11x10x10"])
def test_blocked_samples_match_einsum_reference(cells):
    prob = smooth_problem(cells)
    step = fem._SAMPLE_BLOCK // 4 ** prob.dim
    nel = math.prod(cells)
    assert step < nel and nel % step != 0  # several blocks, the last ragged
    u = np.random.default_rng(7).standard_normal(prob.node_shape
                                                 + (prob.dim,))
    for got, ref in zip(_pass_samples(prob, u),
                        _einsum_samples(prob, u)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


_RSS_PROBE = """
import resource
import sys
import numpy as np
from funcdiss.fem import FemProblem, assemble_and_solve
n = int(sys.argv[1])
x = np.sin(np.pi * np.linspace(0.0, 1.0, n + 1))
coef = np.arange(1.0, 10.0).reshape(3, 3) / 9.0
coef[0, 1] = -coef[0, 1]
rhs = np.einsum("ij,a,b,c->abcij", coef, x, x, x)
sol = assemble_and_solve(FemProblem(domain=(0.0, 1.0) * 3, cells=(n,) * 3,
                                    coeffs=(1.0, 1.0), rhs=rhs, p=3.0))
print(sol.iterations, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _probe_peak_rss(cells):
    """CG iterations and peak RSS in MB of a fresh smooth cells^3 solve.

    One BLAS thread, so that no per-thread buffer enters the figure.  A
    process starts with the RSS high-water mark of the one that forked it,
    so the probe runs as the child of a small interpreter, not of this test
    process.
    """
    src = str(Path(fem.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    hop = ("import subprocess, sys\n"
           "sys.exit(subprocess.run([sys.executable, '-c', *sys.argv[1:]])"
           ".returncode)\n")
    proc = subprocess.run([sys.executable, "-c", hop, _RSS_PROBE, str(cells)],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    iterations, maxrss_kb = map(int, proc.stdout.split())
    return iterations, maxrss_kb / 1024


def test_3d_solve_peak_rss():
    # Neither the assembly nor the Gauss sampling may hold per-cell
    # transients of the whole grid: a smooth 24^3 solve, about 41k free
    # unknowns, peaked at 439 MB with COO assembly and unblocked sampling.
    iterations, peak = _probe_peak_rss(24)
    assert iterations > 0
    assert peak <= 300, f"peak RSS {peak:.0f} MB"


def test_48_cubed_solve_peak_rss():
    # A stored free block (277 MB) and whole-grid Gauss samples (226 MB)
    # took a smooth 48^3 solve to 594 MB.
    iterations, peak = _probe_peak_rss(48)
    assert iterations > 0
    assert peak <= 400, f"peak RSS {peak:.0f} MB"


def test_solution_sampled_once_per_solve(monkeypatch):
    calls = []
    sampler = fem._gauss_samples

    def counted(*args, **kwargs):
        calls.append(id(args[0]))
        return sampler(*args, **kwargs)

    monkeypatch.setattr(fem, "_gauss_samples", counted)
    for prob in (smooth_problem(12, p=4.0), smooth_problem(8, dim=3),
                 FemProblem(domain=(0.0, 1.0, 0.0, 1.0), cells=(8, 8),
                            coeffs=(1.0, 1.0), rhs=np.zeros((9, 9, 2, 2)),
                            p=4.0)):
        calls.clear()
        sol = assemble_and_solve(prob)
        regularity_ratio(sol)
        assert calls == [id(prob)]
    # the post-processing entry point reads the same sampler, once
    calls.clear()
    weighted_energy(sol, 4.0, [2.0])
    assert calls == [id(sol.problem)]


def test_variable_coefficients_solve():
    grid = ramp_field(1.0, 1.0, 0.25)
    sol = assemble_and_solve(smooth_problem(16, coeffs=grid))
    assert sol.energy > 0.0
    assert sol.rhs_work == pytest.approx(2.0 * sol.energy, rel=1e-9)


def test_solver_is_deterministic():
    a = assemble_and_solve(smooth_problem(16))
    b = assemble_and_solve(smooth_problem(16))
    assert np.array_equal(a.u, b.u)
    assert a.weighted_energies == b.weighted_energies


# ---------------------------------------------------------------------------
# multigrid preconditioned CG


def free_system(prob):
    """The reference free block and free load vector, and the free
    unknowns' indices in the node-major numbering of all nodes."""
    return (*_einsum_assembly(prob), _free_dofs(prob.cells))


def test_cg_iterations_flat_under_refinement():
    iters = [assemble_and_solve(manufactured_problem(n)).iterations
             for n in (32, 64, 128, 256)]
    assert max(iters) <= 20, iters
    assert all(b <= 1.2 * a for a, b in zip(iters, iters[1:])), iters
    # Jacobi preconditioned CG took 198 iterations at 64^2
    assert iters[1] <= 198 // 4, iters
    # pinned: the grid-layout route only reorders sums, so the counts of
    # the stored-P solver stay
    assert iters == [12, 13, 13, 14]
    assert assemble_and_solve(smooth_problem(24, dim=3, p=3.0)).iterations \
        == 14


@pytest.mark.parametrize("ratio, prob, bound", [
    (10.0, lambda c: manufactured_problem(64, lam=c), 35),
    (100.0, lambda c: manufactured_problem(64, lam=c), 90),
    (10.0, lambda c: smooth_problem(16, dim=3, coeffs=(c, 1.0), p=2.0), 40),
    (100.0, lambda c: smooth_problem(16, dim=3, coeffs=(c, 1.0), p=2.0),
     110),
])
def test_cg_iterations_under_lame_contrast(ratio, prob, bound):
    # Jacobi smoothing weakens as lambda/mu grows; these pin how far.
    assert assemble_and_solve(prob(ratio)).iterations <= bound


@pytest.mark.parametrize("prob", [
    smooth_problem((8, 8)),
    smooth_problem((12, 20)),
    smooth_problem((9, 10)),          # odd: halved once, to 5x5
    fiber_problem(32),
    smooth_problem((8, 8, 8)),
    smooth_problem((16, 24), coeffs=ramp_field(1.0, 1.0, 0.25)),
], ids=["8x8", "12x20", "9x10", "fiber", "8x8x8", "ramp"])
def test_solution_matches_direct_solve(prob):
    kff, bf, free = free_system(prob)
    direct = spsolve(kff.tocsc(), bf)
    x = assemble_and_solve(prob).u.ravel()[free]
    assert np.linalg.norm(x - direct) <= 1e-8 * np.linalg.norm(direct)


_RAMP = ramp_field(1.0, 1.0, 0.25)


def _tall_box():
    """64 x 64 cells on [0, 1] x [0, 8], eight times as long along y as
    along x, with the load F_11 = sin(pi x) sin(pi y / 8)."""
    x, y = np.meshgrid(np.linspace(0.0, 1.0, 65), np.linspace(0.0, 8.0, 65),
                       indexing="ij")
    rhs = np.zeros((65, 65, 2, 2))
    rhs[..., 0, 0] = np.sin(np.pi * x) * np.sin(np.pi * y / 8.0)
    return FemProblem(domain=(0.0, 1.0, 0.0, 8.0), cells=(64, 64),
                      coeffs=(1.0, 1.0), rhs=rhs, p=2.0)


@pytest.mark.parametrize("prob", [
    smooth_problem((32, 64)),
    smooth_problem((8, 8, 8)),
    smooth_problem((25, 27)),
    smooth_problem((15, 9, 11)),
    smooth_problem((8, 100)),
    smooth_problem((32, 64), coeffs=_RAMP),
    smooth_problem((33, 31), coeffs=_RAMP),
    _tall_box(),
], ids=["2d-levels", "3d-levels", "odd-25x27", "odd-15x9x11",
        "semicoarsened-8x100", "ramp-levels", "ramp-odd-33x31",
        "semicoarsened-64x64-tall"])
def test_vcycle_is_symmetric_positive(prob):
    levels, coarsest = fem._hierarchy(prob)
    # every grid reaches a directly solved level of at most 6 cells a side
    assert levels and max(coarsest[0].cells) <= 6
    dim = prob.dim
    free = dim * math.prod(c - 1 for c in prob.cells)
    rng = np.random.default_rng(3)
    # grid-layout vectors, zero on the rim, as CG hands them over
    x, y = (_on_grid(v, prob.cells) for v in rng.standard_normal((2, free)))
    my = fem._vcycle(levels, coarsest, y)
    assert not np.any(my.reshape((dim,) + prob.node_shape)[:, 0])
    xmy, ymx = x @ my, y @ fem._vcycle(levels, coarsest, x)
    scale = np.linalg.norm(x) * np.linalg.norm(my)
    assert abs(xmy - ymx) <= 1e-12 * scale
    assert x @ fem._vcycle(levels, coarsest, x) > 0.0


@pytest.mark.parametrize("prob", [
    manufactured_problem(126),
    manufactured_problem(127),
    manufactured_problem(150),
    manufactured_problem(250),
    smooth_problem((24, 25, 26), p=2.0),
    smooth_problem((8, 512), p=2.0),
    _tall_box(),
    smooth_problem(127, coeffs=radial_field(1.0, 1.0, 0.1), p=2.0),
], ids=["126", "127", "150", "250", "24x25x26", "8x512", "64x64-tall",
        "radial-127"])
def test_cg_iterations_on_grids_that_do_not_halve_evenly(prob):
    # Odd counts coarsen to (c + 1) / 2 cells and anisotropic grids halve
    # their narrow axes alone, so every grid gets the full V-cycle.  With
    # coarsening only while every count was even, these took 84, 188, 100,
    # 167, 64, 602, 70 and 232 iterations.
    assert assemble_and_solve(prob).iterations <= 25


def test_cg_scales_tiny_and_huge_loads():
    # CG runs on the load over a power of two near its largest entry, so
    # u(cF) is c u(F) bit for bit for a power of two c, and to rounding for
    # any other c, at the same iteration count, where |b| and rho would
    # under- or overflow; an energy that overflows raises at once.
    prob = smooth_problem(8, p=2.0)
    base = assemble_and_solve(prob)

    def scaled(c):
        return assemble_and_solve(FemProblem(
            domain=prob.domain, cells=prob.cells, coeffs=prob.coeffs,
            rhs=c * prob.rhs, p=prob.p))

    for c in (2.0 ** -600, 2.0 ** 500):
        sol = scaled(c)
        assert np.array_equal(sol.u, c * base.u)
        assert sol.iterations == base.iterations
    top = np.max(np.abs(base.u))
    for c in (1e-200, 1e-160, 1e-155, 1e150):
        sol = scaled(c)
        assert np.max(np.abs(sol.u / c - base.u)) <= 1e-12 * top, c
        assert sol.iterations == base.iterations, c
    start = time.perf_counter()
    with pytest.raises(SolverDiverged):
        scaled(1e160)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("prob, bound_mb", [
    (lambda: smooth_problem(48, dim=3, p=3.0), 10.0),
    (lambda: smooth_problem(128, coeffs=radial_field(1.0, 1.0, 0.1)), 22.9),
    (lambda: smooth_problem((63, 64, 65), p=3.0), 10.0),
], ids=["pair-48x48x48", "radial-128x128", "pair-63x64x65"])
def test_hierarchy_peak_memory(prob, bound_mb):
    # A stored P (sparse.kron, int64 intermediates) took a constant pair's
    # _hierarchy to a 45 MB peak on a 48^3 grid.  A CoefficientField's
    # CSR levels, stored P and Galerkin products took it to 22.9 MB at
    # 128^2, the first call's imports aside.  Below an odd halving a pair
    # keeps one coarsened cell matrix per level, not per-node planes.
    prob = prob()
    fem._hierarchy(prob)
    tracemalloc.start()
    try:
        fem._hierarchy(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 2 ** 20, f"{peak / 2 ** 20:.1f} MB"


def test_solve_leaves_no_hierarchy_behind():
    # A self-calling V-cycle closure would form a reference cycle that
    # holds every level until the cyclic collector runs.
    prob = manufactured_problem(128)
    gc.disable()
    tracemalloc.start()
    try:
        current = []
        for _ in range(5):
            assemble_and_solve(prob)
            current.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
        gc.enable()
    assert max(current) - min(current) <= 2 * 2 ** 20, current


def test_inadmissible_exponent_rejected():
    with pytest.raises(NotStrict):
        assemble_and_solve(smooth_problem(8, p=16.0))
    with pytest.raises(NotStrict):
        assemble_and_solve(smooth_problem(8, dim=3, p=6.0))


def test_bad_coefficients_rejected():
    with pytest.raises(EllipticityViolation):
        assemble_and_solve(smooth_problem(8, coeffs=(1.0, -0.5)))


def test_problem_rejects_nonfinite_or_nonelliptic_input():
    # Checked when the problem is built, before any assembly or CG run.
    with pytest.raises(EllipticityViolation):
        smooth_problem(8, dim=3, coeffs=(math.nan, 1.0))
    with pytest.raises(EllipticityViolation):
        smooth_problem(8, coeffs=(1.0, math.inf))
    with pytest.raises(EllipticityViolation):
        smooth_problem(8, dim=3, coeffs=(-3.0, 1.0))
    rhs = np.zeros((9, 9, 2, 2))
    for domain in ((0.0, math.inf, 0.0, 1.0), (0.0, 1.0, math.nan, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            FemProblem(domain=domain, cells=(8, 8), coeffs=(1.0, 1.0),
                       rhs=rhs)


def test_problem_validation():
    rhs = np.zeros((9, 9, 2, 2))
    with pytest.raises(ValueError):
        FemProblem(domain=(0, 1, 0, 1), cells=(4, 4), coeffs=(1, 1),
                   rhs=np.zeros((5, 5, 2, 2)))
    with pytest.raises(ValueError):
        FemProblem(domain=(0, 1, 0, 1), cells=(8, 8), coeffs=(1, 1),
                   rhs=np.zeros((9, 9, 3, 3)))
    with pytest.raises(ValueError):
        FemProblem(domain=(0, 1, 1, 0), cells=(8, 8), coeffs=(1, 1), rhs=rhs)
    with pytest.raises(ValueError):
        FemProblem(domain=(0, 1, 0, 1), cells=(8, 8), coeffs=(1, 1),
                   rhs=rhs, p=1.5)
    grid = ramp_field(1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        FemProblem(domain=(0, 1, 0, 1, 0, 1), cells=(8, 8, 8), coeffs=grid,
                   rhs=np.zeros((9, 9, 9, 3, 3)))


# ---------------------------------------------------------------------------
# nested start and load scaling


def rel_diff(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_nested_start_agrees_with_cold_solve_in_fewer_iterations():
    # CG from the prolonged 64^2 solution stops at the same 1e-10 residual
    # of the load as CG from zero, at lambda/mu = 100 where it takes 74
    # iterations cold; the gauge starts at the coarse load norm
    coarse = assemble_and_solve(manufactured_problem(64, 100.0, 1.0))
    prob = manufactured_problem(128, 100.0, 1.0)
    cold = assemble_and_solve(prob)
    warm = assemble_and_solve(prob, coarse)
    assert rel_diff(warm.u, cold.u) <= 1e-9
    assert warm.energy == pytest.approx(cold.energy, rel=1e-9, abs=0.0)
    assert warm.sobolev_norm_F == pytest.approx(cold.sobolev_norm_F,
                                                rel=1e-9, abs=0.0)
    assert warm.iterations < cold.iterations


@pytest.mark.parametrize("make, p", [
    (lambda n: manufactured_problem(n, 1.0, 1.0, p=4.0), 4.0),
    (lambda n: fiber_problem(n), 2.0),
    (lambda n: smooth_problem(n, dim=3, p=3.0), 3.0),
], ids=["manufactured-p4", "fiber-16-to-1", "smooth-3d"])
def test_nested_start_on_every_grid_the_study_refines(make, p):
    # the fiber strip doubles its 16:1 grid exactly, and a 3-D box too
    coarse = assemble_and_solve(make(8))
    prob = make(16)
    assert prob.p == p
    cold = assemble_and_solve(prob)
    warm = assemble_and_solve(prob, coarse)
    assert rel_diff(warm.u, cold.u) <= 1e-9
    assert regularity_ratio(warm) == pytest.approx(regularity_ratio(cold),
                                                   rel=1e-9, abs=0.0)
    assert warm.iterations <= cold.iterations


def test_nested_start_needs_the_halved_grid():
    coarse = assemble_and_solve(manufactured_problem(8))
    for prob in (manufactured_problem(24), smooth_problem((16, 8)),
                 smooth_problem((16, 16, 16))):
        with pytest.raises(ValueError, match="every axis halved"):
            assemble_and_solve(prob, coarse)
    moved = manufactured_problem(16)
    moved.domain = (0.0, 2.0, 0.0, 2.0)
    with pytest.raises(ValueError, match="same box"):
        assemble_and_solve(moved, coarse)


@pytest.mark.parametrize("c", [0.5, 2.0, 4.0])
def test_scaled_solution_is_the_solve_of_the_scaled_load(c, monkeypatch):
    # _solve divides the load by a power of two, so for a power of two c
    # the solve of c F is c u(F) bit for bit; scaled_solution reads it off
    # u(F) without CG and samples c u and c F again
    prob = manufactured_problem(32, 1.3, 1.3, amp=1.2, p=4.1)
    base = assemble_and_solve(prob)
    fresh = assemble_and_solve(FemProblem(
        domain=prob.domain, cells=prob.cells, coeffs=prob.coeffs,
        rhs=c * prob.rhs, p=prob.p))

    def no_cg(*_):
        raise AssertionError("scaled_solution ran CG")

    monkeypatch.setattr(fem, "_solve", no_cg)
    scaled = fem.scaled_solution(base, c)
    assert np.array_equal(scaled.u, fresh.u)
    assert scaled.energy == fresh.energy
    assert scaled.rhs_work == fresh.rhs_work
    assert np.array_equal(scaled.problem.rhs, fresh.problem.rhs)
    assert scaled.iterations == 0
    assert scaled.weighted_energies == pytest.approx(fresh.weighted_energies,
                                                     rel=1e-12, abs=0.0)
    assert regularity_ratio(scaled) == pytest.approx(
        regularity_ratio(fresh), rel=1e-9, abs=0.0)


def test_scaled_solution_of_an_underflowed_or_overflowed_load():
    # c^2 times the load norm underflows to 0 at c = 1e-200, a start the
    # gauge does not take; c = 1e160 overflows the energy as the solve does
    base = assemble_and_solve(smooth_problem(8, p=4.0))
    tiny = fem.scaled_solution(base, 1e-200)
    assert tiny.sobolev_norm_F == 0.0
    assert regularity_ratio(tiny) == 0.0
    with pytest.raises(SolverDiverged, match="overflows"):
        fem.scaled_solution(base, 1e160)


# ---------------------------------------------------------------------------
# weighted energies


def test_weighted_energy_p2_is_plain_dirichlet():
    sol = assemble_and_solve(smooth_problem(12, p=2.0))
    out = weighted_energy(sol, 2.0, [2.0, 4.0, 16.0])
    for k, val in out.items():
        assert val == pytest.approx(out[INF], rel=1e-12)
    assert out[INF] > 0.0


def test_weighted_energy_monotone_and_saturating():
    sol = assemble_and_solve(smooth_problem(12, p=4.0))
    umax = float(np.max(np.linalg.norm(sol.u.reshape(-1, 2), axis=1)))
    ks = [1.5, 2.0, 4.0, 8.0, 2.0 * umax + 1.0]
    out = weighted_energy(sol, 4.0, ks)
    vals = [out[float(k)] for k in ks]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    # k beyond the solution range reproduces the untruncated weight exactly
    assert vals[-1] == out[INF]


def test_default_weight_levels_attached():
    sol = assemble_and_solve(smooth_problem(12, p=4.0))
    assert INF in sol.weighted_energies
    finite = sorted(k for k in sol.weighted_energies if k != INF)
    assert finite
    vals = [sol.weighted_energies[k] for k in finite]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def _unblocked_energies(samples, p, k_list):
    # the weighted energies as sums over the whole sample, kept as a
    # reference for the blocked pass of _weighted_energies
    umag, grad_sq, _, weights = samples
    out = {}
    for k in k_list:
        phik = truncated_power(p, float(k)).phi(umag)
        out[float(k)] = float(np.sum(weights * grad_sq * phik))
    if p > 2.0:
        live = umag > 0.0
        out[INF] = float(np.sum(weights * grad_sq * np.where(
            live, umag, 1.0) ** (p - 2.0) * live))
    else:
        out[INF] = float(np.sum(weights * grad_sq))
    return out


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_blocked_weighted_energies_match_whole_sums(p):
    n = 3 * fem._SAMPLE_BLOCK + 1234  # several blocks, the last ragged
    rng = np.random.default_rng(11)
    umag = rng.uniform(0.0, 9.0, n)
    umag[::97] = 0.0
    samples = (umag, rng.uniform(0.0, 2.0, n), None,
               rng.uniform(0.5, 1.5, n))
    # a level listed twice is summed once; 10 lies above every sample
    levels = [2.0, 4.0, 8.0, 2.0, 10.0]
    add, got = fem._weighted_energies(p, levels, float(umag.max()))
    for lo in range(0, n, fem._SAMPLE_BLOCK):
        add(*(a[lo:lo + fem._SAMPLE_BLOCK] if a is not None else None
              for a in samples))
    ref = _unblocked_energies(samples, p, levels)
    assert list(got) == list(ref) == [2.0, 4.0, 8.0, 10.0, INF]
    assert got[10.0] == got[INF]
    for k, val in ref.items():
        assert got[k] == pytest.approx(val, rel=1e-13, abs=0.0), k


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_levels_above_the_solution_copy_the_untruncated_sum(p):
    # with u_max = inf every level is evaluated through phi_k; the levels
    # above the solution range must come out bit for bit the same copied
    sol = assemble_and_solve(manufactured_problem(16, p=p))
    umax = fem._nodal_max(sol.u)
    assert 1.0 < umax < 2.0  # levels 1.5 and 2 truncate, 4 does not
    above = [4.0, 8.0, 2.0 * umax + 1.0, umax * (1.0 + 1e-8) + 1.0]
    levels = [1.5, 2.0, *above]
    add, copied = fem._weighted_energies(p, levels, umax)
    add_ref, summed = fem._weighted_energies(p, levels, math.inf)
    fem._gauss_samples(sol.problem, sol.u, add, add_ref)
    assert copied == summed
    assert [copied[k] for k in above] == [copied[INF]] * len(above)
    if p > 2.0:
        assert copied[2.0] < copied[INF]


@pytest.mark.parametrize("dim", [2, 3])
def test_default_levels_repeat_for_small_solutions(dim):
    # u_max <= 0.5 makes the level max(2, 2 u_max + 1) equal to 2
    sol = assemble_and_solve(smooth_problem(8, dim=dim))
    umax = np.max(np.linalg.norm(sol.u.reshape(-1, dim), axis=1))
    assert umax <= 0.5
    ref = weighted_energy(sol, 4.0, [2.0, 4.0, 8.0])
    assert list(sol.weighted_energies) == [2.0, 4.0, 8.0, INF]
    for k, val in ref.items():
        assert sol.weighted_energies[k] == pytest.approx(val, rel=1e-13,
                                                         abs=0.0), k


def test_post_solve_reductions_bounded_by_blocks():
    # the load norm's Luxemburg gauge and the weighted energies of a 256^2
    # solve work in blocks of samples: they held 64 and 35 MB above the
    # samples with whole-sample temporaries, which the sample pass no
    # longer holds either
    prob = manufactured_problem(256, p=4.0)
    sol = assemble_and_solve(prob)
    levels = list(sol.weighted_energies)[:-1]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        add_energies, energies = fem._weighted_energies(
            prob.p, levels, fem._nodal_max(sol.u))
        add_load, load_norm = fem._load_norm(prob)
        fem._gauss_samples(prob, sol.u, add_energies, add_load)
        load = load_norm()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert energies == pytest.approx(sol.weighted_energies, rel=1e-13,
                                     abs=0.0)
    assert load == pytest.approx(sol.sobolev_norm_F, rel=1e-13, abs=0.0)
    assert peak <= 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


@pytest.mark.parametrize("p", [3.2, 4.9])
def test_load_norm_gauge_starts_between_its_l1_bounds(p, monkeypatch):
    # the cold gauge of the planar load norm starts at the geometric mean
    # of ||g||_1 and ||g||_1 log(max g / ||g||_1 + e)^a, g = |F|^2: four
    # passes over the samples where a start at max g took five
    seen = []
    gauge = fem._gauge

    def counted(terms, amax, *starts):
        def count(lam):
            seen.append(lam)
            return terms(lam)
        return gauge(count, amax, *starts)

    monkeypatch.setattr(fem, "_gauge", counted)
    for cells in (32, 64):
        prob = manufactured_problem(cells, p=p)
        seen.clear()
        sol = assemble_and_solve(prob)
        add, norm = fem._load_norm(prob)
        fem._gauss_samples(prob, sol.u, add)
        assert len(seen) <= 4, (cells, len(seen))
        # and a far start lands on the same norm
        assert norm(1e3 * sol.sobolev_norm_F) == pytest.approx(
            sol.sobolev_norm_F, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# regularity ratio


def test_ratio_zero_for_zero_load():
    prob = FemProblem(domain=(0.0, 1.0, 0.0, 1.0), cells=(8, 8),
                      coeffs=(1.0, 1.0), rhs=np.zeros((9, 9, 2, 2)), p=4.0)
    assert regularity_ratio(assemble_and_solve(prob)) == 0.0


def test_ratio_scale_invariant_2d():
    base = regularity_ratio(assemble_and_solve(smooth_problem(16, amp=1.0)))
    for c in (0.5, 2.0, 4.0):
        r = regularity_ratio(assemble_and_solve(smooth_problem(16, amp=c)))
        assert r == pytest.approx(base, rel=1e-6)


def test_ratio_scale_invariant_3d():
    ref = assemble_and_solve(smooth_problem(8, dim=3, amp=1.0))
    base = regularity_ratio(ref)
    for c in (0.5, 2.0):
        sol = assemble_and_solve(smooth_problem(8, dim=3, amp=c))
        assert regularity_ratio(sol) == pytest.approx(base, rel=1e-6)
        assert sol.weighted_energies[INF] == pytest.approx(
            (c ** 4.0) * ref.weighted_energies[INF], rel=1e-6)


def test_lhs_scales_like_c_to_the_p():
    sols = {c: assemble_and_solve(smooth_problem(12, amp=c))
            for c in (1.0, 2.0)}
    lhs1 = sols[1.0].weighted_energies[INF]
    lhs2 = sols[2.0].weighted_energies[INF]
    assert lhs2 == pytest.approx((2.0 ** 4.0) * lhs1, rel=1e-9)


def test_ratio_bounded_across_refinements():
    ratios = [regularity_ratio(assemble_and_solve(smooth_problem(c)))
              for c in (8, 16, 32)]
    assert max(ratios) <= 2.0 * min(ratios)
    ratios3 = [regularity_ratio(
        assemble_and_solve(smooth_problem(c, dim=3)))
        for c in (8, 16)]
    assert max(ratios3) <= 2.0 * min(ratios3)


def test_perturbation_within_budget_is_stable():
    # engineering sanity: small admissible coefficient noise moves the
    # weighted energy by far less than the factor 2 envelope.  The noise
    # is 0.9 of the budget kappa0/(2C) = 0.03 that keeps half the strict
    # margin of (1, 1) at p = 4: kappa0 = 0.15 and C = max(2 + 2S, 2 + S)
    # = 2.5 with S = sup Lambda^2 = 1/4.
    amp = 0.027
    pert = CoefficientField(
        domain=(0.0, 1.0, 0.0, 1.0), lam=np.full((5, 5), 1.0),
        mu=np.full((5, 5), 1.0), eps=np.full((5, 5), amp),
        sigma=np.full((5, 5), -amp))
    base = assemble_and_solve(smooth_problem(16)).weighted_energies[INF]
    moved = assemble_and_solve(
        smooth_problem(16, coeffs=pert)).weighted_energies[INF]
    assert 0.5 <= moved / base <= 2.0


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 6),
       st.fractions(min_value=Fraction(21, 10), max_value=50))
def test_exponent_conjugacy_symbolic(n, p):
    alpha = (n * p) / ((n - 2) * (p - 2))
    alpha_prime = (n * p) / (2 * (n + p) - 4)
    assert 1 / alpha + 1 / alpha_prime == 1
