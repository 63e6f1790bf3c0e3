"""Multilinear finite elements for the Lame Dirichlet problem Eu = Div F.

The solver targets box domains in R^N, N in {2, 3}, with a structured grid
of identical cells and Q1 (multilinear) displacement elements.  Every
problem is assembled from the paper's non reduced weak form

    int lambda (div u)(div v)
        + mu (<grad u, grad v> + sum_kj d_k u_j d_j v_k) dx
        = int F_ij d_i v_j dx

with (lambda, mu) sampled at the Gauss points of each cell; a constant
pair is one row of samples shared by all cells, and a planar
CoefficientField contributes its perturbed pair (lambda + eps, mu + sigma).
For a constant pair this is the classical reduced form
mu <grad u, grad v> + (lambda + mu) (div u)(div v) on the constrained
space, because the two differ by a null Lagrangian on H^1_0.

Only the free block, the interior nodes where u is not fixed, is ever
assembled.  Each interior node couples to its 3^N neighbours; the stencil
of each neighbour offset sums slices of the per-cell matrices over the
corner pairs at that offset and is written straight into the rows of a
canonical CSR matrix, with no triplet list and no full matrix.

The free block is solved by conjugate gradients preconditioned with one
symmetric geometric multigrid V-cycle: linear interpolation between grids
halved per axis, Galerkin coarse operators P^T A P, damped Jacobi
smoothing and a direct solve on a small coarsest grid.  Its iteration
count does not grow with the grid at a fixed lambda/mu.

The solver exists to probe the weighted energy estimate

    int |grad u|^2 |u|^{p-2} dx <= C ( int |F|^{Np/(N+p-2)} )^{(N+p-2)/N}

through truncated weights, Holder exponent splits and refinement studies,
not to be a general purpose elasticity code.  Each solve samples |u|,
|grad u|^2 and |F| once at order-4 Gauss points, in fixed blocks of cells
so that only the samples themselves scale with the grid, and both sides of
the estimate are read from those samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import product
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .coefficients import CoefficientField, constant_field
from .criteria import (
    STRICT_DISSIPATIVE,
    constant_threshold,
    lame2d_verdict,
    lameNd_sufficient,
)
from .errors import NotStrict, SolverDiverged
from .orlicz import (
    _SAMPLE_BLOCK,
    SampledField,
    _block_sum,
    _blocks,
    log_young,
    luxemburg_norm,
)
from .phi import power_phi, truncated_power

if TYPE_CHECKING:
    from scipy.sparse.linalg import LinearOperator

__all__ = [
    "FemProblem",
    "FemSolution",
    "assemble_and_solve",
    "weighted_energy",
    "regularity_ratio",
    "holder_split_check",
    "HolderSplitReport",
    "manufactured_problem",
    "manufactured_reference",
    "fiber_problem",
    "fiber_reference",
]


# ---------------------------------------------------------------------------
# problem container


@dataclass
class FemProblem:
    """Dirichlet problem on a box: geometry, coefficients, load, exponent.

    domain is (x0, x1, y0, y1[, z0, z1]) with finite bounds; cells the
    per-axis cell counts; coeffs either a constant (lambda, mu) pair, which
    must be finite and elliptic (EllipticityViolation otherwise), or a
    planar CoefficientField (2-D only); rhs the nodal N x N matrix field F
    with shape nodes + (N, N); p the weight exponent, checked for
    admissibility against the coefficients before any solve.
    """

    domain: tuple
    cells: tuple
    coeffs: object
    rhs: np.ndarray
    p: float = 2.0

    def __post_init__(self):
        cells = tuple(int(c) for c in self.cells)
        n = len(cells)
        if n not in (2, 3):
            raise ValueError("only 2-D and 3-D boxes are supported")
        if len(self.domain) != 2 * n:
            raise ValueError("domain must list lo, hi per axis")
        if min(cells) < 8:
            raise ValueError("need at least 8 cells per side")
        if not np.all(np.isfinite(np.asarray(self.domain, dtype=float))):
            raise ValueError("domain bounds must be finite")
        for d in range(n):
            if not self.domain[2 * d + 1] > self.domain[2 * d]:
                raise ValueError("empty box")
        if isinstance(self.coeffs, CoefficientField):
            if n != 2:
                raise ValueError("variable coefficients are planar only")
        else:
            lam, mu = (float(c) for c in self.coeffs)
            # A non-finite or non-elliptic pair raises EllipticityViolation.
            constant_threshold(lam, mu)
            self.coeffs = (lam, mu)
        rhs = np.asarray(self.rhs, dtype=float)
        nodes = tuple(c + 1 for c in cells)
        if rhs.shape != nodes + (n, n):
            raise ValueError(f"rhs must have shape {nodes + (n, n)}")
        if not np.all(np.isfinite(rhs)):
            raise ValueError("rhs must be finite")
        if not self.p >= 2.0:
            raise ValueError("exponent p must be >= 2")
        self.cells = cells
        self.rhs = rhs

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def node_shape(self) -> tuple:
        return tuple(c + 1 for c in self.cells)

    @property
    def spacings(self) -> tuple:
        return tuple((self.domain[2 * d + 1] - self.domain[2 * d])
                     / self.cells[d] for d in range(self.dim))

    def node_axes(self) -> tuple:
        return tuple(np.linspace(self.domain[2 * d], self.domain[2 * d + 1],
                                 self.node_shape[d])
                     for d in range(self.dim))


@dataclass
class FemSolution:
    """Nodal displacement plus the energy bookkeeping of one solve."""

    problem: FemProblem
    u: np.ndarray
    energy: float
    rhs_work: float
    weighted_energies: Mapping[float, float]
    sobolev_norm_F: float
    iterations: int = 0


# ---------------------------------------------------------------------------
# reference element data


@lru_cache(maxsize=16)
def _gauss_1d(order: int):
    g, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (g + 1.0), 0.5 * w  # on [0, 1]


@lru_cache(maxsize=16)
def _reference(dim: int, order: int):
    """Q1 basis values and reference gradients at tensor Gauss points.

    Returns (weights (G,), vals (G, 2^dim), grads (G, 2^dim, dim)).
    Basis a is indexed by corner bits, bit d set meaning the high side of
    axis d; this matches the node offsets used by the assembler.
    """
    g1, w1 = _gauss_1d(order)
    grids = np.meshgrid(*([g1] * dim), indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    wgrids = np.meshgrid(*([w1] * dim), indexing="ij")
    w = np.ones(len(pts))
    for wg in wgrids:
        w = w * wg.ravel()
    nbasis = 2 ** dim
    vals = np.ones((len(pts), nbasis))
    grads = np.ones((len(pts), nbasis, dim))
    for a in range(nbasis):
        for d in range(dim):
            hi = (a >> d) & 1
            line = pts[:, d] if hi else 1.0 - pts[:, d]
            dline = 1.0 if hi else -1.0
            vals[:, a] *= line
            for e in range(dim):
                grads[:, a, e] *= dline if e == d else line
    return w, vals, grads


def _physical(dim: int, order: int, spacings):
    """Gauss weights times the cell volume (G,), basis values (G, 2^dim)
    and physical basis gradients (G, 2^dim, dim) of one grid cell."""
    w, vals, grads = _reference(dim, order)
    h = np.asarray(spacings)
    return w * float(np.prod(h)), vals, grads / h[None, None, :]


def _corner_offsets(node_shape):
    dim = len(node_shape)
    strides = np.ones(dim, dtype=np.int64)
    for d in range(dim - 2, -1, -1):
        strides[d] = strides[d + 1] * node_shape[d + 1]
    offs = np.zeros(2 ** dim, dtype=np.int64)
    for a in range(2 ** dim):
        for d in range(dim):
            if (a >> d) & 1:
                offs[a] += strides[d]
    return strides, offs


def _element_nodes(cells, node_shape):
    """(nel, 2^dim) global node ids of every cell, row major in the cells."""
    dim = len(cells)
    strides, offs = _corner_offsets(node_shape)
    axes = [np.arange(c) for c in cells]
    grids = np.meshgrid(*axes, indexing="ij")
    base = np.zeros(grids[0].size, dtype=np.int64)
    for d in range(dim):
        base += grids[d].ravel() * strides[d]
    return base[:, None] + offs[None, :]


# ---------------------------------------------------------------------------
# assembly


def _local_blocks(dim: int, order: int, spacings):
    """Per Gauss point outer products of physical basis gradients.

    div_blk[g, a, i, b, j]  = d_i phi_a d_j phi_b
    grad_blk[g, a, i, b, j] = delta_ij grad phi_a . grad phi_b
                              + d_j phi_a d_i phi_b
    Both already multiplied by the Gauss weight times the cell volume.
    """
    wv, _, phys = _physical(dim, order, spacings)
    div_blk = np.einsum("g,gai,gbj->gaibj", wv, phys, phys)
    swap_blk = np.swapaxes(div_blk, 2, 4)  # d_j phi_a d_i phi_b
    gg = np.einsum("g,gad,gbd->gab", wv, phys, phys)
    lap_blk = np.einsum("gab,ij->gaibj", gg, np.eye(dim))
    return div_blk, lap_blk + swap_blk


def _coefficient_samples(prob: FemProblem, order: int):
    """(lam, mu) at the Gauss points of the cells, in _reference ordering.

    A constant pair gives arrays of shape (1, G), one row that the
    assembler broadcasts over every cell; a CoefficientField gives
    (nel, G), sampled per cell.
    """
    if not isinstance(prob.coeffs, CoefficientField):
        lam, mu = prob.coeffs
        npts = order ** prob.dim
        return np.full((1, npts), lam), np.full((1, npts), mu)
    g1, _ = _gauss_1d(order)
    hx, hy = prob.spacings
    ex = prob.domain[0] + hx * np.arange(prob.cells[0])
    ey = prob.domain[2] + hy * np.arange(prob.cells[1])
    gx = (ex[:, None] + hx * g1[None, :])
    gy = (ey[:, None] + hy * g1[None, :])
    # tensor Gauss points per element, matching _reference ordering
    px = np.repeat(gx[:, None, :, None], prob.cells[1], axis=1)
    py = np.repeat(gy[None, :, None, :], prob.cells[0], axis=0)
    px = np.broadcast_to(px, (prob.cells[0], prob.cells[1], order, order))
    py = np.broadcast_to(py, (prob.cells[0], prob.cells[1], order, order))
    shape = (prob.cells[0] * prob.cells[1], order * order)
    xs = px.reshape(shape)
    ys = py.reshape(shape)
    lam = prob.coeffs.lam_at(xs.ravel(), ys.ravel()).reshape(shape)
    mu = prob.coeffs.mu_at(xs.ravel(), ys.ravel()).reshape(shape)
    return lam, mu


def _check_admissible(prob: FemProblem):
    spec = power_phi(prob.p)
    if prob.dim == 2:
        grid = prob.coeffs if isinstance(prob.coeffs, CoefficientField) \
            else constant_field(*prob.coeffs, shape=(2, 2))
        verdict = lame2d_verdict(spec, grid)
        if verdict.status != STRICT_DISSIPATIVE:
            raise NotStrict(
                f"p = {prob.p:g} is not admissible for these coefficients "
                f"(verdict {verdict.status})")
    else:
        lam, mu = prob.coeffs
        verdict = lameNd_sufficient(spec, lam, mu)
        if verdict.status != STRICT_DISSIPATIVE:
            raise NotStrict(
                f"p = {prob.p:g} fails the N-dimensional sufficient bound "
                f"(verdict {verdict.status})")


def _stencil_offsets(dim: int):
    """The 3^dim node offsets o in {-1, 0, 1}^dim, lexicographic, each with
    the corner pairs (a, b) of a cell whose bits(b) - bits(a) = o."""
    out = []
    for off in product((-1, 0, 1), repeat=dim):
        pairs = []
        for a in range(2 ** dim):
            hi = [((a >> d) & 1) + o for d, o in enumerate(off)]
            if all(0 <= t <= 1 for t in hi):
                pairs.append((a, sum(t << d for d, t in enumerate(hi))))
        out.append((off, pairs))
    return out


def _assemble(prob: FemProblem, order: int = 2):
    """Free block kff (canonical CSR, sorted and without duplicates) and
    free load vector bf of the Q1 system.

    The free unknowns are the interior nodes, row major, times the N
    displacement components.  An interior node p couples to the nodes p + o,
    o in {-1, 0, 1}^N.  The stencil plane of one offset o is the sum, over
    the corner pairs (a, b) with bits(b) - bits(a) = o, of local[a, :, b, :]
    of the cell that has p at corner a; each pair is one slice of the cells.
    Each plane is written straight into the CSR rows, dropping the
    neighbours on the boundary, where u is fixed at zero.  The load vector
    is summed the same way, one corner slice at a time.
    """
    from scipy import sparse

    dim = prob.dim
    cells = prob.cells
    inner = tuple(c - 1 for c in cells)
    nbasis = 2 ** dim
    div_blk, grad_blk = _local_blocks(dim, order, prob.spacings)
    lam, mu = _coefficient_samples(prob, order)
    ngauss = lam.shape[1]
    # one product over all cells: (nel or 1, G) times (G, (2^N N)^2), seen
    # as local[cell..., a, i, b, j], or local[a, i, b, j] for every cell
    local = (lam @ div_blk.reshape(ngauss, -1)
             + mu @ grad_blk.reshape(ngauss, -1))
    varying = len(local) > 1
    local = local.reshape((cells if varying else ())
                          + (nbasis, dim, nbasis, dim))

    def around(rows, a):
        # the cells that hold the interior nodes rows at their corner a
        return tuple(slice(r.start + 1 - ((a >> d) & 1),
                           r.stop + 1 - ((a >> d) & 1))
                     for d, r in enumerate(rows))

    # valid[p, o]: p + o is an interior node, a product over the axes.
    # A row of node p holds count[p] entries, its valid offsets in order,
    # each with the N components; those of offset o start at rank[p, o].
    valid = np.ones(inner + (3,) * dim, dtype=bool)
    for d, n in enumerate(inner):
        q = np.arange(n)[:, None] + np.arange(-1, 2)
        shape = [1] * (2 * dim)
        shape[d], shape[dim + d] = n, 3
        valid &= ((q >= 0) & (q < n)).reshape(shape)
    rank = np.cumsum(valid.reshape(inner + (-1,)), axis=-1, dtype=np.int32)
    count = rank[..., -1] * dim
    rank = (rank - 1) * dim
    nnz = int(count.sum()) * dim
    itype = np.int32 if nnz < 2 ** 31 else np.int64
    indptr = np.zeros(count.size * dim + 1, dtype=itype)
    np.cumsum(np.repeat(count.ravel(), dim), out=indptr[1:])
    first = indptr[:-1].reshape(inner + (dim, 1))  # where row (p, i) starts
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=itype)
    nodes = np.arange(count.size, dtype=itype).reshape(inner + (1, 1)) * dim
    comp = np.arange(dim, dtype=itype)
    for s, (off, pairs) in enumerate(_stencil_offsets(dim)):
        rows = tuple(slice(max(0, -o), n - max(0, o))
                     for o, n in zip(off, inner))
        cols = tuple(slice(r.start + o, r.stop + o) for r, o in zip(rows, off))
        pos = first[rows] + rank[rows + (s, None, None)] + comp
        data[pos] = sum(local[(around(rows, a) if varying else ())
                              + (a, slice(None), b)] for a, b in pairs)
        indices[pos] = nodes[cols] + comp
    kff = sparse.csr_array((data, indices, indptr),
                           shape=(indptr.size - 1,) * 2)

    # rhs: r[(a,J)] = int Fhat_{iJ} d_i phi_a, with Fhat the Q1 interpolant,
    # is T[a, (i,b)] = sum_g w_g d_i phi_a(g) phi_b(g) times the corner
    # values of F gathered as rows (i, b) and columns (cell, J)
    wv, vals, phys = _physical(dim, order, prob.spacings)
    load_op = np.einsum("g,gai,gb->aib", wv, phys, vals).reshape(nbasis, -1)
    enodes = _element_nodes(cells, prob.node_shape)
    f_corners = prob.rhs.reshape(-1, dim, dim).transpose(1, 0, 2)[
        :, enodes.T].reshape(dim * nbasis, -1)
    r_loc = (load_op @ f_corners).reshape((nbasis,) + cells + (dim,))
    interior = tuple(slice(0, n) for n in inner)
    bf = sum(r_loc[(a,) + around(interior, a)] for a in range(nbasis))
    return kff, bf.ravel()


# ---------------------------------------------------------------------------
# geometric multigrid preconditioner

# The coarsest level is factorised by splu when it has at most this many
# unknowns; a larger one, on a grid that cannot be halved, is only smoothed.
_COARSE_DIRECT = 4000
# Damped Jacobi sweeps before and after each coarse correction.
_SWEEPS = 2
# The Jacobi damping is _DAMPING / G, with G the Gershgorin bound on the
# spectral radius of D^-1 A; any value below 2 keeps the smoother convergent.
_DAMPING = 1.3


def _interpolant_1d(cells: int):
    """Linear interpolation from the cells/2 - 1 interior nodes of the
    halved axis to the cells - 1 interior nodes of the fine one (stencil
    1/2, 1, 1/2); the boundary nodes carry no free unknowns."""
    from scipy import sparse

    coarse = cells // 2 - 1
    j = np.arange(coarse)
    rows = np.concatenate([2 * j, 2 * j + 1, 2 * j + 2])
    vals = np.repeat([0.5, 1.0, 0.5], coarse)
    return sparse.csr_array((vals, (rows, np.tile(j, 3))),
                            shape=(cells - 1, coarse))


def _jacobi_scale(a):
    """omega / a_ii per row, with omega = _DAMPING / G."""
    diag = a.diagonal()
    rowsum = np.add.reduceat(np.abs(a.data), a.indptr[:-1])
    gershgorin = float(np.max(rowsum / diag))
    return (_DAMPING / gershgorin) / diag


def _hierarchy(kff, cells):
    """Galerkin levels of the free block: [(A, scale, P)] from fine to
    coarse, then the coarsest (A, scale, splu factor or None).

    Each axis is halved while every cell count is even with a half of at
    least 4; P is the Kronecker product of the 1-D interpolants times the
    identity on the node-major displacement components, and the coarse
    operator is P^T A P, so no level is re-assembled.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    dim = len(cells)
    levels = []
    a = kff
    while all(c % 2 == 0 and c // 2 >= 4 for c in cells):
        p = reduce(sparse.kron, [_interpolant_1d(c) for c in cells]
                   + [sparse.eye_array(dim)]).tocsr()
        # kron carries int64 indices; int32 ones, as the free block has,
        # keep the Galerkin products and the coarse levels int32 too
        itype = np.int32 if p.nnz < 2 ** 31 else np.int64
        p = sparse.csr_array((p.data, p.indices.astype(itype),
                              p.indptr.astype(itype)), shape=p.shape)
        levels.append((a, _jacobi_scale(a), p))
        # P^T as CSR: a CSC left factor would make scipy copy A to CSC
        a = p.T.tocsr() @ a @ p
        cells = tuple(c // 2 for c in cells)
    lu = splu(a.tocsc()) if a.shape[0] <= _COARSE_DIRECT else None
    return levels, (a, _jacobi_scale(a), lu)


def _smooth(a, scale, b, x, sweeps: int):
    for _ in range(sweeps):
        x = x + scale * (b - a @ x)
    return x


def _vcycle(levels, coarsest, r):
    """One symmetric V-cycle from a zero guess: the preconditioner M r.

    A loop over the levels rather than a self-calling closure, so that no
    reference cycle keeps the hierarchy alive after the solve.
    """
    rhs, iterates = [], []
    for a, scale, p in levels:
        x = _smooth(a, scale, r, scale * r, _SWEEPS - 1)
        rhs.append(r)
        iterates.append(x)
        r = p.T @ (r - a @ x)
    a, scale, lu = coarsest
    x = lu.solve(r) if lu is not None \
        else _smooth(a, scale, r, scale * r, 2 * _SWEEPS - 1)
    for (a, scale, p), b, x0 in zip(reversed(levels), reversed(rhs),
                                    reversed(iterates)):
        x = _smooth(a, scale, b, x0 + p @ x, _SWEEPS)
    return x


def _preconditioner(kff, cells) -> LinearOperator:
    from scipy.sparse.linalg import LinearOperator

    levels, coarsest = _hierarchy(kff, cells)
    return LinearOperator(kff.shape, dtype=kff.dtype,
                          matvec=partial(_vcycle, levels, coarsest))


def assemble_and_solve(prob: FemProblem) -> FemSolution:
    """Assemble the Q1 system, solve it and attach the energy bookkeeping.

    CG preconditioned by one geometric multigrid V-cycle runs to a fixed
    1e-10 relative residual, with at most 20000 iterations.  The solved
    field is then sampled once at order-4 Gauss points, and those samples
    give both the weighted energies, at the levels 2, 4, 8 and
    max(2, 2 u_max + 1) (u_max the largest nodal |u|) plus the untruncated
    value under inf, and the load norm.

    Raises NotStrict when the declared p fails the admissibility test for
    the coefficients and SolverDiverged if CG does not reach the residual;
    a bad coefficient pair is already rejected by FemProblem.
    """
    from scipy.sparse.linalg import cg

    _check_admissible(prob)
    kff, bf = _assemble(prob)
    dim = prob.dim
    xf = np.zeros_like(bf)
    iterations = 0
    if np.any(bf != 0.0):
        def tick(_):
            nonlocal iterations
            iterations += 1

        xf, info = cg(kff, bf, rtol=1e-10, atol=0.0, maxiter=20000,
                      M=_preconditioner(kff, prob.cells), callback=tick)
        if info != 0:
            raise SolverDiverged(f"conjugate gradients stopped with "
                                 f"info = {info}")
    # u is zero on the boundary, so the free block carries both sums
    energy = 0.5 * float(xf @ (kff @ xf))
    work = float(bf @ xf)
    del kff, bf  # not held while the Gauss samples are taken
    u = np.zeros(prob.node_shape + (dim,))
    u[(slice(1, -1),) * dim] = xf.reshape(tuple(c - 1 for c in prob.cells)
                                          + (dim,))
    samples = _gauss_samples(prob, u)
    umax = float(np.max(np.linalg.norm(u.reshape(-1, dim), axis=1)))
    levels = [2.0, 4.0, 8.0, max(2.0, 2.0 * umax + 1.0)]
    return FemSolution(
        problem=prob, u=u, energy=energy, rhs_work=work,
        weighted_energies=_weighted_energies(samples, prob.p, levels),
        sobolev_norm_F=_load_norm(prob, samples), iterations=iterations)


# ---------------------------------------------------------------------------
# quadrature over the solved field


def _gauss_samples(prob: FemProblem, u: np.ndarray, order: int = 4):
    """|u|, |grad u|^2 and |F| at order-4 Gauss points with their weights,
    each flat over (cell, Gauss point).

    The cells run in blocks of about _SAMPLE_BLOCK Gauss points, so the
    transients are bounded by the block, not the grid: about 180 bytes per
    point in 3-D, 12 MB in all.  In each block the corner values of u and
    F are gathered with the corner index first, so each interpolation is
    one (G, 2^dim) matrix product over the block's cells; the norms are
    reductions over the component axes, written into the preallocated
    outputs.
    """
    dim = prob.dim
    wv, vals, phys = _physical(dim, order, prob.spacings)
    enodes = _element_nodes(prob.cells, prob.node_shape)
    nel, nbasis = enodes.shape
    ngauss = len(wv)
    # rows (g, i) of d_i phi_b, so grad_g[g, i, e, j] = d_i u_j
    dphi = phys.transpose(0, 2, 1).reshape(-1, nbasis)
    u_nodes = u.reshape(-1, dim)
    f_nodes = prob.rhs.reshape(-1, dim * dim)
    umag, grad_sq, fmag = (np.empty((nel, ngauss)) for _ in range(3))
    step = _SAMPLE_BLOCK // ngauss
    for lo in range(0, nel, step):
        corners = enodes[lo:lo + step].T
        nb = corners.shape[1]
        rows = slice(lo, lo + nb)
        u_corners = u_nodes[corners].reshape(nbasis, -1)
        u_g = (vals @ u_corners).reshape(ngauss, nb, dim)
        np.einsum("gej,gej->eg", u_g, u_g, out=umag[rows])
        grad_g = (dphi @ u_corners).reshape(ngauss, dim, nb, dim)
        np.einsum("giej,giej->eg", grad_g, grad_g, out=grad_sq[rows])
        f_g = (vals @ f_nodes[corners].reshape(nbasis, -1)).reshape(
            ngauss, nb, dim * dim)
        np.einsum("gek,gek->eg", f_g, f_g, out=fmag[rows])
    weights = np.broadcast_to(wv[None, :], (nel, ngauss)).ravel()
    return (np.sqrt(umag, out=umag).ravel(), grad_sq.ravel(),
            np.sqrt(fmag, out=fmag).ravel(), weights)


def _weighted_energies(samples, p: float, k_list) -> dict:
    """Map each level k to int |grad u|^2 phi_k(|u|) over the samples, and
    inf to the untruncated int |grad u|^2 |u|^{p-2}.

    One pass over blocks of _SAMPLE_BLOCK samples adds each block's share
    of every level and of the untruncated value, so the temporaries are
    bounded by the block, not the grid.  A level listed twice is summed
    once.
    """
    umag, grad_sq, _, weights = samples
    specs = {float(k): truncated_power(p, float(k)) for k in k_list}
    out = dict.fromkeys([*specs, float("inf")], 0.0)
    for b in _blocks(umag.size):
        u = umag[b]
        wg = weights[b] * grad_sq[b]
        for k, spec in specs.items():
            out[k] += float(np.sum(wg * spec.phi(u)))
        if p > 2.0:
            live = u > 0.0
            wg = wg * np.where(live, u, 1.0) ** (p - 2.0) * live
        out[float("inf")] += float(np.sum(wg))
    return out


def weighted_energy(sol: FemSolution, p: float, k_list) -> dict:
    """Map k -> int |grad u|^2 phi_k(|u|) dx, plus the untruncated value.

    phi_k is the truncated power weight; once k exceeds the solution range
    the truncation never engages and the value equals
    int |grad u|^2 |u|^{p-2} dx exactly, reported under the key inf.
    """
    return _weighted_energies(_gauss_samples(sol.problem, sol.u), p, k_list)


def _load_norm(prob: FemProblem, samples) -> float:
    """The F-side norm of the energy estimate, from the solve's samples.

    N >= 3: Lebesgue norm ||F||_{Np/(N+p-2)} as a plain integral power.
    N = 2: Luxemburg norm of |F|^2 for log_young(p), the degenerate tail
    Young function t (log(t + e))^{(p-2)/p}; for p = 2 it collapses to the
    L^1 norm of |F|^2.

    The integrals run over blocks of _SAMPLE_BLOCK samples; the Luxemburg
    gauge holds one |F|^2 array beside the samples and otherwise works in
    blocks too.
    """
    _, _, fmag, weights = samples
    dim = prob.dim
    p = prob.p
    if dim >= 3:
        q = dim * p / (dim + p - 2.0)
        return _block_sum(lambda w, f: w * f ** q, weights, fmag) ** (1.0 / q)
    if p > 2.0:
        n_tilde, _ = log_young(p)
        sample = SampledField(values=fmag ** 2, weights=weights)
        return luxemburg_norm(sample, n_tilde)
    return _block_sum(lambda w, f: w * f ** 2, weights, fmag)


def regularity_ratio(sol: FemSolution) -> float:
    """LHS / RHS of the weighted energy estimate for this solve.

    LHS = int |grad u|^2 |u|^{p-2};  RHS = (int |F|^{Np/(N+p-2)})^{(N+p-2)/N}
    for N >= 3 and the Orlicz version |||F|^2||^{p/2} for N = 2.  Both sides
    scale like c^p under F -> cF, so the ratio is a scale free health
    number; it is 0 for F = 0 and finite whenever F is nontrivial.
    """
    prob = sol.problem
    lhs = sol.weighted_energies[float("inf")]
    norm = sol.sobolev_norm_F
    if norm == 0.0:
        return 0.0
    dim = prob.dim
    if dim >= 3:
        # norm is the q-norm; the estimate uses (int |F|^q)^{(N+p-2)/N}
        q = dim * prob.p / (dim + prob.p - 2.0)
        rhs = (norm ** q) ** ((dim + prob.p - 2.0) / dim)
    else:
        rhs = norm ** (prob.p / 2.0)
    return lhs / rhs


@dataclass(frozen=True)
class HolderSplitReport:
    alpha: Fraction | None  # None encodes the p = 2 endpoint (alpha = inf)
    alpha_prime: Fraction
    conjugate_ok: bool
    k: float
    chain_worst_slack: float
    split_lhs: float
    split_rhs: float
    split_slack: float


def holder_split_check(sol: FemSolution, k: float = 3.0) -> HolderSplitReport:
    """Certify the exponent bookkeeping behind the weighted estimate.

    With alpha = Np/((N-2)(p-2)) and alpha' = Np/(2(N+p)-4) the pair is
    conjugate (checked exactly in rationals), the truncated weight obeys
    phi_k(|u|) <= |v_k|^{2(p-2)/p} pointwise for v_k = sqrt(phi_k(|u|)) u,
    and int |F|^2 phi_k(|u|) splits by Holder against those exponents.
    Needs N >= 3; the planar case runs on the Orlicz route instead.
    """
    prob = sol.problem
    if prob.dim < 3:
        raise ValueError("the Holder split needs N >= 3")
    p = prob.p
    n = prob.dim
    pf = Fraction(p)  # exact for float input; conjugacy is then symbolic
    alpha_prime = (n * pf) / (2 * (n + pf) - 4)
    if p == 2.0:
        # alpha degenerates to infinity and the split pair is (sup, L^1)
        alpha = None
        conj = alpha_prime == 1
    else:
        alpha = (n * pf) / ((n - 2) * (pf - 2))
        conj = (1 / alpha + 1 / alpha_prime) == 1

    umag, _, fmag, weights = _gauss_samples(prob, sol.u)
    spec = truncated_power(p, float(k))
    phik = spec.phi(umag)
    vmag_sq = phik * umag * umag
    chain_rhs = vmag_sq ** ((p - 2.0) / p) if p > 2.0 \
        else np.ones_like(phik)
    chain_slack = float(np.min(chain_rhs - phik))

    lhs = float(np.sum(weights * fmag ** 2 * phik))
    ap = float(alpha_prime)
    if alpha is None:
        rhs = (float(np.max(phik, initial=0.0))
               * float(np.sum(weights * fmag ** (2.0 * ap))) ** (1.0 / ap))
    else:
        a = float(alpha)
        rhs = (float(np.sum(weights * phik ** a)) ** (1.0 / a)
               * float(np.sum(weights * fmag ** (2.0 * ap))) ** (1.0 / ap))
    return HolderSplitReport(alpha=alpha, alpha_prime=alpha_prime,
                             conjugate_ok=bool(conj), k=float(k),
                             chain_worst_slack=chain_slack,
                             split_lhs=lhs, split_rhs=rhs,
                             split_slack=rhs - lhs)


# ---------------------------------------------------------------------------
# reference problems


def manufactured_problem(cells: int, lam: float = 1.0, mu: float = 1.0,
                         amp: float = 1.0, p: float = 2.0) -> FemProblem:
    """2-D manufactured case u* = amp (s, s), s = sin(pi x) sin(pi y).

    F_ij = mu d_i u*_j + (lambda + mu) (div u*) delta_ij reproduces the weak
    form of u* exactly against every test function, so the discrete solution
    is the Galerkin projection of u*.
    """
    nodes = cells + 1
    xs = np.linspace(0.0, 1.0, nodes)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    sx, cx = np.sin(np.pi * x), np.cos(np.pi * x)
    sy, cy = np.sin(np.pi * y), np.cos(np.pi * y)
    dsx = np.pi * cx * sy   # d_1 s
    dsy = np.pi * sx * cy   # d_2 s
    div = dsx + dsy
    f = np.zeros((nodes, nodes, 2, 2))
    for j in range(2):
        f[:, :, 0, j] = mu * dsx
        f[:, :, 1, j] = mu * dsy
    f[:, :, 0, 0] += (lam + mu) * div
    f[:, :, 1, 1] += (lam + mu) * div
    return FemProblem(domain=(0.0, 1.0, 0.0, 1.0), cells=(cells, cells),
                      coeffs=(lam, mu), rhs=amp * f, p=p)


def manufactured_reference(prob: FemProblem, amp: float = 1.0) -> np.ndarray:
    xs, ys = prob.node_axes()
    x, y = np.meshgrid(xs, ys, indexing="ij")
    s = amp * np.sin(np.pi * x) * np.sin(np.pi * y)
    return np.stack([s, s], axis=-1)


def fiber_problem(cells_x: int = 32, aspect: int = 16, lam: float = 1.0,
                  mu: float = 1.0) -> FemProblem:
    """Quasi 1-D strip [0,1] x [0,aspect]: F11 = 1 on x <= 1/2, else 0.

    Away from the far walls the displacement reduces to the two point
    boundary problem (lam + 2 mu) u1'' = d F11/dx, whose solution is a hat
    with peak near 0.25/(lam + 2 mu) at x = 1/2.
    """
    cells_y = cells_x * aspect
    nodes = (cells_x + 1, cells_y + 1)
    xs = np.linspace(0.0, 1.0, nodes[0])
    f = np.zeros(nodes + (2, 2))
    f[:, :, 0, 0] = (xs <= 0.5)[:, None]
    return FemProblem(domain=(0.0, 1.0, 0.0, float(aspect)),
                      cells=(cells_x, cells_y), coeffs=(lam, mu), rhs=f,
                      p=2.0)


def fiber_reference(prob: FemProblem) -> np.ndarray:
    """Exact midline profile for the nodal interpolant of the fiber load.

    The nodal F11 ramps from 1 to 0 over the single cell right of x = 1/2,
    so with m = int Fhat = 1/2 + h/2 the exact solution of
    (lam + 2 mu) u1' = Fhat - m, u1(0) = u1(1) = 0, is piecewise quadratic;
    linear elements reproduce it exactly at the nodes.
    """
    lam, mu = prob.coeffs
    xs = prob.node_axes()[0]
    h = prob.spacings[0]
    m = 0.5 + 0.5 * h

    def cum_fhat(x):
        # integral of the nodal interpolant of F11 from 0 to x
        ramp_end = 0.5 + h
        out = np.where(x <= 0.5, x, 0.0)
        mid = (x > 0.5) & (x < ramp_end)
        out = np.where(mid, 0.5 + (x - 0.5)
                       - 0.5 * (x - 0.5) ** 2 / h, out)
        return np.where(x >= ramp_end, 0.5 + 0.5 * h, out)

    return (cum_fhat(xs) - m * xs) / (lam + 2.0 * mu)
