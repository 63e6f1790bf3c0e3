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

The operator is the free block, the interior nodes where u is not fixed.
Each interior node couples to its 3^N neighbours, and the stencil plane of
each neighbour offset sums slices of the per-cell matrices over the corner
pairs at that offset.  A constant pair has one (N, N) block per offset,
the same on every row, and a planar CoefficientField one per node; either
is applied by slice products on the node grid, never stored as a matrix.

The free block is solved by conjugate gradients preconditioned with one
symmetric geometric multigrid V-cycle: linear interpolation P between
grids halved along some axes, damped Jacobi smoothing and a direct solve
on a coarsest grid of at most 6 cells per axis.  Each level halves every
axis of at least 7 cells whose cells are at most twice as wide as the
narrowest of those axes (semicoarsening of the strongly coupled axes), and
an odd count c becomes (c + 1) / 2 cells, the last of which spans one fine
cell (vertex-centred coarsening).  Every vector of the solve lives on the
node grid, components first, with a zero rim where u is fixed: the load,
the CG iterates and the V-cycle's residuals and corrections.  P and P^T
are slice passes along each halved axis.  The element quadrature runs
once, on the fine grid, and every coarse operator comes from one rule: the
cell matrices of each coarse cell's children summed against the coarse
basis, which forms the Galerkin product P^T A P without P.  A
CoefficientField gets P^T A P on every level.  A constant pair coarsens its
one cell matrix to the one matrix of a coarse cell with two children per
halved axis: P^T A P after even halvings, and below an odd end a
rediscretization that leaves out the narrower last cell.  The coarsest
level's interior block is inverted as a dense matrix, built from the same
stencil planes, so the stencil planes are the one description of the
operator and grid layout the one vector layout.  The iteration count
does not grow with the grid at a fixed lambda/mu.

The solver exists to probe the weighted energy estimate

    int |grad u|^2 |u|^{p-2} dx <= C ( int |F|^{Np/(N+p-2)} )^{(N+p-2)/N}

through truncated weights and refinement studies, not to be a general
purpose elasticity code.  Each solve samples |u|, |grad u|^2 and |F| in
one pass at order-4 Gauss points, in fixed blocks of cells, and each block
adds its share to both sides of the estimate, so no sample array scales
with the grid but the planar |F|^2 that the Orlicz gauge re-reads.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Mapping

import numpy as np

from .coefficients import CoefficientField, constant_field
from .criteria import (
    STRICT_DISSIPATIVE,
    constant_threshold,
    lame2d_verdict,
    lameNd_sufficient,
)
from .errors import NotStrict, SolverDiverged
from .orlicz import _SAMPLE_BLOCK, _abs_max, _gauge, _gauge_terms, log_young
from .phi import power_phi, truncated_power

__all__ = [
    "FemProblem",
    "FemSolution",
    "assemble_and_solve",
    "scaled_solution",
    "weighted_energy",
    "regularity_ratio",
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


def _element_nodes(cells, node_shape, rows=slice(None)):
    """(nel, 2^dim) global node ids of the cells, row major, or of the
    cells in the range rows of that order."""
    strides, offs = _corner_offsets(node_shape)
    ids = np.arange(*rows.indices(math.prod(cells)))
    index = np.unravel_index(ids, cells)
    base = sum(i * s for i, s in zip(index, strides))
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
    (nel, G), sampled per cell, in blocks of whole cell rows of at most
    _SAMPLE_BLOCK Gauss points, so the coordinates and the temporaries of
    the lookup are bounded by the block, not the grid.
    """
    if not isinstance(prob.coeffs, CoefficientField):
        lam, mu = prob.coeffs
        npts = order ** prob.dim
        return np.full((1, npts), lam), np.full((1, npts), mu)
    g1, _ = _gauss_1d(order)
    (hx, hy), (nx, ny) = prob.spacings, prob.cells
    ex = prob.domain[0] + hx * np.arange(nx)
    ey = prob.domain[2] + hy * np.arange(ny)
    gx = (ex[:, None] + hx * g1[None, :])
    gy = (ey[:, None] + hy * g1[None, :])
    lam, mu = (np.empty((nx * ny, order * order)) for _ in range(2))
    step = max(1, _SAMPLE_BLOCK // (ny * order * order))
    for lo in range(0, nx, step):
        # tensor Gauss points of the cell rows lo.., matching _reference
        shape = (min(step, nx - lo), ny, order, order)
        xs = np.broadcast_to(gx[lo:lo + step, None, :, None], shape)
        ys = np.broadcast_to(gy[None, :, None, :], shape)
        rows = slice(lo * ny, (lo + shape[0]) * ny)
        lam[rows], mu[rows] = (v.reshape(-1, order * order) for v in
                               prob.coeffs._lame_at(xs.ravel(), ys.ravel()))
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


def _cell_matrices(prob: FemProblem):
    """The Q1 cell matrices local[..., a, i, b, j] of the bilinear form on
    the problem's grid, with the 2-point Gauss rule.

    One product over all cells: (nel or 1, G) coefficient samples times
    (G, (2^N N)^2) Gauss blocks, seen as local[cell..., a, i, b, j] for a
    CoefficientField and as one local[a, i, b, j] shared by every cell for
    a constant pair.
    """
    dim = prob.dim
    nbasis = 2 ** dim
    div_blk, grad_blk = _local_blocks(dim, 2, prob.spacings)
    lam, mu = _coefficient_samples(prob, 2)
    ngauss = lam.shape[1]
    local = (lam @ div_blk.reshape(ngauss, -1)
             + mu @ grad_blk.reshape(ngauss, -1))
    return local.reshape((prob.cells if len(local) > 1 else ())
                         + (nbasis, dim, nbasis, dim))


def _coarse_cells(c: int, halved: bool) -> int:
    """The cell count of an axis of c cells on the next level."""
    return (c + 1) // 2 if halved else c


def _children(c: int, halved: bool):
    """The coarse cells of one axis as ranges with the same children:
    [(coarse cells, [(fine cells, r), ...])], with r[e, B] the 1-D coarse
    basis function B (0 low, 1 high) at the child's corner e.  A halved
    axis gives coarse cell C the low and high halves 2C and 2C + 1, and an
    odd end its last fine cell whole; an axis kept whole gives C the child
    C."""
    whole = np.eye(2)
    if not halved:
        return [(slice(None), [(slice(None), whole)])]
    m = c // 2
    halves = (np.array([[1.0, 0.0], [0.5, 0.5]]),
              np.array([[0.5, 0.5], [0.0, 1.0]]))
    parts = [(slice(0, m), [(slice(t, 2 * m, 2), r)
                            for t, r in enumerate(halves)])]
    if c % 2:
        parts.append((slice(m, m + 1), [(slice(c - 1, c), whole)]))
    return parts


def _coarsen(local, cells, halved):
    """The cell matrices on the next level, halved along the axes that
    halved flags: local[cell..., a, i, b, j] per cell, or a constant
    pair's one local[a, i, b, j] shared by every cell.

    Coarse cell C takes sum_k R_k^T local[k] R_k over its children k (2 per
    halved axis but at an odd end, 1 per other axis), with R_k[a, A] the
    coarse Q1 basis function A at corner a of child k, the product of the
    1-D weights of _children.  The coarse space is nested in the fine one
    and P maps interior nodes to interior nodes, so the coarse free block
    is P^T A P exactly.  The children are read as strided views of local.

    A shared matrix gives one shared matrix, that of a coarse cell with two
    children along each halved axis and one along the others, so the level
    keeps one stencil.  That is P^T A P after even halvings; below an odd
    end the one matrix leaves out the narrower last cell, which spans a
    single fine cell, so the level is a rediscretization there.
    """
    dim = len(cells)
    if local.ndim == 4:
        two = tuple(2 if h else 1 for h in halved)
        return _coarsen(np.broadcast_to(local, two + local.shape), two,
                        halved)[(0,) * dim]
    nbasis = 2 ** dim
    coarse = np.zeros(tuple(_coarse_cells(c, h) for c, h in zip(cells, halved))
                      + local.shape[dim:])
    for part in product(*(_children(c, h) for c, h in zip(cells, halved))):
        at = tuple(s for s, _ in part)
        out = coarse[at]
        for kids in product(*(k for _, k in part)):
            # r_t[B, a]: coarse basis B at corner a, one factor per axis
            r_t = np.array([[math.prod(r[(a >> d) & 1, (b >> d) & 1]
                                       for d, (_, r) in enumerate(kids))
                             for a in range(nbasis)] for b in range(nbasis)])
            child = local[tuple(s for s, _ in kids)]
            # b, then a: each product is the size of the coarse cells
            half = (r_t @ child).reshape(out.shape[:dim] + (nbasis, -1))
            out += (r_t @ half).reshape(out.shape)
    return coarse


def _offset_rows(off, inner):
    """The interior nodes, as slices of the inner grid, whose neighbour at
    the offset off is an interior node too."""
    return tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(off, inner))


def _plane(local, rows, pairs):
    """The stencil plane of one offset at the interior nodes rows: the sum,
    over the offset's corner pairs (a, b), of local[a, :, b] of the cell
    that has each node at corner a.  (N, N) for a constant pair, whose one
    cell matrix serves every node, and rows + (N, N) for a
    CoefficientField, each pair one slice of the cells."""
    if local.ndim == 4:
        return sum(local[a, :, b] for a, b in pairs)
    return sum(local[tuple(slice(r.start + 1 - ((a >> d) & 1),
                                 r.stop + 1 - ((a >> d) & 1))
                           for d, r in enumerate(rows))
                     + (a, slice(None), b)] for a, b in pairs)


def _interior(dim: int):
    """The interior nodes of a grid-layout array (N,) + node_shape."""
    return (slice(None),) + (slice(1, -1),) * dim


def _load_vector(prob: FemProblem, order: int = 2):
    """Load vector bf in grid layout, as a stencil over the nodal load.

    r[(a,J)] = int Fhat_{iJ} d_i phi_a, with Fhat the Q1 interpolant, is
    T[a, i, b] = sum_g w_g d_i phi_a(g) phi_b(g) times the corner values
    F[b]_{iJ} of the cell.  Summed over the cells around an interior node
    p, the corner pairs (a, b) of one offset o = bits(b) - bits(a) all read
    F at p + o, so bf[J, p] = sum_o sum_i W_o[i] F_{iJ}[p + o] with W_o[i]
    the sum of T[a, i, b] over those pairs: N scalar-times-slice products
    per offset, no array per cell.  The rim, where u is fixed, stays zero.
    As in _Stencil, weights that vanish by symmetry, rounding noise near
    1e-17 of the largest, are skipped.
    """
    dim = prob.dim
    inner = tuple(c - 1 for c in prob.cells)
    wv, vals, phys = _physical(dim, order, prob.spacings)
    load_op = np.einsum("g,gai,gb->aib", wv, phys, vals)
    planes = [(off, sum(load_op[a, :, b] for a, b in pairs))
              for off, pairs in _stencil_offsets(dim)]
    floor = 1e-15 * max(float(np.max(np.abs(w))) for _, w in planes)
    # F_{iJ} first, contiguous, so each product reads whole node slices
    rhs = np.ascontiguousarray(np.moveaxis(prob.rhs, (-2, -1), (0, 1)))
    bf = np.zeros((dim,) + prob.node_shape)
    acc = bf[_interior(dim)]
    tmp = np.empty(acc.shape)
    for off, weight in planes:
        src = rhs[(slice(None),) * 2 + tuple(slice(1 + o, 1 + o + m)
                                             for o, m in zip(off, inner))]
        for w, f in zip(weight, src):
            if abs(w) > floor:
                acc += np.multiply(f, w, out=tmp)
    return bf.ravel()


class _Stencil:
    """The free block as 3^N stencil planes of (N, N) blocks, applied on
    grid-layout vectors without storing it as a matrix.

    A grid-layout vector is the node grid, components first, shape (N,) +
    node_shape flattened, whose rim stands for the boundary where u is zero
    and must be zero on input.  The planes are _plane's: one block per
    offset for a constant pair, and one per node for a CoefficientField,
    each entry stored on the flat grid, zero on the rim and where the
    neighbour is on the rim.  A neighbour offset is one shift of the flat
    grid, so each block entry is a product of two contiguous ranges; a
    range spans the interior nodes and the rim entries between them, which
    are computed and then zeroed, one strided slice write per axis.  A
    constant pair sums the entries of one output component that share a
    magnitude before their one product: 10 products for the 26 nonzero
    entries in 2-D, and 24 for 153 in 3-D, at equal spacings.  diag and
    rowsum, the diagonal and the absolute row sums of the interior rows,
    have shape (N,) + inner, or (N,) + (1,) * N for a constant pair.
    """

    def __init__(self, local, cells):
        dim = len(cells)
        self.cells = tuple(cells)
        self.nodes = tuple(c + 1 for c in cells)
        strides = [math.prod(self.nodes[d + 1:]) for d in range(dim)]
        # flat indices of the first interior node and of the range that
        # runs from it to the last one
        self.first = sum(strides)
        self.span = math.prod(self.nodes) - 2 * self.first
        lo, hi = self.first, self.first + self.span
        # nodes 0 and c of each axis, the rim
        self.rim = [_along(d, slice(None, None, c))
                    for d, c in enumerate(cells)]
        varying = local.ndim > 4
        inner = tuple(c - 1 for c in cells)
        interior = (slice(None),) * 2 + (slice(1, -1),) * dim
        planes = []
        for off, pairs in _stencil_offsets(dim):
            rows = _offset_rows(off, inner)
            block = _plane(local, rows, pairs)
            if varying:
                grid = np.zeros((dim, dim) + self.nodes)
                grid[interior][(slice(None),) * 2 + rows] = np.moveaxis(
                    block, (-2, -1), (0, 1))
                block = grid
            planes.append((off, block))
        # entries that vanish by symmetry sum to rounding noise near 1e-17
        # of the largest; every other entry is within a few orders of it
        floor = 1e-15 * max(float(np.max(np.abs(b))) for _, b in planes)
        # groups[i][key] = [c, ranges added, ranges subtracted] of the
        # output component i, a range being (component j, start); a
        # constant pair's key is |c|
        groups = [{} for _ in range(dim)]
        self.rowsum = 0.0
        for off, block in planes:
            # the block at the interior nodes, the constant one broadcast
            on_inner = block[interior] if varying \
                else block.reshape((dim, dim) + (1,) * dim)
            if not any(off):
                self.diag = np.stack([on_inner[i, i] for i in range(dim)])
            self.rowsum += np.abs(on_inner).sum(axis=1)
            start = self.first + sum(o * s for o, s in zip(off, strides))
            for i, j in np.ndindex(dim, dim):
                if varying:
                    groups[i][start, j] = [block[i, j].reshape(-1)[lo:hi],
                                           [(j, start)], []]
                elif abs(block[i, j]) > floor:
                    c = float(block[i, j])
                    group = groups[i].setdefault(abs(c), [c, [], []])
                    group[1 if c == group[0] else 2].append((j, start))
        # terms[i] = [(c, first range, [(ufunc, range), ...])]: the first
        # range of a group, then the others added or subtracted in turn
        self.terms = [[(c, plus[0], [(np.add, r) for r in plus[1:]]
                        + [(np.subtract, r) for r in minus])
                       for c, plus, minus in g.values()] for g in groups]

    def matvec(self, x):
        dim = len(self.cells)
        x = x.reshape(dim, -1)
        y = np.empty_like(x)
        tmp = np.empty(self.span)
        lo, hi = self.first, self.first + self.span
        for acc, terms in zip(y[:, lo:hi], self.terms):
            for k, (c, (j, s), more) in enumerate(terms):
                src = x[j, s:s + self.span]
                for op, (j, s) in more:
                    src = op(src, x[j, s:s + self.span], out=tmp)
                if k:
                    acc += np.multiply(src, c, out=tmp)
                else:
                    np.multiply(src, c, out=acc)
        # every node outside [lo, hi) is on the rim
        grid = y.reshape((dim,) + self.nodes)
        for rim in self.rim:
            grid[rim] = 0.0
        return y.reshape(-1)

    __matmul__ = matvec


# ---------------------------------------------------------------------------
# geometric multigrid preconditioner

# Damped Jacobi sweeps before and after each coarse correction.
_SWEEPS = 2
# The Jacobi damping is _DAMPING / G, with G the Gershgorin bound on the
# spectral radius of D^-1 A; any value below 2 keeps the smoother convergent.
_DAMPING = 1.3


def _along(d: int, s: slice):
    """Index of the slice s of grid axis d in a grid-layout array."""
    return (slice(None),) * (d + 1) + (s,)


def _restrict(r, cells, halved):
    """P^T r on the node grid, one slice pass per halved axis: the coarse
    node k takes f[2k] + (f[2k-1] + f[2k+1]) / 2 of the fine nodes along
    it, and the coarse rim stays zero.  At an odd end the last coarse
    interior node sits at the fine node c - 1, and the f[c] it reads is the
    fine rim, zero on input.  The last axis, whose reads are strided, goes
    last, when the array is smallest."""
    dim = len(cells)
    v = r.reshape((dim,) + tuple(c + 1 for c in cells))
    for d, (c, halve) in enumerate(zip(cells, halved)):
        if not halve:
            continue
        m = (c + 1) // 2
        shape = list(v.shape)
        shape[d + 1] = m + 1
        out = np.empty(shape)
        inner = out[_along(d, slice(1, -1))]
        np.add(v[_along(d, slice(1, c - 1, 2))],
               v[_along(d, slice(3, c + 1, 2))], out=inner)
        inner *= 0.5
        inner += v[_along(d, slice(2, c, 2))]
        out[_along(d, slice(None, None, m))] = 0.0
        v = out
    return v.reshape(-1)


def _prolong(x, cells, halved):
    """P x on the node grid, one slice pass per halved axis: the fine node
    2k takes the coarse node k, and 2k + 1 the mean of k and k + 1; at an
    odd end the last coarse cell spans the one fine cell from c - 1 to c,
    so the fine node c takes the last coarse node.  The last axis, whose
    writes are strided, goes first, while the array is smallest."""
    dim = len(cells)
    v = x.reshape((dim,) + tuple(_coarse_cells(c, h) + 1
                                 for c, h in zip(cells, halved)))
    for d, c in reversed(list(enumerate(cells))):
        if not halved[d]:
            continue
        half = c // 2
        shape = list(v.shape)
        shape[d + 1] = c + 1
        out = np.empty(shape)
        out[_along(d, slice(0, None, 2))] = v[_along(d, slice(0, half + 1))]
        if c % 2:
            out[_along(d, slice(c, None))] = v[_along(d, slice(-1, None))]
        mid = out[_along(d, slice(1, c, 2))]
        np.add(v[_along(d, slice(0, half))], v[_along(d, slice(1, half + 1))],
               out=mid)
        mid *= 0.5
        v = out
    return v.reshape(-1)


def _jacobi_scale(a):
    """omega / a_ii per unknown in grid layout, with omega = _DAMPING / G,
    zero on the rim, so smoothing keeps the rim at zero.

    G is the largest absolute row sum over the diagonal.  A constant pair's
    interior rows bound G: a row by the boundary only drops entries.
    """
    dim = len(a.cells)
    scale = np.zeros((dim,) + a.nodes)
    scale[_interior(dim)] = (_DAMPING / float(np.max(a.rowsum / a.diag))) \
        / a.diag
    return scale.reshape(-1)


def _hierarchy(prob: FemProblem):
    """Multigrid levels of the free block: [(A, scale, halved)] from fine
    to coarse, halved the axes that the next level halves, then the
    coarsest (A, direct solve).

    Each level halves every axis of at least 7 cells whose cell width is at
    most twice the smallest width among those axes, so a strongly
    anisotropic grid first coarsens its narrow axes alone; an odd count c
    becomes (c + 1) / 2 cells, the last spanning one fine cell.  The
    coarsest level, once no axis has 7 cells, has at most 50 unknowns in
    2-D and 375 in 3-D, and gets its direct solve from _coarse_solve.

    Every level is a _Stencil.  The cell matrices are formed once, on the
    fine grid, and each coarser level's come from _coarsen: P^T A P on
    every level for a CoefficientField, and for a constant pair one shared
    matrix, P^T A P after even halvings and below an odd end a
    rediscretization that leaves out the narrower last cell.  The widths,
    doubled along each halving, only choose the axes to halve.  The cell
    matrices of a level are dropped once the next are formed.
    """
    cells, widths = prob.cells, prob.spacings
    local = _cell_matrices(prob)
    levels = []
    while True:
        a = _Stencil(local, cells)
        wide = [h for c, h in zip(cells, widths) if c >= 7]
        if not wide:
            return levels, (a, _coarse_solve(local, cells))
        halved = tuple(c >= 7 and h <= 2.0 * min(wide)
                       for c, h in zip(cells, widths))
        levels.append((a, _jacobi_scale(a), halved))
        widths = tuple(2.0 * h if s else h for h, s in zip(widths, halved))
        local = _coarsen(local, cells, halved)
        cells = tuple(_coarse_cells(c, s) for c, s in zip(cells, halved))


def _coarse_solve(local, cells):
    """The direct solve of the coarsest level, on grid-layout vectors.

    The interior block, components first like grid layout, is written as a
    dense matrix from the stencil planes, the slices of local that _Stencil
    applies (_plane at _offset_rows), and inverted once by numpy; at most
    6 cells per axis keep it at 375 unknowns.  The correction's rim, where
    u is fixed, is zero.
    """
    dim = len(cells)
    inner = tuple(c - 1 for c in cells)
    index = np.arange(dim * math.prod(inner)).reshape((dim,) + inner)
    block = np.zeros((index.size,) * 2)
    for off, pairs in _stencil_offsets(dim):
        rows = _offset_rows(off, inner)
        cols = tuple(slice(r.start + o, r.stop + o) for r, o in zip(rows, off))
        # component i of each node of rows, against component j of its
        # neighbour at off
        row, col = (np.moveaxis(index[(slice(None),) + at], 0, -1)
                    for at in (rows, cols))
        block[row[..., :, None], col[..., None, :]] = _plane(local, rows,
                                                             pairs)
    inverse = np.linalg.inv(block)
    interior = _interior(dim)
    nodes = (dim,) + tuple(c + 1 for c in cells)

    def solve(r):
        x = np.zeros(nodes)
        x[interior] = (inverse @ r.reshape(nodes)[interior].ravel()).reshape(
            (dim,) + inner)
        return x.reshape(-1)

    return solve


def _smooth(a, scale, b, x, sweeps: int):
    """sweeps damped Jacobi steps on a x = b, updating x in place."""
    for _ in range(sweeps):
        r = a @ x
        np.subtract(b, r, out=r)
        r *= scale
        x += r
    return x


def _vcycle(levels, coarsest, r):
    """One symmetric V-cycle from a zero guess: the preconditioner M r, on
    grid-layout vectors.

    Restriction and interpolation are the slice passes _restrict and
    _prolong.  A loop over the levels rather than a self-calling closure,
    so that no reference cycle keeps the hierarchy alive after the solve.
    """
    rhs, iterates = [], []
    for a, scale, halved in levels:
        x = _smooth(a, scale, r, scale * r, _SWEEPS - 1)
        rhs.append(r)
        iterates.append(x)
        r = _restrict(r - a @ x, a.cells, halved)
    x = coarsest[1](r)
    for (a, scale, halved), b, x0 in zip(reversed(levels), reversed(rhs),
                                         reversed(iterates)):
        x = _smooth(a, scale, b, x0 + _prolong(x, a.cells, halved), _SWEEPS)
    return x


def _solve(prob: FemProblem, bf, start=None):
    """Solution, energy x.A x / 2 and CG iteration count for the load bf.

    CG runs on grid-layout vectors, so bf, start and the solution are in
    grid layout, zero on the rim.  Its arithmetic is that of scipy's cg
    (stop once |r| < 1e-10 |b|, beta = rho / rho_prev, p = beta p + z), on
    the load divided by the power of two 2^e just above max |bf|: exact
    both ways, so u(2^k F) is 2^k u(F) bit for bit, and neither |b| nor rho
    under- or overflows for a tiny or huge load.  CG begins at start,
    divided by the same 2^e, or at zero without one; the stopping rule
    reads the load alone, so a start changes the iteration count, not the
    residual reached, and a start scaled with F keeps u(2^k F) = 2^k u(F).
    A non-finite rho, alpha or energy raises SolverDiverged, as does a
    residual still above the bound after 20000 iterations.
    """
    levels, coarsest = _hierarchy(prob)
    # at least 8 cells per side: the finest level is always halved
    a = levels[0][0]
    e = int(np.frexp(np.max(np.abs(bf)))[1])
    b = np.ldexp(bf, -e)
    if start is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.ldexp(start, -e)
        r = b - a @ x
    stop = 1e-10 * np.linalg.norm(b)
    for iterations in range(20000):
        if np.linalg.norm(r) < stop:
            break
        z = _vcycle(levels, coarsest, r)
        rho = float(np.dot(r, z))
        if iterations:
            p *= rho / rho_prev
            p += z
        else:
            p = z
        q = a @ p
        pq = float(np.dot(p, q))
        alpha = rho / pq if pq else math.nan
        if not (math.isfinite(rho) and math.isfinite(alpha)):
            raise SolverDiverged(f"conjugate gradients broke down at "
                                 f"iteration {iterations + 1}")
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    else:
        raise SolverDiverged("conjugate gradients did not converge in "
                             "20000 iterations")
    # u is zero on the boundary, so the free block carries the energy
    with np.errstate(over="ignore"):
        energy = float(np.ldexp(0.5 * float(x @ (a @ x)), 2 * e))
    if not math.isfinite(energy):
        raise SolverDiverged("the energy of the solution overflows")
    return np.ldexp(x, e), energy, iterations


def assemble_and_solve(prob: FemProblem,
                       coarse: FemSolution | None = None) -> FemSolution:
    """Assemble the Q1 system, solve it and attach the energy bookkeeping.

    CG preconditioned by one geometric multigrid V-cycle runs to a fixed
    1e-10 relative residual, with at most 20000 iterations.  The solved
    field is then sampled in one pass at order-4 Gauss points, which adds
    up both the weighted energies, at the levels 2, 4, 8 and
    max(2, 2 u_max + 1) (u_max the largest nodal |u|) plus the untruncated
    value under inf, and the load norm.

    coarse, a solution of the same load on the grid with every axis halved,
    is a nested start: CG begins at its u interpolated to this grid (P of
    the multigrid hierarchy), and the Luxemburg gauge of the load norm at
    its sobolev_norm_F.  Without one CG begins at zero and the gauge at the
    geometric mean of the L^1 bounds of _load_norm.  Either start moves the
    results by rounding within the two tolerances, never their stopping
    rules.

    Raises NotStrict when the declared p fails the admissibility test for
    the coefficients and SolverDiverged if CG breaks down, does not reach
    the residual or yields an energy that overflows; a bad coefficient pair
    is already rejected by FemProblem, and a coarse solution on another
    grid or domain raises ValueError.
    """
    _check_admissible(prob)
    start, norm_start = None, math.nan
    if coarse is not None:
        start, norm_start = _prolonged(coarse, prob), coarse.sobolev_norm_F
    bf = _load_vector(prob)
    dim = prob.dim
    xf, energy, iterations = np.zeros_like(bf), 0.0, 0
    if np.any(bf != 0.0):
        xf, energy, iterations = _solve(prob, bf, start)
    work = float(bf @ xf)
    # grid layout, components first, to the nodal field, components last
    u = np.ascontiguousarray(
        np.moveaxis(xf.reshape((dim,) + prob.node_shape), 0, -1))
    del bf, xf, start
    return _sampled(prob, u, energy, work, iterations, norm_start)


def scaled_solution(sol: FemSolution, c: float) -> FemSolution:
    """The solution of the load c F read off the solution of F, no CG.

    The solve is linear in F: u becomes c u, and the energy and the load
    work c^2 times theirs.  For a power of two c that is bit for bit what
    assemble_and_solve returns for c F, and for any other c it differs by
    rounding.  Only the sampling pass runs again, on c u and c F: the
    weighted energies are not homogeneous in u, nor the Luxemburg gauge in
    F, whose search begins at c^2 times the norm of F.  iterations is 0.
    Raises SolverDiverged when the scaled energy overflows, as the solve
    would.
    """
    prob = dataclasses.replace(sol.problem, rhs=c * sol.problem.rhs)
    with np.errstate(over="ignore"):
        energy = sol.energy * c * c
    if not math.isfinite(energy):
        raise SolverDiverged("the energy of the solution overflows")
    return _sampled(prob, c * sol.u, energy, sol.rhs_work * c * c, 0,
                    c * c * sol.sobolev_norm_F)


def _prolonged(coarse: FemSolution, prob: FemProblem):
    """The nodal u of coarse, interpolated to the grid of prob, whose every
    axis has twice its cells, in grid layout."""
    doubled = tuple(2 * c for c in coarse.problem.cells)
    if tuple(coarse.problem.domain) != tuple(prob.domain) \
            or prob.cells != doubled:
        raise ValueError("a coarse solution must be on the same box with "
                         "every axis halved")
    x = np.moveaxis(coarse.u, -1, 0).ravel()
    return _prolong(x, prob.cells, (True,) * prob.dim)


def _sampled(prob: FemProblem, u, energy: float, work: float,
             iterations: int, norm_start: float) -> FemSolution:
    """The FemSolution of the nodal field u (components last) of prob: one
    sampling pass adds up the weighted energies and the load norm, whose
    Luxemburg gauge begins at norm_start (see _load_norm)."""
    umax = _nodal_max(u)
    add_energies, energies = _weighted_energies(
        prob.p, [2.0, 4.0, 8.0, max(2.0, 2.0 * umax + 1.0)], umax)
    add_load, load_norm = _load_norm(prob)
    _gauss_samples(prob, u, add_energies, add_load)
    return FemSolution(
        problem=prob, u=u, energy=energy, rhs_work=work,
        weighted_energies=energies, sobolev_norm_F=load_norm(norm_start),
        iterations=iterations)


# ---------------------------------------------------------------------------
# quadrature over the solved field


def _gauss_samples(prob: FemProblem, u: np.ndarray, *visitors,
                   order: int = 4):
    """One pass over |u|, |grad u|^2 and |F| at order-4 Gauss points.

    The cells run in blocks of _SAMPLE_BLOCK Gauss points, and each block
    hands its samples, flat over (cell, Gauss point), with their weights to
    every visitor(umag, grad_sq, fmag, weights) in turn, so the transients
    are bounded by the block, not the grid: about 130 bytes per point in
    3-D, 8 MB in all.  The weights of every block are views of one array.
    In each block the corner values of u and F are gathered component
    first, so each interpolation is one matrix product over the block's
    cells whose result is component-major, rows (component, cell, Gauss
    point); each norm then sums the squares of contiguous rows.
    """
    dim = prob.dim
    wv, vals, phys = _physical(dim, order, prob.spacings)
    nbasis = 2 ** dim
    ngauss = len(wv)
    nel = math.prod(prob.cells)
    # right factors (corner, Gauss point): phi_b, and d_i phi_b per axis i
    vals_t = vals.T
    dphi_t = [np.ascontiguousarray(phys[:, :, i].T) for i in range(dim)]
    u_flat, f_flat = u.reshape(-1), prob.rhs.reshape(-1)
    u_comp = np.arange(dim)[:, None]
    f_comp = np.arange(dim * dim)[:, None]
    step = _SAMPLE_BLOCK // ngauss
    weights = np.tile(wv, step)
    for lo in range(0, nel, step):
        corners = _element_nodes(prob.cells, prob.node_shape,
                                 slice(lo, lo + step)).T[:, None, :]
        # rows (component, cell) by columns corner
        u_c = u_flat[corners * dim + u_comp].reshape(nbasis, -1).T
        umag = np.sqrt(_sum_squares(u_c @ vals_t, dim))
        grad_sq = sum(_sum_squares(u_c @ d, dim) for d in dphi_t)
        f_c = f_flat[corners * (dim * dim) + f_comp].reshape(nbasis, -1).T
        fmag = np.sqrt(_sum_squares(f_c @ vals_t, dim * dim))
        del u_c, f_c  # freed before the visitors run
        for visit in visitors:
            visit(umag, grad_sq, fmag, weights[:umag.size])


def _sum_squares(rows, count: int):
    """The sum of the squares of the count equal parts of a fresh product,
    flat; the product is squared in place."""
    np.square(rows, out=rows)
    return rows.reshape(count, -1).sum(axis=0)


def _weighted_energies(p: float, k_list, u_max: float):
    """A visitor of _gauss_samples and the dict it fills: each level k maps
    to int |grad u|^2 phi_k(|u|) over the samples, and inf to the
    untruncated int |grad u|^2 |u|^{p-2}.

    Each block adds its share of every level and of the untruncated value.
    A level listed twice is summed once.  u_max is the largest nodal |u|,
    which the Q1 interpolant at a Gauss point cannot exceed (its weights
    are nonnegative and sum to 1): a level with k - 1 > u_max (1 + 1e-9)
    never truncates, phi_k(|u|) = |u|^{p-2} at every sample, so its sum is
    the untruncated one, copied rather than evaluated again.
    """
    specs = {float(k): truncated_power(p, float(k)) for k in k_list}
    inf = float("inf")
    copied = [k for k in specs if k - 1.0 > u_max * (1.0 + 1e-9)]
    summed = {k: spec for k, spec in specs.items() if k not in copied}
    out = dict.fromkeys([*specs, inf], 0.0)

    def add(umag, grad_sq, _, weights):
        wg = weights * grad_sq
        for k, spec in summed.items():
            out[k] += float(np.sum(wg * spec.phi(umag)))
        if p > 2.0:
            live = umag > 0.0
            wg = wg * np.where(live, umag, 1.0) ** (p - 2.0) * live
        out[inf] += float(np.sum(wg))
        for k in copied:
            out[k] = out[inf]

    return add, out


def _nodal_max(u: np.ndarray) -> float:
    """The largest |u| over the nodes of a field with components last."""
    return float(np.max(np.linalg.norm(u.reshape(-1, u.shape[-1]), axis=1)))


def weighted_energy(sol: FemSolution, p: float, k_list) -> dict:
    """Map k -> int |grad u|^2 phi_k(|u|) dx, plus the untruncated value.

    phi_k is the truncated power weight; once k exceeds the solution range
    the truncation never engages and the value equals
    int |grad u|^2 |u|^{p-2} dx exactly, reported under the key inf.
    """
    add, out = _weighted_energies(p, k_list, _nodal_max(sol.u))
    _gauss_samples(sol.problem, sol.u, add)
    return out


def _load_norm(prob: FemProblem):
    """A visitor of _gauss_samples and the function that reads the F-side
    norm of the energy estimate once the pass is done.

    N >= 3: Lebesgue norm ||F||_{Np/(N+p-2)} as a plain integral power.
    N = 2: Luxemburg norm of |F|^2 for log_young(p), the degenerate tail
    Young function t (log(t + e))^{(p-2)/p}; for p = 2 it collapses to the
    L^1 norm of |F|^2.

    The integrals are added block by block in the pass.  The Luxemburg
    gauge re-reads |F|^2 at every step, so the pass writes it once, block
    by block, and the gauge walks those blocks.  norm(start) begins the
    gauge at start, and without a start that is positive, normal and
    finite at the geometric mean of two bounds on it that the pass
    also adds up: with g = |F|^2, Ntilde(t) >= t gives ||g||_1, and
    Ntilde(t) <= t log(T + e)^a for t <= T gives
    ||g||_1 log(max g / ||g||_1 + e)^a, a = (p - 2)/p.  Either start only
    places the first step of the search.
    """
    dim = prob.dim
    p = prob.p
    q = dim * p / (dim + p - 2.0) if dim >= 3 else 2.0
    total = 0.0
    blocks = []

    def add(_, __, fmag, weights):
        nonlocal total
        if dim == 2 and p > 2.0:
            g = fmag ** 2
            blocks.append((g, weights))
            total += float(np.sum(weights * g))
        else:
            total += float(np.sum(weights * fmag ** q))

    def norm(start: float = math.nan) -> float:
        if not blocks:
            return total ** (1.0 / q) if dim >= 3 else total
        n_tilde, _ = log_young(p)

        def terms(lam):
            g, j = zip(*(_gauge_terms(n_tilde, f, w, lam) for f, w in blocks))
            return sum(g), sum(j)

        amax = max(_abs_max(f) for f, _ in blocks)
        # total is ||g||_1; a zero one leaves the gauge its max|f| start
        cold = total * math.log(amax / total + math.e) ** (
            (p - 2.0) / (2.0 * p)) if total > 0.0 else math.nan
        return _gauge(terms, amax, start, cold)

    return add, norm


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
