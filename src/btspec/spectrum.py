"""Non-Hermitian diagonalization at fixed gradient strength.

Rows of the coefficient matrix X are left eigenvectors of Lambda + i*gbar*B,
so that X (Lambda + i*gbar*B) = Lambda^(g) X and the eigenfunction j is
v_j = sum_k X[j, k] u_k.  The bases are real, so normalization uses the
bilinear form (no complex conjugation) of the coefficients: diag(X X^T) = 1.
Within a degenerate eigenvalue the solver can return an arbitrary mixture, so
each degenerate class is made bilinear-orthonormal in one step by Loewdin's
symmetric orthogonalization before normalizing (see normalize).

Lambda is diagonal, so Lambda + i*gbar*B splits exactly into independent
blocks: the connected components of the nonzero pattern of B (the (m, l)
sectors of the z-gradient sphere; the cos/sin sectors of a sphere gradient in
the xz plane, of the disk and of the cylinder; any other sphere gradient
couples everything into one block).  The gradient coordinate is odd under
inversion, so B couples only modes of opposite parity and its nonzero graph
is bipartite: with the parity p of a 2-colouring and the phases d = i^p,
diag(d)^-1 (Lambda + i*gbar*B) diag(d) = Lambda + gbar*K, where
K = (p_j - p_k) B_jk is real and skew-symmetric.  Each block is solved in
this real form by one block solve (_solve_block): one numpy.linalg call
(_geev), eigvals without vectors and eig with them, which keeps no
workspace between calls.  A real eigenvalue comes back with Im exactly 0
and a complex one with its exact conjugate (PT symmetry; Bender, Rep. Prog.
Phys. 70, 947 (2007)), so realness is decided by one rule, is_real:
|Im lambda| <= REAL_TOL.  Whether two eigenvalues are one value (a
degenerate class, a tie that is no tie, a shared real part) is decided by
one rule too, same_value: |a - b| <= DEGENERATE_RTOL * max(1, |a|, |b|).
Lambda + i*gbar*B is complex symmetric, so its left eigenvectors are the
transposes of its right ones: for M v = lambda v in the real form
M = diag(d)^-1 (Lambda + i*gbar*B) diag(d), the row d * v (elementwise) is a
left eigenvector of the original operator.  diagonalize labels each
eigenvalue row with its block, and each raw row of X is zero outside its
block.  Eigenvalues of different blocks cross freely and never merge, so
branch tracking and branch-point detection work inside one block at a time:
the branch tracker (sweep) calls the block solve directly, one distinct
block at a time.  Blocks whose Lambda and B entries are bit-identical, such
as the cos and sin sectors of one m of the z-gradient sphere, are solved once
and the result is copied to the twin.  The partition, the colouring and K
are computed at the first solve with given Lambda and B and reused while
the arrays passed hold the same values: the cache keeps its own copies, so a
B modified in place is partitioned anew.

own_blocks restricts the operator to the blocks that hold given modes; a
solve of the restriction returns the full solve's rows of those blocks in the
same order, so a command solves only the blocks its output reads (the signal
the constant mode's block, a fieldmap row j's).

Near a branch point the bilinear self-product <v, v> vanishes and no
normalization exists; such rows are flagged 'near branch point' and left with
unit 2-norm instead of being rescaled.  The sign of each row makes
Re X[j, 0] > 0 (Im X[j, 0] > 0 when the real part is rounding noise), with a
tie-proof rule for rows without constant-mode projection (_sign_fix), so a
full and a restricted solve give one sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError
from .matrices import OperatorMatrices

# Sameness of two eigenvalues (relative, same_value): twin copies are
# bit-identical, and rounding splits a degenerate family of the tilted
# sphere by at most 1.6e-14 relative.
DEGENERATE_RTOL = 1e-8
NEAR_BRANCH_TOL = 1e-6
# Realness of an eigenvalue (absolute): a real eigenvalue of the real form
# has Im exactly 0, a pair split by rounding in a degenerate family of the
# tilted sphere at most 1.6e-14 relative, and a genuine conjugate pair of
# the swept grids |Im| >= 1e-4.
REAL_TOL = 1e-6


def is_real(w) -> np.ndarray:
    """Whether each eigenvalue in w is real: |Im w| <= REAL_TOL."""
    return np.abs(np.imag(w)) <= REAL_TOL


def same_value(a, b) -> np.ndarray:
    """Whether a and b are one eigenvalue, elementwise (broadcasting):
    |a - b| <= DEGENERATE_RTOL * max(1, |a|, |b|)."""
    scale = np.maximum(np.maximum(np.abs(a), 1.0), np.abs(b))
    return np.abs(a - b) <= DEGENERATE_RTOL * scale


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (dimensionless R^2 lambda_j) and coefficient rows at one gbar.

    X is None for an eigenvalues-only computation.  block[j] is the exact
    block of row j in block_labels' numbering, set by diagonalize (None for
    a spectrum assembled by hand, which carries no block).  vv holds
    |<v_j, v_j>| before rescaling (the normalization 'condition number');
    near_branch marks rows whose bilinear norm collapsed; degenerate_class
    labels exact eigenvalue clusters (-1 for simple eigenvalues).
    """

    gbar: float
    eigenvalues: np.ndarray
    X: np.ndarray | None = None
    block: np.ndarray | None = None
    vv: np.ndarray | None = None
    near_branch: np.ndarray | None = None
    degenerate_class: np.ndarray | None = None
    normalized: bool = False

    @property
    def N(self) -> int:
        return len(self.eigenvalues)


def diagonalize(mat: OperatorMatrices, B: np.ndarray, gbar: float,
                eigvals_only: bool = False) -> Spectrum:
    """Raw spectrum of Lambda + i*gbar*B, sorted by (Re, Im).

    The matrix is solved one independent block at a time (see the module
    docstring); twin blocks are solved once.  Rows of X are left eigenvectors
    (unit 2-norm, not yet bilinear-normalized) and are zero outside their
    block; Spectrum.block holds each row's block label.  An eigensolver
    failure raises NumericalError naming gbar and the size of the failing
    block.
    """
    N = mat.N
    w = np.empty(N, dtype=complex)
    block = np.empty(N, dtype=int)
    X = None if eigvals_only else np.zeros((N, N), dtype=complex)
    solved: list[tuple] = []
    start = 0
    for k, (ix, twin, lam_b, K, d) in enumerate(_blocks(mat.lam, B)):
        if twin < k:
            solved.append(solved[twin])
        else:
            wb, zb = _solve_block(lam_b, K, gbar, eigvals_only)
            solved.append((wb, None if zb is None else zb * d))
        wb, xb = solved[-1]
        stop = start + len(ix)
        w[start:stop] = wb
        block[start:stop] = k
        if X is not None:
            X[start:stop, ix] = xb
        start = stop
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    if X is not None:
        X = X[order]
    return Spectrum(gbar=float(gbar), eigenvalues=w, X=X, block=block[order])


def _solve_block(lam_b: np.ndarray, K: np.ndarray, gbar: float,
                 eigvals_only: bool) -> tuple:
    """Eigenvalues, sorted by (Re, Im), and eigenvector rows (None when
    eigvals_only) of one exact block in its real form M = diag(lam_b) +
    gbar*K, from one numpy.linalg call (_geev), which keeps no workspace
    between calls.  Row z is a right eigenvector of M (unit 2-norm): the
    operator is complex symmetric, so z * d (d from _blocks) is the
    left-eigenvector row of the original operator.  A failed solve (_geev's
    info != 0), or a non-finite gbar (refused first), raises NumericalError
    naming gbar and the block size."""
    if not math.isfinite(gbar):
        raise NumericalError(f"eigensolver refused gbar={gbar} on a block of size "
                             f"{len(lam_b)}: not finite")
    M = gbar * K  # K's diagonal is exactly zero
    np.fill_diagonal(M, lam_b)
    w, v, info = _geev(M, not eigvals_only)
    if info != 0:
        raise NumericalError(
            f"eigensolver failed at gbar={gbar} on a block of size "
            f"{len(lam_b)} (LAPACK geev info={info}, "
            f"norm={np.linalg.norm(M):.3e})")
    order = np.lexsort((w.imag, w.real))
    return w[order], None if eigvals_only else v.T[order]


def _geev(M: np.ndarray, vectors: bool) -> tuple:
    """(w, v, info) of LAPACK geev on the real matrix M, through numpy.linalg:
    the complex eigenvalues, the right eigenvectors as columns of unit 2-norm
    (eig, only when `vectors`; else eigvals and v None) and the return code,
    0, or 1 when geev did not converge (numpy's LinAlgError)."""
    try:
        if vectors:
            w, v = np.linalg.eig(M)
        else:
            w, v = np.linalg.eigvals(M), None
    except np.linalg.LinAlgError:
        return None, None, 1
    return w.astype(complex, copy=False), v, 0


def block_labels(mat: OperatorMatrices, B: np.ndarray) -> np.ndarray:
    """Exact block of each basis function under Lambda + i*gbar*B: the
    label that diagonalize gives the eigenvalue rows of that block."""
    label = np.empty(mat.N, dtype=int)
    for k, (ix, *_) in enumerate(_blocks(mat.lam, B)):
        label[ix] = k
    return label


def own_blocks(mat: OperatorMatrices, B: np.ndarray, modes):
    """The operator restricted to the exact blocks that hold `modes`.

    Returns (sub, B_sub, ix): sub carries Lambda and the basis on the sorted
    basis modes ix of those blocks, B_sub = B[ix, ix], and sub mode i is
    basis mode ix[i].  diagonalize(sub, B_sub, g) solves the same blocks as
    the full solve, so its rows are the full spectrum's rows of these blocks,
    bit for bit and in the same order.
    """
    blocks = _blocks(mat.lam, B)
    label = block_labels(mat, B)
    ix = np.sort(np.concatenate([blocks[k][0] for k in {label[j] for j in modes}]))
    basis = replace(mat.basis, indices=tuple(mat.basis.indices[i] for i in ix),
                    eigenvalues=mat.basis.eigenvalues[ix],
                    class_id=mat.basis.class_id[ix], alpha=mat.basis.alpha[ix])
    sub = OperatorMatrices(basis, mat.lam[ix], None, None, None)
    return sub, B[np.ix_(ix, ix)], ix


# One-entry cache (copies of lam and B, blocks), reused while the arrays
# passed hold the same values: a sweep passes the same B to every solve, and
# the partition costs about as much as the block solves.
_partition: tuple = (None, None, [])


def _blocks(lam: np.ndarray, B: np.ndarray) -> list[tuple]:
    """Independent blocks of diag(lam) + i*g*B as (ix, twin, lam_b, K, d).

    ix holds the basis indices of one connected component of B's nonzero
    pattern, sorted, and the blocks are ordered by their smallest index; twin
    is the position of the first block with bit-identical (lam[ix],
    B[ix, ix]), its own position when none precedes it.  lam_b are the
    block's diagonal entries, K the real skew-symmetric
    (p_j - p_k) B_jk of its real form and d = i^p its phases, with p the
    parity of the 2-colouring of _components (all three None for a twin,
    which copies its result).  A non-finite entry, or a nonzero pattern that
    is not bipartite, raises NumericalError.
    """
    global _partition
    if _partition[0] is not None and np.array_equal(_partition[0], lam) \
            and np.array_equal(_partition[1], B):
        return _partition[2]
    nonzero = B != 0
    adj = nonzero | nonzero.T
    comps, parity = _components(adj)
    if np.any(adj & (parity[:, None] == parity[None, :])):
        raise NumericalError("B's nonzero pattern has an odd cycle: no phases "
                             "make its blocks real")
    blocks: list[tuple] = []
    first: dict[bytes, int] = {}
    for ix in comps:
        lam_b, B_b = lam[ix], B[np.ix_(ix, ix)]
        if not (np.isfinite(lam_b).all() and np.isfinite(B_b).all()):
            raise NumericalError(f"non-finite entries of Lambda or B on a block "
                                 f"of size {len(ix)}")
        twin = first.setdefault(lam_b.tobytes() + B_b.tobytes(), len(blocks))
        if twin < len(blocks):
            blocks.append((ix, twin, None, None, None))
            continue
        p = parity[ix]
        K = np.subtract.outer(p, p) * B_b
        blocks.append((ix, twin, lam_b, K, np.where(p == 1, 1j, 1 + 0j)))
    _partition = (lam.copy(), B.copy(), blocks)
    return blocks


def _components(adj: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Connected components of the graph with the symmetric boolean
    adjacency matrix adj, each sorted and ordered by its smallest node, and
    the 0/1 parity of each node's distance from its component's smallest
    node: a 2-colouring when the graph is bipartite.  A breadth-first walk
    over neighbour lists, O(n + edges) Python steps: a singleton is cheap."""
    n = len(adj)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for a, b in zip(*(ix.tolist() for ix in np.nonzero(adj))):
        nbrs[a].append(b)
    parity = [-1] * n
    comps = []
    for start in range(n):
        if parity[start] >= 0:
            continue
        parity[start], members = 0, [start]
        for a in members:  # members grows while it is walked: breadth first
            for b in nbrs[a]:
                if parity[b] < 0:
                    parity[b] = parity[a] ^ 1
                    members.append(b)
        comps.append(np.array(sorted(members)))
    return comps, np.array(parity, dtype=np.int8)


def _degenerate_classes(w: np.ndarray) -> np.ndarray:
    """Cluster eigenvalues that are one value (same_value), chained; returns
    -1 for singletons, else a class id (in order of first member).

    All pairs are compared, not only neighbours in the (Re, Im) order: the
    conjugate of a complex degenerate pair can sort between its two members
    when their real parts differ in the last bits.
    """
    comps, _ = _components(same_value(w[:, None], w[None, :]))
    cid = -np.ones(len(w), dtype=int)
    for c, members in enumerate(m for m in comps if len(m) > 1):
        cid[members] = c
    return cid


def normalize(spec: Spectrum) -> Spectrum:
    """Bilinear normalization and sign fixing of a raw spectrum.

    The rows X_c of each degenerate class, of any size, become G^(-1/2) X_c
    with G = X_c X_c^T (Loewdin's symmetric orthogonalization, J. Chem. Phys.
    18, 365 (1950), in the bilinear form): the principal square root of G,
    taken through the eigendecomposition of G (diagonalizable away from a
    branch point; the flag below catches what is near one), is a function
    of the symmetric G, hence symmetric, so the new rows have Gram
    identity.  A simple row is divided by sqrt(x . x).  A class whose Gram has a singular
    value below NEAR_BRANCH_TOL, and a simple row with |x . x| below it, are
    flagged and kept unit-2-norm.  The sign of each row is fixed to make the
    constant-mode projection X[j, 0] have a positive real part (falling back
    to the first of the largest coefficients when that projection is
    negligible, and to the imaginary part when the real part is rounding
    noise; see _sign_fix).
    """
    if spec.X is None:
        raise ValueError("normalize() needs eigenvectors; run diagonalize "
                         "with eigvals_only=False")
    w = spec.eigenvalues
    X = spec.X.copy()
    N = len(w)
    cid = _degenerate_classes(w)
    vv_raw = np.abs(np.einsum("ik,ik->i", X, X))
    near = np.zeros(N, dtype=bool)

    for c in np.unique(cid[cid >= 0]):
        rows = cid == c
        gram = X[rows] @ X[rows].T  # bilinear: transpose, no conjugate
        if np.linalg.svd(gram, compute_uv=False).min() < NEAR_BRANCH_TOL:
            near[rows] = True
        else:  # principal G^(-1/2), through G = V diag(mu) V^-1
            mu, V = np.linalg.eig(gram)
            X[rows] = V @ (np.linalg.solve(V, X[rows]) / np.sqrt(mu)[:, None])

    for j in range(N):
        if cid[j] < 0:
            vvj = X[j] @ X[j]
            near[j] = abs(vvj) < NEAR_BRANCH_TOL
            if not near[j]:
                X[j] = X[j] / np.sqrt(vvj + 0j)
        if near[j]:
            X[j] = X[j] / (np.linalg.norm(X[j]) or 1.0)
        X[j] = X[j] * _sign_fix(X[j])

    return Spectrum(gbar=spec.gbar, eigenvalues=w, X=X, block=spec.block,
                    vv=vv_raw, near_branch=near, degenerate_class=cid,
                    normalized=True)


def _sign_fix(row: np.ndarray) -> float:
    """+-1 making Re(ref) > 0 for ref = X[j,0], or, when the constant-mode
    projection is negligible, the first coefficient within 1e-8 relative of
    the largest (two coefficients can agree in magnitude to rounding: the
    sign must not follow their last bits).  A real part within 1e-12 of |ref|
    is rounding noise on an imaginary ref, and Im(ref) > 0 decides instead."""
    ref = row[0]
    if abs(ref) < 1e-12:
        ref = row[np.argmax(np.abs(row) >= (1 - 1e-8) * np.abs(row).max())]
    tie = abs(ref.real) <= 1e-12 * abs(ref)
    return -1.0 if (ref.imag if tie else ref.real) < 0 else 1.0


def spectrum_at_negative_g(spec: Spectrum) -> Spectrum:
    """Spectrum at -gbar from the one at +gbar: B is real, so the operator at
    -gbar is the complex conjugate of the one at +gbar.  Eigenvalues and
    coefficients conjugate, and the eigenfunctions are the pointwise
    conjugates.
    """
    X = None if spec.X is None else np.conj(spec.X)
    return replace(spec, gbar=-spec.gbar, eigenvalues=np.conj(spec.eigenvalues), X=X)


def canonical_order(w: np.ndarray) -> np.ndarray:
    """Row order by Re ascending, Im > 0 first inside conjugate pairs.

    Real parts that are one value (same_value), chained along the sorted
    real parts, share the primary key: the members of a conjugate pair,
    whose real parts can differ in the last bits, sort together whatever
    those bits are.
    """
    by_re = np.argsort(w.real, kind="stable")
    re = w.real[by_re]
    key = np.empty(len(w), dtype=int)
    key[by_re] = np.cumsum(np.r_[False, ~same_value(re[1:], re[:-1])])
    return np.lexsort((-w.imag, key))


def slowest_pair(spec: Spectrum) -> tuple[int, int | None]:
    """Rows of the slowest branch and of its conjugate partner.

    The slowest branch has the smallest Re lambda.  When it is not real
    (is_real), the first row returned is its Im > 0 member and the
    second the nearest eigenvalue to its conjugate; when it is real, the
    partner is None.
    """
    w = spec.eigenvalues
    i1 = int(np.argmin(w.real))
    if is_real(w[i1]):
        return i1, None
    d = np.abs(w - np.conj(w[i1]))
    d[i1] = np.inf
    i2 = int(np.argmin(d))
    return (i1, i2) if w[i1].imag > 0 else (i2, i1)


def residual(mat: OperatorMatrices, B: np.ndarray, spec: Spectrum) -> float:
    """max_j ||X_j M - lambda_j X_j|| / ||M||, a solver quality metric."""
    if spec.X is None:
        raise ValueError("residual needs eigenvectors")
    M = mat.bloch_torrey(B, spec.gbar)
    R = spec.X @ M - spec.eigenvalues[:, None] * spec.X
    scale = np.linalg.norm(M) or 1.0  # the zero operator (N = 1 at gbar = 0)
    rownorm = np.linalg.norm(R, axis=1) / np.maximum(np.linalg.norm(spec.X, axis=1), 1e-300)
    return float(np.max(rownorm) / scale)
