"""Non-Hermitian diagonalization at fixed gradient strength.

Rows of the coefficient matrix X are left eigenvectors of Lambda + i*gbar*B,
so that X (Lambda + i*gbar*B) = Lambda^(g) X and the eigenfunction j is
v_j = sum_k X[j, k] u_k.  The bases are real, so normalization uses the
bilinear form (no complex conjugation) of the coefficients: diag(X X^T) = 1.
Within a degenerate eigenvalue the solver can return an arbitrary mixture, so
degenerate pairs of one block are re-orthogonalized by an explicit 2x2 linear
transform before normalizing.

Lambda is diagonal, so Lambda + i*gbar*B splits exactly into independent
blocks: the connected components of the nonzero pattern of B (the (m, l)
sectors of the z-gradient sphere; the cos/sin sectors of a sphere gradient in
the xz plane, of the disk and of the cylinder; any other sphere gradient
couples everything into one block).  The gradient coordinate is odd under
inversion, so B couples only modes of opposite parity and its nonzero graph
is bipartite: with the parity p of a 2-colouring and the phases d = i^p,
diag(d)^-1 (Lambda + i*gbar*B) diag(d) = Lambda + gbar*K, where
K = (p_j - p_k) B_jk is real and skew-symmetric.  Each block is solved in
this real form by one block solve (_solve_block), which is one direct real
LAPACK geev call (_geev) with the workspace size cached per block order and
vector mode: bit for bit the result of scipy.linalg.eigvals / eig on the
real matrix, without their per-call checks and workspace query.  A real
eigenvalue comes back with Im exactly 0 and a complex one with its exact
conjugate (PT symmetry; Bender, Rep. Prog. Phys. 70, 947 (2007)).  A left
eigenvector z of the real form is the row z diag(d)^-1 of the original
operator.  diagonalize labels each
eigenvalue row with its block, and each raw row of X is zero outside its
block.  Eigenvalues of different blocks cross freely and never merge, so
branch tracking and branch-point detection work inside one block at a time:
the branch tracker (sweep) calls the block solve directly, one distinct
block at a time.  Blocks whose Lambda and B entries are bit-identical, such
as the cos and sin sectors of one m of the z-gradient sphere, are solved once
and the result is copied to the twin.  The partition, the colouring and K
are computed at the first solve with a given B and reused while the same B
object is passed again, so B must not be modified in place.

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
import scipy.linalg as sla

from .errors import NumericalError, OrthogonalizationError
from .matrices import OperatorMatrices

DEGENERATE_RTOL = 1e-8
NEAR_BRANCH_TOL = 1e-6


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
    block; Spectrum.block holds each row's block label.  A LAPACK failure
    raises NumericalError naming gbar and the size of the failing block.
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
            solved.append((wb, None if zb is None else zb / d))
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
    """Eigenvalues, sorted by (Re, Im), and left-eigenvector rows (None when
    eigvals_only) of one exact block in its real form diag(lam_b) + gbar*K.
    The rows are in the real form's basis: row z is the row z / d of the
    original operator (d from _blocks).  A nonzero LAPACK return code, or a
    non-finite gbar (refused first: LAPACK's xerbla prints to stdout),
    raises NumericalError naming gbar and the block size."""
    if not math.isfinite(gbar):
        raise NumericalError(f"eigensolver refused gbar={gbar} on a block of size "
                             f"{len(lam_b)}: not finite")
    M = gbar * K  # Fortran-ordered, like K; K's diagonal is exactly zero
    np.fill_diagonal(M, lam_b)
    w, vl, info = _geev(M, not eigvals_only)
    if info != 0:
        M = np.diag(lam_b) + gbar * K  # geev has overwritten M
        raise NumericalError(
            f"eigensolver failed at gbar={gbar} on a block of size "
            f"{len(lam_b)} (LAPACK geev info={info}, "
            f"norm={np.linalg.norm(M):.3e})")
    order = np.lexsort((w.imag, w.real))
    return w[order], None if eigvals_only else vl.conj().T[order]


_dgeev, _dgeev_lwork = sla.get_lapack_funcs(("geev", "geev_lwork"), dtype=float)
# geev workspace size by (order, left vectors): queried once, as sla.eig does
# on every call.  A different lwork can change the blocked Hessenberg
# reduction, and with it the bits of the result.
_lwork: dict = {}


def _geev(M: np.ndarray, vectors: bool) -> tuple:
    """(w, vl, info) of LAPACK geev on the real Fortran-ordered matrix M,
    which it overwrites: the complex eigenvalues wr + i*wi, the complex left
    eigenvectors as columns (computed only when `vectors`; a conjugate pair,
    stored by LAPACK as the real columns j, j+1 with wi[j] > 0, becomes
    vl[:, j] +- i*vl[:, j+1]) and the return code.  It is the only LAPACK
    call of the block solves, and the values are bit for bit those of
    sla.eigvals(M) and sla.eig(M, left=True, right=False)."""
    key = (len(M), vectors)
    if key not in _lwork:
        work, _ = _dgeev_lwork(len(M), compute_vl=vectors, compute_vr=False)
        _lwork[key] = int(work)
    wr, wi, vl, _, info = _dgeev(M, lwork=_lwork[key], compute_vl=vectors,
                                 compute_vr=False, overwrite_a=True)
    if vectors and info == 0:
        vl = vl.astype(complex)
        j = np.flatnonzero(wi > 0)
        vl.imag[:, j] = vl.real[:, j + 1]
        vl[:, j + 1] = vl[:, j].conj()
    return wr + 1j * wi, vl, info


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


# One-entry identity cache (lam, B, blocks): a sweep passes the same B to
# every solve, and the partition costs about as much as the block solves.
_partition: tuple = (None, None, [])


def _blocks(lam: np.ndarray, B: np.ndarray) -> list[tuple]:
    """Independent blocks of diag(lam) + i*g*B as (ix, twin, lam_b, K, d).

    ix holds the basis indices of one connected component of B's nonzero
    pattern, sorted, and the blocks are ordered by their smallest index; twin
    is the position of the first block with bit-identical (lam[ix],
    B[ix, ix]), its own position when none precedes it.  lam_b are the
    block's diagonal entries, K the Fortran-ordered real skew-symmetric
    (p_j - p_k) B_jk of its real form and d = i^p its phases, with p the
    parity of the 2-colouring of _colouring (all three None for a twin,
    which copies its result).  A non-finite entry, or a nonzero pattern that
    is not bipartite, raises NumericalError.
    """
    global _partition
    if _partition[0] is lam and _partition[1] is B:
        return _partition[2]
    nonzero = B != 0
    comps, parity = _colouring(nonzero | nonzero.T)
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
        K = np.asfortranarray(np.subtract.outer(p, p) * B_b)
        blocks.append((ix, twin, lam_b, K, np.where(p == 1, 1j, 1 + 0j)))
    _partition = (lam, B, blocks)
    return blocks


def _colouring(adj: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Connected components of the graph with the symmetric boolean
    adjacency matrix adj, each sorted and ordered by its smallest node, and
    the 0/1 parity of a 2-colouring: a breadth-first walk from each
    component's smallest node gives a node the parity of its distance.  An
    edge between two nodes of one parity (an odd cycle, or a nonzero
    diagonal entry) raises NumericalError."""
    n = len(adj)
    comp = np.full(n, -1)
    parity = np.zeros(n, dtype=np.int8)
    comps = []
    for start in range(n):
        if comp[start] >= 0:
            continue
        comp[start], front, level = len(comps), [start], 0
        while len(front):
            level ^= 1
            front = np.flatnonzero(adj[front].any(axis=0) & (comp < 0))
            comp[front], parity[front] = len(comps), level
        comps.append(np.flatnonzero(comp == len(comps)))
    if np.any(adj & (parity[:, None] == parity[None, :])):
        raise NumericalError("B's nonzero pattern has an odd cycle: no phases "
                             "make its blocks real")
    return comps, parity


def _components(pairs, n) -> list[list[int]]:
    """Connected components of the graph on 0..n-1 with the given edges,
    each sorted and ordered by its smallest node (union-find)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for b1, b2 in pairs:
        parent[find(int(b1))] = find(int(b2))
    groups: dict[int, list[int]] = {}
    for b in range(n):
        groups.setdefault(find(b), []).append(b)
    return list(groups.values())


def _degenerate_classes(w: np.ndarray, rtol: float = DEGENERATE_RTOL) -> np.ndarray:
    """Cluster eigenvalues whose mutual distance is below rtol * scale;
    returns -1 for singletons, else a class id (in order of first member).

    All pairs are compared, not only neighbours in the (Re, Im) order: the
    conjugate of a complex degenerate pair can sort between its two members
    when their real parts differ in the last bits.
    """
    scale = np.maximum(1.0, np.abs(w))
    close = np.abs(w[:, None] - w[None, :]) <= rtol * np.maximum.outer(scale, scale)
    cid = -np.ones(len(w), dtype=int)
    comps = _components(np.argwhere(np.triu(close, 1)), len(w))
    for c, members in enumerate(m for m in comps if len(m) > 1):
        cid[members] = c
    return cid


def orthogonalize_pair(vj: np.ndarray, vjp: np.ndarray, C: np.ndarray):
    """Bilinear-orthonormal combinations of two degenerate coefficient rows.

    C is the 2x2 Gram of (vj, vjp) under the bilinear form.  Solves for the
    formal rotation angle and rescalings; when C11 ~ C22 makes the direct
    expressions singular, the stabilized variant
    A^2 = (C11+C22)/2 + C12/sin(2a) is used.  Raises OrthogonalizationError if
    neither produces an orthonormal pair (e.g. exactly at a branch point).
    """
    C11, C12, C22 = C[0, 0], C[0, 1], C[1, 1]
    if abs(C12) < 1e-14 * max(1.0, abs(C11), abs(C22)):
        alpha = 0.0 + 0.0j
    elif abs(C11 - C22) < 1e-12 * max(abs(C11), abs(C22), abs(C12)):
        alpha = np.pi / 4 + 0.0j
    else:
        alpha = 0.5 * np.arctan(2.0 * C12 / (C11 - C22) + 0.0j)
    ca, sa = np.cos(alpha), np.sin(alpha)
    cos2a = ca * ca - sa * sa
    if abs(cos2a) > 0.25:
        A2 = (C11 * ca**2 - C22 * sa**2) / cos2a
        B2 = (C22 * ca**2 - C11 * sa**2) / cos2a
    else:
        sin2a = 2.0 * sa * ca
        A2 = 0.5 * (C11 + C22) + C12 / sin2a
        B2 = 0.5 * (C11 + C22) - C12 / sin2a
    if min(abs(A2), abs(B2)) < 1e-12:
        raise OrthogonalizationError("degenerate pair has a vanishing combination")
    A, Bc = np.sqrt(A2 + 0j), np.sqrt(B2 + 0j)
    new_j = (ca * vj + sa * vjp) / A
    new_jp = (-sa * vj + ca * vjp) / Bc
    return new_j, new_jp


def normalize(spec: Spectrum) -> Spectrum:
    """Bilinear normalization and sign fixing of a raw spectrum.

    Degenerate classes are orthogonalized pairwise first (greedy, in index
    order, driven by the off-diagonal Gram entries); rows whose bilinear norm
    stays below NEAR_BRANCH_TOL are flagged and kept unit-2-norm.  The sign of
    each row is fixed to make the constant-mode projection X[j, 0] have a
    positive real part (falling back to the first of the largest
    coefficients when that projection is negligible, and to the imaginary
    part when the real part is rounding noise; see _sign_fix).
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
    done = np.zeros(N, dtype=bool)

    for c in np.unique(cid[cid >= 0]):
        members = np.flatnonzero(cid == c)
        gram = X[members] @ X[members].T  # bilinear: transpose, no conjugate
        for ai in range(len(members)):
            for bi in range(ai + 1, len(members)):
                a, b = members[ai], members[bi]
                if done[a] or done[b]:
                    continue
                if abs(gram[ai, bi]) <= 1e-10 * max(1.0, abs(gram[ai, ai]),
                                                    abs(gram[bi, bi])):
                    continue
                C = np.array([[gram[ai, ai], gram[ai, bi]],
                              [gram[bi, ai], gram[bi, bi]]])
                try:
                    X[a], X[b] = orthogonalize_pair(X[a], X[b], C)
                    check = X[[a, b]] @ X[[a, b]].T
                    if np.max(np.abs(check - np.eye(2))) > 1e-8:
                        raise OrthogonalizationError("pair Gram not identity")
                    done[a] = done[b] = True
                except OrthogonalizationError:
                    near[a] = near[b] = True

    for j in range(N):
        if done[j] or near[j]:
            continue
        vvj = X[j] @ X[j]
        if abs(vvj) < NEAR_BRANCH_TOL:
            near[j] = True
            continue
        X[j] = X[j] / np.sqrt(vvj + 0j)

    for j in range(N):
        if near[j]:
            nrm = np.linalg.norm(X[j])
            if nrm > 0:
                X[j] = X[j] / nrm
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


def canonical_order(w: np.ndarray, quantum: float = 1e-6) -> np.ndarray:
    """Row order by Re ascending, Im > 0 first inside conjugate pairs.

    Real parts are rounded to multiples of quantum, so that the members of a
    conjugate pair, whose real parts differ in the last bits, share the
    primary key.
    """
    return np.lexsort((-w.imag, np.round(w.real / quantum)))


def slowest_pair(spec: Spectrum) -> tuple[int, int | None]:
    """Rows of the slowest branch and of its conjugate partner.

    The slowest branch has the smallest Re lambda.  When it is complex
    (|Im| > 1e-8), the first row returned is its Im > 0 member and the
    second the nearest eigenvalue to its conjugate; when it is real, the
    partner is None.
    """
    w = spec.eigenvalues
    i1 = int(np.argmin(w.real))
    if abs(w[i1].imag) <= 1e-8:
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
