"""Domain types and the deterministic symmetric eigendecomposition.

Everything downstream works on ordered spectra: eigenvalues are kept in
non-increasing order and contribution rates are eigenvalues divided by
their total. Matrices are small (p of order tens), dense, and immutable
once wrapped in a domain type. Eigendecompositions come from LAPACK; one
matrix's is made deterministic by a sign rule (each eigenvector's largest-
magnitude entry is positive), a batch's keeps LAPACK's signs. Eigenvalue-only
batches of 3 x 3 matrices use Smith's trigonometric closed form instead, where
LAPACK's per-matrix overhead would dominate; rows near a repeated eigenvalue
still go to LAPACK. Other eigenvalue-only batches are first reduced to
tridiagonal form by a Householder reduction vectorised across the batch, so
LAPACK solves only tridiagonals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import frexp

import numpy as np

__all__ = [
    "Spectrum",
    "ContributionRates",
    "SampleDecomposition",
    "symmetric_eigendecompose",
    "eigh_descending_batch",
]

_SYMMETRY_REL_TOL = 1e-10
#: Rows of a 3x3 batch with 1 - |cos 3phi| below this have a near-repeated
#: eigenvalue and are handed to LAPACK instead of the closed form.
_CLOSED_FORM_MIN_GAP = 1e-4
#: Angle offsets that put the closed-form roots in non-increasing order.
_THIRDS_DESCENDING = np.array([0.0, 4.0 * np.pi / 3.0, 2.0 * np.pi / 3.0])


def _check_dof(n, p: int) -> None:
    """Refuse degrees of freedom that are not an integer n >= p.

    The sampler and the shrinkage weights both call this, so the rule has
    one wording whichever of them refuses the input first.
    """
    if not isinstance(n, (int, np.integer)) or n < p:
        raise ValueError(f"degrees of freedom must satisfy n >= p, got n={n!r}, p={p}")


def _readonly_vector(values, name: str, descending: bool = False) -> np.ndarray:
    """Read-only float64 copy of a value vector, the one rule every value type shares.

    The vector must be one-dimensional, finite, at least two entries long,
    strictly positive and, with ``descending``, non-increasing.
    """
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < 2:
        raise ValueError(f"{name} need at least two entries, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    if np.any(arr <= 0.0):
        raise ValueError(f"{name} must be strictly positive")
    if descending and np.any(np.diff(arr) > 0.0):
        raise ValueError(f"{name} must be sorted in non-increasing order")
    arr.setflags(write=False)
    return arr


def _readonly_matrix(values, name: str) -> np.ndarray:
    """Read-only float64 copy of a finite square matrix of at least 2 x 2, the one matrix rule."""
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
        raise ValueError(f"{name} must be a square matrix, at least 2 x 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    arr.setflags(write=False)
    return arr


def _unit_exponent(values: np.ndarray) -> int:
    """The even k for which sum(values) / 2^k lies in [1/2, 2): the one unit-scale rule.

    Every scale-free quantity is formed on values / 2^k: an engine's draws,
    a decomposition's rates and checks, and the Stein-Haff G; so no sum,
    norm or power of them overflows or underflows. The sum's exponent is read off
    values / 2^e, 2^e the largest magnitude's binade, without forming the
    sum itself, so a sum that overflows, though every value is finite, is no
    exception. Scaling by a power of two is exact, so a value in normal range
    keeps every bit; an even power, because its square root, a power of two,
    scales a Bartlett factor, a scatter matrix and its eigenvectors exactly.
    The values are meant to be positive (eigenvalues, or a positive definite
    matrix's diagonal); for others k is still an even integer.
    """
    e = frexp(float(np.abs(values).max()))[1]
    e += frexp(float(np.ldexp(values, -e).sum()))[1]
    return 2 * (e // 2)


@dataclass(frozen=True)
class Spectrum:
    """Ordered population eigenvalues (variance units), largest first.

    Invariants: at least two entries, all strictly positive, sorted
    non-increasing.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _readonly_vector(self.values, "eigenvalues", descending=True))

    @property
    def p(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class ContributionRates:
    """Fractions of total variance per principal direction.

    Population rates sum to one; shrunk estimates are positive but not
    generally normalized, so only positivity is enforced here.
    """

    rates: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rates", _readonly_vector(self.rates, "rates"))

    @property
    def p(self) -> int:
        return int(self.rates.size)


@dataclass(frozen=True)
class SampleDecomposition:
    """Spectral decomposition of a scatter matrix.

    ``eigenvalues`` are descending and positive, the columns of
    ``eigenvectors`` match the eigenvalue order, and ``rates`` are formed
    here as the eigenvalues divided by their sum, both at unit scale
    (``_unit_exponent``), so a sum that overflows or underflows is no
    exception.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rates: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        l = _readonly_vector(self.eigenvalues, "sample eigenvalues", descending=True)
        h = _readonly_matrix(self.eigenvectors, "eigenvectors")
        p = l.size
        if h.shape[0] != p:
            raise ValueError("eigenvalues and eigenvectors disagree on dimension")
        ortho = np.abs(h.T @ h - np.eye(p)).max()
        if ortho > 1e-8:
            raise ValueError(f"eigenvector matrix is not orthogonal: max |H'H - I| = {ortho:.3e}")
        u = np.ldexp(l, -_unit_exponent(l))
        d = u / u.sum()
        d.setflags(write=False)
        object.__setattr__(self, "eigenvalues", l)
        object.__setattr__(self, "eigenvectors", h)
        object.__setattr__(self, "rates", d)

    @property
    def p(self) -> int:
        return int(self.eigenvalues.size)


def _eigvals_3x3_descending(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a (batch, 3, 3) symmetric stack, largest first.

    Smith's trigonometric closed form (Commun. ACM 4:168, 1961), vectorised
    over the batch and reading the lower triangle only. With B = A - qI,
    q = tr A / 3 and r = sqrt(|B|_F^2 / 6), the eigenvalues are
    q + 2r cos(phi + 2k pi / 3) for phi = arccos(det B / 2r^3) / 3. Taking
    the offsets 0, 4pi/3, 2pi/3 in turn orders the cosines, so each row is
    non-increasing even when r is at rounding level. Near a repeated
    eigenvalue (|cos 3phi| close to 1) arccos amplifies rounding, so those
    rows, and any row with a non-finite cos 3phi, go to LAPACK; every row
    then agrees with ``eigvalsh`` to about 1e-14 max|w|. Past entries of about
    1e102 det B overflows, and numpy warns before those rows go to LAPACK: no
    engine draws such a stack (``evaluation._unit_scale``), but a direct call can.
    """
    a00, a11, a22 = a[:, 0, 0], a[:, 1, 1], a[:, 2, 2]
    a10, a20, a21 = a[:, 1, 0], a[:, 2, 0], a[:, 2, 1]
    q = (a00 + a11 + a22) / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    offdiag = a10 * a10 + a20 * a20 + a21 * a21
    r = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * offdiag) / 6.0)
    det = (
        b00 * (b11 * b22 - a21 * a21)
        - a10 * (a10 * b22 - a21 * a20)
        + a20 * (a10 * a21 - b11 * a20)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        c = det / (2.0 * r**3)
    phi = np.arccos(np.clip(c, -1.0, 1.0)) / 3.0
    # Column-major, one root per column: each step runs over a whole
    # contiguous column instead of a length-3 row per matrix.
    w = np.empty((a.shape[0], 3), order="F")
    two_r = 2.0 * r
    for k, offset in enumerate(_THIRDS_DESCENDING):
        w[:, k] = q + two_r * np.cos(phi + offset)
    near = ~(np.abs(c) <= 1.0 - _CLOSED_FORM_MIN_GAP)
    if near.any():
        w[near] = np.linalg.eigvalsh(a[near])[:, ::-1]
    return w


def _tridiagonal_band(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder tridiagonalisation of a (batch, p, p) symmetric stack.

    Returns a (batch, p, p) stack and one integer exponent k a matrix. The
    stack's lower triangle is the tridiagonal T = Q'(2^-k A)Q of each input,
    the diagonal d on the diagonal and the off-diagonal e below it, zeros
    elsewhere, so the eigenvalues of A are 2^k eig(T). 2^-k brings a matrix's
    largest entry into [1/2, 1), so no square below overflows or underflows,
    as LAPACK's own scaling ensures; scaling by a power of two is exact, so it
    moves no bit of the eigenvalues of a matrix in ordinary range. The largest
    entry in magnitude is the larger of the copy's max and its negated min,
    one call each, and one multiply scales the copy.

    This is LAPACK's unblocked lower reduction (dsytd2; Golub & Van Loan,
    Matrix Computations, section 8.3), vectorised across the batch: it works
    on an entries-first copy of the lower triangle, where each entry is one
    contiguous column of the batch, and every step is a few numpy operations
    on whole columns. When chunks run on threads each of those calls takes
    the GIL and hands it back, so the steps that only some rows need, the
    fix-ups of an already-reduced column, run only when some row has one.
    Each sum is an explicit loop in a fixed order, never ``np.add.reduce``,
    which sums a lone column pairwise, so each row's bits depend only on that
    row, whatever its place in the batch or the input's layout. The input is
    read only in its lower triangle and is not modified; the copy is reduced
    in place, and the stack returned is a view of it, so besides the copy the
    reduction holds only a few (p, batch) columns.

    LAPACK's reduction of a dense matrix makes two level-2 BLAS calls a column
    for every matrix; on a tridiagonal every reflector is the identity and it
    skips them, so the solve that follows costs less per matrix and scales
    across threads.
    """
    rows, p, _ = a.shape
    b = np.zeros((p, p, rows))
    lower = a.transpose(1, 2, 0)
    for i in range(p):
        b[i, : i + 1] = lower[i, : i + 1]
    largest = np.maximum(b.max(axis=(0, 1)), -b.min(axis=(0, 1)))
    exponent = np.clip(np.frexp(largest)[1], -1000, 1000)
    b *= np.ldexp(1.0, -exponent)
    # v is the reflector, w the symmetric rank-2 update's other factor, t
    # scratch for products; each holds one column per trailing row. Every
    # reflector's leading entry is 1.
    v, w, t = np.empty((3, max(p - 1, 0), rows))
    v[:1] = 1.0
    for i in range(p - 2):
        k = p - 1 - i
        x = b[i + 1 :, i]
        alpha = x[0]
        # H = I - tau v v' maps x onto beta e1; sigma = |x[1:]|^2 is summed
        # in t's first column.
        sigma = np.multiply(x[1:], x[1:], out=t[: k - 1])[0]
        for r in range(1, k - 1):
            sigma += t[r]
        flat = sigma == 0.0
        beta = np.sqrt(alpha * alpha + sigma)
        np.copysign(beta, alpha, out=beta)
        np.negative(beta, out=beta)
        tau = np.subtract(beta, alpha)
        den = np.subtract(alpha, beta)
        if flat.any():
            # A column with nothing below x[0] is already reduced: H = I, and
            # every divisor is kept nonzero.
            beta[flat], tau[flat], den[flat] = alpha[flat], 0.0, 1.0
            tau /= np.where(flat, 1.0, beta)
        else:
            tau /= beta
        vk, wk, tk = v[:k], w[:k], t[:k]
        np.divide(x[1:], den, out=vk[1:])
        x[0] = beta
        x[1:] = 0.0
        # w = tau A v, with A the trailing block read from its lower triangle:
        # its column j is row j left of the diagonal, then column j below it.
        c = b[i + 1 :, i + 1 :]
        wk[:] = c[:, 0]
        for j in range(1, k):
            np.multiply(c[j, :j], vk[j], out=tk[:j])
            np.multiply(c[j:, j], vk[j], out=tk[j:])
            wk += tk
        wk *= tau
        # w -= (tau / 2)(w'v) v, then A -= v w' + w v' on the lower triangle.
        np.multiply(wk, vk, out=tk)
        dot = np.add(tk[0], tk[1])
        for r in range(2, k):
            dot += tk[r]
        dot *= tau
        dot *= -0.5
        wk += np.multiply(vk, dot, out=tk)
        for r in range(k):
            c[r, : r + 1] -= np.multiply(wk[: r + 1], vk[r], out=tk[: r + 1])
            c[r, : r + 1] -= np.multiply(vk[: r + 1], wk[r], out=tk[: r + 1])
    return b.transpose(2, 0, 1), exponent


def eigh_descending_batch(
    matrices: np.ndarray, compute_vectors: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigendecompose a batch of symmetric matrices.

    With vectors, LAPACK decomposes each matrix. Eigenvalue-only 3 x 3 stacks
    use the vectorised closed form of ``_eigvals_3x3_descending``, which hands
    rows near a repeated eigenvalue back to LAPACK. Other eigenvalue-only
    stacks are reduced to tridiagonal form across the batch
    (``_tridiagonal_band``), and LAPACK solves the tridiagonals; the
    eigenvalues agree with LAPACK's on the matrices themselves to a few ulps
    of the trace. Either way each row's result depends only on that row,
    never on the rest of the batch or on the stack's memory layout.

    Parameters
    ----------
    matrices : ndarray, shape (batch, p, p)
        Symmetric inputs; only the lower triangle is read. Not modified.
    compute_vectors : bool
        Skip the eigenvectors when only eigenvalues are needed.

    Returns
    -------
    eigenvalues : ndarray, shape (batch, p)
        Sorted non-increasing per matrix. The eigenvalue-only 3 x 3 result
        is column-major (Fortran-ordered), so that per-root column
        arithmetic downstream runs over contiguous memory.
    eigenvectors : ndarray or None
        Columns ordered to match, with LAPACK's signs: only
        ``symmetric_eigendecompose`` applies the sign rule.
    """
    a = np.asarray(matrices, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (batch, p, p) stack, got shape {a.shape}")
    if not compute_vectors:
        if a.shape[1] == 3:
            return _eigvals_3x3_descending(a), None
        band, exponent = _tridiagonal_band(a)
        return np.ldexp(np.linalg.eigvalsh(band, UPLO="L")[:, ::-1], exponent[:, None]), None

    w, v = np.linalg.eigh(a)
    return w[:, ::-1], v[:, :, ::-1]


def symmetric_eigendecompose(matrix: np.ndarray) -> SampleDecomposition:
    """Spectral decomposition S = H diag(l) H' with descending eigenvalues.

    Deterministic for a fixed input: each eigenvector's largest-magnitude
    entry (the first, on a tie) is made positive, which fixes the sign LAPACK
    leaves free. Raises if the matrix is not a finite, symmetric p x p array
    with p >= 2, is not positive definite, or does not reconstruct.

    S is decomposed at unit scale, S / 2^k with k from its diagonal
    (``_unit_exponent``; tr S is the eigenvalues' sum), and the symmetry,
    positive-definite and reconstruction checks run there, so none of them
    sums or norms at the caller's scale; l is 2^k times the unit-scale
    eigenvalues. Every scaling is exact, so at ordinary scales no bit moves.
    A positive definite matrix's diagonal is positive and holds its largest
    entry; a matrix refused for that is not scaled at all.
    """
    s = _readonly_matrix(matrix, "scatter matrix")
    diagonal = np.diag(s)
    if not (diagonal.min() > 0.0 and np.abs(s).max() <= diagonal.max()):
        raise ValueError(
            "scatter matrix is not positive definite "
            "(its diagonal must be positive and hold its largest entry)"
        )
    k = _unit_exponent(diagonal)
    u = np.ldexp(s, -k)
    scale = float(np.abs(u).max())
    asym = float(np.abs(u - u.T).max())
    if asym > _SYMMETRY_REL_TOL * scale:
        raise ValueError(
            "scatter matrix is not symmetric: max |S - S'| / max|S| = "
            f"{asym / scale:.3e} exceeds {_SYMMETRY_REL_TOL:.0e}"
        )
    w, v = eigh_descending_batch(u[None, :, :])
    l, h = w[0], v[0]
    pivot = h[np.argmax(np.abs(h), axis=0), np.arange(h.shape[1])]
    h = h * np.where(pivot < 0.0, -1.0, 1.0)
    if np.any(l <= 0.0):
        raise ValueError(
            "scatter matrix is not positive definite "
            f"(smallest eigenvalue / trace = {l.min() / l.sum():.3e})"
        )
    recon_err = np.linalg.norm((h * l) @ h.T - u) / np.linalg.norm(u)
    if not recon_err <= 1e-8:
        raise RuntimeError(f"eigendecomposition failed to reconstruct input ({recon_err:.3e})")
    return SampleDecomposition(eigenvalues=np.ldexp(l, k), eigenvectors=h)
