"""Domain types and the deterministic symmetric eigendecomposition.

Everything downstream works on ordered spectra: eigenvalues are kept in
non-increasing order and contribution rates are eigenvalues divided by
their total. Matrices are small (p of order tens), dense, and immutable
once wrapped in a domain type. Eigendecompositions come from LAPACK; one
matrix's is made deterministic by a sign rule (each eigenvector's largest-
magnitude entry is positive), a batch's keeps LAPACK's signs. Eigenvalue-only
batches of 3 x 3 matrices use Smith's trigonometric closed form instead, where
LAPACK's per-matrix overhead would dominate; rows near a repeated eigenvalue
still go to LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _readonly_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    arr.setflags(write=False)
    return arr


def _readonly_matrix(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Spectrum:
    """Ordered population eigenvalues (variance units), largest first.

    Invariants: at least two entries, all strictly positive, sorted
    non-increasing.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _readonly_vector(self.values, "eigenvalues")
        if arr.size < 2:
            raise ValueError("a spectrum needs at least two eigenvalues")
        if np.any(arr <= 0.0):
            raise ValueError("eigenvalues must be strictly positive")
        if np.any(np.diff(arr) > 0.0):
            raise ValueError("eigenvalues must be sorted in non-increasing order")
        object.__setattr__(self, "values", arr)

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
        arr = _readonly_vector(self.rates, "rates")
        if arr.size < 2:
            raise ValueError("rates need at least two entries")
        if np.any(arr <= 0.0):
            raise ValueError("rates must be strictly positive")
        object.__setattr__(self, "rates", arr)

    @property
    def p(self) -> int:
        return int(self.rates.size)


@dataclass(frozen=True)
class SampleDecomposition:
    """Spectral decomposition of a scatter matrix.

    ``eigenvalues`` are descending and positive, ``rates`` are the
    eigenvalues divided by their sum, and the columns of ``eigenvectors``
    match the eigenvalue order.
    """

    eigenvalues: np.ndarray
    rates: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        l = _readonly_vector(self.eigenvalues, "eigenvalues")
        d = _readonly_vector(self.rates, "rates")
        h = _readonly_matrix(self.eigenvectors, "eigenvectors")
        p = l.size
        if d.size != p or h.shape[0] != p:
            raise ValueError("eigenvalues, rates and eigenvectors disagree on dimension")
        if np.any(l <= 0.0):
            raise ValueError("sample eigenvalues must be strictly positive")
        if np.any(np.diff(l) > 0.0):
            raise ValueError("sample eigenvalues must be sorted in non-increasing order")
        total = l.sum()
        if np.abs(d - l / total).max() > 1e-12 or abs(float(d.sum()) - 1.0) > 1e-12:
            raise ValueError("rates must equal eigenvalues divided by their sum")
        ortho = np.abs(h.T @ h - np.eye(p)).max()
        if ortho > 1e-8:
            raise ValueError(f"eigenvector matrix is not orthogonal: max |H'H - I| = {ortho:.3e}")
        object.__setattr__(self, "eigenvalues", l)
        object.__setattr__(self, "rates", d)
        object.__setattr__(self, "eigenvectors", h)

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
    then agrees with ``eigvalsh`` to about 1e-14 max|w|.
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


def eigh_descending_batch(
    matrices: np.ndarray, compute_vectors: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigendecompose a batch of symmetric matrices.

    LAPACK does the work, except for eigenvalue-only 3 x 3 stacks: those use
    the vectorised closed form of ``_eigvals_3x3_descending``, which hands
    rows near a repeated eigenvalue back to LAPACK. Either way each row's
    result depends only on that row, never on the rest of the batch.

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
        return np.linalg.eigvalsh(a)[:, ::-1], None

    w, v = np.linalg.eigh(a)
    return w[:, ::-1], v[:, :, ::-1]


def symmetric_eigendecompose(matrix: np.ndarray) -> SampleDecomposition:
    """Spectral decomposition S = H diag(l) H' with descending eigenvalues.

    Deterministic for a fixed input: each eigenvector's largest-magnitude
    entry (the first, on a tie) is made positive, which fixes the sign LAPACK
    leaves free. Raises if the matrix is not a finite, symmetric p x p array
    with p >= 2, is not positive definite, or does not reconstruct.
    """
    s = _readonly_matrix(matrix, "scatter matrix")
    if s.shape[0] < 2:
        raise ValueError("scatter matrix must be at least 2 x 2")
    scale = float(np.abs(s).max())
    asym = float(np.abs(s - s.T).max())
    if asym > _SYMMETRY_REL_TOL * max(scale, 1e-300):
        raise ValueError(
            "scatter matrix is not symmetric: max |S - S'| = "
            f"{asym:.3e} exceeds {_SYMMETRY_REL_TOL:.0e} * max|S| = "
            f"{_SYMMETRY_REL_TOL * scale:.3e}"
        )
    w, v = eigh_descending_batch(s[None, :, :])
    l, h = w[0], v[0]
    pivot = h[np.argmax(np.abs(h), axis=0), np.arange(h.shape[1])]
    h = h * np.where(pivot < 0.0, -1.0, 1.0)
    if np.any(l <= 0.0):
        raise ValueError(
            "scatter matrix is not positive definite "
            f"(smallest eigenvalue {l.min():.3e})"
        )
    recon_err = np.linalg.norm((h * l) @ h.T - s) / max(np.linalg.norm(s), 1e-300)
    if recon_err > 1e-8:
        raise RuntimeError(f"eigendecomposition failed to reconstruct input ({recon_err:.3e})")
    return SampleDecomposition(eigenvalues=l, rates=l / l.sum(), eigenvectors=h)
