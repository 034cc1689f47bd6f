"""Domain types and the deterministic symmetric eigendecomposition.

Everything downstream works on ordered spectra: eigenvalues are kept in
non-increasing order and contribution rates are eigenvalues divided by
their total. Matrices are small (p of order tens), dense, and immutable
once wrapped in a domain type. Eigendecompositions come from LAPACK; they
are made deterministic by a sign rule (each eigenvector's largest-magnitude
entry is positive).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LOSS_KINDS",
    "Spectrum",
    "ContributionRates",
    "ScatterSample",
    "SampleDecomposition",
    "LossValue",
    "contribution_rates",
    "symmetric_eigendecompose",
    "eigh_descending_batch",
]

LOSS_KINDS = ("entropy", "quadratic")

_SYMMETRY_REL_TOL = 1e-10


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

    @property
    def total(self) -> float:
        return float(self.values.sum())


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

    def normalized(self) -> "ContributionRates":
        """Rescale so the rates sum to one (reporting convenience)."""
        return ContributionRates(self.rates / self.rates.sum())


@dataclass(frozen=True)
class ScatterSample:
    """A p x p symmetric scatter matrix together with its degrees of freedom."""

    matrix: np.ndarray
    dof: int

    def __post_init__(self) -> None:
        mat = _readonly_matrix(self.matrix, "scatter matrix")
        if mat.shape[0] < 2:
            raise ValueError("scatter matrix must be at least 2 x 2")
        scale = float(np.abs(mat).max())
        asym = float(np.abs(mat - mat.T).max())
        if asym > _SYMMETRY_REL_TOL * max(scale, 1e-300):
            raise ValueError(
                "scatter matrix is not symmetric: max |S - S'| = "
                f"{asym:.3e} exceeds {_SYMMETRY_REL_TOL:.0e} * max|S| = "
                f"{_SYMMETRY_REL_TOL * scale:.3e}"
            )
        if not isinstance(self.dof, (int, np.integer)) or self.dof < 1:
            raise ValueError(f"degrees of freedom must be a positive integer, got {self.dof!r}")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dof", int(self.dof))

    @property
    def p(self) -> int:
        return int(self.matrix.shape[0])


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


@dataclass(frozen=True)
class LossValue:
    """A non-negative loss together with the loss family it came from."""

    value: float
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"loss kind must be one of {LOSS_KINDS}, got {self.kind!r}")
        if not np.isfinite(self.value) or self.value < 0.0:
            raise ValueError(f"loss value must be finite and non-negative, got {self.value!r}")
        object.__setattr__(self, "value", float(self.value))


def contribution_rates(spectrum: Spectrum) -> ContributionRates:
    """Divide each eigenvalue by the spectrum total.

    The result sums to one and inherits the non-increasing order of the
    input.
    """
    return ContributionRates(spectrum.values / spectrum.values.sum())


def eigh_descending_batch(
    matrices: np.ndarray, compute_vectors: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigendecompose a batch of symmetric matrices with LAPACK.

    Parameters
    ----------
    matrices : ndarray, shape (batch, p, p)
        Symmetric inputs. Not modified.
    compute_vectors : bool
        Skip the eigenvectors when only eigenvalues are needed.

    Returns
    -------
    eigenvalues : ndarray, shape (batch, p)
        Sorted non-increasing per matrix.
    eigenvectors : ndarray or None
        Columns ordered to match, each column's largest-magnitude entry
        made positive so output is deterministic.
    """
    a = np.asarray(matrices, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (batch, p, p) stack, got shape {a.shape}")
    if not compute_vectors:
        return np.linalg.eigvalsh(a)[:, ::-1], None

    w, v = np.linalg.eigh(a)
    w, v = w[:, ::-1], v[:, :, ::-1]
    pivot = np.argmax(np.abs(v), axis=1)
    pivot_vals = np.take_along_axis(v, pivot[:, None, :], axis=1)[:, 0, :]
    v = v * np.where(pivot_vals < 0.0, -1.0, 1.0)[:, None, :]
    return w, v


def symmetric_eigendecompose(sample: ScatterSample) -> SampleDecomposition:
    """Spectral decomposition S = H diag(l) H' with descending eigenvalues.

    Deterministic for a fixed input: each eigenvector's largest-magnitude
    entry is made positive, which fixes the sign LAPACK leaves free. Raises
    if the matrix is not positive definite or the decomposition does not
    reconstruct it.
    """
    s = sample.matrix
    w, v = eigh_descending_batch(s[None, :, :])
    l, h = w[0], v[0]
    if np.any(l <= 0.0):
        raise ValueError(
            "scatter matrix is not positive definite "
            f"(smallest eigenvalue {l.min():.3e})"
        )
    recon_err = np.linalg.norm((h * l) @ h.T - s) / max(np.linalg.norm(s), 1e-300)
    if recon_err > 1e-8:
        raise RuntimeError(f"eigendecomposition failed to reconstruct input ({recon_err:.3e})")
    return SampleDecomposition(eigenvalues=l, rates=l / l.sum(), eigenvectors=h)
