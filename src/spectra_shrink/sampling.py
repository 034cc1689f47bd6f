"""Random scatter-matrix generation with counter-based, order-free streams.

Draws are organized in fixed-size chunks keyed by (seed, distribution,
chunk index) through a Philox counter-based generator, so the draw for
replicate k depends only on the seed and k - never on how many replicates
are requested, the evaluation order, or the worker count. The Wishart
route builds S directly from a Bartlett factor, entry by entry at p = 3
and by a batched matmul otherwise. The elliptical-t route materializes
the n x p data matrix, a block of rows of the chunk at a time, and shares
a single chi-square mixing variable across the whole matrix, which is
what makes the matrix law elliptically contoured rather than a stack of
independent heavy-tailed rows.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import ScatterSample, Spectrum

__all__ = [
    "CHUNK_SIZE",
    "SpikedModel",
    "SamplerConfig",
    "parse_distribution",
    "spiked_spectrum",
    "sample_wishart",
    "sample_elliptical_t",
    "scatter_chunk",
    "map_chunks",
]

#: Replicates per stream chunk. Part of the stream contract: changing it
#: changes which variates replicate k receives.
CHUNK_SIZE = 4096

#: Rows of an elliptical-t chunk whose normals are held at once; divides
#: CHUNK_SIZE. Bounds the chunk's temporaries without changing its draws.
_ELLIPTICAL_BLOCK = 512

_TAG_WISHART = 0
_TAG_ELLIPTICAL = 1
_TAG_RESCUE = 2

_MAX_SEED = 2**64
_MAX_COUNTER = 2**62


def parse_distribution(distribution: str) -> tuple[str, int | None]:
    """Parse a distribution spec: ``"wishart"`` or ``"t:<nu>"``.

    Returns ("wishart", None) or ("elliptical_t", nu) with nu >= 3; the
    t family needs at least three degrees of freedom for its scatter to
    have finite expectation.
    """
    if distribution == "wishart":
        return "wishart", None
    if distribution.startswith("t:"):
        try:
            nu = int(distribution[2:])
        except ValueError:
            raise ValueError(f"malformed t distribution spec {distribution!r}") from None
        if nu < 3:
            raise ValueError(f"elliptical t needs nu >= 3, got {nu}")
        return "elliptical_t", nu
    raise ValueError(f"unknown distribution {distribution!r}; expected 'wishart' or 't:<nu>'")


@dataclass(frozen=True)
class SpikedModel:
    """Population spectrum with elevated factor eigenvalues over flat noise."""

    factor_count: int
    spikes: tuple[float, ...]
    noise_variance: float
    dimension: int

    def __post_init__(self) -> None:
        m, p = self.factor_count, self.dimension
        if not isinstance(m, (int, np.integer)) or m < 0:
            raise ValueError(f"factor count must be a non-negative integer, got {m!r}")
        if not isinstance(p, (int, np.integer)) or p < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {p!r}")
        if m >= p:
            raise ValueError(f"factor count {m} must be smaller than dimension {p}")
        spikes = tuple(float(x) for x in self.spikes)
        if len(spikes) != m:
            raise ValueError(f"expected {m} spikes, got {len(spikes)}")
        if any(x <= 0.0 for x in spikes):
            raise ValueError("spikes must be strictly positive")
        if any(a < b for a, b in zip(spikes, spikes[1:])):
            raise ValueError("spikes must be sorted in non-increasing order")
        if self.noise_variance <= 0.0:
            raise ValueError("noise variance must be strictly positive")
        object.__setattr__(self, "factor_count", int(m))
        object.__setattr__(self, "dimension", int(p))
        object.__setattr__(self, "spikes", spikes)
        object.__setattr__(self, "noise_variance", float(self.noise_variance))


@dataclass(frozen=True)
class SamplerConfig:
    """Identifies one draw: (seed, replicate_index) pins the variates."""

    seed: int
    replicate_index: int = 0
    distribution: str = "wishart"

    def __post_init__(self) -> None:
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < _MAX_SEED:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        rep = self.replicate_index
        if not isinstance(rep, (int, np.integer)) or not 0 <= rep < _MAX_COUNTER:
            raise ValueError(f"replicate index must be an integer in [0, 2^62), got {rep!r}")
        parse_distribution(self.distribution)
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "replicate_index", int(rep))


def spiked_spectrum(model: SpikedModel) -> Spectrum:
    """Eigenvalues of the factor model: spikes plus noise, then flat noise."""
    values = np.full(model.dimension, model.noise_variance)
    values[: model.factor_count] += np.asarray(model.spikes)
    return Spectrum(values)


def _generator(seed: int, tag: int, counter: int) -> np.random.Generator:
    if not 0 <= counter < _MAX_COUNTER:
        raise ValueError(f"stream counter out of range: {counter}")
    key = (int(seed) << 64) | (tag << 62) | int(counter)
    return np.random.Generator(np.random.Philox(key=key))


def _build_wishart(chi2: np.ndarray, normals: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Assemble S = B B' from Bartlett variates, B = L A, one matrix per row.

    The scale L = diag(sqrt(values)) is applied to the compact diagonal
    sqrt(chi2) and to the strictly-lower normals before they are placed. At
    p = 3 the six entries of S are then formed elementwise from the six
    factor entries, which avoids a per-matrix BLAS call for 3x3 products;
    these sums can differ from BLAS by an ulp. Other sizes scatter the
    factor into a zeroed (rows, p, p) array and use a batched matmul.
    """
    rows, p = chi2.shape
    scale = np.sqrt(values)
    il, jl = np.tril_indices(p, -1)
    diag = np.sqrt(chi2) * scale
    lower = normals * scale[il]
    if p == 3:
        b00, b11, b22 = diag.T
        b10, b20, b21 = lower.T
        s = np.empty((rows, 3, 3))
        s[:, 0, 0] = b00 * b00
        s[:, 1, 0] = s[:, 0, 1] = b10 * b00
        s[:, 1, 1] = b10 * b10 + b11 * b11
        s[:, 2, 0] = s[:, 0, 2] = b20 * b00
        s[:, 2, 1] = s[:, 1, 2] = b20 * b10 + b21 * b11
        s[:, 2, 2] = b20 * b20 + b21 * b21 + b22 * b22
        return s
    b = np.zeros((rows, p, p))
    flat = b.reshape(rows, p * p)
    flat[:, np.arange(p) * (p + 1)] = diag
    flat[:, il * p + jl] = lower
    # X @ X' comes out exactly symmetric, here and for the t law below
    # (test_sampled_scatter_is_symmetric_pd pins it), so nothing symmetrises.
    return b @ b.transpose(0, 2, 1)


def _wishart_chunk(values: np.ndarray, n: int, seed: int, chunk_index: int) -> np.ndarray:
    p = values.size
    gen = _generator(seed, _TAG_WISHART, chunk_index)
    df = n - np.arange(p, dtype=np.float64)
    chi2 = gen.chisquare(df, size=(CHUNK_SIZE, p))
    normals = gen.standard_normal((CHUNK_SIZE, p * (p - 1) // 2))
    return _build_wishart(chi2, normals, values)


def _elliptical_chunk(
    values: np.ndarray, n: int, nu: int, seed: int, chunk_index: int
) -> np.ndarray:
    # Normals are drawn in row blocks into one reused buffer. Consecutive
    # standard_normal calls continue the same stream, so the chunk is the
    # same as from one (CHUNK_SIZE, n, p) draw, without holding all of it.
    p = values.size
    gen = _generator(seed, _TAG_ELLIPTICAL, chunk_index)
    scale = np.sqrt(values)
    g = np.empty((_ELLIPTICAL_BLOCK, n, p))
    m = np.empty((CHUNK_SIZE, p, p))
    for start in range(0, CHUNK_SIZE, _ELLIPTICAL_BLOCK):
        gen.standard_normal(out=g)
        g *= scale
        np.matmul(g.transpose(0, 2, 1), g, out=m[start : start + _ELLIPTICAL_BLOCK])
    mix = gen.chisquare(float(nu), CHUNK_SIZE)
    m *= (nu / mix)[:, None, None]
    return m


def scatter_chunk(
    spectrum: Spectrum, n: int, distribution: str, seed: int, chunk_index: int
) -> np.ndarray:
    """One full chunk of scatter matrices, shape (CHUNK_SIZE, p, p).

    Replicate k lives at row k % CHUNK_SIZE of chunk k // CHUNK_SIZE.
    """
    if not isinstance(n, (int, np.integer)) or n < spectrum.p:
        raise ValueError(f"degrees of freedom must satisfy n >= p, got n={n!r}, p={spectrum.p}")
    kind, nu = parse_distribution(distribution)
    if kind == "wishart":
        return _wishart_chunk(spectrum.values, int(n), seed, chunk_index)
    return _elliptical_chunk(spectrum.values, int(n), nu, seed, chunk_index)


def sample_wishart(spectrum: Spectrum, n: int, cfg: SamplerConfig) -> ScatterSample:
    """Draw one Wishart scatter matrix with scale diag(spectrum) via Bartlett.

    E[S] = n diag(spectrum). The draw is a pure function of
    (cfg.seed, cfg.replicate_index).
    """
    if not isinstance(n, (int, np.integer)) or n < spectrum.p:
        raise ValueError(f"degrees of freedom must satisfy n >= p, got n={n!r}, p={spectrum.p}")
    p = spectrum.p
    chunk, row = divmod(cfg.replicate_index, CHUNK_SIZE)
    gen = _generator(cfg.seed, _TAG_WISHART, chunk)
    df = n - np.arange(p, dtype=np.float64)
    chi2 = gen.chisquare(df, size=(CHUNK_SIZE, p))
    normals = gen.standard_normal((CHUNK_SIZE, p * (p - 1) // 2))
    s = _build_wishart(chi2[row : row + 1], normals[row : row + 1], spectrum.values)
    return ScatterSample(matrix=s[0], dof=int(n))


def sample_elliptical_t(spectrum: Spectrum, n: int, nu: int, cfg: SamplerConfig) -> ScatterSample:
    """Draw one elliptically contoured scatter matrix from the t family.

    The whole n x p data matrix shares one chi-square(nu) mixing variable,
    then S = Z'Z. The contribution rates of S are distributed exactly as in
    the Wishart case.
    """
    if not isinstance(n, (int, np.integer)) or n < spectrum.p:
        raise ValueError(f"degrees of freedom must satisfy n >= p, got n={n!r}, p={spectrum.p}")
    if not isinstance(nu, (int, np.integer)) or nu < 3:
        raise ValueError(f"elliptical t needs nu >= 3 for a finite scatter mean, got {nu!r}")
    chunk, row = divmod(cfg.replicate_index, CHUNK_SIZE)
    gen = _generator(cfg.seed, _TAG_ELLIPTICAL, chunk)
    # The mixing draws follow the whole chunk's normals in the stream, so
    # every block is drawn, as in _elliptical_chunk, but only one row kept.
    g = np.empty((_ELLIPTICAL_BLOCK, int(n), spectrum.p))
    for start in range(0, CHUNK_SIZE, _ELLIPTICAL_BLOCK):
        gen.standard_normal(out=g)
        if start <= row < start + _ELLIPTICAL_BLOCK:
            z = g[row - start] * np.sqrt(spectrum.values)[None, :]
    mix = gen.chisquare(float(nu), CHUNK_SIZE)
    return ScatterSample(matrix=(z.T @ z) * (nu / mix[row]), dof=int(n))


def rescue_scatter(
    spectrum: Spectrum, n: int, distribution: str, seed: int, replicate: int, attempt: int
) -> np.ndarray:
    """Replacement draw for a rejected replicate, on a dedicated stream.

    Keyed by (seed, replicate, attempt) so redraws stay order-independent.
    """
    kind, nu = parse_distribution(distribution)
    p = spectrum.p
    gen = _generator(seed, _TAG_RESCUE, replicate * 256 + attempt)
    if kind == "wishart":
        df = n - np.arange(p, dtype=np.float64)
        chi2 = gen.chisquare(df, size=(1, p))
        normals = gen.standard_normal((1, p * (p - 1) // 2))
        return _build_wishart(chi2, normals, spectrum.values)[0]
    g = gen.standard_normal((int(n), p))
    mix = gen.chisquare(float(nu))
    z = g * np.sqrt(spectrum.values)[None, :]
    return (z.T @ z) * (nu / mix)


def map_chunks(worker, n_chunks: int, jobs: int = 1) -> list:
    """Apply ``worker`` to chunk indices 0..n_chunks-1, results in index order.

    With jobs > 1 the chunks run on a thread pool; results are still
    collected in chunk order, so reductions downstream are independent of
    the worker count.
    """
    if jobs <= 1 or n_chunks <= 1:
        return [worker(i) for i in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=min(jobs, n_chunks)) as pool:
        return list(pool.map(worker, range(n_chunks)))
