"""Random scatter-matrix generation with counter-based, order-free streams.

Draws are organized in fixed-size chunks keyed by (seed, distribution,
chunk index) through a Philox counter-based generator, so the draw for
replicate k depends only on the seed and k - never on how many replicates
are requested, the evaluation order, or the worker count. The Wishart
route builds S directly from a Bartlett factor, entry by entry at every p,
into an entries-first stack: each S_ij is one contiguous column across the
chunk. The elliptical-t route materializes the n x p data matrix, a block
of rows of the chunk at a time, and shares a single chi-square mixing
variable across the whole matrix, which is what makes the matrix law
elliptically contoured rather than a stack of independent heavy-tailed
rows.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import Spectrum, _check_dof

__all__ = [
    "CHUNK_SIZE",
    "parse_distribution",
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


def _generator(seed: int, tag: int, counter: int) -> np.random.Generator:
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if not 0 <= counter < _MAX_COUNTER:
        raise ValueError(f"stream counter out of range: {counter}")
    key = (int(seed) << 64) | (tag << 62) | int(counter)
    return np.random.Generator(np.random.Philox(key=key))


def _build_wishart(chi2: np.ndarray, normals: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Assemble S = B B' from Bartlett variates, B = L A, one matrix per row.

    The scale L = diag(sqrt(values)) is applied to the compact diagonal
    sqrt(chi2) and to the strictly-lower normals, giving each entry of B
    as one (rows,) column. Each entry S_ij = sum_{k <= j} B_ik B_jk, i >= j,
    is then summed in ascending k, written once into an entries-first stack
    and copied to (j, i), so S is exactly symmetric. The sums can differ
    from a BLAS matmul by an ulp.
    """
    rows, p = chi2.shape
    scale = np.sqrt(values)
    root = np.sqrt(chi2)
    # b[i][k] is entry (i, k) of B as one (rows,) column: row i takes the
    # next i normals (tril_indices order) and ends with the diagonal.
    lower = iter(normals.T)
    b = [
        [next(lower) * scale[i] for _ in range(i)] + [root[:, i] * scale[i]]
        for i in range(p)
    ]
    s = np.empty((p, p, rows)).transpose(2, 0, 1)
    for i in range(p):
        for j in range(i + 1):
            entry = b[i][0] * b[j][0]
            for k in range(1, j + 1):
                entry += b[i][k] * b[j][k]
            s[:, i, j] = s[:, j, i] = entry
    return s


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
    # X' X comes out exactly symmetric (test_sampled_scatter_is_symmetric_pd
    # pins it), so nothing symmetrises.
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

    Replicate k lives at row k % CHUNK_SIZE of chunk k // CHUNK_SIZE. Both
    laws have scale diag(spectrum); a Wishart draw has E[S] = n diag(spectrum),
    and an elliptical-t draw has the same law of contribution rates. Every
    Wishart chunk is entries-first (strides (8, 8 p CHUNK_SIZE,
    8 CHUNK_SIZE)), so each entry s[:, i, j] is one contiguous column; an
    elliptical-t chunk is C-ordered.
    """
    _check_dof(n, spectrum.p)
    kind, nu = parse_distribution(distribution)
    if kind == "wishart":
        return _wishart_chunk(spectrum.values, int(n), seed, chunk_index)
    return _elliptical_chunk(spectrum.values, int(n), nu, seed, chunk_index)


def map_chunks(worker, n_chunks: int, jobs: int = 1) -> None:
    """Call ``worker`` on chunk indices 0..n_chunks-1; its return value is dropped.

    With jobs > 1 the chunks run on a thread pool. Every chunk is waited
    for, and the first exception a worker raises, in chunk order, is raised.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    if jobs == 1 or n_chunks <= 1:
        for i in range(n_chunks):
            worker(i)
        return
    with ThreadPoolExecutor(max_workers=min(jobs, n_chunks)) as pool:
        for _ in pool.map(worker, range(n_chunks)):  # drained to re-raise
            pass
