"""Random scatter-matrix generation with counter-based, order-free streams.

Draws are organized in fixed-size chunks keyed by (seed, distribution,
chunk index) through a Philox counter-based generator, so the draw for
replicate k depends only on the seed and k - never on how many replicates
are requested, the evaluation order, or the worker count. Both laws build
S from a Bartlett factor, entry by entry at every p, into an entries-first
stack: each S_ij is one contiguous column across the chunk. No data matrix
is materialised. The elliptical-t route is a Wishart draw X'X, built in
row blocks of at most _ELLIPTICAL_BUDGET bytes, times a single
chi-square mixing variable shared by the whole matrix, which is what makes
the matrix law elliptically contoured rather than a stack of independent
heavy-tailed rows.
"""

from __future__ import annotations

from collections import deque
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

#: Bytes an elliptical-t chunk's Bartlett block holds at once, whatever n:
#: its variates and built matrices. Fixes the block, so part of the stream
#: contract.
_ELLIPTICAL_BUDGET = 2**18

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
    # S_t = (nu / w) X'X with X'X ~ W_p(n, diag(values)) and w ~ chi2(nu), so
    # X'X is one Bartlett draw. Rows are drawn and built in blocks: each
    # block's chi-squares, then its normals, go through _build_wishart. The
    # block is the largest power of two of rows, at least one and at most
    # CHUNK_SIZE, whose variates and built matrices fit _ELLIPTICAL_BUDGET,
    # the matrices counted twice for the builder's temporaries; it depends
    # on p only. The mixing variables are drawn after the last block.
    p = values.size
    gen = _generator(seed, _TAG_ELLIPTICAL, chunk_index)
    df = n - np.arange(p, dtype=np.float64)
    fit = _ELLIPTICAL_BUDGET // (8 * (p + p * (p - 1) // 2 + 2 * p * p))
    block = min(CHUNK_SIZE, 1 << max(fit.bit_length() - 1, 0))
    m = np.empty((p, p, CHUNK_SIZE)).transpose(2, 0, 1)
    for start in range(0, CHUNK_SIZE, block):
        chi2 = gen.chisquare(df, size=(block, p))
        normals = gen.standard_normal((block, p * (p - 1) // 2))
        m[start : start + block] = _build_wishart(chi2, normals, values)
    mix = gen.chisquare(float(nu), CHUNK_SIZE)
    m *= (nu / mix)[:, None, None]
    return m


def scatter_chunk(
    spectrum: Spectrum, n: int, distribution: str, seed: int, chunk_index: int
) -> np.ndarray:
    """One full chunk of scatter matrices, shape (CHUNK_SIZE, p, p).

    Replicate k lives at row k % CHUNK_SIZE of chunk k // CHUNK_SIZE. Both
    laws have scale diag(spectrum); a Wishart draw has E[S] = n diag(spectrum),
    and an elliptical-t draw is a Wishart draw times nu / w, w ~ chi2(nu),
    so it has E[S] = n nu / (nu - 2) diag(spectrum) and the same law of
    contribution rates. Every chunk is entries-first (strides (8,
    8 p CHUNK_SIZE, 8 CHUNK_SIZE)), so each entry s[:, i, j] is one
    contiguous column. No draw holds an n x p data matrix: besides the
    chunk, an elliptical-t chunk holds O(p^2) bytes a row of one block, at
    most _ELLIPTICAL_BUDGET (one row's when that is larger), so its time and
    memory do not grow with n.
    """
    _check_dof(n, spectrum.p)
    kind, nu = parse_distribution(distribution)
    if kind == "wishart":
        return _wishart_chunk(spectrum.values, int(n), seed, chunk_index)
    return _elliptical_chunk(spectrum.values, int(n), nu, seed, chunk_index)


def map_chunks(worker, n_chunks: int, jobs: int = 1) -> None:
    """Call ``worker`` on chunk indices 0..n_chunks-1; its return value is dropped.

    With jobs > 1 the chunks run on a thread pool, at most 2 * jobs of them
    queued at once, waited for in chunk order; the first exception a worker
    raises, in chunk order, is raised and the chunks still queued cancelled.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    if jobs == 1 or n_chunks <= 1:
        for i in range(n_chunks):
            worker(i)
        return
    queued = deque()
    with ThreadPoolExecutor(max_workers=min(jobs, n_chunks)) as pool:
        try:
            for i in range(n_chunks):
                if len(queued) == 2 * jobs:
                    queued.popleft().result()
                queued.append(pool.submit(worker, i))
            while queued:
                queued.popleft().result()
        finally:
            for future in queued:
                future.cancel()
