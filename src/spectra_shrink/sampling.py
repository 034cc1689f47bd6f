"""Random scatter-matrix generation with counter-based, order-free streams.

Draws are organized in fixed-size chunks keyed by (seed, distribution,
chunk index) through a Philox counter-based generator, so the draw for
replicate k depends only on the seed and k - never on how many replicates
are requested, the evaluation order, or the worker count. Both laws take
one path: a chunk's Bartlett variates are stored in its own entries-first
stack, where each S_ij is one contiguous column across the chunk, and S is
built there in place, entry by entry at every p, by one call over all its
rows. No data matrix is materialised. A law picks only the stream, the row
block its variates are drawn in, and the mix: the elliptical-t law is a
Wishart draw X'X times a single chi-square mixing variable shared by the
whole matrix, which is what makes the matrix law elliptically contoured
rather than a stack of independent heavy-tailed rows.
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

#: Fixes the rows of an elliptical-t chunk's Bartlett draw block, and so is
#: part of the stream contract: a change moves every t draw. The block is the
#: largest power of two of rows, at least one and at most CHUNK_SIZE, for
#: which the budget holds 8 (p(p + 1)/2 + 2 p^2) bytes a row; it depends on p
#: only. It bounds no memory: the rule's 2 p^2 term counts no array the
#: sampler holds.
_ELLIPTICAL_BUDGET = 2**18

_TAG_WISHART = 0
_TAG_ELLIPTICAL = 1

_MAX_SEED = 2**64
_MAX_COUNTER = 2**62


def parse_distribution(distribution: str) -> int | None:
    """Parse a distribution spec: ``"wishart"`` or ``"t:<nu>"``.

    Returns None for Wishart, or the elliptical t's nu >= 3; the t family
    needs at least three degrees of freedom for its scatter to have finite
    expectation.
    """
    if distribution == "wishart":
        return None
    if distribution.startswith("t:"):
        try:
            nu = int(distribution[2:])
        except ValueError:
            raise ValueError(f"malformed t distribution spec {distribution!r}") from None
        if nu < 3:
            raise ValueError(f"elliptical t needs nu >= 3, got {nu}")
        return nu
    raise ValueError(f"unknown distribution {distribution!r}; expected 'wishart' or 't:<nu>'")


def _generator(seed: int, tag: int, counter: int) -> np.random.Generator:
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if not 0 <= counter < _MAX_COUNTER:
        raise ValueError(f"stream counter out of range: {counter}")
    key = (int(seed) << 64) | (tag << 62) | int(counter)
    return np.random.Generator(np.random.Philox(key=key))


def _store_bartlett(s: np.ndarray, chi2: np.ndarray, normals: np.ndarray) -> None:
    """Store raw Bartlett variates in an entries-first stack, one matrix per row.

    Chi-square i goes to (i, i), and the normal of entry (i, k), k < i, in
    tril_indices order, to (k, i) above the diagonal, so row i of the factor
    lies in column i of the upper triangle. _build_wishart reads them there.
    """
    p = chi2.shape[1]
    diag = np.arange(p)
    i, k = np.tril_indices(p, -1)
    s[:, diag, diag] = chi2
    s[:, k, i] = normals


def _build_wishart(s: np.ndarray, values: np.ndarray) -> None:
    """Turn the Bartlett variates _store_bartlett left in s into S = B B', in place.

    B = L A with L = diag(sqrt(values)). The variates are scaled where they
    lie, so B_ik is at (k, i) for every k <= i. Each S_ij = sum_{k <= j}
    B_ik B_jk, i >= j, is then summed in ascending k and written to (i, j)
    and (j, i), so S is exactly symmetric. Rows go from the last back, and
    columns within a row from the last back: the slot (j, i) that S_ij takes
    held B_ij, which no later entry reads. Besides s, the build holds two
    columns. The sums can differ from a BLAS matmul by an ulp.
    """
    rows, p, _ = s.shape
    e = s.transpose(1, 2, 0)  # e[i, j] is entry (i, j)'s column
    scale = np.sqrt(values)
    for i in range(p):
        np.sqrt(e[i, i], out=e[i, i])
        e[: i + 1, i] *= scale[i]
    diagonal, product = np.empty(rows), np.empty(rows)
    for i in reversed(range(p)):
        for j in reversed(range(i + 1)):
            # (i, j) below the diagonal holds no variate; S_ii is summed apart
            # because its slot holds B_ii, its own last term
            entry = e[i, j] if i > j else diagonal
            np.multiply(e[0, i], e[0, j], out=entry)
            for k in range(1, j + 1):
                np.multiply(e[k, i], e[k, j], out=product)
                entry += product
            e[j, i] = entry


def _draw_bartlett(gen: np.random.Generator, n: int, p: int, block: int) -> np.ndarray:
    """A chunk's raw Bartlett variates for W_p(n, .), stored entries-first for _build_wishart.

    Rows are drawn ``block`` at a time, each block's chi-squares and then its
    normals, so besides the chunk only one block of variates is held.
    """
    df = n - np.arange(p, dtype=np.float64)
    s = np.empty((p, p, CHUNK_SIZE)).transpose(2, 0, 1)
    for start in range(0, CHUNK_SIZE, block):
        chi2 = gen.chisquare(df, size=(block, p))
        normals = gen.standard_normal((block, p * (p - 1) // 2))
        _store_bartlett(s[start : start + block], chi2, normals)
    return s


def scatter_chunk(
    spectrum: Spectrum, n: int, distribution: str, seed: int, chunk_index: int
) -> np.ndarray:
    """One full chunk of scatter matrices, shape (CHUNK_SIZE, p, p).

    Replicate k lives at row k % CHUNK_SIZE of chunk k // CHUNK_SIZE. Both
    laws have scale diag(spectrum); a Wishart draw has E[S] = n diag(spectrum),
    and an elliptical-t draw is a Wishart draw times nu / w, w ~ chi2(nu),
    drawn after its variates, so it has E[S] = n nu / (nu - 2) diag(spectrum)
    and the same law of contribution rates. Every chunk is entries-first
    (strides (8, 8 p CHUNK_SIZE, 8 CHUNK_SIZE)), so each entry s[:, i, j] is
    one contiguous column, and S is built there in place. No draw holds an
    n x p data matrix. Besides the chunk, a Wishart chunk holds its
    p(p + 1)/2 variates a row, drawn in one block, and an elliptical-t chunk
    one block of them, under _ELLIPTICAL_BUDGET (one row's when that is
    larger), so its time and memory do not grow with n. The build adds two
    columns.
    """
    p = spectrum.p
    _check_dof(n, p)
    nu = parse_distribution(distribution)
    if nu is None:
        tag, block = _TAG_WISHART, CHUNK_SIZE
    else:
        fit = _ELLIPTICAL_BUDGET // (8 * (p * (p + 1) // 2 + 2 * p * p))
        tag, block = _TAG_ELLIPTICAL, min(CHUNK_SIZE, 1 << max(fit.bit_length() - 1, 0))
    gen = _generator(seed, tag, chunk_index)
    s = _draw_bartlett(gen, int(n), p, block)
    _build_wishart(s, spectrum.values)
    if nu is not None:
        s *= (nu / gen.chisquare(float(nu), CHUNK_SIZE))[:, None, None]
    return s


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
