"""Random scatter-matrix generation with counter-based, order-free streams.

Draws are organized in fixed-size chunks keyed by (seed, distribution,
chunk index) through a Philox counter-based generator, so the draw for
replicate k depends only on the seed and k - never on how many replicates
are requested, the evaluation order, or the worker count. Both laws take
one path: a chunk's Bartlett variates are drawn in one block, stored in its
own entries-first stack, where each S_ij is one contiguous column across the
chunk, and S is built there in place, row by row of S at every p, by one
call over all its rows. No data matrix is materialised. A law picks only the
stream its variates are drawn from. An elliptical-t matrix is a Wishart
draw X'X times one chi-square mixing scale nu / w shared by the whole
matrix, which makes its law elliptically contoured; the scale moves no
rate, eigenvector or decision, whose law is the same for every member of
the family, so no output reads it, and a t chunk is the X'X of its stream.

Chunks run on threads (``map_chunks``), and every numpy call takes the GIL
and hands it back, so a kernel's cost on two threads grows with its number
of calls, not only with its arithmetic. The draw takes a chunk's variates
in a few calls, and the build forms all of a row's k-th products in one
call, so it makes O(p^2) calls, not O(p^3). Each sum is still added term
by term in a fixed order, never through ``np.add.reduce``: numpy sums a
lone column pairwise, so a one-row stack would get other bits than the
same row in a chunk.
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
    lies in column i of the upper triangle. _build_wishart reads the
    variates there.
    """
    p = s.shape[1]
    i, k = np.tril_indices(p, -1)
    diag = np.arange(p)
    s[:, diag, diag] = chi2
    s[:, k, i] = normals


def _build_wishart(s: np.ndarray, values: np.ndarray) -> None:
    """Turn the Bartlett variates _store_bartlett left in s into S = B B', in place.

    B = L A with L = diag(sqrt(values)). The variates are scaled where they
    lie, so B_ik is at (k, i) for every k <= i. Row i of S, S_ij =
    sum_{k <= j} B_ik B_jk for j <= i, is then summed in its slots (i, j),
    term by term in ascending k: one call forms the k-th products B_ik B_jk
    of every j from k to i, and one adds them to the row. The build's numpy
    calls thus grow as p^2, not p^3, and fewer calls mean less waiting for the
    GIL when chunks run on threads. No sum goes through ``np.add.reduce``:
    numpy sums a lone column pairwise, so a one-row stack would get other bits
    than the same row in a chunk. The slot of S_ii holds B_ii, so B_ii^2, its
    last term, is formed first. After the row, one call mirrors S_ij, j < i,
    to (j, i), where B_ij lay, so S is exactly symmetric. Rows go from the
    last back: a row reads only the columns up to its own, and its mirror
    writes only its own column. Besides s, the build holds p columns. The
    sums can differ from a BLAS matmul by an ulp.
    """
    rows, p, _ = s.shape
    e = s.transpose(1, 2, 0)  # e[i, j] is entry (i, j)'s column
    scale = np.sqrt(values)
    for i in range(p):
        np.sqrt(e[i, i], out=e[i, i])
        e[: i + 1, i] *= scale[i]
    products, last = np.empty((p - 1, rows)), np.empty(rows)
    for i in reversed(range(p)):
        row = e[i, : i + 1]
        if i > 0:
            np.multiply(e[i, i], e[i, i], out=last)
        np.multiply(e[0, : i + 1], e[0, i], out=row)
        for k in range(1, i):
            terms = np.multiply(e[k, k : i + 1], e[k, i], out=products[: i + 1 - k])
            row[k:] += terms
        if i > 0:
            row[i] += last
            e[:i, i] = row[:i]


def _draw_bartlett(gen: np.random.Generator, n: int, p: int) -> np.ndarray:
    """A chunk's raw Bartlett variates for W_p(n, .), stored entries-first for _build_wishart.

    The chunk is one block: all its rows' chi-squares, then all their
    normals. Both laws draw it so; a law picks only the generator.
    """
    df = n - np.arange(p, dtype=np.float64)
    s = np.empty((p, p, CHUNK_SIZE)).transpose(2, 0, 1)
    chi2 = gen.chisquare(df, size=(CHUNK_SIZE, p))
    normals = gen.standard_normal((CHUNK_SIZE, p * (p - 1) // 2))
    _store_bartlett(s, chi2, normals)
    return s


def scatter_chunk(
    spectrum: Spectrum, n: int, distribution: str, seed: int, chunk_index: int
) -> np.ndarray:
    """One full chunk of scatter matrices, shape (CHUNK_SIZE, p, p).

    Replicate k lives at row k % CHUNK_SIZE of chunk k // CHUNK_SIZE. Both
    laws draw Bartlett Wishart matrices with scale diag(spectrum), so
    E[S] = n diag(spectrum), each law on its own stream. The elliptical-t
    law's matrix is (nu / w) X'X, w ~ chi2(nu), and a t chunk is its X'X:
    the mix moves no scale-free value, so every nu draws the same chunk.
    Every chunk is entries-first (strides (8, 8 p CHUNK_SIZE,
    8 CHUNK_SIZE)), so each entry s[:, i, j] is one contiguous column, and
    S is built there in place. A law picks only the stream: both draw the
    chunk's variates as one block, and no draw holds an n x p data matrix.
    Besides the chunk, a chunk of either law holds its p(p + 1)/2 variates
    a row, so its time and memory do not grow with n. The build adds p
    columns.
    """
    p = spectrum.p
    _check_dof(n, p)
    tag = _TAG_WISHART if parse_distribution(distribution) is None else _TAG_ELLIPTICAL
    s = _draw_bartlett(_generator(seed, tag, chunk_index), int(n), p)
    _build_wishart(s, spectrum.values)
    return s


def map_chunks(worker, n_chunks: int, jobs: int = 1) -> None:
    """Call ``worker`` on chunk indices 0..n_chunks-1, and each chunk's commit in chunk order.

    ``worker(i)`` returns chunk i's commit, a callable that takes no
    arguments. Every commit runs on the calling thread, chunk i's after
    chunk i - 1's, so what the commits fold is folded in chunk order for any
    ``jobs``. With jobs > 1 the workers run on a thread pool, at most
    2 * jobs of them queued at once, waited for in chunk order; the first
    exception a worker raises, in chunk order, is raised and the chunks
    still queued cancelled.
    """
    if not isinstance(jobs, (int, np.integer)):
        raise ValueError(f"jobs must be an integer, got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    if jobs == 1 or n_chunks <= 1:
        for i in range(n_chunks):
            worker(i)()
        return
    queued = deque()
    with ThreadPoolExecutor(max_workers=min(jobs, n_chunks)) as pool:
        try:
            for i in range(n_chunks):
                if len(queued) == 2 * jobs:
                    queued.popleft().result()()
                queued.append(pool.submit(worker, i))
            while queued:
                queued.popleft().result()()
        finally:
            for future in queued:
                future.cancel()
