"""Bit pins for each layer of a chunk: the draw and build, the reduction and the eigenvalues.

The golden CSVs see only printed digits; these sha256 digests see every bit
of each layer, so a kernel rewrite that reorders one sum fails here even when
no printed digit moves. Each case is one law and p, over chunks 0 and 5 of
seed 7 at n = 100:

- ``chunk``: ``scatter_chunk``'s bytes;
- ``build``: ``_build_wishart`` on 1-, 2- and 7-row stacks of each chunk's raw
  Bartlett variates, as its own draw stored them;
- ``band``: ``_tridiagonal_band``'s stack and exponents on 1-, 2- and 7-row
  stacks cut from each chunk;
- ``eigenvalues``: ``eigh_descending_batch(chunk, compute_vectors=False)``.

The first three are numpy's elementwise IEEE arithmetic on the generator's
draws, the same bits on every build. The eigenvalues also take LAPACK's bits,
and at p = 3 those of numpy's AVX-512 (SVML) ``arccos``, so they are compared
only on the numpy minor version and CPU features that generated them.

A change that moves a bit on purpose prints the new table with
``python tests/test_layer_bits.py`` and says in its commit which bits moved.
"""

import hashlib

import numpy as np
import pytest

from spectra_shrink import Spectrum, eigh_descending_batch, scatter_chunk
from spectra_shrink.core import _tridiagonal_band
from spectra_shrink.sampling import (
    CHUNK_SIZE,
    _TAG_ELLIPTICAL,
    _TAG_WISHART,
    _build_wishart,
    _draw_bartlett,
    _generator,
)

SEED, N, CHUNKS = 7, 100, (0, 5)
CUTS = (slice(5, 6), slice(100, 102), slice(1000, 1007))
#: Each law's stream tag and draw block at p = 3, 10 and 20 (see scatter_chunk).
LAWS = {"wishart": (_TAG_WISHART, {3: CHUNK_SIZE, 10: CHUNK_SIZE, 20: CHUNK_SIZE}),
        "t:5": (_TAG_ELLIPTICAL, {3: 1024, 10: 128, 20: 32})}
EIGENVALUE_NUMPY = "2.4"

DIGESTS = {
    ("wishart", 3): {
        "chunk": "2e96cf80a7161221e14bff91becb583c8f671bdd98f1b0543e2d401651aba638",
        "build": "dcf0af77c1d972619403c55ed665b981a980b22808a38b0dbaa31e69a025b260",
        "band": "c4fb69e3fe43179a695227903647a54a2b0fa6bb52480648b2dd686ffc399c93",
        "eigenvalues": "015d72fbd4a031dd47f29094bd070b6d85eca8804e6724d0621ee8be2eaeff71",
    },
    ("wishart", 10): {
        "chunk": "f4a45f4d4628f1163687bd1a416ce99d218ed2a7fc102c57a65054e5fa59796b",
        "build": "0cc8628a8b3f04177574297071a5f2cf704725feaf017b56db98bfe8c9879d8b",
        "band": "6e8de20b70d713a3eb8fb296300271ef829b9ab3a751ab3422d1743b8470cb1d",
        "eigenvalues": "aa7a9aa1ad81185d5222755a1f10986001e3558cdcfe56d203dd1fea13ac27d6",
    },
    ("wishart", 20): {
        "chunk": "a8514dd5c5de726959c648dfe4f30c370e29d5f8cfdf95ae7996010285a0e3b7",
        "build": "0b70bae127ce72f55e4835e8cec9896a7c88ce04209b85b8ac788d816114f8f3",
        "band": "2dad3095d93b27b139cb8c04945269c54bb1f033d1c86589a5e66a323fad0e17",
        "eigenvalues": "32ca9c69e614f4e12190abb7df56e068c24c27e63b30f94b4647b72213bed484",
    },
    ("t:5", 3): {
        "chunk": "a114894d03390f70cf8ea57678a631db2e8f6a8fd4d13ef2833286515603e9b9",
        "build": "23c279c89cebf5a5c90b3a414b23d249556f93ca423e829acf45f5d69d32d917",
        "band": "ede24dc73bf08d83a0d3c8791ca2d8bc1f21a93e005ab17186e18c28e87a72a0",
        "eigenvalues": "425ac2bddf363892c86a48651b0214a215cc51a3774e10be055af7a04b479f48",
    },
    ("t:5", 10): {
        "chunk": "a6be96ce75b5c4514afd327e8803f1826834ce492f60728dc074b11148b0003f",
        "build": "99e6124b46a18526e201a4acebed24f9b6221416a36f6b3a28ecfd9c7e703a5f",
        "band": "71862fc472d2b54c1488b87eee730774c283db69ddc0a6b802d21ab05f99ffc9",
        "eigenvalues": "4aa167261b789cae007d93964a39c3a6680db4e8c4d624446a44d3e38e60a0af",
    },
    ("t:5", 20): {
        "chunk": "30004fd953febfcd53a1f9bb226e44fe14f198a5fdc95e93f9f96906bc1b82e0",
        "build": "21d5d62b040b2e225dcbe0e5e8baecaa511f874d76119b0d9f3d0f296eb2e17c",
        "band": "4f9a3ba619a2cd6df0f542b1bd2c7f6f9ea58801c7dc05757b84137e66b5a5ac",
        "eigenvalues": "b2d61d840dc27f4c1985aea0acf20f143c5b5fd5f99bf2fc3a3977ea71fa71ba",
    },
}


def _sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()


def _spectrum(p):
    return Spectrum(np.linspace(1.0, 0.1, p))


def _chunks(law, p):
    return [scatter_chunk(_spectrum(p), N, law, SEED, c) for c in CHUNKS]


def _built_cuts(law, p):
    tag, blocks = LAWS[law]
    for c in CHUNKS:
        raw = _draw_bartlett(_generator(SEED, tag, c), N, p, blocks[p])
        for cut in CUTS:
            rows = cut.stop - cut.start
            s = np.empty((p, p, rows)).transpose(2, 0, 1)
            s[:] = raw[cut]
            _build_wishart(s, _spectrum(p).values)
            yield s


def _bands(chunks):
    for chunk in chunks:
        for cut in CUTS:
            band, exponent = _tridiagonal_band(chunk[cut])
            yield band
            yield exponent.astype(np.int64)


#: Each layer's arrays, from a case's law, p and its two chunks.
LAYERS = {
    "chunk": lambda law, p, chunks: chunks,
    "build": lambda law, p, chunks: _built_cuts(law, p),
    "band": lambda law, p, chunks: _bands(chunks),
    "eigenvalues": lambda law, p, chunks: (eigh_descending_batch(c, compute_vectors=False)[0] for c in chunks),
}


def _digests(law, p, layers) -> dict:
    chunks = _chunks(law, p)
    return {layer: _sha256(LAYERS[layer](law, p, chunks)) for layer in layers}


def _eigenvalue_pin_holds(p) -> bool:
    """Whether this build computes the eigenvalues as the one that generated the digests did."""
    if not np.__version__.startswith(EIGENVALUE_NUMPY + "."):
        return False
    if p != 3:
        return True
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("AVX512_SKX"))


CASES = [(law, p) for law in LAWS for p in (3, 10, 20)]


@pytest.mark.parametrize("law, p", CASES)
def test_layer_bits_are_pinned(law, p):
    for layer, digest in _digests(law, p, ("chunk", "build", "band")).items():
        assert digest == DIGESTS[law, p][layer], layer


@pytest.mark.parametrize("law, p", CASES)
def test_eigenvalue_bits_are_pinned(law, p):
    if not _eigenvalue_pin_holds(p):
        pytest.skip(f"eigenvalue bits pinned under numpy {EIGENVALUE_NUMPY}" + (" with AVX-512" if p == 3 else ""))
    assert _digests(law, p, ("eigenvalues",)) == {"eigenvalues": DIGESTS[law, p]["eigenvalues"]}


if __name__ == "__main__":
    print("DIGESTS = {")
    for law, p in CASES:
        print(f'    ("{law}", {p}): {{')
        for layer, digest in _digests(law, p, LAYERS).items():
            print(f'        "{layer}": "{digest}",')
        print("    },")
    print("}")
