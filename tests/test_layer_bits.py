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
    _TAG_ELLIPTICAL,
    _TAG_WISHART,
    _build_wishart,
    _draw_bartlett,
    _generator,
)

SEED, N, CHUNKS = 7, 100, (0, 5)
CUTS = (slice(5, 6), slice(100, 102), slice(1000, 1007))
#: Each law's stream tag, the one thing a law picks (see scatter_chunk).
LAWS = {"wishart": _TAG_WISHART, "t:5": _TAG_ELLIPTICAL}
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
        "chunk": "ee6e10f56ca846dac50d71290f0ea828dcd4e38a2e1bc76a5e4b7d61935cf9b1",
        "build": "bdce79f1a0b7bf96b56f78955f7d888477dffde20841931ad58371e6622ab21d",
        "band": "391ea2dc1a0d2605a35e7cdc7dfe5e05e008974d0acac3771354562814bb7b86",
        "eigenvalues": "19d066551561d6d15b4b5cb2b532b84dd46547f9965c95e1e3117a2492215d23",
    },
    ("t:5", 10): {
        "chunk": "8f33bb86477e0d7575c83e979694020a6615f521da0cb675feff7145a8511cbe",
        "build": "43a6c59eb76fe4f2b60c7b01cb692c982c079d38320bcf5b7ea559aa5060448d",
        "band": "12ae2aa0e9bd1f80cfcb0d87297f162861bf65b8694c75418a7d8918b1aaa1ed",
        "eigenvalues": "1f1d2f0446603b907d6eb9e5499ea849acb049c2fb383d61483f18b839297c10",
    },
    ("t:5", 20): {
        "chunk": "17145d86d8f547120a1469985413677286577fdf6d604b5d49e01beee41ff230",
        "build": "07dda5415ac099ec213eb183c17296790756d5e6f2d771df12ce60562bed5a99",
        "band": "b83d32d4e03ca1ac83f93125daf5b318fbae4533f5b2f68ffe2625bdb66260e3",
        "eigenvalues": "3f5afd950033a62dc2c2720f990ddee48f943c6a4159ce9be328376187cb7f64",
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
    for c in CHUNKS:
        raw = _draw_bartlett(_generator(SEED, LAWS[law], c), N, p)
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
