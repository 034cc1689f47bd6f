import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_shrink import (
    ContributionRates,
    SampleDecomposition,
    Spectrum,
    eigh_descending_batch,
    symmetric_eigendecompose,
)
from spectra_shrink.cases import spiked_case
from spectra_shrink.sampling import scatter_chunk

# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


def test_spectrum_validation():
    Spectrum((3.0, 1.0))
    with pytest.raises(ValueError):
        Spectrum((1.0,))
    with pytest.raises(ValueError):
        Spectrum((1.0, -1.0))
    with pytest.raises(ValueError):
        Spectrum((1.0, 2.0))
    with pytest.raises(ValueError):
        Spectrum((1.0, 0.0))
    with pytest.raises(ValueError):
        Spectrum((np.inf, 1.0))
    with pytest.raises(ValueError, match="eigenvalues need at least two entries, got 1"):
        Spectrum((1.0,))
    with pytest.raises(ValueError, match="eigenvalues must be strictly positive"):
        Spectrum((1.0, -1.0))
    with pytest.raises(ValueError, match="eigenvalues must be sorted in non-increasing order"):
        Spectrum((1.0, 2.0))
    with pytest.raises(ValueError, match="eigenvalues must contain only finite values"):
        Spectrum((np.nan, 1.0))
    with pytest.raises(ValueError, match="eigenvalues must be one-dimensional"):
        Spectrum(np.eye(2))


def test_spectrum_immutable():
    s = Spectrum((3.0, 1.0))
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_rates_validation():
    ContributionRates((0.5, 0.5))
    with pytest.raises(ValueError):
        ContributionRates((1.0, 0.0))
    with pytest.raises(ValueError):
        ContributionRates((0.9,))
    with pytest.raises(ValueError, match="rates need at least two entries, got 1"):
        ContributionRates((0.9,))
    for bad in ((1.0, 0.0), (0.5, -0.5)):
        with pytest.raises(ValueError, match="rates must be strictly positive"):
            ContributionRates(bad)
    with pytest.raises(ValueError, match="rates must contain only finite values"):
        ContributionRates((0.5, np.inf))
    with pytest.raises(ValueError, match="rates must be one-dimensional"):
        ContributionRates(np.full((2, 2), 0.25))
    # rates carry no order: shrunk estimates need not be descending
    assert np.array_equal(ContributionRates((0.2, 0.8)).rates, [0.2, 0.8])


def test_scatter_sample_rejects_asymmetry():
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_eigendecompose(np.array([[1.0, 0.5], [0.4999, 1.0]]))
    # tiny asymmetry within tolerance is accepted
    m = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
    symmetric_eigendecompose(m)
    with pytest.raises(ValueError, match="square"):
        symmetric_eigendecompose(np.ones((2, 3)))
    with pytest.raises(ValueError, match="at least 2 x 2"):
        symmetric_eigendecompose(np.eye(1))
    with pytest.raises(ValueError, match="finite"):
        symmetric_eigendecompose(np.diag([1.0, np.nan]))


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------


def test_eigendecompose_diagonal():
    dec = symmetric_eigendecompose(np.diag([4.0, 1.0]))
    np.testing.assert_allclose(dec.eigenvalues, [4.0, 1.0])
    np.testing.assert_allclose(dec.rates, [0.8, 0.2])
    np.testing.assert_allclose(dec.eigenvectors, np.eye(2))


def test_eigendecompose_identity():
    dec = symmetric_eigendecompose(np.eye(3))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(dec.rates, [1 / 3] * 3)


def test_eigendecompose_2x2_hand_solved():
    # characteristic polynomial of [[2,1],[1,2]]: roots 3 and 1
    dec = symmetric_eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(dec.rates, [0.75, 0.25], atol=1e-12)
    r = 1 / np.sqrt(2)
    np.testing.assert_allclose(dec.eigenvectors[:, 0], [r, r], atol=1e-12)
    np.testing.assert_allclose(dec.eigenvectors[:, 1], [r, -r], atol=1e-12)


def _random_psd(rng, p):
    a = rng.standard_normal((p, p))
    return a @ a.T + 0.1 * np.eye(p)


def test_round_trip_orthogonality_and_rates():
    rng = np.random.default_rng(7)
    for _ in range(40):
        p = int(rng.integers(2, 21))
        s = _random_psd(rng, p)
        dec = symmetric_eigendecompose(s)
        h, l = dec.eigenvectors, dec.eigenvalues
        assert np.linalg.norm((h * l) @ h.T - s) / np.linalg.norm(s) < 1e-8
        assert np.abs(h.T @ h - np.eye(p)).max() < 1e-8
        assert abs(dec.rates.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(l) <= 0)


def test_matches_lapack_eigenvalues():
    rng = np.random.default_rng(11)
    for p in (8, 3):
        mats = np.stack([_random_psd(rng, p) for _ in range(64)])
        w, v = eigh_descending_batch(mats)
        assert np.all(np.diff(w, axis=1) <= 0)
        # batch vectors keep LAPACK's signs; the single-matrix decomposition
        # makes each column's first largest-magnitude entry positive
        for m, vk in zip(mats, v):
            h = symmetric_eigendecompose(m).eigenvectors
            pivot = np.argmax(np.abs(h), axis=0)
            assert np.all(h[pivot, np.arange(p)] > 0)
            assert np.array_equal(np.abs(h), np.abs(vk))
        recon = np.einsum("bik,bk,bjk->bij", v, w, v)
        np.testing.assert_allclose(recon, mats, rtol=0, atol=1e-10 * np.abs(mats).max())
        # at p=3 the eigenvalue-only path is the closed form, not LAPACK
        w_only, none = eigh_descending_batch(mats, compute_vectors=False)
        assert none is None
        np.testing.assert_allclose(w_only, w, rtol=1e-12, atol=0)


def test_deterministic_and_sign_canonical():
    rng = np.random.default_rng(3)
    s = _random_psd(rng, 6)
    d1 = symmetric_eigendecompose(s)
    d2 = symmetric_eigendecompose(s)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    for col in d1.eigenvectors.T:
        assert col[np.argmax(np.abs(col))] > 0


def _rotated(rng, values):
    q = np.linalg.qr(rng.standard_normal((len(values), len(values))))[0]
    a = (q * np.asarray(values, dtype=np.float64)) @ q.T
    return 0.5 * (a + a.T)


@pytest.mark.parametrize("p", [3, 10])
@pytest.mark.parametrize("compute_vectors", [True, False])
def test_batch_rows_match_single_matrix_calls(compute_vectors, p):
    # per-row results must not depend on the batch they were decomposed in,
    # also where the batch mixes rows the reduction treats apart: diagonal
    # and tridiagonal rows, whose Householder columns are already reduced
    # (the fix-ups run only when some row has one), and negative definite and
    # indefinite rows, whose largest entry in magnitude is negative (the
    # scale is taken from one max and one min)
    rng = np.random.default_rng(5)
    mats = [_random_psd(rng, p) for _ in range(32)]
    diagonal = rng.uniform(0.5, 2.0, p)
    off = rng.standard_normal(p - 1)
    mats[10:10] = [
        np.diag(diagonal),
        np.diag(4.0 + diagonal) + np.diag(off, -1) + np.diag(off, 1),
        -_random_psd(rng, p),
        _rotated(rng, np.linspace(-3.0, 1.0, p)),
    ]
    if p == 3:
        # repeated eigenvalues: rows the closed form hands to LAPACK
        degenerate = [2.5 * np.eye(3), _rotated(rng, (2.0, 1.0, 1.0)), _rotated(rng, (2.0, 2.0, 1.0))]
        mats[3:3] = degenerate
    mats = np.stack(mats)
    w, v = eigh_descending_batch(mats, compute_vectors)
    for k in range(mats.shape[0]):
        wk, vk = eigh_descending_batch(mats[k : k + 1], compute_vectors)
        assert np.array_equal(w[k], wk[0])
        if compute_vectors:
            assert np.array_equal(v[k], vk[0])
    if p == 3 and not compute_vectors:
        assert np.array_equal(w[3:6], np.linalg.eigvalsh(mats[3:6])[:, ::-1])
        # the closed form reads its input through strides and returns a
        # column-major result: a slice, a strided view or a Fortran-ordered
        # copy of the stack gives the same bits per row
        assert w.flags.f_contiguous
        for view, expected in [
            (mats[:20], w[:20]),
            (mats[::2], w[::2]),
            (np.asfortranarray(mats), w),
        ]:
            assert np.array_equal(eigh_descending_batch(view, False)[0], expected)


@settings(max_examples=300)
@given(
    log_top=st.floats(-6.0, 6.0),
    log_cond=st.floats(0.0, 14.0),
    log_gap=st.floats(-16.0, 0.0),
    gap_at_top=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_3x3_eigenvalues_match_lapack(log_top, log_cond, log_gap, gap_at_top, seed):
    # rotated spectra with relative gaps down to 1e-16 and condition numbers up to 1e14
    top = 10.0**log_top
    bottom = top * 10.0**-log_cond
    gap = 10.0**log_gap * (top - bottom)
    middle = top - gap if gap_at_top else bottom + gap
    a = _rotated(np.random.default_rng(seed), (top, middle, bottom))
    w, _ = eigh_descending_batch(a[None], compute_vectors=False)
    assert np.all(np.diff(w[0]) <= 0)
    ref = np.linalg.eigvalsh(a)[::-1]
    assert np.abs(w[0] - ref).max() <= 1e-13 * np.abs(ref).max()


def _assert_eigenvalues_match_lapack(mats):
    """The eigenvalue-only path against LAPACK on the matrices themselves, to 16 eps of the trace.

    Each of 16 spread rows, decomposed alone, gives the batch's bits.
    """
    w, none = eigh_descending_batch(mats, compute_vectors=False)
    assert none is None
    assert np.all(np.diff(w, axis=1) <= 0)
    ref = np.linalg.eigvalsh(mats)[:, ::-1]
    trace = np.trace(mats, axis1=1, axis2=2)
    assert np.all(np.abs(w - ref).max(axis=1) <= 16 * np.finfo(float).eps * trace)
    for k in np.linspace(0, len(mats) - 1, 16).astype(int):
        assert np.array_equal(eigh_descending_batch(mats[k : k + 1], False)[0][0], w[k])
    return w


@pytest.mark.parametrize("distribution", ["wishart", "t:5"])
@pytest.mark.parametrize("p", [2, 4, 5, 10, 20])
def test_eigenvalue_only_chunks_match_lapack(p, distribution):
    # every p but 3 goes through the batched tridiagonal reduction
    chunk = scatter_chunk(Spectrum(np.geomspace(1.0, 0.05, p)), p + 7, distribution, seed=p, chunk_index=0)
    _assert_eigenvalues_match_lapack(chunk)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [4, 10, 20])
def test_eigenvalue_only_edge_stacks(p):
    rng = np.random.default_rng(p)
    # diagonal: every Householder column is zero, and the values come back exactly
    diagonal = rng.uniform(0.5, 2.0, (8, p))
    w = _assert_eigenvalues_match_lapack(np.stack([np.diag(d) for d in diagonal]))
    assert np.array_equal(w, -np.sort(-diagonal, axis=1))
    # already tridiagonal: only the last entry of each column is nonzero
    off = rng.standard_normal((8, p - 1))
    _assert_eigenvalues_match_lapack(
        np.stack([np.diag(d) + np.diag(e, -1) + np.diag(e, 1) for d, e in zip(4.0 + diagonal, off)])
    )
    # condition number 1e12
    _assert_eigenvalues_match_lapack(np.stack([_rotated(rng, np.geomspace(1.0, 1e-12, p)) for _ in range(8)]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [4, 10, 20])
def test_eigenvalue_only_path_follows_power_of_two_scaling_exactly(p):
    # each matrix is brought near unit scale by a power of two before the
    # reduction, so entries near 1e183 or 1e-179, whose squares leave the
    # double range, give the unscaled eigenvalues times the scale, bit for bit
    chunk = scatter_chunk(Spectrum(np.linspace(1.0, 0.1, p)), p + 7, "wishart", seed=p, chunk_index=0)[:256]
    w = eigh_descending_batch(chunk, compute_vectors=False)[0]
    for k in (-600, -20, 20, 600):
        scaled = eigh_descending_batch(np.ldexp(chunk, k), compute_vectors=False)[0]
        assert np.array_equal(scaled, np.ldexp(w, k))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eigenvalue_only_repeated_eigenvalues():
    # spiked case 1: five eigenvalues 19 and five 1, on the diagonal and rotated
    values = spiked_case(1).values
    rng = np.random.default_rng(1)
    mats = np.stack([np.diag(values)] + [_rotated(rng, values) for _ in range(15)])
    w = _assert_eigenvalues_match_lapack(mats)
    assert np.array_equal(w[0], values)
    assert np.abs(w - values).max() <= 16 * np.finfo(float).eps * values.sum()


def test_eigenvalue_only_path_reads_the_lower_triangle_and_leaves_it():
    chunk = scatter_chunk(Spectrum(np.linspace(1.0, 0.1, 10)), 30, "wishart", seed=4, chunk_index=0)[:256]
    kept = chunk.copy()
    chunk.setflags(write=False)
    w = _assert_eigenvalues_match_lapack(chunk)
    assert np.array_equal(chunk, kept)
    garbage = chunk.copy()
    iu = np.triu_indices(10, 1)
    garbage[:, iu[0], iu[1]] = np.random.default_rng(4).standard_normal((256, iu[0].size)) * 1e3
    garbage[0, 0, 9], garbage[1, 2, 3] = np.nan, np.inf
    assert np.array_equal(eigh_descending_batch(garbage, compute_vectors=False)[0], w)


@pytest.mark.parametrize("p", [4, 10, 20])
def test_eigenvalue_only_path_holds_one_copy_of_the_stack(p):
    # the reduction's entries-first copy, reduced in place, plus its reflector,
    # update and scratch columns and the eigenvalues, each (p, batch)
    chunk = scatter_chunk(Spectrum(np.linspace(1.0, 0.1, p)), 2 * p, "wishart", seed=5, chunk_index=0)
    tracemalloc.start()
    try:
        eigh_descending_batch(chunk, compute_vectors=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < chunk.nbytes + 5 * chunk.itemsize * p * len(chunk)


def test_rejects_non_positive_definite():
    with pytest.raises(ValueError, match="positive definite"):
        symmetric_eigendecompose(np.diag([1.0, -2.0]))


def test_batch_shape_validation():
    with pytest.raises(ValueError):
        eigh_descending_batch(np.eye(3))


def test_decomposition_type_invariants():
    with pytest.raises(ValueError, match="orthogonal"):
        SampleDecomposition(
            eigenvalues=np.array([2.0, 1.0]),
            eigenvectors=np.array([[1.0, 0.1], [0.0, 1.0]]),
        )
    # the sample eigenvalues follow the same vector rule as a spectrum
    with pytest.raises(ValueError, match="sample eigenvalues need at least two entries, got 1"):
        SampleDecomposition(eigenvalues=[1.0], eigenvectors=[[1.0]])
    cases = [
        ([1.0, 0.0], "must be strictly positive"),
        ([1.0, -1.0], "must be strictly positive"),
        ([np.inf, 1.0], "must contain only finite values"),
        ([1.0, 2.0], "must be sorted in non-increasing order"),
        (np.eye(2), "must be one-dimensional"),
    ]
    for values, wording in cases:
        with pytest.raises(ValueError, match="sample eigenvalues " + wording):
            SampleDecomposition(eigenvalues=values, eigenvectors=np.eye(2))


def test_decomposition_forms_its_rates():
    l = np.array([0.7, 0.2, 0.1])
    dec = SampleDecomposition(eigenvalues=l, eigenvectors=np.eye(3))
    assert np.array_equal(dec.rates, l / l.sum())
    assert not dec.rates.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        dec.rates[0] = 1.0
    # the rates are the eigenvalues' to form, not the caller's
    with pytest.raises(TypeError, match="rates"):
        SampleDecomposition(eigenvalues=l, eigenvectors=np.eye(3), rates=l / l.sum())


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(2, 10))
def test_round_trip_property(seed, p):
    rng = np.random.default_rng(seed)
    s = _random_psd(rng, p)
    dec = symmetric_eigendecompose(s)
    h, l = dec.eigenvectors, dec.eigenvalues
    assert np.linalg.norm((h * l) @ h.T - s) / np.linalg.norm(s) < 1e-8
