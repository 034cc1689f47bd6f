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
    # per-row results must not depend on the batch they were decomposed in
    rng = np.random.default_rng(5)
    mats = [_random_psd(rng, p) for _ in range(32)]
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
