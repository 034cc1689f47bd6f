import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from spectra_shrink import (
    Spectrum,
    eigh_descending_batch,
    parse_distribution,
    scatter_chunk,
    simulate_bias,
)
from spectra_shrink.evaluation import sample_rates
from spectra_shrink.sampling import (
    _ELLIPTICAL_BLOCK,
    CHUNK_SIZE,
    _TAG_ELLIPTICAL,
    _build_wishart,
    _generator,
)


def test_stream_key_validation():
    spec = Spectrum((1.0, 0.5))
    seed_message = r"seed must be an integer in \[0, 2\^64\)"
    for distribution in ("wishart", "t:5"):
        scatter_chunk(spec, 3, distribution, seed=2**64 - 1, chunk_index=2**62 - 1)
        for seed in (-1, 2**64, 1.5):
            with pytest.raises(ValueError, match=seed_message):
                scatter_chunk(spec, 3, distribution, seed=seed, chunk_index=0)
        for chunk_index in (-1, 2**62):
            with pytest.raises(ValueError):
                scatter_chunk(spec, 3, distribution, seed=0, chunk_index=chunk_index)
    # the engines reach the same check: a float seed is not truncated
    with pytest.raises(ValueError, match=seed_message):
        simulate_bias(spec, 3, "wishart", 100, seed=1.5)
    with pytest.raises(ValueError):
        parse_distribution("t:2")
    with pytest.raises(ValueError):
        parse_distribution("cauchy")
    assert parse_distribution("t:7") == ("elliptical_t", 7)


# ---------------------------------------------------------------------------
# Wishart sampler
# ---------------------------------------------------------------------------


def test_wishart_rejects_small_n():
    with pytest.raises(ValueError, match="n >= p"):
        scatter_chunk(Spectrum((2.0, 1.0, 0.5)), 2, "wishart", seed=0, chunk_index=0)


@pytest.mark.parametrize("distribution", ["wishart", "t:5"])
def test_chunk_is_deterministic(distribution):
    spec = Spectrum((0.4, 0.3, 0.2, 0.1))
    first = scatter_chunk(spec, 12, distribution, seed=42, chunk_index=3)
    again = scatter_chunk(spec, 12, distribution, seed=42, chunk_index=3)
    assert first.shape == (CHUNK_SIZE, 4, 4)
    assert first.tobytes() == again.tobytes()
    later = scatter_chunk(spec, 12, distribution, seed=42, chunk_index=4)
    assert not np.any(np.all(first == later, axis=(1, 2)))


def test_scalar_wishart_is_chi_square():
    # p=1 reduction through the Bartlett builder: S / sigma^2 ~ chi2(n)
    rng = np.random.default_rng(3)
    n = 10
    chi2 = rng.chisquare(np.array([float(n)]), size=(100000, 1))
    s = _build_wishart(chi2, np.empty((100000, 0)), np.array([2.5]))
    mean = s[:, 0, 0].mean()
    assert abs(mean - n * 2.5) / (n * 2.5) < 0.01


def test_wishart_first_moment():
    spec = Spectrum((3.0, 2.0, 1.0))
    n, reps = 10, 100000
    total = np.zeros((3, 3))
    for chunk in range(-(-reps // CHUNK_SIZE)):
        rows = min(CHUNK_SIZE, reps - chunk * CHUNK_SIZE)
        total += scatter_chunk(spec, n, "wishart", seed=5, chunk_index=chunk)[:rows].sum(axis=0)
    mean = total / reps
    dev = np.abs(mean / n - np.diag(spec.values)).max() / spec.values.max()
    assert dev < 0.02
    # MC-noise-based bound: entrywise SE is at most sqrt(2/(n reps)) * max lambda
    assert dev < 3.0 * np.sqrt(2.0 / (n * reps))


def _bartlett_variates(seed, p, n, rows):
    rng = np.random.default_rng(seed)
    chi2 = rng.chisquare(n - np.arange(p, dtype=np.float64), size=(rows, p))
    normals = rng.standard_normal((rows, p * (p - 1) // 2))
    return chi2, normals


def _bartlett_reference(chi2, normals, values):
    """B B' through a zero-filled factor B = diag(sqrt(values)) A and a matmul."""
    rows, p = chi2.shape
    a = np.zeros((rows, p, p))
    idx = np.arange(p)
    a[:, idx, idx] = np.sqrt(chi2)
    il, jl = np.tril_indices(p, -1)
    a[:, il, jl] = normals
    b = np.sqrt(values)[None, :, None] * a
    return b @ b.transpose(0, 2, 1)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 400),
    log_values=st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=3),
)
def test_3x3_bartlett_product_matches_matmul(seed, n, log_values):
    values = 10.0 ** np.array(log_values)
    chi2, normals = _bartlett_variates(seed, 3, n, 256)
    s = _build_wishart(chi2, normals, values)
    assert np.array_equal(s, s.transpose(0, 2, 1))
    ref = _bartlett_reference(chi2, normals, values)
    err = np.abs(s - ref).max(axis=(1, 2))
    assert np.all(err <= 1e-15 * np.abs(ref).max(axis=(1, 2)))


@pytest.mark.parametrize("p", [2, 10, 20])
def test_bartlett_product_is_bit_identical_to_matmul(p):
    chi2, normals = _bartlett_variates(p, p, 2 * p, 512)
    values = np.linspace(3.0, 0.2, p)
    assert np.array_equal(
        _build_wishart(chi2, normals, values), _bartlett_reference(chi2, normals, values)
    )


@pytest.mark.parametrize("n", [3, 200])
def test_3x3_wishart_chunk_is_entries_first(n):
    # each entry's column is contiguous; the shape, the values and every
    # decomposition of them are those of a C-ordered stack
    chunk = scatter_chunk(Spectrum((0.5, 0.3, 0.2)), n, "wishart", seed=n, chunk_index=0)
    assert chunk.shape == (CHUNK_SIZE, 3, 3)
    assert chunk.strides[0] == chunk.itemsize == 8
    dense = np.ascontiguousarray(chunk)
    for compute_vectors in (False, True):
        w, v = eigh_descending_batch(chunk, compute_vectors)
        w_dense, v_dense = eigh_descending_batch(dense, compute_vectors)
        assert np.array_equal(w, w_dense)
        assert (v is None and v_dense is None) or np.array_equal(v, v_dense)


@pytest.mark.parametrize("p, n", [(3, 3), (10, 100), (20, 40)])
def test_elliptical_chunk_matches_one_shot_draw(p, n):
    # The sampler draws its normals in row blocks; the stream contract is
    # one (CHUNK_SIZE, n, p) draw followed by the mixing draw.
    spec = Spectrum(np.linspace(1.0, 0.1, p))
    gen = _generator(13, _TAG_ELLIPTICAL, 2)
    g = gen.standard_normal((CHUNK_SIZE, n, p))
    mix = gen.chisquare(5.0, CHUNK_SIZE)
    g *= np.sqrt(spec.values)
    ref = g.transpose(0, 2, 1) @ g
    ref *= (5 / mix)[:, None, None]
    assert np.array_equal(scatter_chunk(spec, n, "t:5", seed=13, chunk_index=2), ref)


@pytest.mark.parametrize("n", [100, 400])
def test_elliptical_chunk_memory_is_bounded(n):
    # Normals are held one _ELLIPTICAL_BLOCK of rows at a time; a one-shot
    # (CHUNK_SIZE, n, p) draw would hold 31 MiB at n=100 and 125 MiB at n=400.
    spec = Spectrum(np.linspace(1.0, 0.1, 10))
    tracemalloc.start()
    try:
        out = scatter_chunk(spec, n, "t:5", seed=5, chunk_index=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 2 * _ELLIPTICAL_BLOCK * n * spec.p * 8


@pytest.mark.parametrize("distribution", ["wishart", "t:5"])
def test_sampled_scatter_is_symmetric_pd(distribution):
    spec = Spectrum((2.0, 1.0, 0.5, 0.25))
    s = scatter_chunk(spec, 6, distribution, seed=11, chunk_index=0)[:200]
    assert np.array_equal(s, s.transpose(0, 2, 1))
    assert np.linalg.eigvalsh(s).min() > 0


# ---------------------------------------------------------------------------
# elliptical-t sampler
# ---------------------------------------------------------------------------


def test_elliptical_rejects_small_nu():
    spec = Spectrum((1.0, 0.5))
    with pytest.raises(ValueError, match="nu >= 3"):
        scatter_chunk(spec, 10, "t:2", seed=0, chunk_index=0)


def test_elliptical_rates_sum_to_one_per_draw():
    spec = Spectrum((0.3, 0.25, 0.2, 0.15, 0.1))
    d = sample_rates(spec, 20, "t:5", 500, seed=2)
    np.testing.assert_allclose(d.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(d > 0)


def test_large_nu_matches_wishart_rates():
    # t with huge nu is indistinguishable from the normal route
    spec = Spectrum((0.4, 0.3, 0.15, 0.1, 0.05))
    d_w = sample_rates(spec, 20, "wishart", 5000, seed=4)
    d_t = sample_rates(spec, 20, "t:1000000", 5000, seed=4)
    stat = ks_2samp(d_w[:, 0], d_t[:, 0]).statistic
    critical = np.sqrt(-np.log(0.005) / 2) * np.sqrt(2 / 5000)
    assert stat < critical


def test_wishart_and_elliptical_streams_differ():
    spec = Spectrum((1.0, 0.5))
    w = scatter_chunk(spec, 10, "wishart", seed=3, chunk_index=0)
    t = scatter_chunk(spec, 10, "t:5", seed=3, chunk_index=0)
    assert not np.array_equal(w[0], t[0])
