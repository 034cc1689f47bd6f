import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from spectra_shrink import (
    SamplerConfig,
    SpikedModel,
    Spectrum,
    parse_distribution,
    sample_elliptical_t,
    sample_wishart,
    spiked_spectrum,
)
from spectra_shrink.evaluation import sample_rates
from spectra_shrink.sampling import (
    CHUNK_SIZE,
    _TAG_ELLIPTICAL,
    _build_wishart,
    _generator,
    rescue_scatter,
    scatter_chunk,
)


# ---------------------------------------------------------------------------
# spiked model
# ---------------------------------------------------------------------------


def test_spiked_spectrum_examples():
    m5 = SpikedModel(factor_count=5, spikes=(18.0,) * 5, noise_variance=1.0, dimension=10)
    np.testing.assert_allclose(spiked_spectrum(m5).values, [19.0] * 5 + [1.0] * 5)
    m1 = SpikedModel(factor_count=1, spikes=(90.0,), noise_variance=1.0, dimension=10)
    np.testing.assert_allclose(spiked_spectrum(m1).values, [91.0] + [1.0] * 9)
    flat = SpikedModel(factor_count=0, spikes=(), noise_variance=2.0, dimension=4)
    np.testing.assert_allclose(spiked_spectrum(flat).values, [2.0] * 4)


def test_spiked_model_validation():
    with pytest.raises(ValueError):
        SpikedModel(factor_count=4, spikes=(1.0,) * 4, noise_variance=1.0, dimension=4)
    with pytest.raises(ValueError):
        SpikedModel(factor_count=2, spikes=(1.0, 2.0), noise_variance=1.0, dimension=5)
    with pytest.raises(ValueError):
        SpikedModel(factor_count=1, spikes=(1.0,), noise_variance=0.0, dimension=5)


def test_sampler_config_validation():
    SamplerConfig(seed=0)
    SamplerConfig(seed=2**64 - 1, replicate_index=2**62 - 1, distribution="t:5")
    with pytest.raises(ValueError):
        SamplerConfig(seed=-1)
    with pytest.raises(ValueError):
        SamplerConfig(seed=0, distribution="t:2")
    with pytest.raises(ValueError):
        SamplerConfig(seed=0, distribution="cauchy")
    assert parse_distribution("t:7") == ("elliptical_t", 7)


# ---------------------------------------------------------------------------
# Wishart sampler
# ---------------------------------------------------------------------------


def test_wishart_rejects_small_n():
    with pytest.raises(ValueError, match="n >= p"):
        sample_wishart(Spectrum((2.0, 1.0, 0.5)), 2, SamplerConfig(seed=0))


def test_wishart_draw_is_deterministic():
    spec = Spectrum((4.0, 1.0))
    cfg = SamplerConfig(seed=42, replicate_index=12345)
    s1 = sample_wishart(spec, 10, cfg)
    s2 = sample_wishart(spec, 10, cfg)
    assert np.array_equal(s1.matrix, s2.matrix)
    assert s1.dof == 10
    other = sample_wishart(spec, 10, SamplerConfig(seed=42, replicate_index=12346))
    assert not np.array_equal(s1.matrix, other.matrix)


def test_single_draws_match_batch_rows_in_any_order():
    spec = Spectrum((0.5, 0.3, 0.2))
    batch = scatter_chunk(spec, 12, "wishart", seed=7, chunk_index=0)
    order = np.random.default_rng(1).permutation(20)
    for r in order:
        single = sample_wishart(spec, 12, SamplerConfig(seed=7, replicate_index=int(r)))
        assert np.array_equal(single.matrix, batch[r])
    # replicates beyond one chunk land in later chunks
    r = CHUNK_SIZE + 3
    batch1 = scatter_chunk(spec, 12, "wishart", seed=7, chunk_index=1)
    single = sample_wishart(spec, 12, SamplerConfig(seed=7, replicate_index=r))
    assert np.array_equal(single.matrix, batch1[3])


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


@pytest.mark.parametrize("replicate", [0, 1500, 4095, 4096 + 7])
def test_single_elliptical_draw_matches_one_shot_draw(replicate):
    # One draw walks its chunk's normals block by block; the stream contract
    # is one (CHUNK_SIZE, n, p) draw followed by the mixing draw.
    spec = Spectrum((0.4, 0.3, 0.2, 0.1))
    n = 12
    chunk, row = divmod(replicate, CHUNK_SIZE)
    gen = _generator(21, _TAG_ELLIPTICAL, chunk)
    g = gen.standard_normal((CHUNK_SIZE, n, spec.p))
    mix = gen.chisquare(5.0, CHUNK_SIZE)
    z = g[row] * np.sqrt(spec.values)[None, :]
    ref = (z.T @ z) * (5 / mix[row])
    draw = sample_elliptical_t(spec, n, 5, SamplerConfig(seed=21, replicate_index=replicate))
    assert np.array_equal(draw.matrix, ref)


def test_single_elliptical_draw_memory_is_bounded():
    spec = Spectrum(np.linspace(1.0, 0.1, 10))
    cfg = SamplerConfig(seed=5, replicate_index=100)
    tracemalloc.start()
    try:
        sample_elliptical_t(spec, 100, 5, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a whole chunk of normals at n=100, p=10 would be ~33 MB
    assert peak < 8 * 2**20


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
        sample_elliptical_t(spec, 10, 2, SamplerConfig(seed=0))


def test_elliptical_draw_deterministic_and_symmetric():
    spec = Spectrum((0.4, 0.3, 0.2, 0.1))
    cfg = SamplerConfig(seed=8, replicate_index=77)
    s1 = sample_elliptical_t(spec, 12, 5, cfg)
    s2 = sample_elliptical_t(spec, 12, 5, cfg)
    assert np.array_equal(s1.matrix, s2.matrix)
    assert np.linalg.eigvalsh(s1.matrix).min() > 0


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
    w = sample_wishart(spec, 10, SamplerConfig(seed=3, replicate_index=0))
    t = sample_elliptical_t(spec, 10, 5, SamplerConfig(seed=3, replicate_index=0))
    assert not np.array_equal(w.matrix, t.matrix)


def test_rescue_stream_is_distinct_and_deterministic():
    spec = Spectrum((1.0, 0.5))
    a = rescue_scatter(spec, 10, "wishart", seed=3, replicate=0, attempt=0)
    b = rescue_scatter(spec, 10, "wishart", seed=3, replicate=0, attempt=0)
    c = rescue_scatter(spec, 10, "wishart", seed=3, replicate=0, attempt=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    main = sample_wishart(spec, 10, SamplerConfig(seed=3, replicate_index=0))
    assert not np.array_equal(a, main.matrix)
