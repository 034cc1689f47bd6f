import hashlib
import threading
import time
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
from spectra_shrink import sampling
from spectra_shrink.evaluation import sample_rates
from spectra_shrink.sampling import (
    CHUNK_SIZE,
    _TAG_ELLIPTICAL,
    _TAG_WISHART,
    _build_wishart,
    _generator,
    _store_bartlett,
    map_chunks,
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
    assert parse_distribution("t:7") == 7
    assert parse_distribution("wishart") is None


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


def _built(chi2, normals, values):
    """S = B B' from Bartlett variates: stored in an entries-first stack, then built there."""
    rows, p = chi2.shape
    s = np.empty((p, p, rows)).transpose(2, 0, 1)
    _store_bartlett(s, chi2, normals)
    _build_wishart(s, values)
    return s


def test_scalar_wishart_is_chi_square():
    # p=1 reduction through the Bartlett builder: S / sigma^2 ~ chi2(n)
    rng = np.random.default_rng(3)
    n = 10
    chi2 = rng.chisquare(np.array([float(n)]), size=(100000, 1))
    s = _built(chi2, np.empty((100000, 0)), np.array([2.5]))
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
    p=st.sampled_from([2, 3, 5, 10, 20]),
    extra_dof=st.integers(0, 397),
    log_values=st.lists(st.floats(-6.0, 6.0), min_size=20, max_size=20),
)
def test_bartlett_product_matches_matmul(seed, p, extra_dof, log_values):
    values = 10.0 ** np.array(log_values[:p])
    chi2, normals = _bartlett_variates(seed, p, p + extra_dof, 256)
    s = _built(chi2, normals, values)
    assert np.array_equal(s, s.transpose(0, 2, 1))
    ref = _bartlett_reference(chi2, normals, values)
    err = np.abs(s - ref).max(axis=(1, 2))
    assert np.all(err <= 1e-15 * np.abs(ref).max(axis=(1, 2)))


@pytest.mark.parametrize(
    "p, digest",
    [
        (3, "8ae7ed153d5bb70f6b0c77b4b808446b21ca9f772d147f71c86d13c7755b44d6"),
        (10, "7b1e4443b297de29e6e590f243b6e524d14d8d2fc5645513a095d55f1f02db72"),
    ],
)
def test_bartlett_product_bits_are_pinned(p, digest):
    # Part of the stream contract: a reordered sum moves an ulp, which the
    # golden CSVs' six printed digits do not see. The inputs are uniform
    # doubles, exact on every platform, and only sqrt, * and + touch them.
    u = np.random.Generator(np.random.Philox(key=p)).random
    chi2 = 1.0 + 400.0 * u((64, p))
    normals = 2.0 * u((64, p * (p - 1) // 2)) - 1.0
    values = 0.5 + u(p)
    s = _built(chi2, normals, values)
    data = np.ascontiguousarray(s, dtype="<f8").tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("p, n", [(3, 3), (3, 200), (10, 10), (10, 200)])
def test_wishart_chunk_is_entries_first(p, n):
    # each entry's column is contiguous; the shape, the values and every
    # decomposition of them are those of a C-ordered stack
    spec = Spectrum(np.linspace(0.5, 0.05, p))
    chunk = scatter_chunk(spec, n, "wishart", seed=n, chunk_index=0)
    assert chunk.shape == (CHUNK_SIZE, p, p)
    assert chunk.strides[0] == chunk.itemsize == 8
    dense = np.ascontiguousarray(chunk)
    for compute_vectors in (False, True):
        w, v = eigh_descending_batch(chunk, compute_vectors)
        w_dense, v_dense = eigh_descending_batch(dense, compute_vectors)
        assert np.array_equal(w, w_dense)
        assert (v is None and v_dense is None) or np.array_equal(v, v_dense)


@pytest.mark.parametrize("distribution", ["wishart", "t:5"])
@pytest.mark.parametrize("p, n", [(3, 3), (10, 100), (20, 40)])
def test_chunk_matches_blockwise_bartlett_draw(p, n, distribution):
    # The stream contract of both laws' one path: the chunk is one block,
    # its chi-squares and then its normals, built by the Wishart builder. A
    # law picks only the stream tag.
    tag = _TAG_WISHART if parse_distribution(distribution) is None else _TAG_ELLIPTICAL
    spec = Spectrum(np.linspace(1.0, 0.1, p))
    gen = _generator(13, tag, 2)
    chi2 = gen.chisquare(n - np.arange(p, dtype=np.float64), size=(CHUNK_SIZE, p))
    normals = gen.standard_normal((CHUNK_SIZE, p * (p - 1) // 2))
    ref = _built(chi2, normals, spec.values)
    chunk = scatter_chunk(spec, n, distribution, seed=13, chunk_index=2)
    assert np.array_equal(chunk, ref)
    assert chunk.strides[0] == chunk.itemsize == 8


def _data_matrix_t_draw(rng, values, n, nu, rows):
    """The elliptical-t law from its definition: (nu / w) X'X, X an n x p normal data matrix."""
    g = rng.standard_normal((rows, n, values.size)) * np.sqrt(values)
    s = g.transpose(0, 2, 1) @ g
    s *= (nu / rng.chisquare(float(nu), rows))[:, None, None]
    return s


def _t_draws(spec, n, distribution, seed, reps):
    chunks = -(-reps // CHUNK_SIZE)
    s = [scatter_chunk(spec, n, distribution, seed=seed, chunk_index=c) for c in range(chunks)]
    return np.concatenate(s)[:reps]


def test_elliptical_law_matches_the_data_matrix_reference():
    # A t chunk is the X'X of the law's matrix (nu / w) X'X. With nu / w
    # applied, w drawn from a third stream, the sampler's Bartlett route is
    # tested against an n x p data matrix, drawn from another stream, by a
    # two-sample KS test at 1 % on every rate and on two entries; the chunk
    # itself has the Wishart first moment E[S] = n diag(values), whatever nu.
    spec = Spectrum((0.4, 0.3, 0.2, 0.1))
    n, reps = 12, 20000
    s = _t_draws(spec, n, "t:5", 31, reps)
    s *= (5 / np.random.default_rng(131).chisquare(5.0, reps))[:, None, None]
    ref = _data_matrix_t_draw(np.random.default_rng(31), spec.values, n, 5, reps)
    for a, b in ((s[:, 0, 0], ref[:, 0, 0]), (s[:, 1, 0], ref[:, 1, 0])):
        assert ks_2samp(a, b).pvalue > 0.01
    rates, ref_rates = (np.linalg.eigvalsh(x)[:, ::-1] for x in (s, ref))
    rates /= rates.sum(axis=1, keepdims=True)
    ref_rates /= ref_rates.sum(axis=1, keepdims=True)
    for i in range(spec.p):
        assert ks_2samp(rates[:, i], ref_rates[:, i]).pvalue > 0.01
    s = _t_draws(spec, n, "t:9", 32, reps)
    se = s.std(axis=0, ddof=1) / np.sqrt(reps)
    expected = n * np.diag(spec.values)
    assert np.all(np.abs(s.mean(axis=0) - expected) < 3 * se)


@pytest.mark.parametrize("distribution", ["wishart", "t:5"])
@pytest.mark.parametrize("p", [3, 10, 20])
def test_chunk_is_built_by_one_call(monkeypatch, p, distribution):
    # One build call over all the chunk's rows, in place in its own stack,
    # under either law.
    built = []

    def build(s, *args):
        built.append(s)
        return _build_wishart(s, *args)

    monkeypatch.setattr(sampling, "_build_wishart", build)
    chunk = scatter_chunk(Spectrum(np.linspace(1.0, 0.1, p)), 2 * p, distribution, seed=3, chunk_index=0)
    assert len(built) == 1 and built[0] is chunk


@pytest.mark.parametrize("distribution", ["wishart", "t:5"])
@pytest.mark.parametrize("p", [3, 10, 20])
@pytest.mark.parametrize("n", ["2p", 100, 100000])
def test_wishart_chunk_memory_is_its_variates(n, p, distribution):
    # Besides the chunk, a chunk of either law holds its p(p + 1)/2 variates
    # a row and the build's p columns, and no scaled copy of them, whatever
    # n: a data-matrix draw would hold 31 MiB a chunk at p = 10, n = 100, and
    # one replicate's n x p normals alone are 8 MB at n = 100,000.
    n = 2 * p if n == "2p" else n
    spec = Spectrum(np.linspace(1.0, 0.1, p))
    tracemalloc.start()
    try:
        out = scatter_chunk(spec, n, distribution, seed=5, chunk_index=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 8 * CHUNK_SIZE * (p * (p + 1) // 2 + 2)


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


def test_map_chunks_queues_a_bounded_window():
    # at jobs > 1 a fixed window of chunks is submitted ahead of the oldest
    # unfinished one, so the queue does not grow with the number of chunks
    tracemalloc.start()
    try:
        map_chunks(lambda i: lambda: None, 5000, jobs=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_map_chunks_raises_the_first_failure_in_chunk_order():
    ran = []

    def worker(i):
        ran.append(i)
        if i in (3, 5):
            raise ValueError(f"chunk {i} failed")
        return lambda: None

    with pytest.raises(ValueError, match="chunk 3 failed"):
        map_chunks(worker, 1000, jobs=2)
    # nothing past chunk 3's window of 2 * jobs runs: the rest were never submitted
    assert max(ran) < 3 + 2 * 2


def test_map_chunks_commits_on_the_calling_thread_in_chunk_order():
    # chunk i's worker sleeps longer the smaller i is, so the workers finish
    # out of order; each returns its commit, and every commit runs on the
    # calling thread, in chunk order
    finished, committed = [], []

    def worker(i):
        time.sleep(0.02 * (8 - i))
        finished.append(i)
        return lambda: committed.append((i, threading.get_ident()))

    map_chunks(worker, 8, jobs=2)
    assert finished != sorted(finished)
    assert committed == [(i, threading.get_ident()) for i in range(8)]


@pytest.mark.parametrize("jobs", [1.5, 2.5, np.float64(2.0)])
def test_map_chunks_refuses_a_non_integer_jobs(jobs):
    # refused before any chunk runs, as an engine's replicate count is
    ran = []
    with pytest.raises(ValueError, match="jobs must be an integer"):
        map_chunks(lambda i: ran.append(i), 8, jobs)
    assert ran == []
    with pytest.raises(ValueError, match="jobs must be an integer"):
        simulate_bias(Spectrum((0.5, 0.5)), 10, "wishart", 100, seed=0, jobs=jobs)
