import time
import tracemalloc
from math import fsum, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma

from spectra_shrink import (
    ContributionRates,
    ShrinkageWeights,
    Spectrum,
    bias_expansion,
    classical_weights,
    compare_risks,
    dimension_experiment_for_spectrum,
    entropy_loss,
    entropy_risk_difference_bound,
    family_weights,
    invariance_check,
    plugin_covariance,
    quadratic_loss,
    relative_criterion,
    sample_rates,
    shrink_estimate,
    simulate_bias,
    simulate_stein_haff,
    stein_haff_G,
    symmetric_eigendecompose,
)
from spectra_shrink import evaluation, sampling
from spectra_shrink.cases import table2_spectrum
from spectra_shrink.cli import main
from spectra_shrink.evaluation import (
    _batch_rates,
    _entropy_losses,
    _g_batch,
    _quadratic_losses,
)
from spectra_shrink.sampling import CHUNK_SIZE, scatter_chunk


def _draws(spec, n, distribution, seed, replicates):
    """The first ``replicates`` scatter draws of a stream, shape (replicates, p, p)."""
    chunks = range(-(-replicates // CHUNK_SIZE))
    return np.concatenate([scatter_chunk(spec, n, distribution, seed, c) for c in chunks])[:replicates]


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_entropy_loss_zero_at_truth():
    m = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert entropy_loss(m, m) == 0.0


def test_entropy_loss_hand_value():
    est = np.diag([np.e, 1.0])
    loss = entropy_loss(est, np.eye(2))
    assert abs(loss - (np.e - 2.0)) < 1e-12
    assert isinstance(loss, float)


def test_entropy_loss_scalar_reduction():
    for c in (0.5, 2.0, 3.7):
        loss = entropy_loss(c * np.eye(4), np.eye(4))
        assert abs(loss - 4 * (c - np.log(c) - 1.0)) < 1e-12
        assert loss > 0


def test_entropy_loss_rejects_singular_truth():
    with pytest.raises(ValueError, match="positive definite"):
        entropy_loss(np.eye(2), np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="positive definite"):
        entropy_loss(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        entropy_loss(np.diag([1.0, np.nan]), np.eye(2))


def test_quadratic_loss_examples():
    truth = ContributionRates((0.5, 0.5))
    assert quadratic_loss(truth, truth) == 0.0
    loss = quadratic_loss(ContributionRates((0.4, 0.6)), truth)
    assert abs(loss - 0.08) < 1e-14
    # no scale invariance: doubling the estimate follows the plain formula
    est = ContributionRates((0.8, 1.2))
    expected = (1 - 0.8 / 0.5) ** 2 + (1 - 1.2 / 0.5) ** 2
    assert abs(quadratic_loss(est, truth) - expected) < 1e-12


def test_loss_positivity_random_inputs():
    rng = np.random.default_rng(17)
    for _ in range(10000):
        t = rng.uniform(0.05, 1.0, 3)
        e = rng.uniform(0.05, 1.0, 3)
        assert quadratic_loss(ContributionRates(e), ContributionRates(t)) >= 0.0
    for _ in range(2000):
        a = rng.standard_normal((3, 3))
        est = a @ a.T + 0.05 * np.eye(3)
        b = rng.standard_normal((3, 3))
        tru = b @ b.T + 0.05 * np.eye(3)
        assert entropy_loss(est, tru) >= 0.0


# ---------------------------------------------------------------------------
# Stein-Haff functional
# ---------------------------------------------------------------------------


def test_g_hand_value():
    dec = symmetric_eigendecompose(np.diag([3.0, 1.0]))
    ones = classical_weights(2, 5)
    assert abs(stein_haff_G(dec, ones, 5) - 2.0) < 1e-14


def test_g_rejects_coincident_eigenvalues():
    dec = symmetric_eigendecompose(np.eye(2))
    with pytest.raises(ValueError, match="coincident"):
        stein_haff_G(dec, classical_weights(2, 5), 5)


def _zigzag_weights(p, n):
    """Positive weights that are not monotone: 0.8, 1.0, 1.2, 0.8, ..."""
    return ShrinkageWeights(beta=0.8 + 0.2 * (np.arange(p) % 3), dof=n)


def test_g_batch_matches_scalar():
    rng = np.random.default_rng(23)
    weights = [classical_weights(6, 15), family_weights(6, 15, 1), _zigzag_weights(6, 15)]
    decs = []
    for _ in range(10):
        a = rng.standard_normal((15, 6))
        decs.append(symmetric_eigendecompose(a.T @ a))
    l = np.stack([dec.eigenvalues for dec in decs])
    d = np.stack([dec.rates for dec in decs])
    batched = _g_batch(l, d, np.stack([w.beta for w in weights]), 15)
    assert batched.shape == (3, 10)
    for k, w in enumerate(weights):
        for r, dec in enumerate(decs):
            assert abs(stein_haff_G(dec, w, 15) - batched[k, r]) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 10), st.integers(0, 20))
def test_batch_losses_match_scalar(seed, p, extra):
    rng = np.random.default_rng(seed)
    n = p + extra
    tau = np.sort(rng.uniform(0.1, 10.0, p))[::-1]
    tau /= tau.sum()
    a = rng.standard_normal((8, n, p)) * np.sqrt(tau)
    s = a.transpose(0, 2, 1) @ a
    weights = [classical_weights(p, n), family_weights(p, n, 1), _zigzag_weights(p, n)]
    betas = np.stack([w.beta for w in weights])
    _, d, q = _batch_rates(s, need_vectors=True)
    entropy = _entropy_losses(d, q, betas, tau)
    quadratic = _quadratic_losses(d, betas, tau)
    truth = ContributionRates(tau)
    for r in range(s.shape[0]):
        dec = symmetric_eigendecompose(s[r])
        for k, w in enumerate(weights):
            est = shrink_estimate(dec, w)
            scalar = entropy_loss(plugin_covariance(dec, est), np.diag(tau))
            assert abs(entropy[k, r] - scalar) <= 1e-9 * max(1.0, scalar)
            scalar = quadratic_loss(est, truth)
            assert abs(quadratic[k, r] - scalar) <= 1e-9 * max(1.0, scalar)


def test_batch_rates_rejects_non_positive_eigenvalue():
    # positive trace, negative eigenvalue: the trace alone would let it through
    s = np.stack([np.eye(2), np.diag([1.0, -0.5])])
    with pytest.raises(RuntimeError, match="non-positive eigenvalue"):
        _batch_rates(s, need_vectors=False)


@pytest.mark.parametrize("p, need_vectors", [(3, False), (4, True)])
def test_batch_rates_checks_eigenvalue_sum_against_trace(p, need_vectors, monkeypatch):
    # p = 3 without vectors runs the closed form, p = 4 with vectors LAPACK
    spec = Spectrum(np.linspace(1.0, 0.5, p))
    s = scatter_chunk(spec, 20, "wishart", seed=3, chunk_index=0)[:200]
    _batch_rates(s, need_vectors)  # the unperturbed solve passes
    solve = evaluation.eigh_descending_batch

    def perturbed(a, compute_vectors=True):
        w, v = solve(a, compute_vectors)
        w = w.copy()
        w[7, 0] *= 1.0 + 1e-9
        return w, v

    monkeypatch.setattr(evaluation, "eigh_descending_batch", perturbed)
    with pytest.raises(RuntimeError, match="eigenvalue sum departs from the trace"):
        _batch_rates(s, need_vectors)
    # the CLI reports it as a numerical failure
    monkeypatch.setattr(sampling, "scatter_chunk", lambda *args: s.copy())
    argv = ["bias", "--spectrum", ",".join(map(str, spec.values)), "--n", "20", "--reps", "200"]
    assert main(argv) == 4


def test_batch_rates_checks_eigenvectors_against_diagonal(monkeypatch):
    # S_jj = sum_k l_k v_jk^2 for every row; one perturbed vector entry
    # leaves the eigenvalues, hence the trace check, untouched
    spec = Spectrum(np.linspace(1.0, 0.5, 4))
    s = scatter_chunk(spec, 20, "wishart", seed=3, chunk_index=0)[:200]
    _batch_rates(s, need_vectors=True)  # the unperturbed solve passes
    solve = evaluation.eigh_descending_batch

    def perturbed(a, compute_vectors=True):
        w, v = solve(a, compute_vectors)
        if v is not None:
            v = v.copy()
            v[7, 2, 0] *= 1.0 + 1e-6
        return w, v

    monkeypatch.setattr(evaluation, "eigh_descending_batch", perturbed)
    with pytest.raises(RuntimeError, match="eigenvectors reconstruct diag S only to"):
        _batch_rates(s, need_vectors=True)
    _batch_rates(s, need_vectors=False)  # the eigenvalue path reads no vectors
    # the CLI reports it as a numerical failure; stein-haff is the command
    # whose engine reads eigenvectors (risk runs quadratic losses)
    monkeypatch.setattr(sampling, "scatter_chunk", lambda *args: s.copy())
    argv = ["stein-haff", "--spectrum", ",".join(map(str, spec.values)), "--n", "20", "--reps", "200"]
    assert main(argv) == 4


def _fields(result):
    return [np.asarray(x) for x in vars(result).values()]


def test_batch_engines_do_not_depend_on_eigenvector_signs(monkeypatch):
    # p = 10, n = 30: 2,300 replicates is the least count that takes the
    # control variates (checked below against the plain SEs); t:5 takes the
    # empty control basis
    n = 30
    spec = Spectrum(np.linspace(1.0, 0.1, 10))
    w = [classical_weights(10, n), family_weights(10, n, 1), family_weights(10, n, 2)]
    runs = [
        lambda: compare_risks(spec, n, w, "entropy", "wishart", 2300, seed=5),
        lambda: compare_risks(spec, n, w, "entropy", "t:5", 300, seed=5),
        lambda: simulate_stein_haff(spec, n, w, 500, seed=5),
    ]
    unflipped = [run() for run in runs]
    _, plain_ses = _plain_risk_moments(spec, n, "entropy", "wishart", 5, 2300, w)
    assert np.all(_risk_moments(unflipped[0])[1] < 0.9 * plain_ses)
    solve = evaluation.eigh_descending_batch

    def flipped(a, compute_vectors=True):
        # negate a fixed pseudo-random set of each row's eigenvector columns
        w, v = solve(a, compute_vectors)
        if v is None:
            return w, v
        flip = np.random.default_rng(17).random((v.shape[0], v.shape[2])) < 0.5
        assert flip.any() and not flip.all()
        return w, np.where(flip[:, None, :], -v, v)

    monkeypatch.setattr(evaluation, "eigh_descending_batch", flipped)
    for before, after in zip(unflipped, (run() for run in runs)):
        if isinstance(before, list):
            before = [x for check in before for x in _fields(check)]
            after = [x for check in after for x in _fields(check)]
        else:
            before, after = _fields(before), _fields(after)
        assert all(np.array_equal(x, y) for x, y in zip(before, after, strict=True))


def test_stein_haff_identity_monte_carlo():
    spec = Spectrum((0.5, 0.3, 0.2))
    checks = simulate_stein_haff(spec, 10, [classical_weights(3, 10)], 20000, seed=31)
    c = checks[0]
    assert abs(c.diff_mean) <= 3.0 * c.diff_std_error
    assert c.replicates == 20000


def test_stein_haff_raises_on_tied_eigenvalues(monkeypatch):
    # G has a 1 / (l_i - l_j) pair term, so a tie leaves it non-finite
    tied = np.repeat(np.diag([2.0, 1.0, 1.0])[None], CHUNK_SIZE, axis=0)
    monkeypatch.setattr(sampling, "scatter_chunk", lambda *args: tied.copy())
    with pytest.raises(RuntimeError, match="tied eigenvalues"):
        simulate_stein_haff(Spectrum((0.5, 0.3, 0.2)), 10, [classical_weights(3, 10)], 100, seed=0)


def test_pathwise_risk_difference_bound():
    # the dominance proof makes this quantity non-positive draw by draw
    spec = Spectrum((0.1,) * 10)
    w1 = family_weights(10, 30, 1)
    betas = np.stack([w1.beta, np.ones(10)])
    log_beta = np.sum(np.log(w1.beta))
    l, d, _ = _batch_rates(_draws(spec, 30, "wishart", 37, 10000), need_vectors=False)
    g = _g_batch(l, d, betas, 30)
    assert (g[0] - g[1] - log_beta).max() <= 1e-10


def test_risk_difference_bound_single_sample():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((30, 10))
    dec = symmetric_eigendecompose(a.T @ a)
    w1 = family_weights(10, 30, 1)
    assert entropy_risk_difference_bound(dec, w1, 30) <= 0.0


# ---------------------------------------------------------------------------
# bias expansion
# ---------------------------------------------------------------------------


def test_bias_expansion_p2_hand_value():
    spec = Spectrum((0.75, 0.25))
    for n in (10, 50, 1000):
        exp = bias_expansion(spec, n)
        np.testing.assert_allclose(exp, [0.75 + 0.1875 / n, 0.25 - 0.1875 / n], atol=1e-15)


def test_bias_expansion_p3_hand_value():
    exp = bias_expansion(Spectrum((0.5, 0.3, 0.2)), 100)
    coeffs = np.array([0.963333333333, -0.102, -0.861333333333])
    np.testing.assert_allclose(exp, np.array([0.5, 0.3, 0.2]) + coeffs / 100, atol=1e-10)


def _separated(values):
    ordered = sorted(values, reverse=True)
    gaps = np.diff(ordered[::-1])
    return gaps.size > 0 and gaps.min() > 1e-4 * ordered[0]


@settings(max_examples=50)
@given(
    values=st.lists(st.floats(0.05, 10.0), min_size=2, max_size=8, unique=True).filter(_separated)
)
def test_bias_expansion_coefficients_sum_to_zero(values):
    spec = Spectrum(sorted(values, reverse=True))
    exp = bias_expansion(spec, 50)
    # sum of E(d_i) approximations is exactly one, so the 1/n terms cancel
    assert abs(exp.sum() - 1.0) < 1e-10


def test_bias_expansion_rejects_multiplicity():
    with pytest.raises(ValueError, match="multiplicity"):
        bias_expansion(Spectrum((0.4, 0.3, 0.3)), 50)


def test_bias_expansion_matches_monte_carlo():
    spec = Spectrum((0.5, 0.3, 0.2))
    n = 200
    means = simulate_bias(spec, n, "wishart", 100000, seed=43).mean_rates
    assert np.abs(means - bias_expansion(spec, n)).max() < 1e-3


# ---------------------------------------------------------------------------
# risk engines
# ---------------------------------------------------------------------------


def test_single_estimator_risk_matches_paired_row():
    spec = Spectrum((0.14,) * 5 + (0.06,) * 5)
    w0 = classical_weights(10, 30)
    w1 = family_weights(10, 30, 1)
    cmp = compare_risks(spec, 30, [w0, w1], "quadratic", "wishart", 500, seed=3)
    solo0 = compare_risks(spec, 30, [w0], "quadratic", "wishart", 500, seed=3)
    solo1 = compare_risks(spec, 30, [w1], "quadratic", "wishart", 500, seed=3)
    assert solo0.mean_losses[0] == cmp.mean_losses[0]
    assert solo1.mean_losses[0] == cmp.mean_losses[1]
    assert cmp.replicates == 500


def test_compare_risks_entropy_runs_and_dominates():
    spec = Spectrum((0.1,) * 10)
    w = [classical_weights(10, 30), family_weights(10, 30, 1)]
    cmp = compare_risks(spec, 30, w, "entropy", "wishart", 2000, seed=3)
    assert cmp.mean_losses[1] < cmp.mean_losses[0]
    assert cmp.diff_means[0] < 0


def test_replicate_floor_enforced():
    # the floor, and an integer count, are refused by every engine before a draw
    spec = Spectrum((0.5, 0.5))
    for reps, message in ((99, "at least 100, got 99"), (1000.0, "an integer, got 1000.0")):
        with pytest.raises(ValueError, match=message):
            simulate_bias(spec, 10, "wishart", reps, seed=0)
        with pytest.raises(ValueError, match=message):
            compare_risks(
                Spectrum((0.1,) * 10),
                30,
                [classical_weights(10, 30)],
                "quadratic",
                "wishart",
                reps,
                seed=0,
            )
        with pytest.raises(ValueError, match=message):
            sample_rates(spec, 10, "wishart", reps, seed=0)
        with pytest.raises(ValueError, match=message):
            simulate_stein_haff(spec, 10, [classical_weights(2, 10)], reps, seed=0)
        with pytest.raises(ValueError, match=message):
            dimension_experiment_for_spectrum(
                spec, 10, [classical_weights(2, 10)], [relative_criterion()], reps, seed=0
            )


def _no_draw(*args):
    raise AssertionError("a chunk was sampled")


def _no_stream(*args, **kwargs):
    raise AssertionError("a Philox stream was created")


@pytest.mark.parametrize("jobs", [0, -3])
def test_engines_reject_invalid_jobs(jobs, monkeypatch):
    monkeypatch.setattr(sampling, "scatter_chunk", _no_draw)
    with pytest.raises(ValueError, match=f"jobs must be positive, got {jobs}"):
        simulate_bias(Spectrum((0.5, 0.5)), 10, "wishart", 100, seed=0, jobs=jobs)


def test_invariance_rejects_nu_before_sampling(monkeypatch):
    monkeypatch.setattr(sampling, "scatter_chunk", _no_draw)
    monkeypatch.setattr(np.random, "Philox", _no_stream)
    with pytest.raises(ValueError, match="nu >= 3, got 2"):
        invariance_check(Spectrum((0.5, 0.3, 0.2)), 10, 2, 200_000, seed=0)
    # a fractional nu is refused, not truncated
    with pytest.raises(ValueError, match="malformed"):
        invariance_check(Spectrum((0.5, 0.3, 0.2)), 10, 3.9, 200_000, seed=0)
    # so is a KS level outside (0, 1), where the critical value has no meaning
    for alpha in (0.0, 1.0, 2.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            invariance_check(Spectrum((0.5, 0.3, 0.2)), 10, 5, 1000, seed=0, alpha=alpha)


def test_stacking_needs_a_weight_vector():
    with pytest.raises(ValueError, match="at least one weight vector"):
        simulate_stein_haff(Spectrum((0.5, 0.3, 0.2)), 10, [], 100, seed=0)


def test_jobs_do_not_change_results():
    spec = Spectrum((0.4, 0.3, 0.2, 0.1))
    one = simulate_bias(spec, 12, "wishart", 9000, seed=19, jobs=1)
    four = simulate_bias(spec, 12, "wishart", 9000, seed=19, jobs=4)
    assert np.array_equal(one.mean_rates, four.mean_rates)
    assert np.array_equal(one.std_errors, four.std_errors)
    # the control-variate branch at p=3, paired entropy risks and the trace
    # identity, with a partial last chunk, and with a one-row last chunk,
    # whose odd fold is empty
    w = [classical_weights(4, 12), family_weights(4, 12, 1)]
    for replicates in (3 * 4096 + 77, 4096 + 1):
        spec = Spectrum((0.5, 0.3, 0.2))
        one = simulate_bias(spec, 50, "wishart", replicates, seed=19, jobs=1, control_variate=True)
        four = simulate_bias(spec, 50, "wishart", replicates, seed=19, jobs=4, control_variate=True)
        assert np.array_equal(one.mean_rates, four.mean_rates)
        assert np.array_equal(one.std_errors, four.std_errors)
        spec = Spectrum((0.4, 0.3, 0.2, 0.1))
        one = compare_risks(spec, 12, w, "entropy", "wishart", replicates, seed=19, jobs=1)
        four = compare_risks(spec, 12, w, "entropy", "wishart", replicates, seed=19, jobs=4)
        for name in ("mean_losses", "std_errors", "diff_means", "diff_std_errors"):
            assert np.array_equal(getattr(one, name), getattr(four, name))
        one = simulate_stein_haff(spec, 12, w, replicates, seed=19, jobs=1)
        four = simulate_stein_haff(spec, 12, w, replicates, seed=19, jobs=4)
        assert one == four


def test_fold_takes_the_chunks_in_order(monkeypatch):
    # chunk 0 is sampled last, yet the fold sees the chunks in index order;
    # a chunk that raises fails the run instead of leaving later chunks unfolded
    sample = sampling.scatter_chunk

    def first_chunk_last(spectrum, n, distribution, seed, chunk):
        if chunk == 0:
            time.sleep(0.2)
        if chunk == fail_at:
            raise RuntimeError("chunk failed")
        return sample(spectrum, n, distribution, seed, chunk)

    monkeypatch.setattr(sampling, "scatter_chunk", first_chunk_last)
    spec, n, seed = Spectrum((0.5, 0.3, 0.2)), 10, 3
    args = (spec, n, "wishart", 4 * CHUNK_SIZE, seed)
    stat = lambda s, l, d, q: [float(s[0, 0, 0])]  # noqa: E731
    fold = lambda a, b: a + b  # noqa: E731
    fail_at = None
    folded = evaluation._run_chunks(*args, 3, False, stat, fold)
    assert folded == [float(sample(spec, n, "wishart", seed, c)[0, 0, 0]) for c in range(4)]
    fail_at = 1
    with pytest.raises(RuntimeError, match="chunk failed"):
        evaluation._run_chunks(*args, 3, False, stat, fold)


def _risks_at_row1(loss):
    w = [classical_weights(10, 30), family_weights(10, 30, 1), family_weights(10, 30, 2)]
    return lambda: compare_risks(table2_spectrum(1), 30, w, loss, "wishart", CHUNK_SIZE, seed=1)


@pytest.mark.parametrize(
    "engine, k",
    [
        # 114 controls, 3 losses and 2 differences at p = 10, n = 30
        pytest.param(_risks_at_row1("entropy"), 119, id="entropy"),
        pytest.param(_risks_at_row1("quadratic"), 119, id="quadratic"),
        # c_2, c_3, t_2, t_3 and 3 rates
        pytest.param(
            lambda: simulate_bias(Spectrum((0.5, 0.3, 0.2)), 200, "wishart", CHUNK_SIZE, 1, control_variate=True),
            7,
            id="bias-cv",
        ),
    ],
)
def test_reduce_memory_is_one_fold(monkeypatch, engine, k):
    # Each stat runs on one parity fold at a time, so the reduce layer holds
    # about one fold's (k, CHUNK_SIZE / 2) statistics array, not a whole
    # chunk's and its two fold copies. Sampling and decomposition are stubbed
    # with one chunk, computed before the traced call.
    cache = {}
    sample, decompose = sampling.scatter_chunk, evaluation._batch_rates

    def one_chunk(spectrum, n, distribution, seed, chunk):
        if "s" not in cache:
            cache["s"] = sample(spectrum, n, distribution, seed, chunk)
        return cache["s"]

    def rates(s, need_vectors):
        if "rates" not in cache:
            cache["rates"] = decompose(s, need_vectors)
        return cache["rates"]

    monkeypatch.setattr(sampling, "scatter_chunk", one_chunk)
    monkeypatch.setattr(evaluation, "_batch_rates", rates)
    engine()
    fold = k * (CHUNK_SIZE // 2) * 8
    tracemalloc.start()
    try:
        engine()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * fold, peak / fold


def _expansion_terms(spec, n, seed, replicates):
    """Per-replicate rates and the first-, second- and third-order terms of their expansion.

    Rebuilt from scatter_chunk with E = S/n - Lambda, t = tr E, T the
    spectrum total, u = t/T and g_ij = 1/(lambda_i - lambda_j): the
    first-order term is E_ii/T - lambda_i t/T^2; the second-order term is
    Q_i/T - u times the first, with Q_i the sum over j != i of g_ij E_ij^2;
    and the third-order term is (R_i - Q_i u + E_ii u^2 - lambda_i u^3)/T,
    with R_i the sum over j, k != i of g_ij g_ik E_ij E_jk E_ki less E_ii
    times the sum over j != i of g_ij^2 E_ij^2. All four are (replicates, p).
    """
    lam, total = spec.values, spec.values.sum()
    p = lam.size
    e = _draws(spec, n, "wishart", seed, replicates) / n - np.diag(lam)
    diag = np.diagonal(e, axis1=1, axis2=2)
    t = diag.sum(axis=1)
    u = (t / total)[:, None]
    first = diag / total - np.outer(t, lam) / total**2
    q = np.zeros_like(first)
    r = np.zeros_like(first)
    for i in range(p):
        for j in range(p):
            if j == i:
                continue
            g_ij = 1.0 / (lam[i] - lam[j])
            q[:, i] += g_ij * e[:, i, j] ** 2
            r[:, i] -= e[:, i, i] * g_ij**2 * e[:, i, j] ** 2
            for k in range(p):
                if k != i:
                    r[:, i] += g_ij / (lam[i] - lam[k]) * e[:, i, j] * e[:, j, k] * e[:, k, i]
    second = q / total - first * u
    third = (r - q * u + diag * u**2 - lam * u**3) / total
    return sample_rates(spec, n, "wishart", replicates, seed), first, second, third


def _bias_controls(spec, n, seed, replicates):
    """Per-replicate rates d, corrections c and third-order terms t, each (replicates, p).

    c is the first- plus the second-order term less the second's exact mean
    (bias_expansion - lambda / T), and t the third-order term less its
    exact mean, as ``simulate_bias(control_variate=True)`` forms them.
    """
    d, first, second, third = _expansion_terms(spec, n, seed, replicates)
    lam = spec.values
    c = first + second - (bias_expansion(spec, n) - lam / lam.sum())
    return d, c, third - evaluation._third_order_means(lam, n)


def _cross_fitted(spec, n, seed, replicates, y):
    """Per-replicate outputs y, shape (replicates, k), less their control-variate fit.

    The controls are rebuilt from scatter_chunk: e_k = S_kk/(n lambda_k) - 1,
    S_ij^2/(n lambda_i lambda_j) - 1 for i < j, e_k^2 - 2/n, e_i e_j for
    i < j, log det S, from each draw's eigvalsh, less its Bartlett mean
    sum log lambda + p log 2 + sum_{i<p} psi((n - i)/2), with scipy's
    digamma, and tr S^3 over its mean, less 1. That mean is the sum over the
    n^3 index triples of tr(x_a x_a' x_b x_b' x_c x_c'):
    n[(tr L)^3 + 6 tr L tr L^2 + 8 tr L^3] (all equal),
    3n(n - 1)(tr L tr L^2 + 2 tr L^3) (two equal) and n(n - 1)(n - 2) tr L^3
    (all distinct). At n >= p + 16, sum 1/l_k and sum 1/l_k^2 join them,
    each over its mean less 1: the traces of E[S^-1] = Sigma^-1/(m - 1) and
    E[S^-2] = ((m - 1) Sigma^-2 + tr(Sigma^-1) Sigma^-1)/(m(m - 1)(m - 3)),
    m = n - p, the matrix forms of the inverse-Wishart moments. The outputs
    are cross-fitted on the controls by ``_parity_fitted``.
    """
    lam = spec.values
    p = lam.size
    s = _draws(spec, n, "wishart", seed, replicates)
    diag = np.diagonal(s, axis1=1, axis2=2) / (n * lam) - 1.0
    iu, ju = np.triu_indices(p, 1)
    pair = s[:, iu, ju] ** 2 / (n * np.outer(lam, lam)[iu, ju]) - 1.0
    log_det_mean = np.log(lam).sum() + p * np.log(2.0) + digamma((n - np.arange(p)) / 2).sum()
    l = np.linalg.eigvalsh(s)
    log_det = np.log(l).sum(axis=1) - log_det_mean
    t1, t2, t3 = lam.sum(), (lam**2).sum(), (lam**3).sum()
    cube_mean = (
        n * (t1**3 + 6 * t1 * t2 + 8 * t3)
        + 3 * n * (n - 1) * (t1 * t2 + 2 * t3)
        + n * (n - 1) * (n - 2) * t3
    )
    cube = (l**3).sum(axis=1) / cube_mean - 1.0
    columns = [diag, pair, diag**2 - 2.0 / n, diag[:, iu] * diag[:, ju], log_det[:, None], cube[:, None]]
    m = n - p
    if m >= 16:
        inv = np.diag(1.0 / lam)
        inv_mean = np.trace(inv) / (m - 1)
        inv_sq_mean = np.trace((m - 1) * inv @ inv + np.trace(inv) * inv) / (m * (m - 1) * (m - 3))
        columns += [(1.0 / l).sum(axis=1)[:, None] / inv_mean - 1.0,
                    (1.0 / l**2).sum(axis=1)[:, None] / inv_sq_mean - 1.0]
    return _parity_fitted(np.hstack(columns), y)


def _parity_fitted(controls, y):
    """Per-replicate outputs y, shape (replicates, k), less a cross-fitted fit on the controls.

    Each replicate-parity fold is corrected with the slopes of a
    least-squares fit, with an intercept, of y on the controls, shape
    (replicates, m), over the other fold.
    """
    z = np.empty_like(y)
    even, odd = slice(0, None, 2), slice(1, None, 2)
    for fit, corrected in ((odd, even), (even, odd)):
        design = np.column_stack([np.ones(len(y[fit])), controls[fit]])
        slopes = np.linalg.lstsq(design, y[fit], rcond=None)[0][1:]
        z[corrected] = y[corrected] - controls[corrected] @ slopes
    return z


def _streamed_and_per_replicate(engine, replicates):
    """An engine's streamed (means, SEs) and the per-replicate values it reduces.

    The values, shape (replicates, k), are rebuilt here from scatter_chunk:
    the sample rates for simulate_bias, with the control variate less
    their cross-fitted fit on the corrections c_2..c_p and the third-order
    terms t_2..t_p of ``_bias_controls``; the loss rows
    and the paired differences for compare_risks, less their cross-fitted
    control-variate fit for either loss; and the trace, G and
    trace - G for each weight vector for simulate_stein_haff. The "bias-p3"
    engines run (0.5, 0.3, 0.2) through the 3 x 3 closed form, "bias-t5"
    runs the plain rates under the elliptical t law with 5 degrees of
    freedom, and the "-n20" risk engines run at n = 20 = p + 16, where
    tr S^-1 and tr S^-2 join the controls.
    """
    spec, n, seed = Spectrum((0.4, 0.3, 0.2, 0.1)), 12, 31
    if engine.endswith("-n20"):
        engine, n = engine.removesuffix("-n20"), 20
    if engine.startswith("bias"):
        if engine.startswith("bias-p3"):
            spec = Spectrum((0.5, 0.3, 0.2))
        distribution = "t:5" if engine == "bias-t5" else "wishart"
        control_variate = engine == "bias-p3-cv"
        sim = simulate_bias(spec, n, distribution, replicates, seed=seed, control_variate=control_variate)
        if control_variate:
            d, c, t = _bias_controls(spec, n, seed, replicates)
            values = _parity_fitted(np.hstack([c[:, 1:], t[:, 1:]]), d)
        else:
            values = sample_rates(spec, n, distribution, replicates, seed)
        return sim.mean_rates, sim.std_errors, values
    weights = [classical_weights(4, n), family_weights(4, n, 1)]
    betas = np.stack([w.beta for w in weights])
    tau = spec.values / spec.values.sum()
    l, d, q = _batch_rates(_draws(spec, n, "wishart", seed, replicates), True)
    if engine == "stein-haff":
        # the diagonal of V diag(beta d) V' is sum_j v_ij^2 beta_j d_j
        trace = np.einsum("rij,wrj,i->wr", q, betas[:, None, :] * d, 1.0 / tau)
        g = _g_batch(l, d, betas, n)
        values = np.concatenate([trace, g, trace - g]).T
    else:
        if engine == "entropy":
            losses = _entropy_losses(d, q, betas, tau)
        else:
            losses = _quadratic_losses(d, betas, tau)
        values = np.concatenate([losses, losses[1:] - losses[0]]).T
        # p = 4 has 23 fitted coefficients at n = 12 and 25 at n = 20, so
        # every replicate count here is above the floor, for either loss
        values = _cross_fitted(spec, n, seed, replicates, values)
    if engine == "stein-haff":
        checks = simulate_stein_haff(spec, n, weights, replicates, seed=seed)
        means = [(c.mean_trace, c.mean_g, c.diff_mean) for c in checks]
        ses = [(c.trace_std_error, c.g_std_error, c.diff_std_error) for c in checks]
        return np.array(means).T.ravel(), np.array(ses).T.ravel(), values
    cmp = compare_risks(spec, n, weights, engine, "wishart", replicates, seed=seed)
    means = np.concatenate([cmp.mean_losses, cmp.diff_means])
    return means, np.concatenate([cmp.std_errors, cmp.diff_std_errors]), values


_STREAM_REPS = [1000, 4096, 4096 + 1, 2 * 4096 + 123]


@pytest.mark.parametrize(
    "engine, replicates",
    [pytest.param("bias", r, id=str(r)) for r in _STREAM_REPS]
    + [
        pytest.param(engine, r, id=f"{engine}-{r}")
        for engine in (
            "bias-p3", "bias-p3-cv", "quadratic", "entropy", "stein-haff", "entropy-n20", "quadratic-n20",
            "bias-t5",
        )
        for r in _STREAM_REPS
    ],
)
def test_streamed_bias_moments_match_concatenated_rates(engine, replicates, monkeypatch):
    # one partial chunk, one full chunk, a one-row last chunk (its odd
    # replicate-parity fold is empty) and a partial last chunk, per engine;
    # the risks run at n = 12 and n = 20, not at n = 30, where the
    # co-moment cross-fit reproduces the SEs only to about 1.1e-12. The
    # plain engines run the same cross-fit with an empty control basis,
    # and compute no control or correction.
    if engine in ("bias", "bias-p3", "bias-t5", "stein-haff"):
        def unused(*args):
            raise AssertionError("an empty control basis computes no control")

        for name in ("_bias_corrections", "_third_order_means", "_wishart_controls", "_log_det_mean"):
            monkeypatch.setattr(evaluation, name, unused)
    means, ses, values = _streamed_and_per_replicate(engine, replicates)
    np.testing.assert_allclose(means, values.mean(axis=0), rtol=1e-12, atol=0)
    se = values.std(axis=0, ddof=1) / np.sqrt(replicates)
    np.testing.assert_allclose(ses, se, rtol=1e-12, atol=0)


def _plain_risk_moments(spec, n, loss_kind, distribution, seed, replicates, weights):
    """Plain means and SEs of the losses and paired differences of one kind.

    Rebuilt from scatter_chunk, as the mean and SD of the per-replicate values.
    """
    betas = np.stack([w.beta for w in weights])
    tau = spec.values / spec.values.sum()
    _, d, q = _batch_rates(_draws(spec, n, distribution, seed, replicates), loss_kind == "entropy")
    if loss_kind == "entropy":
        losses = _entropy_losses(d, q, betas, tau)
    else:
        losses = _quadratic_losses(d, betas, tau)
    values = np.concatenate([losses, losses[1:] - losses[0]])
    return values.mean(axis=1), values.std(axis=1, ddof=1) / np.sqrt(replicates)


def _risk_moments(cmp):
    means = np.concatenate([cmp.mean_losses, cmp.diff_means])
    return means, np.concatenate([cmp.std_errors, cmp.diff_std_errors])


_LOSS_KINDS = pytest.mark.parametrize("loss_kind", ["entropy", "quadratic"])


@_LOSS_KINDS
@pytest.mark.parametrize("distribution, replicates", [("wishart", 459), ("t:5", 4096 + 123)])
def test_risk_keeps_the_plain_estimator(distribution, replicates, loss_kind, monkeypatch):
    # below the floor of 10 rows a fold per fitted coefficient (p = 4,
    # n = 12: 22 controls and an intercept, 230 rows; 459 replicates leave
    # the odd fold 229), and under the elliptical law, where the controls'
    # means are not exact, the control basis is empty: the cross-fit then
    # returns the plain means and SEs, and no control is computed; the loss
    # kind plays no part in the choice
    spec, n, seed = Spectrum((0.4, 0.3, 0.2, 0.1)), 12, 31
    w = [classical_weights(4, n), family_weights(4, n, 1)]
    plain_means, plain_ses = _plain_risk_moments(spec, n, loss_kind, distribution, seed, replicates, w)

    def unused(*args):
        raise AssertionError("an empty control basis computes no control")

    monkeypatch.setattr(evaluation, "_log_det_mean", unused)
    monkeypatch.setattr(evaluation, "_wishart_controls", unused)
    cmp = compare_risks(spec, n, w, loss_kind, distribution, replicates, seed=seed)
    means, ses = _risk_moments(cmp)
    np.testing.assert_allclose(means, plain_means, rtol=1e-12, atol=0)
    np.testing.assert_allclose(ses, plain_ses, rtol=1e-12, atol=0)


@_LOSS_KINDS
def test_risk_control_variates_start_at_the_floor(loss_kind):
    # 460 replicates give both folds the 230 rows that p = 4 needs at n = 12
    spec, n, seed = Spectrum((0.4, 0.3, 0.2, 0.1)), 12, 31
    w = [classical_weights(4, n), family_weights(4, n, 1)]
    plain_means, plain_ses = _plain_risk_moments(spec, n, loss_kind, "wishart", seed, 460, w)
    means, ses = _risk_moments(compare_risks(spec, n, w, loss_kind, "wishart", 460, seed=seed))
    assert np.all(ses < 0.9 * plain_ses)
    assert np.all(np.abs(means - plain_means) < 4 * np.hypot(ses, plain_ses))


@pytest.mark.parametrize(
    "loss_kind, n, seeds",
    [
        pytest.param("entropy", 12, 60, id="entropy"),
        pytest.param("quadratic", 12, 60, id="quadratic"),
        pytest.param("entropy", 20, 240, id="entropy-n20"),
        pytest.param("quadratic", 20, 240, id="quadratic-n20"),
    ],
)
def test_risk_control_variate_se_is_calibrated(loss_kind, n, seeds):
    # the spread of the cross-fitted means over seeds matches the reported
    # SE, without the inverse traces (n = 12) and with them (n = 20 = p + 16);
    # the ratio's own sampling SD is about 0.09 over 60 seeds and half that
    # over 240
    spec = Spectrum((0.4, 0.3, 0.2, 0.1))
    w = [classical_weights(4, n), family_weights(4, n, 1)]
    runs = [
        _risk_moments(compare_risks(spec, n, w, loss_kind, "wishart", 2000, seed=s))
        for s in range(seeds)
    ]
    means = np.array([m for m, _ in runs])
    ses = np.array([se for _, se in runs])
    ratio = means.std(axis=0, ddof=1) / ses.mean(axis=0)
    assert np.all(np.abs(ratio - 1.0) < 0.25), ratio


def test_digamma_half_matches_closed_forms_and_scipy():
    assert evaluation._digamma_half(2) == -np.euler_gamma
    assert evaluation._digamma_half(1) == -np.euler_gamma - 2.0 * np.log(2.0)
    m = np.arange(1, 201)
    ours = [evaluation._digamma_half(int(k)) for k in m]
    np.testing.assert_allclose(ours, digamma(m / 2), rtol=1e-14, atol=0)


def test_digamma_half_keeps_the_bits_of_the_scalar_sums():
    # numpy forms each term as the same IEEE quotient that scalar division
    # gives, so psi(m / 2) keeps its bits at either parity of m
    def by_loop(m):
        j = m // 2
        if m % 2 == 0:
            return -np.euler_gamma + fsum(1.0 / k for k in range(1, j))
        return -np.euler_gamma - 2.0 * log(2.0) + fsum(2.0 / (2 * k - 1) for k in range(1, j + 1))

    for n in (10, 11, 30, 31, 200, 1001, 10**5, 10**6):
        for m in (n - 1, n):
            assert evaluation._digamma_half(m) == by_loop(m), m


@pytest.mark.parametrize("n", [10, 11, 30, 31, 1001, 10**6])
def test_log_det_mean_matches_scipy_digamma_sum(n):
    # at p = 10 the closed-form psi sums reproduce scipy's from n = p and
    # p + 1, where the lowest arguments are psi(1/2) and psi(1), up to n = 10^6
    lam = np.linspace(1.0, 0.1, 10)
    expected = fsum(np.log(lam)) + 10 * log(2.0) + digamma((n - np.arange(10)) / 2).sum()
    np.testing.assert_allclose(evaluation._log_det_mean(lam, n), expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize(
    "spec, n, n_spectral",
    [
        pytest.param(Spectrum((0.4, 0.3, 0.2, 0.1)), 30, 3, id="p4"),
        pytest.param(table2_spectrum(18), 30, 3, id="row18"),
        pytest.param(table2_spectrum(18), 25, 1, id="row18-n25"),
    ],
)
def test_wishart_controls_have_mean_zero(spec, n, n_spectral):
    # every control, the products e_i e_j, log det S and the spectral traces
    # included, averages to zero within 4 SEs over 40 chunks; tr S^-1 and
    # tr S^-2 join tr S^3 only at n >= p + 16, so not at p = 10, n = 25
    lam = spec.values
    p = lam.size
    log_det_mean = evaluation._log_det_mean(lam, n)
    trace_means = evaluation._trace_means(lam, n)
    assert trace_means.size == n_spectral

    def stat(s, l, d, q):
        controls = np.empty((p * p + p + 1 + n_spectral, s.shape[0]))
        evaluation._wishart_controls(s, l, lam, n, log_det_mean, trace_means, controls)
        return controls

    means, ses = evaluation._estimate(spec, n, "wishart", 40 * CHUNK_SIZE, 23, 2, False, 0, stat)
    assert np.all(np.abs(means) < 4 * ses), np.abs(means / ses).max()


def test_control_variate_agrees_and_tightens():
    spec = Spectrum((0.5, 0.3, 0.2))
    plain = simulate_bias(spec, 100, "wishart", 50000, seed=29)
    cv = simulate_bias(spec, 100, "wishart", 50000, seed=29, control_variate=True)
    combined = np.sqrt(plain.std_errors**2 + cv.std_errors**2)
    assert np.all(np.abs(plain.mean_rates - cv.mean_rates) < 5 * combined)
    assert np.all(cv.std_errors < plain.std_errors)
    with pytest.raises(ValueError, match="Wishart"):
        simulate_bias(spec, 100, "t:5", 1000, seed=1, control_variate=True)


def test_second_order_cv_tightens_first_order():
    # subtracting the second-order term too cuts the SE well below what the
    # first-order control variate alone reaches, and moves the mean by noise
    spec, n, seed, replicates = Spectrum((0.5, 0.3, 0.2)), 400, 37, 3 * 4096
    d, first, *_ = _expansion_terms(spec, n, seed, replicates)
    first_order = d - first
    first_mean = first_order.mean(axis=0)
    first_se = first_order.std(axis=0, ddof=1) / np.sqrt(replicates)
    cv = simulate_bias(spec, n, "wishart", replicates, seed=seed, control_variate=True)
    assert np.all(cv.std_errors < 0.5 * first_se)
    combined = np.sqrt(first_se**2 + cv.std_errors**2)
    assert np.all(np.abs(cv.mean_rates - first_mean) < 4 * combined)


def test_control_variate_beats_first_order_at_small_n():
    # at n = 30 the third-order remainder is not small, and subtracting the
    # second-order term with a coefficient of 1 did worse than the
    # first-order control variate; the fitted coefficients leave under half
    # its worst per-replicate variance
    spec, n, seed, replicates = Spectrum((0.5, 0.3, 0.2)), 30, 5, 16 * CHUNK_SIZE
    d, first, *_ = _expansion_terms(spec, n, seed, replicates)
    first_order = (d - first).var(axis=0, ddof=1).max()
    cv = simulate_bias(spec, n, "wishart", replicates, seed=seed, control_variate=True)
    assert (cv.std_errors**2 * replicates).max() < 0.5 * first_order


@pytest.mark.parametrize("n, factor", [(30, 1.0), (200, 0.5), (400, 0.5)])
def test_third_order_controls_cut_the_second_order_fit(n, factor):
    # the third-order terms halve the worst per-replicate variance left by
    # the fit on c_2..c_p alone where the expansion converges (n = 200, 400),
    # and do not raise it where the remainder is large (n = 30)
    spec, seed, replicates = Spectrum((0.5, 0.3, 0.2)), 5, 16 * CHUNK_SIZE
    d, c, _ = _bias_controls(spec, n, seed, replicates)
    second_order = _parity_fitted(c[:, 1:], d).var(axis=0, ddof=1).max()
    cv = simulate_bias(spec, n, "wishart", replicates, seed=seed, control_variate=True)
    assert (cv.std_errors**2 * replicates).max() < factor * second_order


@pytest.mark.parametrize("n", [30, 200])
def test_bias_control_variate_se_is_calibrated(n):
    # the spread of the cross-fitted means over seeds matches the reported
    # SE where the remainder is large (n = 30) and small (n = 200); the
    # ratio's own sampling SD is about 0.05 over 240 seeds
    spec = Spectrum((0.5, 0.3, 0.2))
    runs = [simulate_bias(spec, n, "wishart", 1000, seed=s, control_variate=True) for s in range(240)]
    means = np.array([r.mean_rates for r in runs])
    ses = np.array([r.std_errors for r in runs])
    ratio = means.std(axis=0, ddof=1) / ses.mean(axis=0)
    assert np.all(np.abs(ratio - 1.0) < 0.25), ratio


@pytest.mark.parametrize("spec", [Spectrum((0.5, 0.3, 0.2)), Spectrum((0.4, 0.3, 0.2, 0.1))], ids=["p3", "p4"])
@pytest.mark.parametrize("n", [30, 200])
def test_bias_corrections_have_mean_zero_and_sum_to_zero(spec, n):
    # every coordinate's correction c_i and third-order term t_i averages to
    # zero within 4 SEs over 40 chunks, and each draw's c_i, each of order
    # 0.1, sum to zero to rounding, as do its t_i, which is why the engine
    # fits on all but the first of each
    lam = spec.values
    p = lam.size
    offset = np.concatenate([bias_expansion(spec, n) - lam / lam.sum(), evaluation._third_order_means(lam, n)])
    worst_sum = []

    def stat(s, l, d, q):
        c = np.empty((2 * p, s.shape[0]))
        evaluation._bias_corrections(s, lam, n, offset, c)
        worst_sum.append(max(np.abs(c[:p].sum(axis=0)).max(), np.abs(c[p:].sum(axis=0)).max()))
        return c

    means, ses = evaluation._estimate(spec, n, "wishart", 40 * CHUNK_SIZE, 23, 2, False, 0, stat)
    assert np.all(np.abs(means) < 4 * ses), np.abs(means / ses).max()
    assert max(worst_sum) < 1e-14


@pytest.mark.parametrize("replicates, fitted", [(219, False), (220, True)])
def test_bias_control_variate_fits_from_the_floor(replicates, fitted):
    # p = 6 fits c_2..c_6, t_2..t_6 and an intercept, 110 rows a fold: 219
    # replicates leave the odd fold 109, and the corrected rates z = d - c
    # are averaged unfitted; 220 cross-fit them, as the rates less the fit
    # on c_2..c_6 and t_2..t_6
    spec, n, seed = Spectrum((0.3, 0.25, 0.18, 0.12, 0.1, 0.05)), 20, 13
    d, c, t = _bias_controls(spec, n, seed, replicates)
    values = _parity_fitted(np.hstack([c[:, 1:], t[:, 1:]]), d) if fitted else d - c
    cv = simulate_bias(spec, n, "wishart", replicates, seed=seed, control_variate=True)
    np.testing.assert_allclose(cv.mean_rates, values.mean(axis=0), rtol=1e-12, atol=0)
    se = values.std(axis=0, ddof=1) / np.sqrt(replicates)
    np.testing.assert_allclose(cv.std_errors, se, rtol=1e-12, atol=0)


def test_control_variate_refuses_tied_spectrum_before_sampling(monkeypatch):
    # the pair terms divide by lambda_i - lambda_j; bias_expansion refuses
    # the spectrum before the first stream is created
    monkeypatch.setattr(np.random, "Philox", _no_stream)
    for values in ((0.5, 0.25, 0.25), (0.4, 0.4 * (1 - 1e-14), 0.2)):
        with pytest.raises(ValueError, match="repeated values"):
            simulate_bias(Spectrum(values), 50, "wishart", 1000, seed=0, control_variate=True)
    # without the control variate a tied spectrum is sampled as usual
    with pytest.raises(AssertionError, match="Philox"):
        simulate_bias(Spectrum((0.5, 0.25, 0.25)), 50, "wishart", 1000, seed=0)


@pytest.mark.parametrize("control_variate", [False, True])
def test_bias_refuses_small_n_before_sampling(control_variate, monkeypatch):
    # bias_expansion and the sampler share one n >= p rule and message
    monkeypatch.setattr(np.random, "Philox", _no_stream)
    for n in (0, 2):
        message = f"^degrees of freedom must satisfy n >= p, got n={n}, p=3$"
        with pytest.raises(ValueError, match=message):
            simulate_bias(
                Spectrum((0.5, 0.3, 0.2)), n, "wishart", 1000, seed=0,
                control_variate=control_variate,
            )


def test_mean_bias_direction_for_top_rate():
    # ordering forces the expected top rate above 1/2 for equal eigenvalues
    means = simulate_bias(Spectrum((0.5, 0.5)), 20, "wishart", 20000, seed=47).mean_rates
    assert means[0] > 0.5
