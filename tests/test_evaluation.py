import time
import tracemalloc
from dataclasses import astuple
from math import comb, fsum, log, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma
from scipy.stats import ks_2samp

from spectra_shrink import (
    ContributionRates,
    InvarianceReport,
    RelativeCriterion,
    SampleDecomposition,
    ShrinkageWeights,
    Spectrum,
    bias_expansion,
    check_conditions,
    classical_weights,
    compare_risks,
    dimension_experiment_for_spectrum,
    entropy_loss,
    entropy_risk_difference_bound,
    family_weights,
    invariance_check,
    quadratic_loss,
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
    _ks_equal_sizes,
    _quadratic_losses,
)
from spectra_shrink.sampling import CHUNK_SIZE, scatter_chunk

from oracle_moments import rate_term_means
from oracle_p2 import control_means, rate_mean, risk_means, stein_haff_means


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


def test_entropy_loss_rejects_mismatched_or_non_square_matrices():
    with pytest.raises(ValueError, match="same shape"):
        entropy_loss(np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="estimate must be a square matrix"):
        entropy_loss(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError, match="truth must be a square matrix"):
        entropy_loss(np.eye(2), np.ones(2))


def test_entropy_loss_refuses_one_by_one_matrices():
    # every value type refuses one entry, and the matrix rule refuses 1 x 1
    with pytest.raises(ValueError, match=r"estimate must be a square matrix, at least 2 x 2, got shape \(1, 1\)"):
        entropy_loss(np.eye(1), np.eye(1))
    with pytest.raises(ValueError, match="truth must be a square matrix, at least 2 x 2"):
        entropy_loss(np.eye(2), [[1.0]])


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
    with pytest.raises(ValueError, match="must be distinct"):
        stein_haff_G(dec, classical_weights(2, 5), 5)


def test_bias_expansion_and_g_refuse_at_the_same_relative_gap(monkeypatch):
    # population and sample eigenvalues share one rule: a gap below 1e-12 of
    # their sum; an input is refused with ValueError, a sampled draw with
    # RuntimeError
    for rel_gap, refused in ((0.8e-12, True), (1.2e-12, False)):
        values = np.array([1.0, 1.0 - 2.5 * rel_gap, 0.5])
        spectrum = Spectrum(values)
        decomp = SampleDecomposition(eigenvalues=values, eigenvectors=np.eye(3))
        draws = np.repeat(np.diag(values)[None], CHUNK_SIZE, axis=0)
        monkeypatch.setattr(sampling, "scatter_chunk", lambda *args: draws.copy())
        for call, error, match in (
            (lambda: bias_expansion(spectrum, 50), ValueError, "eigenvalues must be distinct"),
            (lambda: stein_haff_G(decomp, classical_weights(3, 50), 50), ValueError, "eigenvalues must be distinct"),
            (lambda: astuple(simulate_stein_haff(spectrum, 50, [classical_weights(3, 50)], 100, seed=0)[0]),
             RuntimeError, "tied eigenvalues"),
        ):
            if refused:
                with pytest.raises(error, match=match):
                    call()
            else:
                assert np.all(np.isfinite(call()))


def test_weight_length_has_one_owner(monkeypatch):
    # every caller takes its betas from estimators._stack_betas, before any draw
    monkeypatch.setattr(np.random, "Philox", _no_stream)
    spectrum = Spectrum((0.5, 0.3, 0.2))
    decomp = SampleDecomposition(eigenvalues=spectrum.values, eigenvectors=np.eye(3))
    w = [family_weights(4, 30, 1)]
    for call in (
        lambda: shrink_estimate(decomp, w[0]),
        lambda: stein_haff_G(decomp, w[0], 30),
        lambda: compare_risks(spectrum, 30, w, "entropy", "wishart", 1000, seed=0),
        lambda: simulate_stein_haff(spectrum, 30, w, 1000, seed=0),
        lambda: dimension_experiment_for_spectrum(spectrum, 30, w, [RelativeCriterion()], 1000, seed=0),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "weight length 4 does not match dimension 3"
        assert info.traceback[-1].name == "_stack_betas"


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


def _assert_batch_losses_match_scalar(s, tau, n):
    """The batched entropy and quadratic losses of a stack s against the scalar ones, to 1e-9.

    The scalar entropy loss is taken in the sample eigenbasis H, where it is
    the same number (the loss is invariant under E, T -> H'EH, H'TH): there
    the estimate is diag(beta d), and truth H' diag(tau) H is as well
    conditioned as tau. Formed in the original basis, H diag(beta d) H' has the
    condition of S, which at n = p can pass 1e11 and costs the dense route
    about 1e-7 of the loss.
    """
    p = tau.size
    weights = [classical_weights(p, n), family_weights(p, n, 1), _zigzag_weights(p, n)]
    betas = np.stack([w.beta for w in weights])
    _, d, u = _batch_rates(s, 1.0 / tau)
    entropy = _entropy_losses(d, u, betas, tau)
    quadratic = _quadratic_losses(d, betas, tau)
    truth = ContributionRates(tau)
    for r in range(s.shape[0]):
        dec = symmetric_eigendecompose(s[r])
        h = dec.eigenvectors
        rotated = h.T @ (tau[:, None] * h)
        rotated = 0.5 * (rotated + rotated.T)
        for k, w in enumerate(weights):
            est = shrink_estimate(dec, w)
            scalar = entropy_loss(np.diag(est.rates), rotated)
            assert abs(entropy[k, r] - scalar) <= 1e-9 * max(1.0, scalar)
            scalar = quadratic_loss(est, truth)
            assert abs(quadratic[k, r] - scalar) <= 1e-9 * max(1.0, scalar)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 10), st.integers(0, 20))
def test_batch_losses_match_scalar(seed, p, extra):
    rng = np.random.default_rng(seed)
    n = p + extra
    tau = np.sort(rng.uniform(0.1, 10.0, p))[::-1]
    tau /= tau.sum()
    a = rng.standard_normal((8, n, p)) * np.sqrt(tau)
    _assert_batch_losses_match_scalar(a.transpose(0, 2, 1) @ a, tau, n)


def test_batch_losses_match_scalar_at_a_near_tie():
    # the draws above never come near a tie; here two sample eigenvalues of
    # each rotated S are 1e-13 of their sum apart
    rng = np.random.default_rng(41)
    l = np.array([2.0, 1.0, 1.0, 0.5, 0.25])
    l[1] += 1e-13 * l.sum()
    rotations = [np.linalg.qr(rng.standard_normal((5, 5)))[0] for _ in range(8)]
    s = np.stack([(h * l) @ h.T for h in rotations])
    s = (s + s.transpose(0, 2, 1)) / 2.0
    for m in s:
        sample = symmetric_eigendecompose(m).eigenvalues
        assert 0.0 < sample[1] - sample[2] < 2e-13 * l.sum()
    _assert_batch_losses_match_scalar(s, np.array([0.4, 0.25, 0.2, 0.1, 0.05]), 20)


@pytest.mark.parametrize("need_vectors", [False, True])
@pytest.mark.parametrize("p", [3, 4, 10, 20])
@pytest.mark.parametrize("degeneracy", ["gap 1e-13", "condition 1e12"])
def test_batch_rates_agree_with_scalar_decomposition_on_near_singular_draws(degeneracy, p, need_vectors):
    # The batched trace and diagonal checks accept every draw the scalar
    # decomposition accepts, and both give the same eigenvalues, rates and
    # squared vector entries to a few ulps of the trace. Without vectors,
    # p = 3 runs the closed form and other p the batched tridiagonal
    # reduction; with vectors, LAPACK decomposes S itself, and the weights
    # x = e_j make u row j of v * v, so every squared entry is compared.
    rng = np.random.default_rng(17)
    if degeneracy == "gap 1e-13":
        l = np.geomspace(2.0, 0.25, p)
        l[1] = l[2] + 1e-13 * l.sum()
    else:
        l = np.geomspace(1.0, 1e-12, p)
    rotations = [np.linalg.qr(rng.standard_normal((p, p)))[0] for _ in range(32)]
    s = np.stack([(h * l) @ h.T for h in rotations])
    s = (s + s.transpose(0, 2, 1)) / 2.0
    scalars = [symmetric_eigendecompose(m) for m in s]
    tol = 16 * np.finfo(float).eps
    for j, x in enumerate(np.eye(p) if need_vectors else [None]):
        w, d, u = _batch_rates(s, x)
        for k, scalar in enumerate(scalars):
            total = scalar.eigenvalues.sum()
            assert np.abs(w[k] - scalar.eigenvalues).max() <= tol * total
            assert np.abs(d[k] - scalar.eigenvalues / total).max() <= tol
            if need_vectors:
                assert np.abs(u[k] - scalar.eigenvectors[j] ** 2).max() <= tol


def test_batch_rates_rejects_non_positive_eigenvalue():
    # positive trace, negative eigenvalue: the trace alone would let it through
    s = np.stack([np.eye(2), np.diag([1.0, -0.5])])
    with pytest.raises(RuntimeError, match="non-positive eigenvalue"):
        _batch_rates(s, None)


@pytest.mark.parametrize("p, need_vectors", [(3, False), (4, True)])
def test_batch_rates_checks_eigenvalue_sum_against_trace(p, need_vectors, monkeypatch):
    # p = 3 without vectors runs the closed form, p = 4 with vectors LAPACK
    spec = Spectrum(np.linspace(1.0, 0.5, p))
    s = scatter_chunk(spec, 20, "wishart", seed=3, chunk_index=0)[:200]
    x = np.ones(p) if need_vectors else None
    _batch_rates(s, x)  # the unperturbed solve passes
    solve = evaluation.eigh_descending_batch

    def perturbed(a, compute_vectors=True):
        w, v = solve(a, compute_vectors)
        w = w.copy()
        w[7, 0] *= 1.0 + 1e-9
        return w, v

    monkeypatch.setattr(evaluation, "eigh_descending_batch", perturbed)
    with pytest.raises(RuntimeError, match="eigenvalue sum departs from the trace"):
        _batch_rates(s, x)
    # the CLI reports it as a numerical failure
    monkeypatch.setattr(sampling, "scatter_chunk", lambda *args: s.copy())
    argv = ["bias", "--spectrum", ",".join(map(str, spec.values)), "--n", "20", "--reps", "200"]
    assert main(argv) == 4


@pytest.mark.parametrize("rows, row", [(200, 7), (CHUNK_SIZE, 3000)])
def test_batch_rates_checks_eigenvectors_against_diagonal(monkeypatch, rows, row):
    # S_jj = sum_k l_k v_jk^2 for every row; one perturbed vector entry
    # leaves the eigenvalues, hence the trace check, untouched. In a full
    # p = 4 chunk, row 3,000 lies past the first block of vectors.
    spec = Spectrum(np.linspace(1.0, 0.5, 4))
    s = scatter_chunk(spec, 20, "wishart", seed=3, chunk_index=0)[:rows]
    step = evaluation._VECTOR_BLOCK_BYTES // (8 * 4 * 4)
    assert rows <= step or row >= step
    _batch_rates(s, np.ones(4))  # the unperturbed solve passes
    solve = evaluation.eigh_descending_batch

    def perturbed(a, compute_vectors=True):
        w, v = solve(a, compute_vectors)
        if v is not None:
            v = v.copy()
            # the block's rows that are the chunk's row ``row``
            v[(a == s[row]).all(axis=(1, 2)), 2, 0] *= 1.0 + 1e-6
        return w, v

    monkeypatch.setattr(evaluation, "eigh_descending_batch", perturbed)
    with pytest.raises(RuntimeError, match="eigenvectors reconstruct diag S only to"):
        _batch_rates(s, np.ones(4))
    _batch_rates(s, None)  # the eigenvalue path reads no vectors
    # the CLI reports it as a numerical failure; stein-haff is the command
    # whose engine reads eigenvectors (risk runs quadratic losses)
    monkeypatch.setattr(sampling, "scatter_chunk", lambda *args: s.copy())
    argv = ["stein-haff", "--spectrum", ",".join(map(str, spec.values)), "--n", "20", "--reps", str(rows)]
    assert main(argv) == 4


@pytest.mark.parametrize("p", [4, 10])
def test_vector_blocks_keep_every_bit(monkeypatch, p):
    # The vector path decomposes a chunk in row blocks; 7-row blocks and
    # one block a chunk give the same bits, on a partial last chunk of one
    # row and of 123 rows, under both laws and on one and two threads.
    n = p + 8
    spec = Spectrum(np.linspace(1.0, 0.1, p))
    w = [classical_weights(p, n), family_weights(p, n, 1)]

    def runs():
        out = []
        for replicates, jobs in ((4097, 1), (8315, 2), (4097, 2), (8315, 1)):
            for distribution in ("wishart", "t:5"):
                cmp = compare_risks(spec, n, w, "entropy", distribution, replicates, seed=11, jobs=jobs)
                out.append(np.concatenate(_risk_moments(cmp)))
            checks = simulate_stein_haff(spec, n, w, replicates, seed=11, jobs=jobs)
            out.append(np.array([astuple(check) for check in checks]))
        return out

    bits = []
    for rows in (7, CHUNK_SIZE):
        monkeypatch.setattr(evaluation, "_VECTOR_BLOCK_BYTES", rows * 8 * p * p)
        bits.append(runs())
    assert all(np.array_equal(a, b) for a, b in zip(*bits, strict=True))


def test_vector_path_memory_is_a_block():
    # At p = 20 a chunk is 12.5 MiB; the vector path holds one block's v and
    # v * v, and the chunk's (rows, p) outputs, not a chunk-sized v or q
    p = 20
    spec = Spectrum(np.linspace(1.0, 0.1, p))
    s = scatter_chunk(spec, 40, "wishart", seed=5, chunk_index=0)
    x = 1.0 / spec.values
    _batch_rates(s, x)
    tracemalloc.start()
    try:
        _batch_rates(s, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < s.nbytes / 4, peak / s.nbytes


def _fields(result):
    return [np.asarray(x) for x in vars(result).values()]


def test_batch_engines_do_not_depend_on_eigenvector_signs(monkeypatch):
    # p = 10, n = 30: 2,300 replicates is the least count that takes the
    # control variates (checked below against the plain SEs); t:5, at 300
    # replicates, takes the empty control basis
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


@pytest.mark.parametrize("n", [10, 30, 100])
def test_p2_oracle_trace_equals_g(n):
    # the Stein-Haff identity holds in the exact p = 2 expectations, whatever
    # the spectrum sums to, and the quadrature has converged: doubling its
    # nodes moves neither value
    for lam in ((0.7, 0.3), (1.4, 0.6)):
        trace, g = stein_haff_means(lam, n)
        assert abs(trace - g) <= 1e-12
        finer = stein_haff_means(lam, n, r_nodes=400, theta_nodes=512)
        assert abs(finer[0] - trace) <= 1e-12 and abs(finer[1] - g) <= 1e-12


#: A fixed rotation, so that the scalar path decomposes a full matrix.
_ROTATION = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("path", ["engine", "scalar"])
def test_stein_haff_is_scale_free(path):
    # the trace and G are homogeneous of degree -1 in the scale, and the
    # engine's draws, like the scalar path's decomposition and G, are taken
    # at unit scale, so at 1e200, where the outputs' squares underflowed to
    # SEs of 0, and at 1e-200, where they overflowed, every mean and SE is
    # the unit-scale one times 1e-200 or 1e200; at 2^+-400, at 2^+-1000 and
    # at 2^1024, where sum lambda overflows though every lambda is finite,
    # all powers of four, it is the unit-scale one times 2^-k, bit for bit.
    # The scalar path takes G of the rotated diag(lambda): at 2^1024 its
    # rates read (0, 0, 0) and G refused the three distinct eigenvalues
    base, n = np.array([0.5, 0.3, 0.2]), 10
    w = [classical_weights(3, n), ShrinkageWeights(np.array([0.9, 1.0, 1.1]), n)]

    def moments(values):
        if path == "scalar":
            dec = symmetric_eigendecompose((_ROTATION * values) @ _ROTATION.T)
            return np.array([stein_haff_G(dec, weights, n) for weights in w])
        return np.array([astuple(c)[:-1] for c in simulate_stein_haff(Spectrum(values), n, w, 4096, seed=1)])

    unit = moments(base)
    for exponent in (-200, 200):
        got = moments(base * 10.0**exponent)
        np.testing.assert_allclose(got, unit * 10.0**-exponent, rtol=1e-12, atol=0, err_msg=f"scale 1e{exponent}")
    for k in (-1000, -400, 400, 1000, 1024):
        assert np.array_equal(moments(np.ldexp(base, k)), np.ldexp(unit, -k)), f"scale 2^{k}"


def test_stein_haff_engine_matches_p2_oracle():
    # the trace is taken against the spectrum's own scale diag(lam), as G is, so
    # a spectrum that does not sum to one has the same identity
    for lam in ((0.7, 0.3), (1.4, 0.6)):
        trace, g = stein_haff_means(lam, 30)
        c = simulate_stein_haff(Spectrum(lam), 30, [classical_weights(2, 30)], 200000, seed=0)[0]
        assert abs(c.mean_trace - trace) <= 4.0 * c.trace_std_error
        assert abs(c.mean_g - g) <= 4.0 * c.g_std_error


@pytest.mark.parametrize("control_variate", [False, True])
def test_bias_engine_matches_p2_oracle(control_variate):
    exact = rate_mean((0.7, 0.3), 30)
    b = simulate_bias(Spectrum((0.7, 0.3)), 30, "wishart", 200000, seed=0, control_variate=control_variate)
    assert abs(b.mean_rates[0] - exact) <= 4.0 * b.std_errors[0]


def test_p2_oracle_risks_have_converged():
    # doubling the quadrature's nodes moves no exact risk
    for beta in ((1.0, 1.0), (0.9, 1.1)):
        coarse = risk_means((0.7, 0.3), 30, beta)
        finer = risk_means((0.7, 0.3), 30, beta, r_nodes=400, theta_nodes=512)
        assert np.max(np.abs(np.subtract(finer, coarse))) <= 1e-12


def test_control_means_match_p2_oracle():
    # the controls' exact means against the quadrature: the log det's
    # Bartlett mean, the trace moments, with the inverse traces as
    # n >= p + 16, and the third-order terms' means, all at lambda itself,
    # which the engines draw at unit scale; doubling the nodes moves none
    lam, n = np.array([0.7, 0.3]), 30

    def oracle(**nodes):
        at_lam = control_means(lam, n, **nodes)
        return at_lam["log_det"], at_lam["traces"], at_lam["third"]

    engine = evaluation._log_det_mean(lam, n), evaluation._trace_means(lam, n), evaluation._third_order_means(lam, n)
    assert engine[1].size == 3
    for got, exact, finer in zip(engine, oracle(), oracle(r_nodes=400, theta_nodes=512)):
        np.testing.assert_allclose(finer, exact, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0)


@pytest.mark.parametrize("distribution", ["wishart", "t:5"])
@pytest.mark.parametrize("loss_kind", ["entropy", "quadratic"])
def test_risk_engine_matches_p2_oracle(loss_kind, distribution):
    # both laws give the rates and eigenvectors the same law, so the same
    # exact risks; both runs take the control basis
    lam, n = (0.7, 0.3), 30
    w = [ShrinkageWeights((1.0, 1.0), dof=n), ShrinkageWeights((0.9, 1.1), dof=n)]
    exact = np.array([risk_means(lam, n, x.beta)[loss_kind == "quadratic"] for x in w])
    cmp = compare_risks(Spectrum(lam), n, w, loss_kind, distribution, 200000, seed=0)
    assert np.all(np.abs(cmp.mean_losses - exact) <= 4.0 * cmp.std_errors)
    assert abs(cmp.diff_means[0] - (exact[1] - exact[0])) <= 4.0 * cmp.diff_std_errors[0]


def test_p2_bias_expansion_residual_is_second_order():
    # criterion 7's question answered exactly at p = 2: E d1 less its
    # first-order expansion falls like n^-2, by about 4 at each doubling of n,
    # and the quadrature has converged: doubling its nodes moves no residual
    spec = Spectrum((0.7, 0.3))
    ns = (100, 200, 400, 800)
    exact = np.array([rate_mean(spec.values, n) for n in ns])
    finer = np.array([rate_mean(spec.values, n, r_nodes=400, theta_nodes=512) for n in ns])
    assert np.max(np.abs(finer - exact)) <= 1e-14
    residual = exact - [bias_expansion(spec, n)[0] for n in ns]
    ratios = residual[:-1] / residual[1:]
    assert np.all((ratios >= 3.9) & (ratios <= 4.3)), ratios


def test_stein_haff_raises_on_tied_eigenvalues(monkeypatch):
    # G has a 1 / (l_i - l_j) pair term, so a draw stein_haff_G refuses stops
    # the run: an exact tie, and a near tie where G would be finite but ~-5e11
    for values, beta in (((2.0, 1.0, 1.0), (1.0, 1.0, 1.0)), ((2.0, 1.0 + 1e-13, 1.0), (0.9, 1.0, 1.1))):
        tied = np.repeat(np.diag(values)[None], CHUNK_SIZE, axis=0)
        monkeypatch.setattr(sampling, "scatter_chunk", lambda *args: tied.copy())
        weights = ShrinkageWeights(beta=np.array(beta), dof=10)
        with pytest.raises(ValueError, match="must be distinct"):
            stein_haff_G(symmetric_eigendecompose(tied[0]), weights, 10)
        with pytest.raises(RuntimeError, match="tied eigenvalues"):
            simulate_stein_haff(Spectrum((0.5, 0.3, 0.2)), 10, [weights], 100, seed=0)


def test_pathwise_risk_difference_bound():
    # The dominance proof makes G(beta) - G(1) - sum log beta negative draw by
    # draw whenever the weights meet the three conditions. Criterion 4's grid
    # (p = 4..20, n in {p, p + 7, p + 30}, every valid q) on three spectra:
    # linear, sorted uniform, and one spike over ones. Each (p, n, spectrum)
    # draws Wishart matrices as X'X, and every p's draws go through the
    # eigenvalue-only batch path together.
    # - Parity: the single-draw entropy_risk_difference_bound, on LAPACK's
    #   eigenvalues of each case's first draw, equals the batched integrand.
    # - Negative control: squaring the weights below one breaks condition 3
    #   alone (sum 1/beta > p), and then some draw of every case with n > p has
    #   a positive integrand. At n = p the small-q cases stay negative.
    # First, 10,000 of the library's own Wishart draws at p = 10, n = 30,
    # q = 1 and ten equal eigenvalues.
    w1 = family_weights(10, 30, 1)
    l, d, _ = _batch_rates(_draws(Spectrum((0.1,) * 10), 30, "wishart", 37, 10000), None)
    g = _g_batch(l, d, np.stack([w1.beta, np.ones(10)]), 30)
    assert (g[0] - g[1] - np.sum(np.log(w1.beta))).max() <= 1e-10
    rng = np.random.default_rng(13)
    draws = 128
    for p in range(4, 21):
        spectra = (np.linspace(1.0, 1.0 / p, p), np.sort(rng.uniform(0.1, 1.0, p))[::-1], np.r_[10.0, np.ones(p - 1)])
        cases = [(lam, n) for lam in spectra for n in (p, p + 7, p + 30)]
        s = []
        for lam, n in cases:
            x = rng.standard_normal((draws, n, p)) * np.sqrt(lam)
            s.append(np.swapaxes(x, 1, 2) @ x)
        s = np.concatenate(s)
        l, d, _ = _batch_rates(s, None)
        for c, (lam, n) in enumerate(cases):
            rows = slice(c * draws, (c + 1) * draws)
            weights = [family_weights(p, n, q) for q in range(1, (p - 2) // 2 + 1)]
            betas = np.stack([w.beta for w in weights])
            g = _g_batch(l[rows], d[rows], np.vstack([np.ones(p), betas]), n)
            bound = g[1:] - g[0] - np.log(betas).sum(axis=1)[:, None]
            assert bound.max() < 0.0, (p, n, lam)
            first = symmetric_eigendecompose(s[c * draws])
            for w, batched in zip(weights, bound[:, 0]):
                assert abs(entropy_risk_difference_bound(first, w, n) - batched) <= 1e-10 * abs(batched)
            if n == p:
                continue
            broken = np.where(betas < 1.0, betas**2, betas)
            for beta in broken:
                report = check_conditions(ShrinkageWeights(beta, n))
                assert report.c1_holds and report.c2_holds and not report.c3_holds
            g_broken = _g_batch(l[rows], d[rows], broken, n)
            assert np.all((g_broken - g[0] - np.log(broken).sum(axis=1)[:, None]).max(axis=1) > 0.0), (p, n, lam)


def test_entropy_risk_rows_meet_the_stein_haff_identity_draw_by_draw():
    # The risk engine's entropy loss takes its trace against tau = lambda /
    # sum lambda, and G estimates the trace against diag(lambda), the draws'
    # scale, so per draw (tr_beta - tr_1) - sum(lambda) (G(beta) - G(1)),
    # with tr_beta - tr_1 = L(beta) - L(1) + sum log beta, has mean exactly
    # zero. On Table 2 rows 1, 5, 9 and 18 with the q1 and q2 weights this
    # checks compare_risks' entropy path against G.
    n, reps = 30, 3 * CHUNK_SIZE
    betas = np.stack([np.ones(10)] + [family_weights(10, n, q).beta for q in (1, 2)])
    for row in (1, 5, 9, 18):
        spec = table2_spectrum(row)
        lam = spec.values
        tau = lam / lam.sum()
        l, d, u = _batch_rates(_draws(spec, n, "wishart", row, reps), 1.0 / tau)
        losses = _entropy_losses(d, u, betas, tau)
        g = _g_batch(l, d, betas, n)
        x = losses[1:] - losses[0] + np.log(betas[1:]).sum(axis=1)[:, None] - lam.sum() * (g[1:] - g[0])
        z = x.mean(axis=1) / (x.std(axis=1, ddof=1) / np.sqrt(reps))
        assert np.all(np.abs(z) < 4.0), (row, z)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bias_expansion_is_scale_free():
    # it is formed on tau = lambda / sum lambda, so it is finite and the same
    # at every scale, also where lambda^2 or (sum lambda)^3 would overflow
    # or underflow; tau is taken at unit scale, so at 2^1024, a power of
    # four where sum lambda overflows though every lambda is finite, it
    # keeps every bit
    base = np.array([0.5, 0.3, 0.2])
    expected = bias_expansion(Spectrum(base), 20)
    for exponent in (-300, -110, -50, 0, 50, 103, 200, 300):
        got = bias_expansion(Spectrum(base * 10.0**exponent), 20)
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0, err_msg=f"scale 1e{exponent}")
    assert np.array_equal(bias_expansion(Spectrum(np.ldexp(base, 1024)), 20), expected)


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
    with pytest.raises(ValueError, match="must be distinct"):
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
                spec, 10, [classical_weights(2, 10)], [RelativeCriterion()], reps, seed=0
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


@pytest.mark.parametrize("replicates", [500, 5000, 4_000_000])
def test_invariance_report_tests_at_one_percent(replicates):
    stats = np.array([0.01, 0.02])
    report = InvarianceReport(statistics=stats, p_values=np.array([0.0101, 0.5]), replicates=replicates)
    assert report.critical_value == sqrt(-log(0.005) / 2) * sqrt(2 / replicates)
    assert report.alpha == 0.01 and report.accepted
    assert not InvarianceReport(statistics=stats, p_values=np.array([0.0099, 0.5]),
                                replicates=replicates).accepted
    # the level and the critical value are derived, not settable
    for name, value in (("alpha", 0.05), ("critical_value", 0.1)):
        with pytest.raises(TypeError, match=name):
            InvarianceReport(statistics=stats, p_values=stats, replicates=replicates, **{name: value})


@pytest.mark.parametrize("decimals", [None, 2])
@pytest.mark.parametrize("n", [300, 5000, 20_000])
def test_ks_matches_scipy_exact(n, decimals):
    # 20,000 is above the 10,000 at which ks_2samp's default mode turns
    # asymptotic; rounding to 2 decimals makes ties within and across samples
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    if decimals is not None:
        x, y = np.round(x, decimals), np.round(y, decimals)
    stat, pvalue = _ks_equal_sizes(x, y)
    ref = ks_2samp(x, y, method="exact")
    assert stat == ref.statistic
    assert pvalue == pytest.approx(ref.pvalue, rel=1e-10)


def test_ks_edge_cases():
    x = np.linspace(0.0, 1.0, 300)
    assert _ks_equal_sizes(x, x[::-1].copy()) == (0.0, 1.0)
    # disjoint samples: only the two extreme paths reach D = 1
    stat, pvalue = _ks_equal_sizes(x, x + 2.0)
    ref = ks_2samp(x, x + 2.0, method="exact")
    assert stat == ref.statistic == 1.0
    assert pvalue == pytest.approx(2.0 / comb(600, 300), rel=1e-10)
    assert pvalue == pytest.approx(ref.pvalue, rel=1e-10)


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
    stat = lambda s, l, d, u: [float(s[0, 0, 0])]  # noqa: E731
    fold = lambda a, b: a + b  # noqa: E731
    fail_at = None
    folded = evaluation._run_chunks(*args, 3, None, stat, fold)
    assert folded == [float(sample(spec, n, "wishart", seed, c)[0, 0, 0]) for c in range(4)]
    fail_at = 1
    with pytest.raises(RuntimeError, match="chunk failed"):
        evaluation._run_chunks(*args, 3, None, stat, fold)


def _risks_at_row1(loss):
    w = [classical_weights(10, 30), family_weights(10, 30, 1), family_weights(10, 30, 2)]
    return lambda: compare_risks(table2_spectrum(1), 30, w, loss, "wishart", CHUNK_SIZE, seed=1)


@pytest.mark.parametrize(
    "engine, k",
    [
        # 114 controls, 3 losses and 2 differences at p = 10, n = 30
        pytest.param(_risks_at_row1("entropy"), 119, id="entropy"),
        pytest.param(_risks_at_row1("quadratic"), 119, id="quadratic"),
        # c_2, c_3, t_2, t_3, the 9 diagonal rows e_k, e_k^2 - 2/n and
        # e_i e_j, and 3 rates
        pytest.param(
            lambda: simulate_bias(Spectrum((0.5, 0.3, 0.2)), 200, "wishart", CHUNK_SIZE, 1, control_variate=True),
            16,
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

    def rates(s, x):
        if "rates" not in cache:
            cache["rates"] = decompose(s, x)
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
    """Per-replicate rates and the first- to fourth-order terms of their expansion.

    Rebuilt from scatter_chunk with E = S/n - Lambda, t = tr E, T the
    spectrum total, u = t/T and g_ij = 1/(lambda_i - lambda_j), per index i
    with every sum over the indices o other than i, w_o = g_io E_io and
    v = E_oo w: the first-order term is E_ii/T - lambda_i t/T^2; the
    second-order term is Q_i/T - u times the first, with Q_i = sum_o g_io
    E_io^2; the third-order term is (R_i - Q_i u + E_ii u^2 - lambda_i u^3)/T,
    with R_i = sum_o g_io E_io v_o - E_ii sum_o g_io^2 E_io^2; and the
    fourth-order term is (F_i - R_i u + Q_i u^2 - E_ii u^3 + lambda_i u^4)/T,
    with F_i = sum_o g_io v_o^2 - Q_i sum_o g_io^2 E_io^2 - 2 E_ii sum_o
    g_io w_o v_o + E_ii^2 sum_o g_io^3 E_io^2. All five are (replicates, p).
    """
    lam, total = spec.values, spec.values.sum()
    p = lam.size
    e = _draws(spec, n, "wishart", seed, replicates) / n - np.diag(lam)
    diag = np.diagonal(e, axis1=1, axis2=2)
    t = diag.sum(axis=1)
    u = (t / total)[:, None]
    first = diag / total - np.outer(t, lam) / total**2
    q, r, f = (np.zeros_like(first) for _ in range(3))
    for i in range(p):
        o = [j for j in range(p) if j != i]
        g = 1.0 / (lam[i] - lam[o])
        row = e[:, i, o]
        w = g * row
        v = np.einsum("rkl,rl->rk", e[:, o][:, :, o], w)
        q[:, i] = (g * row**2).sum(axis=1)
        square = (g**2 * row**2).sum(axis=1)
        r[:, i] = (w * v).sum(axis=1) - e[:, i, i] * square
        f[:, i] = (
            (g * v**2).sum(axis=1)
            - q[:, i] * square
            - 2.0 * e[:, i, i] * (g * w * v).sum(axis=1)
            + e[:, i, i] ** 2 * (g**3 * row**2).sum(axis=1)
        )
    second = q / total - first * u
    third = (r - q * u + diag * u**2 - lam * u**3) / total
    fourth = (f - r * u + q * u**2 - diag * u**3 + lam * u**4) / total
    return sample_rates(spec, n, "wishart", replicates, seed), first, second, third, fourth


def _bias_controls(spec, n, seed, replicates):
    """Per-replicate rates d, corrections c and third- and fourth-order terms t and r, each (replicates, p).

    c is the first- plus the second-order term less the second's exact mean
    (bias_expansion - lambda / T), and t and r the third- and fourth-order
    terms less their exact means, as ``simulate_bias(control_variate=True)``
    forms them.
    """
    d, first, second, third, fourth = _expansion_terms(spec, n, seed, replicates)
    lam = spec.values
    c = first + second - (bias_expansion(spec, n) - lam / lam.sum())
    return d, c, third - evaluation._third_order_means(lam, n), fourth - evaluation._fourth_order_means(lam, n)


def _diagonal_columns(s, lam, n):
    """The diagonal rows of the Wishart basis of draws s, each (replicates, k).

    e_k = S_kk/(n lambda_k) - 1, e_k^2 - 2/n, and e_i e_j for i < j in triu order.
    """
    e = np.diagonal(s, axis1=1, axis2=2) / (n * lam) - 1.0
    iu, ju = np.triu_indices(lam.size, 1)
    return e, e**2 - 2.0 / n, e[:, iu] * e[:, ju]


def _bias_basis(spec, n, seed, replicates):
    """Per-replicate rates d, corrections c and the control basis of the bias control variate.

    The basis is the one ``simulate_bias(control_variate=True)`` fits on:
    c_2..c_p, t_2..t_p and r_2..r_p of ``_bias_controls``, then the
    diagonal rows of the Wishart basis (``_diagonal_columns``), rebuilt from
    scatter_chunk; shape (replicates, 3(p - 1) + 2p + p(p - 1)/2).
    """
    d, c, t, r = _bias_controls(spec, n, seed, replicates)
    s = _draws(spec, n, "wishart", seed, replicates)
    return d, c, np.hstack([c[:, 1:], t[:, 1:], r[:, 1:], *_diagonal_columns(s, spec.values, n)])


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
    diag, square, product = _diagonal_columns(s, lam, n)
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
    columns = [diag, pair, square, product, log_det[:, None], cube[:, None]]
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
    their cross-fitted fit on the corrections c_2..c_p, the third- and
    fourth-order terms t_2..t_p and r_2..r_p and the diagonal rows of
    ``_bias_basis``; the loss rows
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
            d, _, basis = _bias_basis(spec, n, seed, replicates)
            values = _parity_fitted(basis, d)
        else:
            values = sample_rates(spec, n, distribution, replicates, seed)
        return sim.mean_rates, sim.std_errors, values
    weights = [classical_weights(4, n), family_weights(4, n, 1)]
    betas = np.stack([w.beta for w in weights])
    tau = spec.values / spec.values.sum()
    s = _draws(spec, n, "wishart", seed, replicates)
    l, d, u = _batch_rates(s, 1.0 / tau)
    if engine == "stein-haff":
        # the diagonal of V diag(beta d) V' is sum_j v_ij^2 beta_j d_j; the
        # weights e_i make u row i of v * v
        q = np.stack([_batch_rates(s, x)[2] for x in np.eye(spec.p)], axis=1)
        trace = np.einsum("rij,wrj,i->wr", q, betas[:, None, :] * d, 1.0 / tau)
        g = _g_batch(l, d, betas, n)
        values = np.concatenate([trace, g, trace - g]).T
    else:
        if engine == "entropy":
            losses = _entropy_losses(d, u, betas, tau)
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

        for name in (
            "_bias_corrections", "_expansion_plan", "_third_order_means", "_fourth_order_means",
            "_diagonal_controls", "_wishart_controls", "_log_det_mean",
        ):
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
    x = 1.0 / tau if loss_kind == "entropy" else None
    _, d, u = _batch_rates(_draws(spec, n, distribution, seed, replicates), x)
    if loss_kind == "entropy":
        losses = _entropy_losses(d, u, betas, tau)
    else:
        losses = _quadratic_losses(d, betas, tau)
    values = np.concatenate([losses, losses[1:] - losses[0]])
    return values.mean(axis=1), values.std(axis=1, ddof=1) / np.sqrt(replicates)


def _risk_moments(cmp):
    means = np.concatenate([cmp.mean_losses, cmp.diff_means])
    return means, np.concatenate([cmp.std_errors, cmp.diff_std_errors])


_LOSS_KINDS = pytest.mark.parametrize("loss_kind", ["entropy", "quadratic"])


@_LOSS_KINDS
def test_risk_keeps_the_plain_estimator(loss_kind, monkeypatch):
    # below the floor of 10 rows a fold per fitted coefficient (p = 4,
    # n = 12: 22 controls and an intercept, 230 rows; 459 replicates leave
    # the odd fold 229) the control basis is empty: the cross-fit then
    # returns the plain means and SEs, and no control is computed; the loss
    # kind plays no part in the choice
    spec, n, seed, replicates = Spectrum((0.4, 0.3, 0.2, 0.1)), 12, 31, 459
    w = [classical_weights(4, n), family_weights(4, n, 1)]
    plain_means, plain_ses = _plain_risk_moments(spec, n, loss_kind, "wishart", seed, replicates, w)

    def unused(*args):
        raise AssertionError("an empty control basis computes no control")

    monkeypatch.setattr(evaluation, "_log_det_mean", unused)
    monkeypatch.setattr(evaluation, "_wishart_controls", unused)
    cmp = compare_risks(spec, n, w, loss_kind, "wishart", replicates, seed=seed)
    means, ses = _risk_moments(cmp)
    np.testing.assert_allclose(means, plain_means, rtol=1e-12, atol=0)
    np.testing.assert_allclose(ses, plain_ses, rtol=1e-12, atol=0)


@_LOSS_KINDS
def test_risk_controls_are_scale_free(loss_kind):
    # the draws, and so the trace controls and their means, are taken at
    # unit scale, so a spectrum past 1e103, where t_1^3 overflowed, or below
    # 1e-103, where E[tr S^3] underflowed to zero, gives the unit-scale
    # risks; under 2^-400, where lambda^-2 would overflow, 2^400 and 2^1020,
    # where sum lambda overflows though every lambda is finite, all powers
    # of four, the controls, their means and the fit keep every bit
    base, n, seed, replicates = np.array([6.0, 5.0, 4.0, 3.0, 2.0, 1.0]), 12, 1, 2000
    w = [classical_weights(6, n), family_weights(6, n, 1)]
    expected = _risk_moments(compare_risks(Spectrum(base), n, w, loss_kind, "wishart", replicates, seed=seed))
    for exponent in (-110, 110):
        got = _risk_moments(
            compare_risks(Spectrum(base * 10.0**exponent), n, w, loss_kind, "wishart", replicates, seed=seed)
        )
        for g, e in zip(got, expected):
            np.testing.assert_allclose(g, e, rtol=1e-12, atol=0, err_msg=f"scale 1e{exponent}")
    assert evaluation._trace_means(base, 30).size == 3
    for k in (-400, 400, 1020):
        got = _risk_moments(
            compare_risks(Spectrum(np.ldexp(base, k)), n, w, loss_kind, "wishart", replicates, seed=seed)
        )
        for g, e in zip(got, expected):
            assert np.array_equal(g, e), f"scale 2^{k}"


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
    "loss_kind, n, seeds, distribution",
    [
        pytest.param("entropy", 12, 60, "wishart", id="entropy"),
        pytest.param("quadratic", 12, 60, "wishart", id="quadratic"),
        pytest.param("entropy", 20, 240, "wishart", id="entropy-n20"),
        pytest.param("quadratic", 20, 240, "wishart", id="quadratic-n20"),
        pytest.param("entropy", 20, 120, "t:5", id="entropy-n20-t5"),
    ],
)
def test_risk_control_variate_se_is_calibrated(loss_kind, n, seeds, distribution):
    # the spread of the cross-fitted means over seeds matches the reported
    # SE, without the inverse traces (n = 12) and with them (n = 20 = p + 16),
    # under either law; the ratio's own sampling SD is about 0.09 over 60
    # seeds, 0.065 over 120 and 0.045 over 240
    spec = Spectrum((0.4, 0.3, 0.2, 0.1))
    w = [classical_weights(4, n), family_weights(4, n, 1)]
    runs = [
        _risk_moments(compare_risks(spec, n, w, loss_kind, distribution, 2000, seed=s))
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
    "spec, n, n_spectral, distribution",
    [
        pytest.param(Spectrum((0.4, 0.3, 0.2, 0.1)), 30, 3, "wishart", id="p4"),
        pytest.param(table2_spectrum(18), 30, 3, "wishart", id="row18"),
        pytest.param(table2_spectrum(18), 25, 1, "wishart", id="row18-n25"),
        pytest.param(Spectrum((0.4, 0.3, 0.2, 0.1)), 30, 3, "t:5", id="p4-t5"),
        pytest.param(table2_spectrum(18), 30, 3, "t:5", id="row18-t5"),
        pytest.param(Spectrum((0.5, 0.3, 0.2)), 200, 3, "wishart", id="p3-n200"),
        pytest.param(Spectrum((0.5, 0.3, 0.2)), 200, 3, "t:5", id="p3-n200-t5"),
    ],
)
def test_wishart_controls_have_mean_zero(spec, n, n_spectral, distribution):
    # every control, the products e_i e_j, log det S and the spectral traces
    # included, averages to zero within 4 SEs over 40 chunks, under either
    # law, whose chunks are both Wishart draws; tr S^-1 and tr S^-2 join
    # tr S^3 only at n >= p + 16, so not at p = 10, n = 25; criterion 7's
    # p = 3 spectrum at n = 200 checks the diagonal rows that the bias
    # control variate fits (``_diagonal_controls``) where it runs
    lam = spec.values
    p = lam.size
    log_det_mean = evaluation._log_det_mean(lam, n)
    trace_means = evaluation._trace_means(lam, n)
    assert trace_means.size == n_spectral

    def stat(s, l, d, u):
        controls = np.empty((p * p + p + 1 + n_spectral, s.shape[0]))
        evaluation._wishart_controls(s, l, lam, n, log_det_mean, trace_means, controls)
        return controls

    means, ses = evaluation._estimate(spec, n, distribution, 40 * CHUNK_SIZE, 23, 2, None, 0, stat)
    assert np.all(np.abs(means) < 4 * ses), np.abs(means / ses).max()


def test_control_variate_agrees_and_tightens():
    # both laws' chunks are exact Wishart draws, so the controls' means are exact under each
    spec = Spectrum((0.5, 0.3, 0.2))
    for distribution in ("wishart", "t:5"):
        plain = simulate_bias(spec, 100, distribution, 50000, seed=29)
        cv = simulate_bias(spec, 100, distribution, 50000, seed=29, control_variate=True)
        combined = np.sqrt(plain.std_errors**2 + cv.std_errors**2)
        assert np.all(np.abs(plain.mean_rates - cv.mean_rates) < 5 * combined)
        assert np.all(cv.std_errors < plain.std_errors)


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
    d, c, *_ = _bias_controls(spec, n, seed, replicates)
    second_order = _parity_fitted(c[:, 1:], d).var(axis=0, ddof=1).max()
    cv = simulate_bias(spec, n, "wishart", replicates, seed=seed, control_variate=True)
    assert (cv.std_errors**2 * replicates).max() < factor * second_order


@pytest.mark.parametrize("n, factor", [(30, 0.7), (200, 0.8), (400, 0.8)])
def test_diagonal_controls_cut_the_expansion_fit(n, factor):
    # the diagonal rows of the Wishart basis, e_k, e_k^2 - 2/n and e_i e_j,
    # cut the worst per-replicate variance left by the fit on c_2..c_p and
    # t_2..t_p alone, most where the expansion's remainder is large (n = 30)
    spec, seed, replicates = Spectrum((0.5, 0.3, 0.2)), 5, 16 * CHUNK_SIZE
    d, c, t, _ = _bias_controls(spec, n, seed, replicates)
    expansion_only = _parity_fitted(np.hstack([c[:, 1:], t[:, 1:]]), d).var(axis=0, ddof=1).max()
    cv = simulate_bias(spec, n, "wishart", replicates, seed=seed, control_variate=True)
    assert (cv.std_errors**2 * replicates).max() < factor * expansion_only


@pytest.mark.parametrize("n, factor", [(200, 0.75), (400, 0.5)])
def test_fourth_order_controls_cut_the_thirteen_row_fit(n, factor):
    # r_2..r_p cut the worst per-replicate variance left by the fit on
    # c_2..c_p, t_2..t_p and the diagonal rows below 0.75x at n = 200 and
    # below 0.5x at n = 400 (about 0.56x and 0.35x at seed 5), since the
    # remainder after the third-order term falls like n^-2
    spec, seed, replicates = Spectrum((0.5, 0.3, 0.2)), 5, 16 * CHUNK_SIZE
    d, c, t, _ = _bias_controls(spec, n, seed, replicates)
    s = _draws(spec, n, "wishart", seed, replicates)
    basis = np.hstack([c[:, 1:], t[:, 1:], *_diagonal_columns(s, spec.values, n)])
    assert basis.shape[1] == 13
    thirteen = _parity_fitted(basis, d).var(axis=0, ddof=1).max()
    cv = simulate_bias(spec, n, "wishart", replicates, seed=seed, control_variate=True)
    assert (cv.std_errors**2 * replicates).max() < factor * thirteen


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
    # every coordinate's correction c_i and third- and fourth-order terms
    # t_i and r_i average to zero within 4 SEs over 40 chunks, and each
    # draw's c_i, each of order 0.1, sum to zero to rounding, as do its t_i
    # and its r_i, which is why the engine fits on all but the first of each
    lam = spec.values
    p = lam.size
    offset = np.concatenate([
        bias_expansion(spec, n) - lam / lam.sum(),
        evaluation._third_order_means(lam, n),
        evaluation._fourth_order_means(lam, n),
    ])
    plan = evaluation._expansion_plan(lam, n)
    worst_sum = []

    def stat(s, l, d, u):
        out = np.empty((evaluation._correction_rows(p), s.shape[0]))
        evaluation._bias_corrections(s, lam, n, offset, plan, out)
        c = out[: 3 * p].reshape(p, 3, -1)
        worst_sum.append(np.abs(c.sum(axis=0)).max())
        return c.reshape(3 * p, -1)

    means, ses = evaluation._estimate(spec, n, "wishart", 40 * CHUNK_SIZE, 23, 2, None, 0, stat)
    assert np.all(np.abs(means) < 4 * ses), np.abs(means / ses).max()
    assert max(worst_sum) < 1e-14


@pytest.mark.parametrize(
    "values",
    [(0.5, 0.3, 0.2), (0.4, 0.3, 0.2, 0.1), (0.35, 0.25, 0.2, 0.12, 0.08)],
    ids=["p3", "p4", "p5"],
)
@pytest.mark.parametrize("n", [30, 200])
def test_expansion_term_means_match_the_enumerated_oracle(values, n):
    # the closed forms of E[t_i] and E[r_i] are the sums over the set
    # partitions of each product's factors into observation blocks, with
    # each block's moment from Isserlis' theorem (tests/oracle_moments.py)
    lam = np.array(values)
    third, fourth = rate_term_means(lam, n)
    np.testing.assert_allclose(evaluation._third_order_means(lam, n), third, rtol=1e-12, atol=0)
    np.testing.assert_allclose(evaluation._fourth_order_means(lam, n), fourth, rtol=1e-12, atol=0)


def test_fourth_order_means_hand_values():
    lam = np.array([0.5, 0.3, 0.2])
    np.testing.assert_allclose(
        evaluation._fourth_order_means(lam, 200), [1.66199910e-4, 7.46482350e-5, -2.40848145e-4], rtol=1e-8
    )
    np.testing.assert_allclose(evaluation._fourth_order_means(lam, 30), [7.90333e-3, 3.96615e-3, -1.186948e-2], rtol=1e-6)


@pytest.mark.parametrize("values", [(0.5, 0.3, 0.2), (0.4, 0.3, 0.2, 0.1, 0.05)], ids=["p3", "p5"])
def test_rate_expansion_residual_is_fifth_order(values):
    # at S/n = Lambda + eps H, the rates less lambda/T and c_i + t_i + r_i
    # (offsets zero) leave an O(eps^5) residual, so halving eps divides it
    # by about 32; without r_i the residual is O(eps^4), divided by about 16
    lam, n = np.array(values), 50
    p = lam.size
    h = np.random.default_rng(1).standard_normal((p, p))
    h += h.T
    plan = evaluation._expansion_plan(lam, n)
    residuals = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        s = n * (np.diag(lam) + eps * h)[None]
        out = np.empty((evaluation._correction_rows(p), 1))
        evaluation._bias_corrections(s, lam, n, np.zeros(3 * p), plan, out)
        c, t, r = out[: 3 * p, 0].reshape(p, 3).T
        l = np.linalg.eigvalsh(s[0])[::-1]
        left = l / l.sum() - lam / lam.sum() - c - t
        residuals.append((np.abs(left).max(), np.abs(left - r).max()))
    third, fourth = np.array(residuals).T
    assert np.all((third[:-1] / third[1:] > 12) & (third[:-1] / third[1:] < 20)), third
    assert np.all((fourth[:-1] / fourth[1:] > 24) & (fourth[:-1] / fourth[1:] < 40)), fourth


@pytest.mark.parametrize("replicates, fitted", [(859, False), (860, True)])
def test_bias_control_variate_fits_from_the_floor(replicates, fitted):
    # p = 6 fits 42 controls, c_2..c_6, t_2..t_6, r_2..r_6 and the 27
    # diagonal rows, and an intercept, 430 rows a fold: 859 replicates leave
    # the odd fold 429, and the corrected rates z = d - c are averaged
    # unfitted; 860 cross-fit them, as the rates less the fit on that basis
    spec, n, seed = Spectrum((0.3, 0.25, 0.18, 0.12, 0.1, 0.05)), 20, 13
    d, c, basis = _bias_basis(spec, n, seed, replicates)
    assert basis.shape[1] == 42
    values = _parity_fitted(basis, d) if fitted else d - c
    cv = simulate_bias(spec, n, "wishart", replicates, seed=seed, control_variate=True)
    np.testing.assert_allclose(cv.mean_rates, values.mean(axis=0), rtol=1e-12, atol=0)
    se = values.std(axis=0, ddof=1) / np.sqrt(replicates)
    np.testing.assert_allclose(cv.std_errors, se, rtol=1e-12, atol=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("control_variate", [False, True])
def test_bias_is_scale_free(control_variate):
    # the rates and the controls are scale-free, and the draws are taken at
    # the spectrum times a power of four, so a spectrum at 1e110, where the
    # controls' lambda^3 would overflow, or at 1e-110, where their sums
    # would underflow, gives the unit-scale means and SEs, plain and fitted,
    # and at 2^1024, a power of four where sum lambda overflows though every
    # lambda is finite, the same bits
    base = np.array([0.5, 0.3, 0.2])
    unit = simulate_bias(Spectrum(base), 200, "wishart", 4096, seed=1, control_variate=control_variate)
    for scale in (1e110, 1e-110):
        b = simulate_bias(Spectrum(base * scale), 200, "wishart", 4096, seed=1, control_variate=control_variate)
        np.testing.assert_allclose(b.mean_rates, unit.mean_rates, rtol=1e-12, atol=0, err_msg=f"scale {scale}")
        np.testing.assert_allclose(b.std_errors, unit.std_errors, rtol=1e-12, atol=0, err_msg=f"scale {scale}")
    b = simulate_bias(Spectrum(np.ldexp(base, 1024)), 200, "wishart", 4096, seed=1, control_variate=control_variate)
    assert np.array_equal(b.mean_rates, unit.mean_rates) and np.array_equal(b.std_errors, unit.std_errors)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "base, overflow", [(np.array([0.5, 0.3, 0.2]), 1024), (3.0 * np.arange(10, 0, -1), 1018)], ids=["p3", "p10"]
)
def test_sample_rates_are_scale_free(base, overflow):
    # the rates are drawn at unit scale, so at 1e110, where the p = 3 closed
    # form's det products overflowed, and at 1e-110 they match the run at
    # the spectrum as given, and at 2^400 and 2^-400, powers of four, keep
    # every bit, and so at 2^overflow, the power of four where sum lambda
    # overflows though every lambda is finite
    unit = sample_rates(Spectrum(base), 200, "wishart", 4096, seed=1)
    for scale in (1e110, 1e-110):
        d = sample_rates(Spectrum(base * scale), 200, "wishart", 4096, seed=1)
        np.testing.assert_allclose(d, unit, rtol=1e-12, atol=0, err_msg=f"scale {scale}")
    for k in (-400, 400, overflow):
        assert np.array_equal(sample_rates(Spectrum(np.ldexp(base, k)), 200, "wishart", 4096, seed=1), unit)


def test_control_variate_refuses_tied_spectrum_before_sampling(monkeypatch):
    # the pair terms divide by lambda_i - lambda_j; bias_expansion refuses
    # the spectrum before the first stream is created
    monkeypatch.setattr(np.random, "Philox", _no_stream)
    for values in ((0.5, 0.25, 0.25), (0.4, 0.4 * (1 - 1e-14), 0.2)):
        with pytest.raises(ValueError, match="must be distinct"):
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
