"""Nonparametric KL divergence from two sample sets via k-NN distances.

Estimator: D(phat || p) ~= (d/n) sum_i log(s_k(i) / r_k(i)) + log(m/(n-1)),
where r_k is the distance from the i-th phat sample to its k-th nearest
neighbor among the *other* phat samples and s_k the distance to its k-th
nearest neighbor among the p samples.  This arrangement (p-side distance in
the numerator) is the one that reproduces closed-form Gaussian divergences;
see the test suite's Gaussian oracle.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree


class InsufficientSamplesError(ValueError):
    pass


class DegenerateDistanceError(ValueError):
    pass


def kl_knn(samples_p_hat: np.ndarray, samples_p: np.ndarray, k: int = 1) -> float:
    """KL(phat || p) from samples; Euclidean metric.

    Coincident points inside samples_p_hat (or exact overlaps with samples_p)
    would produce zero distances, so one round of deterministic 1e-12 jitter
    is applied before giving up.
    """
    a = np.asarray(samples_p_hat, dtype=np.float64)
    b = np.asarray(samples_p, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    n, d = a.shape
    m = b.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if n <= k or m < k:
        raise InsufficientSamplesError(f"need n > k and m >= k, got n={n}, m={m}, k={k}")

    for attempt in range(2):
        r_k = cKDTree(a).query(a, k=k + 1)[0][:, k]  # self excluded via k+1
        s_k = cKDTree(b).query(a, k=k)[0]
        if k > 1:
            s_k = s_k[:, k - 1]
        s_k = np.atleast_1d(np.squeeze(s_k))
        if np.all(r_k > 0.0) and np.all(s_k > 0.0):
            return float((d / n) * np.log(s_k / r_k).sum() + np.log(m / (n - 1)))
        if attempt == 0:
            a = a + np.random.default_rng(0).normal(0.0, 1e-12, a.shape)
    raise DegenerateDistanceError("zero nearest-neighbor distance after jitter")
