"""Built-in target distributions: Gaussian mixtures and a probit posterior.

Both expose batched score and log-density callables and adapt to
:class:`~steinweights.stein.ScoreTarget`. Mixture targets carry closed-form
moments; the probit posterior is known only up to a constant, so its
moments come from a long-chain oracle in the experiment harness.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import erfcx, ndtr

from .errors import UnsupportedConfigurationError
from .stein import ScoreTarget

__all__ = [
    "GroundTruth",
    "GaussianMixture",
    "ProbitModel",
    "standard_normal_target",
    "gaussianity_interpolation",
    "random_gaussian_mixture",
    "probit_simulate",
    "read_probit_dataset",
    "write_probit_dataset",
]

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the rows of a 2-d array, keeping the axis: (n, 1).

    Takes the steps of ``scipy.special.logsumexp(a, axis=1, keepdims=True)``
    (scipy 1.17) without its per-call overhead: the row maximum, the count
    m of entries equal to it, the sum s of exp(a - max) over the others,
    s / m unless s is 0, then log1p(s) + log(m) + max. A non-finite result,
    such as a row that is all -inf, is replaced by log(sum(exp(a))).
    """
    peak = a.max(axis=1, keepdims=True)
    top = a == peak
    count = top.sum(axis=1, keepdims=True, dtype=a.dtype)
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = np.exp(np.where(top, -np.inf, a) - peak).sum(axis=1, keepdims=True)
        rest = np.where(rest == 0, rest, rest / count)
        out = np.log1p(rest) + np.log(count) + peak
    bad = ~np.isfinite(out[:, 0])
    if bad.any():
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out[bad, 0] = np.log(np.exp(a[bad]).sum(axis=1))
    return out


@dataclass(frozen=True)
class GroundTruth:
    """Moment oracle used to score estimates.

    Either closed-form (``exact_cosine`` set, as from
    :meth:`GaussianMixture.moments`) or backed by thinned draws from a
    long-chain run.

    Attributes:
        mean: (d,) first moment.
        second_moment: (d,) per-coordinate raw second moment E[x_i^2].
        thinned: optional (m, d) draws from the target.
        exact_cosine: optional callable (omega, b) -> E[cos(omega' x + b)].
    """

    mean: np.ndarray
    second_moment: np.ndarray
    thinned: np.ndarray | None = None
    exact_cosine: Callable[[np.ndarray, float], float] | None = field(
        default=None, compare=False
    )

    def cosine(self, omega: np.ndarray, offset: float) -> float:
        if self.exact_cosine is not None:
            return float(self.exact_cosine(omega, offset))
        if self.thinned is not None and len(self.thinned):
            return float(np.mean(np.cos(self.thinned @ omega + offset)))
        raise UnsupportedConfigurationError(
            "ground truth has no cosine oracle; drop random_cosine or store draws"
        )


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture of isotropic Gaussians.

    Attributes:
        weights: (J,) mixture weights on the simplex.
        means: (J, d) component means.
        variances: (J,) per-component isotropic variances.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.means, dtype=float)
        var = np.asarray(self.variances, dtype=float)
        if mu.ndim == 1:
            mu = mu[:, None]
        if w.ndim != 1 or mu.ndim != 2 or var.ndim != 1:
            raise ValueError("expected weights (J,), means (J, d), variances (J,)")
        if not (w.shape[0] == mu.shape[0] == var.shape[0]):
            raise ValueError(
                f"component count mismatch: {w.shape[0]}, {mu.shape[0]}, {var.shape[0]}"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(mu)) and np.all(np.isfinite(var))):
            raise ValueError("mixture parameters must be finite")
        if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError("mixture weights must be nonnegative and sum to one")
        if np.any(var <= 0.0):
            raise ValueError("component variances must be positive")
        object.__setattr__(self, "weights", w / float(w.sum()))
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", var)

    @property
    def dimension(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    def _component_log_densities(self, points: np.ndarray) -> np.ndarray:
        """(n, J) matrix of log N(x_i; mu_j, var_j I)."""
        d = self.dimension
        diff = points[:, None, :] - self.means[None, :, :]
        sq = np.sum(diff * diff, axis=2)
        return -0.5 * sq / self.variances[None, :] - 0.5 * d * np.log(
            2.0 * np.pi * self.variances
        )[None, :]

    def log_density(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        comp = self._component_log_densities(pts)
        return _logsumexp_rows(comp + np.log(self.weights)[None, :])[:, 0]

    def score(self, points: np.ndarray) -> np.ndarray:
        """Gradient of the log-density, a responsibility-weighted pull to means."""
        pts = np.asarray(points, dtype=float)
        comp = self._component_log_densities(pts) + np.log(self.weights)[None, :]
        comp = comp - _logsumexp_rows(comp)
        resp = np.exp(comp)
        pull = (self.means[None, :, :] - pts[:, None, :]) / self.variances[None, :, None]
        return np.einsum("nj,njd->nd", resp, pull)

    def cosine_expectation(self, omega: np.ndarray, offset: float) -> float:
        """E[cos(omega' x + offset)], from each component's characteristic function."""
        omega = np.asarray(omega, dtype=float)
        damp = np.exp(-0.5 * self.variances * float(omega @ omega))
        return float(np.sum(self.weights * damp * np.cos(self.means @ omega + offset)))

    def moments(self) -> GroundTruth:
        """Closed-form mean, second moment and cosine expectation."""
        mean = self.weights @ self.means
        second = self.weights @ (self.means**2 + self.variances[:, None])
        return GroundTruth(mean, second, exact_cosine=self.cosine_expectation)

    def as_target(self) -> ScoreTarget:
        return ScoreTarget(
            dimension=self.dimension,
            score=self.score,
            log_density=self.log_density,
            density_normalized=True,
        )

    @classmethod
    def standard_normal(cls, dimension: int) -> "GaussianMixture":
        """Standard normal in d dimensions as a one-component mixture."""
        return cls(np.array([1.0]), np.zeros((1, dimension)), np.array([1.0]))


def standard_normal_target(dimension: int) -> ScoreTarget:
    """Standard normal in d dimensions as a one-component mixture."""
    return GaussianMixture.standard_normal(dimension).as_target()


def gaussianity_interpolation(mixture: GaussianMixture, lam: float) -> GaussianMixture:
    """Distribution of (1 - lam) x + lam z for x from the mixture, z standard normal.

    Component means scale by (1 - lam) and variances become
    (1 - lam)^2 var + lam^2. lam = 0 reproduces the mixture unchanged and
    lam = 1 collapses every component onto the standard normal.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"interpolation parameter must lie in [0, 1], got {lam}")
    if lam == 0.0:
        return mixture
    return GaussianMixture(
        weights=mixture.weights.copy(),
        means=(1.0 - lam) * mixture.means,
        variances=(1.0 - lam) ** 2 * mixture.variances + lam**2,
    )


def random_gaussian_mixture(
    n_components: int,
    dimension: int,
    seed: int,
    mean_range: tuple[float, float],
    variance_range: tuple[float, float],
) -> GaussianMixture:
    """Draw a mixture with flat-Dirichlet weights and uniform means/variances.

    Used as a seeded, reproducible multimodal test bed.
    """
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_components))
    means = rng.uniform(mean_range[0], mean_range[1], size=(n_components, dimension))
    variances = rng.uniform(variance_range[0], variance_range[1], size=n_components)
    return GaussianMixture(weights=weights, means=means, variances=variances)


def _signed_erfcx(t: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e, s) at latent values t: s = signs * t, written over t, and a new
    e = erfcx(s / -sqrt(2)). Observation i's log-likelihood term is
    log Phi(s_i) = log(e_i / 2) - s_i^2 / 2 and its Mills ratio is
    phi(s_i) / Phi(s_i) = sqrt(2 / pi) / e_i.
    """
    t *= signs
    e = np.divide(t, -np.sqrt(2.0))
    erfcx(e, out=e)
    return e, t


@dataclass(frozen=True)
class ProbitModel:
    """Bayesian probit regression posterior.

    Binary labels follow P(label = 1 | x) = Phi(x' features_row) with an
    isotropic normal prior N(0, prior_variance I) on the coefficient
    vector x. The posterior density is known only up to its normalizing
    constant. Observation i enters through its signed latent value
    s_i = sign_i x' features_i, with ``signs`` +1 / -1 per label, so each
    term is evaluated once, at one sign. Every evaluation (log-density,
    score, both at once, minibatch score) takes its per-observation terms
    from one erfcx pass over s, :func:`_signed_erfcx`.

    Attributes:
        features: (N, d) design matrix.
        labels: (N,) array of 0/1 labels.
        prior_variance: variance of the coefficient prior.
        true_coefficients: optional generating coefficients for simulated data.
    """

    features: np.ndarray
    labels: np.ndarray
    prior_variance: float
    true_coefficients: np.ndarray | None = field(default=None, compare=False)
    signs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels)
        if feats.ndim != 2:
            raise ValueError(f"features must be (N, d), got shape {feats.shape}")
        if labels.shape != (feats.shape[0],):
            raise ValueError("labels must be a vector matching the feature rows")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        if not np.all(np.isin(labels, (0, 1))):
            raise ValueError("labels must be 0 or 1")
        if not (np.isfinite(self.prior_variance) and self.prior_variance > 0.0):
            raise ValueError("prior_variance must be positive")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels.astype(np.int64))
        object.__setattr__(self, "signs", 2.0 * self.labels - 1.0)

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    @property
    def n_data(self) -> int:
        return self.features.shape[0]

    @staticmethod
    def _log_phi_sums(e: np.ndarray, s: np.ndarray) -> np.ndarray:
        """(C,) sums over observations of min(log(e / 2) - s^2 / 2, 0),
        computed in place in ``e`` and ``s``.

        Where s > 37.6, e overflows to inf and the min gives the limit 0.
        It is ``fmin`` so that the limit holds also where s^2 / 2 overflows
        and the difference is inf - inf. For |s| <= 40 each term is within
        4e-13 of ``log_ndtr(s)``, and within 2e-15 relative where s <= 0.
        """
        e *= 0.5
        np.log(e, out=e)
        np.multiply(s, s, out=s)
        s *= 0.5
        e -= s
        np.fmin(e, 0.0, out=e)
        return np.sum(e, axis=1)

    def _log_prior(self, pts: np.ndarray) -> np.ndarray:
        return -0.5 * np.sum(pts * pts, axis=1) / self.prior_variance

    def log_density(self, points: np.ndarray) -> np.ndarray:
        """Unnormalized log-posterior: probit log-likelihood plus normal prior."""
        pts = np.asarray(points, dtype=float)
        loglik = self._log_phi_sums(*_signed_erfcx(pts @ self.features.T, self.signs))
        return loglik + self._log_prior(pts)

    def _score_from(self, e: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """The score at ``pts`` from their (C, N) ``e`` of :func:`_signed_erfcx`:
        each observation's Mills ratio sqrt(2 / pi) / e, signed, through the
        features, plus the prior's score."""
        coef = np.divide(_SQRT_2_OVER_PI, e)
        coef *= self.signs
        return coef @ self.features + self.prior_score(pts)

    def score(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return self._score_from(_signed_erfcx(pts @ self.features.T, self.signs)[0], pts)

    def log_density_and_score(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``log_density`` and ``score`` from one GEMM and one erfcx, equal
        to each bit for bit."""
        pts = np.asarray(points, dtype=float)
        e, s = _signed_erfcx(pts @ self.features.T, self.signs)
        score = self._score_from(e, pts)
        return self._log_phi_sums(e, s) + self._log_prior(pts), score

    def prior_score(self, points: np.ndarray) -> np.ndarray:
        return -np.asarray(points, dtype=float) / self.prior_variance

    def data_score_minibatch(self, points: np.ndarray, batch_indices: np.ndarray) -> np.ndarray:
        """Sum of per-observation log-likelihood gradients over a minibatch.

        ``batch_indices`` has one row of observation indices per point row.
        For c points and m indices per row this costs O(c m d): only the
        gathered observations are evaluated, whatever the data size N.
        """
        pts = np.asarray(points, dtype=float)
        idx = np.asarray(batch_indices)
        feats = self.features[idx]
        signs = self.signs[idx]
        e, _ = _signed_erfcx(np.einsum("cd,cmd->cm", pts, feats), signs)
        coef = np.divide(_SQRT_2_OVER_PI, e)
        coef *= signs
        return np.einsum("cm,cmd->cd", coef, feats)

    def as_target(self) -> ScoreTarget:
        return ScoreTarget(
            dimension=self.dimension,
            score=self.score,
            log_density=self.log_density,
            density_normalized=False,
            log_density_and_score=self.log_density_and_score,
        )


def probit_simulate(
    n_data: int,
    dimension: int,
    seed: int,
    prior_variance: float,
    coefficients: np.ndarray | None = None,
) -> ProbitModel:
    """Simulate a probit dataset with standard normal features.

    Labels are Bernoulli(Phi(features @ coefficients)); when no coefficient
    vector is given one is drawn standard normal from the same stream.
    """
    rng = np.random.default_rng(seed)
    if coefficients is None:
        coefficients = rng.standard_normal(dimension)
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (dimension,):
        raise ValueError("coefficients must match the feature dimension")
    features = rng.standard_normal((n_data, dimension))
    probs = ndtr(features @ coefficients)
    labels = (rng.uniform(size=n_data) < probs).astype(np.int64)
    return ProbitModel(
        features=features,
        labels=labels,
        prior_variance=prior_variance,
        true_coefficients=coefficients,
    )


def write_probit_dataset(path, model: ProbitModel) -> None:
    """Write features and labels as delimited text with a header row."""
    d = model.dimension
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(d)] + ["label"])
        for row, label in zip(model.features, model.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def read_probit_dataset(path, prior_variance: float) -> ProbitModel:
    """Read a dataset written by :func:`write_probit_dataset`.

    Expects a header row followed by d feature columns and one 0/1 label
    column per line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise ValueError("probit dataset needs a header row and at least two columns")
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError("probit dataset contains no data rows")
    data = np.array([[float(v) for v in row] for row in rows])
    features = data[:, :-1]
    labels = data[:, -1]
    if not np.all(np.isin(labels, (0.0, 1.0))):
        raise ValueError("label column must contain only 0 and 1")
    return ProbitModel(
        features=features, labels=labels.astype(np.int64), prior_variance=prior_variance
    )
