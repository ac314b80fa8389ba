"""Built-in target distributions: Gaussian mixtures and a probit posterior.

Both expose batched score and log-density callables and adapt to
:class:`~steinweights.stein.ScoreTarget`. Mixture targets carry closed-form
moments; the probit posterior is known only up to a constant, so its
moments come from a long-chain oracle in the experiment harness.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfcx, log_ndtr, logsumexp, ndtr

from .stein import ExactMoments, ScoreTarget

__all__ = [
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
        return logsumexp(comp + np.log(self.weights)[None, :], axis=1)

    def score(self, points: np.ndarray) -> np.ndarray:
        """Gradient of the log-density, a responsibility-weighted pull to means."""
        pts = np.asarray(points, dtype=float)
        comp = self._component_log_densities(pts) + np.log(self.weights)[None, :]
        comp = comp - logsumexp(comp, axis=1, keepdims=True)
        resp = np.exp(comp)
        pull = (self.means[None, :, :] - pts[:, None, :]) / self.variances[None, :, None]
        return np.einsum("nj,njd->nd", resp, pull)

    def moments(self) -> ExactMoments:
        mean = self.weights @ self.means
        second = self.weights @ (self.means**2 + self.variances[:, None])
        w, mu, var = self.weights, self.means, self.variances

        def cosine_expectation(omega: np.ndarray, offset: float) -> float:
            omega = np.asarray(omega, dtype=float)
            damp = np.exp(-0.5 * var * float(omega @ omega))
            return float(np.sum(w * damp * np.cos(mu @ omega + offset)))

        return ExactMoments(mean, second, cosine_expectation)

    def as_target(self) -> ScoreTarget:
        return ScoreTarget(
            dimension=self.dimension,
            score=self.score,
            log_density=self.log_density,
            density_normalized=True,
            exact_moments=self.moments(),
        )


def standard_normal_target(dimension: int) -> ScoreTarget:
    """Standard normal in d dimensions as a one-component mixture."""
    mixture = GaussianMixture(
        weights=np.array([1.0]),
        means=np.zeros((1, dimension)),
        variances=np.array([1.0]),
    )
    return mixture.as_target()


def gaussianity_interpolation(mixture: GaussianMixture, lam: float) -> GaussianMixture:
    """Distribution of (1 - lam) x + lam z for x from the mixture, z standard normal.

    Component means scale by (1 - lam) and variances become
    (1 - lam)^2 var + lam^2. lam = 0 reproduces the mixture unchanged and
    lam = 1 collapses every component onto the standard normal.
    """
    lam = float(lam)
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
    mean_range: tuple[float, float] = (-5.0, 5.0),
    variance_range: tuple[float, float] = (0.3, 1.0),
) -> GaussianMixture:
    """Draw a mixture with flat-Dirichlet weights and uniform means/variances.

    Used as a seeded, reproducible multimodal test bed.
    """
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_components))
    means = rng.uniform(mean_range[0], mean_range[1], size=(n_components, dimension))
    variances = rng.uniform(variance_range[0], variance_range[1], size=n_components)
    return GaussianMixture(weights=weights, means=means, variances=variances)


def _mills_ratio(t: np.ndarray) -> np.ndarray:
    """phi(t) / Phi(t), computed stably via the scaled complementary error function."""
    return _SQRT_2_OVER_PI / erfcx(-t / np.sqrt(2.0))


@dataclass(frozen=True)
class ProbitModel:
    """Bayesian probit regression posterior.

    Binary labels follow P(label = 1 | x) = Phi(x' features_row) with an
    isotropic normal prior N(0, prior_variance I) on the coefficient
    vector x. The posterior density is known only up to its normalizing
    constant.

    Attributes:
        features: (N, d) design matrix.
        labels: (N,) array of 0/1 labels.
        prior_variance: variance of the coefficient prior.
        true_coefficients: optional generating coefficients for simulated data.
    """

    features: np.ndarray
    labels: np.ndarray
    prior_variance: float = 0.1
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
        # +1 / -1 per label: the log-likelihood term of observation i is
        # log Phi(sign_i t_i), so each term is evaluated once, at one sign.
        object.__setattr__(self, "signs", 2.0 * self.labels - 1.0)

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    @property
    def n_data(self) -> int:
        return self.features.shape[0]

    def log_density(self, points: np.ndarray) -> np.ndarray:
        """Unnormalized log-posterior: probit log-likelihood plus normal prior."""
        pts = np.asarray(points, dtype=float)
        loglik = log_ndtr(self.signs * (pts @ self.features.T))
        prior = -0.5 * np.sum(pts * pts, axis=1) / self.prior_variance
        return np.sum(loglik, axis=1) + prior

    @staticmethod
    def _label_coefficients(t: np.ndarray, signs: np.ndarray) -> np.ndarray:
        """d/dt of the per-observation log-likelihood at latent values t."""
        return signs * _mills_ratio(signs * t)

    def score(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        coef = self._label_coefficients(pts @ self.features.T, self.signs)
        return coef @ self.features - pts / self.prior_variance

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
        t = np.einsum("cd,cmd->cm", pts, feats)
        coef = self._label_coefficients(t, self.signs[idx])
        return np.einsum("cm,cmd->cd", coef, feats)

    def as_target(self) -> ScoreTarget:
        return ScoreTarget(
            dimension=self.dimension,
            score=self.score,
            log_density=self.log_density,
            density_normalized=False,
        )


def probit_simulate(
    n_data: int,
    dimension: int,
    seed: int,
    coefficients: np.ndarray | None = None,
    prior_variance: float = 0.1,
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


def read_probit_dataset(path, prior_variance: float = 0.1) -> ProbitModel:
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
