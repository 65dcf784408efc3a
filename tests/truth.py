"""Independent references the package's estimators are checked against.

They live with the tests, not in the package, because only tests call
them:

* ``gaussian_exponential_moment`` with ``GaussianSpec``: E[exp(beta * X)]
  for a normal X in closed form, the factors the Gaussian frontdoor
  formula is a product of;
* ``frontdoor_do_cdf_empirical``: the frontdoor double sum over
  quantile-binned exposure and mediator, from the cohort itself, with no
  Gaussian assumption.

Criterion 6 of ``test_acceptance.py`` checks
``dohazard.frontdoor_do_cdf_gaussian`` against both.

``whole_array_eta`` forms the linear predictor of a whole cohort as one
array, the reference that the standardization's block-by-block sums
(``dohazard.stats._pairwise_sum``) must match bit for bit.

``draw_scm`` joins the blocks of ``dohazard.simulate._scm_blocks``, the
one structural model, into whole columns, so that the tests can check an
arm, or the cohort ``generate`` censors, against the draw itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dohazard.cohort import Dataset
from dohazard.cox import CoxFit, _horizon
from dohazard.errors import InvalidArgumentError, NumericalError
from dohazard.simulate import ScenarioConfig, _scm_blocks


class EmptyStratumError(NumericalError):
    """A conditioning bin contains no subjects."""


@dataclass(frozen=True)
class GaussianSpec:
    """Normal distribution parameters; sd == 0 is a point mass at mean."""

    mean: float
    sd: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.sd)):
            raise InvalidArgumentError("GaussianSpec requires finite mean and sd")
        if self.sd < 0:
            raise InvalidArgumentError(f"GaussianSpec sd must be >= 0, got {self.sd}")


def gaussian_exponential_moment(beta: float, spec: GaussianSpec) -> float:
    """E[exp(beta * X)] for X ~ N(mean, sd^2): exp(beta*mean + sd^2*beta^2/2)."""
    if not math.isfinite(beta):
        raise InvalidArgumentError(f"beta must be finite, got {beta}")
    return math.exp(beta * spec.mean + 0.5 * (spec.sd * beta) ** 2)


def _quantile_edges(values: np.ndarray, bins: int) -> np.ndarray:
    return np.quantile(values, np.linspace(0.0, 1.0, bins + 1))


def _bin_of(edges: np.ndarray, value: float) -> int:
    idx = int(np.searchsorted(edges, value, side="right")) - 1
    return min(max(idx, 0), len(edges) - 2)


def frontdoor_do_cdf_empirical(
    dataset: Dataset,
    fit: CoxFit,
    x_value: float,
    t: float,
    x_bins: int = 50,
    z_bins: int = 50,
) -> float:
    """Nonparametric double sum behind the closed form.

    Quantile-bins x, takes the subjects in the bin containing x_value to
    estimate the mediator law given the intervention (z quantile-binned,
    bin means as representatives), and multiplies H0(t), the binned
    conditional sum of exp(beta_z z), and the cohort-wide average of
    exp(beta_x x').
    """
    if x_bins < 1 or z_bins < 1:
        raise InvalidArgumentError("x_bins and z_bins must be >= 1")
    t = _horizon(t)
    x = dataset.column("x")
    z = dataset.column("z")
    if not (np.min(x) <= x_value <= np.max(x)):
        raise InvalidArgumentError(f"x_value {x_value} is outside the observed exposure range")
    beta_x = fit.coef("x")
    beta_z = fit.coef("z")

    edges = _quantile_edges(x, x_bins)
    bin_idx = _bin_of(edges, x_value)
    lo, hi = edges[bin_idx], edges[bin_idx + 1]
    in_bin = (x >= lo) & (x <= hi) if bin_idx == x_bins - 1 else (x >= lo) & (x < hi)
    if not np.any(in_bin):
        raise EmptyStratumError(f"x bin {bin_idx} [{lo}, {hi}] containing x_value={x_value} is empty")
    z_sel = z[in_bin]

    conditional = 0.0
    z_edges = np.unique(_quantile_edges(z_sel, z_bins))
    n_sel = z_sel.size
    for k in range(len(z_edges) - 1 if len(z_edges) > 1 else 1):
        if len(z_edges) == 1:
            members = z_sel
        else:
            zlo, zhi = z_edges[k], z_edges[k + 1]
            members = z_sel[(z_sel >= zlo) & (z_sel <= zhi)] if k == len(z_edges) - 2 else z_sel[(z_sel >= zlo) & (z_sel < zhi)]
        if members.size == 0:
            continue
        conditional += (members.size / n_sel) * math.exp(beta_z * float(np.mean(members)))

    marginal = float(np.mean(np.exp(beta_x * x)))
    return fit.baseline_cumhaz(t) * conditional * marginal


def draw_scm(config: ScenarioConfig, n: int, seed: int, offset: int = 0, x_forced: float | None = None):
    """One draw of the structural model for n subjects, as the columns
    (x, z, u, failure): the blocks of _scm_blocks for the one arm x_forced
    (None: X drawn), joined, each block's latent hazards inverted to failure
    times by the baseline hazard as generate inverts them. u is None for the
    backdoor DAG; a forced x is broadcast into a column. Raises InvalidArgumentError when n < 1."""
    x, z, u, hazard = zip(*(arm for [arm] in _scm_blocks(config, n, seed, offset, (x_forced,))))
    x = np.concatenate([np.broadcast_to(xb, hb.shape) for xb, hb in zip(x, hazard)])
    failure = np.concatenate([config.baseline_hazard.invert(hb) for hb in hazard])
    return x, np.concatenate(z), None if u[0] is None else np.concatenate(u), failure


def whole_array_eta(dataset: Dataset, names, beta) -> np.ndarray:
    """beta[0] * x_0 + beta[1] * x_1 + ... over every row of the named
    columns, added column by column (zeros when no column is named)."""
    if not names:
        return np.zeros(dataset.n)
    eta = dataset.column(names[0]) * beta[0]
    for name, b in zip(names[1:], beta[1:]):
        eta += dataset.column(name) * b
    return eta
