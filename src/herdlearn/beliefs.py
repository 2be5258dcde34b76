"""Conditional distributions of the private log-likelihood ratio.

Each agent's signal is summarized by its log-likelihood ratio (LLR) for the
good versus the bad payoff state, computed as if the source were informative.
This module holds the three conditional laws of that LLR -- informative/good,
informative/bad, and uninformative -- with numerically stable tail evaluation
and exact sampling.  Everything downstream (agent decisions, the outside
observer, tail classification, consensus analysis) is expressed in terms of
these three CDFs.

A model is specified by a ``GaussianSpec`` or a ``MixtureSpec``, which
validate their parameters when built; ``build_model`` turns a spec into the
three laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterator, Union

import numpy as np
from scipy.special import log_ndtr

__all__ = [
    "GOOD",
    "BAD",
    "ACTIONS",
    "REGIMES",
    "InvalidParameterError",
    "DistinctnessError",
    "NormalCdf",
    "MixtureCdf",
    "GaussianSpec",
    "MixtureSpec",
    "LlrModel",
    "build_model",
]

GOOD = "g"
BAD = "b"
ACTIONS = (GOOD, BAD)

# Regime keys for selecting one of the three conditional CDFs.
REGIMES = ("g", "b", "0")

ArrayLike = Union[float, np.ndarray]


class InvalidParameterError(ValueError):
    """A parameter is outside its admissible range."""


class DistinctnessError(InvalidParameterError):
    """The uninformative law exactly replicates an informative one."""


@dataclass(frozen=True)
class NormalCdf:
    """Normal distribution exposing stable log-tail evaluation.

    ``log_cdf``/``log_sf`` stay accurate far beyond the range where the
    plain CDF underflows (log-probabilities down to about -1e6 carry ~13
    significant digits).  Every method maps a float to a numpy float and
    an array elementwise.
    """

    mean: float
    sd: float

    def log_cdf(self, x: ArrayLike) -> ArrayLike:
        return self.log_side(x, 1.0)

    def log_sf(self, x: ArrayLike) -> ArrayLike:
        return self.log_side(x, -1.0)

    def log_side(self, x: ArrayLike, sign: ArrayLike) -> ArrayLike:
        """``log_sf(x)`` where ``sign`` is -1, ``log_cdf(x)`` where it is +1.

        One tail per element: the standardized argument is multiplied by
        ``sign``, which is exact, so ``log_cdf`` and ``log_sf`` are this
        method at a fixed sign, and floats and arrays take the same path.
        """
        return log_ndtr((x - self.mean) / self.sd * sign)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> ArrayLike:
        if size is None:
            return float(rng.normal(self.mean, self.sd))
        return rng.normal(self.mean, self.sd, size)

    def sample_chunks(
        self, rng: np.random.Generator, horizon: int, chunk: int
    ) -> Iterator[np.ndarray]:
        """Yield ``sample(rng, horizon)`` in consecutive pieces of ``chunk``
        draws (the last may be shorter).

        ``rng`` may serve other streams between pieces: the generator keeps
        a cursor, the bit generator's state after its last piece, and
        resumes from it, so the pieces join up bit for bit.  With
        ``horizon <= chunk`` there is one piece and no cursor.  A suspended
        generator holds its cursor only, never a piece it has yielded.
        """
        bits = rng.bit_generator
        cursor = [None]

        def draw(start: int) -> np.ndarray:
            if start:
                bits.state = cursor[0]
            piece = self.sample(rng, min(chunk, horizon - start))
            if start + chunk < horizon:
                cursor[0] = bits.state
            return piece

        for start in range(0, horizon, chunk):
            yield draw(start)


@dataclass(frozen=True)
class MixtureCdf:
    """Two-component mixture with log-domain tail evaluation.

    Sampling draws a fresh component for every value (one uniform plus one
    component draw each); reusing a component across draws would correlate
    successive values and silently change the law of an i.i.d. sequence.
    """

    weight_a: float
    component_a: NormalCdf
    component_b: NormalCdf

    @property
    def _log_wa(self) -> float:
        return math.log(self.weight_a)

    @property
    def _log_wb(self) -> float:
        return math.log1p(-self.weight_a)

    def log_cdf(self, x: ArrayLike) -> ArrayLike:
        return self.log_side(x, 1.0)

    def log_sf(self, x: ArrayLike) -> ArrayLike:
        return self.log_side(x, -1.0)

    def log_side(self, x: ArrayLike, sign: ArrayLike) -> ArrayLike:
        """``log_sf(x)`` where ``sign`` is -1, ``log_cdf(x)`` where it is +1."""
        return np.logaddexp(
            self._log_wa + self.component_a.log_side(x, sign),
            self._log_wb + self.component_b.log_side(x, sign),
        )

    def sample(self, rng: np.random.Generator, size: int | None = None) -> ArrayLike:
        n = 1 if size is None else size
        out = self._normals(rng, rng.random(n) < self.weight_a)
        return float(out[0]) if size is None else out

    def _normals(self, rng: np.random.Generator, pick_a: np.ndarray) -> np.ndarray:
        means = np.where(pick_a, self.component_a.mean, self.component_b.mean)
        sds = np.where(pick_a, self.component_a.sd, self.component_b.sd)
        return rng.normal(means, sds)

    def sample_chunks(
        self, rng: np.random.Generator, horizon: int, chunk: int
    ) -> Iterator[np.ndarray]:
        """Yield ``sample(rng, horizon)`` in consecutive pieces of ``chunk``
        draws (the last may be shorter).

        That stream holds the component picks of all ``horizon`` draws (one
        uniform each), then their normals, so the generator keeps two
        cursors where ``NormalCdf.sample_chunks`` keeps one: the picks
        resume where the last piece's picks ended, and the normals start
        where the horizon's picks end, reached by skipping one raw draw per
        float64 uniform.
        """
        bits = rng.bit_generator
        picks = bits.state
        bits.random_raw(horizon, output=False)
        cursors = [picks, bits.state]  # picks, normals

        def draw(start: int) -> np.ndarray:
            bits.state = cursors[0]
            pick_a = rng.random(min(chunk, horizon - start)) < self.weight_a
            cursors[0] = bits.state
            bits.state = cursors[1]
            piece = self._normals(rng, pick_a)
            cursors[1] = bits.state
            return piece

        for start in range(0, horizon, chunk):
            yield draw(start)


Cdf = Union[NormalCdf, MixtureCdf]


def _require(spec, finite: tuple, positive: tuple) -> None:
    """The named fields of ``spec`` must be finite, and those in ``positive``
    positive."""
    for name in finite:
        if not math.isfinite(getattr(spec, name)):
            raise InvalidParameterError(
                f"{name} must be finite, got {getattr(spec, name)}"
            )
    for name in positive:
        if not getattr(spec, name) > 0:
            raise InvalidParameterError(
                f"{name} must be positive, got {getattr(spec, name)}"
            )


def _require_llr_laws(spec, laws: tuple) -> None:
    """The (mean, sd) pairs of ``spec.llr_laws()`` must be finite with
    positive sds and a positive informative mean.

    sigma^2 can under- or overflow even for finite sigma; an overflow takes
    the informative mean to 0, where F_g and F_b coincide.
    """
    if all(map(math.isfinite, laws)) and laws[0] > 0 and min(laws[1::2]) > 0:
        return
    params = ", ".join(f"{f.name}={getattr(spec, f.name)}" for f in fields(spec))
    got = " and ".join(
        f"{mean}, {sd} ({label})"
        for label, mean, sd in zip(("informative", "noise"), laws[::2], laws[1::2])
    )
    raise InvalidParameterError(
        f"the LLR laws induced by {params} must be finite with positive sd in "
        f"double precision; got mean, sd {got}"
    )


@dataclass(frozen=True)
class GaussianSpec:
    """Gaussian raw signals, validated on construction.

    The informative source emits Normal(+1, sigma^2) signals in the good
    state and Normal(-1, sigma^2) in the bad state; the uninformative
    source emits Normal(m0, tau^2) regardless of the state.
    """

    sigma: float
    tau: float
    m0: float = 0.0

    kind = "gaussian"

    def __post_init__(self) -> None:
        _require(self, finite=("sigma", "tau", "m0"), positive=("sigma", "tau"))
        # An uninformative law exactly equal to one of the informative laws
        # would let pure noise perfectly mimic the source; excluded.
        if abs(self.tau - self.sigma) < 1e-12 and (
            abs(self.m0 - 1.0) < 1e-12 or abs(self.m0 + 1.0) < 1e-12
        ):
            raise DistinctnessError(
                "uninformative signal law coincides with an informative one "
                f"(sigma={self.sigma}, tau={self.tau}, m0={self.m0})"
            )
        laws = self.llr_laws() if self.sigma * self.sigma > 0 else (math.inf,) * 4
        _require_llr_laws(self, laws)

    def llr_laws(self) -> tuple:
        """(mean_info, sd_info, mean_noise, sd_noise) of the induced LLR laws.

        A raw signal s maps to the LLR 2*s/sigma^2, so the three signal laws
        push forward to
            informative/good:  Normal(+2/sigma^2, 4/sigma^2)
            informative/bad:   Normal(-2/sigma^2, 4/sigma^2)
            uninformative:     Normal(2*m0/sigma^2, 4*tau^2/sigma^4).
        """
        s2 = self.sigma * self.sigma
        return 2.0 / s2, 2.0 / self.sigma, 2.0 * self.m0 / s2, 2.0 * self.tau / s2


@dataclass(frozen=True)
class MixtureSpec:
    """Noise law alpha*F_g + (1-alpha)*F_b over the informative pair of a
    ``GaussianSpec`` with the same sigma, validated on construction.

    This is the law of a source that ignores the state but draws from the
    informative laws with fixed weights.
    """

    sigma: float
    alpha: float

    kind = "mixture"

    def __post_init__(self) -> None:
        _require(self, finite=("sigma",), positive=("sigma",))
        if not 0.0 < self.alpha < 1.0:
            raise InvalidParameterError(f"alpha must lie in (0, 1), got {self.alpha}")
        laws = self.llr_laws() if self.sigma * self.sigma > 0 else (math.inf,) * 2
        _require_llr_laws(self, laws)

    def llr_laws(self) -> tuple:
        """(mean_info, sd_info), as in ``GaussianSpec.llr_laws``."""
        return 2.0 / (self.sigma * self.sigma), 2.0 / self.sigma


ModelSpec = Union[GaussianSpec, MixtureSpec]


@dataclass(frozen=True)
class LlrModel:
    """The triple of conditional CDFs of the private LLR.

    ``cdf_g``/``cdf_b`` are the laws given an informative source and a
    good/bad state; ``cdf_0`` is the law given an uninformative source.
    Instances are immutable and safe to share across parallel workers;
    random streams are never stored on the model.

    ``jump_decreasing`` records a certified analytic property of the
    informative pair -- that the one-step public-LLR jump after a G action
    is non-increasing in the public LLR -- which the consensus module
    requires before issuing convergence certificates.  ``build_model`` sets
    it (it holds for any Gaussian informative pair because the inverse Mills
    ratio is strictly decreasing); leave it False for hand-built models
    unless you can prove it.
    """

    cdf_g: Cdf
    cdf_b: Cdf
    cdf_0: Cdf
    jump_decreasing: bool = False

    def cdf_for(self, regime: str) -> Cdf:
        if regime == "g":
            return self.cdf_g
        if regime == "b":
            return self.cdf_b
        if regime == "0":
            return self.cdf_0
        raise InvalidParameterError(f"regime must be one of {REGIMES}, got {regime!r}")

    def log_tail(self, regime: str, side: str, x: ArrayLike) -> ArrayLike:
        """log F(-x) for side "left", log(1 - F(x)) for side "right"."""
        cdf = self.cdf_for(regime)
        if side == "left":
            return cdf.log_cdf(np.negative(x))
        if side == "right":
            return cdf.log_sf(x)
        raise InvalidParameterError(f"side must be 'left' or 'right', got {side!r}")

    def law(self, omega: int, theta: str) -> Cdf:
        """The private LLR's law in the world (omega, theta)."""
        if omega == 0:
            return self.cdf_0
        return self.cdf_g if theta == GOOD else self.cdf_b

    def sample(
        self, omega: int, theta: str, rng: np.random.Generator, size: int | None = None
    ) -> ArrayLike:
        """Draw private LLRs in the world (omega, theta), i.i.d. across draws."""
        return self.law(omega, theta).sample(rng, size)

    def sample_chunks(
        self, omega: int, theta: str, rng: np.random.Generator, horizon: int, chunk: int
    ) -> Iterator[np.ndarray]:
        """The draws of ``sample(omega, theta, rng, horizon)`` in pieces of
        ``chunk``, resumable while ``rng`` serves other trajectories in
        between."""
        return self.law(omega, theta).sample_chunks(rng, horizon, chunk)


def build_model(spec: ModelSpec) -> LlrModel:
    """The LLR model a spec induces: the Normal informative pair of
    ``llr_laws`` and the spec's noise law."""
    laws = spec.llr_laws()
    cdf_g = NormalCdf(laws[0], laws[1])
    cdf_b = NormalCdf(-laws[0], laws[1])
    if isinstance(spec, MixtureSpec):
        cdf_0 = MixtureCdf(spec.alpha, cdf_g, cdf_b)
    else:
        cdf_0 = NormalCdf(laws[2], laws[3])
    return LlrModel(cdf_g, cdf_b, cdf_0, jump_decreasing=True)
