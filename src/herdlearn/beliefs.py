"""Conditional distributions of the private log-likelihood ratio.

Each agent's signal is summarized by its log-likelihood ratio (LLR) for the
good versus the bad payoff state, computed as if the source were informative.
This module holds the three conditional laws of that LLR -- informative/good,
informative/bad, and uninformative -- with numerically stable tail evaluation
and exact sampling.  Everything downstream (agent decisions, the outside
observer, tail classification, consensus analysis) is expressed in terms of
these three CDFs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "WorldState",
    "sample_world",
    "NormalCdf",
    "MixtureCdf",
    "GaussianFamilyParams",
    "LlrModel",
    "make_gaussian_model",
    "make_mixture_model",
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
class WorldState:
    """The latent pair drawn once at time zero and fixed thereafter.

    omega: 1 if the source is informative, 0 if it is pure noise.
    theta: the payoff state, "g" or "b".
    """

    omega: int
    theta: str

    def __post_init__(self) -> None:
        if self.omega not in (0, 1):
            raise InvalidParameterError(f"omega must be 0 or 1, got {self.omega!r}")
        if self.theta not in ACTIONS:
            raise InvalidParameterError(f"theta must be 'g' or 'b', got {self.theta!r}")


def sample_world(
    gamma: float,
    rng: np.random.Generator,
    omega: int | None = None,
    theta: str | None = None,
) -> WorldState:
    """Draw the latent world: theta uniform, omega informative w.p. gamma.

    Always consumes exactly two uniforms from ``rng``, even when a
    coordinate is fixed by the caller, so that streams stay aligned across
    experiment configurations that differ only in the regime selection.
    """
    if not 0.0 < gamma < 1.0:
        raise InvalidParameterError(f"gamma must lie in (0, 1), got {gamma}")
    u_omega, u_theta = rng.random(2)
    if omega is None:
        omega = 1 if u_omega < gamma else 0
    if theta is None:
        theta = GOOD if u_theta < 0.5 else BAD
    return WorldState(omega=omega, theta=theta)


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

    def __post_init__(self) -> None:
        if not self.sd > 0:
            raise InvalidParameterError(f"sd must be positive, got {self.sd}")

    def _z(self, x: ArrayLike) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mean) / self.sd

    def cdf(self, x: ArrayLike) -> ArrayLike:
        return np.exp(log_ndtr(self._z(x)))

    def log_cdf(self, x: ArrayLike) -> ArrayLike:
        return log_ndtr(self._z(x))

    def log_sf(self, x: ArrayLike) -> ArrayLike:
        return log_ndtr(-self._z(x))

    def log_side(self, x: ArrayLike, sign: ArrayLike) -> ArrayLike:
        """``log_sf(x)`` where ``sign`` is -1, ``log_cdf(x)`` where it is +1.

        One tail per element: the standardized argument is multiplied by
        ``sign``, which is exact, so each element equals the matching
        ``log_sf``/``log_cdf`` value bit for bit, and floats and arrays
        take the same path.
        """
        return log_ndtr((x - self.mean) / self.sd * sign)

    def log_pdf(self, x: ArrayLike) -> ArrayLike:
        z = self._z(x)
        return -0.5 * z * z - math.log(self.sd) - 0.5 * math.log(2.0 * math.pi)

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

    def __post_init__(self) -> None:
        if not 0.0 < self.weight_a < 1.0:
            raise InvalidParameterError(
                f"mixture weight must lie in (0, 1), got {self.weight_a}"
            )

    @property
    def _log_wa(self) -> float:
        return math.log(self.weight_a)

    @property
    def _log_wb(self) -> float:
        return math.log1p(-self.weight_a)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        return self.weight_a * self.component_a.cdf(x) + (
            1.0 - self.weight_a
        ) * self.component_b.cdf(x)

    def log_cdf(self, x: ArrayLike) -> ArrayLike:
        return np.logaddexp(
            self._log_wa + self.component_a.log_cdf(x),
            self._log_wb + self.component_b.log_cdf(x),
        )

    def log_sf(self, x: ArrayLike) -> ArrayLike:
        return np.logaddexp(
            self._log_wa + self.component_a.log_sf(x),
            self._log_wb + self.component_b.log_sf(x),
        )

    def log_side(self, x: ArrayLike, sign: ArrayLike) -> ArrayLike:
        """``log_sf(x)`` where ``sign`` is -1, ``log_cdf(x)`` where it is +1."""
        return np.logaddexp(
            self._log_wa + self.component_a.log_side(x, sign),
            self._log_wb + self.component_b.log_side(x, sign),
        )

    def log_pdf(self, x: ArrayLike) -> ArrayLike:
        return np.logaddexp(
            self._log_wa + self.component_a.log_pdf(x),
            self._log_wb + self.component_b.log_pdf(x),
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


@dataclass(frozen=True)
class GaussianFamilyParams:
    """Raw-signal parameters of the Gaussian family.

    The informative source emits Normal(+1, sigma^2) signals in the good
    state and Normal(-1, sigma^2) in the bad state; the uninformative
    source emits Normal(m0, tau^2) regardless of the state.
    """

    sigma: float
    tau: float
    m0: float = 0.0

    def __post_init__(self) -> None:
        for name in ("sigma", "tau", "m0"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(
                    f"{name} must be finite, got {getattr(self, name)}"
                )
        if not self.sigma > 0:
            raise InvalidParameterError(f"sigma must be positive, got {self.sigma}")
        if not self.tau > 0:
            raise InvalidParameterError(f"tau must be positive, got {self.tau}")
        # An uninformative law exactly equal to one of the informative laws
        # would let pure noise perfectly mimic the source; excluded.
        if abs(self.tau - self.sigma) < 1e-12 and (
            abs(self.m0 - 1.0) < 1e-12 or abs(self.m0 + 1.0) < 1e-12
        ):
            raise DistinctnessError(
                "uninformative signal law coincides with an informative one "
                f"(sigma={self.sigma}, tau={self.tau}, m0={self.m0})"
            )
        # sigma^2 can under- or overflow even for finite sigma.
        laws = self.llr_laws() if self.sigma * self.sigma > 0 else (math.inf,) * 4
        if not (all(map(math.isfinite, laws)) and laws[1] > 0 and laws[3] > 0):
            raise InvalidParameterError(
                f"the LLR laws induced by sigma={self.sigma}, tau={self.tau}, "
                f"m0={self.m0} must be finite with positive sd in double "
                f"precision; got mean, sd {laws[0]}, {laws[1]} (informative) "
                f"and {laws[2]}, {laws[3]} (noise)"
            )

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
class LlrModel:
    """The triple of conditional CDFs of the private LLR.

    ``cdf_g``/``cdf_b`` are the laws given an informative source and a
    good/bad state; ``cdf_0`` is the law given an uninformative source.
    Instances are immutable and safe to share across parallel workers;
    random streams are never stored on the model.

    ``jump_decreasing`` records a certified analytic property of the
    informative pair -- that the one-step public-LLR jump after a G action
    is non-increasing in the public LLR -- which the consensus module
    requires before issuing convergence certificates.  Both built-in
    factories set it (it holds for any Gaussian informative pair because
    the inverse Mills ratio is strictly decreasing); leave it False for
    hand-built models unless you can prove it.
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

    def _law(self, world: WorldState) -> Cdf:
        if world.omega == 0:
            return self.cdf_0
        return self.cdf_g if world.theta == GOOD else self.cdf_b

    def sample(
        self, world: WorldState, rng: np.random.Generator, size: int | None = None
    ) -> ArrayLike:
        """Draw private LLRs under the given world, i.i.d. across draws."""
        return self._law(world).sample(rng, size)

    def sample_chunks(
        self, world: WorldState, rng: np.random.Generator, horizon: int, chunk: int
    ) -> Iterator[np.ndarray]:
        """The draws of ``sample(world, rng, horizon)`` in pieces of ``chunk``,
        resumable while ``rng`` serves other trajectories in between."""
        return self._law(world).sample_chunks(rng, horizon, chunk)


def make_gaussian_model(params: GaussianFamilyParams) -> LlrModel:
    """Build the LLR model induced by Gaussian raw signals (see
    ``GaussianFamilyParams.llr_laws``)."""
    mean_info, sd_info, mean_noise, sd_noise = params.llr_laws()
    return LlrModel(
        cdf_g=NormalCdf(mean_info, sd_info),
        cdf_b=NormalCdf(-mean_info, sd_info),
        cdf_0=NormalCdf(mean_noise, sd_noise),
        jump_decreasing=True,
    )


def make_mixture_model(base: LlrModel, alpha: float) -> LlrModel:
    """Replace the uninformative law by alpha*F_g + (1-alpha)*F_b.

    The informative pair is kept; the resulting noise law is the one a
    source would produce if it ignored the state but drew from the
    informative laws with fixed weights.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if not isinstance(base.cdf_g, NormalCdf) or not isinstance(base.cdf_b, NormalCdf):
        raise InvalidParameterError("mixture base must have normal informative laws")
    return LlrModel(
        cdf_g=base.cdf_g,
        cdf_b=base.cdf_b,
        cdf_0=MixtureCdf(alpha, base.cdf_g, base.cdf_b),
        jump_decreasing=base.jump_decreasing,
    )
