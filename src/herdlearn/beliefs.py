"""Conditional distributions of the private log-likelihood ratio.

Each agent's signal is summarized by its log-likelihood ratio (LLR) for the
good versus the bad payoff state, computed as if the source were informative.
This module holds the three conditional laws of that LLR -- informative/good,
informative/bad, and uninformative -- with numerically stable tail evaluation
and exact sampling.  Everything downstream (agent decisions, the outside
observer, tail classification, consensus analysis) is expressed in terms of
these three CDFs.

A model is specified by a ``GaussianSpec`` or a ``MixtureSpec``, which
validate their parameters when built; ``build_model`` turns a spec into an
``LlrModel``, the only way to a model, which derives the three laws from it.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from dataclasses import dataclass, fields
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from typing import Union

import numpy as np
# Imported here, at set-up, because scipy.special's init imported them and
# the first command would otherwise import them inside its own run.
import numpy.ma
import numpy.random

GOOD = "g"
BAD = "b"
ACTIONS = (GOOD, BAD)


def _load_log_ndtr():
    """scipy's ``log_ndtr`` ufunc, loaded from the extension module
    ``scipy.special._special_ufuncs`` alone.

    Loading that one file runs neither ``scipy``'s nor ``scipy.special``'s
    init, which would cost far more than the rest of the package's import.
    The module is not left in ``sys.modules``, so a later ``import
    scipy.special`` runs its own init unchanged (and gets the same ufunc).
    Where the module, its file or its attribute is missing, as in scipy
    1.10, the package import gives the same function.
    """
    name = "scipy.special._special_ufuncs"
    try:
        module = sys.modules.get(name)  # there if scipy.special came first
        if module is None:
            root = importlib.util.find_spec("scipy").submodule_search_locations[0]
            base = os.path.join(root, "special", "_special_ufuncs")
            paths = [base + s for s in EXTENSION_SUFFIXES if os.path.isfile(base + s)]
            if not paths:
                raise ImportError(f"no extension file for {name}")
            loader = ExtensionFileLoader(name, paths[0])
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(name, loader)
            )
            loader.exec_module(module)
            # CPython files a single-phase extension module under its name.
            sys.modules.pop(name, None)
        return module.log_ndtr
    except (ImportError, OSError, AttributeError):
        from scipy.special import log_ndtr

        return log_ndtr


log_ndtr = _load_log_ndtr()

# Regime keys for selecting one of the three conditional CDFs.
REGIMES = ("g", "b", "0")

ArrayLike = Union[float, np.ndarray]

# Draws per piece of a private-LLR stream (``LlrModel.sample``); the
# simulation engine also steps this many steps per block of draws.
CHUNK_STEPS = 2048

# The most float64 values one numpy array can hold: its size in bytes must
# fit in a signed pointer-sized integer.
MAX_FLOATS = np.iinfo(np.intp).max // 8


class InvalidParameterError(ValueError):
    """A parameter is outside its admissible range."""


def _equal_variance(sigma: float, tau: float) -> bool:
    """Whether tau equals sigma, to within 1e-12 of sigma: at every scale."""
    return abs(tau - sigma) < 1e-12 * sigma


@dataclass(frozen=True)
class NormalCdf:
    """Normal distribution exposing stable log-tail evaluation.

    ``log_cdf``/``log_sf`` stay accurate far beyond the range where the
    plain CDF underflows (log-probabilities down to about -1e6 carry ~13
    significant digits).  Every method maps a float to a numpy float and
    an array elementwise.  ``dynamics.step`` evaluates both tails at -r in
    place on a stack of laws, as ``(r + mean) / sd`` times -1 (``log_cdf``)
    or +1 (``log_sf``): the same bits, because negation is exact.  Overflow
    is ignored: ``log_ndtr`` of +-inf is exact, 0 or -inf.
    """

    mean: float
    sd: float

    @np.errstate(over="ignore")
    def log_cdf(self, x: ArrayLike) -> ArrayLike:
        return log_ndtr((x - self.mean) / self.sd)

    @np.errstate(over="ignore")
    def log_sf(self, x: ArrayLike) -> ArrayLike:
        return log_ndtr((x - self.mean) / self.sd * -1.0)


@dataclass(frozen=True)
class MixtureCdf:
    """Two-component mixture with log-domain tail evaluation.

    A tail is ``log_mix`` of the components' tails.  The noise law of a
    ``MixtureSpec`` model mixes the model's informative pair, so
    ``dynamics.step`` gives it ``log_mix`` of the informative tails it has
    just evaluated.

    Sampling draws a fresh component for every value (one uniform plus one
    component draw each); reusing a component across draws would correlate
    successive values and silently change the law of an i.i.d. sequence.
    """

    weight_a: float
    component_a: NormalCdf
    component_b: NormalCdf

    def log_cdf(self, x: ArrayLike) -> ArrayLike:
        return self.log_mix(self.component_a.log_cdf(x), self.component_b.log_cdf(x))

    def log_sf(self, x: ArrayLike) -> ArrayLike:
        return self.log_mix(self.component_a.log_sf(x), self.component_b.log_sf(x))

    def log_mix(
        self,
        lt_a: ArrayLike,
        lt_b: ArrayLike,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
    ) -> ArrayLike:
        """The mixture's log-probability of an event whose log-probabilities
        under the components are ``lt_a`` and ``lt_b``.

        With ``out`` (and ``scratch``, of the same shape, or a temporary)
        the same ufunc calls run in place, and the result is ``out``.
        """
        lt_a = np.add(lt_a, math.log(self.weight_a), out=out)
        lt_b = np.add(lt_b, math.log1p(-self.weight_a), out=scratch)
        return np.logaddexp(lt_a, lt_b, out=out)


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
    source emits Normal(m0, tau^2) regardless of the state.  Noise equal to
    an informative law (tau within 1e-12 of sigma, m0 within 1e-12 of +-1)
    is an ``InvalidParameterError``.
    """

    sigma: float
    tau: float
    m0: float = 0.0

    kind = "gaussian"

    def __post_init__(self) -> None:
        _require(self, finite=("sigma", "tau", "m0"), positive=("sigma", "tau"))
        # Such noise would mimic the source perfectly.  The informative means
        # are +-1 in raw units at every sigma, so m0's test is absolute.
        if _equal_variance(self.sigma, self.tau) and (
            abs(self.m0 - 1.0) < 1e-12 or abs(self.m0 + 1.0) < 1e-12
        ):
            raise InvalidParameterError(
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
    """The triple of conditional CDFs of the private LLR that a spec induces.

    The spec is the only field; the laws are derived from it when the model
    is built.  ``cdf_g``/``cdf_b``, the laws given an informative source and
    a good/bad state, are the Normal pair N(m, s)/N(-m, s) of
    ``spec.llr_laws()``; ``cdf_0``, the law given an uninformative source,
    is Normal for a ``GaussianSpec`` and the mixture of the very ``cdf_g``
    and ``cdf_b`` objects for a ``MixtureSpec``.  ``normal_stack`` holds the
    means and the sds of the Normal laws among them as columns, one law per
    row, in the order of ``dynamics.step``'s stack of tails.  ``piece_scale``
    holds the mean and sd columns that ``sample`` scales a row's standard
    normals by, one row per law: F_g, F_b, then F_0 (N(0, 1) for a mixture,
    whose rows are mixed where they are drawn).  Instances are immutable and
    safe to share across parallel workers; random streams are never stored
    on the model.
    """

    spec: ModelSpec

    def __post_init__(self) -> None:
        mean, sd, *noise = self.spec.llr_laws()
        normal = [NormalCdf(mean, sd), NormalCdf(-mean, sd)]
        if isinstance(self.spec, MixtureSpec):
            cdf_0 = MixtureCdf(self.spec.alpha, *normal)
        else:
            cdf_0 = NormalCdf(*noise)
            normal.append(cdf_0)
        laws = (*normal, NormalCdf(0.0, 1.0))[:3]  # N(0, 1) for a mixture's F_0
        means = np.array([[law.mean] for law in laws])
        sds = np.array([[law.sd] for law in laws])
        k = len(normal)
        # The derived attributes of a frozen instance, set past its __setattr__.
        self.__dict__.update(
            cdf_g=normal[0], cdf_b=normal[1], cdf_0=cdf_0,
            normal_stack=(means[:k], sds[:k]), piece_scale=(means, sds),
        )

    def cdf_for(self, regime: str) -> Cdf:
        if regime == "g":
            return self.cdf_g
        if regime == "b":
            return self.cdf_b
        if regime == "0":
            return self.cdf_0
        raise InvalidParameterError(f"regime must be one of {REGIMES}, got {regime!r}")

    def sample(self, omega, theta, streams, out: np.ndarray) -> np.ndarray:
        """Fill ``out``, an (n, k) block with k at most CHUNK_STEPS, with the
        next piece of n trajectories' private LLRs, and return it.

        This is the one definition of the stream.  Row i draws from the i-th
        generator that ``streams`` yields, set to its trajectory's stream,
        in the world (omega[i], theta[i]), i.i.d. along the row: k standard
        normals that numpy ufuncs then scale and shift, ``z * sd + mean``:
        two roundings on every build, those of numpy's own ``normal`` where
        the build does not fuse it into one.  A mixture piece first draws
        its k component picks (one uniform each), and its normals take
        their picks' means.  A piece starts where the last one left the
        generator, so the engine resumes a stream by restoring the Philox
        state it saved after the stream's last piece.

        A row costs only its own draws: the rows' scaling is two ufunc calls
        on the whole block, after the last row.  The worlds are read only
        then, except that a mixture model reads a row's omega when
        ``streams`` yields the row.  So a caller may draw each row's world
        from the row's stream just before its piece.
        """
        mix = self.cdf_0
        if isinstance(mix, NormalCdf):
            for gen, row in zip(streams, out):
                gen.standard_normal(out=row)
        else:
            k = out.shape[1]
            for i, (gen, row) in enumerate(zip(streams, out)):
                if omega[i] == 0:
                    pick_a = gen.random(k) < mix.weight_a
                    gen.standard_normal(out=row)
                    row *= self.cdf_g.sd  # the sd of both components
                    row += np.where(pick_a, mix.component_a.mean, mix.component_b.mean)
                else:
                    gen.standard_normal(out=row)
        law = np.where(omega == 0, 2, theta == BAD)
        means, sds = self.piece_scale
        out *= sds[law]
        out += means[law]
        return out


def build_model(spec: ModelSpec) -> LlrModel:
    """The LLR model a spec induces; see ``LlrModel``."""
    return LlrModel(spec)
