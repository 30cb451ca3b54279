import math
from dataclasses import replace

import numpy as np
import pytest

from zndevans.znd import (
    GasWaveConfig,
    UpstreamState,
    build_wave,
    default_config,
    nonreactive_config,
    sonic_heat_release,
    x_of_y,
)


def log_pair(f, df):
    """The evaluator of f that newton_root and continue_roots take: the value
    and its exact log-derivative df/f, infinite at a zero of f."""

    def evaluator(z):
        v = f(z)
        return v, (df(z) / v if v != 0 else complex(math.inf))

    return evaluator


@pytest.fixture(scope="session")
def wave():
    """Default overdriven reactive wave."""
    return build_wave(default_config())


@pytest.fixture(scope="session")
def shock():
    """Gas shock without heat release (q = 0): constant gas state, passive reactant."""
    return build_wave(nonreactive_config())


def random_overdriven_config(rng: np.random.Generator) -> GasWaveConfig:
    """Sample an admissible overdriven configuration.

    Strategy: fix the upstream thermodynamic state, draw the Gruneisen
    coefficient and shock Mach number, then place q a safe fraction below
    the sonic value.  The draws run Gamma, Mach number, q fraction, K, EA.
    """
    Gamma = rng.uniform(0.15, 0.6)
    e_plus = 1.0
    c_plus = np.sqrt(Gamma * (Gamma + 1.0) * e_plus)
    mach = rng.uniform(2.5, 6.0)
    upstream = UpstreamState(rho=1.0, u=-mach * c_plus, e=e_plus)
    probe = GasWaveConfig(Gamma=Gamma, q=0.0, EA=0.0, K=1.0, upstream=upstream)
    q = rng.uniform(0.2, 0.7) * sonic_heat_release(probe)
    K = float(rng.uniform(0.5, 4.0))
    EA = float(rng.uniform(1.0, 8.0))
    return GasWaveConfig(Gamma=Gamma, q=q, EA=EA, K=K, upstream=upstream)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


# seed of the random_waves set; the acceptance suite offsets it for its other draws
RNG_SEED = 318979


@pytest.fixture(scope="session")
def random_waves():
    """Five random overdriven waves drawn with :func:`random_overdriven_config`."""
    rng = np.random.default_rng(RNG_SEED)
    return [build_wave(random_overdriven_config(rng)) for _ in range(5)]


def lee_stewart_config(gamma: float, q: float, E: float, f: float) -> GasWaveConfig:
    """Lee & Stewart's case (gamma, q, E, f) with rho0 = p0 = 1, in their units.

    Exact mapping onto the one-step Arrhenius model, whose temperature is e:
    Gamma = gamma - 1, EA = E gamma / (gamma - 1) (so the rate factor
    exp(-EA / (gamma e)) is exp(-E rho / p)), the inert upstream state at
    rest moving in at sqrt(f) D_CJ, and K rescaled so the half-reaction
    length -x(-ln 2 / K) is 1 (lengths scale exactly as 1/K).
    """
    Gamma = gamma - 1.0
    a = (gamma * gamma - 1.0) * q / 2.0
    D_CJ = math.sqrt(gamma + a) + math.sqrt(a)
    unit = GasWaveConfig(
        Gamma=Gamma, q=q, EA=E * gamma / Gamma, K=1.0,
        upstream=UpstreamState(rho=1.0, u=-math.sqrt(f) * D_CJ, e=1.0 / Gamma),
    )
    half_length = -float(x_of_y(build_wave(unit), [0.0, -math.log(2.0)])[1])
    return replace(unit, K=half_length)
