"""Ideal-gas reactive Euler model and the steady detonation profile.

Convention: steady frame (front speed 0), detonation running to the right,
so the gas moves left through the front: ``u < 0`` on both sides and the
mass flux ``m = -rho*u > 0``.  The unburned state sits ahead (x > 0); the
reaction runs only behind the Neumann shock.

The reaction progress coordinate ``y <= 0`` is defined by
``dx/dy = m / (rho * phi(T))``; in it the reactant fraction is exactly
``Y(y) = exp(K*y)`` and the gas state follows from the ideal-gas
Rankine-Hugoniot relations in closed form (a quadratic in u), so profile
evaluation at arbitrary y needs no ODE solve.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    ChapmanJouguetError,
    ConfigError,
    InvalidWaveError,
    QuadratureError,
)

_EPS_CJ = 1e-10  # sonic-rejection threshold on the discriminant
Y_AT_M_Y = 1e-5  # Y at the fixed depth SteadyWave.M_y
# _gl_integral: 20-point Gauss-Legendre panels, doubled until two successive
# estimates agree to _QUAD_REL (a fixed panel count is not enough: at EA = 40
# four panels are off by 5e-10 where eight are exact to rounding)
_GL_NODES, _GL_WEIGHTS = leggauss(20)
_QUAD_REL = 1e-12
_QUAD_MAX_PANELS = 1024


@dataclass(frozen=True)
class UpstreamState:
    rho: float
    u: float
    e: float


@dataclass(frozen=True)
class GasWaveConfig:
    """Physical parameters of one detonation problem.

    Gamma    Gruneisen coefficient (p = Gamma*rho*e), gamma = Gamma + 1
    q        heat release per unit mass of the unburned gas, all reactant (Y = 1)
    EA       activation energy: the rate factor is exp(-EA/((Gamma+1)*T)), T = e
    K        reaction rate constant (> 0, single species)
    upstream unburned state (rho, u, e) ahead of the shock, u < 0

    The upstream gas is inert, and the whole reaction zone behind the shock
    lies on the Arrhenius branch: no ignition temperature switches the rate
    off anywhere on the profile.

    No field sets the truncation depth: each solve picks it from its
    tolerance (:func:`zndevans.spectral.make_frame`).
    """

    Gamma: float
    q: float
    EA: float
    K: float
    upstream: UpstreamState

    def __post_init__(self):
        _validate_config(self)

    def digest(self) -> str:
        """Stable content hash of the configuration."""
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)  # True is an int


def _validate_config(cfg: GasWaveConfig) -> None:
    def positive(name, value):
        if not (_is_number(value) and math.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be a positive finite number, got {value!r}")

    def nonnegative(name, value):
        if not (_is_number(value) and math.isfinite(value) and value >= 0):
            raise ConfigError(f"{name} must be a nonnegative finite number, got {value!r}")

    positive("Gamma", cfg.Gamma)
    positive("K", cfg.K)
    positive("upstream.rho", cfg.upstream.rho)
    positive("upstream.e", cfg.upstream.e)
    nonnegative("q", cfg.q)
    nonnegative("EA", cfg.EA)
    if not (_is_number(cfg.upstream.u) and -math.inf < cfg.upstream.u < 0):
        raise ConfigError(f"upstream.u must be finite and negative (steady frame), "
                          f"got {cfg.upstream.u!r}")


def _config_number(value, name: str) -> float:
    try:
        if _is_number(value):
            return float(value)  # a JSON integer loads as a float, as digest() expects
    except OverflowError:
        pass
    raise ConfigError(f"config field '{name}' must be a number, got {value!r}")


def config_from_json(text: str) -> GasWaveConfig:
    """Parse a configuration document (schema: config_to_json; other keys are ignored).

    A missing field, or a value that is not a JSON number, raises
    :class:`ConfigError` naming the field.  A legacy unburned fraction ``Y0``
    in [0, 1] folds into q, q <- q Y0: the same wave, with Y rescaled by 1/Y0.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    up = raw.get("upstream")
    if not isinstance(up, dict):
        raise ConfigError("config needs an 'upstream' object with rho, u, e")
    try:
        upstream = UpstreamState(
            **{k: _config_number(up[k], f"upstream.{k}") for k in ("rho", "u", "e")})
    except KeyError as exc:
        raise ConfigError(f"upstream is missing field {exc}") from exc
    kwargs = {}
    for name in ("Gamma", "q", "EA", "K"):
        if name not in raw:
            raise ConfigError(f"config is missing field '{name}'")
        kwargs[name] = _config_number(raw[name], name)
    if "Y0" in raw:
        Y0 = _config_number(raw["Y0"], "Y0")
        if not 0.0 <= Y0 <= 1.0:
            raise ConfigError(f"Y0 must lie in [0, 1], got {Y0!r}")
        kwargs["q"] *= Y0
    return GasWaveConfig(upstream=upstream, **kwargs)


def config_to_json(cfg: GasWaveConfig) -> str:
    return json.dumps(asdict(cfg), indent=2, sort_keys=True)


class _PrimitiveFields(NamedTuple):
    rho: float
    u: float
    e: float
    Y: float


class StateW(_PrimitiveFields):
    """Primitive state (rho, u, e, Y); Y is the reactant mass fraction.

    An immutable tuple: ``rho, u, e, Y = state`` unpacks it.  Construction
    rejects rho <= 0 and e <= 0 (and NaN in either).  :func:`profile_at`
    builds its states with ``tuple.__new__`` and skips the check: it cannot
    fire there, as :class:`SteadyWave`'s invariant gives rho, e > 0 at
    every y <= 0, and it was about half of each profile evaluation.
    """

    __slots__ = ()

    def __new__(cls, rho: float, u: float, e: float, Y: float):
        if not (rho > 0 and e > 0):
            raise InvalidWaveError(f"state needs rho, e > 0: rho={rho}, e={e}")
        return tuple.__new__(cls, (rho, u, e, Y))

    @classmethod
    def _make(cls, iterable) -> "StateW":
        # _replace builds through _make; validate there too
        return cls(*iterable)

    def as_vector(self) -> np.ndarray:
        return np.array(self)


def thermo(state: StateW, cfg: GasWaveConfig) -> tuple[float, float, float, float, float]:
    """Ideal-gas pointwise thermodynamics: (p, T, c_s, p_rho, p_e), with T = e."""
    rho, e, G = state.rho, state.e, cfg.Gamma
    p = G * rho * e
    c_s = math.sqrt(G * (G + 1.0) * e)
    return p, e, c_s, G * e, G * rho


def arrhenius(T: float, cfg: GasWaveConfig) -> float:
    """Rate factor exp(-EA/((Gamma+1)*T))."""
    return math.exp(-cfg.EA / ((cfg.Gamma + 1.0) * T))


def reaction_psi(state: StateW, cfg: GasWaveConfig) -> float:
    """psi = rho * phi(T), the density-weighted rate factor."""
    return state.rho * arrhenius(state.e, cfg)


def fluxes(state: StateW, cfg: GasWaveConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conserved densities F0, fluxes F1, and reaction source R at a state.

    The upstream gas is inert (:class:`GasWaveConfig`), so callers at the
    unburned state discard R.  Its energy and reactant rows satisfy
    R_energy = -q R_Y exactly.
    """
    rho, u, e, Y = state.rho, state.u, state.e, state.Y
    p, _, _, _, _ = thermo(state, cfg)
    Etot = rho * (e + 0.5 * u * u)
    F0 = np.array([rho, rho * u, Etot, rho * Y])
    F1 = np.array([rho * u, rho * u * u + p, (Etot + p) * u, rho * u * Y])
    rate = cfg.K * Y * reaction_psi(state, cfg)
    R = np.array([0.0, 0.0, cfg.q * rate, -rate])
    return F0, F1, R


@dataclass(frozen=True)
class SteadyWave:
    """Steady strong-detonation wave: front-frame constants plus end states.

    m, rh_b, rh_c are the three Rankine-Hugoniot invariants of the reaction
    zone; the gas state along the profile is the root u = center + sqrt(disc),
    center = (Gamma+1) rh_b / (Gamma+2), of

        (Gamma+2) u^2 - 2 (Gamma+1) rh_b u + 2 Gamma (rh_c - q Y) = 0.

    discriminant_min is disc at Y = 0, its minimum since q >= 0.  The end
    states are profile states: ``neumann`` at y = 0 (Y = 1) and ``burned``
    at y = -inf (Y = 0).

    Invariant, asserted only by build_wave's check discriminant_min > 0 and
    re-checked nowhere: both roots are negative (negative sum, positive
    product), and for u < 0, |u| < c_s <=> u > center, as c_s^2 =
    (Gamma+1)(rh_b u - u^2).  So every profile state is subsonic with u < 0
    and A1 is invertible there (det f1_V = rho^2 u (u^2 - c_s^2)); u- + c- > 0,
    so Re g_minus < 0 when Re lambda > 0; and the Neumann state is
    compressive: the supersonic upstream state, the other root at Y = 1,
    has u+ < center < u_N.  T = e is smallest at an end state, as e =
    u (rh_b - u) / Gamma is concave in u and u is monotone in Y (q >= 0).
    """

    config: GasWaveConfig
    m: float
    rh_b: float
    rh_c: float
    discriminant_min: float

    @property
    def M_y(self) -> float:
        """Fixed depth ln(1e5)/K, where Y = exp(K y) falls to Y_AT_M_Y = 1e-5.

        Not the depth of a solve: :func:`zndevans.spectral.make_frame`
        picks each solve's own depth from ``tol``.  :func:`profile_table`
        plots down to it, and ``duality_check`` and the CLI's ``--dump-g``
        default to it.
        """
        return math.log(1.0 / Y_AT_M_Y) / self.config.K

    @cached_property
    def neumann(self) -> StateW:
        """The state just behind the shock, :func:`profile_at` y = 0."""
        return profile_at(self, 0.0)

    @cached_property
    def burned(self) -> StateW:
        """The reactant-free end state, :func:`profile_at` y = -inf."""
        return profile_at(self, -math.inf)

    @cached_property
    def jump_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(F0 ahead - F0 at ``neumann``, R at ``neumann``): the parts of
        the boundary jump row lam (F0 ahead - F0 behind) + R that do not
        depend on lambda, read-only arrays."""
        cfg = self.config
        up = cfg.upstream
        F0_plus, _, _ = fluxes(StateW(up.rho, up.u, up.e, 1.0), cfg)
        F0_minus, _, R_minus = fluxes(self.neumann, cfg)
        terms = F0_plus - F0_minus, R_minus
        for a in terms:
            a.flags.writeable = False
        return terms

    @cached_property
    def adjoint_series(self):
        """The Taylor coefficients in Y of the burned-end field that
        :func:`zndevans.spectral.make_frame` starts every solve from, a
        :class:`zndevans.spectral.AdjointSeries`.  Built on first use, so
        that :func:`build_wave` does not pay for it."""
        from .spectral import adjoint_series  # spectral imports this module

        return adjoint_series(self)

    @cached_property
    def acoustic_lag(self) -> float:
        """I, the integral over y <= 0 of sigma (1/(u + c) - 1/(u- + c-)), c
        the sound speed and - the burned end: the outgoing acoustic travel
        time across the reaction zone less that at the burned end's speed.
        The neutral method's factored adjoint changes by about
        exp(Re(lambda) I) between the burned end and the shock.  The
        integrand is O(Y), so the part below K y = -37 (Y < 1e-16) is
        left out.  Settled absolutely below 1, as on nearly constant
        profiles (q = 5e-9) I is rounding.  Built on first use."""
        return _gl_integral(lambda ys: _lag_density(self, ys), -37.0 / self.config.K, 0.0, floor=1.0)

    @cached_property
    def _branch(self) -> tuple:
        """Per-wave constants of the profile quadratic, in the order
        :func:`profile_at` and :func:`profile_deriv` unpack them:
        (K, Gamma, 2 Gamma, Gamma + 2, q, m, rh_b, rh_c, center, center^2)."""
        cfg = self.config
        center = _branch_center(cfg, self.rh_b)
        return (cfg.K, cfg.Gamma, 2.0 * cfg.Gamma, cfg.Gamma + 2.0, cfg.q,
                self.m, self.rh_b, self.rh_c, center, center * center)


def _branch_center(cfg: GasWaveConfig, b: float) -> float:
    return (cfg.Gamma + 1.0) / (cfg.Gamma + 2.0) * b


def _discriminant(cfg: GasWaveConfig, center: float, c: float, Ybar: float) -> float:
    """Square-root argument of the profile quadratic; center = _branch_center(cfg, b)."""
    return center * center + 2.0 * cfg.Gamma * (cfg.q * Ybar - c) / (cfg.Gamma + 2.0)


def sonic_heat_release(cfg: GasWaveConfig) -> float:
    """Largest q for which the configured Neumann shock stays overdriven.

    The discriminant at the burned end is linear and decreasing in q; this
    is its root.  Invariants that overflow raise :class:`InvalidWaveError`,
    as in :func:`build_wave`.
    """
    up = cfg.upstream
    b = up.u + cfg.Gamma * up.e / up.u
    try:
        c0 = 0.5 * up.u ** 2 + (cfg.Gamma + 1.0) * up.e  # rh_c without the q term
    except OverflowError:  # as in build_wave
        c0 = math.inf
    disc0 = _discriminant(cfg, _branch_center(cfg, b), c0, 0.0)  # at q = 0
    if not math.isfinite(disc0):
        raise InvalidWaveError(f"Rankine-Hugoniot invariants overflow: discriminant {disc0}")
    return disc0 * (cfg.Gamma + 2.0) / (2.0 * cfg.Gamma)


def build_wave(config: GasWaveConfig) -> SteadyWave:
    """Solve the Rankine-Hugoniot relations and assemble the steady wave.

    Raises :class:`ChapmanJouguetError` for sonic/underdriven data (the one
    check of the subsonic branch, :class:`SteadyWave`) and :class:`InvalidWaveError`
    for a subsonic upstream or invariants that overflow.
    """
    up = config.upstream
    m = -up.rho * up.u
    b = up.u + config.Gamma * up.e / up.u
    try:
        c = 0.5 * up.u ** 2 + (config.Gamma + 1.0) * up.e + config.q
    except OverflowError:  # float ** raises where * gives inf; the check below refuses it
        c = math.inf

    disc_min = _discriminant(config, _branch_center(config, b), c, 0.0)
    if not math.isfinite(disc_min):
        raise InvalidWaveError(f"Rankine-Hugoniot invariants overflow: discriminant {disc_min}")
    if not math.isfinite(m):
        raise InvalidWaveError(f"Rankine-Hugoniot invariants overflow: mass flux {m}")
    if disc_min <= _EPS_CJ:
        raise ChapmanJouguetError(
            f"discriminant at the burned state is {disc_min:.3e} <= {_EPS_CJ:g}: "
            "Chapman-Jouguet or underdriven; only overdriven waves are supported"
        )

    c_plus = math.sqrt(config.Gamma * (config.Gamma + 1.0) * up.e)
    if not abs(up.u) > c_plus:
        raise InvalidWaveError(
            f"upstream flow must be supersonic: |u+|={abs(up.u):.6g} <= c+={c_plus:.6g}"
        )
    return SteadyWave(config=config, m=m, rh_b=b, rh_c=c, discriminant_min=disc_min)


def profile_at(wave: SteadyWave, y: float) -> StateW:
    """Closed-form profile state at reaction coordinate y <= 0: the subsonic
    root of :class:`SteadyWave`'s quadratic, with rho = -m/u and
    e = u (rh_b - u) / Gamma.  The one evaluation of that root for numbers;
    :func:`sigma` is its array form.  The state skips :class:`StateW`'s
    check (see there); NaN and +inf are refused here by name."""
    if not y <= 0.0:
        raise ValueError(f"profile is defined for y <= 0, got {y!r}")
    K, Gamma, two_Gamma, Gamma_plus_2, q, m, b, c, center, center_sq = wave._branch
    Ybar = math.exp(K * y)
    u = center + math.sqrt(center_sq + two_Gamma * (q * Ybar - c) / Gamma_plus_2)
    return tuple.__new__(StateW, (-m / u, u, (b * u - u * u) / Gamma, Ybar))


def profile_deriv(wave: SteadyWave, y: float) -> tuple[float, float, float, float]:
    """d/dy of the primitive profile (rho, u, e, Y), a 4-tuple, differentiated
    through the quadratic-formula branch of :func:`profile_at` (no finite
    differences), on the same domain y <= 0."""
    if not y <= 0.0:
        raise ValueError(f"profile is defined for y <= 0, got {y!r}")
    K, Gamma, two_Gamma, Gamma_plus_2, q, m, b, c, center, center_sq = wave._branch
    Ybar = math.exp(K * y)
    dY = K * Ybar
    root = math.sqrt(center_sq + two_Gamma * (q * Ybar - c) / Gamma_plus_2)
    u = center + root
    du = Gamma * q / (Gamma_plus_2 * root) * dY
    return m / (u * u) * du, du, (b - 2.0 * u) / Gamma * du, dY


def _gas(wave: SteadyWave, Ybar) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, e, sigma) where Y = Ybar, elementwise: the closed form of
    :func:`profile_at`, and sigma = m/(rho phi) = -u exp(EA/((Gamma+1) e))."""
    cfg = wave.config
    center = _branch_center(cfg, wave.rh_b)
    u = center + np.sqrt(_discriminant(cfg, center, wave.rh_c, Ybar))
    e = (wave.rh_b * u - u * u) / cfg.Gamma
    return u, e, -u * np.exp(cfg.EA / ((cfg.Gamma + 1.0) * e))


def sigma(wave: SteadyWave, y):
    """dx/dy = m / (rho * phi(T)) along the profile; uniformly positive.

    ``y`` may be a number or an array of points y <= 0.  This is the closed
    form of :func:`profile_at` with ``rho = -m/u``, evaluated elementwise; the
    discriminant is positive and u < 0 at every y <= 0 (:class:`SteadyWave`).
    """
    ys = np.asarray(y, dtype=float)
    if not np.all(ys <= 0.0):  # also rejects NaN
        raise ValueError(f"profile is defined for y <= 0, got {y!r}")
    return _gas(wave, np.exp(wave.config.K * ys))[2]


def _lag_density(wave: SteadyWave, ys: np.ndarray) -> np.ndarray:
    """sigma (1/(u + c) - 1/(u- + c-)) at ys, c the sound speed and - the
    burned end: the integrand of :attr:`SteadyWave.acoustic_lag`.  The
    burned end goes through the same operations, so a constant profile
    gives exactly 0."""
    cfg = wave.config
    c2 = cfg.Gamma * (cfg.Gamma + 1.0)
    (u, e, sig), (u_b, e_b, _) = _gas(wave, np.exp(cfg.K * ys)), _gas(wave, 0.0)
    return sig * (1.0 / (u + np.sqrt(c2 * e)) - 1.0 / (u_b + np.sqrt(c2 * e_b)))


def _gl_integral(density, a: float, b: float, floor: float = 0.0) -> float:
    """Integral of ``density`` (of an array of points) from a to b by
    composite 20-point Gauss-Legendre, settled to _QUAD_REL of the larger
    of its size and ``floor``."""
    prev = math.nan
    panels = 1
    while panels <= _QUAD_MAX_PANELS:
        half = 0.5 * (b - a) / panels
        centers = a + half * (2.0 * np.arange(panels) + 1.0)
        nodes = (centers[:, None] + half * _GL_NODES).ravel()
        est = half * float(np.sum(density(nodes).reshape(panels, -1) @ _GL_WEIGHTS))
        if abs(est - prev) <= _QUAD_REL * max(abs(est), floor):
            return est
        prev = est
        panels *= 2
    raise QuadratureError(
        f"quadrature over [{b:.6g}, {a:.6g}] did not settle to "
        f"{_QUAD_REL:g} within {_QUAD_MAX_PANELS} panels"
    )


def x_of_y(wave: SteadyWave, y_grid: Sequence[float]) -> np.ndarray:
    """Cumulative physical coordinate x on a descending y grid, x(0) = 0.

    x diverges as y -> -inf, so the grid must be finite."""
    ys = np.asarray(y_grid, dtype=float)
    if not np.all((ys <= 0.0) & (ys > -math.inf)):  # also rejects NaN
        raise ValueError(f"x(y) is defined for finite y <= 0, got y_grid={y_grid!r}")
    if np.any(np.diff(ys) > 0.0):
        raise ValueError("y_grid must be sorted descending from 0")
    out = np.empty_like(ys)
    prev_y, prev_x = 0.0, 0.0
    for i, y in enumerate(ys):
        if y != prev_y:
            prev_x += _gl_integral(lambda ys: sigma(wave, ys), prev_y, y)
            prev_y = y
        out[i] = prev_x
    return out


def profile_table(wave: SteadyWave, n: int = 200) -> dict[str, np.ndarray]:
    """Profile on a log-spaced y grid down to -M_y; plot-ready columns.

    ``n >= 1`` rows; the first is the Neumann state at y = 0.
    """
    if n < 1:
        raise ValueError(f"number of profile rows must be at least 1, got {n}")
    ys = np.concatenate([[0.0], -np.geomspace(wave.M_y * 1e-4, wave.M_y, n - 1)])
    xs = x_of_y(wave, ys)
    cols = {k: np.empty(n) for k in ("y", "x", "rho", "u", "e", "Y", "p", "T")}
    for i, y in enumerate(ys):
        st = profile_at(wave, y)
        p, T, _, _, _ = thermo(st, wave.config)
        cols["y"][i] = y
        cols["x"][i] = xs[i]
        cols["rho"][i] = st.rho
        cols["u"][i] = st.u
        cols["e"][i] = st.e
        cols["Y"][i] = st.Y
        cols["p"][i] = p
        cols["T"][i] = T
    return cols


def default_config() -> GasWaveConfig:
    """A comfortably overdriven single-species wave used by tests and demos."""
    return GasWaveConfig(
        Gamma=0.2,
        q=5.0,
        EA=10.0,
        K=2.0,
        upstream=UpstreamState(rho=1.0, u=-3.0, e=1.0),
    )


def nonreactive_config() -> GasWaveConfig:
    """Same shock with no heat release (q = 0): its reactant is passive."""
    return replace(default_config(), q=0.0)
