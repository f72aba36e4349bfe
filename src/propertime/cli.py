"""Batch scenario front end: ``ptcli <scenario> --config cfg.json``.

Configs are flat JSON objects with a mandatory ``scenario`` key.  Each
scenario declares its keys once in :data:`SCENARIOS`; unknown keys and
values of the wrong type, shape or range are rejected before the scenario
runs.  Output is CSV with ``#``-prefixed metadata lines followed by a
header row and data rows.  Identical configs produce byte-identical data
rows.

Exit codes: 0 success, 2 configuration/schema error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
import tempfile
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__, constants, dynamics, fields, group, kinematics, many, spectral
from .errors import PropertimeError
from .kinematics import NATURAL, SI, UnitSystem

__all__ = ["SCENARIOS", "ScenarioConfig", "ResultTable", "run_config", "main"]


class ConfigError(Exception):
    """Configuration failed schema validation."""


_REQUIRED = object()  # default of a key the config must give
_ZERO3 = [0.0, 0.0, 0.0]

# keys every scenario accepts besides "scenario"
_COMMON = {"units": ({"natural", "si"}, "natural"), "seed": (int, 0, 0), "out": (str, None)}


def _convert(kind, value):
    """``value`` as ``kind``: ``float`` (finite), ``int``, ``str``, a set of allowed
    strings, or the shape tuple of a finite float array (a ``None`` extent takes
    any length).  Raises TypeError, ValueError or OverflowError."""
    if kind in (float, int, str):
        if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
            raise TypeError(f"must be of type {kind.__name__}, got {value!r}")
        value = kind(value)
        if kind is float and not math.isfinite(value):
            raise ValueError(f"must be finite, got {value}")
        return value
    if isinstance(kind, set):
        if not isinstance(value, str) or value not in kind:
            raise ValueError(f"must be one of {sorted(kind)}, got {value!r}")
        return value
    arr = np.asarray(value)
    if arr.dtype.kind not in "if":
        raise TypeError(f"must be an array of numbers, got {value!r}")
    if arr.ndim != len(kind) or any(n not in (None, k) for n, k in zip(kind, arr.shape)):
        raise ValueError(f"must have shape {kind}, got {arr.shape}")
    arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("must be finite")
    return arr


def _typed(data: dict, spec: dict, scenario: str) -> dict:
    """Typed value of every key in ``spec``: given, defaulted or ``None``."""
    missing = sorted(key for key, entry in spec.items() if entry[1] is _REQUIRED and key not in data)
    if missing:
        raise ConfigError(f"missing required key(s) {missing} for {scenario!r}")
    params = {}
    for key, (kind, default, *lower) in spec.items():
        if key not in data:
            params[key] = None if default is None else _convert(kind, default)
            continue
        try:
            value = _convert(kind, data[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"key {key!r} {exc}") from None
        if lower and value < lower[0]:
            raise ConfigError(f"key {key!r} must be at least {lower[0]}, got {value}")
        params[key] = value
    return params


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario request; ``params`` holds typed values."""

    scenario: str
    params: dict
    units: UnitSystem
    seed: int
    out: Optional[str]
    raw: dict

    @classmethod
    def from_mapping(cls, data: dict, units_override: Optional[str] = None) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        scenario = data.get("scenario")
        if not isinstance(scenario, str) or scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown or missing scenario {scenario!r}; expected one of {', '.join(SCENARIOS)}"
            )
        spec = {**SCENARIOS[scenario][1], **_COMMON}
        for key in data:
            if key != "scenario" and key not in spec:
                raise ConfigError(f"unknown key {key!r} for scenario {scenario!r}")
        params = _typed({**data, "units": units_override} if units_override else data, spec, scenario)
        units, seed, out = params.pop("units"), params.pop("seed"), params.pop("out")
        return cls(
            scenario=scenario,
            params=params,
            units=SI if units == "si" else NATURAL,
            seed=seed,
            out=out,
            raw=dict(data),
        )

    @classmethod
    def from_path(cls, path: str, units_override: Optional[str] = None) -> "ScenarioConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_mapping(data, units_override)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


@dataclass
class ResultTable:
    """Rectangular numeric result with config-echo metadata."""

    columns: list
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError("row width does not match columns")
        for column, value in zip(self.columns, values):
            if not math.isfinite(value):  # e.g. a Python float overflow that numpy never saw
                raise ArithmeticError(f"non-finite {column} = {value}")
        self.rows.append(list(values))

    def lines(self) -> list:
        out = [f"# {k} = {self.metadata[k]}" for k in sorted(self.metadata)]
        out.append(",".join(self.columns))
        for row in self.rows:
            out.append(",".join(_fmt(v) for v in row))
        return out

    def write(self, path: str) -> None:
        # atomic: never leave a half-written table behind
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write("\n".join(self.lines()) + "\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def scenario_redshift(p: dict, units: UnitSystem, seed: int) -> ResultTable:
    if (p["w"] is None) == (p["u"] is None):
        raise ConfigError("redshift needs exactly one of 'w' or 'u'")
    res = kinematics.redshift_z(w=p["w"], u=p["u"], units=units)
    table = ResultTable(columns=["z", "beta", "w_mag", "u_mag", "b", "z_small_speed"])
    table.add_row(res.z, res.beta, res.w_mag, res.u_mag, res.b, res.z_small_speed)
    return table


def scenario_muon(p: dict, units: UnitSystem, seed: int) -> ResultTable:
    """Ranges of an unstable particle on the two clock readings.

    Proper-clock range |u| tau_life against the naive observer-clock range
    |w| tau_life, with reach verdicts for the given altitude.  Always SI,
    whatever ``units`` says; the ``c`` metadata reports the SI value.
    """
    lifetime_tau, altitude = p["lifetime_s"], p["altitude_m"]
    u_mag = p["u_over_c"] * constants.C_SI
    if min(lifetime_tau, u_mag, altitude) <= 0.0:
        raise PropertimeError("muon scenario inputs must be positive")
    u = np.array([u_mag, 0.0, 0.0])
    w_mag = float(np.linalg.norm(kinematics.observer_from_proper(u, SI)))
    proper_range = u_mag * lifetime_tau
    naive_range = w_mag * lifetime_tau
    table = ResultTable(
        columns=[
            "lifetime_s",
            "u_mag",
            "w_mag",
            "proper_range",
            "naive_range",
            "altitude",
            "reaches_proper",
            "reaches_naive",
        ],
        metadata={"c": _fmt(SI.c)},
    )
    table.add_row(
        lifetime_tau,
        u_mag,
        w_mag,
        proper_range,
        naive_range,
        altitude,
        proper_range >= altitude,
        naive_range >= altitude,
    )
    return table


def scenario_rest_source(p: dict, units: UnitSystem, seed: int) -> ResultTable:
    """A source at rest seen from a frame moving with v.

    Emits gamma(v), the primed collaborative light speed b' = gamma c and
    the primed source velocity u' = -gamma v, all via the library
    transforms.
    """
    boost = group.BoostParameters(p["v"], units)
    g = boost.gamma_v
    b_prime = group.boost_lightspeed(units.c, np.zeros(3), boost)
    u_prime = group.boost_velocity(np.zeros(3), boost)
    table = ResultTable(
        columns=["gamma", "b_prime", "u_prime_x", "u_prime_y", "u_prime_z", "u_prime_mag"]
    )
    table.add_row(g, b_prime, *u_prime, float(np.linalg.norm(u_prime)))
    return table


def scenario_transform(p: dict, units: UnitSystem, seed: int) -> ResultTable:
    boost = group.BoostParameters(p["v"], units)
    x, u, a, tau = p["x"], p["u"], p["a"], p["tau"]
    b = kinematics.collaborative_speed(u, units)
    b_bar = b if p["b_bar"] is None else p["b_bar"]
    x_p = group.boost_event(x, tau, b_bar, boost)
    u_p = group.boost_velocity(u, boost)
    a_p = group.boost_acceleration(a, u, boost)
    b_p = group.boost_lightspeed(b, u, boost)
    b_bar_p = group.boost_lightspeed(b_bar, u, boost) if b_bar == b else b_bar
    x_back = group.boost_event_inverse(x_p, tau, b_bar_p, boost)
    u_back = group.boost_velocity_inverse(u_p, boost)
    a_back = group.boost_acceleration_inverse(a_p, u_p, boost)
    b_back = group.boost_lightspeed_inverse(b_p, u_p, boost)
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(u))), float(np.max(np.abs(a))))
    roundtrip = max(
        float(np.max(np.abs(x_back - x))),
        float(np.max(np.abs(u_back - u))),
        float(np.max(np.abs(a_back - a))),
        abs(b_back - b),
    ) / scale
    table = ResultTable(
        columns=[
            "xp_x", "xp_y", "xp_z",
            "up_x", "up_y", "up_z",
            "ap_x", "ap_y", "ap_z",
            "b_prime", "gamma_v", "roundtrip_residual",
        ],
    )
    table.add_row(*x_p, *u_p, *a_p, b_p, boost.gamma_v, roundtrip)
    return table


def scenario_fields(p: dict, units: UnitSystem, seed: int) -> ResultTable:
    traj = fields.SourceTrajectory.uniform(p["charge"], np.zeros(3), p["u"], units)
    radius, n_points, tau = p["radius"], p["points"], p["tau"]
    table = ResultTable(
        columns=[
            "angle",
            "x", "y", "z",
            "Ex", "Ey", "Ez",
            "Bx", "By", "Bz",
            "E_dot_B", "B_minus_rhatxE",
            "tau_ret",
        ],
    )
    for j in range(n_points):
        angle = 2.0 * math.pi * j / n_points
        point = radius * np.array([math.cos(angle), math.sin(angle), 0.0])
        E, B, tau_ret = fields.fields_at(point, tau, traj)
        rvec = point - traj.x(tau_ret)
        r_hat = rvec / np.linalg.norm(rvec)
        table.add_row(
            angle, *point, *E, *B,
            float(E @ B),
            float(np.max(np.abs(B - np.cross(r_hat, E)))),
            tau_ret,
        )
    return table


def scenario_orbit(p: dict, units: UnitSystem, seed: int) -> ResultTable:
    if p["potential"] == "coulomb":
        conf = dynamics.FieldConfiguration.coulomb(p["strength"])
    else:
        conf = dynamics.FieldConfiguration.free()
    state = dynamics.PhaseState(x=p["x0"], p=p["p0"], m=p["m"], units=units)
    traj = dynamics.integrate_orbit(state, conf, p["dtau"], p["steps"], record_every=p["record_every"])
    table = ResultTable(
        columns=["tau", "x", "y", "z", "px", "py", "pz", "K", "H", "b"],
        metadata={"k_drift": _fmt(traj.k_drift)},
    )
    for i in range(traj.tau.size):
        table.add_row(traj.tau[i], *traj.x[i], *traj.p[i], traj.K[i], traj.H[i], traj.b[i])
    return table


def scenario_nbody(p: dict, units: UnitSystem, seed: int) -> ResultTable:
    explicit = (p["masses"], p["xs"], p["ps"])
    if any(a is not None for a in explicit):
        if any(a is None or len(a) != p["n"] for a in explicit):
            raise ConfigError("explicit nbody configs need masses, xs and ps for n particles")
        sys = many.ParticleSystem(masses=p["masses"], xs=p["xs"], ps=p["ps"], units=units)
    else:
        rng = np.random.default_rng(seed)
        sys = many.ParticleSystem.random(p["n"], rng, p_max=p["p_max"], units=units)
    inv = many.system_invariants(sys)
    residuals = many.verify_algebra(sys)
    table = ResultTable(
        columns=[
            "particle",
            "mass",
            "clock_ratio",
            "u_mag",
            "v_mag",
            "b_i",
        ],
    )
    u, v, b_i = many.per_particle_speeds(sys)
    ratios = many.clock_ratio(np.arange(sys.n), sys)
    for i in range(sys.n):
        table.add_row(
            i,
            sys.masses[i],
            ratios[i],
            float(np.linalg.norm(u[i])),
            float(np.linalg.norm(v[i])),
            float(b_i[i]),
        )
    table.metadata.update(
        {
            "H": _fmt(inv.H),
            "M": _fmt(inv.M),
            "K": _fmt(inv.K),
            "b": _fmt(inv.b),
            "algebra_max_residual": _fmt(residuals["max"]),
        }
    )
    return table


def scenario_spectral(p: dict, units: UnitSystem, seed: int) -> ResultTable:
    params = spectral.KernelParameters.from_mass(p["mass"])
    mu = params.mu
    width = p["width_over_compton"] / mu
    extent = p["extent_over_compton"]
    extent = (max(20.0, 14.0 * width * mu) if extent is None else extent) / mu
    psi = spectral.RadialGridFunction.gaussian(p["points"], extent, width)
    via_kernel = spectral.apply_sqrt_operator(psi, params)
    via_fft = spectral.momentum_oracle(psi, params)
    err = float(
        np.sqrt(
            np.sum(np.abs(via_kernel.values - via_fft.values) ** 2)
            / np.sum(np.abs(via_fft.values) ** 2)
        )
    )
    table = ResultTable(columns=["x", "psi", "s_kernel", "s_oracle"])
    table.metadata["rel_l2_error"] = _fmt(err)
    table.metadata["tail_decay_fit"] = _fmt(spectral.fit_kernel_decay(params))
    for i in range(psi.n):
        table.add_row(psi.grid[i], psi.values[i], via_kernel.values[i], via_fft.values[i])
    return table


# name -> (scenario function, {key: (kind, default[, inclusive lower bound])}), kinds as
# in _convert.  Every scenario function takes (typed params, units, seed) and returns
# its table; run_config adds the config echo, version, seed and c metadata.
SCENARIOS = {
    "transform": (scenario_transform, {
        "v": ((3,), _REQUIRED), "x": ((3,), _ZERO3), "u": ((3,), _ZERO3), "a": ((3,), _ZERO3),
        "tau": (float, 0.0), "b_bar": (float, None)}),
    "fields": (scenario_fields, {
        "charge": (float, _REQUIRED), "u": ((3,), _REQUIRED),
        "radius": (float, 1.0), "points": (int, 8, 1), "tau": (float, 0.0)}),
    "orbit": (scenario_orbit, {
        "m": (float, _REQUIRED), "x0": ((3,), _REQUIRED), "p0": ((3,), _REQUIRED),
        "dtau": (float, _REQUIRED), "steps": (int, _REQUIRED, 1),
        "potential": ({"free", "coulomb"}, "free"), "strength": (float, 1.0),
        "record_every": (int, 1, 1)}),
    "nbody": (scenario_nbody, {
        "n": (int, _REQUIRED, 1), "p_max": (float, 5.0, 0.0),
        "masses": ((None,), None), "xs": ((None, 3), None), "ps": ((None, 3), None)}),
    "spectral": (scenario_spectral, {
        "width_over_compton": (float, _REQUIRED), "points": (int, 256, 2),
        "extent_over_compton": (float, None), "mass": (float, 1.0)}),
    "redshift": (scenario_redshift, {"w": ((3,), None), "u": ((3,), None)}),
    "muon": (scenario_muon, {
        "lifetime_s": (float, _REQUIRED), "u_over_c": (float, _REQUIRED),
        "altitude_m": (float, _REQUIRED)}),
    "rest_source": (scenario_rest_source, {"v": ((3,), _REQUIRED)}),
}


def run_config(
    path: str,
    out: Optional[str] = None,
    units_override: Optional[str] = None,
    stream=None,
    scenario: Optional[str] = None,
) -> int:
    """Load, validate, run and write one scenario config; return the exit code.

    ``scenario``, when given, is the subcommand the config must be for.
    """
    stream = stream if stream is not None else _sys.stdout
    try:
        cfg = ScenarioConfig.from_path(path, units_override)
        if scenario is not None and cfg.scenario != scenario:
            raise ConfigError(f"config {path} is for scenario {cfg.scenario!r}, not {scenario!r}")
        # an overflow, x/0 or nan is one exit-3 line, not a warning flood;
        # underflow stays quiet, since Gaussian and K1 tails underflow legitimately
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            table = SCENARIOS[cfg.scenario][0](cfg.params, cfg.units, cfg.seed)
        table.metadata = {"config": json.dumps(cfg.raw, sort_keys=True), "version": __version__,
                          "seed": cfg.seed, "c": _fmt(cfg.units.c), **table.metadata}
        target = out or cfg.out
        if target:
            table.write(target)
        else:
            print("\n".join(table.lines()), file=stream)
    except (ConfigError, OSError) as exc:  # OSError: the output cannot be written
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except (PropertimeError, ArithmeticError) as exc:  # ArithmeticError: overflow, x/0, inf/nan
        print(f"numerical failure in {cfg.scenario}: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 3
    return 0


def _run_verify(out: Optional[str]) -> int:
    from .verify import run_all

    checks = run_all()
    table = ResultTable(
        columns=["name", "residual", "tolerance", "passed"],
        metadata={"version": __version__},
    )
    width = max(len(c.name) for c in checks)
    ok = True
    for c in checks:
        table.rows.append([c.name, c.residual, c.tolerance, c.passed])
        status = "pass" if c.passed else "FAIL"
        print(f"{c.name:<{width}}  {c.residual:12.3e}  < {c.tolerance:8.0e}  {status}")
        ok = ok and c.passed
    if out:
        table.write(out)
    print(("all checks passed" if ok else "CHECKS FAILED"))
    return 0 if ok else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ptcli",
        description="Proper-time electrodynamics scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*SCENARIOS, "verify"):
        cli_name = name.replace("_", "-")
        sp = sub.add_parser(cli_name, help=f"run the {cli_name} scenario")
        sp.add_argument("--out", default=None, help="output CSV path (one --config only)")
        if name != "verify":
            sp.add_argument("--config", required=True, action="append",
                            help="path to a JSON scenario config (repeatable)")
            sp.add_argument("--units", choices=["natural", "si"], default=None,
                            help="override the config's unit system")
    args = parser.parse_args(argv)
    command = args.command.replace("-", "_")
    if command == "verify":
        return _run_verify(args.out)
    if args.out and len(args.config) > 1:
        print("config error: --out takes one --config; give each config its own 'out' key",
              file=_sys.stderr)
        return 2
    return max(run_config(path, args.out, args.units, scenario=command) for path in args.config)


if __name__ == "__main__":
    raise SystemExit(main())
