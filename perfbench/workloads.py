"""The four seeded workloads of the propertime benchmark.

An op is a workload's unit of work.  ``workload.op(i)`` builds op ``i`` from
its own random stream ``default_rng([seed, i])``, so a seed fixes the inputs
and their order however many ops a run gets through.  Each op carries

* ``run()``: the timed call into propertime's public API;
* ``check(result)``: the identity and tolerance the acceptance suite uses
  for that output; ``None`` when it holds, else a message;
* ``fingerprint(result)``: a few output values, compared with the values
  this benchmark recorded for the default seed;
* ``corrupt(result)``: a deliberately wrong copy of the output, which the
  self-test feeds to ``check`` to show that it is caught.

Every workload repeats a fixed cycle of op classes ("tags").  The cycle
fixes the share of each class, so the median and the tail fall inside one
class on every seed; the seed varies the inputs within each class.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from propertime import cli, dynamics, fields, many, spectral

RESIDUAL_TOL = 1e-6      # CSV residual columns of the scenarios
SPECTRAL_TOL = 1e-3      # kernel table against the frequency-domain oracle
FIELD_IDENTITY_TOL = 1e-11
GENERATING_TOL = 1e-10
EXACT_TOL = 1e-10        # identities the cheap scenarios report exactly
LINEAR_TOL = 1e-9        # uniform motion of free particles and centers of mass


@dataclass
class Op:
    index: int
    tag: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    fingerprint: Callable[[Any], list]
    corrupt: Callable[[Any], Any]


def _direction(rng):
    d = rng.normal(size=3)
    return d / np.linalg.norm(d)


def _within(name, value, tol):
    value = float(value)
    return None if value <= tol else f"{name} = {value:.3e} exceeds {tol:g}"


def _first_error(*errors):
    return next((e for e in errors if e), None)


def _sample(values, k=12):
    flat = np.ravel(np.asarray(values))
    if np.iscomplexobj(flat):
        flat = np.concatenate([flat.real, flat.imag])
    idx = np.unique(np.linspace(0, flat.size - 1, min(k, flat.size)).round().astype(int))
    return [float(v) for v in flat[idx]]


# ---------------------------------------------------------------- scenarios
def _read_csv(path):
    meta, rows, header = {}, [], None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition(" = ")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return meta, header or [], np.array(rows, dtype=float).reshape(len(rows), len(header or []))


def _write_csv(path, meta, header, rows):
    lines = [f"# {k} = {v}" for k, v in meta.items()] + [",".join(header)]
    lines += [",".join(format(float(v), ".17g") for v in row) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class Scenarios:
    """One in-process ``cli.main`` call per op, one config, CSV to a temp ``--out``.

    The only workload that runs ``cli``, ``kinematics``, ``group`` and the
    nbody path of ``many``.  The four cheap scenarios are two thirds of the
    cycle, so they set the median; spectral, nbody and orbit set the tail.
    Parameters are drawn per op, so configs do not repeat.
    """

    name = "scenarios"
    cycle = (
        "redshift", "fields", "transform", "muon", "orbit", "rest_source",
        "redshift", "nbody", "transform", "muon", "spectral", "rest_source",
    )
    trace_ops = 192
    nbody_sizes = (3, 10, 30)
    spectral_points = (128, 256)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.config = os.path.join(workdir, "config.json")
        self.out = os.path.join(workdir, "out.csv")

    def op(self, i):
        rng = np.random.default_rng([self.seed, i])
        scenario = self.cycle[i % len(self.cycle)]
        params, rows = getattr(self, "_" + scenario)(rng, i // len(self.cycle))
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump({"scenario": scenario, **params}, fh)
        if os.path.exists(self.out):
            os.unlink(self.out)
        argv = [scenario.replace("_", "-"), "--config", self.config, "--out", self.out]
        return Op(
            index=i,
            tag=f"scenario.{scenario}",
            run=lambda: cli.main(argv),
            check=lambda code: self._check(scenario, code, rows),
            fingerprint=lambda code: _sample(_read_csv(self.out)[2]),
            corrupt=self._corrupt,
        )

    # parameter generators: (config keys, expected data rows)
    @staticmethod
    def _redshift(rng, _):
        if rng.random() < 0.5:
            return {"w": (_direction(rng) * rng.uniform(0.01, 0.95)).tolist()}, 1
        return {"u": (_direction(rng) * rng.uniform(0.01, 5.0)).tolist()}, 1

    @staticmethod
    def _muon(rng, _):
        return {
            "lifetime_s": 2.197e-6 * rng.uniform(0.95, 1.05),
            "u_over_c": rng.uniform(0.5, 30.0),
            "altitude_m": rng.uniform(5e3, 2e4),
        }, 1

    @staticmethod
    def _rest_source(rng, _):
        return {"v": (_direction(rng) * rng.uniform(0.01, 0.95)).tolist()}, 1

    @staticmethod
    def _transform(rng, _):
        u = _direction(rng) * rng.uniform(0.0, 5.0)
        tau = rng.uniform(-2.0, 2.0)
        return {
            "v": (_direction(rng) * rng.uniform(0.01, 0.95)).tolist(),
            "x": (u * tau).tolist(),  # an event on a worldline through the origin
            "u": u.tolist(),
            "a": rng.normal(size=3).tolist(),
            "tau": tau,
        }, 1

    @staticmethod
    def _fields(rng, _):
        points = int(rng.integers(4, 13))
        return {
            "charge": rng.uniform(0.5, 2.0),
            "u": (_direction(rng) * rng.uniform(0.1, 3.0)).tolist(),
            "radius": rng.uniform(1.0, 5.0),
            "points": points,
            "tau": rng.uniform(0.0, 2.0),
        }, points

    @staticmethod
    def _orbit(rng, _):
        steps = int(rng.integers(200, 401))
        m = rng.uniform(0.5, 2.0)
        if rng.random() < 0.75:
            strength = rng.uniform(0.5, 2.0)
            x0, p0, period = _near_circular(rng, m, strength)
            params = {"potential": "coulomb", "strength": strength,
                      "dtau": period / math.exp(rng.uniform(math.log(250), math.log(4000)))}
        else:
            x0, p0 = rng.normal(size=3) * 5.0, rng.normal(size=3)
            params = {"potential": "free", "dtau": rng.uniform(0.01, 0.1)}
        return {"m": m, "x0": x0.tolist(), "p0": p0.tolist(), "steps": steps, **params}, steps + 1

    def _nbody(self, rng, cycle_no):
        n = self.nbody_sizes[cycle_no % len(self.nbody_sizes)]
        return {"n": n, "seed": int(rng.integers(0, 2**31)), "p_max": rng.uniform(1.0, 5.0)}, n

    def _spectral(self, rng, cycle_no):
        points = self.spectral_points[cycle_no % len(self.spectral_points)]
        return {
            "width_over_compton": rng.uniform(1.5, 3.0),
            "points": points,
            "mass": rng.uniform(0.5, 2.0),
        }, points

    def _check(self, scenario, code, rows_expected):
        if code != 0:
            return f"exit code {code}"
        meta, header, rows = _read_csv(self.out)
        if rows.shape[0] != rows_expected:
            return f"{rows.shape[0]} data rows, expected {rows_expected}"
        if not np.all(np.isfinite(rows)):
            return "non-finite value in data rows"
        col = {name: rows[:, j] for j, name in enumerate(header)}
        if scenario == "transform":
            return _within("roundtrip_residual", col["roundtrip_residual"].max(), RESIDUAL_TOL)
        if scenario == "fields":
            return _first_error(
                _within("E_dot_B", np.abs(col["E_dot_B"]).max(), RESIDUAL_TOL),
                _within("B_minus_rhatxE", col["B_minus_rhatxE"].max(), RESIDUAL_TOL),
            )
        if scenario == "orbit":
            return _within("k_drift", float(meta["k_drift"]), RESIDUAL_TOL)
        if scenario == "nbody":
            return _within("algebra_max_residual", float(meta["algebra_max_residual"]), RESIDUAL_TOL)
        if scenario == "spectral":
            return _within("rel_l2_error", float(meta["rel_l2_error"]), SPECTRAL_TOL)
        (r,) = rows
        v = dict(zip(header, r))
        if scenario == "redshift":  # z = sqrt((1 + beta)/(1 - beta)) - 1, beta = |u|/b
            z = math.sqrt((1.0 + v["beta"]) / (1.0 - v["beta"])) - 1.0
            return _first_error(
                _within("z residual", abs(v["z"] - z) / (1.0 + z), EXACT_TOL),
                _within("beta - |u|/b", abs(v["beta"] - v["u_mag"] / v["b"]), EXACT_TOL),
            )
        if scenario == "muon":  # ranges are speed times lifetime
            return _first_error(
                _within("proper range residual",
                        abs(v["proper_range"] - v["u_mag"] * v["lifetime_s"]) / v["proper_range"],
                        EXACT_TOL),
                _within("naive range residual",
                        abs(v["naive_range"] - v["w_mag"] * v["lifetime_s"]) / v["naive_range"],
                        EXACT_TOL),
            )
        # rest_source: b' = gamma c and b'^2 = c^2 + u'^2 with c = 1
        u_mag = math.sqrt(v["u_prime_x"] ** 2 + v["u_prime_y"] ** 2 + v["u_prime_z"] ** 2)
        return _first_error(
            _within("b' - gamma c", abs(v["b_prime"] - v["gamma"]) / v["gamma"], EXACT_TOL),
            _within("|u'| residual", abs(v["u_prime_mag"] - u_mag) / v["b_prime"], EXACT_TOL),
            _within("b'^2 - c^2 - u'^2", abs(v["b_prime"] ** 2 - 1.0 - u_mag**2) / v["b_prime"] ** 2,
                    EXACT_TOL),
        )

    def _corrupt(self, code):
        meta, header, rows = _read_csv(self.out)
        for key in ("k_drift", "algebra_max_residual", "rel_l2_error"):
            if key in meta:
                meta[key] = repr(float(meta[key]) + 1e-2)
        shift = 1e-3 * np.arange(1, len(header) + 1)
        _write_csv(self.out, meta, header, rows * (1.0 + shift) + shift)
        return code


def _near_circular(rng, m, strength):
    """Bound Coulomb orbit within 15% of circular speed, in a random plane."""
    r = rng.uniform(10.0, 40.0)
    speed = math.sqrt(strength / (m * r))
    e1 = _direction(rng)
    e2 = np.cross(e1, _direction(rng))
    e2 /= np.linalg.norm(e2)
    period = 2.0 * math.pi * r / speed
    return r * e1, m * speed * rng.uniform(0.85, 1.15) * e2, period


# ------------------------------------------------------------- trajectories
class Trajectories:
    """One ``dynamics.integrate_orbit`` or ``many.free_flight`` call per op.

    ``dynamics`` and ``many`` do nearly all the work; ``fields``,
    ``spectral`` and ``cli`` do none.  Five of every six ops take 1000
    steps and cost about the same, so they set the median; the sixth is a
    Coulomb orbit three times as long, and these set the tail.  Coulomb
    orbits run at 250-4000 steps per period.
    """

    name = "trajectories"
    cycle = ("orbit.coulomb", "free_flight", "orbit.coulomb", "orbit.free", "free_flight",
             "orbit.coulomb_long")
    trace_ops = 36
    steps = 1000
    flight_sizes = (2, 5, 10, 20, 30)

    def __init__(self, seed, workdir):
        self.seed = seed

    def op(self, i):
        rng = np.random.default_rng([self.seed, i])
        tag = self.cycle[i % len(self.cycle)]
        if tag == "free_flight":
            flights_before = 2 * (i // len(self.cycle)) + (i % len(self.cycle) > 1)
            n = self.flight_sizes[flights_before % len(self.flight_sizes)]
            system = many.ParticleSystem.random(n, rng, p_max=rng.uniform(0.5, 3.0))
            dtau = rng.uniform(0.005, 0.05)
            return Op(i, f"free_flight.n{n}", lambda: many.free_flight(system, dtau, self.steps),
                      _check_flight, _flight_fingerprint,
                      lambda tr: dataclasses.replace(tr, t=tr.t * 1.001))
        m = rng.uniform(0.5, 2.0)
        steps = 3 * self.steps if tag == "orbit.coulomb_long" else self.steps
        if tag == "orbit.free":
            x0, p0 = rng.normal(size=3) * 5.0, rng.normal(size=3)
            conf = dynamics.FieldConfiguration.free()
            dtau = rng.uniform(0.01, 0.1)
        else:
            strength = rng.uniform(0.5, 2.0)
            x0, p0, period = _near_circular(rng, m, strength)
            conf = dynamics.FieldConfiguration.coulomb(strength)
            dtau = period / math.exp(rng.uniform(math.log(250), math.log(4000)))
        state = dynamics.PhaseState(x=x0, p=p0, m=m)
        return Op(
            i, tag, lambda: dynamics.integrate_orbit(state, conf, dtau, steps),
            lambda tr: _check_orbit(tr, state, dtau, steps, tag == "orbit.free"),
            _orbit_fingerprint,
            lambda tr: dataclasses.replace(tr, K=tr.K * np.r_[np.ones(tr.K.size - 1), 1.001]),
        )


def _check_orbit(tr, state, dtau, steps, free):
    if tr.x.shape != (steps + 1, 3):
        return f"orbit record has shape {tr.x.shape}"
    error = _within("K drift", tr.k_drift, RESIDUAL_TOL)
    if free and not error:  # straight line x0 + (p/m) tau
        line = state.x + (state.p / state.m) * (steps * dtau)
        error = _within("free-orbit line residual",
                        np.abs(tr.x[-1] - line).max() / (1.0 + np.abs(line).max()), LINEAR_TOL)
    return error


def _check_flight(tr):
    scale = abs(tr.K * tr.taus[-1])
    U = tr.P / tr.M  # the canonical center of mass moves with U on the global clock
    drift = tr.X - tr.X[0] - tr.taus[:, None] * U[None, :]
    return _first_error(
        _within("generating identity", many.generating_identity_residual(tr) / scale, GENERATING_TOL),
        _within("center-of-mass line residual",
                np.abs(drift).max() / (1.0 + np.abs(tr.X).max()), LINEAR_TOL),
    )


def _orbit_fingerprint(tr):
    mid = tr.tau.size // 2
    return [*tr.x[-1], *tr.p[-1], tr.K[-1], tr.H[-1], tr.b[-1], *tr.x[mid]]


def _flight_fingerprint(tr):
    mid = tr.taus.size // 2
    return [*tr.X[-1], *tr.X[mid], tr.t[-1], *tr.xs[-1, 0]]


# ---------------------------------------------------------------- field map
def _oscillating_worldline(rng):
    """Bounded anharmonic worldline with u.a != 0 (the form ``verify`` uses)."""
    amp = rng.uniform(0.2, 0.8, size=3)
    w = rng.uniform(0.5, 1.2)

    def pos(tau):
        return np.array([amp[0] * np.sin(w * tau), amp[1] * np.sin(2 * w * tau),
                         amp[2] * np.cos(w * tau)])

    def vel(tau):
        return np.array([amp[0] * w * np.cos(w * tau), 2 * amp[1] * w * np.cos(2 * w * tau),
                         -amp[2] * w * np.sin(w * tau)])

    def acc(tau):
        return np.array([-amp[0] * w**2 * np.sin(w * tau), -4 * amp[1] * w**2 * np.sin(2 * w * tau),
                         -amp[2] * w**2 * np.cos(w * tau)])

    return pos, vel, acc


class FieldMap:
    """One ``fields.fields_at`` call per op, at a seeded point and source.

    ``fields`` does nearly all the work and ``dynamics`` none.  A cycle of
    nine ops holds 2 uniform, 6 oscillating and 1 sampled source: the
    oscillating points set the median and the sampled ones (a cubic spline
    through the oscillating worldline, ``SourceTrajectory.from_samples``)
    set the tail and most of the time.  Points lie 3-5 from the origin.
    """

    name = "field_map"
    cycle = ("oscillating", "uniform", "oscillating", "sampled", "oscillating",
             "oscillating", "uniform", "oscillating", "oscillating")
    trace_ops = 72
    sample_grid = np.arange(-30.0, 10.0 + 1e-9, 0.25)

    def __init__(self, seed, workdir):
        self.seed = seed

    def op(self, i):
        rng = np.random.default_rng([self.seed, i])
        kind = self.cycle[i % len(self.cycle)]
        e = rng.uniform(0.5, 2.0)
        if kind == "uniform":
            traj = fields.SourceTrajectory.uniform(
                e, rng.normal(size=3) * 0.5, _direction(rng) * rng.uniform(0.1, 3.0))
        else:
            pos, vel, acc = _oscillating_worldline(rng)
            if kind == "oscillating":
                traj = fields.SourceTrajectory(e=e, position=pos, velocity=vel, acceleration=acc)
            else:
                samples = np.array([pos(t) for t in self.sample_grid])
                traj = fields.SourceTrajectory.from_samples(e, self.sample_grid, samples)
        point = _direction(rng) * rng.uniform(3.0, 5.0)
        tau = rng.uniform(0.0, 3.0)
        return Op(
            i, f"field.{kind}", lambda: fields.fields_at(point, tau, traj),
            lambda res: _check_field(res, point, traj),
            lambda res: [*res[0], *res[1], res[2]],
            lambda res: (res[0] * 1.001, res[1], res[2]),
        )


def _check_field(res, point, traj):
    E, B, tau_ret = res
    r = point - traj.x(tau_ret)
    r_hat = r / np.linalg.norm(r)
    e_mag, b_mag = np.linalg.norm(E), np.linalg.norm(B)
    return _first_error(
        _within("|B - r_hat x E|/|B|", np.abs(B - np.cross(r_hat, E)).max() / b_mag,
                FIELD_IDENTITY_TOL),
        _within("|E.B|/(|E||B|)", abs(E @ B) / (e_mag * b_mag), FIELD_IDENTITY_TOL),
    )


# ---------------------------------------------------------- spectral evolve
class SpectralEvolve:
    """One ``spectral.apply_sqrt_operator`` call per op.

    The one workload whose inputs share work: wave packets cycle over three
    grids, so each ``(params, n, spacing)`` recurs, as in the spectral
    scenario and ``verify``.  A cycle of sixteen ops holds ten n = 256, five
    n = 1024 and one n = 2048 packets, so the median is an n = 256 op and
    the tail an n = 1024 op, with fewer n = 2048 ops in a run than the ten
    the tail leaves above it.
    """

    name = "spectral_evolve"
    extents = {256: 48.0, 1024: 96.0, 2048: 128.0}  # at least 14 widths each
    cycle = (256, 1024, 256, 256, 1024, 256, 2048, 256,
             1024, 256, 256, 1024, 256, 256, 1024, 256)
    trace_ops = 16

    def __init__(self, seed, workdir):
        self.seed = seed
        self.params = spectral.KernelParameters.from_mass(1.0)

    def op(self, i):
        rng = np.random.default_rng([self.seed, i])
        n = self.cycle[i % len(self.cycle)]
        extent = self.extents[n]
        packet = spectral.RadialGridFunction.gaussian(
            n, extent, rng.uniform(1.5, 3.0), center=rng.uniform(-0.15, 0.15) * extent)
        psi = spectral.RadialGridFunction(
            grid=packet.grid, values=packet.values * np.exp(1j * rng.uniform(-1.0, 1.0) * packet.grid))
        params = self.params
        return Op(
            i, f"table.n{n}", lambda: spectral.apply_sqrt_operator(psi, params),
            lambda out: _check_spectral(out, psi, params),
            lambda out: _sample(out.values),
            lambda out: spectral.RadialGridFunction(grid=out.grid, values=out.values * 1.01),
        )


def _check_spectral(out, psi, params):
    ref = spectral.momentum_oracle(psi, params).values
    err = math.sqrt(np.sum(np.abs(out.values - ref) ** 2) / np.sum(np.abs(ref) ** 2))
    return _within("rel L2 error vs momentum_oracle", err, SPECTRAL_TOL)


WORKLOADS = {w.name: w for w in (Scenarios, Trajectories, FieldMap, SpectralEvolve)}


def make(name, seed, workdir):
    return WORKLOADS[name](seed, workdir)
